"""In-memory span tracing of npgq's public functions, and per-layer metrics.

:meth:`Tracer.install` replaces every function a measured module lists in
``__all__`` with a recording wrapper, at every name through which npgq
itself calls it: the module attribute, each ``from .x import f`` binding
in the other npgq modules, the package namespace, and the method table
``experiments._DISCRETIZERS`` (shared with the CLI).  :meth:`uninstall`
puts the originals back.  The program's own files are never edited.

A span is the tuple ``(id, parent, op, name, start_ns, end_ns, size, extra)``:
``parent`` is the id of the enclosing span or -1, ``op`` the benchmark
operation it belongs to, ``size`` the study sample size T being processed
(None outside a study replication) and ``extra`` a dict of counts read at
the boundary (or None).
"""
from __future__ import annotations

import inspect
import json
import re
import sys
import time
from collections import defaultdict

# npgq modules whose public functions are traced.  ``orthopoly`` is used
# only by the tests and ``errors`` does no work, so neither is measured.
MEASURED_MODULES = ("moments", "quadrature", "baselines", "portfolio", "experiments", "cli")

SPAN_FIELDS = ("id", "parent", "op", "name", "start_ns", "end_ns", "size", "extra")

STUDY_SIZES = (100, 1000, 10000)

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# (layer, metric kind) pairs.  Every one is also reported per study sample
# size with a ``.T<size>`` suffix, except those in _UNSPLIT.
_SELF = (
    "moments.sample_moments",
    "moments.standardize",
    "baselines.fit_gaussian_mle",
    "quadrature.discretize_data",
    "quadrature.golub_welsch",
    "baselines.maxent_solve",
    "baselines.kde_pdf",
    "baselines.gauss_hermite_discretize",
    "portfolio.solve_portfolio",
    "experiments.sample_mixture",
    "experiments.run_experiment",
    "cli.main",
)
_CALLS = (
    "moments.sample_moments",
    "quadrature.discretize_data",
    "quadrature.golub_welsch",
    "portfolio.solve_portfolio",
)
# The three discretizers as the study calls them (the ROADMAP's sweep times).
_INCL = (
    "quadrature.discretize_data",
    "baselines.gauss_hermite_discretize",
    "baselines.maxent_discretize",
)
_UNSPLIT = {
    "experiments.run_experiment.self_ms_per_op",
    "cli.main.self_ms_per_op",
    "portfolio.theoretical_portfolio.self_ms",
    "trace.overhead_frac",
}


def _base_metrics() -> list[tuple[str, str]]:
    out = [(f"{n}.self_ms_per_op", "ms") for n in _SELF]
    out += [(f"{n}.calls_per_op", "count") for n in _CALLS]
    out += [(f"{n}.incl_ms_per_op", "ms") for n in _INCL]
    out += [
        ("moments.sample_moments.elems_per_op", "count"),
        ("baselines.maxent_solve.newton_iters_per_call", "count"),
        ("baselines.maxent_solve.downgraded_frac", "ratio"),
        ("portfolio.foc_rel_residual_max", "ratio"),
        ("portfolio.theoretical_portfolio.self_ms", "ms"),
        ("trace.overhead_frac", "ratio"),
    ]
    return out


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    base = _base_metrics()
    out = list(base)
    for size in STUDY_SIZES:
        out += [(f"{name}.T{size}", unit) for name, unit in base if name not in _UNSPLIT]
    return out


def _sample_moments_probe(args, kwargs, result):
    data = args[0] if args else kwargs["data"]
    order = args[1] if len(args) > 1 else kwargs["max_order"]
    return {"elems": int(getattr(data, "size", len(data))) * int(order)}


def _maxent_probe(args, kwargs, result):
    return {"iters": result.iterations, "downgraded": bool(result.downgraded)}


def _portfolio_probe(args, kwargs, result):
    rel = abs(result.foc_residual) / result.foc_scale if result.foc_scale > 0.0 else 0.0
    return {"foc_rel": rel}


_PROBES = {
    "moments.sample_moments": _sample_moments_probe,
    "baselines.maxent_solve": _maxent_probe,
    "portfolio.solve_portfolio": _portfolio_probe,
}


class Tracer:
    """Records spans while installed; spans stay in memory until written."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []
        self._size = None
        self._restore: list = []

    def begin_op(self, op: int) -> None:
        self.op = op
        self._size = None

    def _wrap(self, name: str, fn):
        probe = _PROBES.get(name)
        sets_size = name == "experiments.sample_mixture"
        resets_size = name == "experiments.run_experiment"
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if resets_size:
                self._size = None
            elif sets_size:
                self._size = int(args[1] if len(args) > 1 else kwargs["size"])
            size, op = self._size, self.op
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            extra = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if probe is not None:
                    extra = probe(args, kwargs, result)
                return result
            except BaseException as exc:
                extra = {"error": type(exc).__name__}
                raise
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, op, name, start, end, size, extra)
                if resets_size:
                    self._size = None

        return wrapper

    def install(self) -> None:
        """Wrap the measured functions wherever npgq binds them."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        pkg = sys.modules["npgq"]
        wrappers = {}
        for short in MEASURED_MODULES:
            mod = sys.modules[f"npgq.{short}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn):
                    wrappers[fn] = self._wrap(f"{short}.{attr}", fn)
        modules = [pkg] + [m for k, m in sys.modules.items() if k.startswith("npgq.")]
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._restore.append((vars(mod), attr, val))
                    setattr(mod, attr, wrappers[val])
        table = sys.modules["npgq.experiments"]._DISCRETIZERS
        for key, val in list(table.items()):
            if val in wrappers:
                self._restore.append((table, key, val))
                table[key] = wrappers[val]

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._restore):
            namespace[key] = original
        self._restore.clear()

    def write(self, path, header: dict) -> None:
        """One JSON header line, then one JSON array per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "fields": SPAN_FIELDS}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def self_times(spans) -> list[int]:
    """Per span: its duration minus the part of it its children cover (ns).

    Spans are indexed by id.  Children are clipped to the parent's
    interval and overlapping children are counted once.
    """
    children = defaultdict(list)
    for s in spans:
        if s[1] >= 0:
            children[s[1]].append((s[4], s[5]))
    out = []
    for s in spans:
        start, end = s[4], s[5]
        covered, cursor = 0, start
        for a, b in sorted(children.get(s[0], ())):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        out.append(end - start - covered)
    return out


def layer_metrics(spans, n_ops: int, overhead_frac: float, op_factor=None) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of :func:`per_layer_metrics` from a span list.

    Per-op values divide totals by ``n_ops`` traced operations.  The
    ``.T<size>`` variants only count spans recorded while a study
    replication was processing a sample of that size.  ``op_factor[op]``,
    if given, scales the times of operation ``op``'s spans.
    """
    scale = {s[0]: 1.0 if op_factor is None else op_factor[s[2]] for s in spans}
    self_by_id = {s[0]: t * scale[s[0]] for s, t in zip(spans, self_times(spans))}
    groups: dict = {None: spans}
    for size in STUDY_SIZES:
        groups[size] = [s for s in spans if s[6] == size]
    units = dict(per_layer_metrics())
    out: dict[str, tuple[float, str]] = {}
    ops = max(n_ops, 1)
    for size, group in groups.items():
        suffix = "" if size is None else f".T{size}"
        self_ns = defaultdict(int)
        incl_ns = defaultdict(int)
        calls = defaultdict(int)
        elems = iters = downgraded = 0
        foc_rel = 0.0
        for s in group:
            name, extra = s[3], s[7] or {}
            self_ns[name] += self_by_id[s[0]]
            incl_ns[name] += (s[5] - s[4]) * scale[s[0]]
            calls[name] += 1
            elems += extra.get("elems", 0)
            iters += extra.get("iters", 0)
            downgraded += extra.get("downgraded", False)
            foc_rel = max(foc_rel, extra.get("foc_rel", 0.0))
        values = {f"{n}.self_ms_per_op": self_ns[n] / 1e6 / ops for n in _SELF}
        values.update({f"{n}.calls_per_op": calls[n] / ops for n in _CALLS})
        values.update({f"{n}.incl_ms_per_op": incl_ns[n] / 1e6 / ops for n in _INCL})
        n_maxent = calls["baselines.maxent_solve"]
        values.update(
            {
                "moments.sample_moments.elems_per_op": elems / ops,
                "baselines.maxent_solve.newton_iters_per_call": iters / n_maxent if n_maxent else 0.0,
                "baselines.maxent_solve.downgraded_frac": downgraded / n_maxent if n_maxent else 0.0,
                "portfolio.foc_rel_residual_max": foc_rel,
            }
        )
        if size is None:
            values["portfolio.theoretical_portfolio.self_ms"] = (
                self_ns["portfolio.theoretical_portfolio"] / 1e6 / ops
            )
            values["trace.overhead_frac"] = overhead_frac
        for key, value in values.items():
            if size is not None and key in _UNSPLIT:
                continue
            name = key + suffix
            out[name] = (float(value), units[name])
    return out
