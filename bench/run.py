#!/usr/bin/env python3
"""npgq benchmark: one seeded workload per process, closed loop, one client.

    python3 bench/run.py --workload study --seed 1 --seconds 30 --trace 0

Run from the root of a checkout (``src/npgq`` is imported from there).
``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
interleaves untraced and traced runs of the same operations and reports
per-layer metrics from the spans, which it writes to
``.bench_out/spans-<workload>-seed<seed>.jsonl``.  Either mode runs the
workload's correctness gate after the timed loop, prints one line per
metric, and ends with one JSON result line; it exits 1 if a check fails.
See ``bench/README.md``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("study", "portfolio_cli", "large_sample")
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
}
# The same numbers under the workload-specific names used in the docs.
ALIASES = {
    "study": {"study_reps_per_s": "ops_per_s"},
    "portfolio_cli": {"portfolio_ms_p50": "op_ms_p50", "portfolio_ms_p90": "op_ms_p90"},
    "large_sample": {"discretize_ms_p50": "op_ms_p50", "discretize_ms_p90": "op_ms_p90"},
}
# ROADMAP baseline: traced inclusive ms per replication of each method's
# N in {3,5,7,9} sweep at T = 10000.
ROADMAP_SWEEP_MS = {
    "quadrature.discretize_data.incl_ms_per_op.T10000": 73.0,
    "baselines.maxent_discretize.incl_ms_per_op.T10000": 57.0,
    "baselines.gauss_hermite_discretize.incl_ms_per_op.T10000": 7.3,
}

# Reference kernel: math.fsum over REF_SIZE squares takes about
# REF_NOMINAL_S at the typical speed of the machine the bounds were set on.
REF_SIZE = 20_000
REF_NOMINAL_S = 0.0021
REF_EVERY_S = 0.02
REF_BURST = 5  # reference samples after each set-up step

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import npgq; print(time.perf_counter() - t)"
)
# Import speed drifts apart from compute speed, so the import part of
# set-up is corrected by a fixed stdlib import in its own child process,
# which takes about IMPORT_REF_NOMINAL_S at the typical speed.
_IMPORT_REF_PROBE = (
    "import time; t = time.perf_counter(); "
    "import argparse, asyncio, decimal, email.parser, http.client, logging, unittest, xml.dom.minidom; "
    "print(time.perf_counter() - t)"
)
IMPORT_REF_NOMINAL_S = 0.055


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _child_seconds(code: str, *args: str) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=120, check=True
    )
    return float(proc.stdout)


def _colon_fields(text: str) -> dict[str, str]:
    return {k.strip(): v.strip() for k, _, v in (line.partition(":") for line in text.splitlines())}


def _cpu_info() -> dict:
    info = {}
    if shutil.which("lscpu"):
        proc = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=30)
        fields = _colon_fields(proc.stdout)
        info = {
            "cpu_model": fields.get("Model name"),
            "l2_cache": fields.get("L2 cache"),
            "l3_cache": fields.get("L3 cache"),
        }
    if not info.get("cpu_model"):
        try:
            fields = _colon_fields(Path("/proc/cpuinfo").read_text())
        except OSError:
            fields = {}
        info = {"cpu_model": fields.get("model name"), "cache_size": fields.get("cache size")}
    return info


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except OSError:
        return "unknown (git not found)"
    return proc.stdout.strip() or "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        **_cpu_info(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


def make_workload(name: str, seed: int):
    import workloads

    if name == "study":
        return workloads.Study(seed)
    if name == "portfolio_cli":
        return workloads.PortfolioCli(seed, OUT)
    return workloads.LargeSample(seed)


def reference_seconds(data) -> float:
    """Time of a fixed kernel that does not touch npgq: ``math.fsum(data * data)``.

    The machine is shared, and how fast it runs drifts by tens of percent
    over seconds to minutes.  This kernel (a numpy product, then Python
    float iteration and summation) slows down with it, so timings divided
    by it stay comparable across runs and commits.
    """
    t0 = time.perf_counter()
    math.fsum(data * data)
    return time.perf_counter() - t0


def timed_loop(wl, seconds: float, ref_data, tracer=None) -> dict:
    """Run operations back to back until ``seconds`` have passed.

    Stops only at the end of a whole input cycle, so every run sees the
    same mix of inputs.  Between operations, at most every
    ``REF_EVERY_S``, it times the reference kernel; ``ref_after[i]`` is the
    number of reference samples taken before operation ``i`` ended.  With
    a tracer, each operation runs untraced and then traced on the same
    input, and the two outputs must be equal.
    """
    lat, lat_traced, ref_after, outputs, problems = [], [], [], [], []
    refs = [reference_seconds(ref_data)]
    attempted = failed = 0
    start = last_ref = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        t0 = time.perf_counter()
        out = wl.run(i)
        lat.append(time.perf_counter() - t0)
        ref_after.append(len(refs))
        outputs.append(out)
        a, f = wl.counts(out)
        attempted, failed = attempted + a, failed + f
        if tracer is not None:
            tracer.install()
            tracer.begin_op(i)
            try:
                t0 = time.perf_counter()
                traced = wl.run(i)
                lat_traced.append(time.perf_counter() - t0)
            finally:
                tracer.uninstall()
            a, f = wl.counts(traced)
            attempted, failed = attempted + a, failed + f
            if not wl.same(out, traced):
                problems.append(f"op {i}: traced output differs from untraced output")
        i += 1
        if time.perf_counter() - last_ref >= REF_EVERY_S:
            refs.append(reference_seconds(ref_data))
            last_ref = time.perf_counter()
        if i % wl.cycle == 0 and time.perf_counter() >= deadline:
            break
    refs.append(reference_seconds(ref_data))
    return {
        "wall_s": time.perf_counter() - start,
        "lat": lat,
        "lat_traced": lat_traced,
        "refs": refs,
        "ref_after": ref_after,
        "outputs": outputs,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
    }


def speed_factors(refs: list[float], ref_after: list[int]) -> list[float]:
    """Per operation: nominal over local reference time (median of the 8 nearest samples)."""
    return [REF_NOMINAL_S / statistics.median(refs[max(0, j - 4) : j + 4]) for j in ref_after]


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile: a Beta-weighted mean of the order statistics.

    A workload that mixes call kinds of very different cost can put a plain
    sample quantile in the gap between two kinds, where it jumps with the
    slowest or fastest single call; this estimate moves smoothly instead.
    """
    import numpy
    from scipy.special import betainc

    x = numpy.sort(numpy.asarray(values, dtype=float))
    n = x.size
    weights = numpy.diff(betainc(p * (n + 1), (1 - p) * (n + 1), numpy.arange(n + 1) / n))
    return float(weights @ x)


def end_to_end(lat_s: list[float], setup_s: float, peak_rss_mb: float) -> dict[str, float]:
    lat_ms = [x * 1e3 for x in lat_s]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "ops_per_s": len(lat_ms) / sum(lat_s),
        "op_ms_p50": quantile(lat_ms, 0.5),
        "op_ms_p90": quantile(lat_ms, 0.9),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    try:
        import npgq  # noqa: F401  (timed: the program's import is part of set-up)
    except ImportError as exc:
        print(f"error: cannot import npgq from {SRC}: {exc}", file=sys.stderr)
        return 2
    import_s = [time.perf_counter() - t0]
    import numpy

    ref_data = numpy.sin(numpy.arange(REF_SIZE, dtype=float))
    import_refs = []
    for _ in range(SETUP_REPEATS - 1):
        import_s.append(_child_seconds(_IMPORT_PROBE, str(SRC)))
        import_refs.append(_child_seconds(_IMPORT_REF_PROBE))
    setup_refs = [reference_seconds(ref_data) for _ in range(REF_BURST)]

    import tracing

    OUT.mkdir(exist_ok=True)
    wl = make_workload(args.workload, args.seed)
    prepare_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.prepare()
        prepare_s.append(time.perf_counter() - t0)
        setup_refs += [reference_seconds(ref_data) for _ in range(REF_BURST)]
    raw_setup_s = statistics.median(import_s) + statistics.median(prepare_s)
    import_factor = IMPORT_REF_NOMINAL_S / statistics.median(import_refs)
    setup_factor = REF_NOMINAL_S / statistics.median(setup_refs)
    setup_s = statistics.median(import_s) * import_factor + statistics.median(prepare_s) * setup_factor

    tracer = tracing.Tracer() if args.trace else None
    loop = timed_loop(wl, args.seconds, ref_data, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = loop["problems"] + wl.check(loop["outputs"])
    env = environment(args.seed)
    n_ops = len(loop["lat"])
    factors = speed_factors(loop["refs"], loop["ref_after"])

    if args.trace:
        overhead = sum(loop["lat_traced"]) / sum(loop["lat"]) - 1.0
        metrics = tracing.layer_metrics(tracer.spans, n_ops, overhead, factors)
        span_path = OUT / f"spans-{wl.name}-seed{args.seed}.jsonl"
        tracer.write(span_path, {"workload": wl.name, "ops": n_ops, "speed_factor": factors, "env": env})
        notes = [f"spans: {len(tracer.spans)} written to {span_path.relative_to(ROOT)}"]
        if wl.name == "study":
            for name, ref in ROADMAP_SWEEP_MS.items():
                got = metrics[name][0]
                notes.append(f"{name} = {got:.4g} ms vs ROADMAP {ref:g} ms ({got / ref - 1.0:+.1%})")
            raw = tracing.layer_metrics(tracer.spans, n_ops, overhead)
            notes.append(
                "as measured, before the speed correction: "
                + ", ".join(f"{name} = {raw[name][0]:.4g} ms" for name in ROADMAP_SWEEP_MS)
            )
    else:
        scaled = [x * f for x, f in zip(loop["lat"], factors)]
        values = end_to_end(scaled, setup_s, peak_rss_mb)
        raw = end_to_end(loop["lat"], raw_setup_s, peak_rss_mb)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        notes = [
            f"{alias} = {values[name]:.6g} {END_TO_END_UNITS[name]} (= {name})"
            for alias, name in ALIASES[wl.name].items()
        ]
        notes.append(
            "as measured, before the speed correction: "
            + ", ".join(f"{k} = {v:.6g}" for k, v in raw.items())
        )

    failed_frac = loop["failed"] / loop["attempted"]
    print("env " + json.dumps(env, sort_keys=True))
    print(
        f"workload={wl.name} seed={args.seed} trace={args.trace}: {n_ops} {wl.unit} "
        f"in {loop['wall_s']:.3f} s (closed loop, 1 client); "
        f"import {statistics.median(import_s):.4f} s + inputs/warm-up "
        f"{statistics.median(prepare_s):.4f} s (median of {SETUP_REPEATS}); "
        f"speed factor {statistics.median(factors):.4f} in the loop, {import_factor:.4f} on "
        f"imports, {setup_factor:.4f} on inputs/warm-up"
    )
    for name, (value, unit) in metrics.items():
        count = f" (n={n_ops} {wl.unit})" if name.startswith("op") else ""
        print(f"{name} = {value:.6g} {unit}{count}")
    print(
        f"failed_frac = {failed_frac:.6g} "
        f"({loop['failed']} of {loop['attempted']} {wl.attempt_unit})"
    )
    for line in notes:
        print(line)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    result = {
        "correct": not problems,
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        **result,
        "workload": wl.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "ops": n_ops,
        "failed_frac": failed_frac,
        "setup": {
            "import_s": import_s, "import_ref_s": import_refs,
            "prepare_s": prepare_s, "ref_s": setup_refs,
        },
        "loop": {"op_s": loop["lat"], "ref_s": loop["refs"], "speed_factor": factors},
        "problems": problems,
        "env": env,
    }
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
