"""Tests of the benchmark itself: ``python3 -m pytest bench/test_bench.py``."""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _all_metric_names():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    return names + [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("name", _all_metric_names())
def test_metric_and_workload_names_follow_the_grammar(name):
    assert tracing.NAME_RE.fullmatch(name), name


def test_names_are_unique_and_match_the_code():
    names = _all_metric_names()
    assert len(names) == len(set(names))
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracing.per_layer_metrics()


def test_name_grammar_rejects_bad_names():
    for bad in ("", ".leading_dot", "has space", "slash/name", "x" * 65, "T100%"):
        assert not tracing.NAME_RE.fullmatch(bad), bad


def _span(sid, parent, name, start, end, size=None, extra=None):
    return (sid, parent, 0, name, start, end, size, extra)


def test_self_time_subtracts_children_once():
    # root [0, 100) has children [10, 30) and [20, 50) (overlapping, so
    # they cover 40) and [90, 120) (clipped to 10); the first child has
    # a grandchild [12, 18).
    spans = [
        _span(0, -1, "root", 0, 100),
        _span(1, 0, "a", 10, 30),
        _span(2, 1, "leaf", 12, 18),
        _span(3, 0, "b", 20, 50),
        _span(4, 0, "c", 90, 120),
    ]
    assert tracing.self_times(spans) == [100 - 40 - 10, 20 - 6, 6, 30, 30]


def test_layer_metrics_from_a_synthetic_study_tree():
    ms = 1_000_000
    spans = [
        _span(0, -1, "experiments.run_experiment", 0, 100 * ms),
        _span(1, 0, "experiments.sample_mixture", 0, 2 * ms, size=100),
        _span(2, 0, "quadrature.discretize_data", 2 * ms, 12 * ms, size=100),
        _span(3, 2, "moments.sample_moments", 3 * ms, 9 * ms, size=100, extra={"elems": 600}),
        _span(4, 0, "baselines.maxent_solve", 20 * ms, 30 * ms, size=1000,
              extra={"iters": 6, "downgraded": True}),
        _span(5, 0, "baselines.maxent_solve", 30 * ms, 40 * ms, size=1000,
              extra={"iters": 4, "downgraded": False}),
        _span(6, 0, "portfolio.solve_portfolio", 50 * ms, 51 * ms, size=10000,
              extra={"foc_rel": 3e-13}),
    ]
    got = {k: v for k, (v, _) in tracing.layer_metrics(spans, n_ops=2, overhead_frac=0.05).items()}
    assert set(got) == {name for name, _ in tracing.per_layer_metrics()}
    assert got["experiments.run_experiment.self_ms_per_op"] == pytest.approx((100 - 2 - 10 - 20 - 1) / 2)
    assert got["quadrature.discretize_data.self_ms_per_op"] == pytest.approx(2.0)
    assert got["quadrature.discretize_data.incl_ms_per_op.T100"] == pytest.approx(5.0)
    assert got["moments.sample_moments.elems_per_op"] == 300
    assert got["moments.sample_moments.calls_per_op.T1000"] == 0
    assert got["baselines.maxent_solve.newton_iters_per_call.T1000"] == 5
    assert got["baselines.maxent_solve.downgraded_frac"] == 0.5
    assert got["portfolio.foc_rel_residual_max.T10000"] == 3e-13
    assert got["trace.overhead_frac"] == 0.05
    scaled = tracing.layer_metrics(spans, n_ops=2, overhead_frac=0.05, op_factor={0: 0.5})
    assert scaled["quadrature.discretize_data.self_ms_per_op"][0] == pytest.approx(1.0)
    assert scaled["quadrature.discretize_data.incl_ms_per_op.T100"][0] == pytest.approx(2.5)
    assert scaled["moments.sample_moments.elems_per_op"][0] == 300


def test_same_seed_gives_identical_inputs():
    assert inputs.large_series(7).tobytes() == inputs.large_series(7).tobytes()
    texts = [inputs.table_csv(t) for t in inputs.portfolio_tables(7)]
    assert texts == [inputs.table_csv(t) for t in inputs.portfolio_tables(7)]
    assert inputs.study_seed(7, 3) == inputs.study_seed(7, 3)


def test_different_seeds_give_different_inputs():
    assert inputs.large_series(7).tobytes() != inputs.large_series(8).tobytes()
    assert [inputs.table_csv(t) for t in inputs.portfolio_tables(7)] != [
        inputs.table_csv(t) for t in inputs.portfolio_tables(8)
    ]
    seeds = {inputs.study_seed(s, op) for s in (7, 8) for op in range(-1, 50)}
    assert len(seeds) == 2 * 51


def test_portfolio_tables_have_the_documented_shape():
    tables = inputs.portfolio_tables(3)
    assert len(tables) == inputs.PORTFOLIO_FILES
    for table in tables:
        rows = table["stock"].size
        assert inputs.PORTFOLIO_ROWS[0] <= rows <= inputs.PORTFOLIO_ROWS[1]
        assert all(np.all(table[c] > 0) for c in ("stock", "riskfree", "inflation"))


def test_quantile_estimates():
    values = [float(v) for v in range(1, 102)]
    assert run.quantile(values, 0.5) == pytest.approx(51.0)
    assert run.quantile([7.0] * 30, 0.9) == pytest.approx(7.0)
    assert 90.0 < run.quantile(values, 0.9) < 92.0
    # Two equal clusters: the estimate sits between them, not on one call.
    gap = [10.0] * 50 + [20.0] * 50
    assert run.quantile(gap, 0.5) == pytest.approx(15.0)
