import csv
import io
import math
import tracemalloc

import numpy as np
import pytest

import npgq.cli as cli
from npgq import (
    NpgqError,
    discretize_data,
    gauss_hermite_discretize,
    maxent_discretize,
    solve_portfolio,
)
from npgq.cli import main
from npgq.experiments import DEFAULT_MIXTURE, replication_rng, sample_mixture


# Standardizing these overflows the float range: a partial sum of the mean
# past 1.8e308, and squared deviations past it.
OVERFLOWING_COLUMNS = {
    "float-max": [1e308, 1.7e308, -1e308],
    "1e200": [1e200, -1.5e200, 2e200],
}


def write_csv(path, header, columns):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestDiscretize:
    def test_two_value_column(self, tmp_path):
        src = write_csv(tmp_path / "in.csv", ["x"], [[-1.0] * 3 + [1.0] * 1])
        out = tmp_path / "out.csv"
        assert main(["discretize", src, "--column", "x", "--n", "2", "--output", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["node", "weight"]
        nodes = [float(r[0]) for r in rows]
        weights = [float(r[1]) for r in rows]
        np.testing.assert_allclose(nodes, [-1.0, 1.0], atol=1e-9)
        np.testing.assert_allclose(weights, [0.75, 0.25], atol=1e-9)

    def test_constant_column_single_node(self, tmp_path, capsys):
        src = write_csv(tmp_path / "in.csv", ["ret"], [[3.5] * 10])
        assert main(["discretize", src, "--column", "ret", "--n", "1"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1] == "3.5,1.0"

    def test_verify_flag_reports_small_error(self, tmp_path, capsys):
        data = sample_mixture(DEFAULT_MIXTURE, 2000, replication_rng(1, 2000, 0))
        src = write_csv(tmp_path / "in.csv", ["x"], [data.tolist()])
        assert main(["discretize", src, "--column", "x", "--n", "5", "--verify",
                     "--output", str(tmp_path / "o.csv")]) == 0
        msg = capsys.readouterr().out
        assert "max relative moment error" in msg
        worst = float(msg.rsplit(":", 1)[1])
        assert worst < 1e-8

    def test_column_by_index(self, tmp_path):
        src = write_csv(tmp_path / "in.csv", ["a", "b"], [[1, 2, 3], [4.0, 5.0, 9.0]])
        assert main(["discretize", src, "--column", "1", "--n", "1",
                     "--output", str(tmp_path / "o.csv")]) == 0
        _, rows = read_csv(tmp_path / "o.csv")
        assert float(rows[0][0]) == pytest.approx(6.0)

    def test_missing_file_exits_2(self, capsys):
        assert main(["discretize", "/nonexistent.csv", "--column", "x"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_column_exits_2(self, tmp_path, capsys):
        src = write_csv(tmp_path / "in.csv", ["x"], [[1.0, 2.0]])
        assert main(["discretize", src, "--column", "y"]) == 2

    def test_node_weight_csv_round_trips(self, tmp_path, capsys):
        # Re-reading the emitted file and re-evaluating moments must
        # reproduce the verification number printed by --verify.
        from npgq import DiscreteDistribution, expectation, sample_moments

        data = sample_mixture(DEFAULT_MIXTURE, 1500, replication_rng(4, 1500, 0))
        src = write_csv(tmp_path / "in.csv", ["x"], [data.tolist()])
        out = tmp_path / "o.csv"
        assert main(["discretize", src, "--column", "x", "--n", "4", "--verify",
                     "--output", str(out)]) == 0
        reported = float(capsys.readouterr().out.rsplit(":", 1)[1])
        _, rows = read_csv(out)
        dist = DiscreteDistribution(
            nodes=tuple(float(r[0]) for r in rows),
            weights=tuple(float(r[1]) for r in rows),
        )
        target = sample_moments(data, 7)
        recomputed = max(
            abs(expectation(dist, lambda x: x**k) - target[k]) / max(1.0, abs(target[k]))
            for k in range(8)
        )
        # the file holds the rule at round-trip precision
        assert recomputed < 1e-8
        assert abs(recomputed - reported) < 1e-10

    def test_degenerate_exits_3_with_remedy(self, tmp_path, capsys):
        src = write_csv(tmp_path / "in.csv", ["x"], [[2.0] * 8])
        assert main(["discretize", src, "--column", "x", "--n", "3"]) == 3
        assert "reduc" in capsys.readouterr().err.lower()

    def test_too_few_support_points_exits_3(self, tmp_path, capsys):
        src = write_csv(tmp_path / "in.csv", ["x"], [[0.0, 1.0] * 6])
        assert main(["discretize", src, "--column", "x", "--n", "4"]) == 3
        assert "reduce n" in capsys.readouterr().err.lower()

    def test_error_text_is_the_exception_message(self, tmp_path, capsys):
        # The remedy is stated once, by the error itself.
        src = write_csv(tmp_path / "in.csv", ["x"], [[0.0, 1.0] * 6])
        assert main(["discretize", src, "--column", "x", "--n", "4"]) == 3
        assert capsys.readouterr().err == (
            "error: Lanczos broke down at step 2; the data supports at most 2 nodes "
            "-- reduce N\n"
        )
        const = write_csv(tmp_path / "c.csv", ["x"], [[2.0] * 8])
        assert main(["plotdata", const, "--column", "x"]) == 3
        assert capsys.readouterr().err == (
            "error: data has zero sample variance; cannot standardize\n"
        )

    def test_node_count_past_the_data_size_exits_3(self, tmp_path, capsys):
        src = write_csv(tmp_path / "x.csv", ["x"], [[0.5, 1.5, 2.0, 4.0]])
        assert main(["discretize", src, "--column", "x", "--n", str(10**12)]) == 3
        err = capsys.readouterr().err
        assert err == "error: the data has 4 distinct values, so it supports at most 4 nodes -- reduce N\n"

    def test_a_basis_past_the_memory_limit_exits_2(self, tmp_path, capsys):
        # 3000 Lanczos rows on the union of 20 blocks' 3000-point rules
        # would take 1.44 GB; the peak here is the CSV reader's.
        data = np.random.default_rng(6).standard_normal(200_000)
        src = write_csv(tmp_path / "in.csv", ["x"], [data.tolist()])
        tracemalloc.start()
        try:
            code = main(["discretize", src, "--column", "x", "--n", "3000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a 3000-step Lanczos basis on 60000 points needs 1440000000 bytes")
        assert err.count("\n") == 1
        assert peak <= 128e6

    def test_np_me_below_three_nodes_exits_2(self, tmp_path, capsys):
        src = write_csv(tmp_path / "in.csv", ["x"], [np.random.default_rng(2).standard_normal(50).tolist()])
        assert main(["discretize", src, "--column", "x", "--n", "2", "--method", "np-me"]) == 2
        assert capsys.readouterr().err == "error: node count must be >= 3, got 2\n"

    @pytest.mark.parametrize("method", ["np-gq", "gauss-hermite", "np-me"])
    @pytest.mark.parametrize("column", OVERFLOWING_COLUMNS.values(), ids=OVERFLOWING_COLUMNS.keys())
    def test_standardization_overflow_exits_2(self, tmp_path, capsys, column, method):
        src = write_csv(tmp_path / "in.csv", ["x"], [column])
        assert main(["discretize", src, "--column", "x", "--n", "3", "--method", method]) == 2
        assert capsys.readouterr().err == "error: standardizing the data overflows; rescale the data\n"

    def test_gauss_hermite_forty_nodes(self, tmp_path, capsys):
        data = np.random.default_rng(4).standard_normal(2000)
        src = write_csv(tmp_path / "in.csv", ["x"], [data.tolist()])
        out = tmp_path / "o.csv"
        assert main(["discretize", src, "--column", "x", "--n", "40", "--method",
                     "gauss-hermite", "--verify", "--output", str(out)]) == 0
        assert float(capsys.readouterr().out.rsplit(":", 1)[1]) < 1e-6
        _, rows = read_csv(out)
        assert len(rows) == 40

    def test_gauss_hermite_underflowing_weights_exit_3(self, tmp_path, capsys):
        # At N = 200 the outermost weights underflow: a numerical limit.
        data = np.random.default_rng(4).standard_normal(200)
        src = write_csv(tmp_path / "in.csv", ["x"], [data.tolist()])
        assert main(["discretize", src, "--column", "x", "--n", "200", "--method",
                     "gauss-hermite"]) == 3
        assert capsys.readouterr().err == (
            "error: a weight of the 200-node rule underflows to 0 -- reduce N\n"
        )

    def test_np_me_underflowing_weights_exit_3(self, tmp_path, capsys):
        # At N = 100 an outer weight of the tilt on 1e8 + N(0, 1) data
        # underflows to 0: a numerical limit, not bad input.
        data = 1e8 + np.random.default_rng(0).standard_normal(2000)
        src = write_csv(tmp_path / "in.csv", ["x"], [data.tolist()])
        assert main(["discretize", src, "--column", "x", "--n", "100", "--method", "np-me"]) == 3
        assert capsys.readouterr().err == (
            "error: a weight of the 100-point np-me rule underflows to 0 -- reduce N\n"
        )

    def test_non_utf8_input_exits_2(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_bytes(b"x\n1.0\n\xff\xfe2.0\n")
        assert main(["discretize", str(src), "--column", "x", "--n", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read")

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, where):
        src = write_csv(tmp_path / "in.csv", ["x"], [[1.0, 2.0, 4.0]])
        out = tmp_path / "no" / "out.csv" if where == "missing-dir" else tmp_path
        assert main(["discretize", src, "--column", "x", "--n", "2", "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write")

    def test_verify_is_standardized_at_scale_1e150(self, tmp_path, capsys):
        # The raw order-3 sample moment of data at scale 1e150 is not a
        # float; the standardized moments the check compares are O(1).
        data = 1e150 * np.random.default_rng(0).standard_normal(40)
        src = write_csv(tmp_path / "in.csv", ["x"], [data.tolist()])
        out = tmp_path / "o.csv"
        assert main(["discretize", src, "--column", "x", "--n", "5", "--verify",
                     "--output", str(out)]) == 0
        worst = float(capsys.readouterr().out.rsplit(":", 1)[1])
        assert worst < 1e-8
        _, rows = read_csv(out)
        assert len(rows) == 5

    def test_verify_is_not_dominated_by_an_offset(self, tmp_path, capsys):
        # Raw moments of 1e8 + noise are powers of the offset, and matched
        # them to 1e-15 whatever the rule's spread.  Standardized moments
        # see what the rule's nodes, written in data units, carry: unit
        # noise survives rounding to 1e8 (ulp 1.5e-8), 1e-6 noise does not.
        noise = np.random.default_rng(3).standard_normal(2000)
        reported = {}
        for spread in (1.0, 1e-6):
            src = write_csv(tmp_path / "in.csv", ["x"], [(1e8 + spread * noise).tolist()])
            assert main(["discretize", src, "--column", "x", "--n", "5", "--verify",
                         "--output", str(tmp_path / "o.csv")]) == 0
            reported[spread] = float(capsys.readouterr().out.rsplit(":", 1)[1])
        assert reported[1.0] < 1e-6
        assert reported[1e-6] > 1e-3

    def test_written_rule_round_trips_exactly(self, tmp_path, capsys):
        # Unit noise on a 1e8 offset needs all 17 digits: 12 would round the
        # nodes to 1e-4 and miss the standardized moments by about 1e-3.
        data = 1e8 + np.random.default_rng(3).standard_normal(2000)
        src = write_csv(tmp_path / "in.csv", ["x"], [data.tolist()])
        out = tmp_path / "o.csv"
        for method, fn in (("np-gq", discretize_data),
                           ("gauss-hermite", gauss_hermite_discretize),
                           ("np-me", maxent_discretize)):
            assert main(["discretize", src, "--column", "x", "--n", "5", "--method", method,
                         "--output", str(out)]) == 0
            _, rows = read_csv(out)
            dist = fn(data, 5)
            assert [float(r[0]) for r in rows] == list(dist.nodes), method
            assert [float(r[1]) for r in rows] == list(dist.weights), method

    @pytest.mark.parametrize("method, top", [("np-gq", 9), ("gauss-hermite", 2), ("np-me", 4)])
    def test_verify_checks_the_orders_the_method_matches(self, tmp_path, capsys, method, top):
        data = 1e8 + np.random.default_rng(3).standard_normal(2000)
        src = write_csv(tmp_path / "in.csv", ["x"], [data.tolist()])
        assert main(["discretize", src, "--column", "x", "--n", "5", "--method", method,
                     "--verify", "--output", str(tmp_path / "o.csv")]) == 0
        msg = capsys.readouterr().out
        assert msg.startswith(f"max relative moment error (orders 0..{top}): ")
        assert float(msg.rsplit(":", 1)[1]) < 1e-6

    def test_verify_constant_column(self, tmp_path, capsys):
        src = write_csv(tmp_path / "in.csv", ["x"], [[3.5] * 10])
        assert main(["discretize", src, "--column", "x", "--n", "1", "--verify",
                     "--output", str(tmp_path / "o.csv")]) == 0
        assert capsys.readouterr().out == "max relative moment error (orders 0..1): 0\n"


class TestPortfolio:
    def make_returns(self, tmp_path, t=4000, crash=False, seed=0):
        rng = np.random.Generator(np.random.Philox(seed))
        if crash:
            x = sample_mixture(DEFAULT_MIXTURE, t, replication_rng(seed, t, 0))
        else:
            x = 0.06 + 0.2 * rng.standard_normal(t)
        risk_free = np.full(t, 1.0045)
        stock = risk_free * np.exp(x)
        return write_csv(
            tmp_path / "ret.csv", ["stock", "rf"], [stock.tolist(), risk_free.tolist()]
        )

    def test_lognormal_gives_small_error_column(self, tmp_path):
        src = self.make_returns(tmp_path, t=20000)
        out = tmp_path / "out.csv"
        assert main(["portfolio", src, "--stock", "stock", "--riskfree", "rf",
                     "--gamma", "2,4", "--n", "5", "--output", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["gamma", "theta_np", "theta_gaussian", "error"]
        for row in rows:
            assert abs(float(row[3])) < 0.05

    def test_crash_tail_gives_positive_error(self, tmp_path):
        src = self.make_returns(tmp_path, t=20000, crash=True)
        out = tmp_path / "out.csv"
        assert main(["portfolio", src, "--stock", "stock", "--riskfree", "rf",
                     "--gamma", "2:6:2", "--output", str(out)]) == 0
        _, rows = read_csv(out)
        assert [float(r[0]) for r in rows] == [2.0, 4.0, 6.0]
        for row in rows:
            assert float(row[3]) > 0.0

    def test_identical_columns_degenerate_single_node(self, tmp_path):
        # stock == risk-free in every period: mean log excess is exactly 0,
        # so the one-node rule puts all mass at the risk-free rate.
        rng = np.random.default_rng(3)
        r = (1.01 + 0.02 * rng.random(300)).tolist()
        src = write_csv(tmp_path / "ret.csv", ["s", "b"], [r, r])
        out = tmp_path / "out.csv"
        assert main(["portfolio", src, "--stock", "s", "--riskfree", "b",
                     "--gamma", "2", "--n", "1", "--output", str(out)]) == 0
        _, rows = read_csv(out)
        assert float(rows[0][1]) == 0.0
        assert float(rows[0][2]) == 0.0

    def test_inflation_deflates_returns(self, tmp_path):
        rng = np.random.default_rng(8)
        x = 0.05 + 0.15 * rng.standard_normal(800)
        infl = np.full(800, 1.03)
        stock_nominal = 1.0045 * np.exp(x) * infl
        rf_nominal = np.full(800, 1.0045) * infl
        src = write_csv(
            tmp_path / "r.csv",
            ["s", "b", "cpi"],
            [stock_nominal.tolist(), rf_nominal.tolist(), infl.tolist()],
        )
        out1 = tmp_path / "real.csv"
        assert main(["portfolio", src, "--stock", "s", "--riskfree", "b",
                     "--inflation", "cpi", "--gamma", "3", "--output", str(out1)]) == 0
        real_src = write_csv(
            tmp_path / "real_in.csv",
            ["s", "b"],
            [(1.0045 * np.exp(x)).tolist(), np.full(800, 1.0045).tolist()],
        )
        out2 = tmp_path / "direct.csv"
        assert main(["portfolio", real_src, "--stock", "s", "--riskfree", "b",
                     "--gamma", "3", "--output", str(out2)]) == 0
        _, rows1 = read_csv(out1)
        _, rows2 = read_csv(out2)
        assert float(rows1[0][1]) == pytest.approx(float(rows2[0][1]), rel=1e-9)

    @staticmethod
    def per_gamma_rows(src, gammas, n=5):
        """The output of one scalar solve per (gamma, rule), first error per row."""
        header, rows = read_csv(src)
        stock = np.array([float(r[0]) for r in rows])
        risk_free = float(np.exp(np.mean(np.log([float(r[1]) for r in rows]))))
        log_excess = np.log(stock) - math.log(risk_free)
        dists = (discretize_data(log_excess, n), gauss_hermite_discretize(log_excess, n))
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(["gamma", "theta_np", "theta_gaussian", "error"])
        for gamma in gammas:
            try:
                theta_np, theta_g = (solve_portfolio(d, risk_free, gamma).theta for d in dists)
            except NpgqError as exc:
                writer.writerow([f"{gamma:.12g}", "error", "error", str(exc)])
            else:
                error = f"{theta_g / theta_np - 1.0:.12g}"
                writer.writerow([f"{gamma:.12g}", f"{theta_np:.12g}", f"{theta_g:.12g}", error])
        return text.getvalue()

    def test_bad_gamma_is_an_error_row_of_its_own(self, tmp_path, capsys):
        src = self.make_returns(tmp_path, t=200)
        assert main(["portfolio", src, "--stock", "stock", "--riskfree", "rf",
                     "--gamma", "0,2,4"]) == 0
        out = capsys.readouterr().out
        assert out == self.per_gamma_rows(src, [0.0, 2.0, 4.0])
        lines = out.splitlines()
        assert lines[1] == '0,error,error,"risk aversion must be positive, got 0.0"'
        assert "error" not in lines[2] + lines[3]

    def test_all_positive_excess_returns_are_unbounded_rows(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        stock = (1.05 + 0.1 * rng.random(60)).tolist()
        src = write_csv(tmp_path / "up.csv", ["stock", "rf"], [stock, [1.0045] * 60])
        assert main(["portfolio", src, "--stock", "stock", "--riskfree", "rf",
                     "--gamma", "2:3:0.5", "--n", "3"]) == 0
        out = capsys.readouterr().out
        message = ("all state returns lie on one side of the risk-free rate; "
                   "expected utility has no interior maximum")
        assert out == (
            "gamma,theta_np,theta_gaussian,error\n"
            + "".join(f"{g},error,error,{message}\n" for g in ("2", "2.5", "3"))
        )
        assert out == self.per_gamma_rows(src, [2.0, 2.5, 3.0], n=3)

    def test_nonpositive_returns_exit_2(self, tmp_path):
        src = write_csv(tmp_path / "r.csv", ["s", "b"], [[1.0, -0.5], [1.0, 1.0]])
        assert main(["portfolio", src, "--stock", "s", "--riskfree", "b"]) == 2

    @pytest.mark.parametrize("stock, inflation", [(1e308, 1e-10), (5e-324, 2.0)])
    def test_a_real_return_past_the_float_range_exits_2(self, tmp_path, capsys, stock, inflation):
        # 1e308 / 1e-10 overflows to inf and 5e-324 / 2 underflows to 0: one
        # error line naming the column, and no numpy warning.
        src = write_csv(tmp_path / "r.csv", ["s", "b", "cpi"],
                        [[stock, 1.1, 0.9, 1.2], [1.0] * 4, [inflation, 1.0, 1.0, 1.0]])
        assert main(["portfolio", src, "--stock", "s", "--riskfree", "b", "--inflation", "cpi"]) == 2
        assert capsys.readouterr().err == (
            "error: real returns of column 's' are not finite and positive\n"
        )

    def test_an_overflowing_excess_return_is_an_error_row(self, tmp_path, capsys):
        # A log excess return of about 713 (1e300 over a rate of 1e-10):
        # its excess return overflows to inf, so does the first-order
        # condition, and every share is that error; stderr holds the rate only.
        stock = [1e300] + [(0.7 + 0.02 * k) * 1e-10 for k in range(30)]
        src = write_csv(tmp_path / "r.csv", ["s", "b"], [stock, [1e-10] * 31])
        assert main(["portfolio", src, "--stock", "s", "--riskfree", "b", "--n", "3"]) == 0
        out, err = capsys.readouterr()
        assert err == "# risk_free = 1e-10\n"
        rows = out.splitlines()[1:]
        assert len(rows) == 13
        assert all(r.endswith(",error,error,first-order condition overflows at the optimum") for r in rows)

    @pytest.mark.parametrize("spec", ["a:3", "nan:3", "1:inf", "1:3:0"])
    def test_bad_gamma_range_exits_2(self, tmp_path, capsys, spec):
        src = self.make_returns(tmp_path, t=200)
        assert main(["portfolio", src, "--stock", "stock", "--riskfree", "rf",
                     "--gamma", spec]) == 2
        assert capsys.readouterr().err.startswith("error: bad gamma range")

    def test_bad_gamma_is_reported_before_the_rules_fail(self, tmp_path, capsys):
        # Two rows support at most 2 nodes, so the default N = 5 rule would fail with exit 3.
        src = write_csv(tmp_path / "tworows.csv", ["stock", "rf"], [[1.1, 0.95], [1.01, 1.01]])
        assert main(["portfolio", src, "--stock", "stock", "--riskfree", "rf", "--gamma", "1:2:3:4"]) == 2
        assert capsys.readouterr().err == "error: bad gamma range '1:2:3:4'; use start:stop[:step]\n"


class TestExperimentCommand:
    def test_smoke_run_and_determinism(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "sample_sizes = 50\nnode_counts = 2, 3\ngammas = 2\n"
            "methods = np-gq, gauss-hermite\nseed = 7\n"
        )
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            code = main(["experiment", "--config", str(cfg), "--smoke",
                         "--output", str(out)])
            assert code == 0
        csv1 = (tmp_path / "a.csv").read_bytes()
        csv2 = (tmp_path / "b.csv").read_bytes()
        assert csv1 == csv2
        header = csv1.decode().splitlines()[0]
        assert header == "method,T,N,gamma,bias,mae,failures"
        assert (tmp_path / "a.txt").exists()

    def test_seed_changes_output(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("sample_sizes = 50\nnode_counts = 2\ngammas = 2\nmethods = np-gq\n")
        main(["experiment", "--config", str(cfg), "--smoke", "--seed", "1",
              "--output", str(tmp_path / "a")])
        main(["experiment", "--config", str(cfg), "--smoke", "--seed", "2",
              "--output", str(tmp_path / "b")])
        assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("unknown_key = 5\n")
        assert main(["experiment", "--config", str(cfg), "--output", str(tmp_path / "x")]) == 2

    def test_empty_list_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("node_counts =\n")
        assert main(["experiment", "--config", str(cfg), "--output", str(tmp_path / "x")]) == 2
        assert "node_counts must not be empty" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("seed = -1\n")
        for argv in (["--seed", "-1"], ["--config", str(cfg)]):
            assert main(["experiment", *argv, "--smoke", "--output", str(tmp_path / "x")]) == 2
            assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("line", ["gammas = 2, nan", "gammas = inf", "risk_free = 0"])
    def test_bad_rate_or_gamma_exits_2_before_any_output(self, tmp_path, capsys, line):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(line + "\n")
        assert main(["experiment", "--config", str(cfg), "--output", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.txt"]

    @pytest.mark.parametrize("line", ["node_counts = 3, 3", "sample_sizes = 50, 50", "gammas = 2, 2.0"])
    def test_repeated_grid_value_exits_2_before_any_output(self, tmp_path, capsys, line):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(line + "\n")
        assert main(["experiment", "--config", str(cfg), "--output", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {line.split()[0]} must not repeat a value") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.txt"]

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_bad_jobs_exits_2_before_any_output(self, tmp_path, capsys, jobs):
        assert main(["experiment", "--smoke", "--jobs", jobs, "--output", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == "error: jobs must be >= 1\n"
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_output_exits_2_before_the_study(self, tmp_path, capsys, monkeypatch):
        def study_must_not_run(*args, **kwargs):
            raise AssertionError("the study ran before the output path was checked")

        monkeypatch.setattr(cli, "run_experiment", study_must_not_run)
        out = tmp_path / "no" / "study"
        assert main(["experiment", "--smoke", "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write")

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_bytes(b"seed = 1\xff\n")
        assert main(["experiment", "--config", str(cfg), "--output", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read")


class TestPlotdata:
    def test_two_bins_equal_heights(self, tmp_path):
        data = [-1.0] * 500 + [1.0] * 500
        src = write_csv(tmp_path / "d.csv", ["x"], [data])
        out = tmp_path / "p.csv"
        assert main(["plotdata", src, "--column", "x", "--bins", "2",
                     "--output", str(out)]) == 0
        _, rows = read_csv(out)
        hist = [r for r in rows if r[0] == "histogram"]
        assert len(hist) == 2
        assert float(hist[0][3]) == pytest.approx(float(hist[1][3]), rel=1e-12)

    @pytest.mark.parametrize(
        "column, message",
        [
            ([1.0, 1.0000000000000002, 1.0], "the data range is too narrow for 30 finite-sized histogram bins"),
            (OVERFLOWING_COLUMNS["float-max"], "standardizing the data overflows; rescale the data"),
        ],
        ids=["tiny-range", "float-max"],
    )
    def test_unbinnable_column_exits_2(self, tmp_path, capsys, column, message):
        src = write_csv(tmp_path / "d.csv", ["x"], [column])
        assert main(["plotdata", src, "--column", "x"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_histogram_integrates_to_one(self, tmp_path):
        rng = np.random.default_rng(10)
        data = rng.standard_normal(700)
        src = write_csv(tmp_path / "d.csv", ["x"], [data.tolist()])
        out = tmp_path / "p.csv"
        assert main(["plotdata", src, "--column", "x", "--bins", "17",
                     "--output", str(out)]) == 0
        _, rows = read_csv(out)
        total = sum(
            (float(r[2]) - float(r[1])) * float(r[3]) for r in rows if r[0] == "histogram"
        )
        assert total == pytest.approx(1.0, abs=1e-9)
        kde_rows = [r for r in rows if r[0] == "kde"]
        gauss_rows = [r for r in rows if r[0] == "gaussian"]
        assert len(kde_rows) == len(gauss_rows) == 512

    def test_crash_tail_heavier_in_kde_than_gaussian(self, tmp_path):
        data = sample_mixture(DEFAULT_MIXTURE, 5000, replication_rng(17, 5000, 0))
        src = write_csv(tmp_path / "d.csv", ["x"], [data.tolist()])
        out = tmp_path / "p.csv"
        assert main(["plotdata", src, "--column", "x", "--bins", "30",
                     "--output", str(out)]) == 0
        _, rows = read_csv(out)
        mean, std = data.mean(), data.std()
        cutoff = mean - 2 * std
        kde_mass = sum(float(r[3]) for r in rows if r[0] == "kde" and float(r[1]) < cutoff)
        gauss_mass = sum(float(r[3]) for r in rows if r[0] == "gaussian" and float(r[1]) < cutoff)
        assert kde_mass > gauss_mass


class TestInputErrorMessages:
    """Each input check of the CLI: exit 2 and its one error line."""

    RETURNS = "s,b,c\n1.1,1.0,1.0\n0.9,1.0,0.0\n"
    PORTFOLIO = ["portfolio", "--stock", "s", "--riskfree", "b", "--n", "1"]

    @pytest.mark.parametrize("text, args, message", [
        ("x\n", ["discretize", "--column", "x"], "{path}: need a header row and at least one data row"),
        ("x,y\n1,2\n3\n", ["discretize", "--column", "x"],
         "{path}: ragged rows (all rows must match the header)"),
        ("x,y\n1,2\n", ["discretize", "--column", "2"], "{path}: column index 2 out of range 0..1"),
        ("x\n1\nabc\n", ["discretize", "--column", "x"],
         "{path}: non-numeric entry in column 'x': could not convert string to float: 'abc'"),
        (RETURNS, PORTFOLIO + ["--gamma", "1:2:3:4"], "bad gamma range '1:2:3:4'; use start:stop[:step]"),
        (RETURNS, PORTFOLIO + ["--gamma", "a,b"], "bad gamma list 'a,b': could not convert string to float: 'a'"),
        (RETURNS, PORTFOLIO + ["--gamma", ","], "empty gamma grid"),
        (RETURNS, PORTFOLIO + ["--inflation", "c"], "gross inflation must be positive"),
        ("x\n1\n2\n", ["plotdata", "--column", "x", "--bins", "0"], "bins must be >= 1"),
        pytest.param("x\n" + "1" * 200_000 + "\n", ["discretize", "--column", "x"],
                     "{path}: field larger than field limit (131072)", id="field-past-csv-limit"),
    ])
    def test_exits_2_with_its_message(self, tmp_path, capsys, text, args, message):
        path = tmp_path / "in.csv"
        path.write_text(text)
        assert main([args[0], str(path), *args[1:]]) == 2
        assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"


class TestOutputPrecision:
    def test_twelve_significant_digits(self, tmp_path, capsys):
        # Every printed number but discretize's nodes and weights.
        src = write_csv(tmp_path / "in.csv", ["x"], [[0.0, 1.0, 2.0, 7.0]])
        assert main(["plotdata", src, "--column", "x", "--bins", "3"]) == 0
        line = capsys.readouterr().out.splitlines()[1]
        edge = line.split(",")[2]
        # 12 significant digits survive a round trip at that precision
        assert float(edge) == pytest.approx(float(f"{float(edge):.12g}"), abs=0)
        assert len(edge.replace("-", "").replace(".", "").lstrip("0")) <= 12
        assert edge == f"{7.0 / 3.0:.12g}"  # the first inner bin edge, rounded

    def test_discretize_writes_round_trip_precision(self, tmp_path, capsys):
        src = write_csv(tmp_path / "in.csv", ["x"], [[0.0, 1.0, 2.0]])
        assert main(["discretize", src, "--column", "x", "--n", "2"]) == 0
        node, weight = capsys.readouterr().out.splitlines()[1].split(",")
        dist = discretize_data([0.0, 1.0, 2.0], 2)
        assert (node, weight) == (repr(dist.nodes[0]), repr(dist.weights[0]))


class TestSharedParser:
    """One parser, built once, serves every :func:`main` call of a process."""

    def test_a_sequence_of_calls_matches_fresh_parsers(self, tmp_path, capsys, monkeypatch):
        data = write_csv(tmp_path / "x.csv", ["x"], [np.random.default_rng(4).standard_normal(200).tolist()])
        returns = TestPortfolio().make_returns(tmp_path, t=120)
        argvs = [
            ["discretize", data, "--column", "x", "--verify"],
            ["discretize", data, "--column", "x"],
            ["portfolio", returns, "--stock", "stock", "--riskfree", "rf", "--method", "np-me"],
            ["portfolio", returns, "--stock", "stock", "--riskfree", "rf"],
            ["portfolio", returns, "--stock", "stock", "--riskfree", "rf", "--n", "five"],
        ]

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's own errors
                code = exc.code
            out = capsys.readouterr()
            return code, out.out, out.err

        assert cli.build_parser() is cli.build_parser()
        shared = [run(argv) for argv in argvs]
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert [run(argv) for argv in argvs] == shared
        assert [code for code, _, _ in shared] == [0, 0, 0, 0, 2]
        assert "max relative moment error" in shared[0][1]
        assert "max relative moment error" not in shared[1][1]
        assert shared[2][1] != shared[3][1]
        assert "invalid int value: 'five'" in shared[4][2]
