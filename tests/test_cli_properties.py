"""The command line on small, awkward CSVs, in process.

Columns of 1 to 60 rows: N(0, 1) draws, lognormal values of sigma = 3, or
1e8 + N(0, 1), some rounded into ties, some entries replaced by +-1e308
or subnormals.  Every ``discretize``, ``portfolio`` and ``plotdata`` call
on them returns 0, 2 or 3 and raises nothing: this suite makes numpy's
warnings errors, so a silent overflow escapes ``main`` as one.  A call
that succeeds writes no NaN or infinite number, except the documented NaN
relative error of ``portfolio`` where both shares are 0.

``experiment --config`` runs tiny studies, of 1 to 3 replications on odd
grids of sample sizes, node counts and risk aversions, and returns 0, 2 or
3.  A study that succeeds reports a finite bias and MAE for every cell
with a replication left, and NaN for a cell whose every replication
failed; its ``.txt`` file is what it printed.
"""
import contextlib
import csv
import io
import math

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from npgq.cli import main

EXTREMES = (1e308, -1e308, 1.7e308, 5e-324, -5e-324, 1e-310)
FAMILIES = {
    "normal": lambda x: x,
    "lognormal": lambda x: np.exp(3.0 * x),
    "offset": lambda x: 1e8 + x,
}
GAMMAS = ("2", "1:7:0.5", "1e-300,2", "1e300", "0.5,1e300")
MIXTURES = (
    "",
    "mixture_proportions = 1\nmixture_means = 0.05\nmixture_stds = 0.2\n",
    "mixture_proportions = 0.5, 0.5\nmixture_means = -0.3, 0.4\nmixture_stds = 0.05, 0.3\n",
)


@st.composite
def columns(draw, count):
    """``count`` columns of one length, as lists of floats."""
    size = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = []
    for _ in range(count):
        x = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))](rng.standard_normal(size))
        if draw(st.booleans()):
            x = np.round(x, draw(st.integers(0, 1)))  # ties
        k = draw(st.integers(0, 2))
        x[rng.integers(size, size=k)] = rng.choice(EXTREMES, k)
        out.append(x.tolist())
    return out


def discretize(draw, path):
    args = ["discretize", path, "--column", "0", "--n", str(draw(st.integers(1, 40))),
            "--method", draw(st.sampled_from(("np-gq", "gauss-hermite", "np-me")))]
    return args + ["--verify"] * draw(st.booleans()), 1


def portfolio(draw, path):
    args = ["portfolio", path, "--stock", "0", "--riskfree", "1", "--n", str(draw(st.integers(1, 9))),
            "--method", draw(st.sampled_from(("np-gq", "np-me"))), "--gamma", draw(st.sampled_from(GAMMAS))]
    return args + ["--inflation", "2"] * draw(st.booleans()), 3


def plotdata(draw, path):
    return ["plotdata", path, "--column", "0", "--bins", str(draw(st.integers(1, 40)))], 1


def numbers(text):
    """Every number written to stdout; the --verify line's value too."""
    for row in csv.reader(io.StringIO(text)):
        for cell in row:
            value = cell.rsplit(":", 1)[-1] if cell.startswith("max relative moment error") else cell
            try:
                yield float(value)
            except ValueError:
                continue


@seed(22)
@settings(max_examples=250, deadline=None, database=None)
@given(st.data())
def test_every_call_exits_cleanly(tmp_path_factory, data):
    command = data.draw(st.sampled_from((discretize, portfolio, plotdata)))
    path = str(tmp_path_factory.getbasetemp() / "cli_property.csv")
    args, count = command(data.draw, path)
    cols = data.draw(columns(count))
    if command is portfolio:  # gross returns and inflation are positive, or exit 2
        cols = [np.abs(c).tolist() for c in cols]
        if data.draw(st.booleans()):  # a rate equal to the stock return: a flat objective at N = 1
            cols[1] = cols[0]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([[f"c{i}" for i in range(count)], *map(list, zip(*cols))])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    assert code in (0, 2, 3)
    if code:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        # The one documented NaN: the relative error of two zero shares.
        text = out.getvalue().replace(",0,0,nan\n", ",0,0,\n")
        assert all(math.isfinite(v) for v in numbers(text)), text


def distinct(elements, max_size=3):
    return st.lists(elements, min_size=1, max_size=max_size, unique=True)


@seed(23)
@settings(max_examples=60, deadline=None, database=None)
@given(st.data())
def test_every_tiny_study_exits_cleanly(tmp_path_factory, data):
    replications = data.draw(st.integers(1, 3))
    lists = {
        "sample_sizes": distinct(st.integers(1, 80)),
        "node_counts": distinct(st.integers(0, 12)),
        "gammas": distinct(st.sampled_from(("0.5", "2", "7.25", "1e-3", "60", "1e300", "0"))),
        "methods": distinct(st.sampled_from(("np-gq", "gauss-hermite", "np-me"))),
    }
    text = "".join(f"{key} = {', '.join(map(str, data.draw(values)))}\n" for key, values in lists.items())
    text += f"replications = {replications}\nseed = {data.draw(st.integers(0, 2**32 - 1))}\n"
    text += data.draw(st.sampled_from(MIXTURES))
    base = tmp_path_factory.getbasetemp()
    (base / "study.cfg").write_text(text)
    prefix = str(base / "study")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["experiment", "--config", str(base / "study.cfg"), "--output", prefix])
    assert code in (0, 2, 3)
    if code:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        return
    with open(prefix + ".txt") as fh:
        assert fh.read() == out.getvalue()
    with open(prefix + ".csv", newline="") as fh:
        for row in csv.DictReader(fh):
            left = int(row["failures"]) < replications
            for key in ("bias", "mae"):
                value = float(row[key])
                assert math.isfinite(value) if left else math.isnan(value), (text, row)
