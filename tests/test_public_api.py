import ast
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import npgq

TEST_ONLY_NAMES = (
    "run_cell",
    "ttrr_build",
    "MomentFunctional",
    "MonicPolynomial",
    "poly_eval",
    "poly_roots_bracketed",
)


def test_import_loads_no_test_only_route():
    # A fresh interpreter, so modules imported by other tests do not count.
    probe = (
        "import sys, npgq; "
        "print('npgq.orthopoly' in sys.modules, "
        f"[n for n in {TEST_ONLY_NAMES!r} if hasattr(npgq, n)])"
    )
    src = os.path.dirname(os.path.dirname(npgq.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False []"


def test_data_route_plumbing_is_not_public():
    # One route to a Jacobi matrix, Lanczos; the moment route lives in the
    # tests' oracles, and there is no node cap.
    removed = ("hankel_matrix", "cholesky", "CholeskyFactor", "jacobi_from_cholesky",
               "DEFAULT_MAX_NODES")
    assert [n for n in removed if hasattr(npgq, n) or hasattr(npgq.quadrature, n)] == []
    moved = {
        "quadrature": ("jacobi_from_moments", "golub_welsch", "_PIVOT_RTOL"),
        "moments": ("gaussian_moments", "mixture_moments"),
    }
    left = [
        f"{mod}.{name}"
        for mod, names in moved.items()
        for name in names
        if hasattr(npgq, name) or hasattr(getattr(npgq, mod), name)
        or name in getattr(npgq, mod).__all__
    ]
    assert left == []


def test_the_node_limit_has_one_error():
    # DegenerateDataError, with its support, is the one error for too few
    # support points; the Cholesky route's name for it is gone.
    modules = [npgq] + [importlib.import_module(f"npgq.{m}") for m in
                        ("errors", "moments", "quadrature", "baselines", "portfolio", "experiments", "cli")]
    assert [m.__name__ for m in modules if hasattr(m, "NotPositiveDefiniteError")
            or "NotPositiveDefiniteError" in getattr(m, "__all__", ())] == []
    public = [n for n in dir(npgq) if not n.startswith("_") and not inspect.ismodule(getattr(npgq, n))]
    assert len(public) == 31


def test_only_the_pipeline_is_public():
    # Test-only wrappers, second routes and single-use plumbing are gone;
    # the tests keep their own copies in _oracles where they need them.
    # Moments are plain float arrays, no mixture is standardized, and the
    # kernel density is one function.
    # A Sample is the one standardization: its transform is also the
    # Gauss-Hermite fit.  The method names are the discretizers' keys.
    # np-me's facet test is one closed form: no cached list of facets.
    removed = {
        "moments": ("MomentSequence", "standardized_mixture", "standardize"),
        "baselines": ("maxent_grid", "maxent_dual", "KernelDensity", "fit_gaussian_mle",
                      "_facets", "_attainable"),
        "quadrature": ("tridiagonal_eigen", "JacobiMatrix"),
        "portfolio": ("state_returns", "crra_objective", "PortfolioProblem"),
        "experiments": ("format_config", "METHOD_LABELS"),
    }
    left = [
        f"{mod}.{name}"
        for mod, names in removed.items()
        for name in names
        if hasattr(npgq, name) or hasattr(getattr(npgq, mod), name)
        or name in getattr(npgq, mod).__all__
    ]
    assert left == []
    assert npgq.ExperimentConfig().methods == ("np-gq", "gauss-hermite", "np-me")
    assert "nodes" not in inspect.signature(npgq.theoretical_portfolio).parameters
    # The Jacobi matrix is a sample's one statistic: np-me reads its moment
    # targets from it, and exactly rounded moments are only the reference.
    assert not hasattr(npgq.Sample, "moments")
    # A mixture's mean and variance are the tests' oracles, not its methods.
    assert [n for n in ("mean", "variance") if hasattr(npgq.GaussianMixture, n)] == []


def _is_sum_down_axis0(node):
    """An ``add.accumulate`` call along axis 0, given or by default."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "accumulate" and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == "add"):
        return False
    axis = [k.value for k in node.keywords if k.arg == "axis"] + node.args[1:2]
    return not axis or (isinstance(axis[0], ast.Constant) and axis[0].value == 0)


def _src_trees():
    return {path.stem: ast.parse(path.read_text()) for path in Path(npgq.__file__).parent.glob("*.py")}


def _private_imports(tree, module):
    """The private names ``tree`` imports from the package module ``module``."""
    return [a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.module == module
            for a in n.names if a.name.startswith("_")]


def test_each_rule_and_stack_helper_has_one_home():
    # quadrature builds every Gaussian rule and owns the stacked-column
    # layout; portfolio and baselines use them and keep no copy.
    trees = _src_trees()
    imports = [node for node in ast.walk(trees["portfolio"]) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not [n for n in imports if isinstance(n, ast.Import) and any("baselines" in a.name for a in n.names)]
    assert not [n for n in imports if isinstance(n, ast.ImportFrom) and n.module == "baselines"]
    homes = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                homes.setdefault(node.name, []).append(module)
    for name in ("_sum0", "_columns", "_standard_normal_rule", "_mixture_rule"):
        assert homes[name] == ["quadrature"], name
    sums = [
        (module, function.name)
        for module, tree in trees.items()
        for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function) if _is_sum_down_axis0(node)
    ]
    assert sums == [("quadrature", "_sum0")]


def test_the_mixture_rule_has_no_route_of_its_own():
    # theta*'s rule is the mixture's component Gauss-Hermite rules: the
    # mixture is not standardized and gets no Lanczos run of its own, and
    # moments' private Lanczos state is the Sample's alone.  quadrature
    # takes only the eigensolve from moments, whose block merge needs it too.
    trees = _src_trees()
    defined = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert {"_standardized_mixture", "_mixture_jacobi"} & defined == set()
    assert [_private_imports(trees[m], "moments") for m in ("quadrature", "portfolio")] == [["_gauss_rule"], []]


def test_an_np_me_rule_is_a_rule():
    # One rule type: np-me returns a DiscreteDistribution with its solve's
    # counters, and a rule has one integration route, `expectation`.
    assert issubclass(npgq.MaxEntSolution, npgq.DiscreteDistribution)
    fields = {f.name for f in dataclasses.fields(npgq.MaxEntSolution)}
    assert fields == {"nodes", "weights", "n_matched", "downgraded", "iterations"}
    gone = [n for n in ("prior", "lam", "distribution", "moment") if hasattr(npgq.MaxEntSolution, n)]
    assert gone == []
    assert not hasattr(npgq.DiscreteDistribution, "moment")
    rule = npgq.maxent_discretize([-1.0, -0.5, 0.0, 0.5, 1.0], 3)
    assert type(rule) is npgq.MaxEntSolution and rule.n_matched == 2
