"""The data route: Lanczos on the standardized data, checked against an
arbitrary-precision moment route and on adversarial data."""
import math

import numpy as np
import pytest

from npgq import NotPositiveDefiniteError, Sample, discretize_data
from npgq.cli import main
from npgq.experiments import DEFAULT_MIXTURE, replication_rng, sample_mixture
from npgq.moments import _LANCZOS_BLOCK

from _oracles import mp_data_rules


def test_matches_80_digit_moment_route():
    assert_matches_80_digits(2000)


def test_merged_blocks_match_80_digit_moment_route():
    # Past _LANCZOS_BLOCK points the matrix is merged from the blocks'
    # rules, here one full block and a partial one of 2345 points.
    assert_matches_80_digits(_LANCZOS_BLOCK + 2345)


def assert_matches_80_digits(size):
    data = sample_mixture(DEFAULT_MIXTURE, size, replication_rng(7, size, 0))
    node_counts = (9, 15, 20)
    oracle = mp_data_rules(data, node_counts)
    sample = Sample(data)
    for n in node_counts:
        dist = discretize_data(sample, n)
        nodes, weights = oracle[n]
        np.testing.assert_allclose(dist.nodes, nodes, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dist.weights, weights, rtol=0, atol=1e-12)


def standardized_moment_gap(data, dist):
    """Worst gap between the rule's and the data's standardized moments,
    beyond what rounding the nodes to data units allows.

    The rule is built in standardized units; mapping a node back to data
    units rounds it by up to half its spacing, which at an offset like 1e8
    is a visible fraction of the spread.  That term is the moment's
    derivative bound times the rounding, and is ~1e-16 on ordinary data.
    """
    sample = Sample(data)
    z = sample.z
    nodes = np.asarray(dist.nodes)
    zn = sample.transform.to_standardized(nodes)
    h = float(np.max(np.spacing(np.abs(nodes)))) / sample.transform.scale
    w = np.asarray(dist.weights)
    worst = 0.0
    for k in range(2 * len(dist)):
        target = math.fsum(z**k) / z.size
        got = math.fsum(w * zn**k)
        allowed = k * h * math.fsum(w * np.abs(zn) ** max(k - 1, 0))
        worst = max(worst, (abs(got - target) - allowed) / max(1.0, abs(target)))
    return worst


_RNG = np.random.default_rng(2024)
ADVERSARIAL = {
    "ties-rounded": np.round(_RNG.standard_normal(1000), 1),
    "ties-heavy": np.concatenate([np.zeros(990), _RNG.standard_normal(10)]),  # 11 atoms
    "atoms-4": np.repeat([-1.0, 0.5, 2.0, 3.0], [5, 1, 7, 2]),
    "offset-1e8": 1e8 + 1e-6 * _RNG.standard_normal(1000),
    "scale-1e150": 1e150 * _RNG.standard_normal(500),
    "scale-1e-150": 1e-150 * _RNG.standard_normal(500),
    "T-7": _RNG.standard_normal(7),  # T < 2N from N = 4 on
}
# Support points of the data sets that have fewer than 20.
SUPPORT = {"ties-heavy": 11, "atoms-4": 4, "T-7": 7}


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_adversarial_data_gives_a_matching_rule_or_a_typed_error(name):
    assert_rules_or_typed_errors(name, 1)


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_tiled_adversarial_data_keeps_its_support_through_the_merge(name):
    # Tiled just past _LANCZOS_BLOCK points, each set keeps its empirical
    # measure, and so its support, through the block merge; the last block
    # holds a partial copy.
    assert_rules_or_typed_errors(name, _LANCZOS_BLOCK // ADVERSARIAL[name].size + 1)


def assert_rules_or_typed_errors(name, copies):
    data = np.tile(ADVERSARIAL[name], copies)
    support = SUPPORT.get(name, len(np.unique(data)))
    for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 20):
        if n > support:
            with pytest.raises(NotPositiveDefiniteError, match="reduce N") as err:
                discretize_data(data, n)
            assert err.value.pivot == support + 1
        else:
            dist = discretize_data(data, n)
            assert len(dist) == n
            assert standardized_moment_gap(data, dist) <= 1e-8, (name, n)


def test_atoms_beyond_support_exit_3(tmp_path, capsys):
    src = tmp_path / "in.csv"
    src.write_text("x\n" + "\n".join(repr(float(v)) for v in ADVERSARIAL["atoms-4"]) + "\n")
    assert main(["discretize", str(src), "--column", "x", "--n", "6"]) == 3
    assert "at most 4 nodes" in capsys.readouterr().err
