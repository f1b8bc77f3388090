import numpy as np
import pytest

from iongrover.decompositions import toffoli3_template, toffoli3_unitary, toffoli4_template
from iongrover.gates import Circuit
from iongrover.grover import GroverConfig, OracleSpec, run_grover
from iongrover.metrics import (
    asp,
    expected_grover_distribution,
    permutation_of,
    sso,
    truth_table,
    truth_table_fidelity,
)
from iongrover.noise import NoiseModel

TOFFOLI_PERM = permutation_of(toffoli3_unitary())


def test_asp_sums_marked_weight():
    dist = np.array([0.1, 0.2, 0.3, 0.4])
    assert asp(dist, ("00", "11")) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        asp(dist, ("000",))


def test_sso_extremes():
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 1.0])
    assert sso(a, a) == pytest.approx(1.0)
    assert sso(a, b) == pytest.approx(0.0)


def test_sso_uniform_versus_point():
    uniform = np.full(8, 1 / 8)
    point = np.zeros(8)
    point[3] = 1.0
    assert sso(uniform, point) == pytest.approx(1 / 8)
    assert sso(point, uniform) == pytest.approx(1 / 8)


def test_sso_bounds_on_random_distributions():
    rng = np.random.default_rng(5)
    for _ in range(25):
        a = rng.dirichlet(np.ones(8))
        b = rng.dirichlet(np.ones(8))
        v = sso(a, b)
        assert 0.0 <= v <= 1.0 + 1e-12
        assert sso(a, a) == pytest.approx(1.0)


def test_expected_distribution_matches_simulation():
    for marked in [("011",), ("000", "111"), ("01",)]:
        n = len(marked[0])
        want = expected_grover_distribution(n, marked)
        got = run_grover(GroverConfig(OracleSpec(n, marked, "phase"))).distribution
        assert np.max(np.abs(want - got)) < 1e-9
        assert want.sum() == pytest.approx(1.0, abs=1e-12)


def test_truth_table_of_compiled_toffoli_is_exact():
    table = truth_table(toffoli3_template(0, 1, 2), (0, 1, 2))
    want = np.eye(8)
    want[[6, 7]] = want[[7, 6]]
    assert np.max(np.abs(table - want)) < 1e-9


def test_truth_table_marginalizes_extra_wires():
    # Identity on 4 wires, reading only 3 of them.
    table = truth_table(Circuit(4, ()), (0, 1, 2))
    assert np.allclose(table, np.eye(8), atol=1e-12)


def test_identity_scores_three_quarters_against_toffoli():
    # The two tables differ on exactly the two inputs the gate permutes.
    table = truth_table(Circuit(3, ()), (0, 1, 2))
    assert truth_table_fidelity(table, TOFFOLI_PERM) == pytest.approx(0.75)


def test_truth_table_fidelity_validates_permutation():
    table = np.eye(8)
    with pytest.raises(ValueError):
        truth_table_fidelity(table, np.zeros(8, dtype=int))


def test_permutation_of_rejects_entanglers():
    u = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    with pytest.raises(ValueError):
        permutation_of(u)


def test_expected_distribution_after_several_iterations():
    for marked, k in [(("011",), 2), (("011",), 3), (("00",), 2), (("001", "110"), 2)]:
        n = len(marked[0])
        want = expected_grover_distribution(n, marked, iterations=k)
        got = run_grover(GroverConfig(OracleSpec(n, marked, "phase"), k)).distribution
        assert np.max(np.abs(want - got)) < 1e-9
        assert want.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "circuit, io",
    [(toffoli3_template(0, 1, 2), (0, 1, 2)), (toffoli4_template(0, 1, 2, 3, 4), (0, 1, 2, 3))],
    ids=["toffoli3", "toffoli4"],
)
def test_truth_table_at_zero_noise_is_the_exact_table(circuit, io):
    assert np.array_equal(truth_table(circuit, io, NoiseModel()), truth_table(circuit, io))
