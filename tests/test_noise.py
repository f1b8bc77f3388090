import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iongrover.decompositions import toffoli3_template, toffoli3_unitary
from iongrover.gates import Circuit, RotationGate, XXGate, run
from iongrover.metrics import permutation_of, truth_table, truth_table_fidelity
from iongrover.noise import (
    FITTED_P_XX,
    NoiseModel,
    SpamModel,
    apply_spam,
    channel_distributions,
    confusion_matrix,
    correct_spam,
    load_noise_config,
    run_noisy,
)
from iongrover.statevector import init_basis, probabilities

TOFFOLI = toffoli3_template(0, 1, 2)
TOFFOLI_PERM = permutation_of(toffoli3_unitary())


def test_parameter_validation():
    with pytest.raises(ValueError):
        NoiseModel(p_xx=-0.1)
    with pytest.raises(ValueError):
        NoiseModel(p_xx=1.0)
    with pytest.raises(ValueError):
        SpamModel(eps0=0.5)


def test_zero_noise_matches_exact_simulation():
    dist = run_noisy(TOFFOLI, NoiseModel(), trajectories=16, seed=0)
    exact = probabilities(run(TOFFOLI))
    assert np.max(np.abs(dist - exact)) < 1e-12


def test_noisy_runs_are_deterministic_per_seed():
    noise = NoiseModel(p_xx=0.05)
    a = run_noisy(TOFFOLI, noise, trajectories=500, seed=9)
    b = run_noisy(TOFFOLI, noise, trajectories=500, seed=9)
    c = run_noisy(TOFFOLI, noise, trajectories=500, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_noisy_distribution_is_normalized():
    noise = NoiseModel(p_xx=0.08, p_r=0.01)
    dist = run_noisy(TOFFOLI, noise, trajectories=400, seed=3)
    assert dist.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(dist >= 0)


def test_rotation_noise_hits_single_qubit_circuits():
    circ = Circuit(1, (RotationGate(0, np.pi, 0.0),))
    dist = run_noisy(circ, NoiseModel(p_r=0.3), trajectories=4000, seed=1)
    # Two thirds of injected Paulis undo the flip: expect about 0.2.
    assert 0.15 < dist[0] < 0.25


def test_fidelity_decreases_with_error_rate():
    fid = {}
    for p in (0.01, 0.08):
        table = truth_table(TOFFOLI, (0, 1, 2), NoiseModel(p_xx=p))
        fid[p] = truth_table_fidelity(table, TOFFOLI_PERM)
    assert fid[0.01] > fid[0.08] + 0.05


def test_fitted_rate_reproduces_reference_fidelity():
    table = truth_table(TOFFOLI, (0, 1, 2), NoiseModel(p_xx=FITTED_P_XX))
    assert 0.85 <= truth_table_fidelity(table, TOFFOLI_PERM) <= 0.94


def test_confusion_matrix_columns_are_stochastic():
    spam = SpamModel(eps0=0.03, eps1=0.05, crosstalk=0.02)
    m = confusion_matrix(spam, 3)
    assert np.allclose(m.sum(axis=0), 1.0, atol=1e-12)
    assert np.all(m >= 0)


def test_confusion_matrix_without_crosstalk_is_a_product():
    spam = SpamModel(eps0=0.04, eps1=0.07)
    single = np.array([[0.96, 0.07], [0.04, 0.93]])
    want = np.kron(np.kron(single, single), single)
    assert np.allclose(confusion_matrix(spam, 3), want, atol=1e-12)


def test_crosstalk_brightens_dark_neighbors():
    base = SpamModel(eps0=0.01, eps1=0.0)
    leaky = SpamModel(eps0=0.01, eps1=0.0, crosstalk=0.05)
    # True state 010: both outer qubits are dark with one bright neighbor.
    col_base = confusion_matrix(base, 3)[:, 0b010]
    col_leaky = confusion_matrix(leaky, 3)[:, 0b010]
    assert col_leaky[0b110] > col_base[0b110]
    assert col_leaky[0b011] > col_base[0b011]
    # A dark qubit with dark neighbors keeps its bare flip rate.
    col = confusion_matrix(leaky, 3)[:, 0b000]
    assert col[0b000] == pytest.approx((1 - 0.01) ** 3)


def test_spam_round_trip_recovers_distribution():
    rng = np.random.default_rng(2)
    spam = SpamModel(eps0=0.05, eps1=0.04, crosstalk=0.02)
    for _ in range(10):
        true = rng.dirichlet(np.ones(8))
        observed = apply_spam(true, spam)
        recovered = correct_spam(observed, spam)
        assert np.max(np.abs(recovered - true)) < 1e-9


def test_correct_spam_clips_and_renormalizes():
    spam = SpamModel(eps0=0.1, eps1=0.1)
    # A distribution that cannot arise from the model exactly.
    measured = np.array([1.0, 0.0])
    corrected = correct_spam(measured, spam)
    assert corrected.sum() == pytest.approx(1.0)
    assert np.all(corrected >= 0)


def test_load_noise_config(tmp_path):
    path = tmp_path / "noise.json"
    path.write_text(
        json.dumps({"p_xx": 0.02, "eps0": 0.01, "trajectories": 500, "seed": 4})
    )
    cfg = load_noise_config(str(path))
    assert cfg.noise.p_xx == 0.02
    assert cfg.noise.p_r == 0.0
    assert cfg.spam.eps0 == 0.01
    assert cfg.trajectories == 500
    assert cfg.seed == 4


def test_load_noise_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"p_xx": 0.02, "typo": 1}))
    with pytest.raises(ValueError):
        load_noise_config(str(path))


def test_load_noise_config_rejects_bad_values(tmp_path):
    path = tmp_path / "bad2.json"
    path.write_text(json.dumps({"p_xx": 1.5}))
    with pytest.raises(ValueError):
        load_noise_config(str(path))


def test_load_noise_config_rejects_ill_typed_values(tmp_path):
    for doc in ({"p_xx": None}, {"p_r": True}, {"crosstalk": [0.1]},
                {"trajectories": 1.7}, {"trajectories": "500"}, {"trajectories": -3},
                {"seed": -1}, {"seed": 2.0}):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_noise_config(str(path))


def test_noisy_table_repeats_and_pins_the_fitted_fidelity():
    a = truth_table(TOFFOLI, (0, 1, 2), NoiseModel(p_xx=FITTED_P_XX))
    b = truth_table(TOFFOLI, (0, 1, 2), NoiseModel(p_xx=FITTED_P_XX))
    assert np.array_equal(a, b)
    # The exact channel pins the fitted rate's reference fidelity.
    assert truth_table_fidelity(a, TOFFOLI_PERM) == pytest.approx(0.8965, abs=1e-4)


def test_channel_rotation_noise_on_one_qubit():
    # Two thirds of the injected Paulis undo the flip: exactly 0.2.
    circ = Circuit(1, (RotationGate(0, np.pi, 0.0),))
    dist = channel_distributions(circ, NoiseModel(p_r=0.3), [0])[0]
    assert dist[0] == pytest.approx(0.2, abs=1e-12)


def test_channel_rejects_bad_inputs():
    with pytest.raises(ValueError):
        channel_distributions(TOFFOLI, NoiseModel(), [])
    with pytest.raises(ValueError):
        channel_distributions(TOFFOLI, NoiseModel(), [8])


_ANGLE = st.floats(-math.pi, math.pi, allow_nan=False)


@st.composite
def native_circuits(draw):
    """Random R/XX circuits on 1 to 4 qubits."""
    n = draw(st.integers(1, 4))
    gates = []
    for _ in range(draw(st.integers(0, 10))):
        if n > 1 and draw(st.booleans()):
            qa, qb = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            gates.append(XXGate(qa, qb, draw(_ANGLE)))
        else:
            gates.append(RotationGate(draw(st.integers(0, n - 1)), draw(_ANGLE), draw(_ANGLE)))
    return Circuit(n, tuple(gates))


_RATE = st.floats(0.01, 0.2)


@settings(max_examples=40, deadline=None)
@given(native_circuits())
def test_channel_at_zero_noise_matches_exact_run(circ):
    inputs = list(range(2**circ.n_qubits))
    got = channel_distributions(circ, NoiseModel(), inputs)
    for i in inputs:
        want = probabilities(run(circ, init_basis(circ.n_qubits, i)))
        assert np.max(np.abs(got[i] - want)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(native_circuits(), _RATE, _RATE)
def test_channel_batch_matches_single_inputs(circ, p_xx, p_r):
    noise = NoiseModel(p_xx, p_r)
    inputs = list(reversed(range(2**circ.n_qubits)))
    batch = channel_distributions(circ, noise, inputs)
    for row, i in zip(batch, inputs):
        assert np.max(np.abs(row - channel_distributions(circ, noise, [i])[0])) < 1e-12


@settings(max_examples=40, deadline=None)
@given(native_circuits(), _RATE, _RATE)
def test_channel_rows_are_distributions(circ, p_xx, p_r):
    dists = channel_distributions(circ, NoiseModel(p_xx, p_r), range(2**circ.n_qubits))
    assert dists.shape == (2**circ.n_qubits,) * 2
    assert np.all(dists >= 0.0)
    assert np.allclose(dists.sum(axis=1), 1.0, atol=1e-12, rtol=0)


@settings(max_examples=20, deadline=None)
@given(native_circuits(), _RATE, _RATE, st.data())
def test_channel_agrees_with_trajectory_sampling(circ, p_xx, p_r, data):
    n = circ.n_qubits
    i = data.draw(st.integers(0, 2**n - 1))
    seed = data.draw(st.integers(0, 2**32 - 1))
    noise = NoiseModel(p_xx, p_r)
    trajectories = 4000
    exact = channel_distributions(circ, noise, [i])[0]
    sampled = run_noisy(circ, noise, trajectories, seed, init_basis(n, i))
    # Each trajectory contributes a probability in [0, 1] with mean p, so
    # its variance is at most p(1 - p); floor it where p is near 0 or 1.
    se = np.sqrt(np.maximum(exact * (1 - exact), 1 / trajectories) / trajectories)
    assert np.all(np.abs(sampled - exact) <= 6 * se)


def test_fitted_rate_is_tied_to_the_reference_fidelity():
    """FITTED_P_XX was fitted to the five-coupling Toffoli's observed
    truth-table fidelity of about 0.896; the exact channel must keep it
    there, so a change to the constant or the channel shows up here."""
    table = truth_table(TOFFOLI, (0, 1, 2), NoiseModel(p_xx=FITTED_P_XX))
    assert abs(truth_table_fidelity(table, TOFFOLI_PERM) - 0.896) < 0.001


def _confusion_column(spam, bits):
    """Readout distribution of one true label, one qubit at a time: a 1
    reads 1 with 1 - eps1; a 0 reads 1 with 1 - (1 - eps0)(1 - crosstalk)^b,
    b its bright nearest neighbours in the line."""
    col = np.ones(1)
    for i, b in enumerate(bits):
        if b == "1":
            p_read1 = 1.0 - spam.eps1
        else:
            bright = sum(0 <= j < len(bits) and bits[j] == "1" for j in (i - 1, i + 1))
            p_read1 = 1.0 - (1.0 - spam.eps0) * (1.0 - spam.crosstalk) ** bright
        col = np.kron(col, [1.0 - p_read1, p_read1])
    return col


@pytest.mark.parametrize("n", range(1, 7))
def test_confusion_matrix_matches_the_per_column_formula(n):
    spam = SpamModel(eps0=0.012, eps1=0.025, crosstalk=0.04)
    want = np.stack([_confusion_column(spam, format(j, f"0{n}b")) for j in range(2**n)], axis=1)
    assert np.max(np.abs(confusion_matrix(spam, n) - want)) <= 1e-15
