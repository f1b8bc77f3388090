import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iongrover.statevector import (
    MAX_QUBITS,
    StateVector,
    all_labels,
    apply_gate,
    apply_one_qubit,
    apply_two_qubit,
    bits_to_index,
    init_basis,
    marginal,
    probabilities,
    sample,
    sample_counts,
)

RX90 = np.array([[1, -1j], [-1j, 1]], dtype=complex) / np.sqrt(2)
HAD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def test_init_basis_places_amplitude_big_endian():
    state = init_basis(3, "011")
    assert state.amps[0b011] == 1.0
    assert np.sum(np.abs(state.amps)) == 1.0


def test_init_basis_accepts_integer_index():
    assert np.allclose(init_basis(2, 3).amps, init_basis(2, "11").amps)


def test_bits_index_round_trip():
    for n in range(1, MAX_QUBITS + 1):
        for k in range(2**n):
            assert bits_to_index(format(k, f"0{n}b")) == k


def test_all_labels_in_index_order():
    assert all_labels(2) == ["00", "01", "10", "11"]


@pytest.mark.parametrize("bad", ["", "012", "ab", "2"])
def test_bits_to_index_rejects_non_bits(bad):
    with pytest.raises(ValueError):
        bits_to_index(bad)


def test_register_size_bounds():
    with pytest.raises(ValueError):
        init_basis(0, 0)
    with pytest.raises(ValueError):
        init_basis(MAX_QUBITS + 1, 0)


def test_apply_one_qubit_targets_leftmost_bit():
    # Qubit 0 is the leftmost label bit, so flipping it on |000>
    # moves the amplitude to |100> = index 4.
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    state = apply_one_qubit(init_basis(3, "000"), 0, x)
    assert abs(state.amps[4]) == pytest.approx(1.0)


def test_apply_two_qubit_index_convention():
    # A CNOT matrix on (qa, qb) reads qa as the control.
    cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
    state = apply_two_qubit(init_basis(3, "101"), 2, 1, cnot)
    assert abs(state.amps[bits_to_index("111")]) == pytest.approx(1.0)


def test_apply_rejects_non_unitary():
    with pytest.raises(ValueError):
        apply_one_qubit(init_basis(1, 0), 0, np.array([[1, 0], [0, 2.0]]))


def test_apply_rejects_bad_qubits():
    state = init_basis(2, 0)
    with pytest.raises(ValueError):
        apply_one_qubit(state, 2, RX90)
    with pytest.raises(ValueError):
        apply_two_qubit(state, 1, 1, np.eye(4))


def test_states_are_immutable():
    state = init_basis(2, 0)
    with pytest.raises(ValueError):
        state.amps[0] = 0.5


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_single_qubit_layers_preserve_norm(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, MAX_QUBITS + 1))
    state = init_basis(n, int(rng.integers(0, 2**n)))
    for _ in range(6):
        theta = rng.uniform(-np.pi, np.pi)
        u = np.cos(theta) * np.eye(2) - 1j * np.sin(theta) * np.array([[0, 1], [1, 0]])
        state = apply_one_qubit(state, int(rng.integers(0, n)), u)
    assert abs(state.norm - 1.0) < 1e-9


def test_disjoint_gates_commute():
    state = init_basis(4, "0110")
    a = apply_one_qubit(apply_one_qubit(state, 0, HAD), 3, RX90)
    b = apply_one_qubit(apply_one_qubit(state, 3, RX90), 0, HAD)
    assert np.max(np.abs(a.amps - b.amps)) < 1e-12


def test_diagonal_gate_leaves_other_marginals_unchanged():
    state = apply_one_qubit(init_basis(3, "010"), 1, HAD)
    phase = np.diag([1.0, np.exp(0.7j)])
    before = marginal(probabilities(state), 3, (0, 2))
    after = marginal(probabilities(apply_one_qubit(state, 1, phase)), 3, (0, 2))
    assert np.max(np.abs(before - after)) < 1e-12


def test_marginal_orders_kept_qubits_as_requested():
    probs = probabilities(apply_one_qubit(init_basis(3, "001"), 0, HAD))
    m01 = marginal(probs, 3, (0, 2))
    m10 = marginal(probs, 3, (2, 0))
    assert np.allclose(m01, m10[[0, 2, 1, 3]])
    assert m01.sum() == pytest.approx(1.0)


def test_marginal_validates_inputs():
    probs = np.ones(8) / 8
    with pytest.raises(ValueError):
        marginal(probs, 3, (0, 0))
    with pytest.raises(ValueError):
        marginal(probs, 3, (3,))


def test_sample_is_deterministic_and_complete():
    state = apply_one_qubit(init_basis(1, 0), 0, HAD)
    counts = sample(state, 1000, seed=42)
    again = sample(state, 1000, seed=42)
    assert np.array_equal(counts, again)
    assert counts.sum() == 1000


def test_sample_rejects_negative_shots():
    with pytest.raises(ValueError):
        sample(init_basis(1, 0), -1, seed=0)


def _embedded(n, qubits, u):
    """Dense 2**n matrix of ``u`` acting on ``qubits``, entry by entry."""
    bit = lambda index, q: (index >> (n - 1 - q)) & 1
    sub = lambda index: sum(bit(index, q) << (len(qubits) - 1 - i) for i, q in enumerate(qubits))
    rest = lambda index: [bit(index, q) for q in range(n) if q not in qubits]
    full = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(2**n):
        for j in range(2**n):
            if rest(i) == rest(j):
                full[i, j] = u[sub(i), sub(j)]
    return full


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_apply_gate_matches_the_dense_embedding(data):
    n = data.draw(st.integers(1, MAX_QUBITS))
    k = data.draw(st.integers(1, min(2, n)))
    qubits = tuple(data.draw(st.permutations(range(n)))[:k])
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    u = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
    amps = rng.normal(size=(3, 2**n)) + 1j * rng.normal(size=(3, 2**n))
    got = apply_gate(amps, n, qubits, u)
    assert np.max(np.abs(got - amps @ _embedded(n, qubits, u).T)) < 1e-12


def test_sample_counts_keeps_the_seed_streams_of_both_callers():
    state = init_basis(2, "01")
    state = apply_one_qubit(state, 0, HAD)
    p = probabilities(state)
    assert np.array_equal(sample(state, 300, 5), sample_counts(p, 300, 5))
    assert np.array_equal(
        sample_counts(p, 300, 5), np.random.default_rng(5).multinomial(300, p / p.sum())
    )
    # The CLI draws --shots counts from its own (job_seed, 1) stream.
    unnormalized = 2 * p
    assert np.array_equal(
        sample_counts(unnormalized, 300, (700021, 1)),
        np.random.default_rng((700021, 1)).multinomial(300, unnormalized / unnormalized.sum()),
    )
    assert sample_counts(p, 300, 5).sum() == 300
    with pytest.raises(ValueError):
        sample_counts(p, -1, 5)


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 64), st.integers(1, 10_000), st.integers(0, 2**32 - 1))
def test_sample_counts_do_not_hang_on_the_last_bit(size, shots, seed):
    """Counts for p and for p moved by one ulp up or down per entry are
    equal. The last two outcomes are tied and one earlier entry is 0, the
    case where the multinomial's running remainder lands near 1/2."""
    rng = np.random.default_rng(seed)
    p = rng.random(size)
    p[-1] = p[-2]
    p[rng.integers(size - 2)] = 0.0
    p /= p.sum()
    moved = np.nextafter(p, np.where(rng.random(size) < 0.5, -np.inf, np.inf))
    moved[p == 0.0] = 0.0
    assert np.array_equal(sample_counts(p, shots, seed), sample_counts(moved, shots, seed))
