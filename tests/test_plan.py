"""The compiled gate plan: fused blocks against the unfused gate chain.

Both engines run each circuit as the blocks of ``gates.fuse_blocks``.
These properties compare them with references that apply one gate at a
time and never fuse.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iongrover.decompositions import GATE_TEMPLATES
from iongrover.gates import (
    Circuit,
    RotationGate,
    XXGate,
    circuit_unitary,
    evolve,
    fuse_blocks,
    gate_matrices,
    plan,
    run,
)
from iongrover.grover import GroverConfig, OracleSpec, grover_circuit
from iongrover.noise import NoiseModel, channel_distributions, distributions
from iongrover.statevector import (
    MAX_QUBITS,
    all_labels,
    apply_gate,
    init_basis,
    marginal,
    marginals,
    probabilities,
)

_ANGLE = st.floats(-np.pi, np.pi, allow_nan=False)
_RATE = st.one_of(st.just(0.0), st.floats(0.0, 0.3))
_PAULIS = (
    np.eye(2),
    np.array([[0, 1], [1, 0]]),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]]),
)


@st.composite
def native_circuits(draw, max_qubits=MAX_QUBITS, max_gates=40):
    """Random native circuits. Pairs are drawn in either order, so
    repeated and reversed couplings on few qubits are common."""
    n = draw(st.integers(1, max_qubits))
    gates = []
    for _ in range(draw(st.integers(0, max_gates))):
        if n > 1 and draw(st.booleans()):
            qa, qb = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            gates.append(XXGate(qa, qb, draw(_ANGLE)))
        else:
            gates.append(RotationGate(draw(st.integers(0, n - 1)), draw(_ANGLE), draw(_ANGLE)))
    return Circuit(n, tuple(gates))


def unfused_evolve(circuit, amps):
    """One ``apply_gate`` call per native gate."""
    for g in circuit.gates:
        amps = apply_gate(amps, circuit.n_qubits, g.qubits, g.matrix())
    return amps


def dense(n, qubits, u):
    """The 2**n x 2**n matrix of ``u`` acting on ``qubits``."""
    return apply_gate(np.eye(2**n, dtype=np.complex128), n, qubits, u).T


def pauli_channel(circuit, noise, inputs):
    """Per-gate density matrices under the random-Pauli model written out:
    after a k-qubit gate with rate p, each of the 4^k - 1 non-identity
    Paulis on its qubits acts with probability p / (4^k - 1)."""
    n, dim = circuit.n_qubits, 2**circuit.n_qubits
    rho = np.zeros((len(inputs), dim, dim), dtype=np.complex128)
    rho[np.arange(len(inputs)), inputs, inputs] = 1.0
    paulis = {}
    for g in circuit.gates:
        u = dense(n, g.qubits, g.matrix())
        rho = u @ rho @ u.conj().T
        k = len(g.qubits)
        p = noise.p_r if k == 1 else noise.p_xx
        if p == 0.0:
            continue
        if g.qubits not in paulis:
            paulis[g.qubits] = [
                dense(n, g.qubits, ops[0] if k == 1 else np.kron(*ops))
                for ops in itertools.product(_PAULIS, repeat=k)
            ][1:]
        rho = (1 - p) * rho + p / (4**k - 1) * sum(s @ rho @ s for s in paulis[g.qubits])
    return np.einsum("bii->bi", rho).real


@settings(max_examples=60, deadline=None)
@given(native_circuits(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_fused_evolve_matches_the_unfused_chain(circuit, batch, seed):
    rng = np.random.default_rng(seed)
    dim = 2**circuit.n_qubits
    amps = rng.normal(size=(batch, dim)) + 1j * rng.normal(size=(batch, dim))
    assert np.max(np.abs(evolve(circuit, amps) - unfused_evolve(circuit, amps)), initial=0) < 1e-12


@settings(max_examples=30, deadline=None)
@given(native_circuits(max_gates=24), _RATE, _RATE, st.data())
def test_fused_channel_matches_the_per_gate_pauli_channel(circuit, p_xx, p_r, data):
    noise = NoiseModel(p_xx, p_r)
    dim = 2**circuit.n_qubits
    inputs = data.draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=3))
    got = channel_distributions(circuit, noise, inputs)
    assert np.max(np.abs(got - pauli_channel(circuit, noise, inputs))) < 1e-12


def _apply_dense(m, sites, d, where, u):
    """Apply ``u`` on ``where`` to every row of ``m``, for sites of dimension ``d``."""
    k = len(where)
    t = m.reshape([-1] + [d] * sites)
    axes = [q + 1 for q in where]
    t = np.tensordot(u.reshape([d] * (2 * k)), t, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(t, list(range(k)), axes).reshape(m.shape)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3), st.integers(1, 4), st.data())
def test_fused_blocks_compose_to_the_same_map_for_any_matrices(d, sites, data):
    """The planner is exact for arbitrary (not unitary) matrices and any
    local dimension, so it relies on nothing but which sites an op
    touches."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    pairs = list(itertools.permutations(range(sites), 2))
    ops = []
    for _ in range(data.draw(st.integers(0, 30))):
        where = data.draw(st.sampled_from(pairs + [(q,) for q in range(sites)]))
        size = d ** len(where)
        ops.append((where, rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))))

    def total(plan):
        m = np.eye(d**sites, dtype=np.complex128)
        for where, u in plan:
            m = _apply_dense(m, sites, d, where, u)
        return m

    plan = fuse_blocks(ops, d)
    assert len(plan) <= len(ops)
    assert all(1 <= len(where) <= 2 for where, _ in plan)
    want, got = total(ops), total(plan)
    assert np.max(np.abs(got - want), initial=0) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(1, 4), st.integers(0, 4), st.data())
def test_planned_repeats_compose_to_the_repeated_ops(d, sites, repeats, data):
    """A head and ``repeats`` copies of a round: the round fused once and
    its blocks copied give the map of every op applied in turn."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    where = list(itertools.permutations(range(sites), 2)) + [(q,) for q in range(sites)]
    ops = []
    for _ in range(data.draw(st.integers(0, 16))):
        w = data.draw(st.sampled_from(where))
        size = d ** len(w)
        ops.append((w, rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))))
    head = data.draw(st.integers(0, len(ops)))

    def total(blocks):
        m = np.eye(d**sites, dtype=np.complex128)
        for w, u in blocks:
            m = _apply_dense(m, sites, d, w, u)
        return m

    want = total(ops[:head] + ops[head:] * repeats)
    got = total(plan(ops, d, head, repeats))
    assert np.max(np.abs(got - want), initial=0) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_reversed_repeat_coupling_merges_into_one_block():
    a = XXGate(0, 1, 0.3).matrix() @ np.kron(np.eye(2), RotationGate(0, 0.4, 0.1).matrix())
    b = XXGate(1, 0, 0.7).matrix() @ np.kron(RotationGate(0, 0.2, 0.5).matrix(), np.eye(2))
    plan = fuse_blocks([((0, 1), a), ((1, 0), b)], 2)
    assert len(plan) == 1 and plan[0][0] == (0, 1)
    state = np.eye(4, dtype=np.complex128)
    chain = apply_gate(apply_gate(state, 2, (0, 1), a), 2, (1, 0), b)
    assert np.max(np.abs(apply_gate(state, 2, *plan[0]) - chain)) < 1e-14


@pytest.mark.parametrize("label", all_labels(3))
def test_boolean_one_of_eight_plans_to_sixteen_blocks(label):
    """109 to 115 gates, depending on the X flips around the oracle."""
    circuit = grover_circuit(GroverConfig(OracleSpec(3, (label,), "boolean")))
    ops = [(g.qubits, g.matrix()) for g in circuit.gates]
    assert 109 <= len(ops) <= 115
    assert len(fuse_blocks(ops, 2)) == 16


def test_toffoli4_plans_to_eleven_blocks():
    circuit = GATE_TEMPLATES["toffoli4"].build(None)
    ops = [(g.qubits, g.matrix()) for g in circuit.gates]
    assert len(ops) == 63
    assert len(fuse_blocks(ops, 2)) == 11


def _sign_maps(circuit):
    pairs = sorted({tuple(sorted(g.qubits)) for g in circuit.gates if isinstance(g, XXGate)})
    for signs in itertools.product((1, -1), repeat=len(pairs)):
        yield dict(zip(pairs, signs))


@pytest.mark.parametrize("name", sorted(GATE_TEMPLATES))
def test_circuit_unitary_matches_per_column_run_for_every_sign_map(name):
    template = GATE_TEMPLATES[name]
    for sgn_map in _sign_maps(template.build(None)):
        circuit = template.build(sgn_map)
        n = circuit.n_qubits
        u = circuit_unitary(circuit)
        columns = np.stack([run(circuit, init_basis(n, k)).amps for k in range(2**n)], axis=1)
        assert np.array_equal(u, columns)
        unfused = unfused_evolve(circuit, np.eye(2**n, dtype=np.complex128)).T
        assert np.max(np.abs(u - unfused)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(native_circuits(max_gates=24), st.data())
def test_engines_agree_on_every_input_and_kept_register(circuit, data):
    """The one ``distributions`` routine without noise, the channel at
    p = 0 and a per-input ``run`` with ``marginal`` give the same rows."""
    n = circuit.n_qubits
    inputs = data.draw(st.lists(st.integers(0, 2**n - 1), min_size=1, max_size=2**n))
    keep = tuple(data.draw(st.permutations(range(n)))[: data.draw(st.integers(1, n))])
    got = distributions(circuit, None, inputs, keep)
    assert got.shape == (len(inputs), 2 ** len(keep))
    channel = marginals(channel_distributions(circuit, NoiseModel(), inputs), n, keep)
    per_input = [marginal(probabilities(run(circuit, init_basis(n, i))), n, keep) for i in inputs]
    assert np.max(np.abs(got - channel)) < 1e-12
    assert np.max(np.abs(got - np.array(per_input))) < 1e-12
    assert np.array_equal(distributions(circuit, NoiseModel(), inputs, keep), got)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, MAX_QUBITS), st.integers(1, 5), st.data())
def test_batched_marginal_equals_marginal_row_by_row(n, batch, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    probs = rng.random((batch, 2**n))
    keep = tuple(data.draw(st.permutations(range(n)))[: data.draw(st.integers(1, n))])
    rows = np.array([marginal(p, n, keep) for p in probs])
    assert np.max(np.abs(marginals(probs, n, keep) - rows)) <= 1e-15


@settings(max_examples=60, deadline=None)
@given(native_circuits())
def test_gate_matrices_match_the_closed_forms(circuit):
    """R(theta, phi) = cos(theta/2) I - i sin(theta/2) (cos phi X + sin phi Y)
    and XX(chi) = cos(chi) I - i sin(chi) X.X, gate by gate."""
    eye, x, y = _PAULIS[:3]
    want_r, want_xx = [], []
    for g in circuit.gates:
        if isinstance(g, RotationGate):
            axis = np.cos(g.phi) * x + np.sin(g.phi) * y
            want_r.append(np.cos(g.theta / 2) * eye - 1j * np.sin(g.theta / 2) * axis)
        else:
            want_xx.append(np.cos(g.chi) * np.eye(4) - 1j * np.sin(g.chi) * np.kron(x, x))
    rotations, couplings = gate_matrices(circuit)
    assert rotations.shape == (len(want_r), 2, 2) and couplings.shape == (len(want_xx), 4, 4)
    assert np.max(np.abs(rotations - np.reshape(want_r, (-1, 2, 2))), initial=0) <= 1e-15
    assert np.max(np.abs(couplings - np.reshape(want_xx, (-1, 4, 4))), initial=0) <= 1e-15
    # The one-gate matrices are the same formulas on a batch of one.
    for g, m in zip([g for g in circuit.gates if isinstance(g, RotationGate)], rotations):
        assert np.max(np.abs(g.matrix() - m)) <= 1e-15
    for g, m in zip([g for g in circuit.gates if isinstance(g, XXGate)], couplings):
        assert np.max(np.abs(g.matrix() - m)) <= 1e-15
