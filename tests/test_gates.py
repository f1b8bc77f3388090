import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iongrover.gates import (
    Circuit,
    RotationGate,
    XXGate,
    circuit_from_json,
    circuit_to_json,
    circuit_unitary,
    concat,
    evolve,
    inverse,
    r_matrix,
    run,
    xx_count,
    xx_matrix,
)
from iongrover.statevector import (
    MAX_QUBITS,
    StateVector,
    apply_one_qubit,
    apply_two_qubit,
    init_basis,
)

PI = np.pi


def test_r_pi_about_x_flips_with_phase():
    out = r_matrix(PI, 0.0) @ np.array([1, 0], dtype=complex)
    assert np.allclose(out, [0, -1j], atol=1e-12)


def test_r_half_pi_about_y_makes_plus():
    out = r_matrix(PI / 2, PI / 2) @ np.array([1, 0], dtype=complex)
    assert np.allclose(out, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)


def test_r_is_unitary_for_random_angles():
    rng = np.random.default_rng(3)
    for _ in range(20):
        u = r_matrix(rng.uniform(-4 * PI, 4 * PI), rng.uniform(-PI, PI))
        assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-12)


def test_xx_quarter_pi_entangles_zero_state():
    out = xx_matrix(PI / 4) @ np.eye(4, dtype=complex)[:, 0]
    want = np.array([1, 0, 0, -1j], dtype=complex) / np.sqrt(2)
    assert np.allclose(out, want, atol=1e-12)


def test_two_eighth_couplings_compose_to_quarter():
    u = xx_matrix(PI / 8)
    assert np.allclose(u @ u, xx_matrix(PI / 4), atol=1e-12)


def test_xx_is_symmetric_in_its_qubits():
    swap = np.eye(4)[[0, 2, 1, 3]]
    u = xx_matrix(0.3)
    assert np.allclose(swap @ u @ swap, u, atol=1e-12)


def test_gate_validation():
    with pytest.raises(ValueError):
        XXGate(1, 1, 0.3)
    with pytest.raises(ValueError):
        RotationGate(0, np.inf, 0.0)
    with pytest.raises(ValueError):
        Circuit(2, (RotationGate(2, 1.0, 0.0),))


def test_run_applies_gates_in_list_order():
    # X on qubit 0 then a coupling: |00> -> |10> -> entangled pair.
    circ = Circuit(2, (RotationGate(0, PI, 0.0), XXGate(0, 1, PI / 4)))
    state = run(circ)
    probs = np.abs(state.amps) ** 2
    assert probs[0b10] == pytest.approx(0.5)
    assert probs[0b01] == pytest.approx(0.5)


def test_run_rejects_mismatched_register():
    with pytest.raises(ValueError):
        run(Circuit(2, ()), init_basis(3, 0))


def test_circuit_unitary_matches_column_runs():
    circ = Circuit(
        2,
        (
            RotationGate(0, 0.7, 0.2),
            XXGate(0, 1, PI / 8),
            RotationGate(1, -1.1, PI / 2),
        ),
    )
    u = circuit_unitary(circ)
    assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-9)
    col = run(circ, init_basis(2, "10")).amps
    assert np.allclose(u[:, 2], col, atol=1e-12)


def test_xx_count_ignores_rotations():
    circ = Circuit(2, (RotationGate(0, 1.0, 0.0), XXGate(0, 1, 0.1), XXGate(1, 0, 0.2)))
    assert xx_count(circ) == 2


def test_concat_widens_register():
    a = Circuit(1, (RotationGate(0, 1.0, 0.0),))
    b = Circuit(3, (XXGate(1, 2, 0.3),))
    c = concat(a, b)
    assert c.n_qubits == 3
    assert len(c) == 2


def test_inverse_undoes_circuit():
    circ = Circuit(
        3,
        (
            RotationGate(0, 0.4, 1.0),
            XXGate(0, 2, PI / 8),
            RotationGate(2, -0.9, PI / 2),
            XXGate(1, 2, -0.77),
        ),
    )
    u = circuit_unitary(concat(circ, inverse(circ)))
    assert np.allclose(u, np.eye(8), atol=1e-9)


def test_json_round_trip():
    circ = Circuit(2, (RotationGate(0, 0.25, -1.5), XXGate(0, 1, -PI / 8)))
    restored = circuit_from_json(circuit_to_json(circ))
    assert restored == circ


def test_json_rejects_unknown_kind():
    with pytest.raises(ValueError):
        circuit_from_json('{"n_qubits": 1, "gates": [{"kind": "CZ"}]}')


def _r(**fields):
    return {"kind": "R", "q": 0, "theta": 0.5, "phi": 0.0, **fields}


def _xx(**fields):
    return {"kind": "XX", "qa": 0, "qb": 1, "chi": 0.5, **fields}


def _without(gate, key):
    return {k: v for k, v in gate.items() if k != key}


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"n_qubits": 2, "gates": [_without(_r(), "q")]}, "'q'"),
        ({"n_qubits": 2, "gates": [_without(_r(), "theta")]}, "'theta'"),
        ({"n_qubits": 2, "gates": [_without(_r(), "phi")]}, "'phi'"),
        ({"n_qubits": 2, "gates": [_without(_xx(), "qa")]}, "'qa'"),
        ({"n_qubits": 2, "gates": [_without(_xx(), "qb")]}, "'qb'"),
        ({"n_qubits": 2, "gates": [_without(_xx(), "chi")]}, "'chi'"),
        ({"n_qubits": 2, "gates": [1]}, "gates\\[0\\]"),
        ({"n_qubits": 2, "gates": [_xx(chi="x")]}, "chi"),
        ({"n_qubits": 2, "gates": [_r(q=True)]}, "q must be an integer"),
        ({"n_qubits": 2, "gates": [_xx(qb=1.0)]}, "qb must be an integer"),
        ({"n_qubits": 2.0, "gates": []}, "n_qubits"),
        ({"n_qubits": 2, "gates": {}}, "gates"),
        ({"gates": []}, "n_qubits"),
        ([], "object"),
        ({"n_qubits": 2, "gates": [_r(theta=10**400)]}, "gates\\[0\\] theta"),
        ({"n_qubits": 2, "gates": [_r(), _xx(chi=-(10**400))]}, "gates\\[1\\] chi"),
    ],
)
def test_json_rejects_malformed_fields(doc, field):
    with pytest.raises(ValueError, match=field):
        circuit_from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "make",
    [
        lambda: Circuit(2.0),
        lambda: Circuit(True),
        lambda: RotationGate(True, 0.5, 0.0),
        lambda: RotationGate(0.0, 0.5, 0.0),
        lambda: XXGate(0, 1.0, 0.5),
        lambda: XXGate(np.bool_(False), 1, 0.5),
    ],
    ids=["n_qubits-float", "n_qubits-bool", "qubit-bool", "qubit-float", "qb-float",
         "qa-numpy-bool"],
)
def test_integer_fields_reject_bools_and_floats(make):
    with pytest.raises(ValueError, match="must be an integer"):
        make()


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: RotationGate(0, 10**400, 0.0), "theta"),
        (lambda: RotationGate(0, 0.5, -(10**400)), "phi"),
        (lambda: RotationGate(0, "0.5", 0.0), "theta"),
        (lambda: RotationGate(0, 0.5, None), "phi"),
        (lambda: RotationGate(0, np.nan, 0.0), "theta"),
        (lambda: RotationGate(0, 0.5, np.inf), "phi"),
        (lambda: XXGate(0, 1, 10**400), "chi"),
        (lambda: XXGate(0, 1, None), "chi"),
        (lambda: XXGate(0, 1, -np.inf), "chi"),
    ],
    ids=["theta-huge-int", "phi-huge-int", "theta-str", "phi-none", "theta-nan", "phi-inf",
         "chi-huge-int", "chi-none", "chi-inf"],
)
def test_angle_fields_reject_non_finite_values_naming_the_field(make, field):
    with pytest.raises(ValueError, match=f"^{field} must be a finite number"):
        make()


def test_integer_fields_accept_numpy_integers():
    gate = XXGate(np.int64(0), np.int32(1), 0.5)
    circ = Circuit(np.int64(2), (gate, RotationGate(np.uint8(1), 0.5, 0.0)))
    assert type(circ.n_qubits) is int and type(gate.qa) is int
    assert circuit_from_json(circuit_to_json(circ)) == circ


_ANGLE = st.floats(-np.pi, np.pi, allow_nan=False)


@st.composite
def native_circuits(draw):
    """Random R/XX circuits on 1 to MAX_QUBITS qubits."""
    n = draw(st.integers(1, MAX_QUBITS))
    gates = []
    for _ in range(draw(st.integers(0, 12))):
        if n > 1 and draw(st.booleans()):
            qa, qb = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            gates.append(XXGate(qa, qb, draw(_ANGLE)))
        else:
            gates.append(RotationGate(draw(st.integers(0, n - 1)), draw(_ANGLE), draw(_ANGLE)))
    return Circuit(n, tuple(gates))


@settings(max_examples=40, deadline=None)
@given(native_circuits(), st.data())
def test_run_matches_the_chain_of_checked_wrappers(circ, data):
    n = circ.n_qubits
    start = init_basis(n, data.draw(st.integers(0, 2**n - 1)))
    state = start
    for g in circ.gates:
        if isinstance(g, RotationGate):
            state = apply_one_qubit(state, g.qubit, g.matrix())
        else:
            state = apply_two_qubit(state, g.qa, g.qb, g.matrix())
    assert np.max(np.abs(run(circ, start).amps - state.amps)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(native_circuits(), st.data())
def test_evolve_on_basis_rows_matches_per_row_run(circ, data):
    n = circ.n_qubits
    rows = data.draw(st.lists(st.integers(0, 2**n - 1), min_size=1, max_size=2**n))
    batch = evolve(circ, np.eye(2**n)[rows])
    assert batch.shape == (len(rows), 2**n)
    for got, k in zip(batch, rows):
        assert np.max(np.abs(got - run(circ, init_basis(n, k)).amps)) < 1e-12


def test_evolve_checks_the_batch_shape():
    circ = Circuit(2, (XXGate(0, 1, 0.3),))
    with pytest.raises(ValueError):
        evolve(circ, np.ones(4))
    with pytest.raises(ValueError):
        evolve(circ, np.ones((1, 8)))


def test_run_returns_a_validated_state():
    out = run(Circuit(1, (RotationGate(0, 0.3, 0.0),)))
    assert isinstance(out, StateVector) and not out.amps.flags.writeable


def test_concat_equals_the_validated_construction():
    parts = (
        Circuit(2, (RotationGate(0, 0.3, 0.1), XXGate(1, 0, 0.2))),
        Circuit(4, (XXGate(3, 2, -0.4),)),
        Circuit(1, ()),
        Circuit(3, (RotationGate(2, 1.1, -0.5),)),
    )
    got = concat(*parts)
    want = Circuit(4, tuple(g for c in parts for g in c.gates))
    assert got == want and hash(got) == hash(want)
    assert type(got) is Circuit and type(got.n_qubits) is int and type(got.gates) is tuple
    assert concat(parts[0]) == parts[0]


def test_circuit_still_rejects_gates_outside_the_register():
    with pytest.raises(ValueError, match="outside register"):
        Circuit(2, (RotationGate(2, 0.1, 0.0),))
    with pytest.raises(ValueError, match="outside register"):
        Circuit(3, (XXGate(0, 3, 0.1),))
    with pytest.raises(TypeError):
        concat(Circuit(2, ()), (RotationGate(5, 0.1, 0.0),))
