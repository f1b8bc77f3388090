"""Standard gates compiled to R/XX, exact up to global phase.

All constructions come from two conjugation identities, each checked
numerically to 1e-12 in the test suite:

    Ry(-g*pi/2) X Ry(g*pi/2) = g Z          (g = +1 or -1)
    Rz(theta) Ry(g*pi/2) = Ry(g*pi/2) Rx(-g*theta)

so an XX(chi) sandwiched by Ry on one qubit becomes exp(-i chi g Z.X),
which is a controlled rotation up to single-qubit corrections. The
free sign g absorbs the per-pair sign of the hardware coupling, so
every builder accepts sgn = +1 or -1 for each pair it touches and
produces the same gate either way.

Controlled-NOT costs one XX(pi/4). The doubly-controlled gates use the
square root V = exp(i pi/4) Rx(pi/2) of X (V*V = X), giving a
five-coupling network with three XX(pi/8) and two XX(pi/4). The
triply-controlled gate sandwiches that network between two three-CNOT
relative-phase blocks acting on one ancilla (11 couplings total); the
blocks' phases cancel exactly because the middle gate never alters the
block qubits.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .gates import Circuit, Gate, RotationGate, XXGate, concat, xx_count

PI = math.pi

SgnMap = dict[tuple[int, int], int]


def _sgn(sgn_map: SgnMap | None, a: int, b: int) -> int:
    """Coupling sign for the unordered pair (a, b); +1 when unspecified."""
    if sgn_map is None:
        return 1
    key = (min(a, b), max(a, b))
    s = sgn_map.get(key, 1)
    if s not in (1, -1):
        raise ValueError(f"sgn for pair {key} must be +1 or -1, got {s}")
    return s


def _check_sgn_map(sgn_map: SgnMap | None) -> None:
    """Check a whole sign map: every key a qubit pair ``(a, b)`` with
    ``0 <= a < b`` and every value +1 or -1, else ``ValueError`` naming
    the key. Pairs beyond a circuit's register are allowed and unused."""
    if sgn_map is None:
        return
    for key, s in sgn_map.items():
        if not (
            type(key) is tuple
            and len(key) == 2
            and all(isinstance(q, numbers.Integral) and not isinstance(q, bool) for q in key)
            and 0 <= key[0] < key[1]
        ):
            raise ValueError(f"sgn map key {key!r} must be a qubit pair (a, b) with 0 <= a < b")
        if isinstance(s, bool) or s not in (1, -1):
            raise ValueError(f"sgn for pair {key} must be +1 or -1, got {s!r}")


def _rx(q: int, theta: float) -> RotationGate:
    return RotationGate(q, theta, 0.0)


def _ry(q: int, theta: float) -> RotationGate:
    return RotationGate(q, theta, PI / 2)


def rz_template(q: int, theta: float) -> Circuit:
    """Rotation about z, as diag(1, e^{i theta}) up to global phase."""
    return Circuit(q + 1, (_rx(q, -PI / 2), _ry(q, theta), _rx(q, PI / 2)))


def hadamard_template(q: int) -> Circuit:
    """Hadamard up to global phase: Ry(pi/2) then Rx(pi)."""
    return Circuit(q + 1, (_ry(q, PI / 2), _rx(q, PI)))


def x_template(q: int) -> Circuit:
    """Bit flip up to global phase: a single R(pi, 0)."""
    return Circuit(q + 1, (_rx(q, PI),))


def cnot_template(control: int, target: int, sgn: int = 1) -> Circuit:
    """CNOT from one XX(sgn*pi/4) plus four rotations."""
    if sgn not in (1, -1):
        raise ValueError(f"sgn must be +1 or -1, got {sgn}")
    s = sgn
    n = max(control, target) + 1
    return Circuit(
        n,
        (
            _ry(control, s * PI / 2),
            XXGate(control, target, s * PI / 4),
            _rx(control, -s * PI / 2),
            _ry(control, -s * PI / 2),
            _rx(target, -PI / 2),
        ),
    )


def cz_template(qa: int, qb: int, sgn: int = 1) -> Circuit:
    """Controlled-Z from one XX(sgn*pi/4); symmetric in its qubits."""
    if sgn not in (1, -1):
        raise ValueError(f"sgn must be +1 or -1, got {sgn}")
    s = sgn
    n = max(qa, qb) + 1
    return Circuit(
        n,
        (
            _ry(qa, PI / 2),
            _ry(qb, s * PI / 2),
            XXGate(qa, qb, s * PI / 4),
            _rx(qb, -s * PI / 2),
            _ry(qb, -s * PI / 2),
            _rx(qa, -PI / 2),
            _ry(qa, -PI / 2),
        ),
    )


def _controlled_v(control: int, target: int, sgn: int, dagger: bool) -> Circuit:
    # Controlled V = exp(i pi/4) Rx(pi/2); V*V = X. One XX(sgn*pi/8).
    s = sgn
    d = -1 if dagger else 1
    n = max(control, target) + 1
    return Circuit(
        n,
        (
            _ry(control, -d * s * PI / 2),
            XXGate(control, target, s * PI / 8),
            _rx(control, -s * PI / 4),
            _ry(control, d * s * PI / 2),
            _rx(target, d * PI / 4),
        ),
    )


def toffoli3_template(c1: int, c2: int, t: int, sgn_map: SgnMap | None = None) -> Circuit:
    """Doubly-controlled NOT: five couplings, three XX(pi/8) + two XX(pi/4).

    Exact permutation up to global phase for every assignment of
    per-pair coupling signs.
    """
    s12 = _sgn(sgn_map, c1, c2)
    s2t = _sgn(sgn_map, c2, t)
    s1t = _sgn(sgn_map, c1, t)
    return concat(
        _controlled_v(c2, t, s2t, dagger=False),
        cnot_template(c1, c2, s12),
        _controlled_v(c2, t, s2t, dagger=True),
        cnot_template(c1, c2, s12),
        _controlled_v(c1, t, s1t, dagger=False),
    )


def ccz_template(qa: int, qb: int, qc: int, sgn_map: SgnMap | None = None) -> Circuit:
    """Doubly-controlled Z: Hadamard conjugation of the five-coupling network."""
    return concat(
        hadamard_template(qc),
        toffoli3_template(qa, qb, qc, sgn_map),
        hadamard_template(qc),
    )


def margolus_template(c1: int, c2: int, t: int, sgn_map: SgnMap | None = None) -> Circuit:
    """Relative-phase doubly-controlled NOT from three CNOTs.

    Acts as the identity for control values 00 and 01, as Z on the
    target for 10, and as X on the target for 11. Cheaper than the
    exact gate (3 couplings instead of 5) and sufficient wherever the
    10-branch phase later cancels.
    """
    s1 = _sgn(sgn_map, c1, t)
    s2 = _sgn(sgn_map, c2, t)
    gates: list[Gate] = [_ry(t, PI / 4)]
    gates += cnot_template(c2, t, s2).gates
    gates.append(_ry(t, PI / 4))
    gates += cnot_template(c1, t, s1).gates
    gates.append(_ry(t, -PI / 4))
    gates += cnot_template(c2, t, s2).gates
    gates.append(_ry(t, -PI / 4))
    return Circuit(max(c1, c2, t) + 1, tuple(gates))


def toffoli4_template(
    c1: int,
    c2: int,
    c3: int,
    target: int,
    ancilla: int,
    sgn_map: SgnMap | None = None,
) -> Circuit:
    """Triply-controlled NOT on 4 qubits plus one ancilla; 11 couplings.

    The ancilla must start in |0> and is returned to |0> disentangled.
    The relative phase of the outer blocks cancels because the middle
    five-coupling network leaves (c1, c2, ancilla-value) fixed.
    """
    qs = (c1, c2, c3, target, ancilla)
    if len(set(qs)) != len(qs):
        raise ValueError(f"qubits must be distinct, got {qs}")
    block = margolus_template(c1, c2, ancilla, sgn_map)
    middle = toffoli3_template(c3, ancilla, target, sgn_map)
    return concat(block, middle, block)


def rz_unitary(theta: float) -> np.ndarray:
    return np.diag([1.0, np.exp(1j * theta)]).astype(np.complex128)


def cnot_unitary() -> np.ndarray:
    u = np.eye(4, dtype=np.complex128)
    u[[2, 3]] = u[[3, 2]]
    return u


def cz_unitary() -> np.ndarray:
    return np.diag([1.0, 1.0, 1.0, -1.0]).astype(np.complex128)


def toffoli3_unitary() -> np.ndarray:
    u = np.eye(8, dtype=np.complex128)
    u[[6, 7]] = u[[7, 6]]
    return u


def ccz_unitary() -> np.ndarray:
    d = np.ones(8, dtype=np.complex128)
    d[7] = -1.0
    return np.diag(d)


def toffoli4_unitary() -> np.ndarray:
    u = np.eye(16, dtype=np.complex128)
    u[[14, 15]] = u[[15, 14]]
    return u


def equivalent_up_to_global_phase(
    u: np.ndarray, v: np.ndarray, tol: float = 1e-9
) -> bool:
    """True when u = e^{i alpha} v for some real alpha, elementwise within tol."""
    u = np.asarray(u, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    idx = np.unravel_index(np.argmax(np.abs(v)), v.shape)
    pivot = v[idx]
    if abs(pivot) < tol:
        return bool(np.max(np.abs(u - v)) <= tol)
    phase = u[idx] / pivot
    mag = abs(phase)
    if mag < tol:
        return False
    phase /= mag
    return bool(np.max(np.abs(u - phase * v)) <= tol)


def fuse_rotations(circuit: Circuit) -> Circuit:
    """Merge same-axis rotations that are adjacent on their qubit.

    Gates on other qubits do not block a merge. Rotations whose merged
    angle is a multiple of 4*pi (the true identity, since a 2*pi
    rotation is -I) are dropped.
    """
    out: list[Gate] = []
    for g in circuit.gates:
        if not isinstance(g, RotationGate):
            out.append(g)
            continue
        prev = None
        for i in range(len(out) - 1, -1, -1):
            if g.qubit in out[i].qubits:
                prev = i
                break
        if prev is not None:
            h = out[prev]
            if isinstance(h, RotationGate) and abs(h.phi - g.phi) < 1e-12:
                theta = h.theta + g.theta
                if abs(math.remainder(theta, 4 * PI)) < 1e-12:
                    out.pop(prev)
                else:
                    out[prev] = RotationGate(g.qubit, theta, g.phi)
                continue
        out.append(g)
    return Circuit(circuit.n_qubits, tuple(out))


@dataclass(frozen=True)
class CostReport:
    """Predicted resources for an n-controlled NOT built recursively."""

    n_controls_plus_target: int
    xx_count: int
    ancilla_count: int


def toffoli_n_cost(n: int) -> CostReport:
    """Coupling and ancilla counts for the n-qubit controlled NOT.

    ``n`` counts controls plus target. The recursion replaces two
    controls with one ancilla per level: 6n - 13 couplings and
    ceil((n - 3) / 2) ancillas for n >= 3.
    """
    if n < 3:
        raise ValueError(f"cost model starts at n = 3, got {n}")
    return CostReport(n, 6 * n - 13, math.ceil((n - 3) / 2))


@dataclass(frozen=True)
class GateTemplate:
    """Named builder plus its ideal unitary, for tables and the CLI."""

    name: str
    n_qubits: int
    io_qubits: tuple[int, ...]
    build: Callable[[SgnMap | None], Circuit]
    ideal: np.ndarray


def _template_table() -> dict[str, GateTemplate]:
    return {
        "cnot": GateTemplate(
            "cnot", 2, (0, 1), lambda m=None: cnot_template(0, 1, _sgn(m, 0, 1)),
            cnot_unitary(),
        ),
        "cz": GateTemplate(
            "cz", 2, (0, 1), lambda m=None: cz_template(0, 1, _sgn(m, 0, 1)),
            cz_unitary(),
        ),
        "toffoli3": GateTemplate(
            "toffoli3", 3, (0, 1, 2), lambda m=None: toffoli3_template(0, 1, 2, m),
            toffoli3_unitary(),
        ),
        "ccz": GateTemplate(
            "ccz", 3, (0, 1, 2), lambda m=None: ccz_template(0, 1, 2, m),
            ccz_unitary(),
        ),
        "toffoli4": GateTemplate(
            "toffoli4", 5, (0, 1, 2, 3), lambda m=None: toffoli4_template(0, 1, 2, 3, 4, m),
            toffoli4_unitary(),
        ),
    }


GATE_TEMPLATES = _template_table()
