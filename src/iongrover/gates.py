"""Native gate set and circuit container.

Two gate kinds only: single-qubit rotations R(theta, phi) and the
two-qubit Ising coupling XX(chi). Everything else in this package is
compiled down to these.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .statevector import MAX_QUBITS, StateVector, apply_gate, init_basis


def r_matrices(theta, phi) -> np.ndarray:
    """R(theta, phi) for arrays of angles, one ``2 x 2`` matrix per entry.

    Rotation by ``theta`` about the Bloch axis (cos phi, sin phi, 0):
    R(theta, 0) is a rotation about x, R(theta, pi/2) about y. Returns
    shape ``theta.shape + (2, 2)``.
    """
    theta = np.asarray(theta, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    c = np.cos(theta / 2)
    s = np.sin(theta / 2)
    out = np.empty(theta.shape + (2, 2), dtype=np.complex128)
    out[..., 0, 0] = out[..., 1, 1] = c
    out[..., 0, 1] = -1j * np.exp(-1j * phi) * s
    out[..., 1, 0] = -1j * np.exp(1j * phi) * s
    return out


def xx_matrices(chi) -> np.ndarray:
    """Ising coupling exp(-i chi X.X) for an array of angles, one ``4 x 4``
    matrix per entry.

    Diagonal cos(chi), anti-diagonal -i sin(chi). XX(pi/4) is maximally
    entangling; two XX(pi/8) on the same pair compose to XX(pi/4).
    Returns shape ``chi.shape + (4, 4)``.
    """
    chi = np.asarray(chi, dtype=np.float64)
    out = np.zeros(chi.shape + (4, 4), dtype=np.complex128)
    i = np.arange(4)
    out[..., i, i] = np.cos(chi)[..., None]
    out[..., i, 3 - i] = -1j * np.sin(chi)[..., None]
    return out


def r_matrix(theta: float, phi: float) -> np.ndarray:
    """R(theta, phi) of one rotation; see :func:`r_matrices`."""
    return r_matrices([theta], [phi])[0]


def xx_matrix(chi: float) -> np.ndarray:
    """XX(chi) of one coupling; see :func:`xx_matrices`."""
    return xx_matrices([chi])[0]


def _as_int(value, name: str) -> int:
    """``value`` as a Python int: anything ``operator.index`` accepts
    except a bool, so numpy integers pass and ``True`` or ``2.0`` raise."""
    if type(value) is int:  # the common case; skips the slower checks below
        return value
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _finite(value) -> bool:
    """``math.isfinite``, False where it raises (a string, None, 10**400)."""
    try:
        return math.isfinite(value)
    except (OverflowError, TypeError):
        return False


@dataclass(frozen=True)
class RotationGate:
    """R(theta, phi) on a single qubit."""

    qubit: int
    theta: float
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "qubit", _as_int(self.qubit, "qubit"))
        try:  # not _finite twice: this runs for every rotation built
            finite = math.isfinite(self.theta) and math.isfinite(self.phi)
        except (OverflowError, TypeError):
            finite = False
        if not finite:
            raise ValueError(f"{'phi' if _finite(self.theta) else 'theta'} must be a finite number")
        if self.qubit < 0:
            raise ValueError(f"qubit index must be nonnegative, got {self.qubit}")

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.qubit,)

    def matrix(self) -> np.ndarray:
        return r_matrix(self.theta, self.phi)


@dataclass(frozen=True)
class XXGate:
    """XX(chi) on the ordered qubit pair (qa, qb)."""

    qa: int
    qb: int
    chi: float

    def __post_init__(self):
        object.__setattr__(self, "qa", _as_int(self.qa, "qa"))
        object.__setattr__(self, "qb", _as_int(self.qb, "qb"))
        if not _finite(self.chi):
            raise ValueError("chi must be a finite number")
        if self.qa < 0 or self.qb < 0:
            raise ValueError("qubit indices must be nonnegative")
        if self.qa == self.qb:
            raise ValueError(f"XX qubits must differ, got ({self.qa}, {self.qb})")

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.qa, self.qb)

    def matrix(self) -> np.ndarray:
        return xx_matrix(self.chi)


Gate = RotationGate | XXGate


@dataclass(frozen=True)
class Circuit:
    """Gate list over a fixed register; gates[0] is applied first."""

    n_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "n_qubits", _as_int(self.n_qubits, "n_qubits"))
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(
                f"n_qubits must be in 1..{MAX_QUBITS}, got {self.n_qubits}"
            )
        gates = tuple(self.gates)
        for g in gates:
            for q in g.qubits:
                if q >= self.n_qubits:
                    raise ValueError(
                        f"gate {g} touches qubit {q} outside register of "
                        f"{self.n_qubits}"
                    )
        object.__setattr__(self, "gates", gates)

    def __len__(self) -> int:
        return len(self.gates)


def xx_count(circuit: Circuit) -> int:
    """Number of two-qubit gates, the dominant cost on hardware."""
    return sum(1 for g in circuit.gates if isinstance(g, XXGate))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two square matrices, ``a`` on the left factor.

    Built by broadcasting: ``np.kron`` costs far more than the product on
    matrices this small.
    """
    da, db = len(a), len(b)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(da * db, da * db)


def fuse_blocks(ops, d: int) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """Fuse ``(sites, matrix)`` ops, applied in order, into fewer blocks.

    Each op acts on one or two distinct sites of local dimension ``d``
    with a ``d**k x d**k`` matrix whose index reads the sites in the
    given order, first site leftmost. The returned ``(sites, matrix)``
    blocks, applied in order, compose to exactly the same map for any
    matrices, because an op only ever moves past ops on other sites:

    - a 1-site op multiplies into the last coupling block on its site;
    - 1-site ops on a site with no coupling yet multiply together, and
      the first coupling on that site absorbs them;
    - a coupling merges into the last block when that block is the last
      on both of its sites (swapped if the pair is reversed), and
      otherwise starts a new block.

    Sites that never meet a coupling end with one 1-site block each.
    """
    blocks: list[list] = []  # [sites, matrix] of each coupling block
    last: dict[int, list] = {}  # site -> its latest coupling block
    pending: dict[int, np.ndarray] = {}  # site -> its 1-site ops before any coupling
    for sites, u in ops:
        if len(sites) == 1:
            q = sites[0]
            block = last.get(q)
            if block is None:
                p = pending.get(q)
                pending[q] = u if p is None else u.dot(p)
                continue
            m = block[1]
            if block[0][0] == q:  # kron(u, 1) @ m
                block[1] = u.dot(m.reshape(d, -1)).reshape(m.shape)
            else:  # kron(1, u) @ m
                block[1] = (u @ m.reshape(d, d, -1)).reshape(m.shape)
            continue
        a, b = sites
        block = last.get(a)
        if block is not None and block is last.get(b):
            if block[0] != sites:
                u = u.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)
            block[1] = u.dot(block[1])
            continue
        pa, pb = pending.pop(a, None), pending.pop(b, None)
        if pa is not None or pb is not None:
            eye = np.eye(d)
            u = u.dot(_kron(eye if pa is None else pa, eye if pb is None else pb))
        block = [sites, u]
        blocks.append(block)
        last[a] = last[b] = block
    return [(s, m) for s, m in blocks] + [((q,), p) for q, p in pending.items()]


def gate_matrices(circuit: Circuit) -> tuple[np.ndarray, np.ndarray]:
    """Matrices of every gate, built in one step per gate kind.

    Returns the stack of the rotations' matrices, shape ``(m, 2, 2)``,
    and of the couplings', shape ``(m', 4, 4)``, each in circuit order.
    """
    theta, phi, chi = [], [], []
    for g in circuit.gates:
        if isinstance(g, RotationGate):
            theta.append(g.theta)
            phi.append(g.phi)
        else:
            chi.append(g.chi)
    return r_matrices(theta, phi), xx_matrices(chi)


def gate_ops(circuit: Circuit, rotations, couplings) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """``(qubits, matrix)`` of every gate in circuit order, ready for
    :func:`fuse_blocks`.

    The i-th rotation takes ``rotations[i]`` and the i-th coupling
    ``couplings[i]``: the stacks of :func:`gate_matrices`, or stacks
    derived from them gate by gate.
    """
    rotations, couplings = iter(rotations), iter(couplings)
    return [
        (g.qubits, next(rotations) if isinstance(g, RotationGate) else next(couplings))
        for g in circuit.gates
    ]


def plan(ops, d: int, head: int = 0, repeats: int = 1) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """Fused blocks of ``ops[:head]`` then ``repeats`` runs of ``ops[head:]``, each run
    fused once and its blocks copied; one more pass merges across the seams."""
    if repeats == 1:
        return fuse_blocks(ops, d)
    return fuse_blocks(ops[:head] + fuse_blocks(ops[head:], d) * repeats, d)


def run_plan(blocks, n: int, amps: np.ndarray) -> np.ndarray:
    """Apply the blocks of a ``d`` = 2 :func:`plan` to every row of ``amps``."""
    for qubits, u in blocks:
        amps = apply_gate(amps, n, qubits, u)
    return amps


def evolve(circuit: Circuit, amps: np.ndarray) -> np.ndarray:
    """Apply the circuit to every row of ``amps``, shape ``(batch, 2**n)``.

    The gate matrices come from :func:`gate_matrices`; the gates are
    fused by :func:`plan`, then applied by :func:`run_plan`.
    """
    n = circuit.n_qubits
    amps = np.asarray(amps, dtype=np.complex128)
    if amps.ndim != 2 or amps.shape[1] != 2**n:
        raise ValueError(f"expected amplitudes of shape (batch, {2**n}), got {amps.shape}")
    return run_plan(plan(gate_ops(circuit, *gate_matrices(circuit)), 2), n, amps)


def run(circuit: Circuit, initial: StateVector | None = None) -> StateVector:
    """Apply the circuit to ``initial`` (default: all zeros)."""
    state = init_basis(circuit.n_qubits) if initial is None else initial
    if state.n_qubits != circuit.n_qubits:
        raise ValueError(
            f"state has {state.n_qubits} qubits, circuit expects {circuit.n_qubits}"
        )
    return StateVector(state.n_qubits, evolve(circuit, state.amps[None])[0])


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Full 2**n x 2**n unitary of the circuit.

    Built one ``run`` per column on purpose; ROADMAP item 2 records why
    it is not yet one batched :func:`evolve`.
    """
    dim = 2**circuit.n_qubits
    cols = []
    for k in range(dim):
        out = run(circuit, init_basis(circuit.n_qubits, k))
        cols.append(out.amps)
    return np.stack(cols, axis=1)


def concat(*circuits: Circuit) -> Circuit:
    """Concatenate circuits onto a register wide enough for all of them."""
    if not circuits:
        raise ValueError("need at least one circuit")
    for c in circuits:
        if not isinstance(c, Circuit):
            raise TypeError(f"expected a Circuit, got {type(c).__name__}")
    # Every part was validated when it was built, and each gate fits the
    # widest part, so the per-gate check of Circuit(...) is skipped.
    out = object.__new__(Circuit)
    object.__setattr__(out, "n_qubits", max(c.n_qubits for c in circuits))
    object.__setattr__(out, "gates", tuple(g for c in circuits for g in c.gates))
    return out


def inverse(circuit: Circuit) -> Circuit:
    """Exact inverse: reversed gate order with negated angles."""
    inv: list[Gate] = []
    for g in reversed(circuit.gates):
        if isinstance(g, RotationGate):
            inv.append(RotationGate(g.qubit, -g.theta, g.phi))
        else:
            inv.append(XXGate(g.qa, g.qb, -g.chi))
    return Circuit(circuit.n_qubits, tuple(inv))


def circuit_to_json(circuit: Circuit) -> str:
    """Serialize to the on-disk circuit format."""
    gates = []
    for g in circuit.gates:
        if isinstance(g, RotationGate):
            gates.append({"kind": "R", "q": g.qubit, "theta": g.theta, "phi": g.phi})
        else:
            gates.append({"kind": "XX", "qa": g.qa, "qb": g.qb, "chi": g.chi})
    return json.dumps(
        {"n_qubits": circuit.n_qubits, "gates": gates},
        indent=2,
        sort_keys=True,
    )


def _json_field(entry: dict, key: str, where: str, kinds: tuple[type, ...]):
    """``entry[key]``, required to be present and one of ``kinds``, never a bool."""
    if key not in entry:
        raise ValueError(f"malformed circuit JSON: {where} has no {key!r}")
    value = entry[key]
    if isinstance(value, bool) or not isinstance(value, kinds):
        what = "an integer" if kinds == (int,) else "a number"
        raise ValueError(f"malformed circuit JSON: {where} {key} must be {what}, got {value!r}")
    if float in kinds:
        try:
            float(value)
        except OverflowError:
            raise ValueError(
                f"malformed circuit JSON: {where} {key} is an integer too large for a float"
            ) from None
    return value


def circuit_from_json(text: str) -> Circuit:
    """Parse a circuit serialized by :func:`circuit_to_json`.

    Malformed input raises ValueError naming the bad field.
    """
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError(f"malformed circuit JSON: expected an object, got {data!r}")
    n = _json_field(data, "n_qubits", "circuit", (int,))
    raw = data.get("gates")
    if not isinstance(raw, list):
        raise ValueError(f"malformed circuit JSON: gates must be a list, got {raw!r}")
    gates: list[Gate] = []
    for i, entry in enumerate(raw):
        where = f"gates[{i}]"
        if not isinstance(entry, dict):
            raise ValueError(f"malformed circuit JSON: {where} must be an object, got {entry!r}")
        kind = entry.get("kind")
        if kind == "R":
            q = _json_field(entry, "q", where, (int,))
            theta, phi = (_json_field(entry, k, where, (int, float)) for k in ("theta", "phi"))
            gates.append(RotationGate(q, theta, phi))
        elif kind == "XX":
            qa, qb = (_json_field(entry, k, where, (int,)) for k in ("qa", "qb"))
            gates.append(XXGate(qa, qb, _json_field(entry, "chi", where, (int, float))))
        else:
            raise ValueError(f"unknown gate kind: {kind!r}")
    return Circuit(n, tuple(gates))
