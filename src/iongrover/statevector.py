"""Dense state-vector simulation for small qubit registers.

Qubit 0 is the leftmost bit of a basis label, so the basis state
``|q0 q1 ... q_{n-1}>`` lives at integer index ``int(label, 2)``.
Registers are capped at MAX_QUBITS because everything here is dense.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 6

# Elementwise tolerance for "is this matrix unitary" checks.
UNITARY_ATOL = 1e-9


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state of ``n_qubits`` qubits.

    ``amps`` has length ``2**n_qubits`` and is stored read-only; all
    operations return new instances.
    """

    n_qubits: int
    amps: np.ndarray

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(
                f"n_qubits must be in 1..{MAX_QUBITS}, got {self.n_qubits}"
            )
        amps = np.asarray(self.amps, dtype=np.complex128)
        if amps.shape != (2**self.n_qubits,):
            raise ValueError(
                f"expected {2**self.n_qubits} amplitudes, got shape {amps.shape}"
            )
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def bits_to_index(label: str) -> int:
    """Index of the basis state named by a bit string, qubit 0 leftmost."""
    if not label or any(c not in "01" for c in label):
        raise ValueError(f"not a bit string: {label!r}")
    return int(label, 2)


def all_labels(n_qubits: int) -> list[str]:
    """All basis labels of ``n_qubits`` bits in index order."""
    return [format(k, f"0{n_qubits}b") for k in range(2**n_qubits)]


def init_basis(n_qubits: int, label: str | int = 0) -> StateVector:
    """Computational basis state ``|label>``.

    ``label`` may be a bit string ("011") or an integer index.
    """
    index = bits_to_index(label) if isinstance(label, str) else int(label)
    amps = np.zeros(2**n_qubits, dtype=np.complex128)
    if not 0 <= index < amps.size:
        raise ValueError(f"label {label!r} out of range for {n_qubits} qubits")
    amps[index] = 1.0
    return StateVector(n_qubits, amps)


def basis_inputs(n_qubits: int, io_qubits: tuple[int, ...]) -> list[int]:
    """Basis indices of every classical input on ``io_qubits``.

    Entry x carries the k-bit input x, its leftmost bit on
    ``io_qubits[0]``, with every other qubit in 0.
    """
    k = len(io_qubits)
    if not k or len(set(io_qubits)) != k:
        raise ValueError(f"bad io_qubits {io_qubits}")
    for q in io_qubits:
        if not 0 <= q < n_qubits:
            raise ValueError(f"qubit {q} out of range for {n_qubits} qubits")
    return [
        sum(1 << (n_qubits - 1 - q) for pos, q in enumerate(io_qubits) if x >> (k - 1 - pos) & 1)
        for x in range(2**k)
    ]


def _check_unitary(u: np.ndarray, dim: int) -> np.ndarray:
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix, got shape {u.shape}")
    if np.max(np.abs(u.conj().T @ u - np.eye(dim))) > UNITARY_ATOL:
        raise ValueError("matrix is not unitary")
    return u


def _check_qubit(state: StateVector, q: int):
    if not 0 <= q < state.n_qubits:
        raise ValueError(f"qubit {q} out of range for {state.n_qubits} qubits")


def apply_gate(amps: np.ndarray, n: int, qubits: tuple[int, ...], u: np.ndarray) -> np.ndarray:
    """Apply the 2**k x 2**k matrix ``u`` to ``qubits`` of every row of ``amps``.

    The one place where a gate acts on amplitudes. ``amps`` has shape
    ``(batch, 2**n)``; row/column index of ``u`` is the bits on
    ``qubits`` read in the given order, first qubit leftmost. Nothing is
    validated here: the public wrappers below and the circuit types check
    their inputs.
    """
    k = len(qubits)
    psi = amps.reshape([-1] + [2] * n)
    axes = [q + 1 for q in qubits]
    psi = np.tensordot(u.reshape([2] * (2 * k)), psi, axes=(list(range(k, 2 * k)), axes))
    psi = np.moveaxis(psi, list(range(k)), axes)
    return psi.reshape(amps.shape[0], -1)


def apply_one_qubit(state: StateVector, q: int, u: np.ndarray) -> StateVector:
    """Apply a 2x2 unitary to qubit ``q``."""
    u = _check_unitary(u, 2)
    _check_qubit(state, q)
    n = state.n_qubits
    return StateVector(n, apply_gate(state.amps[None], n, (q,), u)[0])


def apply_two_qubit(state: StateVector, qa: int, qb: int, u: np.ndarray) -> StateVector:
    """Apply a 4x4 unitary to the ordered qubit pair ``(qa, qb)``.

    Row/column index of ``u`` is ``2*a + b`` where ``a`` is the bit on
    ``qa`` and ``b`` the bit on ``qb``.
    """
    u = _check_unitary(u, 4)
    _check_qubit(state, qa)
    _check_qubit(state, qb)
    if qa == qb:
        raise ValueError(f"qubit pair must be distinct, got ({qa}, {qb})")
    n = state.n_qubits
    return StateVector(n, apply_gate(state.amps[None], n, (qa, qb), u)[0])


def probabilities(state: StateVector) -> np.ndarray:
    """Measurement distribution over basis states, in index order."""
    return np.abs(state.amps) ** 2


def marginals(probs: np.ndarray, n_qubits: int, keep: tuple[int, ...]) -> np.ndarray:
    """Marginal distribution over ``keep`` (in the given order) of every row.

    ``probs`` has shape ``(batch, 2**n_qubits)``; the remaining qubits are
    summed out of the whole batch in one reshape and sum. Returns shape
    ``(batch, 2**len(keep))``.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[1] != 2**n_qubits:
        raise ValueError(f"expected probabilities of shape (batch, {2**n_qubits})")
    if len(set(keep)) != len(keep):
        raise ValueError(f"duplicate qubits in keep={keep}")
    for q in keep:
        if not 0 <= q < n_qubits:
            raise ValueError(f"qubit {q} out of range for {n_qubits} qubits")
    drop = tuple(q + 1 for q in range(n_qubits) if q not in keep)
    grid = probs.reshape([-1] + [2] * n_qubits)
    if drop:
        grid = grid.sum(axis=drop)
    # Axes of grid after the batch axis now correspond to the kept qubits
    # in ascending order; reorder them to match the requested ordering.
    kept_sorted = sorted(keep)
    perm = [0] + [kept_sorted.index(q) + 1 for q in keep]
    return np.transpose(grid, axes=perm).reshape(len(probs), -1)


def marginal(probs: np.ndarray, n_qubits: int, keep: tuple[int, ...]) -> np.ndarray:
    """Marginal distribution over ``keep`` (in the given order) of one
    length ``2**n_qubits`` distribution: :func:`marginals` of one row."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.shape != (2**n_qubits,):
        raise ValueError(f"expected {2**n_qubits} probabilities")
    return marginals(probs[None], n_qubits, keep)[0]


def sample_counts(distribution: np.ndarray, shots: int, seed) -> np.ndarray:
    """Sample measurement counts for ``shots`` draws from ``distribution``.

    The distribution is renormalized and rounded to a grid of 2**-40
    first, so entries that are equal up to rounding are drawn as exactly
    equal: numpy's multinomial divides by running remainders, and a 1-ulp
    change in a probability could otherwise change the counts. ``seed``
    is anything ``np.random.default_rng`` accepts (an integer, or a tuple
    of them for a separate stream), and fixes the counts. Returns integer
    counts per entry, summing to ``shots``.
    """
    if shots < 0:
        raise ValueError(f"shots must be nonnegative, got {shots}")
    p = np.asarray(distribution, dtype=np.float64)
    q = np.rint(p / p.sum() * 2**40)
    return np.random.default_rng(seed).multinomial(shots, q / q.sum())


def sample(state: StateVector, shots: int, seed: int) -> np.ndarray:
    """Sample measurement counts of ``state`` for ``shots`` repetitions.

    Deterministic for a fixed seed. Returns integer counts per basis
    state, summing to ``shots``.
    """
    return sample_counts(probabilities(state), shots, seed)
