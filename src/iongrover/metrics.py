"""Figures of merit for measured distributions and gate truth tables."""

from __future__ import annotations

import numpy as np

from .gates import Circuit
from .grover import theoretical_asp
from .noise import NoiseModel, distributions
from .statevector import basis_inputs, bits_to_index


def _infer_n(distribution: np.ndarray) -> int:
    size = len(distribution)
    n = size.bit_length() - 1
    if 2**n != size:
        raise ValueError(f"distribution length {size} is not a power of two")
    return n


def asp(distribution: np.ndarray, marked: tuple[str, ...]) -> float:
    """Algorithm success probability: total weight on the marked labels."""
    distribution = np.asarray(distribution, dtype=np.float64)
    n = _infer_n(distribution)
    total = 0.0
    for label in marked:
        if len(label) != n:
            raise ValueError(f"label {label!r} does not fit {n} qubits")
        total += float(distribution[bits_to_index(label)])
    return total


def sso(expected: np.ndarray, measured: np.ndarray) -> float:
    """Squared statistical overlap of two distributions.

    1.0 for identical distributions, 0.0 for disjoint support.
    """
    e = np.asarray(expected, dtype=np.float64)
    m = np.asarray(measured, dtype=np.float64)
    if e.shape != m.shape:
        raise ValueError(f"shape mismatch: {e.shape} vs {m.shape}")
    if np.any(e < -1e-12) or np.any(m < -1e-12):
        raise ValueError("distributions must be nonnegative")
    return float(np.sum(np.sqrt(np.clip(e, 0, None) * np.clip(m, 0, None))) ** 2)


def expected_grover_distribution(
    n_qubits: int, marked: tuple[str, ...], iterations: int = 1
) -> np.ndarray:
    """Ideal outcome distribution for a marked set after ``iterations`` rounds."""
    size = 2**n_qubits
    t = len(marked)
    marked_idx = sorted(bits_to_index(label) for label in marked)
    if len(set(marked_idx)) != t or not 1 <= t <= size:
        raise ValueError(f"bad marked set {marked}")
    total = theoretical_asp(size, t, iterations)
    dist = np.empty(size, dtype=np.float64)
    dist.fill((1.0 - total) / (size - t) if size > t else 0.0)
    for k in marked_idx:
        dist[k] = total / t
    return dist


def truth_table(
    circuit: Circuit, io_qubits: tuple[int, ...], noise: NoiseModel | None = None
) -> np.ndarray:
    """Classical input/output behavior of a circuit, exact or under ``noise``.

    Row k gives the outcome distribution over ``io_qubits`` when they
    are prepared in basis state k and every other wire starts (and is
    discarded) in |0>. All inputs run as one batch through
    :func:`iongrover.noise.distributions`.
    """
    return distributions(circuit, noise, basis_inputs(circuit.n_qubits, io_qubits), io_qubits)


def truth_table_fidelity(table: np.ndarray, ideal: np.ndarray) -> float:
    """Mean probability of the ideal output over all inputs.

    ``ideal`` maps input index to expected output index.
    """
    table = np.asarray(table, dtype=np.float64)
    ideal = np.asarray(ideal, dtype=np.int64)
    size = table.shape[0]
    if table.shape != (size, size) or ideal.shape != (size,):
        raise ValueError(
            f"incompatible shapes: table {table.shape}, ideal {ideal.shape}"
        )
    if sorted(ideal.tolist()) != list(range(size)):
        raise ValueError("ideal must be a permutation of the outputs")
    return float(np.mean(table[np.arange(size), ideal]))


def permutation_of(unitary: np.ndarray) -> np.ndarray:
    """Permutation realized by a unitary that maps basis states to
    basis states up to phase; errors if it does not."""
    u = np.asarray(unitary)
    perm = np.argmax(np.abs(u), axis=0)
    if not np.allclose(np.abs(u[perm, np.arange(u.shape[1])]), 1.0, atol=1e-9):
        raise ValueError("unitary is not a permutation of basis states")
    return perm
