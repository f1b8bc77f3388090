"""Reference values computed without the iongrover package.

Everything here is derived from the paper's formulas and the documented
gate and noise models, written from scratch with numpy:

- Grover success after k iterations is sin^2((2k+1) theta) with
  sin theta = sqrt(t/N), spread evenly over the t marked labels;
- R(theta, phi) = exp(-i theta/2 (cos phi X + sin phi Y)) and
  XX(chi) = exp(-i chi X.X), embedded into the register as Kronecker
  products of single-qubit factors;
- a uniformly random non-identity k-qubit Pauli applied with probability
  p is the depolarizing channel rho -> (1 - lam) rho + lam Tr_q(rho) x I/2^k
  with lam = 4^k p / (4^k - 1), so the exact average of the trajectory
  sampler is a density-matrix evolution;
- readout flips each qubit independently: a bright (1) qubit reads 0
  with eps1, a dark (0) qubit reads 1 with 1 - (1 - eps0)(1 - crosstalk)^b
  where b counts its bright nearest neighbours in the line.

Gates are passed around as plain tuples, ("R", q, theta, phi) or
("XX", qa, qb, chi), so no package object reaches the arithmetic.
"""

from __future__ import annotations

import math

import numpy as np

_I2 = np.eye(2, dtype=np.complex128)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)

# Coupling counts per template, from the README's gate table.
README_XX = {"cnot": 1, "cz": 1, "toffoli3": 5, "ccz": 5, "toffoli4": 11}

# README: single-iteration couplings on 3 data qubits, keyed by
# (number marked, Hamming distance between the two marked labels).
README_GROVER_XX = {
    (1, 0): {"phase": 10, "boolean": 16},
    (2, 1): {"phase": 6, "boolean": 10},
    (2, 2): {"phase": 7, "boolean": 12},
    (2, 3): {"phase": 8, "boolean": 14},
}


def grover_success(n: int, t: int, iterations: int) -> float:
    """Total probability on the t marked labels after k ideal iterations."""
    theta = math.asin(math.sqrt(t / 2**n))
    return math.sin((2 * iterations + 1) * theta) ** 2


def grover_distribution(n: int, marked: tuple[str, ...], iterations: int) -> np.ndarray:
    size, t = 2**n, len(marked)
    hit = grover_success(n, t, iterations)
    dist = np.full(size, (1.0 - hit) / (size - t) if size > t else 0.0)
    for label in marked:
        dist[int(label, 2)] = hit / t
    return dist


def classical_success(size: int, t: int) -> float:
    """Two classical queries: one draw, then a second distinct draw on a miss."""
    if t == size:
        return 1.0
    return t / size + (size - t) / size * t / (size - 1)


def overlap(expected: np.ndarray, measured: np.ndarray) -> float:
    """Squared statistical overlap (sum_i sqrt(e_i m_i))^2."""
    e = np.clip(np.asarray(expected, dtype=np.float64), 0.0, None)
    m = np.clip(np.asarray(measured, dtype=np.float64), 0.0, None)
    return float(np.sum(np.sqrt(e * m)) ** 2)


def ncx_cost(n: int) -> tuple[int, int]:
    """README cost model of the n-qubit controlled NOT: (couplings, ancillas)."""
    return 6 * n - 13, math.ceil((n - 3) / 2)


def readout_matrix(n: int, eps0: float, eps1: float, crosstalk: float) -> np.ndarray:
    """M[r, j] = probability of reading label r when the true label is j."""
    size = 2**n
    m = np.ones((size, size))
    for j in range(size):
        true = [(j >> (n - 1 - i)) & 1 for i in range(n)]
        for i in range(n):
            if true[i]:
                p_one = 1.0 - eps1
            else:
                bright = sum(true[nb] for nb in (i - 1, i + 1) if 0 <= nb < n)
                p_one = 1.0 - (1.0 - eps0) * (1.0 - crosstalk) ** bright
            for r in range(size):
                m[r, j] *= p_one if (r >> (n - 1 - i)) & 1 else 1.0 - p_one
    return m


def basis_index(n: int, io_qubits: tuple[int, ...], value: int) -> int:
    """Register index with ``value`` written on io_qubits (first = MSB), rest 0."""
    k = len(io_qubits)
    index = 0
    for pos, q in enumerate(io_qubits):
        if (value >> (k - 1 - pos)) & 1:
            index |= 1 << (n - 1 - q)
    return index


def marginal(probs: np.ndarray, n: int, keep: tuple[int, ...]) -> np.ndarray:
    """Distribution over ``keep`` (first = MSB), summing out the other qubits."""
    out = np.zeros(2 ** len(keep))
    for index, p in enumerate(probs):
        sub = 0
        for q in keep:
            sub = (sub << 1) | ((index >> (n - 1 - q)) & 1)
        out[sub] += p
    return out


def _kron_factors(factors: dict[int, np.ndarray], n: int) -> np.ndarray:
    out = np.ones((1, 1), dtype=np.complex128)
    for q in range(n):
        out = np.kron(out, factors.get(q, _I2))
    return out


def gate_matrix(gate: tuple, n: int) -> np.ndarray:
    """Full 2^n x 2^n matrix of one native gate."""
    if gate[0] == "R":
        _, q, theta, phi = gate
        axis = math.cos(phi) * _X + math.sin(phi) * _Y
        return math.cos(theta / 2) * np.eye(2**n) - 1j * math.sin(theta / 2) * _kron_factors(
            {q: axis}, n
        )
    _, qa, qb, chi = gate
    return math.cos(chi) * np.eye(2**n) - 1j * math.sin(chi) * _kron_factors(
        {qa: _X, qb: _X}, n
    )


def unitary(gates: list[tuple], n: int) -> np.ndarray:
    """Product of the full gate matrices, first gate rightmost."""
    u = np.eye(2**n, dtype=np.complex128)
    for g in gates:
        u = gate_matrix(g, n) @ u
    return u


def _depolarize(rho: np.ndarray, n: int, qubits: tuple[int, ...]) -> np.ndarray:
    """Tr_q(rho) x I/2 applied for each q in turn, on a batch of matrices."""
    batch = rho.shape[0]
    for q in qubits:
        hi, lo = 2**q, 2 ** (n - q - 1)
        t = rho.reshape(batch, hi, 2, lo, hi, 2, lo)
        half_trace = (t[:, :, 0, :, :, 0, :] + t[:, :, 1, :, :, 1, :]) / 2
        out = np.zeros_like(t)
        out[:, :, 0, :, :, 0, :] = half_trace
        out[:, :, 1, :, :, 1, :] = half_trace
        rho = out.reshape(batch, 2**n, 2**n)
    return rho


def noisy_probabilities(
    gates: list[tuple], n: int, inputs: list[int], p_xx: float, p_r: float
) -> np.ndarray:
    """Exact outcome distributions, one row per basis input, under gate noise.

    After every rotation (coupling) the channel of a random non-identity
    1-qubit (2-qubit) Pauli with probability p_r (p_xx) acts on its qubits.
    """
    d = 2**n
    rho = np.zeros((len(inputs), d, d), dtype=np.complex128)
    rho[np.arange(len(inputs)), inputs, inputs] = 1.0
    lam_r, lam_xx = 4 * p_r / 3, 16 * p_xx / 15
    for g in gates:
        m = gate_matrix(g, n)
        rho = m @ rho @ m.conj().T
        qubits, lam = ((g[1],), lam_r) if g[0] == "R" else ((g[1], g[2]), lam_xx)
        if lam:
            rho = (1 - lam) * rho + lam * _depolarize(rho, n, qubits)
    return np.real(np.einsum("bii->bi", rho))


def sampling_tol(p, trajectories: int):
    """Allowed |estimate - p| for a mean of ``trajectories`` values in [0, 1].

    Each trajectory contributes a probability in [0, 1] with mean p, so
    its variance is at most p(1 - p). Six standard errors, with a floor
    for p near 0 or 1 where the count of hits is Poisson-like.
    """
    p = np.asarray(p, dtype=np.float64)
    var = np.maximum(p * (1 - p), 4.0 / trajectories)
    return 6 * np.sqrt(var / trajectories) + 4.0 / trajectories


def mean_tol(ps, trajectories: int) -> float:
    """Allowed error of a mean of independent per-input estimates."""
    ps = np.asarray(ps, dtype=np.float64)
    var = np.maximum(ps * (1 - ps), 4.0 / trajectories)
    return float(6 * np.sqrt(var.sum() / trajectories) / len(ps) + 4.0 / trajectories)


def count_tol(shots: int, p: float) -> float:
    """Allowed |count - shots p| for a multinomial draw."""
    return 6 * math.sqrt(shots * p * (1 - p)) + 1.0


# Ideal action of each template on its io qubits (qubit 0 = MSB); the
# last io qubit is the target.
def _swap_last_pair(k: int) -> np.ndarray:
    u = np.eye(2**k, dtype=np.complex128)
    u[[-2, -1]] = u[[-1, -2]]
    return u


def _flip_last_sign(k: int) -> np.ndarray:
    u = np.eye(2**k, dtype=np.complex128)
    u[-1, -1] = -1.0
    return u


TEMPLATE_IDEAL = {
    "cnot": _swap_last_pair(2),
    "cz": _flip_last_sign(2),
    "toffoli3": _swap_last_pair(3),
    "ccz": _flip_last_sign(3),
    "toffoli4": _swap_last_pair(4),
}


def template_permutation(name: str) -> np.ndarray:
    """perm[x] = output index of input x for the template's ideal gate."""
    return np.argmax(np.abs(TEMPLATE_IDEAL[name]), axis=0)


def template_unitary_error(name: str, u: np.ndarray, n: int) -> float:
    """Largest deviation of ``u`` from the ideal gate up to global phase.

    Only columns with every ancilla (qubits beyond the io qubits) in 0
    are compared; those must leave the ancillas in 0.
    """
    ideal = TEMPLATE_IDEAL[name]
    k = ideal.shape[0].bit_length() - 1
    shift = n - k
    cols = [x << shift for x in range(2**k)]
    expected = np.zeros((2**n, 2**k), dtype=np.complex128)
    expected[[y << shift for y in range(2**k)], :] = ideal
    got = u[:, cols]
    r, c = np.unravel_index(np.argmax(np.abs(expected)), expected.shape)
    phase = got[r, c] / expected[r, c]
    if abs(phase) < 1e-12:
        return float("inf")
    return float(np.max(np.abs(got - phase / abs(phase) * expected)))
