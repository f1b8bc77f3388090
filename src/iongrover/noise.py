"""Stochastic Pauli gate noise and state-preparation/measurement errors.

Gate noise: after each coupling (and optionally each rotation) a
uniformly random non-identity Pauli hits the gate's qubits with a fixed
probability p. Averaged over the random choice this is exactly the
depolarizing channel rho -> (1 - lam) rho + lam Tr_Q(rho) x I/2^k on the
k gate qubits Q, with lam = 4^k p / (4^k - 1) (Nielsen & Chuang 8.3).
:func:`channel_distributions` evolves density matrices through that
channel and so gives exact noisy distributions. :func:`distributions`
is the one routine behind the three figures (``metrics.truth_table``,
``grover.run_grover``, ``tomography.limited_tomography``, each taking
the noise): it runs a batch of basis inputs as pure states when the
noise is None or zero and through the channel otherwise, then
marginalizes the whole batch; ``run_grover`` calls it through
:func:`iterated_distributions`, which builds one round only.
:func:`run_noisy` is the Monte Carlo sampler of the same model, kept as
an independent statistical check: it evolves all trajectories together
as the rows of one ``(trajectories, 2**n)`` array, applies each sampled
Pauli to the rows it hit, and is deterministic for a fixed seed. Both
engines apply gates through :func:`iongrover.statevector.apply_gate`.

The channel treats each density matrix as one row of ``4**n`` entries,
qubit q's row and column bits forming one 4-level site. Each gate
becomes its superoperator on its sites, kron(U, conj U) followed by the
depolarizer (1 - lam) 1 + (lam / 2^k) |I>><<I|. The superoperators are
built as one stack per gate kind, from the stacked gate matrices of
:func:`iongrover.gates.gate_matrices`, and :func:`iongrover.gates.plan`
fuses them into one block per coupling, as for pure states, with a
repeated round fused once. Superoperators compose as linear maps, so the
fusion is exact at any noise rate.

Readout errors are per-qubit asymmetric bit flips, optionally with
crosstalk: a dark qubit's chance of reading bright grows with each
bright nearest neighbor in the line. The resulting confusion matrix is
column stochastic by construction and can be inverted to undo SPAM on
an observed distribution.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass

import numpy as np

from .gates import Circuit, RotationGate, gate_matrices, gate_ops, plan, run_plan
from .statevector import StateVector, apply_gate, init_basis, marginals

_I = np.eye(2, dtype=np.complex128)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_PAULIS = (_I, _X, _Y, _Z)

# Fitted coupling error rate: reproduces the observed truth-table
# fidelity of the five-coupling doubly-controlled NOT (about 0.896).
FITTED_P_XX = 0.0272


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing-style Pauli noise rates per gate application."""

    p_xx: float = 0.0
    p_r: float = 0.0

    def __post_init__(self):
        for name, p in (("p_xx", self.p_xx), ("p_r", self.p_r)):
            if not 0.0 <= p < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {p}")

    @property
    def trivial(self) -> bool:
        return self.p_xx == 0.0 and self.p_r == 0.0


@dataclass(frozen=True)
class SpamModel:
    """Readout confusion parameters.

    eps0 is P(read 1 | true 0), eps1 is P(read 0 | true 1), and
    crosstalk adds bright leakage onto dark qubits per bright nearest
    neighbor in the line.
    """

    eps0: float = 0.0
    eps1: float = 0.0
    crosstalk: float = 0.0

    def __post_init__(self):
        for name, p in (
            ("eps0", self.eps0),
            ("eps1", self.eps1),
            ("crosstalk", self.crosstalk),
        ):
            if not 0.0 <= p < 0.5:
                raise ValueError(f"{name} must be in [0, 0.5), got {p}")

    @property
    def trivial(self) -> bool:
        return self.eps0 == 0.0 and self.eps1 == 0.0 and self.crosstalk == 0.0


@dataclass(frozen=True)
class NoiseConfig:
    """Bundle of gate noise, SPAM, and sampling controls, as read from disk.

    ``trajectories`` is read and validated for configs written for
    :func:`run_noisy`; the package's own noisy figures are exact and
    nothing in it reads the value.
    """

    noise: NoiseModel
    spam: SpamModel
    trajectories: int = 2000
    seed: int = 0


_CONFIG_KEYS = {"p_xx", "p_r", "eps0", "eps1", "crosstalk", "trajectories", "seed"}


def _number(data: dict, name: str) -> float:
    value = data.get(name, 0.0)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(
            f"{name} must be a number, got an integer too large for a float"
        ) from None


def _count(data: dict, name: str, default: int, least: int, what: str) -> int:
    value = data.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{name} must be a {what} integer, got {value!r}")
    return value


def load_noise_config(path: str) -> NoiseConfig:
    """Read a JSON noise configuration; unknown keys and ill-typed values
    are rejected."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"noise config must be a JSON object, got {type(data)}")
    extra = set(data) - _CONFIG_KEYS
    if extra:
        raise ValueError(f"unknown noise config keys: {sorted(extra)}")
    return NoiseConfig(
        noise=NoiseModel(_number(data, "p_xx"), _number(data, "p_r")),
        spam=SpamModel(
            _number(data, "eps0"), _number(data, "eps1"), _number(data, "crosstalk")
        ),
        trajectories=_count(data, "trajectories", 2000, 1, "positive"),
        seed=_count(data, "seed", 0, 0, "non-negative"),
    )


def run_noisy(
    circuit: Circuit,
    noise: NoiseModel,
    trajectories: int,
    seed: int,
    initial: StateVector | None = None,
) -> np.ndarray:
    """Average measurement distribution over stochastic-Pauli trajectories.

    Every trajectory starts from ``initial`` (default all zeros).
    After each coupling, with probability p_xx, one of the 15
    non-identity two-qubit Paulis is applied to its pair; rotations get
    the analogous single-qubit treatment with p_r.
    """
    if trajectories < 1:
        raise ValueError(f"trajectories must be >= 1, got {trajectories}")
    n = circuit.n_qubits
    state = init_basis(n) if initial is None else initial
    if state.n_qubits != n:
        raise ValueError(f"initial state has {state.n_qubits} qubits, want {n}")
    rng = np.random.default_rng(seed)
    amps = np.broadcast_to(state.amps, (trajectories, 2**n)).copy()

    def inject(qubits: tuple[int, ...], p: float):
        n_paulis = 4 ** len(qubits) - 1
        hit = rng.random(trajectories) < p
        pick = rng.integers(1, n_paulis + 1, size=trajectories)
        choice = np.where(hit, pick, 0)
        for k in np.unique(choice):
            if k == 0:
                continue
            mask = choice == k
            digits = [(k // 4**j) % 4 for j in reversed(range(len(qubits)))]
            op = _PAULIS[digits[0]]
            for d in digits[1:]:
                op = np.kron(op, _PAULIS[d])
            amps[mask] = apply_gate(amps[mask], n, qubits, op)

    for g in circuit.gates:
        amps = apply_gate(amps, n, g.qubits, g.matrix())
        p = noise.p_r if isinstance(g, RotationGate) else noise.p_xx
        if p > 0.0:
            inject(g.qubits, p)
    return np.mean(np.abs(amps) ** 2, axis=0)


# Broadcast indices that interleave the row and column factors of
# kron(U, conj U) site by site, after the leading stack axis: row qubit q
# of a k-qubit gate sits next to its column qubit, so each site is one
# base-4 digit (2*row + col).
_SITE_MAJOR = {
    1: (np.s_[:, :, None, :, None], np.s_[:, None, :, None, :]),
    2: (
        np.s_[:, :, None, :, None, :, None, :, None],
        np.s_[:, None, :, None, :, None, :, None, :],
    ),
}
# |I>> of one site, site-major: the entries with row bit = column bit.
_VEC_I = np.array([1.0, 0.0, 0.0, 1.0])


def _superoperators(us: np.ndarray, lam: float) -> np.ndarray:
    """Site-major superoperators of a stack of k-qubit gates ``us``, shape
    ``(m, 2**k, 2**k)``: rho -> u rho u^dagger, followed by the
    depolarizer of rate ``lam`` when it is positive.

    One broadcast builds kron(u, conj u) for the whole stack, and one
    batched matrix product applies the depolarizer.
    """
    m, dim = us.shape[:2]
    k = dim.bit_length() - 1
    rows, cols = _SITE_MAJOR[k]
    t = (m,) + (2,) * (2 * k)
    s = (us.reshape(t)[rows] * us.conj().reshape(t)[cols]).reshape(m, 4**k, 4**k)
    return _depolarizer(k, lam) @ s if lam > 0.0 else s


def _depolarizer(k: int, lam: float) -> np.ndarray:
    """Site-major superoperator of rho -> (1 - lam) rho + lam Tr_Q(rho) x I/2^k
    on k qubits Q: (1 - lam) 1 + (lam / 2^k) |I>><<I|."""
    vec_i = _VEC_I if k == 1 else np.outer(_VEC_I, _VEC_I).reshape(-1)
    return (1.0 - lam) * np.eye(4**k) + (lam / 2**k) * np.outer(vec_i, vec_i)


def _basis_indices(inputs, n: int) -> list[int]:
    """``inputs`` as a nonempty list of basis indices of ``n`` qubits."""
    inputs = [operator.index(i) for i in inputs]
    if not inputs:
        raise ValueError("need at least one input")
    for i in inputs:
        if not 0 <= i < 2**n:
            raise ValueError(f"input {i} out of range for {n} qubits")
    return inputs


def channel_distributions(circuit: Circuit, noise: NoiseModel, inputs) -> np.ndarray:
    """Exact outcome distributions under the gate noise, one row per input.

    ``inputs`` are basis-state indices. Each starts a density matrix,
    evolved as a 2n-qubit state: a gate U on qubits Q acts as U on Q and
    conj(U) on Q + n. After each coupling (rotation) with p_xx (p_r) > 0
    the depolarizing channel of the random-Pauli model acts on its
    qubits. The gates run as the superoperator blocks of a
    :func:`iongrover.gates.plan`, one :func:`iongrover.statevector.apply_gate`
    call per block. Returns an array of shape ``(len(inputs), 2**n)``; at
    zero noise each row equals the pure-state distribution.
    """
    return _channel(circuit, noise, _basis_indices(inputs, circuit.n_qubits))


def _channel(circuit: Circuit, noise: NoiseModel, inputs: list[int], head=0, repeats=1):
    """:func:`channel_distributions` of checked ``inputs``, planned for ``head``/``repeats``."""
    n = circuit.n_qubits
    dim = 2**n
    rho = np.zeros((len(inputs), dim * dim), dtype=np.complex128)
    rho[np.arange(len(inputs)), np.array(inputs) * (dim + 1)] = 1.0
    rotations, couplings = gate_matrices(circuit)
    ops = gate_ops(
        circuit,
        _superoperators(rotations, 4 * noise.p_r / 3),
        _superoperators(couplings, 16 * noise.p_xx / 15),
    )
    for sites, m in plan(ops, 4, head, repeats):
        rho = apply_gate(rho, 2 * n, tuple(x for q in sites for x in (q, q + n)), m)
    diag = rho.reshape(-1, dim, dim).diagonal(axis1=1, axis2=2).real
    return np.clip(diag, 0.0, None)


def distributions(circuit: Circuit, noise: NoiseModel | None, inputs, keep) -> np.ndarray:
    """Outcome distributions over the qubits ``keep``, one row per basis input.

    The one routine behind every figure: the basis inputs run as one
    batch, as pure states when ``noise`` is None or trivial and through
    :func:`channel_distributions` otherwise, and the whole batch is
    marginalized onto ``keep`` (in the given order) at once. Returns
    shape ``(len(inputs), 2**len(keep))``.
    """
    return iterated_distributions(circuit, 0, 1, noise, inputs, keep)


def iterated_distributions(circuit: Circuit, head: int, repeats: int, noise, inputs, keep):
    """:func:`distributions` of ``head`` gates then ``repeats`` copies of one round:
    only the head and the first round are built and planned (:func:`iongrover.gates.plan`)."""
    n = circuit.n_qubits
    inputs = _basis_indices(inputs, n)
    if repeats > 1:
        circuit = Circuit(n, circuit.gates[: head + (len(circuit) - head) // repeats])
    if noise is None or noise.trivial:
        blocks = plan(gate_ops(circuit, *gate_matrices(circuit)), 2, head, repeats)
        probs = np.abs(run_plan(blocks, n, np.eye(2**n, dtype=np.complex128)[inputs])) ** 2
    else:
        probs = _channel(circuit, noise, inputs, head, repeats)
    return marginals(probs, n, keep)


def confusion_matrix(spam: SpamModel, n_qubits: int) -> np.ndarray:
    """Column-stochastic map from true to observed basis distributions.

    Entry (i, j) is the product over qubits of the chance that qubit q of
    true label j reads as bit q of label i, built for all labels at once.
    """
    labels = np.arange(2**n_qubits)
    bits = (labels[:, None] >> (n_qubits - 1 - np.arange(n_qubits))) & 1  # [label, qubit]
    bright = np.zeros_like(bits)  # bright nearest neighbours in the line
    bright[:, 1:] += bits[:, :-1]
    bright[:, :-1] += bits[:, 1:]
    p_read1 = np.where(
        bits == 1,
        1.0 - spam.eps1,
        1.0 - (1.0 - spam.eps0) * (1.0 - spam.crosstalk) ** bright,
    )
    factors = np.where(bits[:, None, :] == 1, p_read1[None], 1.0 - p_read1[None])
    return factors.prod(axis=2)


def apply_spam(distribution: np.ndarray, spam: SpamModel) -> np.ndarray:
    """Push a true distribution through the readout confusion."""
    distribution = np.asarray(distribution, dtype=np.float64)
    n = len(distribution).bit_length() - 1
    if 2**n != len(distribution):
        raise ValueError(f"distribution length {len(distribution)} not a power of two")
    return confusion_matrix(spam, n) @ distribution


def correct_spam(measured: np.ndarray, spam: SpamModel) -> np.ndarray:
    """Invert the readout confusion; clips tiny negatives and renormalizes."""
    measured = np.asarray(measured, dtype=np.float64)
    n = len(measured).bit_length() - 1
    if 2**n != len(measured):
        raise ValueError(f"distribution length {len(measured)} not a power of two")
    est = np.linalg.solve(confusion_matrix(spam, n), measured)
    est = np.clip(est, 0.0, None)
    total = est.sum()
    if total <= 0.0:
        raise ValueError("corrected distribution has no weight")
    return est / total
