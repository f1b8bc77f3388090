"""Grover search over 1..3 qubits in native gates, for any number of rounds.

A run is initialization, then one or more rounds of oracle plus
amplification. Oracles come in two styles with identical data-register
statistics: "phase" flips the sign of marked basis states in place,
"boolean" flips an extra ancilla prepared in an X eigenstate so the
phase appears by kickback. The boolean style is what a classical
reversible marking function compiles to; the phase style is cheaper.

Oracle synthesis works on the indicator function of the marked set.
Expanding it over XOR ("parity form") turns each surviving monomial
into one Z / CZ / CCZ (phase style) or one NOT / CNOT / Toffoli onto
the ancilla (boolean style); a marked set of two labels alternatively
reduces, after CNOT changes of basis, to a single conjunction on all
but one qubit (the boolean "pair form"). Coupling counts do not depend
on the coupling signs, so each candidate is priced from its gate widths
first and only the one with the fewest couplings is built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .decompositions import (
    PI,
    SgnMap,
    _ry,
    _check_sgn_map,
    _sgn,
    ccz_template,
    cnot_template,
    cz_template,
    rz_template,
    toffoli3_template,
    toffoli4_template,
    toffoli_n_cost,
    x_template,
)
from .gates import Circuit, Gate, RotationGate, _as_int, concat, xx_count
from .noise import NoiseModel, iterated_distributions
from .statevector import all_labels

MAX_DATA_QUBITS = 3

STYLES = ("phase", "boolean")


@dataclass(frozen=True)
class OracleSpec:
    """Marked-set description: which labels the oracle should flag."""

    n_qubits: int
    marked: tuple[str, ...]
    style: str

    def __post_init__(self):
        object.__setattr__(self, "n_qubits", _as_int(self.n_qubits, "n_qubits"))
        if not 1 <= self.n_qubits <= MAX_DATA_QUBITS:
            raise ValueError(
                f"n_qubits must be in 1..{MAX_DATA_QUBITS}, got {self.n_qubits}"
            )
        if self.style not in STYLES:
            raise ValueError(f"style must be one of {STYLES}, got {self.style!r}")
        marked = tuple(self.marked)
        if not marked:
            raise ValueError("marked set must be nonempty")
        for label in marked:
            if len(label) != self.n_qubits or any(c not in "01" for c in label):
                raise ValueError(f"bad label {label!r} for {self.n_qubits} qubits")
        if len(set(marked)) != len(marked):
            raise ValueError(f"duplicate labels in {marked}")
        object.__setattr__(self, "marked", marked)


@dataclass(frozen=True)
class GroverConfig:
    oracle: OracleSpec
    iterations: int = 1

    def __post_init__(self):
        object.__setattr__(self, "iterations", _as_int(self.iterations, "iterations"))
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")


@dataclass(frozen=True)
class GroverResult:
    """Data-register outcome distribution plus circuit-level costs."""

    distribution: np.ndarray
    xx_count: int
    n_qubits_total: int
    circuit: Circuit


def _parity_monomials(n: int, marked: tuple[str, ...]) -> list[tuple[int, ...]]:
    """XOR expansion of the marked-set indicator.

    Returns the monomials with coefficient 1, each as a sorted tuple of
    qubit positions (the empty tuple is the constant term). Computed by
    the subset parity transform of the truth table.
    """
    size = 2**n
    f = [0] * size
    for label in marked:
        f[int(label, 2)] = 1
    for b in range(n):
        bit = 1 << b
        for mask in range(size):
            if mask & bit:
                f[mask] ^= f[mask ^ bit]
    monomials = []
    for mask in range(size):
        if f[mask]:
            qubits = tuple(i for i in range(n) if mask & (1 << (n - 1 - i)))
            monomials.append(qubits)
    monomials.sort(key=lambda qs: (len(qs), qs))
    return monomials


def _controlled_z_any(qubits: tuple[int, ...], sgn_map: SgnMap | None) -> Circuit:
    """Z controlled on every qubit in the tuple (1 to 3 of them)."""
    if len(qubits) == 1:
        return rz_template(qubits[0], PI)
    if len(qubits) == 2:
        return cz_template(qubits[0], qubits[1], _sgn(sgn_map, *qubits))
    if len(qubits) == 3:
        return ccz_template(*qubits, sgn_map)
    raise ValueError(f"no controlled-Z template for {len(qubits)} qubits")


def _controlled_not_any(
    controls: tuple[int, ...], target: int, borrow: int, sgn_map: SgnMap | None
) -> Circuit:
    """NOT on ``target`` controlled on 0 to 3 qubits."""
    if len(controls) == 0:
        return x_template(target)
    if len(controls) == 1:
        return cnot_template(controls[0], target, _sgn(sgn_map, controls[0], target))
    if len(controls) == 2:
        return toffoli3_template(controls[0], controls[1], target, sgn_map)
    if len(controls) == 3:
        return toffoli4_template(*controls, target, borrow, sgn_map)
    raise ValueError(f"no controlled-NOT template for {len(controls)} controls")


def _not_couplings(n_controls: int) -> int:
    """Couplings of the NOT that :func:`_controlled_not_any` builds on
    ``n_controls`` controls: 0, 1, then the n-qubit Toffoli's count."""
    return n_controls if n_controls < 2 else toffoli_n_cost(n_controls + 1).xx_count


def _conjugate_zeros(label: str, qubits: tuple[int, ...], inner: Circuit) -> Circuit:
    """X-conjugate ``inner`` on the qubits where ``label`` has a 0 bit."""
    flips = [x_template(q) for q in qubits if label[q] == "0"]
    if not flips:
        return inner
    return concat(*flips, inner, *flips)


def _per_label(n: int, marked: tuple[str, ...], mark) -> Circuit:
    """Per-label form: ``mark(qubits)``, the style's marking gate controlled
    on the data register, X-conjugated onto each marked label in turn."""
    qubits = tuple(range(n))
    return concat(*(_conjugate_zeros(label, qubits, mark(qubits)) for label in marked))


def _parity(width: int, monomials: list[tuple[int, ...]], mark) -> Circuit:
    """Parity form on ``width`` qubits: one ``mark`` per XOR monomial, or
    none where ``mark`` returns None (the phase style's constant term)."""
    parts = [c for c in map(mark, monomials) if c is not None]
    return concat(*parts) if parts else Circuit(width, ())


def _cheapest(*forms) -> Circuit:
    """Build the first of the ``(couplings, build)`` forms with the fewest
    couplings; the others are never built."""
    return min(forms, key=lambda form: form[0])[1]()


def phase_oracle(
    n_qubits: int, marked: tuple[str, ...], sgn_map: SgnMap | None = None
) -> Circuit:
    """Diagonal circuit with amplitude -1 on marked labels, up to global phase.

    Prices the per-label form (X-conjugated controlled-Z per marked
    state) and the parity form, then builds only the cheaper one.
    """
    spec = OracleSpec(n_qubits, tuple(marked), "phase")
    _check_sgn_map(sgn_map)
    n, marked = spec.n_qubits, spec.marked
    monomials = _parity_monomials(n, marked)

    def mark(qubits):
        return _controlled_z_any(qubits, sgn_map) if qubits else None

    # A Z controlled on s - 1 of its s qubits costs what a NOT on s - 1
    # controls does; the constant term builds nothing. Equally cheap
    # forms keep this order: min returns the first.
    parity = sum(_not_couplings(len(qubits) - 1) for qubits in monomials if qubits)
    winner = _cheapest(
        (len(marked) * _not_couplings(n - 1), lambda: _per_label(n, marked, mark)),
        (parity, lambda: _parity(n, monomials, mark)),
    )
    # Pad so the circuit always spans the whole data register, even
    # when the cheapest form touches only some qubits.
    return concat(Circuit(n, ()), winner)


def _boolean_pair(
    n: int, marked: tuple[str, ...], ancilla: int, sgn_map: SgnMap | None
) -> Circuit:
    # Two marked labels differing on D: CNOTs from a pivot in D make the
    # other D qubits agree, leaving one conjunction on the n-1 qubits
    # other than the pivot.
    b, c = marked
    diff = tuple(i for i in range(n) if b[i] != c[i])
    pivot = diff[0]
    basis_change = [
        cnot_template(pivot, i, _sgn(sgn_map, pivot, i)) for i in diff[1:]
    ]
    controls = tuple(i for i in range(n) if i != pivot)
    image = "".join(
        "1" if (b[i] == "1") != (i in diff[1:] and b[pivot] == "1") else "0"
        for i in range(n)
    )
    inner = _controlled_not_any(controls, ancilla, ancilla + 1, sgn_map)
    marked_block = _conjugate_zeros(image, controls, inner)
    return concat(*basis_change, marked_block, *reversed(basis_change))


def boolean_oracle(
    n_qubits: int, marked: tuple[str, ...], sgn_map: SgnMap | None = None
) -> Circuit:
    """Reversible marking circuit: NOT on the ancilla iff the data is marked.

    The ancilla is qubit ``n_qubits``; one more qubit beyond it may be
    borrowed (in |0>) by the widest controlled-NOT. Exact on every
    computational basis state, up to one global phase. Prices the
    per-label, pair (two marked labels only) and parity forms, then
    builds only the cheapest.
    """
    spec = OracleSpec(n_qubits, tuple(marked), "boolean")
    _check_sgn_map(sgn_map)
    n, marked = spec.n_qubits, spec.marked
    ancilla = n
    monomials = _parity_monomials(n, marked)

    def mark(qubits):
        return _controlled_not_any(qubits, ancilla, ancilla + 1, sgn_map)

    # Equally cheap forms keep this order: min returns the first.
    forms = [(len(marked) * _not_couplings(n), lambda: _per_label(n, marked, mark))]
    if len(marked) == 2:
        # d - 1 CNOTs on each side of a NOT controlled on n - 1 qubits.
        d = sum(x != y for x, y in zip(*marked))
        forms.append(
            (2 * (d - 1) + _not_couplings(n - 1), lambda: _boolean_pair(n, marked, ancilla, sgn_map))
        )
    parity = sum(_not_couplings(len(qubits)) for qubits in monomials)
    forms.append((parity, lambda: _parity(ancilla + 1, monomials, mark)))
    return concat(Circuit(ancilla + 1, ()), _cheapest(*forms))


def oracle_circuit(spec: OracleSpec, sgn_map: SgnMap | None = None) -> Circuit:
    if spec.style == "phase":
        return phase_oracle(spec.n_qubits, spec.marked, sgn_map)
    return boolean_oracle(spec.n_qubits, spec.marked, sgn_map)


def initialization_stage(n_qubits: int, style: str) -> Circuit:
    """Uniform superposition on the data register; boolean style also
    takes its ancilla to an X eigenstate so the mark kicks back as a phase."""
    if style not in STYLES:
        raise ValueError(f"style must be one of {STYLES}, got {style!r}")
    gates: list[Gate] = [_ry(q, PI / 2) for q in range(n_qubits)]
    n = n_qubits
    if style == "boolean":
        anc = n_qubits
        gates += [RotationGate(anc, PI, 0.0), _ry(anc, PI / 2)]
        n = n_qubits + 1
    return Circuit(n, tuple(gates))


def amplification_stage(n_qubits: int, sgn_map: SgnMap | None = None) -> Circuit:
    """Reflection about the uniform state, up to global phase."""
    if not 1 <= n_qubits <= MAX_DATA_QUBITS:
        raise ValueError(
            f"n_qubits must be in 1..{MAX_DATA_QUBITS}, got {n_qubits}"
        )
    _check_sgn_map(sgn_map)
    qs = tuple(range(n_qubits))
    pre = [_ry(q, -PI / 2) for q in qs]
    flips = [x_template(q) for q in qs]
    inner = _controlled_z_any(qs, sgn_map)
    post = [_ry(q, PI / 2) for q in qs]
    return concat(
        Circuit(n_qubits, tuple(pre)),
        *flips,
        inner,
        *flips,
        Circuit(n_qubits, tuple(post)),
    )


def grover_circuit(config: GroverConfig, sgn_map: SgnMap | None = None) -> Circuit:
    """Full run: initialization then ``iterations`` copies of one synthesized round."""
    _check_sgn_map(sgn_map)
    spec, k = config.oracle, config.iterations
    iteration = (
        [oracle_circuit(spec, sgn_map), amplification_stage(spec.n_qubits, sgn_map)] if k else []
    )
    return concat(initialization_stage(spec.n_qubits, spec.style), *iteration * k)


def run_grover(
    config: GroverConfig, sgn_map: SgnMap | None = None, noise: NoiseModel | None = None
) -> GroverResult:
    """Simulate from all zeros, exactly or under the gate ``noise``, and
    marginalize onto the data register. Only the initialization and the
    first round are built and fused (:func:`iongrover.noise.iterated_distributions`)."""
    spec, k = config.oracle, config.iterations
    circuit = grover_circuit(config, sgn_map)
    head = len(circuit) if k < 2 else len(initialization_stage(spec.n_qubits, spec.style))
    dist = iterated_distributions(circuit, head, k, noise, [0], tuple(range(spec.n_qubits)))[0]
    return GroverResult(dist, xx_count(circuit), circuit.n_qubits, circuit)


def theoretical_asp(space_size: int, n_marked: int, iterations: int = 1) -> float:
    """Total probability of the marked set after ``iterations`` ideal rounds:
    sin^2((2k + 1) theta) with sin theta = sqrt(t / N)."""
    N, t = space_size, n_marked
    if N < 1 or not 1 <= t <= N:
        raise ValueError(f"need 1 <= n_marked <= space_size, got t={t}, N={N}")
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    theta = math.asin(math.sqrt(t / N))
    return math.sin((2 * iterations + 1) * theta) ** 2


def classical_asp(space_size: int, n_marked: int) -> float:
    """Success probability of two classical queries: draw one candidate,
    then a second distinct candidate if the first misses."""
    N, t = space_size, n_marked
    if N < 1 or not 1 <= t <= N:
        raise ValueError(f"need 1 <= n_marked <= space_size, got t={t}, N={N}")
    if t == N:
        return 1.0
    return t / N + (N - t) / N * t / (N - 1)


def enumerate_oracles(n_qubits: int, n_marked: int) -> list[tuple[str, ...]]:
    """All marked sets of the given size, in lexicographic order."""
    labels = all_labels(n_qubits)
    if not 1 <= n_marked <= len(labels):
        raise ValueError(f"n_marked must be in 1..{len(labels)}, got {n_marked}")
    return [tuple(c) for c in itertools.combinations(labels, n_marked)]
