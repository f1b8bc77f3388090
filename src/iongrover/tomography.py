"""Fixed-basis probe of a three-qubit gate's classical action.

Each basis input is bracketed by the same global rotation before and
after the circuit under test: Ry(pi/2) on every qubit for inputs with
even target parity (000, 010, 100, 110), Ry(-pi/2) for the rest. The
two rotations compose to a global bit flip, so an ideal
doubly-controlled NOT, which leaves every probe state fixed, maps
input k to output 2^3 - 1 - k exactly; coherent errors between the
controls (for example a stray controlled-Z) disturb the probe states
and pull the success rate down.
"""

from __future__ import annotations

import numpy as np

from .decompositions import PI, _ry
from .gates import Circuit, concat
from .noise import NoiseModel, distributions

PLUS_ROTATION_INPUTS = ("000", "010", "100", "110")


def _probe_rotation(n_qubits: int, sign: int) -> Circuit:
    return Circuit(n_qubits, tuple(_ry(q, sign * PI / 2) for q in range(n_qubits)))


def probed_circuit(circuit: Circuit, input_label: str) -> Circuit:
    """The circuit under test bracketed by the probe rotations for one input."""
    sign = 1 if input_label in PLUS_ROTATION_INPUTS else -1
    rot = _probe_rotation(circuit.n_qubits, sign)
    return concat(rot, circuit, rot)


def limited_tomography(circuit: Circuit, noise: NoiseModel | None = None) -> np.ndarray:
    """Probe table: rows are basis inputs, columns outcome probabilities.

    Each probe-rotation sign runs as one batch of its four inputs
    through :func:`iongrover.noise.distributions`, so the rows are exact
    with or without gate noise.
    """
    if circuit.n_qubits != 3:
        raise ValueError(
            f"the probe sequence is defined for 3 qubits, got {circuit.n_qubits}"
        )
    table = np.zeros((8, 8), dtype=np.float64)
    plus = [int(label, 2) for label in PLUS_ROTATION_INPUTS]
    minus = [k for k in range(8) if k not in plus]
    for inputs in (plus, minus):
        full = probed_circuit(circuit, format(inputs[0], "03b"))
        table[inputs] = distributions(full, noise, inputs, (0, 1, 2))
    return table


def tomography_success(table: np.ndarray) -> float:
    """Mean probability of landing on the bit-flipped input."""
    table = np.asarray(table, dtype=np.float64)
    if table.shape != (8, 8):
        raise ValueError(f"expected an 8x8 table, got {table.shape}")
    size = table.shape[0]
    return float(np.mean(table[np.arange(size), size - 1 - np.arange(size)]))
