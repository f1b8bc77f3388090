"""Fixed-basis probe of the doubly-controlled NOT.

Each basis input is bracketed by the same global rotation on all three
qubits. The rotations compose to a global bit flip, and the probe
states are fixed points of the ideal gate, so a perfect run maps input
k to output 7-k every time. Coherent errors between the controls break
that pattern; incoherent gate noise dims it.

Run as: python demos/05_probe.py
"""

import numpy as np

from iongrover import (
    FITTED_P_XX,
    NoiseModel,
    concat,
    cz_template,
    limited_tomography,
    toffoli3_template,
    tomography_success,
)

np.set_printoptions(precision=3, suppress=True)


def show(name, table):
    print(f"\n{name}: success {tomography_success(table):.4f}")
    print("        " + "  ".join(format(j, "03b") for j in range(8)))
    for i, row in enumerate(table):
        cells = "  ".join(f"{p:.1f}" for p in row)
        print(f"  {format(i, '03b')}  {cells}")


ideal = toffoli3_template(0, 1, 2)
show("ideal gate (exact anti-diagonal)", limited_tomography(ideal))

# A stray controlled-Z between the two controls leaves every classical
# truth table untouched but entangles the probe states.
stray = concat(ideal, cz_template(0, 1))
show("with a stray CZ on the controls", limited_tomography(stray))

# Exact under the random-Pauli channel: no trajectories to choose.
noisy = limited_tomography(ideal, NoiseModel(p_xx=FITTED_P_XX))
show(f"with stochastic noise p_xx={FITTED_P_XX}", noisy)
