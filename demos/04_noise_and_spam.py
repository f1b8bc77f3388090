"""Stochastic gate noise and readout errors, and undoing the latter.

Run as: python demos/04_noise_and_spam.py
"""

import numpy as np

from iongrover import (
    FITTED_P_XX,
    GroverConfig,
    NoiseModel,
    OracleSpec,
    SpamModel,
    apply_spam,
    classical_asp,
    correct_spam,
    confusion_matrix,
    enumerate_oracles,
    run_grover,
    run_noisy,
    toffoli3_template,
    truth_table,
    truth_table_fidelity,
)
from iongrover.decompositions import toffoli3_unitary
from iongrover.metrics import asp, permutation_of

np.set_printoptions(precision=4, suppress=True)

# After each coupling, with probability p_xx, a random two-qubit Pauli
# hits the pair. On average that is a depolarizing channel, so the
# noisy truth table is computed exactly from density matrices. The
# fitted rate reproduces a truth-table fidelity of about 0.896 for the
# five-coupling doubly-controlled NOT.
noise = NoiseModel(p_xx=FITTED_P_XX)
toffoli = toffoli3_template(0, 1, 2)
table = truth_table(toffoli, (0, 1, 2), noise)
fid = truth_table_fidelity(table, permutation_of(toffoli3_unitary()))
print(f"toffoli3 at p_xx={FITTED_P_XX}: truth-table fidelity {fid:.4f}")

# The Monte Carlo sampler of the same model scatters around that value.
for trajectories in (500, 5000):
    p = run_noisy(toffoli, noise, trajectories, seed=1)[0b000]
    print(f"  P(000 -> 000) sampled from {trajectories} trajectories: {p:.4f}"
          f" (exact {table[0, 0]:.4f})")

# The same noise degrades search. Phase oracles are cheaper than
# boolean ones, so they keep more of their advantage; both beat the
# classical two-query baseline.
for t in (1, 2):
    row = [f"t={t}"]
    for style in ("phase", "boolean"):
        vals = []
        for marked in enumerate_oracles(3, t):
            res = run_grover(GroverConfig(OracleSpec(3, marked, style)), noise=noise)
            vals.append(asp(res.distribution, marked))
        row.append(f"{style} {np.mean(vals):.3f}")
    row.append(f"classical {classical_asp(8, t):.3f}")
    print("mean success: " + ", ".join(row))

# Readout errors mix the observed distribution; knowing the confusion
# matrix lets us invert them exactly.
spam = SpamModel(eps0=0.01, eps1=0.03, crosstalk=0.01)
true = run_grover(GroverConfig(OracleSpec(3, ("101",), "phase"))).distribution
observed = apply_spam(true, spam)
recovered = correct_spam(observed, spam)
print("\ntrue      P(101) =", true[0b101])
print("observed  P(101) =", observed[0b101])
print("recovered P(101) =", recovered[0b101])

# Crosstalk makes a dark qubit next to a bright one read bright more
# often; compare the confusion columns for true state 010.
cols = {}
for name, ct in (("no crosstalk", 0.0), ("crosstalk 5%", 0.05)):
    m = confusion_matrix(SpamModel(eps0=0.01, eps1=0.0, crosstalk=ct), 3)
    cols[name] = m[:, 0b010]
    print(f"{name}: P(read 110 | true 010) = {m[0b110, 0b010]:.4f}")
