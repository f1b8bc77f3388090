"""Grover search on a few qubits, compiled to trapped-ion native gates.

The native set is the single-qubit rotation R(theta, phi) and the
two-qubit Ising coupling XX(chi). The package builds standard gates and
complete Grover circuits from these, simulates them exactly or under
stochastic Pauli noise with readout errors, and reports the figures of
merit used to benchmark small search experiments.
"""

from .decompositions import (
    GATE_TEMPLATES,
    CostReport,
    ccz_template,
    cnot_template,
    cz_template,
    equivalent_up_to_global_phase,
    fuse_rotations,
    margolus_template,
    rz_template,
    toffoli3_template,
    toffoli4_template,
    toffoli_n_cost,
)
from .gates import (
    Circuit,
    RotationGate,
    XXGate,
    circuit_from_json,
    circuit_to_json,
    circuit_unitary,
    concat,
    fuse_blocks,
    inverse,
    r_matrix,
    run,
    xx_count,
    xx_matrix,
)
from .grover import (
    GroverConfig,
    GroverResult,
    OracleSpec,
    amplification_stage,
    boolean_oracle,
    classical_asp,
    enumerate_oracles,
    grover_circuit,
    initialization_stage,
    oracle_circuit,
    phase_oracle,
    run_grover,
    theoretical_asp,
)
from .metrics import (
    asp,
    expected_grover_distribution,
    sso,
    truth_table,
    truth_table_fidelity,
)
from .noise import (
    FITTED_P_XX,
    NoiseConfig,
    NoiseModel,
    SpamModel,
    apply_spam,
    channel_distributions,
    confusion_matrix,
    correct_spam,
    distributions,
    load_noise_config,
    run_noisy,
)
from .statevector import (
    MAX_QUBITS,
    StateVector,
    all_labels,
    apply_one_qubit,
    apply_two_qubit,
    bits_to_index,
    init_basis,
    marginal,
    marginals,
    probabilities,
    sample,
    sample_counts,
)
from .tomography import limited_tomography, tomography_success

__version__ = "0.1.0"
