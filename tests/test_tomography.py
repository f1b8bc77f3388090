import numpy as np
import pytest

from iongrover.decompositions import cz_template, toffoli3_template
from iongrover.gates import Circuit, concat, run
from iongrover.noise import NoiseModel
from iongrover.statevector import init_basis, probabilities
from iongrover.tomography import (
    PLUS_ROTATION_INPUTS,
    limited_tomography,
    probed_circuit,
    tomography_success,
)

ANTI_DIAGONAL = np.eye(8)[::-1]


def test_rotation_sign_is_keyed_to_the_target_bit():
    # The four listed inputs are exactly those with target bit 0, so the
    # probe always parks the target along +x.
    assert PLUS_ROTATION_INPUTS == ("000", "010", "100", "110")
    assert all(label.endswith("0") for label in PLUS_ROTATION_INPUTS)


def test_ideal_gate_probes_to_the_exact_anti_diagonal():
    table = limited_tomography(toffoli3_template(0, 1, 2))
    assert np.max(np.abs(table - ANTI_DIAGONAL)) < 1e-9
    assert tomography_success(table) == pytest.approx(1.0, abs=1e-9)


def test_identity_circuit_also_probes_to_the_anti_diagonal():
    # Every probe state is a fixed point of the identity too, so this
    # sequence cannot distinguish the gate from doing nothing; it is a
    # coherent-error probe, not a truth-table check.
    table = limited_tomography(Circuit(3, ()))
    assert np.max(np.abs(table - ANTI_DIAGONAL)) < 1e-9


def test_stray_control_control_z_collapses_success():
    bad = concat(toffoli3_template(0, 1, 2), cz_template(0, 1))
    table = limited_tomography(bad)
    success = tomography_success(table)
    # The entangled controls overlap the expected outcome with
    # amplitude 1/2 on every input.
    assert success == pytest.approx(0.25, abs=1e-9)
    assert success < 0.95


def test_noise_degrades_success():
    noisy = limited_tomography(toffoli3_template(0, 1, 2), NoiseModel(p_xx=0.05))
    success = tomography_success(noisy)
    assert 0.5 < success < 0.95


def test_register_width_is_checked():
    with pytest.raises(ValueError):
        limited_tomography(Circuit(2, ()))


def test_success_requires_full_table():
    with pytest.raises(ValueError):
        tomography_success(np.eye(4))


@pytest.mark.parametrize("stray_cz", [False, True])
def test_probe_table_matches_per_input_runs(stray_cz):
    circuit = toffoli3_template(0, 1, 2)
    if stray_cz:
        circuit = concat(circuit, cz_template(0, 1))
    table = limited_tomography(circuit)
    for k in range(8):
        label = format(k, "03b")
        want = probabilities(run(probed_circuit(circuit, label), init_basis(3, label)))
        assert np.max(np.abs(table[k] - want)) < 1e-12
