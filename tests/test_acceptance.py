"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a [PASS]/[FAIL]
line with the measured values (run ``pytest tests/test_acceptance.py
-v -s`` to see them all).
"""

import itertools
import json
import time

import numpy as np

from iongrover.cli import main as cli_main
from iongrover.decompositions import (
    ccz_template,
    ccz_unitary,
    cnot_template,
    cnot_unitary,
    cz_template,
    cz_unitary,
    equivalent_up_to_global_phase,
    toffoli3_template,
    toffoli3_unitary,
    toffoli4_template,
    toffoli4_unitary,
    toffoli_n_cost,
)
from iongrover.gates import circuit_unitary, concat, xx_count
from iongrover.grover import (
    GroverConfig,
    OracleSpec,
    boolean_oracle,
    classical_asp,
    enumerate_oracles,
    run_grover,
)
from iongrover.metrics import asp, permutation_of, truth_table, truth_table_fidelity
from iongrover.noise import (
    FITTED_P_XX,
    NoiseModel,
    SpamModel,
    apply_spam,
    correct_spam,
)
from iongrover.statevector import bits_to_index
from iongrover.tomography import limited_tomography, tomography_success

ATOL = 1e-9


def _report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_single_marked_states():
    t0 = time.perf_counter()
    worst = 0.0
    for (label,) in enumerate_oracles(3, 1):
        for style in ("phase", "boolean"):
            res = run_grover(GroverConfig(OracleSpec(3, (label,), style)))
            idx = bits_to_index(label)
            worst = max(worst, abs(res.distribution[idx] - 0.78125))
            rest = np.delete(res.distribution, idx)
            worst = max(worst, float(np.max(np.abs(rest - 0.03125))))
    elapsed = time.perf_counter() - t0
    ok = worst < ATOL and elapsed < 1.0
    _report(
        1,
        ok,
        f"8 single-marked oracles, both styles: max deviation {worst:.2e} "
        f"from 0.78125/0.03125 in {elapsed:.2f}s",
    )


def test_criterion_02_two_marked_states():
    t0 = time.perf_counter()
    worst = 0.0
    for pair in enumerate_oracles(3, 2):
        for style in ("phase", "boolean"):
            res = run_grover(GroverConfig(OracleSpec(3, pair, style)))
            total = asp(res.distribution, pair)
            worst = max(worst, abs(total - 1.0))
            for label in pair:
                worst = max(
                    worst, abs(res.distribution[bits_to_index(label)] - 0.5)
                )
    elapsed = time.perf_counter() - t0
    ok = worst < ATOL and elapsed < 5.0
    _report(
        2,
        ok,
        f"28 two-marked oracles, both styles: max deviation {worst:.2e} "
        f"from the 0.5/0.5 split in {elapsed:.2f}s",
    )


def test_criterion_03_classical_baseline():
    d1 = abs(classical_asp(8, 1) - 0.25)
    d2 = abs(classical_asp(8, 2) - 13 / 28)
    ok = d1 < 1e-12 and d2 < 1e-12
    _report(3, ok, f"classical two-query baseline: |err| = {max(d1, d2):.2e}")


def test_criterion_04_templates_for_every_coupling_sign():
    checks = 0
    ok = True
    for s in (1, -1):
        u = circuit_unitary(cnot_template(0, 1, s))
        ok &= equivalent_up_to_global_phase(u, cnot_unitary(), ATOL)
        ok &= xx_count(cnot_template(0, 1, s)) == 1
        v = circuit_unitary(cz_template(0, 1, s))
        ok &= equivalent_up_to_global_phase(v, cz_unitary(), ATOL)
        checks += 2
    pairs3 = ((0, 1), (1, 2), (0, 2))
    for signs in itertools.product((1, -1), repeat=3):
        m = dict(zip(pairs3, signs))
        circ = toffoli3_template(0, 1, 2, m)
        ok &= xx_count(circ) == 5
        ok &= equivalent_up_to_global_phase(
            circuit_unitary(circ), toffoli3_unitary(), ATOL
        )
        ok &= equivalent_up_to_global_phase(
            circuit_unitary(ccz_template(0, 1, 2, m)), ccz_unitary(), ATOL
        )
        checks += 2
    pairs5 = ((0, 4), (1, 4), (2, 3), (2, 4), (3, 4))
    for signs in itertools.product((1, -1), repeat=5):
        circ = toffoli4_template(0, 1, 2, 3, 4, dict(zip(pairs5, signs)))
        ok &= xx_count(circ) == 11
        u = circuit_unitary(circ)
        ok &= float(np.max(np.abs(u[1::2, ::2]))) < ATOL  # ancilla stays |0>
        ok &= equivalent_up_to_global_phase(u[::2, ::2], toffoli4_unitary(), ATOL)
        checks += 1
    ok &= toffoli_n_cost(3).xx_count == 5 and toffoli_n_cost(4).xx_count == 11
    _report(
        4,
        ok,
        f"{checks} template/sign combinations match ideal gates up to "
        f"global phase; counts follow 6n-13",
    )


def test_criterion_05_styles_agree():
    cases = [(3, m) for t in (1, 2) for m in enumerate_oracles(3, t)]
    rng = np.random.default_rng(20260817)
    while len(cases) < 236:  # 36 reference + 200 randomized
        n = int(rng.integers(1, 4))
        t = int(rng.integers(1, min(2, 2**n) + 1))
        idx = rng.choice(2**n, size=t, replace=False)
        cases.append((n, tuple(sorted(format(k, f"0{n}b") for k in idx))))
    worst = 0.0
    for n, marked in cases:
        dp = run_grover(GroverConfig(OracleSpec(n, marked, "phase"))).distribution
        db = run_grover(GroverConfig(OracleSpec(n, marked, "boolean"))).distribution
        worst = max(worst, float(np.max(np.abs(dp - db))))
    ok = worst < ATOL
    _report(
        5,
        ok,
        f"{len(cases)} marked sets: max phase/boolean distribution gap {worst:.2e}",
    )


def test_criterion_06_boolean_oracle_classical_contract():
    sets = enumerate_oracles(3, 1) + enumerate_oracles(3, 2)
    worst = 1.0
    for marked in sets:
        circ = boolean_oracle(3, marked)
        u = circuit_unitary(circ)
        extra = circ.n_qubits - 4
        for data in range(8):
            label = format(data, "03b")
            for anc in (0, 1):
                col = (data << (1 + extra)) | (anc << extra)
                out = (data << (1 + extra)) | ((anc ^ (label in marked)) << extra)
                worst = min(worst, float(abs(u[out, col])))
    ok = worst > 1.0 - ATOL
    _report(
        6,
        ok,
        f"{len(sets)} oracles brute-forced over all basis states: "
        f"min correct amplitude {worst:.12f}",
    )


def test_criterion_07_probe_separates_coherent_errors():
    table = limited_tomography(toffoli3_template(0, 1, 2))
    anti = np.eye(8)[::-1]
    dev = float(np.max(np.abs(table - anti)))
    ideal_success = tomography_success(table)
    bad = concat(toffoli3_template(0, 1, 2), cz_template(0, 1))
    bad_success = tomography_success(limited_tomography(bad))
    ok = dev < ATOL and abs(ideal_success - 1.0) < ATOL and bad_success < 0.95
    _report(
        7,
        ok,
        f"ideal probe table anti-diagonal to {dev:.2e} (success "
        f"{ideal_success:.6f}); stray CZ success {bad_success:.4f} < 0.95",
    )


def test_criterion_08_spam_round_trip():
    rng = np.random.default_rng(8)
    worst = 0.0
    for eps0 in (0.0, 0.01, 0.05):
        for eps1 in (0.0, 0.01, 0.05):
            for ct in (0.0, 0.01, 0.02):
                spam = SpamModel(eps0, eps1, ct)
                for _ in range(3):
                    true = rng.dirichlet(np.ones(8))
                    rec = correct_spam(apply_spam(true, spam), spam)
                    worst = max(worst, float(np.max(np.abs(rec - true))))
    ok = worst < ATOL
    _report(8, ok, f"27 SPAM settings x 3 distributions: max round-trip error {worst:.2e}")


def test_criterion_09_noise_model_orders_the_algorithms():
    t0 = time.perf_counter()
    noise = NoiseModel(p_xx=FITTED_P_XX)
    table3 = truth_table(toffoli3_template(0, 1, 2), (0, 1, 2), noise)
    fid3 = truth_table_fidelity(table3, permutation_of(toffoli3_unitary()))
    t_table = time.perf_counter() - t0
    table4 = truth_table(toffoli4_template(0, 1, 2, 3, 4), (0, 1, 2, 3), noise)
    fid4 = truth_table_fidelity(table4, permutation_of(toffoli4_unitary()))
    means = {}
    for t in (1, 2):
        for style in ("phase", "boolean"):
            vals = []
            for marked in enumerate_oracles(3, t):
                config = GroverConfig(OracleSpec(3, marked, style))
                vals.append(asp(run_grover(config, noise=noise).distribution, marked))
            means[(t, style)] = float(np.mean(vals))
    elapsed = time.perf_counter() - t0
    ok = (
        0.85 <= fid3 <= 0.94
        and fid4 < fid3
        and means[(1, "phase")] > means[(1, "boolean")] > classical_asp(8, 1)
        and means[(2, "phase")] > means[(2, "boolean")] > classical_asp(8, 2)
        and t_table < 120.0
        and elapsed < 120.0
    )
    _report(
        9,
        ok,
        f"fitted p_xx={FITTED_P_XX}: fid3={fid3:.4f} (in [0.85, 0.94]), "
        f"fid4={fid4:.4f} < fid3; mean ASP t=1 "
        f"{means[(1, 'phase')]:.3f} > {means[(1, 'boolean')]:.3f} > 0.25, t=2 "
        f"{means[(2, 'phase')]:.3f} > {means[(2, 'boolean')]:.3f} > {13 / 28:.3f}; "
        f"exact Toffoli-3 channel table {t_table:.2f}s, all {elapsed:.2f}s",
    )


def test_criterion_10_cli_outputs_are_reproducible(tmp_path):
    noise = tmp_path / "noise.json"
    noise.write_text(
        json.dumps({"p_xx": 0.02, "eps0": 0.01, "trajectories": 300, "seed": 21})
    )
    commands = {
        "grover": ["grover", "--style", "phase", "--all", "--t", "2",
                   "--noise", str(noise), "--format", "csv"],
        "tomography": ["tomography", "--noise", str(noise), "--trajectories", "200"],
        "costs": ["costs", "--min", "3", "--max", "7"],
    }
    ok = True
    for name, argv in commands.items():
        dirs = []
        for rep in ("a", "b"):
            out = tmp_path / f"{name}-{rep}"
            code = cli_main(argv + ["--out", str(out)])
            ok &= code == 0
            dirs.append(out)
        for path in sorted(dirs[0].iterdir()):
            twin = dirs[1] / path.name
            ok &= path.read_bytes() == twin.read_bytes()
    _report(10, ok, "three commands rerun with fixed seeds produced identical bytes")
