import itertools
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iongrover import grover
from iongrover.decompositions import equivalent_up_to_global_phase
from iongrover.gates import Circuit, circuit_to_json, circuit_unitary, concat, run, xx_count
from iongrover.grover import (
    STYLES,
    GroverConfig,
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
from iongrover.noise import FITTED_P_XX, NoiseModel, channel_distributions, distributions
from iongrover.statevector import bits_to_index, marginal, probabilities


def test_oracle_spec_validation():
    with pytest.raises(ValueError):
        OracleSpec(3, (), "phase")
    with pytest.raises(ValueError):
        OracleSpec(3, ("01",), "phase")
    with pytest.raises(ValueError):
        OracleSpec(3, ("010", "010"), "phase")
    with pytest.raises(ValueError):
        OracleSpec(3, ("010",), "magic")
    with pytest.raises(ValueError):
        OracleSpec(4, ("0101",), "phase")


def _diag_signs(n, marked):
    want = np.ones(2**n)
    for label in marked:
        want[bits_to_index(label)] = -1.0
    return np.diag(want).astype(complex)


@pytest.mark.parametrize(
    "n,marked",
    [
        (1, ("1",)),
        (1, ("0",)),
        (2, ("01",)),
        (2, ("00", "11")),
        (3, ("011",)),
        (3, ("000",)),
        (3, ("101", "100")),
        (3, ("110", "001")),
        (3, ("000", "011", "101", "110")),
    ],
)
def test_phase_oracle_is_the_marked_sign_flip(n, marked):
    u = circuit_unitary(phase_oracle(n, marked))
    assert equivalent_up_to_global_phase(u, _diag_signs(n, marked), 1e-9)


def test_phase_oracle_of_everything_is_trivial():
    circ = phase_oracle(2, ("00", "01", "10", "11"))
    assert xx_count(circ) == 0


def test_phase_oracle_costs_by_hamming_distance():
    # Two marked labels: 1, 2, or 3 couplings as the pair distance grows.
    by_distance = {1: 1, 2: 2, 3: 3}
    for pair in enumerate_oracles(3, 2):
        d = sum(a != b for a, b in zip(*pair))
        assert xx_count(phase_oracle(3, pair)) == by_distance[d], pair


def test_single_marked_phase_oracle_costs_five():
    for (label,) in enumerate_oracles(3, 1):
        assert xx_count(phase_oracle(3, (label,))) == 5


def test_boolean_oracle_classical_contract_spot_checks():
    for marked in [("011",), ("000", "111"), ("101", "100"), ("00", "01")]:
        n = len(marked[0])
        circ = boolean_oracle(n, marked)
        u = circuit_unitary(circ)
        extra = circ.n_qubits - (n + 1)
        for data in range(2**n):
            label = format(data, f"0{n}b")
            for anc in (0, 1):
                col = (data << (1 + extra)) | (anc << extra)
                out_anc = anc ^ (label in marked)
                row = (data << (1 + extra)) | (out_anc << extra)
                assert abs(u[row, col]) == pytest.approx(1.0, abs=1e-9), (
                    marked,
                    label,
                    anc,
                )


def test_boolean_oracle_costs():
    for (label,) in enumerate_oracles(3, 1):
        assert xx_count(boolean_oracle(3, (label,))) == 11
    by_distance = {1: 5, 2: 7, 3: 9}
    for pair in enumerate_oracles(3, 2):
        d = sum(a != b for a, b in zip(*pair))
        assert xx_count(boolean_oracle(3, pair)) == by_distance[d], pair


def test_initialization_prepares_uniform_data_register():
    state = run(initialization_stage(3, "phase"))
    assert np.allclose(probabilities(state), 1 / 8, atol=1e-12)


def test_boolean_initialization_adds_x_eigenstate_ancilla():
    state = run(initialization_stage(2, "boolean"))
    # Ancilla in |->: equal weight, and flipping it changes no
    # probability but the relative sign.
    amps = state.amps.reshape(2, 2, 2)
    ratio = amps[:, :, 1] / amps[:, :, 0]
    assert np.allclose(ratio, -1.0, atol=1e-12)


def test_amplification_reflects_about_uniform():
    for n in (1, 2, 3):
        u = circuit_unitary(amplification_stage(n))
        size = 2**n
        s = np.full((size, 1), 1 / np.sqrt(size))
        want = np.eye(size) - 2 * (s @ s.T)
        assert equivalent_up_to_global_phase(u, want.astype(complex), 1e-9)


def test_grover_single_marked_distribution():
    res = run_grover(GroverConfig(OracleSpec(3, ("101",), "phase")))
    assert res.distribution[bits_to_index("101")] == pytest.approx(0.78125, abs=1e-9)
    rest = np.delete(res.distribution, bits_to_index("101"))
    assert np.allclose(rest, 0.03125, atol=1e-9)
    assert res.xx_count == 10


def test_grover_two_marked_is_deterministic():
    spec = OracleSpec(3, ("010", "100"), "boolean")
    res = run_grover(GroverConfig(spec))
    assert res.distribution[bits_to_index("010")] == pytest.approx(0.5, abs=1e-9)
    assert res.distribution[bits_to_index("100")] == pytest.approx(0.5, abs=1e-9)


def test_grover_runs_match_both_styles_on_two_qubits():
    for marked in enumerate_oracles(2, 1):
        rp = run_grover(GroverConfig(OracleSpec(2, marked, "phase")))
        rb = run_grover(GroverConfig(OracleSpec(2, marked, "boolean")))
        assert np.max(np.abs(rp.distribution - rb.distribution)) < 1e-9
        assert rp.distribution[bits_to_index(marked[0])] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("style", STYLES)
def test_noisy_run_is_the_channel_marginal(style):
    cfg = GroverConfig(OracleSpec(3, ("011", "110"), style), iterations=2)
    noise = NoiseModel(p_xx=0.02, p_r=0.003)
    circuit = grover_circuit(cfg)
    want = marginal(channel_distributions(circuit, noise, [0])[0], circuit.n_qubits, (0, 1, 2))
    got = run_grover(cfg, noise=noise).distribution
    assert np.max(np.abs(got - want)) <= 1e-12


def test_more_iterations_follow_the_rotation_formula():
    # Marked-set weight after k rounds is sin^2((2k+1) asin(sqrt(t/N))).
    spec = OracleSpec(3, ("110",), "phase")
    theta = np.arcsin(np.sqrt(1 / 8))
    for k in (0, 1, 2, 3):
        res = run_grover(GroverConfig(spec, iterations=k))
        want = np.sin((2 * k + 1) * theta) ** 2
        assert res.distribution[bits_to_index("110")] == pytest.approx(want, abs=1e-9)


def test_theoretical_asp_values():
    assert theoretical_asp(8, 1) == pytest.approx(0.78125, abs=1e-12)
    assert theoretical_asp(8, 2) == pytest.approx(1.0, abs=1e-12)
    assert theoretical_asp(4, 1) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        theoretical_asp(8, 0)
    with pytest.raises(ValueError):
        theoretical_asp(8, 9)


def test_classical_asp_values():
    assert classical_asp(8, 1) == pytest.approx(1 / 4, abs=1e-15)
    assert classical_asp(8, 2) == pytest.approx(13 / 28, abs=1e-15)
    assert classical_asp(2, 2) == 1.0
    assert classical_asp(1, 1) == 1.0


def test_enumerate_oracles_lexicographic():
    sets = enumerate_oracles(3, 2)
    assert len(sets) == 28
    assert sets[0] == ("000", "001")
    assert sets[-1] == ("110", "111")
    assert sets == sorted(sets)
    with pytest.raises(ValueError):
        enumerate_oracles(3, 9)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_styles_agree_on_random_marked_sets(data):
    n = data.draw(st.integers(1, 3))
    t = data.draw(st.integers(1, min(2, 2**n)))
    labels = data.draw(
        st.lists(
            st.integers(0, 2**n - 1), min_size=t, max_size=t, unique=True
        )
    )
    marked = tuple(format(k, f"0{n}b") for k in labels)
    rp = run_grover(GroverConfig(OracleSpec(n, marked, "phase")))
    rb = run_grover(GroverConfig(OracleSpec(n, marked, "boolean")))
    assert np.max(np.abs(rp.distribution - rb.distribution)) < 1e-9


def test_theoretical_asp_after_several_iterations():
    # sin^2((2k+1) theta) with sin theta = sqrt(t/N).
    assert theoretical_asp(8, 1, 3) == pytest.approx(0.330078125, abs=1e-12)
    assert theoretical_asp(8, 1, 2) == pytest.approx(0.9453125, abs=1e-12)
    assert theoretical_asp(8, 1, 0) == pytest.approx(1 / 8, abs=1e-12)
    with pytest.raises(ValueError):
        theoretical_asp(8, 1, -1)


@pytest.mark.parametrize("iterations", [0, 1, 2, 3])
def test_theoretical_asp_matches_simulation(iterations):
    spec = OracleSpec(3, ("101",), "phase")
    res = run_grover(GroverConfig(spec, iterations=iterations))
    want = theoretical_asp(8, 1, iterations)
    assert res.distribution[bits_to_index("101")] == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize(
    "make",
    [
        lambda: OracleSpec(True, ("1",), "phase"),
        lambda: OracleSpec(2.0, ("01",), "phase"),
        lambda: GroverConfig(OracleSpec(2, ("01",), "phase"), 1.5),
        lambda: GroverConfig(OracleSpec(2, ("01",), "phase"), True),
    ],
    ids=["n_qubits-bool", "n_qubits-float", "iterations-float", "iterations-bool"],
)
def test_integer_fields_reject_bools_and_floats(make):
    with pytest.raises(ValueError, match="must be an integer"):
        make()


def test_integer_fields_accept_numpy_integers():
    config = GroverConfig(OracleSpec(np.int64(2), ("01",), "phase"), np.int32(2))
    assert type(config.oracle.n_qubits) is int and type(config.iterations) is int


@pytest.mark.parametrize(
    "noise", [None, NoiseModel(FITTED_P_XX, 0.0015)], ids=["exact", "noisy"]
)
@pytest.mark.parametrize("style", STYLES)
def test_run_grover_equals_the_flat_circuit_run(style, noise):
    # run_grover builds and plans one round and repeats its blocks; the
    # reference runs every gate of the flat circuit.
    rng = np.random.default_rng(2184)
    for n, t in itertools.product((1, 2, 3), (1, 2)):
        pairs = list(itertools.combinations(range(n + 2), 2))
        for marked in enumerate_oracles(n, t):
            for k in range(4):
                sgn_map = {pair: int(rng.choice((1, -1))) for pair in pairs}
                config = GroverConfig(OracleSpec(n, marked, style), k)
                got = run_grover(config, sgn_map, noise).distribution
                circuit = grover_circuit(config, sgn_map)
                want = distributions(circuit, noise, [0], tuple(range(n)))[0]
                assert np.max(np.abs(got - want)) <= 1e-12, (marked, k)


@pytest.mark.parametrize("k", [0, 1, 3])
def test_a_run_synthesizes_its_round_at_most_once(monkeypatch, k):
    originals = {
        name: getattr(grover, name)
        for name in ("oracle_circuit", "amplification_stage", "grover_circuit")
    }
    calls = Counter()

    def counting(name):
        def counted(*args, **kwargs):
            calls[name] += 1
            return originals[name](*args, **kwargs)

        return counted

    for name in originals:
        monkeypatch.setattr(grover, name, counting(name))
    spec = OracleSpec(3, ("011",), "boolean")
    res = run_grover(GroverConfig(spec, iterations=k))
    once = min(k, 1)
    assert calls == Counter(oracle_circuit=once, amplification_stage=once, grover_circuit=1)
    rounds = [originals["oracle_circuit"](spec), originals["amplification_stage"](3)] * k
    assert res.circuit.gates == concat(initialization_stage(3, "boolean"), *rounds).gates


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("style", STYLES)
def test_result_keeps_the_flat_circuit_and_its_register(style, k):
    config = GroverConfig(OracleSpec(3, ("011",), style), k)
    res = run_grover(config)
    flat = grover_circuit(config)
    assert circuit_to_json(res.circuit) == circuit_to_json(flat)
    assert res.n_qubits_total == flat.n_qubits and res.xx_count == xx_count(flat)
    if k == 0:
        assert res.n_qubits_total == {"phase": 3, "boolean": 4}[style]
        assert np.allclose(res.distribution, 1 / 8, atol=1e-12)


def _every_oracle(seed):
    """Every marked set for n = 1..3 in both styles, each with no sign map
    and with a random one over every pair the builders may touch."""
    rng = np.random.default_rng(seed)
    for n in (1, 2, 3):
        pairs = list(itertools.combinations(range(n + 2), 2))
        for t in range(1, 2**n + 1):
            for marked in enumerate_oracles(n, t):
                for style in STYLES:
                    yield OracleSpec(n, marked, style), None
                    yield OracleSpec(n, marked, style), {
                        pair: int(rng.choice((1, -1))) for pair in pairs
                    }


def _every_form_then_min(spec, sgn_map):
    """Reference oracle: build every candidate form, keep the first with
    the fewest couplings."""
    n, marked = spec.n_qubits, spec.marked
    monomials = grover._parity_monomials(n, marked)
    if spec.style == "phase":

        def mark(qubits):
            return grover._controlled_z_any(qubits, sgn_map) if qubits else None

        forms = [grover._per_label(n, marked, mark), grover._parity(n, monomials, mark)]
        width = n
    else:

        def mark(qubits):
            return grover._controlled_not_any(qubits, n, n + 1, sgn_map)

        forms = [grover._per_label(n, marked, mark)]
        if len(marked) == 2:
            forms.append(grover._boolean_pair(n, marked, n, sgn_map))
        forms.append(grover._parity(n + 1, monomials, mark))
        width = n + 1
    return concat(Circuit(width, ()), min(forms, key=xx_count))


def test_oracle_is_the_cheapest_form_gate_for_gate():
    for spec, sgn_map in _every_oracle(seed=3105):
        got = oracle_circuit(spec, sgn_map)
        want = _every_form_then_min(spec, sgn_map)
        assert (got.n_qubits, got.gates) == (want.n_qubits, want.gates), (spec, sgn_map)


def test_each_oracle_builds_exactly_one_form(monkeypatch):
    calls = Counter()

    def counting(name):
        original = getattr(grover, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in ("_per_label", "_boolean_pair", "_parity"):
        monkeypatch.setattr(grover, name, counting(name))
    for spec, sgn_map in _every_oracle(seed=3106):
        calls.clear()
        oracle_circuit(spec, sgn_map)
        assert sum(calls.values()) == 1, (spec, dict(calls))


def test_parity_monomials_expand_the_indicator():
    # XOR over the monomials of the AND of their bits is 1 exactly on
    # the marked labels.
    for n in (1, 2, 3):
        for t in range(1, 2**n + 1):
            for marked in enumerate_oracles(n, t):
                monomials = grover._parity_monomials(n, marked)
                assert monomials == sorted(set(monomials), key=lambda qs: (len(qs), qs))
                for label in (format(k, f"0{n}b") for k in range(2**n)):
                    value = sum(all(label[q] == "1" for q in qs) for qs in monomials) % 2
                    assert value == (label in marked), (marked, label)


@pytest.mark.parametrize(
    "sgn_map",
    [None, {pair: -1 for pair in itertools.combinations(range(5), 2)}],
    ids=["plus", "minus"],
)
def test_prices_are_the_built_coupling_counts(sgn_map):
    for c in range(4):
        built = grover._controlled_not_any(tuple(range(c)), c, c + 1, sgn_map)
        assert xx_count(built) == grover._not_couplings(c), c
    for s in range(1, 4):
        built = grover._controlled_z_any(tuple(range(s)), sgn_map)
        assert xx_count(built) == grover._not_couplings(s - 1), s


_ENTRY_POINTS = {
    "oracle_circuit": lambda m: oracle_circuit(OracleSpec(3, ("011",), "phase"), m),
    "phase_oracle": lambda m: phase_oracle(3, ("011",), m),
    "boolean_oracle": lambda m: boolean_oracle(3, ("011", "111"), m),
    "amplification_stage": lambda m: amplification_stage(3, m),
    "grover_circuit": lambda m: grover_circuit(GroverConfig(OracleSpec(3, ("011",), "boolean"), 0), m),
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize(
    "sgn_map, key",
    [
        ({(1, 0): -1}, (1, 0)),
        ({(0, 1): 1, (0, 4): 7}, (0, 4)),
        ({(2, 2): 1}, (2, 2)),
        ({(-1, 2): 1}, (-1, 2)),
        ({(0, 1, 2): 1}, (0, 1, 2)),
        ({"01": 1}, "01"),
        ({(0, 1.0): 1}, (0, 1.0)),
        ({(1, 2): 0}, (1, 2)),
        ({(1, 2): True}, (1, 2)),
        ({(1, 2): "-1"}, (1, 2)),
    ],
    ids=["reversed", "untouched-bad-value", "same-qubit", "negative", "triple", "string",
         "float-qubit", "zero", "bool", "string-value"],
)
def test_sign_maps_are_checked_whole_where_synthesis_starts(entry, sgn_map, key):
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        _ENTRY_POINTS[entry](sgn_map)


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_sign_map_pairs_beyond_the_register_are_unused(entry):
    build = _ENTRY_POINTS[entry]
    assert build({(0, 9): -1, (8, 9): 1}).gates == build(None).gates
