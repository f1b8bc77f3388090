"""The three benchmark workloads: seeded op lists, execution, output checks.

A workload yields passes: lists of ops drawn from a fixed, stratified
grid (every pass has the same mix of op kinds and sizes), with the seed
choosing marked labels, flags, sign maps, random circuits and the order.
The runner times ``execute`` only; ``check`` compares the outputs with
``reference`` and runs afterwards.

Why these workloads:

- exact_cli: many small noiseless circuits through the CLI, one state at
  a time. Per-gate kernel overhead, synthesis, metrics and result
  writing dominate; the noise engine does nothing.
- noisy_cli: the same CLI loop with trajectory noise and readout errors.
  The noise engine dominates, in both of its uses: many inputs through
  one circuit (truth tables, probe) and one input through many circuits
  (the ``--all`` sweep on the program's thread pool).
- wide_unitary: a library loop over 5- and 6-qubit circuits loaded from
  JSON, through ``circuit_unitary`` and ``truth_table``. Many basis
  inputs go through one wide circuit; no synthesis, no noise.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

import reference as ref

STYLES = ("phase", "boolean")
TEMPLATE_QUBITS = {"cnot": 2, "cz": 2, "toffoli3": 3, "ccz": 3, "toffoli4": 5}
TRAJECTORIES = 2000
# sso takes square roots of probabilities, so a 1e-17 rounding residual on
# an ideally empty label moves it by ~1e-8.
SSO_TOL = 1e-6


@dataclass
class Op:
    kind: str
    runs: int  # circuit x basis-input evaluations the inputs ask for
    argv: tuple[str, ...] = ()
    spec: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return " ".join(self.argv) if self.argv else self.spec["label"]


@dataclass
class Verdict:
    bad: list[str] = field(default_factory=list)  # unexpected mismatches
    known: list[str] = field(default_factory=list)  # documented defects
    errs: list[tuple[float, str, float]] = field(default_factory=list)  # noisy figures
    bytes_written: int = 0

    @property
    def status(self) -> str:
        return "bad" if self.bad else "known" if self.known else "ok"


def _labels(n: int) -> list[str]:
    return [format(i, f"0{n}b") for i in range(2**n)]


def _gate_tuples(circuit) -> list[tuple]:
    """Package circuit -> plain gate tuples for the reference code."""
    out = []
    for g in circuit.gates:
        if hasattr(g, "chi"):
            out.append(("XX", g.qa, g.qb, g.chi))
        else:
            out.append(("R", g.qubit, g.theta, g.phi))
    return out


def _circuit_json(n: int, gates: list[tuple]) -> str:
    entries = []
    for g in gates:
        if g[0] == "R":
            entries.append({"kind": "R", "q": g[1], "theta": g[2], "phi": g[3]})
        else:
            entries.append({"kind": "XX", "qa": g[1], "qb": g[2], "chi": g[3]})
    return json.dumps({"n_qubits": n, "gates": entries})


class CliWorkload:
    """Ops are ``iongrover.cli.main(argv)`` calls, each with a fresh --out."""

    noisy = False

    def __init__(self, pkg, seed: int, work_dir: str):
        self.pkg = pkg
        self.seed = seed
        self.base: list[str] = []  # arguments every op carries
        self.config_seed = 0
        self._refs: dict = {}

    # -- op lists ---------------------------------------------------------

    def probe(self) -> Op:
        return self._grover(random.Random(0), 3, 1, "phase", 1, flags=False, marked=("011",))

    def _flags(self, rng: random.Random, argv: list[str], spec: dict, shots=None):
        if shots is None and rng.random() < 0.5:
            shots = rng.choice((100, 1000, 10000))
        if shots is not None:
            argv += ["--shots", str(shots)]
            spec["shots"] = shots
        if rng.random() < 1 / 3:
            argv += ["--format", "csv"]
        if rng.random() < 0.5:
            spec["seed"] = rng.randrange(10**6)
            argv += ["--seed", str(spec["seed"])]

    def _grover(self, rng, n, t, style, k, flags=True, marked=None, all_sets=False,
                shots=None, spam=None, gate_noise=True) -> Op:
        argv = ["grover", "--style", style, "--n", str(n), "--iterations", str(k)]
        spec = {"n": n, "t": t, "style": style, "iterations": k, "all": all_sets,
                "gate_noise": gate_noise}
        if all_sets:
            argv += ["--all", "--t", str(t)]
            runs = math.comb(2**n, t)
        else:
            spec["marked"] = marked or tuple(rng.sample(_labels(n), t))
            for label in spec["marked"]:
                argv += ["--marked", label]
            runs = 1
        if spam is not None:
            argv += ["--spam", spam[0]]
            spec["spam"] = spam[1]
        if flags:
            self._flags(rng, argv, spec, shots)
        if not gate_noise:
            spec.setdefault("seed", 0)  # no noise config, so no config seed
        return Op("grover", runs, tuple(argv + (self.base if gate_noise else [])), spec)

    def _simple(self, rng, argv: list[str], kind: str, runs: int, spec=None) -> Op:
        spec = dict(spec or {})
        if rng.random() < 1 / 3:
            argv = argv + ["--format", "csv"]
        return Op(kind, runs, tuple(argv + self.base), spec)

    # -- execution --------------------------------------------------------

    def execute(self, op: Op, out_dir: str):
        return self.pkg.cli.main(list(op.argv) + ["--out", out_dir])

    # -- checks -----------------------------------------------------------

    def check(self, op: Op, rc, out_dir: str) -> Verdict:
        v = Verdict()
        if rc != 0:
            v.bad.append(f"exit code {rc}")
            return v
        try:
            with open(os.path.join(out_dir, "results.json"), encoding="utf-8") as fh:
                doc = json.load(fh)
            v.bytes_written = sum(
                os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir)
            )
            meta = doc["meta"]
            if meta.get("command") != op.argv[0]:
                v.bad.append(f"meta.command {meta.get('command')!r}")
            want_seed = op.spec.get("seed", self.config_seed)
            if meta.get("seed") != want_seed:
                v.bad.append(f"meta.seed {meta.get('seed')} != {want_seed}")
            getattr(self, "_check_" + op.kind)(op, doc["rows"], v)
            if "csv" in op.argv:
                self._check_csv(doc["rows"], out_dir, v)
        except (OSError, KeyError, TypeError, ValueError, IndexError) as exc:
            v.bad.append(f"unreadable output: {type(exc).__name__}: {exc}")
        return v

    def _check_csv(self, rows: list[dict], out_dir: str, v: Verdict):
        with open(os.path.join(out_dir, "results.csv"), encoding="utf-8", newline="") as fh:
            table = list(csv.DictReader(fh))
        if len(table) != len(rows):
            v.bad.append(f"results.csv has {len(table)} rows, json {len(rows)}")
            return
        for line, row in zip(table, rows):
            for key, cell in line.items():
                value = row[key]
                same = float(cell) == value if isinstance(value, float) else cell == str(value)
                if not same:
                    v.bad.append(f"results.csv {key}={cell} vs json {value!r}")
                    return

    def _compare(self, v: Verdict, what: str, got, want, tol):
        got = np.asarray(got, dtype=np.float64)
        want = np.asarray(want, dtype=np.float64)
        if got.shape != want.shape:
            v.bad.append(f"{what}: shape {got.shape} != {want.shape}")
            return
        err = np.abs(got - want)
        i = int(np.argmax(err)) if err.size else 0
        if self.noisy:
            v.errs.append((float(err.flat[i]), what, float(want.flat[i])))
        if np.any(err > tol):
            v.bad.append(f"{what}: {got.flat[i]!r} vs reference {want.flat[i]!r}")

    def _check_field(self, v, what, got, right, known_wrong, iterations, tol):
        """A field either matches its reference or shows the documented
        defect of reporting one-iteration ideal values for k > 1."""
        if abs(got - right) <= tol:
            return
        if iterations > 1 and abs(got - known_wrong) <= tol:
            v.known.append(f"{what} {got:.6g} is the 1-iteration value, want {right:.6g}")
            return
        v.bad.append(f"{what} {got!r} vs reference {right!r}")

    def _check_grover(self, op: Op, rows: list[dict], v: Verdict):
        s = op.spec
        if s["all"]:
            sets = [tuple(c) for c in itertools.combinations(_labels(s["n"]), s["t"])]
        else:
            sets = [s["marked"]]
        if len(rows) != len(sets):
            v.bad.append(f"{len(rows)} rows for {len(sets)} marked sets")
            return
        for row, marked in zip(rows, sets):
            self._check_grover_row(op, row, marked, v)

    def _check_grover_row(self, op: Op, row: dict, marked: tuple[str, ...], v: Verdict):
        s = op.spec
        n, style, k = s["n"], s["style"], s["iterations"]
        t, size = len(marked), 2**n
        where = "+".join(marked)
        if (row["marked"], row["style"], row["n_qubits"]) != (where, style, n):
            v.bad.append(f"row identity {row['marked']}/{row['style']}/{row['n_qubits']}")
            return
        if n == 3 and t <= 2:
            distance = 0 if t == 1 else sum(a != b for a, b in zip(*marked))
            want_xx = k * ref.README_GROVER_XX[(t, distance)][style]
            if row["xx_count"] != want_xx:
                v.bad.append(f"{where}: xx_count {row['xx_count']} != {want_xx}")
        dist = np.asarray(row["distribution"], dtype=np.float64)
        want, tol = self._grover_reference(op, marked)
        self._compare(v, f"{where} distribution", dist, want, tol)
        if dist.shape != (size,):
            return
        idx = [int(label, 2) for label in marked]
        if abs(row["asp"] - float(dist[idx].sum())) > 1e-12:
            v.bad.append(f"{where}: asp {row['asp']} is not the marked mass")
        sampled = self.noisy and s["gate_noise"]
        asp_tol = float(ref.sampling_tol(want[idx].sum(), TRAJECTORIES)) if sampled else 1e-9
        self._compare(v, f"{where} asp", row["asp"], want[idx].sum(), asp_tol)
        if abs(row["asp_classical"] - ref.classical_success(size, t)) > 1e-12:
            v.bad.append(f"{where}: asp_classical {row['asp_classical']}")
        self._check_field(
            v, f"{where} asp_ideal", row["asp_ideal"], ref.grover_success(n, t, k),
            ref.grover_success(n, t, 1), k, 1e-12,
        )
        self._check_field(
            v, f"{where} sso", row["sso"],
            ref.overlap(ref.grover_distribution(n, marked, k), dist),
            ref.overlap(ref.grover_distribution(n, marked, 1), dist), k, SSO_TOL,
        )
        shots = s.get("shots")
        if shots is None:
            if "counts" in row:
                v.bad.append(f"{where}: counts without --shots")
            return
        counts = np.asarray(row.get("counts", []), dtype=np.int64)
        p = dist / dist.sum()
        if counts.shape != (size,) or counts.sum() != shots:
            v.bad.append(f"{where}: counts {counts.tolist()} for {shots} shots")
        elif any(abs(c - shots * q) > ref.count_tol(shots, q) for c, q in zip(counts, p)):
            v.bad.append(f"{where}: counts {counts.tolist()} far from {shots} x distribution")

    def _grover_reference(self, op: Op, marked):
        s = op.spec
        return ref.grover_distribution(s["n"], marked, s["iterations"]), 1e-9

    def _check_gate_table(self, op: Op, rows: list[dict], v: Verdict):
        names = sorted(TEMPLATE_QUBITS)
        if [r["name"] for r in rows] != names:
            v.bad.append(f"gate-table names {[r['name'] for r in rows]}")
            return
        for row in rows:
            name = row["name"]
            if row["n_qubits"] != TEMPLATE_QUBITS[name]:
                v.bad.append(f"{name}: n_qubits {row['n_qubits']}")
            if row["xx_count"] != ref.README_XX[name]:
                v.bad.append(f"{name}: xx_count {row['xx_count']} != {ref.README_XX[name]}")
            if not (isinstance(row["rotation_count"], int) and row["rotation_count"] > 0):
                v.bad.append(f"{name}: rotation_count {row['rotation_count']!r}")
            want, tol = self._fidelity_reference(name)
            self._compare(v, f"{name} fidelity", row["truth_table_fidelity"], want, tol)

    def _fidelity_reference(self, name: str):
        return 1.0, 1e-9

    def _probe_tables(self):
        """Reference probe table per variant, exact or under the run's noise."""
        key = ("probe",)
        if key not in self._refs:
            dec = self.pkg.decompositions
            t3 = _gate_tuples(dec.GATE_TEMPLATES["toffoli3"].build(None))
            cz = _gate_tuples(dec.cz_template(0, 1))
            p_xx, p_r = self._rates()
            tables = {}
            for name, gates in (("toffoli3", t3), ("toffoli3+cz", t3 + cz)):
                table = np.zeros((8, 8))
                for k in range(8):
                    sign = 1 if k % 2 == 0 else -1
                    rot = [("R", q, sign * math.pi / 2, math.pi / 2) for q in range(3)]
                    table[k] = ref.noisy_probabilities(rot + gates + rot, 3, [k], p_xx, p_r)[0]
                tables[name] = table
            self._refs[key] = tables
        return self._refs[key]

    def _rates(self):
        return 0.0, 0.0

    def _check_tomography(self, op: Op, rows: list[dict], v: Verdict):
        tables = self._probe_tables()
        if [r["variant"] for r in rows] != list(tables):
            v.bad.append(f"tomography variants {[r['variant'] for r in rows]}")
            return
        for row, (name, want) in zip(rows, tables.items()):
            table = np.asarray(row["table"], dtype=np.float64)
            flip = want[np.arange(8), 7 - np.arange(8)]
            if self.noisy:
                tol, s_tol, s_want = ref.sampling_tol(want, TRAJECTORIES), ref.mean_tol(
                    flip, TRAJECTORIES), float(flip.mean())
            else:
                tol, s_tol = 1e-9, 1e-9
                s_want = {"toffoli3": 1.0, "toffoli3+cz": 0.25}[name]
            self._compare(v, f"{name} probe table", table, want, tol)
            self._compare(v, f"{name} probe success", row["success"], s_want, s_tol)
            if table.shape == (8, 8):
                mean_flip = float(table[np.arange(8), 7 - np.arange(8)].mean())
                if abs(row["success"] - mean_flip) > 1e-12:
                    v.bad.append(f"{name}: success is not the table's flip mass")

    def _check_costs(self, op: Op, rows: list[dict], v: Verdict):
        lo, hi = op.spec["min"], op.spec["max"]
        if [r["n"] for r in rows] != list(range(lo, hi + 1)):
            v.bad.append(f"costs rows {[r['n'] for r in rows]}")
            return
        for row in rows:
            if (row["xx_count"], row["ancilla_count"]) != ref.ncx_cost(row["n"]):
                v.bad.append(f"costs n={row['n']}: {row['xx_count']}, {row['ancilla_count']}")


class ExactCli(CliWorkload):
    name = "exact_cli"
    # (data qubits, marked count); every style and 1..3 iterations each.
    GRID = [(1, 1), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)]

    def pass_ops(self, index: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        ops = [
            self._grover(rng, n, t, style, k)
            for (n, t) in self.GRID for style in STYLES for k in (1, 2, 3)
        ]
        for t in (1, 2):
            ops.append(self._grover(rng, 3, t, rng.choice(STYLES), 1, all_sets=True))
        ops.append(self._simple(rng, ["gate-table"], "gate_table", 40))
        ops.append(self._simple(rng, ["tomography"], "tomography", 16))
        lo = rng.randint(3, 5)
        hi = lo + rng.randint(0, 7)
        ops.append(self._simple(rng, ["costs", "--min", str(lo), "--max", str(hi)], "costs",
                                0, {"min": lo, "max": hi}))
        rng.shuffle(ops)
        return ops


class NoisyCli(CliWorkload):
    name = "noisy_cli"
    noisy = True
    # (data qubits, marked count, iterations); every style each.
    GRID = [(1, 1, (1, 2, 3)), (2, 1, (1, 2, 3)), (2, 2, (1, 2, 3)), (2, 3, (1, 2, 3)),
            (3, 1, (1, 2)), (3, 2, (1, 2))]

    def __init__(self, pkg, seed: int, work_dir: str):
        super().__init__(pkg, seed, work_dir)
        rng = random.Random(f"{self.name}:{seed}:config")
        self.noise = {
            "p_xx": pkg.noise.FITTED_P_XX,
            "p_r": rng.uniform(0.001, 0.002),
            "eps0": rng.uniform(0.005, 0.015),
            "eps1": rng.uniform(0.01, 0.03),
            "crosstalk": rng.uniform(0.002, 0.01),
            "trajectories": TRAJECTORIES,
            "seed": rng.randrange(10**6),
        }
        # Readout model of the noise config, used unless an op passes --spam.
        self.spam = {k: self.noise[k] for k in ("eps0", "eps1", "crosstalk")}
        self.spam_file = {
            "eps0": rng.uniform(0.005, 0.02),
            "eps1": rng.uniform(0.01, 0.04),
            "crosstalk": rng.uniform(0.0, 0.01),
        }
        self.config_seed = self.noise["seed"]
        self.noise_path = os.path.join(work_dir, "noise.json")
        self.spam_path = os.path.join(work_dir, "spam.json")
        for path, doc in ((self.noise_path, self.noise), (self.spam_path, self.spam_file)):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        self.base = ["--noise", self.noise_path]

    def pass_ops(self, index: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        spam = (self.spam_path, self.spam_file)
        ops = [
            self._grover(rng, n, t, style, k, spam=spam if rng.random() < 0.5 else None)
            for _ in range(2) for (n, t, ks) in self.GRID for style in STYLES for k in ks
        ]
        # Readout errors alone: checked exactly, unlike the sampled gate noise.
        ops += [self._grover(rng, n, rng.randint(1, 2), style, 1, spam=spam, gate_noise=False)
                for n in (2, 3) for style in STYLES]
        ops.append(self._grover(rng, 3, 2, "boolean", 1, all_sets=True, spam=spam,
                                shots=rng.choice((1000, 10000))))
        ops.append(self._simple(rng, ["gate-table"], "gate_table", 40))
        ops.append(self._simple(rng, ["tomography"], "tomography", 16))
        rng.shuffle(ops)
        return ops

    def _rates(self):
        return self.noise["p_xx"], self.noise["p_r"]

    def _grover_reference(self, op: Op, marked):
        s = op.spec
        spam = s.get("spam", self.spam)
        m = ref.readout_matrix(s["n"], spam["eps0"], spam["eps1"], spam["crosstalk"])
        if not s["gate_noise"]:
            return m @ ref.grover_distribution(s["n"], marked, s["iterations"]), 1e-9
        key = ("grover", s["n"], marked, s["style"], s["iterations"])
        if key not in self._refs:
            g = self.pkg.grover
            circuit = g.grover_circuit(
                g.GroverConfig(g.OracleSpec(s["n"], marked, s["style"]), s["iterations"])
            )
            probs = ref.noisy_probabilities(
                _gate_tuples(circuit), circuit.n_qubits, [0], *self._rates()
            )[0]
            self._refs[key] = ref.marginal(probs, circuit.n_qubits, tuple(range(s["n"])))
        want = m @ self._refs[key]
        return want, ref.sampling_tol(want, TRAJECTORIES)

    def _fidelity_reference(self, name: str):
        key = ("fidelity", name)
        if key not in self._refs:
            circuit = self.pkg.decompositions.GATE_TEMPLATES[name].build(None)
            n = circuit.n_qubits
            k = ref.TEMPLATE_IDEAL[name].shape[0].bit_length() - 1
            io = tuple(range(k))
            inputs = [ref.basis_index(n, io, x) for x in range(2**k)]
            probs = ref.noisy_probabilities(_gate_tuples(circuit), n, inputs, *self._rates())
            perm = ref.template_permutation(name)
            hits = np.array([ref.marginal(p, n, io)[perm[x]] for x, p in enumerate(probs)])
            self._refs[key] = (float(hits.mean()), ref.mean_tol(hits, TRAJECTORIES))
        return self._refs[key]


class WideUnitary:
    """Library loop: circuit_from_json -> circuit_unitary -> truth_table."""

    name = "wide_unitary"
    # (qubits, gates, io qubits) of the random circuits in every pass. Op
    # costs sort as four small templates < (5, 20, 5) < the rest, with
    # gaps of 1.5x or more around it, so the op_s.p50 window holds that
    # one shape only; short ops give it many samples per run.
    SLOTS = [(5, 20, 5), (5, 48, 4), (6, 24, 6), (6, 48, 5)]
    # Exact share of couplings per circuit: the seed places the gates but
    # does not change a pass's cost.
    XX_SHARE = 0.35

    def __init__(self, pkg, seed: int, work_dir: str):
        self.pkg = pkg
        self.seed = seed

    def _random_op(self, rng: random.Random, n: int, n_gates: int, k: int) -> Op:
        n_xx = round(self.XX_SHARE * n_gates)
        kinds = ["XX"] * n_xx + ["R"] * (n_gates - n_xx)
        rng.shuffle(kinds)
        gates = []
        for kind in kinds:
            if kind == "XX":
                qa, qb = rng.sample(range(n), 2)
                gates.append(("XX", qa, qb, rng.uniform(-math.pi, math.pi)))
            else:
                gates.append(("R", rng.randrange(n), rng.uniform(-2 * math.pi, 2 * math.pi),
                              rng.uniform(-math.pi, math.pi)))
        io = tuple(rng.sample(range(n), k))
        spec = {"label": f"random n={n} gates={n_gates} io={io}", "n": n, "gates": gates,
                "io": io, "text": _circuit_json(n, gates), "template": None}
        return Op("unitary", 2**n + 2**k, (), spec)

    def _template_op(self, rng: random.Random, name: str) -> Op:
        n = TEMPLATE_QUBITS[name]
        signs = {(a, b): rng.choice((1, -1)) for a in range(n) for b in range(a + 1, n)}
        circuit = self.pkg.decompositions.GATE_TEMPLATES[name].build(signs)
        gates = _gate_tuples(circuit)
        k = ref.TEMPLATE_IDEAL[name].shape[0].bit_length() - 1
        spec = {"label": f"template {name} signs={sorted(signs.items())}", "n": n,
                "gates": gates, "io": tuple(range(k)), "text": _circuit_json(n, gates),
                "template": name}
        return Op("unitary", 2**n + 2**k, (), spec)

    def probe(self) -> Op:
        return self._random_op(random.Random(0), *self.SLOTS[0])

    def pass_ops(self, index: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        ops = [self._random_op(rng, *slot) for slot in self.SLOTS]
        ops += [self._template_op(rng, name) for name in sorted(TEMPLATE_QUBITS)]
        rng.shuffle(ops)
        return ops

    def execute(self, op: Op, out_dir: str):
        circuit = self.pkg.gates.circuit_from_json(op.spec["text"])
        return (
            self.pkg.gates.circuit_unitary(circuit),
            self.pkg.metrics.truth_table(circuit, op.spec["io"]),
        )

    def check(self, op: Op, result, out_dir: str) -> Verdict:
        v = Verdict()
        u, table = (np.asarray(a) for a in result)
        s = op.spec
        n, io, name = s["n"], s["io"], s["template"]
        d = 2**n
        if u.shape != (d, d) or table.shape != (2 ** len(io),) * 2:
            v.bad.append(f"shapes {u.shape}, {table.shape}")
            return v
        if np.max(np.abs(u.conj().T @ u - np.eye(d))) > 1e-9:
            v.bad.append("U^dagger U != I")
        u_ref = ref.unitary(s["gates"], n)
        if np.max(np.abs(u - u_ref)) > 1e-9:
            v.bad.append(f"unitary differs from Kronecker reference by "
                         f"{np.max(np.abs(u - u_ref)):.3g}")
        inputs = [ref.basis_index(n, io, x) for x in range(2 ** len(io))]
        want = np.array([ref.marginal(np.abs(u_ref[:, j]) ** 2, n, io) for j in inputs])
        if name is not None:
            xx = sum(g[0] == "XX" for g in s["gates"])
            if xx != ref.README_XX[name]:
                v.bad.append(f"{name}: {xx} couplings, README says {ref.README_XX[name]}")
            if ref.template_unitary_error(name, u, n) > 1e-9:
                v.bad.append(f"{name}: not the ideal gate up to global phase")
            perm = np.eye(len(inputs))[ref.template_permutation(name)]
            if np.max(np.abs(table - perm)) > 1e-9:
                v.bad.append(f"{name}: truth table is not the ideal permutation")
        if np.max(np.abs(table - want)) > 1e-9:
            v.bad.append(f"truth table differs from reference by {np.max(np.abs(table - want)):.3g}")
        return v


WORKLOADS = {w.name: w for w in (ExactCli, NoisyCli, WideUnitary)}
