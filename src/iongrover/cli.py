"""Command line front end.

Four subcommands: ``gate-table`` characterizes the compiled gate
templates, ``grover`` runs search instances (optionally every oracle of
a given size), ``tomography`` runs the fixed-basis probe
on the doubly-controlled NOT with and without an injected error, and
``costs`` tabulates predicted resources for wider controlled gates.

Every command writes ``results.json`` ({meta, rows}, schema in
``schemas/results.schema.json``) into --out; ``--format csv`` adds flat
CSV exports. Noisy figures are exact (density-matrix channel), so the
seed only affects sampled ``--shots`` counts and trajectory counts change
nothing. Outputs are byte-identical for identical arguments and seed:
nothing is written until a command has fully succeeded.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import replace

from . import __version__
from .decompositions import GATE_TEMPLATES, cz_template, toffoli_n_cost
from .gates import concat, xx_count
from .grover import (
    GroverConfig,
    OracleSpec,
    STYLES,
    classical_asp,
    enumerate_oracles,
    run_grover,
    theoretical_asp,
)
from .metrics import (
    asp,
    expected_grover_distribution,
    permutation_of,
    sso,
    truth_table,
    truth_table_fidelity,
)
from .noise import NoiseConfig, NoiseModel, SpamModel, apply_spam, load_noise_config
from .statevector import all_labels, sample_counts
from .tomography import limited_tomography, tomography_success

_NO_NOISE = NoiseConfig(NoiseModel(), SpamModel())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iongrover",
        description="Grover search and gate synthesis in trapped-ion native gates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--noise", help="JSON noise/SPAM config file")
        p.add_argument("--seed", type=int, default=None, help="overrides the config seed")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("gate-table", help="characterize compiled gate templates")
    p.add_argument("--gate", action="append", help="template name (repeatable); default all")
    common(p)

    p = sub.add_parser("grover", help="run search instances")
    p.add_argument("--style", choices=STYLES, required=True)
    p.add_argument("--marked", action="append", help="marked label (repeatable)")
    p.add_argument("--all", action="store_true", help="every marked set of size --t")
    p.add_argument("--t", type=int, default=1, help="marked-set size for --all")
    p.add_argument("--n", type=int, default=3, help="data qubits")
    p.add_argument("--iterations", type=int, default=1)
    p.add_argument("--spam", help="JSON SPAM config file (eps0/eps1/crosstalk)")
    p.add_argument("--shots", type=int, default=None, help="also sample counts")
    common(p)

    p = sub.add_parser("tomography", help="fixed-basis probe of the 3-qubit gate")
    p.add_argument("--trajectories", type=int, default=None,
                   help="accepted for old scripts; results are exact and do not "
                        "depend on it")
    common(p)

    p = sub.add_parser("costs", help="predicted resources for wider controlled gates")
    p.add_argument("--min", type=int, default=3)
    p.add_argument("--max", type=int, default=8)
    common(p)

    return parser


def _load_configs(args) -> NoiseConfig:
    cfg = load_noise_config(args.noise) if args.noise else _NO_NOISE
    if getattr(args, "spam", None):
        cfg = replace(cfg, spam=load_noise_config(args.spam).spam)
    if args.seed is not None:
        if args.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {args.seed}")
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _write_outputs(out_dir: str, files: dict[str, str]):
    """Write every file under a temporary name in ``out_dir``, then rename
    each into place, so a failed write leaves no partial output files and
    no directory that this call created."""
    made = []  # directories this call creates, deepest first
    path = os.path.abspath(out_dir)
    while not os.path.exists(path):
        made.append(path)
        path = os.path.dirname(path)
    moves = []
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name, text in files.items():
            tmp = os.path.join(out_dir, f".{name}.{os.getpid()}.tmp")
            moves.append((tmp, os.path.join(out_dir, name)))
            with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        for _, final in moves:
            if os.path.isdir(final):
                raise IsADirectoryError(errno.EISDIR, "output name is a directory", final)
        for tmp, final in moves:
            os.replace(tmp, final)
    except BaseException:
        for tmp, _ in moves:
            try:
                os.remove(tmp)
            except FileNotFoundError:
                pass
        for path in made:
            try:
                os.rmdir(path)
            except OSError:
                pass
        raise


def _csv(header: list[str], rows: list[list]) -> str:
    cells = [header] + [[repr(float(c)) if isinstance(c, float) else str(c) for c in row]
                        for row in rows]
    return "".join(",".join(line) + "\n" for line in cells)


def _files(args, cfg: NoiseConfig, rows: list[dict], columns: list[str], long=None):
    """Output files of a command: ``results.json`` always; under
    ``--format csv`` also ``results.csv`` with ``columns`` of every row
    and, if ``long`` is given as ``(file name, header, expand)``, a long
    table of the rows ``expand(row)`` yields for every row."""
    doc = {
        "meta": {"command": args.command, "seed": cfg.seed, "version": __version__},
        "rows": rows,
    }
    files = {"results.json": json.dumps(doc, indent=2, sort_keys=True) + "\n"}
    if args.format == "csv":
        files["results.csv"] = _csv(columns, [[r[c] for c in columns] for r in rows])
        if long is not None:
            name, header, expand = long
            files[name] = _csv(header, [line for r in rows for line in expand(r)])
    return files


def cmd_gate_table(args) -> dict[str, str]:
    cfg = _load_configs(args)
    names = args.gate or sorted(GATE_TEMPLATES)
    rows = []
    for name in names:
        if name not in GATE_TEMPLATES:
            raise ValueError(
                f"unknown gate {name!r}; known: {', '.join(sorted(GATE_TEMPLATES))}"
            )
        tmpl = GATE_TEMPLATES[name]
        circuit = tmpl.build(None)
        table = truth_table(circuit, tmpl.io_qubits, cfg.noise)
        fidelity = truth_table_fidelity(table, permutation_of(tmpl.ideal))
        xx = xx_count(circuit)
        rows.append({"name": name, "n_qubits": circuit.n_qubits, "xx_count": xx,
                     "rotation_count": len(circuit.gates) - xx, "truth_table_fidelity": fidelity})
    return _files(args, cfg, rows,
                  ["name", "n_qubits", "xx_count", "rotation_count", "truth_table_fidelity"])


def _one_grover(spec: OracleSpec, iterations: int, cfg: NoiseConfig, shots, job_seed):
    res = run_grover(GroverConfig(spec, iterations), noise=cfg.noise)
    dist = res.distribution
    if not cfg.spam.trivial:
        dist = apply_spam(dist, cfg.spam)
    n = spec.n_qubits
    expected = expected_grover_distribution(n, spec.marked, iterations)
    row = {
        "marked": "+".join(spec.marked),
        "style": spec.style,
        "n_qubits": n,
        "xx_count": res.xx_count,
        "asp": asp(dist, spec.marked),
        "asp_ideal": theoretical_asp(2**n, len(spec.marked), iterations),
        "asp_classical": classical_asp(2**n, len(spec.marked)),
        "sso": sso(expected, dist),
        "distribution": [float(p) for p in dist],
    }
    if shots is not None:
        row["counts"] = [int(c) for c in sample_counts(dist, shots, (job_seed, 1))]
    return row


def cmd_grover(args) -> dict[str, str]:
    cfg = _load_configs(args)
    if bool(args.marked) == bool(args.all):
        raise ValueError("give either --marked labels or --all, not both")
    if args.shots is not None and args.shots < 1:
        raise ValueError(f"shots must be >= 1, got {args.shots}")
    marked_sets = enumerate_oracles(args.n, args.t) if args.all else [tuple(args.marked)]
    rows = [
        _one_grover(OracleSpec(args.n, marked, args.style), args.iterations, cfg, args.shots,
                    cfg.seed * 100003 + idx)
        for idx, marked in enumerate(marked_sets)
    ]
    labels = all_labels(args.n)

    def by_label(r):
        return ([r["marked"], r["style"], label, p] for label, p in zip(labels, r["distribution"]))

    return _files(args, cfg, rows,
                  ["marked", "style", "n_qubits", "xx_count", "asp", "asp_ideal",
                   "asp_classical", "sso"],
                  ("distributions.csv", ["marked", "style", "label", "probability"], by_label))


def cmd_tomography(args) -> dict[str, str]:
    cfg = _load_configs(args)
    # Validated for old scripts; the probe is exact, so it is used nowhere.
    if args.trajectories is not None and args.trajectories < 1:
        raise ValueError(f"trajectories must be a positive integer, got {args.trajectories}")
    ideal = GATE_TEMPLATES["toffoli3"].build(None)
    rows = []
    for name, circuit in (("toffoli3", ideal), ("toffoli3+cz", concat(ideal, cz_template(0, 1)))):
        table = limited_tomography(circuit, cfg.noise)
        rows.append({"variant": name, "success": tomography_success(table),
                     "table": [[float(p) for p in row] for row in table]})

    def by_entry(r):
        return ([r["variant"], format(i, "03b"), format(j, "03b"), p]
                for i, row in enumerate(r["table"]) for j, p in enumerate(row))

    return _files(args, cfg, rows, ["variant", "success"],
                  ("tomography.csv", ["variant", "input", "output", "probability"], by_entry))


def cmd_costs(args) -> dict[str, str]:
    cfg = _load_configs(args)
    if args.min < 3:
        raise ValueError(f"cost model starts at n = 3, got --min {args.min}")
    if args.max < args.min:
        raise ValueError(f"--max {args.max} below --min {args.min}")
    rows = []
    for n in range(args.min, args.max + 1):
        report = toffoli_n_cost(n)
        rows.append({"n": n, "xx_count": report.xx_count, "ancilla_count": report.ancilla_count})
    return _files(args, cfg, rows, ["n", "xx_count", "ancilla_count"])


_COMMANDS = {
    "gate-table": cmd_gate_table,
    "grover": cmd_grover,
    "tomography": cmd_tomography,
    "costs": cmd_costs,
}


_parser: argparse.ArgumentParser | None = None  # built by the first main call


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        files = _COMMANDS[args.command](args)
        _write_outputs(args.out, files)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
