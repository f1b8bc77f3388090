"""iongrover benchmark: one command, three workloads, checked outputs.

    python3 bench/run.py --workload exact_cli --seed 1 --seconds 36 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy. Load is one process and one
client thread in a closed loop: each op starts when the previous one has
returned. The program's own thread pool (``cli.cmd_grover``) is part of
what is measured; the benchmark starts no threads of its own.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs one
fixed pass of ops alternately untraced and traced and reports per-layer
metrics. Human-readable lines come first; the last line of standard
output is one JSON object {correct, attempted, failed, metrics}.

Seeds: ``DEFAULT_SEED`` while developing; ``HELD_OUT_SEED`` is kept for
confirming a claimed gain on a seed no change was tuned on.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, Verdict

DEFAULT_SEED = 1
HELD_OUT_SEED = 1703105
SETUP_SAMPLES = 7
QUANTILE_HALF = 0.05

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SCHEMA = os.path.join(SRC, "iongrover", "schemas", "results.schema.json")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Per-layer values that are counts of work: they must repeat exactly.
COUNT_KEYS = ("statevector.apps", "statevector.bytes_computed", "gates.run_calls",
              "gates.gates_run", "decompositions.fused_ratio", "grover.circuits",
              "grover.gates_per_circuit", "grover.xx_per_circuit", "noise.run_noisy_calls",
              "noise.traj_gates", "tomography.calls", "cli.bytes_written")
UNITS = {"apps": "count", "bytes_computed": "bytes", "run_calls": "count",
         "gates_run": "count", "us_per_app": "us", "us_per_gate": "us",
         "fused_ratio": "ratio", "circuits": "count", "gates_per_circuit": "count",
         "xx_per_circuit": "count", "run_noisy_calls": "count", "traj_gates": "count",
         "ns_per_traj_gate": "ns", "err_max": "prob", "calls": "count",
         "bytes_written": "bytes", "overhead_frac": "ratio"}


def load_package():
    """Import iongrover from this checkout's src/ or exit with an error."""
    if not os.path.isfile(os.path.join(SRC, "iongrover", "__init__.py")):
        sys.exit(f"error: no iongrover sources under {SRC}")
    sys.path.insert(0, SRC)
    pkg = importlib.import_module("iongrover")
    importlib.import_module("iongrover.cli")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported iongrover from {pkg.__file__}, not {SRC}")
    return pkg


def environment(pkg) -> dict:
    import numpy

    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.processor() or "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k, "unset") for k in BLAS_THREAD_VARS},
        "iongrover": pkg.__version__,
        "load": "closed loop, 1 process, 1 client thread",
    }


class Work:
    """Fresh output directories inside the checkout, removed at the end."""

    def __init__(self):
        self.root = os.path.join(OUT_DIR, f"work-{os.getpid()}")
        os.makedirs(self.root, exist_ok=True)
        self._n = 0

    def next_dir(self) -> str:
        self._n += 1
        return os.path.join(self.root, f"op{self._n}")

    def close(self):
        shutil.rmtree(self.root, ignore_errors=True)


class Tally:
    """Ops attempted, failed (unexpected) and known-wrong (documented defect)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known = Counter()
        self.known_example: dict[str, str] = {}
        self.bad: list[str] = []
        self.err_max = (0.0, "none", 0.0)

    def add(self, op, verdict):
        self.attempted += 1
        if verdict.status == "bad":
            self.failed += 1
            self.bad.append(f"{op.label}: {'; '.join(verdict.bad[:3])}")
        elif verdict.status == "known":
            s = op.spec
            key = f"{op.kind} n={s['n']} t={s['t']} style={s['style']} iterations={s['iterations']}"
            self.known[key] += 1
            self.known_example.setdefault(key, "; ".join(verdict.known[:2]))
        for err in verdict.errs:
            if err[0] > self.err_max[0]:
                self.err_max = (err[0], f"{op.label}: {err[1]}", err[2])

    @property
    def wrong(self) -> int:
        return self.failed + sum(self.known.values())


def run_op(workload, op, out_dir: str):
    """Time one op. Returns (seconds, result, error message or None)."""
    start = perf_counter()
    try:
        result, error = workload.execute(op, out_dir), None
    except SystemExit as exc:
        result, error = None, f"SystemExit({exc.code})"
    except Exception as exc:  # the loop must go on; the op counts as failed
        result, error = None, f"{type(exc).__name__}: {exc}"
    return perf_counter() - start, result, error


def checked_op(workload, op, work: Work, tally: Tally, tracer=None, op_id=None):
    out_dir = work.next_dir()
    if tracer is not None:
        tracer.op_id, tracer.recording = op_id, True
    elapsed, result, error = run_op(workload, op, out_dir)
    if tracer is not None:
        tracer.recording = False
    if error is not None:
        verdict = Verdict(bad=[error])
    else:
        verdict = workload.check(op, result, out_dir)
    tally.add(op, verdict)
    return elapsed, result, verdict, out_dir


def run_pass(workload, ops, work, tally, latencies=None, tracer=None):
    """Run ops in order; returns (timed seconds, bytes written)."""
    total, written = 0.0, 0
    for i, op in enumerate(ops):
        elapsed, _, verdict, out_dir = checked_op(workload, op, work, tally, tracer, i)
        shutil.rmtree(out_dir, ignore_errors=True)
        total += elapsed
        written += verdict.bytes_written
        if latencies is not None:
            latencies.append(elapsed)
    return total, written


def setup_times(workload, work: Work) -> tuple[list[float], list[str]]:
    """Fresh interpreter -> import iongrover -> probe op, several times."""
    op = workload.probe()
    samples, errors = [], []
    for _ in range(SETUP_SAMPLES):
        spec = {"root": ROOT}
        if op.argv:
            spec["argv"] = list(op.argv) + ["--out", work.next_dir()]
        else:
            spec.update(circuit=op.spec["text"], io=list(op.spec["io"]))
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"), json.dumps(spec)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            errors.append(f"setup probe exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
            continue
        samples.append(float(proc.stdout.split()[-1]) - start)
    return samples, errors


def determinism(workload, work: Work, tally: Tally):
    """Run one op twice with identical arguments; outputs must be identical,
    and CLI results must validate against the shipped schema."""
    ops = workload.pass_ops(0)
    # A sampled, single-iteration op: it exercises the seeds and is never
    # one of the known-defect rows, so wrong_frac does not depend on the pick.
    op = next((o for o in ops if o.spec.get("shots") and o.spec["iterations"] == 1
               and not o.spec["all"] and o.spec["gate_noise"]), ops[0])
    outputs, problems = [], []
    for _ in range(2):
        _, result, verdict, out_dir = checked_op(workload, op, work, tally)
        if op.argv:
            try:
                with open(os.path.join(out_dir, "results.json"), "rb") as fh:
                    outputs.append(fh.read())
            except OSError as exc:
                outputs.append(repr(exc).encode())
        elif result is not None:
            outputs.append(b"".join(a.tobytes() for a in result))
        shutil.rmtree(out_dir, ignore_errors=True)
    if len(outputs) != 2 or outputs[0] != outputs[1]:
        problems.append(f"not deterministic: {op.label}")
    elif op.argv:
        try:
            import jsonschema

            with open(SCHEMA, encoding="utf-8") as fh:
                jsonschema.validate(json.loads(outputs[0]), json.load(fh))
        except ImportError:
            problems.append("jsonschema is not installed; results.json not validated")
        except (jsonschema.ValidationError, ValueError) as exc:
            problems.append(f"results.json fails the schema: {exc}")
    if problems:
        tally.failed += 1
        tally.bad.extend(problems)


def window_quantile(values: list[float], q: float) -> float:
    """Mean of the order statistics whose ranks lie within q +- QUANTILE_HALF.

    Op costs come in clusters (one per op kind and size), so a single
    order statistic jumps between clusters when a rank shifts by one;
    the window mean moves smoothly instead.
    """
    xs = sorted(values)
    n = len(xs)
    lo = min(n - 1, max(0, math.floor((q - QUANTILE_HALF) * n)))
    hi = max(lo + 1, min(n, math.ceil((q + QUANTILE_HALF) * n)))
    return statistics.fmean(xs[lo:hi])


def tail_level(n: int) -> float:
    """p90, or the highest percentile whose window keeps 10 samples beyond it."""
    return max(0.5, min(0.9, 1 - 10 / n - QUANTILE_HALF))


def measure(workload, seconds: float, work: Work, tally: Tally):
    samples, errors = setup_times(workload, work)
    if not samples:
        sys.exit("error: every set-up probe failed: " + " | ".join(errors))
    tally.bad.extend(errors)
    tally.failed += len(errors)
    run_pass(workload, [workload.probe()], work, tally)  # warm-up, untimed
    latencies: list[float] = []
    timed, runs, passes = 0.0, 0, 0
    while True:
        ops = workload.pass_ops(passes)
        timed += run_pass(workload, ops, work, tally, latencies)[0]
        runs += sum(op.runs for op in ops)
        passes += 1
        if timed + timed / passes / 2 >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    determinism(workload, work, tally)
    q = tail_level(len(latencies))
    p50, p90 = window_quantile(latencies, 0.5), window_quantile(latencies, q)
    setup_s = statistics.median(samples)
    lines = [
        f"passes {passes}, ops timed {len(latencies)}, runs {runs}, timed {timed:.3f} s",
        f"setup_s      {setup_s:.4f} s       median of {len(samples)} fresh interpreters "
        f"({', '.join(f'{x:.3f}' for x in samples)})",
        f"runs_per_s   {runs / timed:.4f} runs/s  {runs} runs / {timed:.3f} s timed",
        f"op_s.p50     {p50:.6f} s       mean of p45..p55, n={len(latencies)}",
        f"op_s.p90     {p90:.6f} s       mean of p{100 * q - 5:.0f}..p{100 * q + 5:.0f}, "
        f"n={len(latencies)}",
        f"peak_rss_mb  {peak_rss_mb:.2f} MB      ru_maxrss of this fresh process",
        f"wrong_frac   {tally.wrong / tally.attempted:.6f}     {tally.wrong} of {tally.attempted}"
        f" ops ({tally.failed} failed, {sum(tally.known.values())} known defect);"
        f" reported as ok_frac = 1 - wrong_frac",
    ]
    metrics = {
        "setup_s": (setup_s, "s"),
        "runs_per_s": (runs / timed, "runs/s"),
        "op_s.p50": (p50, "s"),
        "op_s.p90": (p90, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_frac": (1 - tally.wrong / tally.attempted, "ratio"),
    }
    return metrics, lines


def trace(workload, seconds: float, work: Work, tally: Tally, pkg, spans_path: str):
    run_pass(workload, [workload.probe()], work, tally)  # warm-up, untimed
    ops = workload.pass_ops(0)
    tracer = Tracer()
    untraced, traced, layers, threads = [], [], [], set()
    while True:
        untraced.append(run_pass(workload, ops, work, tally)[0])
        tracer.reset()
        tracer.install()
        try:
            pass_s, written = run_pass(workload, ops, work, tally, tracer=tracer)
        finally:
            tracer.uninstall()
        traced.append(pass_s)
        layer = layer_metrics(tracer.spans, tracer.captured,
                              pkg.decompositions.fuse_rotations, pkg.gates.xx_count)
        layer["cli.bytes_written"] = written
        layers.append(layer)
        threads |= {s[5] for s in tracer.spans}
        if sum(untraced) + sum(traced) + (untraced[-1] + traced[-1]) / 2 >= seconds:
            break
    determinism(workload, work, tally)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "name", "start", "end", "parent", "thread", "op"],
                   "ops": [op.label for op in ops], "spans": tracer.spans}, fh)
    result = {}
    for key in layers[0]:
        values = [layer[key] for layer in layers]
        if key in COUNT_KEYS:
            if len(set(values)) != 1:
                tally.failed += 1
                tally.bad.append(f"count {key} differs between identical passes: {values}")
            result[key] = values[0]
        else:
            result[key] = statistics.median(values)
    result["noise.err_max"] = tally.err_max[0]
    result["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    lines = [
        f"pass of {len(ops)} ops, {len(untraced)} untraced + {len(traced)} traced; "
        f"pass_s untraced {statistics.median(untraced):.4f}, traced {statistics.median(traced):.4f}",
        f"threads seen in spans: {len(threads)}; spans of the last pass in {spans_path}",
        "self_s are thread-seconds (pool threads overlap); bytes_computed is computed "
        "as 2 x 16 B x 2^n per gate application, not measured",
        f"noise.err_max base: {tally.err_max[1]} (reference {tally.err_max[2]:.6g})",
    ]
    lines += [f"{k:30s} {v:.6g}" for k, v in sorted(result.items())]
    metrics = {k: (v, UNITS.get(k.split(".", 1)[1], "s")) for k, v in result.items()}
    return metrics, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    pkg = load_package()
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    work = Work()
    tally = Tally()
    try:
        workload = WORKLOADS[args.workload](pkg, args.seed, work.root)
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
              f"trace {args.trace}")
        print("env " + json.dumps(environment(pkg), sort_keys=True))
        if args.trace:
            spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
            metrics, lines = trace(workload, args.seconds, work, tally, pkg, spans_path)
        else:
            metrics, lines = measure(workload, args.seconds, work, tally)
    finally:
        work.close()
    for line in lines:
        print(line)
    for key, count in sorted(tally.known.items()):
        print(f"known defect (one-iteration asp_ideal/sso for k > 1) x{count}: {key}: "
              f"{tally.known_example[key]}")
    for line in tally.bad[:50]:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
