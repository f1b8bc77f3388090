"""Span tracing of iongrover from the outside, and per-layer metrics.

``Tracer.install`` wraps every public function of the eight modules
(plus ``cli._one_grover``, the unit of work of the CLI's thread pool).
Modules import each other's functions by name, so every ``iongrover.*``
module attribute that is the same function object is rebound to the
wrapper; ``uninstall`` restores the originals. A function held elsewhere
(the CLI's command table holds the ``cmd_*`` functions) runs untraced,
but everything it calls is looked up through module attributes, so the
spans of its callees appear under ``cli.main``.

A span is (id, name, start, end, parent id, thread id, op id), kept in
memory. A span opened on a thread with nothing open (a pool thread) takes
as parent the innermost span open on the client thread, which is the
call waiting for the pool. Self time is a span's duration minus the
union of its children's intervals, so pool children overlapping each
other are subtracted once; per-module self time is summed over threads
and so counts thread-seconds when pool threads overlap.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter

MODULES = ("statevector", "gates", "decompositions", "grover", "metrics", "noise",
           "tomography", "cli")
EXTRA = {"cli": ("_one_grover",)}
APPLY = ("statevector.apply_one_qubit", "statevector.apply_two_qubit")
SPAM = ("noise.apply_spam", "noise.correct_spam", "noise.confusion_matrix")


def _capture_state_size(args, kwargs, result):
    return args[0].n_qubits


def _capture_circuit(args, kwargs, result):
    return args[0]


def _capture_noisy(args, kwargs, result):
    trajectories = args[2] if len(args) > 2 else kwargs["trajectories"]
    return args[0], trajectories


def _capture_result(args, kwargs, result):
    return result


CAPTURE = {
    "statevector.apply_one_qubit": _capture_state_size,
    "statevector.apply_two_qubit": _capture_state_size,
    "gates.run": _capture_circuit,
    "noise.run_noisy": _capture_noisy,
    "grover.grover_circuit": _capture_result,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.captured: dict[str, list] = defaultdict(list)
        self.recording = False
        self.op_id = None
        self._client = threading.get_ident()
        self._client_stack: list[int] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._saved: list[tuple] = []

    def reset(self):
        self.spans = []
        self.captured = defaultdict(list)

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._client:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self
        capture = CAPTURE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._client_stack and stack is not tracer._client_stack:
                parent = tracer._client_stack[-1]
            else:
                parent = None
            sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append(
                    (sid, name, start, end, parent, threading.get_ident(), tracer.op_id)
                )
            if capture is not None:
                tracer.captured[name].append(capture(args, kwargs, result))
            return result

        return traced

    def install(self):
        wrappers = {}
        for short in MODULES:
            mod = sys.modules["iongrover." + short]
            for attr, obj in vars(mod).items():
                public = not attr.startswith("_") or attr in EXTRA.get(short, ())
                if public and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "iongrover" or mod_name.startswith("iongrover.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._saved.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in self._saved:
            setattr(mod, attr, obj)
        self._saved = []


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def layer_metrics(spans: list[tuple], captured: dict[str, list], fuse, xx_count) -> dict:
    """Per-layer counts and times of one traced pass.

    ``fuse`` is the untraced ``fuse_rotations``; ``xx_count`` counts the
    couplings of a circuit. Both run here, outside any timed region.
    """
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append(s)
    self_s = defaultdict(float)
    for s in spans:
        covered = _union_length(
            [(max(c[2], s[2]), min(c[3], s[3])) for c in children[s[0]] if c[3] > s[2]]
        )
        self_s[s[1].split(".")[0]] += (s[3] - s[2]) - covered

    def outermost(names) -> tuple[int, float]:
        """Calls and inclusive seconds of spans in ``names`` not nested in another."""
        calls, total = 0, 0.0
        for s in spans:
            if s[1] not in names:
                continue
            parent = by_id.get(s[4])
            while parent is not None and parent[1] not in names:
                parent = by_id.get(parent[4])
            if parent is None:
                calls += 1
                total += s[3] - s[2]
        return calls, total

    apps, apply_s = outermost(APPLY)
    run_calls, run_s = outermost(("gates.run",))
    noisy_calls, noisy_s = outermost(("noise.run_noisy",))
    gates_run = sum(len(c.gates) for c in captured["gates.run"])
    traj_gates = sum(t * len(c.gates) for c, t in captured["noise.run_noisy"])

    simulated: dict[int, list] = {}
    for c in captured["gates.run"] + [c for c, _ in captured["noise.run_noisy"]]:
        simulated.setdefault(id(c), [c, 0])[1] += 1
    before = sum(len(c.gates) * w for c, w in simulated.values())
    after = sum(len(fuse(c).gates) * w for c, w in simulated.values())
    synthesized = captured["grover.grover_circuit"]

    def per(total, count, scale=1.0):
        return total / count * scale if count else 0.0

    return {
        "statevector.apps": apps,
        "statevector.self_s": self_s["statevector"],
        "statevector.us_per_app": per(apply_s, apps, 1e6),
        "statevector.bytes_computed": sum(2 * 16 * 2**n for a in APPLY for n in captured[a]),
        "gates.run_calls": run_calls,
        "gates.gates_run": gates_run,
        "gates.self_s": self_s["gates"],
        "gates.us_per_gate": per(run_s, gates_run, 1e6),
        "gates.unitary_s": outermost(("gates.circuit_unitary",))[1],
        "gates.json_s": outermost(("gates.circuit_to_json", "gates.circuit_from_json"))[1],
        "decompositions.self_s": self_s["decompositions"],
        "decompositions.fused_ratio": per(after, before),
        "grover.synth_s": outermost(("grover.grover_circuit",))[1],
        "grover.circuits": len(synthesized),
        "grover.gates_per_circuit": per(sum(len(c.gates) for c in synthesized), len(synthesized)),
        "grover.xx_per_circuit": per(sum(xx_count(c) for c in synthesized), len(synthesized)),
        "noise.run_noisy_calls": noisy_calls,
        "noise.traj_gates": traj_gates,
        "noise.self_s": self_s["noise"],
        "noise.ns_per_traj_gate": per(noisy_s, traj_gates, 1e9),
        "noise.truth_table_s": outermost(("noise.noisy_truth_table",))[1],
        "noise.spam_s": outermost(SPAM)[1],
        "metrics.truth_table_s": outermost(("metrics.truth_table",))[1],
        "metrics.self_s": self_s["metrics"],
        "tomography.self_s": self_s["tomography"],
        "tomography.calls": outermost(("tomography.limited_tomography",))[0],
        "cli.self_s": self_s["cli"],
    }
