"""Golden-output net: re-run fixed CLI commands and compare with the
committed outputs under ``tests/golden/``.

Keys, row order, strings and integers (``--shots`` counts included) must
match exactly; floats may move by at most ``FLOAT_TOL``, so a refactor that
only changes floating-point rounding passes and one that moves a reported
number does not. ``python tests/test_golden.py`` rewrites the golden files
from the current code; a change that does so must say in CHANGES.md which
numbers moved and why.
"""

import json
import os
import shutil
import sys

import pytest

from iongrover.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
NOISE = os.path.join(GOLDEN, "noise.json")
FLOAT_TOL = 1e-12

CASES = {
    "gate_table_exact": ["gate-table"],
    "gate_table_noisy": ["gate-table", "--noise", NOISE],
    "grover_marked": ["grover", "--style", "boolean", "--marked", "101"],
    "grover_all_t2_csv": ["grover", "--style", "phase", "--all", "--t", "2",
                          "--format", "csv"],
    "grover_iterations2_shots": ["grover", "--style", "phase", "--marked", "011",
                                 "--iterations", "2", "--shots", "500", "--seed", "7"],
    "grover_noisy_spam_shots": ["grover", "--style", "boolean", "--marked", "110",
                                "--marked", "011", "--noise", NOISE, "--spam", NOISE,
                                "--shots", "1000", "--seed", "3"],
    "tomography_exact_csv": ["tomography", "--format", "csv"],
    "tomography_noisy": ["tomography", "--noise", NOISE],
    "costs_csv": ["costs", "--format", "csv"],
}


def _same_json(got, want, path="$"):
    if isinstance(want, float) and isinstance(got, float):
        assert abs(got - want) <= FLOAT_TOL, f"{path}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), f"{path}: keys differ"
        for key in want:
            _same_json(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{path}: length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            _same_json(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{path}: {got!r} != {want!r}"


def _is_float_text(cell: str) -> bool:
    return any(c in cell for c in ".eE") or cell in ("inf", "-inf", "nan")


def _same_csv(got: str, want: str, name: str):
    got_rows = [line.split(",") for line in got.splitlines()]
    want_rows = [line.split(",") for line in want.splitlines()]
    assert len(got_rows) == len(want_rows), f"{name}: row count differs"
    for r, (g_row, w_row) in enumerate(zip(got_rows, want_rows)):
        assert len(g_row) == len(w_row), f"{name} row {r}: column count differs"
        for g, w in zip(g_row, w_row):
            if g == w:
                continue
            assert _is_float_text(g) and _is_float_text(w), f"{name} row {r}: {g!r} != {w!r}"
            assert abs(float(g) - float(w)) <= FLOAT_TOL, f"{name} row {r}: {g} != {w}"


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, tmp_path):
    out = tmp_path / "o"
    assert main(CASES[case] + ["--out", str(out)]) == 0
    want_dir = os.path.join(GOLDEN, case)
    names = sorted(os.listdir(want_dir))
    assert sorted(os.listdir(out)) == names
    for name in names:
        got, want = _read(os.path.join(out, name)), _read(os.path.join(want_dir, name))
        if name.endswith(".json"):
            _same_json(json.loads(got), json.loads(want))
        else:
            _same_csv(got, want, name)


def write_golden():
    """Regenerate every golden directory from the current code."""
    for case, argv in CASES.items():
        target = os.path.join(GOLDEN, case)
        shutil.rmtree(target, ignore_errors=True)
        if main(argv + ["--out", target]) != 0:
            raise SystemExit(f"golden case {case} failed")


if __name__ == "__main__":
    sys.exit(write_golden())
