import json
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from iongrover.cli import main
from iongrover.grover import GroverConfig, OracleSpec, run_grover
from iongrover.noise import NoiseModel, SpamModel, apply_spam

SCHEMA = json.loads(
    resources.files("iongrover").joinpath("schemas/results.schema.json").read_text()
)


def read_results(out_dir):
    with open(os.path.join(out_dir, "results.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    jsonschema.validate(doc, SCHEMA)
    return doc


def test_gate_table_all_templates(tmp_path):
    out = tmp_path / "o"
    assert main(["gate-table", "--out", str(out)]) == 0
    doc = read_results(out)
    assert doc["meta"]["command"] == "gate-table"
    by_name = {r["name"]: r for r in doc["rows"]}
    assert by_name["toffoli3"]["xx_count"] == 5
    assert by_name["toffoli4"]["xx_count"] == 11
    assert by_name["cnot"]["truth_table_fidelity"] == pytest.approx(1.0, abs=1e-9)
    assert by_name["toffoli4"]["truth_table_fidelity"] == pytest.approx(1.0, abs=1e-9)


def test_gate_table_rejects_unknown_gate(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["gate-table", "--gate", "fredkin", "--out", str(out)]) == 1
    assert "unknown gate" in capsys.readouterr().err
    assert not out.exists()


def test_grover_single_oracle(tmp_path):
    out = tmp_path / "o"
    code = main(
        ["grover", "--style", "phase", "--marked", "011", "--out", str(out)]
    )
    assert code == 0
    doc = read_results(out)
    row = doc["rows"][0]
    assert row["marked"] == "011"
    assert row["xx_count"] == 10
    assert row["asp"] == pytest.approx(0.78125, abs=1e-9)
    assert row["sso"] == pytest.approx(1.0, abs=1e-9)


def test_grover_all_pairs_with_csv(tmp_path):
    out = tmp_path / "o"
    code = main(
        [
            "grover", "--style", "boolean", "--all", "--t", "2",
            "--out", str(out), "--format", "csv",
        ]
    )
    assert code == 0
    doc = read_results(out)
    assert len(doc["rows"]) == 28
    marked = [r["marked"] for r in doc["rows"]]
    assert marked == sorted(marked)
    assert (out / "results.csv").exists()
    lines = (out / "distributions.csv").read_text().strip().split("\n")
    assert lines[0] == "marked,style,label,probability"
    assert len(lines) == 1 + 28 * 8


def test_grover_flag_conflicts(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["grover", "--style", "phase", "--out", str(out)]) == 1
    assert (
        main(
            ["grover", "--style", "phase", "--marked", "011", "--all",
             "--out", str(out)]
        )
        == 1
    )
    assert main(["grover", "--style", "phase", "--marked", "21", "--out", str(out)]) == 1
    assert not out.exists()


def test_grover_with_noise_spam_and_shots(tmp_path):
    noise = tmp_path / "noise.json"
    noise.write_text(
        json.dumps(
            {"p_xx": 0.02, "eps0": 0.01, "eps1": 0.01, "crosstalk": 0.005,
             "trajectories": 300, "seed": 5}
        )
    )
    out = tmp_path / "o"
    code = main(
        [
            "grover", "--style", "phase", "--marked", "111",
            "--noise", str(noise), "--spam", str(noise),
            "--shots", "200", "--out", str(out),
        ]
    )
    assert code == 0
    row = read_results(out)["rows"][0]
    assert row["asp"] < row["asp_ideal"]
    assert sum(row["counts"]) == 200


def test_noisy_spam_row_is_the_library_run_under_readout(tmp_path):
    noise = tmp_path / "noise.json"
    noise.write_text(json.dumps({"p_xx": 0.02, "p_r": 0.001}))
    spam = tmp_path / "spam.json"
    spam.write_text(json.dumps({"eps0": 0.01, "eps1": 0.02, "crosstalk": 0.005}))
    out = tmp_path / "o"
    code = main(
        ["grover", "--style", "boolean", "--marked", "110", "--marked", "011",
         "--noise", str(noise), "--spam", str(spam), "--out", str(out)]
    )
    assert code == 0
    run = run_grover(GroverConfig(OracleSpec(3, ("110", "011"), "boolean")),
                     noise=NoiseModel(0.02, 0.001))
    want = apply_spam(run.distribution, SpamModel(0.01, 0.02, 0.005))
    assert read_results(out)["rows"][0]["distribution"] == [float(p) for p in want]


def test_oversized_integer_in_noise_config_is_a_clean_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"p_xx": 1' + "0" * 400 + "}")
    out = tmp_path / "o"
    assert main(["gate-table", "--noise", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: p_xx must be a number")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_grover_malformed_noise_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"p_xx": ')
    out = tmp_path / "o"
    code = main(
        ["grover", "--style", "phase", "--marked", "011",
         "--noise", str(bad), "--out", str(out)]
    )
    assert code == 1
    assert not out.exists()


def test_tomography_command(tmp_path):
    out = tmp_path / "o"
    assert main(["tomography", "--out", str(out), "--format", "csv"]) == 0
    doc = read_results(out)
    by_variant = {r["variant"]: r for r in doc["rows"]}
    assert by_variant["toffoli3"]["success"] == pytest.approx(1.0, abs=1e-9)
    assert by_variant["toffoli3+cz"]["success"] < 0.95
    assert (out / "tomography.csv").exists()


def test_costs_command(tmp_path):
    out = tmp_path / "o"
    assert main(["costs", "--min", "3", "--max", "6", "--out", str(out)]) == 0
    rows = read_results(out)["rows"]
    assert [r["xx_count"] for r in rows] == [5, 11, 17, 23]
    assert [r["ancilla_count"] for r in rows] == [0, 1, 1, 2]
    assert main(["costs", "--min", "2", "--out", str(out / "x")]) == 1


def test_identical_seeds_give_identical_bytes(tmp_path):
    noise = tmp_path / "noise.json"
    noise.write_text(json.dumps({"p_xx": 0.02, "trajectories": 200, "seed": 12}))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(
            ["grover", "--style", "boolean", "--all", "--t", "1",
             "--noise", str(noise), "--out", str(out), "--format", "csv"]
        )
        assert code == 0
        outs.append(out)
    for fname in ("results.json", "results.csv", "distributions.csv"):
        a = (outs[0] / fname).read_bytes()
        b = (outs[1] / fname).read_bytes()
        assert a == b, fname


def test_seed_flag_overrides_config(tmp_path):
    out = tmp_path / "o"
    assert main(["costs", "--seed", "99", "--out", str(out)]) == 0
    assert read_results(out)["meta"]["seed"] == 99


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "iongrover", "costs", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert (tmp_path / "results.json").exists()


def test_grover_several_iterations_reports_matching_ideal(tmp_path):
    out = tmp_path / "o"
    code = main(
        ["grover", "--style", "boolean", "--marked", "110", "--iterations", "3",
         "--out", str(out)]
    )
    assert code == 0
    row = read_results(out)["rows"][0]
    assert row["asp"] == pytest.approx(0.330078125, abs=1e-9)
    assert row["asp_ideal"] == pytest.approx(0.330078125, abs=1e-12)
    assert row["sso"] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "config, message",
    [
        ({"p_xx": None}, "p_xx must be a number"),
        ({"p_xx": True}, "p_xx must be a number"),
        ({"eps0": "0.01"}, "eps0 must be a number"),
        ({"trajectories": 1.7}, "trajectories must be a positive integer"),
        ({"trajectories": 0}, "trajectories must be a positive integer"),
        ({"seed": False}, "seed must be a non-negative integer"),
    ],
)
def test_grover_rejects_bad_noise_config_values(tmp_path, capsys, config, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    out = tmp_path / "o"
    code = main(
        ["grover", "--style", "phase", "--marked", "011",
         "--noise", str(bad), "--out", str(out)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_negative_seed_flag_is_a_clean_error(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["costs", "--seed", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: seed must be a non-negative")
    assert not out.exists()


def test_tomography_trajectories_flag_is_accepted_but_inert(tmp_path, capsys):
    noise = tmp_path / "noise.json"
    noise.write_text(json.dumps({"p_xx": 0.02, "trajectories": 300, "seed": 3}))
    outs = []
    for name, extra in (("a", []), ("b", ["--trajectories", "7", "--seed", "8"])):
        out = tmp_path / name
        assert main(["tomography", "--noise", str(noise), "--out", str(out)] + extra) == 0
        outs.append(read_results(out)["rows"])
    assert outs[0] == outs[1]
    assert main(["tomography", "--trajectories", "0", "--out", str(tmp_path / "c")]) == 1
    assert "trajectories must be a positive integer" in capsys.readouterr().err


def test_out_naming_an_existing_file_is_a_clean_error(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("keep me")
    assert main(["costs", "--out", str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert target.read_text() == "keep me"


def test_failed_write_leaves_no_output_files(tmp_path, monkeypatch, capsys):
    from iongrover import cli

    real_open = open

    def full_disk(path, mode="r", *args, **kwargs):
        if "w" in mode and "results.csv" in os.path.basename(path):
            raise OSError(28, "No space left on device")
        return real_open(path, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "open", full_disk, raising=False)
    out = tmp_path / "o"
    out.mkdir()
    (out / "results.json").write_text("old")
    assert main(["costs", "--format", "csv", "--out", str(out)]) == 1
    assert "No space left" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["results.json"]
    assert (out / "results.json").read_text() == "old"


def test_output_name_taken_by_a_directory_writes_nothing(tmp_path, capsys):
    out = tmp_path / "o"
    (out / "results.csv").mkdir(parents=True)
    assert main(["costs", "--format", "csv", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert sorted(os.listdir(out)) == ["results.csv"]


def test_outputs_keep_default_file_permissions(tmp_path):
    out = tmp_path / "o"
    assert main(["costs", "--format", "csv", "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["results.csv", "results.json"]
    umask = os.umask(0)
    os.umask(umask)
    for name in os.listdir(out):
        assert os.stat(out / name).st_mode & 0o777 == 0o666 & ~umask


def test_failed_write_into_a_new_directory_leaves_no_directory(tmp_path, monkeypatch, capsys):
    from iongrover import cli

    def full_disk(path, mode="r", *args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "open", full_disk, raising=False)
    out = tmp_path / "new" / "deeper"
    assert main(["costs", "--out", str(out)]) == 1
    assert "No space left" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_calls_in_a_row_share_no_parser_state(tmp_path):
    """``main`` keeps its parser between calls; repeated flags of one call
    must not leak into the next."""
    def rows(argv, name):
        assert main(argv + ["--out", str(tmp_path / name)]) == 0
        return read_results(tmp_path / name)["rows"]

    grover = ["grover", "--style", "phase"]
    assert [r["marked"] for r in rows(grover + ["--marked", "011", "--marked", "101"], "a")] == [
        "011+101"
    ]
    assert [r["marked"] for r in rows(grover + ["--marked", "110"], "b")] == ["110"]
    gates = [r["name"] for r in rows(["gate-table", "--gate", "cnot", "--gate", "toffoli3"], "c")]
    assert gates == ["cnot", "toffoli3"]
    assert [r["name"] for r in rows(["gate-table", "--gate", "cz"], "d")] == ["cz"]
    everything = [r["name"] for r in rows(["gate-table"], "e")]
    assert len(everything) > 2 and "cnot" in everything and "cz" in everything
