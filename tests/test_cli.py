"""Command-line interface, driven in process plus one subprocess check."""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qutrit_pingpong import cli
from qutrit_pingpong.attack import AttackColumn
from qutrit_pingpong.cli import main
from qutrit_pingpong.information import TRIT_TO_BIT

GOLDEN = Path(__file__).parent / "golden"


def test_entropy_preset(tmp_path, capsys):
    assert main(["entropy", "--preset", "tiered"]) == 0
    out = capsys.readouterr().out
    # A --freq file takes a preset name, as a run config's freq does.
    path = tmp_path / "freq.json"
    path.write_text(json.dumps({"preset": "tiered"}))
    assert main(["entropy", "--freq", str(path)]) == 0
    assert capsys.readouterr().out == out


def test_unknown_preset_error_names_the_file_and_the_field(tmp_path, capsys):
    choices = "['peaked', 'sparse', 'tiered', 'two-bigram', 'uniform']"
    path = tmp_path / "freq.json"
    path.write_text(json.dumps({"preset": "nope"}))
    assert main(["entropy", "--freq", str(path)]) == 2
    assert capsys.readouterr().err == f"error: frequency file {path}: freq.preset must be one of {choices}, got 'nope'\n"
    path.write_text(json.dumps({"cycles": 10, "seed": 1, "freq": {"preset": "nope"}}))
    assert main(["simulate", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: freq.preset must be one of {choices}, got 'nope'\n"


def test_entropy_prints_trits_then_bits(capsys):
    assert main(["entropy"]) == 0
    trits, bits = capsys.readouterr().out.splitlines()
    assert trits == "H = 2.0000 trit"
    assert bits == f"H = {2.0 * TRIT_TO_BIT:.4f} bit"


def test_entropy_from_file(tmp_path, capsys):
    path = tmp_path / "freq.json"
    path.write_text(json.dumps({"p": [[1 / 9] * 3] * 3}))
    assert main(["entropy", "--freq", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "H = 2.0000 trit"


def test_entropy_missing_file_fails(capsys):
    assert main(["entropy", "--freq", "/nonexistent/freq.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_curve_to_stdout(capsys):
    assert main(["curve", "--points", "3"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().split("\n")
    assert lines[0] == "d_z,I0_trits,I0_bits"
    assert len(lines) == 4
    assert "endpoints" in captured.err


def test_curve_to_file(tmp_path, capsys):
    path = tmp_path / "curve.csv"
    assert main(["curve", "--preset", "peaked", "--points", "9", "--out", str(path)]) == 0
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 10
    first = lines[1].split(",")
    assert float(first[0]) == 0.0


def test_curve_fails_on_an_unwritable_output_before_it_computes(tmp_path, capsys, monkeypatch):
    def must_not_run(freq, d_values=None):
        raise AssertionError("info_curve was called")

    monkeypatch.setattr(cli, "info_curve", must_not_run)
    bad = tmp_path / "missing" / "c.csv"
    assert main(["curve", "--points", "2000000", "--out", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno 2] ")
    assert not bad.parent.exists()


def test_entropy_two_bigram_value(capsys):
    assert main(["entropy", "--preset", "two-bigram"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "H = 0.5794 trit"


def test_curve_endpoint_values(capsys):
    assert main(["curve", "--preset", "uniform", "--points", "67"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 68
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    first, last = rows[0], rows[-1]
    assert first[0] == 0.0
    # an invisible attack still leaks one trit of the uniform source
    assert abs(first[2] - TRIT_TO_BIT) < 1e-9
    assert abs(last[0] - 2.0 / 3.0) < 1e-12
    assert abs(last[1] - 2.0) < 1e-9
    assert abs(last[2] - 3.1699) < 1e-4
    assert abs(last[2] - 2.0 * TRIT_TO_BIT) < 1e-9
    assert all(a[0] < b[0] for a, b in zip(rows, rows[1:]))


def test_curve_constant_for_two_bigram_source(capsys):
    assert main(["curve", "--preset", "two-bigram", "--points", "5"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    vals = [float(row.split(",")[1]) for row in rows]
    assert max(vals) - min(vals) < 1e-9
    assert all(abs(v - 0.5794) < 1e-4 for v in vals)


def test_deterministic_source_prints_no_negative_zero(tmp_path, capsys):
    path = tmp_path / "freq.json"
    path.write_text(json.dumps({"p": [[1, 0, 0], [0, 0, 0], [0, 0, 0]]}))
    assert main(["entropy", "--freq", str(path)]) == 0
    assert capsys.readouterr().out == "H = 0.0000 trit\nH = 0.0000 bit\n"
    assert main(["curve", "--freq", str(path), "--points", "3"]) == 0
    captured = capsys.readouterr()
    assert [line.split(",")[1:] for line in captured.out.split("\n")[1:4]] == [["0", "0"]] * 3
    assert captured.err.startswith("endpoints: I(0) = 0.0000, I(2/3) = 0.0000, source H = 0.0000")


def test_curve_rejects_single_point(capsys):
    assert main(["curve", "--points", "1"]) == 2
    assert "at least 2" in capsys.readouterr().err


@pytest.mark.parametrize("points", [2**53 + 1, 2**63 - 1, 2**63])
def test_curve_rejects_a_grid_above_2_to_the_53(capsys, points):
    # Checked before np.linspace, which fails with an IndexError near 2**63.
    assert main(["curve", "--points", str(points)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: curve needs at most 2**53 points, got {points}\n"
    assert captured.out == ""


def test_rounds(capsys):
    assert main(["rounds", "0.3333333333"]) == 0
    assert capsys.readouterr().out.strip() == "12"


def test_rounds_custom_target(capsys):
    assert main(["rounds", "0.6666666667", "0.99"]) == 0
    assert capsys.readouterr().out.strip() == "5"


def test_rounds_rejects_zero(capsys):
    assert main(["rounds", "0"]) == 2
    assert "undetectable" in capsys.readouterr().err


def test_rounds_rejects_probability_above_one(capsys):
    assert main(["rounds", "1.5"]) == 2
    assert capsys.readouterr().out == ""


def test_rounds_for_a_tiny_probability_returns_promptly(capsys):
    start = time.perf_counter()
    assert main(["rounds", "1e-12"]) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out.strip() == "4605170185986"


def test_simulate_round_trip(tmp_path, capsys):
    cfg = {
        "cycles": 400,
        "seed": 10,
        "q": 0.5,
        "attack": {"type": "symmetric", "d_z": 0.5},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "report.json"
    tr_path = tmp_path / "transcript.csv"
    rc = main(
        [
            "simulate",
            "--config",
            str(cfg_path),
            "--out",
            str(out_path),
            "--transcript",
            str(tr_path),
        ]
    )
    assert rc == 0
    report = json.loads(out_path.read_text())
    assert report["cycles"] == 400
    assert report["detections"] > 0
    lines = tr_path.read_text().strip().split("\n")
    assert len(lines) == 401


def test_simulate_to_stdout_is_json(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"cycles": 50, "seed": 0}))
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["detections"] == 0


def test_simulate_accepts_a_completion_at_the_flat_triangle(tmp_path, capsys):
    # d just past 8/9 makes the chain links of (sqrt(1-d), sqrt(d/2), sqrt(d/2))
    # miss closing by about 1e-11: the completion is accepted, so the
    # simulator must run it too.
    d = 8 / 9 + 1e-11
    values = [[math.sqrt(1.0 - d), 0.0], [math.sqrt(d / 2.0), 0.0], [math.sqrt(d / 2.0), 0.0]]
    cfg = {"cycles": 1000, "seed": 5, "ancilla": "none", "attack": {"type": "column", "basis": "z", "values": values}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["basis_stats"]["z"]["predicted"] == pytest.approx(d, abs=1e-12)


@pytest.mark.parametrize("ancilla", ["branch", "none"])
@pytest.mark.parametrize("slack", [2e-10, 5e-10, 9e-10])
def test_simulate_runs_a_column_with_norm_slack_in_both_modes(tmp_path, capsys, ancilla, slack):
    # AttackColumn accepts a squared norm up to 1e-9 from 1; both attack
    # realizations read the column at unit norm, so neither fails later.
    scale = math.sqrt(1.0 + slack)
    values = [[scale * math.sqrt(0.6), 0.0], [scale * 0.5, 0.0], [0.0, scale * math.sqrt(0.15)]]
    cfg = {"cycles": 200, "seed": 3, "ancilla": ancilla, "attack": {"type": "column", "basis": "x", "values": values}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    column = AttackColumn(*(complex(re, im) for re, im in values))
    predicted = json.loads(capsys.readouterr().out)["basis_stats"]["x"]["predicted"]
    assert abs(predicted - (1.0 - column.moduli_squared()[0])) <= 1e-12


def test_simulate_same_seed_repeats_exactly(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps(
            {
                "cycles": 400,
                "seed": 99,
                "freq": {"preset": "uniform"},
                "attack": {"type": "symmetric", "d_z": 0.5},
            }
        )
    )
    assert main(["simulate", "--config", str(cfg)]) == 0
    first = capsys.readouterr().out
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == first


def test_simulate_seed_override_changes_report(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"cycles": 500, "seed": 1, "attack": {"type": "symmetric", "d_z": 0.5}}))
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    first = capsys.readouterr().out
    assert main(["simulate", "--config", str(cfg_path), "--seed", "2"]) == 0
    second = capsys.readouterr().out
    assert first != second
    assert json.loads(second)["config"]["seed"] == 2
    assert main(["simulate", "--config", str(cfg_path), "--seed", "-1"]) == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err


def test_simulate_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"cycles": 10}))
    assert main(["simulate", "--config", str(cfg_path)]) == 2


def test_simulate_that_cannot_be_allocated_exits_2(tmp_path, capsys, monkeypatch):
    def out_of_memory(config):
        raise MemoryError("Unable to allocate 93.1 GiB for an array")

    monkeypatch.setattr(cli, "run", out_of_memory)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"cycles": 100_000_000_000, "seed": 1}))
    assert main(["simulate", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Unable to allocate 93.1 GiB for an array\n"


@pytest.mark.parametrize("option", ["--out", "--transcript"])
def test_simulate_fails_on_an_unwritable_output_before_it_runs(tmp_path, capsys, monkeypatch, option):
    def must_not_run(config):
        raise AssertionError("run was called")

    monkeypatch.setattr(cli, "run", must_not_run)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"cycles": 3_000_000, "seed": 1}))
    bad = tmp_path / "missing" / "output"
    assert main(["simulate", "--config", str(cfg_path), option, str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno 2] ")
    assert not bad.parent.exists()


@pytest.mark.parametrize("alias", ["same", "dot-slash", "symlink"])
def test_simulate_refuses_one_file_for_the_report_and_the_transcript(tmp_path, capsys, monkeypatch, alias):
    # Written one after the other, the report would silently replace the transcript.
    def must_not_run(config):
        raise AssertionError("run was called")

    monkeypatch.setattr(cli, "run", must_not_run)
    monkeypatch.chdir(tmp_path)
    other = {"same": "report.json", "dot-slash": "./report.json", "symlink": "link.json"}[alias]
    if alias == "symlink":
        (tmp_path / "link.json").symlink_to(tmp_path / "report.json")
    config = str(GOLDEN / "honest" / "config.json")
    assert main(["simulate", "--config", config, "--out", "report.json", "--transcript", other]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --out and --transcript name the same file\n"


_HUGE = 10**400  # a JSON integer literal too large for a float


@pytest.mark.parametrize(
    "command,payload",
    [
        ("simulate", {"freq": {"preset": ["uniform"]}}),
        ("simulate", {"attack": {"type": "column", "basis": "z", "values": [[1e200, 0], [0, 0], [0, 0]]}}),
        ("simulate", {"q": _HUGE}),
        ("simulate", {"basis_weights": [_HUGE, 0]}),
        ("simulate", {"attack": {"type": "symmetric", "d_z": _HUGE}}),
        ("simulate", {"attack": {"type": "column", "basis": "z", "values": [[0, _HUGE], [0, 0], [0, 0]]}}),
        ("simulate", {"freq": {"p": [[_HUGE, 0, 0], [0, 0, 0], [0, 0, 0]]}}),
        ("entropy", {"p": [[_HUGE, 0, 0], [0, 0, 0], [0, 0, 0]]}),
        ("simulate", {"freq": {"p": [[True, False, False], [False] * 3, [False] * 3]}}),
        ("simulate", {"freq": {"p": [["0.5", 0.5, 0], [0, 0, 0], [0, 0, 0]]}}),
        ("entropy", {"p": [[True, False, False], [False] * 3, [False] * 3]}),
        ("entropy", {"p": [["0.5", 0.5, 0], [0, 0, 0], [0, 0, 0]]}),
        ("rounds", "1e-320"),
        ("entropy", {"p": [[1 / 9] * 3] * 3, "note": 1}),
    ],
)
def test_malformed_input_exits_2_with_an_error_line(tmp_path, capsys, command, payload):
    path = tmp_path / "input.json"
    if command == "simulate":
        path.write_text(json.dumps({"cycles": 10, "seed": 1, **payload}))
        argv = ["simulate", "--config", str(path)]
    elif command == "entropy":
        path.write_text(json.dumps(payload))
        argv = ["entropy", "--freq", str(path)]
    else:
        argv = ["rounds", payload]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "content",
    [
        # Written by hand: json.dumps itself cannot nest this deep.
        pytest.param(("[" * 200_000 + "]" * 200_000).encode("ascii"), id="nested"),
        # UTF-16 with its byte-order mark \xff\xfe, which is not UTF-8.
        pytest.param('{"cycles": 1}'.encode("utf-16"), id="utf-16"),
    ],
)
@pytest.mark.parametrize("command,option", [("entropy", "--freq"), ("simulate", "--config")])
def test_deeply_nested_json_exits_2_with_an_error_line(tmp_path, capsys, command, option, content):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    assert main([command, option, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert f"{path}: invalid JSON (" in captured.err


def test_compare_keeps_only_the_table(tmp_path, capsys):
    path = tmp_path / "cmp.csv"
    assert main(["compare", "--curve-out", str(path)]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not path.exists()


def test_unknown_command_exits_with_usage_error():
    assert main(["frobnicate"]) == 2


def test_module_entry_point_runs(package_env):
    proc = subprocess.run(
        [sys.executable, "-m", "qutrit_pingpong", "rounds", "0.5"],
        capture_output=True,
        text=True,
        env=package_env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "7"
