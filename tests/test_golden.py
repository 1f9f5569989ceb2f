"""Golden outputs: simulator reports and transcript heads, the leak curves,
the comparison table and the reference-row check.

Each simulator directory under tests/golden holds a run config, the report
JSON that `simulate` writes for it, the header plus the first 200
transcript rows, and the sha256 of the whole transcript; those are pinned
byte for byte, so every outcome of the run is. tests/golden/curves holds
the default 67-point `curve_csv(info_curve(freq))` of each frequency preset;
its detection column is pinned byte for byte and its information columns to
1e-14. tests/golden/compare.txt holds the output of `compare`,
tests/golden/compare.json that of `compare --json`,
tests/golden/attack_verify.txt that of `attack-verify` and
tests/golden/entropy.txt that of `entropy --preset tiered`, all pinned byte
for byte. Any change to the random stream, the exact predictions, the leak
curve, the table or the reference-row check shows up here and must be
deliberate. After such a change, rewrite the fixtures with

    PYTHONPATH=src python tests/test_golden.py NAME [NAME ...]

where NAME is a simulator case, `curves`, `compare-text`, `compare`,
`attack-verify` or `entropy`.
"""

import contextlib
import csv
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from qutrit_pingpong.cli import main
from qutrit_pingpong.information import FREQUENCY_PRESETS, curve_csv, info_curve
from qutrit_pingpong.qutrit import control_correlations

GOLDEN = Path(__file__).parent / "golden"
CASES = ("honest", "symmetric_branch", "column_x_branch", "column_x_none")
TRANSCRIPT_ROWS = 200
CURVE_TOL = 1e-14


def printed(argv: list[str]) -> bytes:
    """What the command line argv prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue().encode("utf-8")


# Each pinned command output: writer name -> (argv, golden file).
PRINTED = {
    "compare-text": (["compare"], "compare.txt"),
    "compare": (["compare", "--json"], "compare.json"),
    "attack-verify": (["attack-verify"], "attack_verify.txt"),
    "entropy": (["entropy", "--preset", "tiered"], "entropy.txt"),
}


def simulate(case: str, workdir: Path) -> dict[str, bytes]:
    """Each pinned file of one fixture's config: the report, the transcript head and the transcript's sha256."""
    report, transcript = workdir / "report.json", workdir / "transcript.csv"
    argv = ["simulate", "--config", str(GOLDEN / case / "config.json")]
    assert main(argv + ["--out", str(report), "--transcript", str(transcript)]) == 0
    rows = transcript.read_bytes()
    return {
        "report.json": report.read_bytes(),
        "transcript_head.csv": b"".join(rows.splitlines(keepends=True)[: TRANSCRIPT_ROWS + 1]),
        "transcript.sha256": hashlib.sha256(rows).hexdigest().encode("ascii") + b"\n",
    }


@pytest.mark.parametrize("case", CASES)
def test_simulator_reproduces_golden_outputs(case, tmp_path):
    for filename, data in simulate(case, tmp_path).items():
        assert data == (GOLDEN / case / filename).read_bytes(), filename


@pytest.mark.parametrize("case", CASES)
def test_full_transcript_adds_up_to_the_report(case, tmp_path):
    """Every transcript row, not only the pinned head, agrees with the report."""
    report_path, transcript_path = tmp_path / "report.json", tmp_path / "transcript.csv"
    argv = ["simulate", "--config", str(GOLDEN / case / "config.json")]
    assert main(argv + ["--out", str(report_path), "--transcript", str(transcript_path)]) == 0
    report = json.loads(report_path.read_text())
    with open(transcript_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(row["cycle"]) for row in rows] == list(range(1, report["cycles"] + 1))

    allowed = {basis: control_correlations(basis).allowed_pairs() for basis in ("z", "x")}
    rounds = {"z": 0, "x": 0}
    detections = {"z": 0, "x": 0}
    confusion = [[0] * 9 for _ in range(9)]
    first_detection = None
    for row in rows:
        if row["mode"] == "control":
            basis, pair = row["basis"], (int(row["alice"]), int(row["bob"]))
            assert row["detected"] in ("0", "1")
            assert (row["detected"] == "1") == (pair not in allowed[basis])
            assert row["sent"] == row["decoded"] == ""
            rounds[basis] += 1
            if row["detected"] == "1":
                detections[basis] += 1
                first_detection = first_detection or int(row["cycle"])
        else:
            assert row["mode"] == "message"
            assert row["basis"] == row["alice"] == row["bob"] == row["detected"] == ""
            sent, decoded = (3 * int(row[f][0]) + int(row[f][1]) for f in ("sent", "decoded"))
            confusion[sent][decoded] += 1

    assert report["control_rounds"] == sum(rounds.values())
    assert report["message_rounds"] == len(rows) - sum(rounds.values())
    assert report["detections"] == sum(detections.values())
    for basis in ("z", "x"):
        assert report["basis_stats"][basis]["rounds"] == rounds[basis]
        assert report["basis_stats"][basis]["detections"] == detections[basis]
    assert report["confusion"] == confusion
    assert report["correct_messages"] == sum(confusion[k][k] for k in range(9))
    assert report["first_detection_cycle"] == first_detection


def _curve_rows(text: str) -> list[list[str]]:
    return list(csv.reader(text.splitlines()))


@pytest.mark.parametrize("preset", sorted(FREQUENCY_PRESETS))
def test_leak_curve_matches_golden_csv(preset):
    got = _curve_rows(curve_csv(info_curve(FREQUENCY_PRESETS[preset])))
    want = _curve_rows((GOLDEN / "curves" / f"{preset}.csv").read_text(encoding="utf-8"))
    assert got[0] == want[0] == ["d_z", "I0_trits", "I0_bits"]
    assert len(got) == len(want) == 68
    assert [row[0] for row in got] == [row[0] for row in want]
    for g, w in zip(got[1:], want[1:]):
        for column in (1, 2):
            assert abs(float(g[column]) - float(w[column])) <= CURVE_TOL, (preset, g[0], column)


def test_compare_text_matches_golden():
    argv, filename = PRINTED["compare-text"]
    assert printed(argv) == (GOLDEN / filename).read_bytes()


def test_compare_json_matches_golden():
    argv, filename = PRINTED["compare"]
    assert printed(argv) == (GOLDEN / filename).read_bytes()


def test_attack_verify_matches_golden():
    argv, filename = PRINTED["attack-verify"]
    assert printed(argv) == (GOLDEN / filename).read_bytes()


def test_entropy_matches_golden():
    argv, filename = PRINTED["entropy"]
    assert printed(argv) == (GOLDEN / filename).read_bytes()


if __name__ == "__main__":
    import tempfile

    for name in sys.argv[1:]:
        if name in PRINTED:
            argv, filename = PRINTED[name]
            (GOLDEN / filename).write_bytes(printed(argv))
            continue
        if name == "curves":
            (GOLDEN / "curves").mkdir(exist_ok=True)
            for preset, freq in FREQUENCY_PRESETS.items():
                (GOLDEN / "curves" / f"{preset}.csv").write_text(curve_csv(info_curve(freq)), encoding="utf-8")
            continue
        with tempfile.TemporaryDirectory() as tmp:
            outputs = simulate(name, Path(tmp))
        for filename, data in outputs.items():
            (GOLDEN / name / filename).write_bytes(data)
