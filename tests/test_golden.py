"""Golden simulator outputs: the report and the transcript head, byte for byte.

Each directory under tests/golden holds a run config, the report JSON that
`simulate` writes for it, and the header plus the first 200 transcript rows.
Any change to the random stream or to the exact predictions shows up here
and must be deliberate. After such a change, rewrite the fixtures with

    PYTHONPATH=src python tests/test_golden.py NAME [NAME ...]
"""

import sys
from pathlib import Path

import pytest

from qutrit_pingpong.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = ("honest", "symmetric_branch", "column_x_branch", "column_x_none")
TRANSCRIPT_ROWS = 200


def simulate(case: str, workdir: Path) -> tuple[bytes, bytes]:
    """Report bytes and transcript-head bytes of one fixture's config."""
    report, transcript = workdir / "report.json", workdir / "transcript.csv"
    argv = ["simulate", "--config", str(GOLDEN / case / "config.json")]
    assert main(argv + ["--out", str(report), "--transcript", str(transcript)]) == 0
    head = transcript.read_bytes().splitlines(keepends=True)[: TRANSCRIPT_ROWS + 1]
    return report.read_bytes(), b"".join(head)


@pytest.mark.parametrize("case", CASES)
def test_simulator_reproduces_golden_outputs(case, tmp_path):
    report, head = simulate(case, tmp_path)
    assert report == (GOLDEN / case / "report.json").read_bytes()
    assert head == (GOLDEN / case / "transcript_head.csv").read_bytes()


if __name__ == "__main__":
    import tempfile

    for name in sys.argv[1:]:
        with tempfile.TemporaryDirectory() as tmp:
            report, head = simulate(name, Path(tmp))
        (GOLDEN / name / "report.json").write_bytes(report)
        (GOLDEN / name / "transcript_head.csv").write_bytes(head)
