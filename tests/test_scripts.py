"""The scripts under scripts/, each run once as a subprocess."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import qutrit_pingpong
from qutrit_pingpong.information import FREQUENCY_PRESETS

_SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    # The child must import the same package, installed or not.
    src = str(Path(qutrit_pingpong.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(_SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_export_curves_writes_every_product(tmp_path):
    proc = _run_script("export_curves.py", "--out-dir", str(tmp_path), "--points", "5")
    assert proc.returncode == 0, proc.stderr
    expected = {"protocol_table.json"}
    for name in FREQUENCY_PRESETS:
        expected |= {f"curve_{name}.csv", f"freq_{name}.json"}
        lines = (tmp_path / f"curve_{name}.csv").read_text().splitlines()
        assert len(lines) == 6
        assert lines[0] == "d_z,I0_trits,I0_bits"
    assert {p.name for p in tmp_path.iterdir()} == expected


def test_basis_tradeoff_scan_rows_show_the_dephased_rates(tmp_path):
    out = tmp_path / "scan.csv"
    proc = _run_script("basis_tradeoff_scan.py", "--full", "--samples", "3", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    bases = [f"{mode}_d_{b}" for mode in ("unitary", "probe") for b in "zxvt"]
    assert reader.fieldnames == ["d_x_own", "relation_d_z", *bases]
    assert len(rows) == 3
    for row in rows:
        for name in ("relation_d_z", "probe_d_z", "probe_d_v", "probe_d_t"):
            assert abs(float(row[name]) - 2.0 / 3.0) < 1e-12
        assert abs(float(row["unitary_d_z"])) < 1e-12
