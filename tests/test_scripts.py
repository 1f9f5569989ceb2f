"""The scripts under scripts/, each run once as a subprocess."""

import csv
import subprocess
import sys
from pathlib import Path

from qutrit_pingpong.information import FREQUENCY_PRESETS

_SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_script(env: dict[str, str], name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(_SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_export_curves_writes_every_product(tmp_path, package_env):
    proc = _run_script(package_env, "export_curves.py", "--out-dir", str(tmp_path), "--points", "5")
    assert proc.returncode == 0, proc.stderr
    expected = {"protocol_table.json"}
    for name in FREQUENCY_PRESETS:
        expected |= {f"curve_{name}.csv", f"freq_{name}.json"}
        lines = (tmp_path / f"curve_{name}.csv").read_text().splitlines()
        assert len(lines) == 6
        assert lines[0] == "d_z,I0_trits,I0_bits"
    assert {p.name for p in tmp_path.iterdir()} == expected


def test_basis_tradeoff_scan_rows_show_the_dephased_rates(tmp_path, package_env):
    out = tmp_path / "scan.csv"
    proc = _run_script(package_env, "basis_tradeoff_scan.py", "--full", "--samples", "3", "--out", str(out))
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
