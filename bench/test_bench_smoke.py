"""Smoke test of the benchmark: every workload and output check at tiny sizes."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_smoke_reports_every_metric_of_the_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _bench("--smoke", "--trace", trace)
        assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert set(result["metrics"]) == workloads
        want = {m["name"]: m["unit"] for m in spec[section]}
        for metrics in result["metrics"].values():
            assert {name: m["unit"] for name, m in metrics.items()} == want


def test_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "sim-transcript", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
