#!/usr/bin/env python3
"""Benchmark for the qutrit-pingpong toolkit.

Run from the repository root (the package is found under ``src``):

    python3 bench/run.py --workload sim-transcript --seed 1 --seconds 38 --trace 0
    python3 bench/run.py --smoke --trace 1      # all workloads, tiny sizes

Workloads (sizes in ``SIZES``, reasons in ``BENCHMARK.json``):

    sim-transcript  CLI ``simulate --transcript``: x-basis circulant column, no ancilla
    short-sims      in process: many 200-cycle ``protocol.run`` calls over a seeded mix
    exact-analysis  in process: leak curves, circulant completions, Holevo bounds,
                    the reference rows

Load is a closed loop with one caller: repetitions run one after another,
each in a fresh child process, until ``--seconds`` is spent. Inputs come
from ``--seed`` (see ``inputs.py``); every output is checked outside the
timed region (see ``checks.py``), and a failed check counts its operation
as failed.

With ``--trace 0`` the last line carries the end-to-end metrics:

    norm_wall_s     median wall time of one repetition, scaled to the
                    reference host speed (see SpeedProbe); for the
                    in-process workloads the child's lifetime minus its
                    output checks
    norm_ops_per_s  median work rate at the reference host speed:
                    simulated cycles per second of wall time (sim-transcript),
                    protocol.run calls per second of the run loop
                    (short-sims), leak-curve points per second of the
                    curve phase (exact-analysis)
    peak_rss_mb     median ru_maxrss of each repetition's own child (os.wait4)
    setup_s         median wall time of fresh processes that import the
                    package and prepare the inputs but do none of the work
                    (sim-transcript: the same command at cycles = 1)

The lines above it add the unscaled figures: the median wall time and
speed factor, the workload's own rates (cycles_per_s, runs_per_s,
run_p50_ms and run_p99_ms over the pooled calls, curve_points_per_s,
completions_per_s) and error_rate with its counts.

Repetitions are kept near a second and a calibration kernel is timed
between them, because on a shared host the same work can take twice as
long from one minute to the next. On a 2-vCPU virtual machine, unscaled
medians of 24-second runs moved by 15 to 39% (IQR over median) between
seeds; the scaled ones of 38-second runs moved by 7 to 20%.

With ``--trace 1`` traced and untraced repetitions alternate, the traced
ones wrapping the package's functions from outside (``tracer.py``), and
the last line carries the per-layer metrics. Full results, with
provenance, go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
import inputs
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
PACKAGE = ROOT / "src" / "qutrit_pingpong"

WORKLOADS = ("sim-transcript", "short-sims", "exact-analysis")

# (full, smoke) sizes per workload.
SIZES = {
    "sim-transcript": ({"cycles": 100_000}, {"cycles": 3_000}),
    "short-sims": ({"runs": 240, "cycles": 200}, {"runs": 12, "cycles": 200}),
    "exact-analysis": (
        {"grid": 801, "columns": 160, "spectrum_checks": 4},
        {"grid": 9, "columns": 8, "spectrum_checks": 2},
    ),
}

SETUP_REPEATS = 5
# Kernel time that defines the reference host speed; a typical value for
# calibration_s() on a 2-vCPU x86-64 virtual machine at 2.0 GHz.
CALIBRATION_REF_S = 0.04
# Every child is killed by this point, so a run ends well inside 180 s.
RUN_LIMIT_S = 165.0

END_TO_END_UNITS = {"norm_wall_s": "s", "norm_ops_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "calls": "count",
    "self_s": "s",
    "us_per_cycle": "us",
    "bytes": "B",
    "rejected": "count",
    "accept_ratio": "frac",
    "us_per_point": "us",
    "overhead_frac": "frac",
}

NOTE = (
    "Shared hosts are noisy: other tenants' load varies during a run. The benchmark "
    "pins nothing and changes no machine setting; its own child processes run with "
    "BLAS thread counts of 1."
)


class RunTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise RunTimeout("child process overran the run's time limit")


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def _write_json(path: Path, data) -> Path:
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


class Bench:
    """One workload at one seed: its inputs, its child processes, its repetitions."""

    def __init__(self, workload: str, seed: int, smoke: bool, tmp: Path, deadline: float):
        self.workload = workload
        self.tmp = tmp
        self.deadline = deadline
        self.size = SIZES[workload][smoke]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.spans_path = OUT_DIR / f"{'smoke-' if smoke else ''}{workload}-seed{seed}-spans.json"
        self.cli = workload == "sim-transcript"
        if self.cli:
            self.cycles = self.size["cycles"]
            self.config = _write_json(tmp / "config.json", inputs.sim_config(seed, self.cycles))
            self.setup_config = _write_json(tmp / "setup.json", inputs.sim_config(seed, 1))
            self.planned = 1
        elif workload == "short-sims":
            self.inputs = inputs.short_sims_configs(seed, self.size["runs"], self.size["cycles"])
            self.planned = len(self.inputs)
        else:
            self.inputs = inputs.exact_analysis_inputs(seed, **self.size)
            n_presets, n_cols = len(self.inputs["presets"]), len(self.inputs["columns"])
            # curves + completions + one Holevo bound per accepted column and preset + the reference rows
            self.planned = n_presets + n_cols + (n_cols // 2) * n_presets + 1

    # -- child processes ---------------------------------------------------

    def child(self, cmd: list[str]) -> tuple[float, float, int, Path]:
        """Run one child to completion: (wall s, peak RSS MB, exit code, log path)."""
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise RunTimeout("no time left for another child process")
        log_path = self.tmp / "child.log"
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT)
            try:
                signal.setitimer(signal.ITIMER_REAL, timeout)
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, log_path

    def cli_command(self, config: Path) -> list[str]:
        return [sys.executable, "-m", "qutrit_pingpong", *self.cli_argv(config)]

    def cli_argv(self, config: Path) -> list[str]:
        return ["simulate", "--config", str(config), "--out", str(self.tmp / "report.json"),
                "--transcript", str(self.tmp / "transcript.csv")]

    def worker(self, rep: int, setup_only: bool = False, trace: bool = False) -> tuple[float, float, int, Path, dict | None]:
        job = {"workload": self.workload, "setup_only": setup_only, "trace": trace, "rep": rep,
               "result": str(self.tmp / "result.json"), "spans": str(self.spans_path)}
        if self.cli:
            job["argv"] = self.cli_argv(self.config)
        else:
            job["inputs"] = self.inputs
        result_path = Path(job["result"])
        result_path.unlink(missing_ok=True)
        job_path = _write_json(self.tmp / "job.json", job)
        wall, rss, code, log = self.child([sys.executable, str(BENCH_DIR / "worker.py"), str(job_path)])
        result = json.loads(result_path.read_text(encoding="utf-8")) if code == 0 and result_path.exists() else None
        return wall, rss, code, log, result

    # -- repetitions ---------------------------------------------------------

    def setup_once(self) -> float:
        if self.cli:
            wall, _, code, log = self.child(self.cli_command(self.setup_config))
            problems = self.cli_problems(code, 1)
        else:
            wall, _, code, log, _ = self.worker(0, setup_only=True)
            problems = [f"exit code {code}"] if code else []
        if problems:
            raise RuntimeError(f"set-up process failed: {problems}\n{log.read_text(errors='replace')[-2000:]}")
        return wall

    def cli_problems(self, code: int, cycles: int) -> list[str]:
        report, transcript = self.tmp / "report.json", self.tmp / "transcript.csv"
        try:
            if code != 0:
                return [f"simulate exited with {code}"]
            problems = checks.sim_report_problems(json.loads(report.read_text(encoding="utf-8")), cycles)
            return problems + checks.transcript_problems(transcript, cycles)
        finally:
            report.unlink(missing_ok=True)
            transcript.unlink(missing_ok=True)

    def _outcome(self, code: int, log: Path, result: dict | None) -> dict:
        """Attempted/failed counts of one repetition; a crashed child fails everything it planned."""
        if self.cli:
            problems = self.cli_problems(code if result is None else result["exit_code"], self.cycles)
            if result is None and code != 0:
                problems.append(log.read_text(errors="replace")[-2000:])
            return {"attempted": 1, "failed": 1 if problems else 0, "problems": problems}
        if result is None:
            return {"attempted": self.planned, "failed": self.planned,
                    "problems": [f"worker exited with {code}:\n{log.read_text(errors='replace')[-2000:]}"]}
        return {"attempted": result["attempted"], "failed": result["failed"], "problems": result["problems"]}

    def rep(self, index: int) -> dict:
        """One untraced end-to-end repetition."""
        if self.cli:
            wall, rss, code, log = self.child(self.cli_command(self.config))
            result = None
        else:
            wall, rss, code, log, result = self.worker(index)
            if result is not None:
                wall -= result["check_s"]
        rep = {"wall_s": wall, "rss_mb": rss, **self._outcome(code, log, result)}
        # ops_per_s counts "work" units done in "work_s" seconds.
        if self.cli:
            if not rep["failed"]:
                rep.update(work=self.cycles, work_s=wall)
        elif result is not None:
            rep["result"] = result
            if self.workload == "short-sims":
                rep.update(work=len(result["latencies_s"]), work_s=result["work_s"])
            else:
                phases = result["phases_s"]
                rep.update(work=result["points"], work_s=phases["curve"])
                rep["completions_per_s"] = result["completions"] / phases["completion"]
        return rep

    def traced_pair(self, index: int) -> dict:
        """One untraced and one traced worker repetition, for the per-layer run."""
        pair = {}
        for trace in (False, True):
            _, _, code, log, result = self.worker(index, trace=trace)
            outcome = self._outcome(code, log, result)
            for key in ("attempted", "failed"):
                pair[key] = pair.get(key, 0) + outcome[key]
            pair.setdefault("problems", []).extend(outcome["problems"])
            pair["traced" if trace else "untraced"] = result
        return pair


def loop(seconds: float, body) -> list:
    """Closed loop with one caller: repeat ``body`` while the next run, at the
    median duration so far, still fits in ``seconds``; always at least once."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(body(len(results)))
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() + statistics.median(durations) > start + seconds:
            return results


def calibration_s() -> float:
    """Time of a fixed kernel of interpreter loops and small numpy calls, the
    same kinds of work the package does."""
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    m = np.eye(3, dtype=np.complex128)
    for _ in range(4000):
        np.abs(np.einsum("ij,jk->ik", m, m)) ** 2
    return time.perf_counter() - start


class SpeedProbe:
    """Host speed around each repetition.

    On a shared host the same work can take twice as long from one minute
    to the next. Timing the calibration kernel just before and just after a
    repetition, and scaling the repetition's times by CALIBRATION_REF_S over
    the mean kernel time, gives its times at one fixed host speed.
    """

    def __init__(self):
        calibration_s()  # the first call pays numpy's lazy set-up
        self.last = calibration_s()

    def factor(self) -> float:
        before, self.last = self.last, calibration_s()
        return CALIBRATION_REF_S / ((before + self.last) / 2.0)


def end_to_end(bench: Bench, seconds: float, setup_repeats: int) -> tuple[dict, dict, list, dict]:
    setups = [bench.setup_once() for _ in range(setup_repeats)]
    probe = SpeedProbe()

    def body(index):
        rep = bench.rep(index)
        rep["speed"] = probe.factor()
        return rep

    reps = loop(seconds, body)
    timed = [r for r in reps if r.get("work")]
    metrics = {
        "norm_wall_s": _median(r["wall_s"] * r["speed"] for r in reps),
        "norm_ops_per_s": _median(r["work"] / (r["work_s"] * r["speed"]) for r in timed),
        "peak_rss_mb": _median(r["rss_mb"] for r in reps),
        "setup_s": _median(setups),
    }
    # The workload's own figures, as measured (not scaled to the reference speed).
    extra = {
        "wall_s": (_median(r["wall_s"] for r in reps), "s"),
        "speed_factor": (_median(r["speed"] for r in reps), "frac"),
    }
    rate = _median(r["work"] / r["work_s"] for r in timed)
    if bench.cli:
        extra["cycles_per_s"] = (rate, "1/s")
    elif bench.workload == "short-sims":
        latencies = sorted(x for r in reps if "result" in r for x in r["result"]["latencies_s"])
        extra["runs_per_s"] = (rate, "1/s")
        if latencies:
            extra["run_p50_ms"] = (1e3 * statistics.median(latencies), "ms")
            # Nearest rank over the pooled calls; with more than 1000 samples at least 10 lie beyond it.
            extra["run_p99_ms"] = (1e3 * latencies[math.ceil(0.99 * len(latencies)) - 1], "ms")
            extra["run_samples"] = (len(latencies), "count")
    else:
        extra["curve_points_per_s"] = (rate, "1/s")
        extra["completions_per_s"] = (_median(r["completions_per_s"] for r in reps if "completions_per_s" in r), "1/s")
    raw = {"setup_s": setups, "reps": [{k: v for k, v in r.items() if k != "result"} for r in reps]}
    return metrics, extra, reps, raw


def layer_metrics(layers: dict) -> dict:
    m = {}
    for name in tracer.NAMES:
        m[f"{name}.calls"] = layers[name]["calls"]
        m[f"{name}.self_s"] = layers[name]["self_s"]
    run = layers["protocol.run"]
    m["protocol.run.us_per_cycle"] = 1e6 * run["self_s"] / run["cycles"] if run.get("cycles") else 0.0
    m["protocol.write_transcript.bytes"] = layers["protocol.write_transcript"].get("bytes", 0)
    cc = layers["attack.complete_circulant"]
    m["attack.complete_circulant.rejected"] = cc["errors"]
    m["attack.complete_circulant.accept_ratio"] = (cc["calls"] - cc["errors"]) / cc["calls"] if cc["calls"] else 0.0
    curve = layers["information.info_curve"]
    m["information.info_curve.us_per_point"] = 1e6 * curve["total_s"] / curve["points"] if curve.get("points") else 0.0
    return m


def per_layer(bench: Bench, seconds: float) -> tuple[dict, list, dict]:
    pairs = loop(seconds, bench.traced_pair)
    traced = [layer_metrics(p["traced"]["layers"]) for p in pairs if p["traced"]]
    # median_low keeps each value one that was measured, and counts whole.
    metrics = {k: statistics.median_low([m[k] for m in traced]) for k in traced[0]} if traced else {}
    untraced_s = _median(p["untraced"]["work_s"] for p in pairs if p["untraced"])
    traced_s = _median(p["traced"]["work_s"] for p in pairs if p["traced"])
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0 if untraced_s and traced_s else 0.0
    raw = {"pairs": [{"untraced_work_s": (p["untraced"] or {}).get("work_s"),
                      "traced_work_s": (p["traced"] or {}).get("work_s")} for p in pairs]}
    return metrics, pairs, raw


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance() -> dict:
    return {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
        "note": NOTE,
    }


def run_workload(workload: str, args, out_prefix: str) -> dict:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
    prov = provenance()
    start = time.perf_counter()
    try:
        bench = Bench(workload, args.seed, args.smoke, tmp, start + RUN_LIMIT_S)
        seconds = 0 if args.smoke else args.seconds
        if not args.smoke:
            bench.setup_once()  # warm-up: byte-compiles the package, fills the page cache
        if args.trace:
            metrics, reps, raw = per_layer(bench, seconds)
            units = {k: PER_LAYER_UNITS[k.rsplit(".", 1)[1]] for k in metrics}
            extra = {}
        else:
            metrics, extra, reps, raw = end_to_end(bench, seconds, 1 if args.smoke else SETUP_REPEATS)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    prov["loadavg_after"] = os.getloadavg()
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = [msg for r in reps for msg in r["problems"]]
    summary = {
        "workload": workload, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
        "size": bench.size, "repetitions": len(reps), "elapsed_s": time.perf_counter() - start,
        "attempted": attempted, "failed": failed, "error_rate": failed / attempted if attempted else 1.0,
        "problems": problems[:20],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "workload_metrics": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "raw": raw, "provenance": prov,
    }
    path = OUT_DIR / f"{out_prefix}{workload}-seed{args.seed}-trace{args.trace}.json"
    _write_json(path, summary)

    print(f"{workload} seed={args.seed} trace={args.trace}: {len(reps)} repetitions in {summary['elapsed_s']:.1f} s")
    for name, (value, unit) in [*((k, (m["value"], m["unit"])) for k, m in summary["metrics"].items()), *extra.items()]:
        print(f"  {name:42s} {value:.6g} {unit}")
    print(f"  {'error_rate':42s} {summary['error_rate']:.6g} ({failed} failed / {attempted} attempted)")
    for msg in problems[:5]:
        print(f"  problem: {msg}")
    print(f"  provenance: git {prov['git_sha']}, source {prov['source_sha256'][:12]}, python {prov['python']}, "
          f"numpy {prov['numpy']}, nproc {prov['nproc']}, load {prov['loadavg_before'][0]:.2f} -> {prov['loadavg_after'][0]:.2f}")
    print(f"  full result: {path.relative_to(ROOT)}")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="workload to run (default with --smoke: all)")
    parser.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    parser.add_argument("--seconds", type=int, default=38, help="measuring time per run (default 38)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer traced run")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one repetition, no warm-up")
    args = parser.parse_args(argv)
    if not (args.workload or args.smoke):
        parser.error("--workload is required without --smoke")
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: package sources not found at {PACKAGE.relative_to(ROOT)}; run from a full checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)
    # Turn a termination request into SystemExit, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    prefix = "smoke-" if args.smoke else ""
    workloads = (args.workload,) if args.workload else WORKLOADS
    summaries = [run_workload(w, args, prefix) for w in workloads]
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    correct = failed == 0 and all(s["metrics"] for s in summaries)
    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {s["workload"]: s["metrics"] for s in summaries}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
