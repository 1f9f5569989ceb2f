"""One benchmark repetition, run in a fresh process by ``run.py``.

Usage: python3 bench/worker.py JOB.json

The job names the workload, its inputs, whether to stop after set-up,
whether to trace, and where to write the result. In-process workloads time
their own work region and run their output checks after it, with tracing
switched off. The ``sim-transcript`` workload comes here only for the traced run
(and its untraced twin), calling ``cli.main(argv)`` in process; the parent
checks its report and transcript files.
"""

from __future__ import annotations

import json
import sys
import time

import checks


def simulate(job: dict, tracer) -> dict:
    from qutrit_pingpong import cli

    start = time.perf_counter()
    code = cli.main(job["argv"])
    return {"exit_code": code, "work_s": time.perf_counter() - start}


def short_sims(job: dict, tracer) -> dict:
    from qutrit_pingpong import protocol

    configs = [protocol.ProtocolConfig.from_dict(c) for c in job["inputs"]]
    if job["setup_only"]:
        return {}
    latencies, reports = [], []
    start = time.perf_counter()
    for config in configs:
        t0 = time.perf_counter()
        reports.append(protocol.run(config))
        latencies.append(time.perf_counter() - t0)
    work_s = time.perf_counter() - start

    check_start = time.perf_counter()
    if tracer is not None:
        tracer.enabled = False
    problems = [checks.sim_report_problems(r.as_dict(), c.cycles) for c, r in zip(configs, reports)]
    return {
        "attempted": len(configs),
        "failed": sum(1 for p in problems if p),
        "problems": [msg for p in problems for msg in p][:10],
        "work_s": work_s,
        "check_s": time.perf_counter() - check_start,
        "latencies_s": latencies,
    }


def exact_analysis(job: dict, tracer) -> dict:
    import numpy as np

    from qutrit_pingpong import attack, information
    from qutrit_pingpong.qutrit import NumericalError

    data = job["inputs"]
    tables = [information.FREQUENCY_PRESETS[name] for name in data["presets"]]
    grid = np.linspace(0.0, 2.0 / 3.0, data["grid"])
    specs = data["columns"]
    columns = [attack.AttackColumn(*(complex(re, im) for re, im in s["values"])) for s in specs]
    if job["setup_only"]:
        return {}

    marks = [time.perf_counter()]
    curves = [information.info_curve(table, grid) for table in tables]
    marks.append(time.perf_counter())
    operators = []
    for column, spec in zip(columns, specs):
        try:
            operators.append(attack.complete_circulant(column, representation=spec["basis"]))
        except NumericalError:
            operators.append(None)  # a rejection; the chain-links test decides if it was right
    marks.append(time.perf_counter())
    accepted = [op.column() for op in operators if op is not None]
    infos = [[information.holevo_information(col, table) for table in tables] for col in accepted]
    marks.append(time.perf_counter())
    references = attack.verify_reference_attacks()
    marks.append(time.perf_counter())

    check_start = time.perf_counter()
    if tracer is not None:
        tracer.enabled = False
    problems = []
    for table, curve in zip(tables, curves):
        values = [v for _, v in curve]
        found = checks.curve_problems(values, table.p)
        problems.append(found if len(values) == len(grid) else found + ["curve has the wrong length"])
    for spec, op in zip(specs, operators):
        moduli = None if op is None else (np.abs(op.m[:, 0]) ** 2).tolist()
        problems.append(checks.completion_problems(spec["moduli"], moduli))
    for k, (col, row) in enumerate(zip(accepted, infos)):
        for table, info in zip(tables, row):
            found = checks.holevo_problems(info.value, table.p)
            if k < data["spectrum_checks"]:
                factorized = information.factorized_eigenvalues(col, table)
                dense = np.sort(np.linalg.eigvalsh(information.assemble_rho(col, table).m))[::-1]
                gap = float(np.abs(factorized - dense).max())
                if gap > 1e-10:
                    found.append(f"factorized spectrum misses eigvalsh by {gap:.3e}")
            problems.append(found)
    bad_rows = [c for c in references if not c.passed]
    problems.append([f"{len(references)} reference rows, {len(bad_rows)} failing"] if len(references) != 18 or bad_rows else [])
    return {
        "attempted": len(problems),
        "failed": sum(1 for p in problems if p),
        "problems": [msg for p in problems for msg in p][:10],
        "work_s": marks[-1] - marks[0],
        "check_s": time.perf_counter() - check_start,
        "phases_s": {name: b - a for name, a, b in zip(("curve", "completion", "holevo", "reference"), marks, marks[1:])},
        "points": len(grid) * len(tables),
        "completions": len(operators),
        "rejected": sum(op is None for op in operators),
    }


WORKLOADS = {
    "sim-transcript": simulate,
    "short-sims": short_sims,
    "exact-analysis": exact_analysis,
}


def main(job_path: str) -> int:
    with open(job_path, "r", encoding="utf-8") as fh:
        job = json.load(fh)
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer(rep=job["rep"])
        tracer.install()
    result = WORKLOADS[job["workload"]](job, tracer)
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.dump(job["spans"])
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
