"""Output checks for the benchmark workloads.

Each check returns a list of problems (empty when the output is right). None
of them depends on the random stream: they test bookkeeping identities, wide
statistical bands around exact predictions, and exact-analysis identities,
so a deliberate change of the sampler's stream still passes.
"""

from __future__ import annotations

import math

from inputs import chain_links_feasible


def sim_report_problems(report: dict, cycles: int) -> list[str]:
    """Bookkeeping and statistics of one simulation report (``RunReport.as_dict``)."""
    problems = []
    control, message = report["control_rounds"], report["message_rounds"]
    if report["cycles"] != cycles or control + message != cycles:
        problems.append(f"rounds {control} + {message} do not add up to {cycles} cycles")
    confusion = report["confusion"]
    if sum(map(sum, confusion)) != message:
        problems.append("confusion matrix does not sum to the message rounds")
    if sum(confusion[k][k] for k in range(9)) != report["correct_messages"]:
        problems.append("correct messages differ from the confusion diagonal")
    stats = report["basis_stats"]
    if sum(s["rounds"] for s in stats.values()) != control:
        problems.append("per-basis rounds do not sum to the control rounds")
    if sum(s["detections"] for s in stats.values()) != report["detections"]:
        problems.append("per-basis detections do not sum to the detections")
    if (report["first_detection_cycle"] is None) != (report["detections"] == 0):
        problems.append("first detection cycle disagrees with the detection count")
    for basis, s in stats.items():
        n, p = s["rounds"], s["predicted"]
        if not 0.0 <= p <= 1.0:
            problems.append(f"basis {basis}: predicted rate {p!r} is not a probability")
        elif n:
            # Six sigma plus three counts: wide enough that no seed trips it.
            band = 6.0 * math.sqrt(p * (1.0 - p) / n) + 3.0 / n
            if abs(s["detections"] / n - p) > band:
                problems.append(f"basis {basis}: rate {s['detections']}/{n} is far from predicted {p:.6f}")
    return problems


def transcript_problems(path, cycles: int) -> list[str]:
    """The transcript holds the header plus one row per cycle."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        rows = sum(1 for _ in fh)
    problems = []
    if header != "cycle,mode,basis,alice,bob,detected,sent,decoded":
        problems.append(f"unexpected transcript header {header!r}")
    if rows != cycles:
        problems.append(f"transcript has {rows} rows for {cycles} cycles")
    return problems


def _entropy_trits(probs) -> float:
    return -sum(p * math.log(p) for p in probs if p > 0.0) / math.log(3.0)


def curve_problems(values: list[float], table) -> list[str]:
    """Leak-curve identities: I(0) is the shift-class entropy, I(2/3) the
    source entropy (both to 1e-9), and the curve never decreases."""
    flat = [float(x) for row in table for x in row]
    classes = [sum(float(table[i][j]) for i in range(3)) for j in range(3)]
    problems = []
    if abs(values[0] - _entropy_trits(classes)) > 1e-9:
        problems.append(f"I(0) = {values[0]!r} is not the shift-class entropy")
    if abs(values[-1] - _entropy_trits(flat)) > 1e-9:
        problems.append(f"I(2/3) = {values[-1]!r} is not the source entropy")
    if any(b < a - 1e-12 for a, b in zip(values, values[1:])):
        problems.append("curve decreases")
    return problems


def holevo_problems(value: float, table) -> list[str]:
    """The Holevo bound lies between 0 and the source entropy."""
    entropy = _entropy_trits(float(x) for row in table for x in row)
    return [] if -1e-12 <= value <= entropy + 1e-9 else [f"Holevo bound {value!r} outside [0, {entropy!r}]"]


def completion_problems(moduli, column_moduli) -> list[str]:
    """Verdict against the chain-links test; an accepted operator's first
    column must reproduce the target moduli to 1e-10. ``column_moduli`` is
    None when the completion was rejected."""
    feasible = chain_links_feasible(moduli)
    if column_moduli is None:
        return [f"feasible moduli {moduli} rejected"] if feasible else []
    if not feasible:
        return [f"infeasible moduli {moduli} accepted"]
    residual = max(abs(a - b) for a, b in zip(column_moduli, moduli))
    return [f"completion misses moduli {moduli} by {residual:.3e}"] if residual > 1e-10 else []
