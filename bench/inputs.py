"""Seeded inputs for the benchmark workloads.

Every draw comes from ``random.Random(seed)``, whose stream is the same on
every platform and Python 3 release, so one seed always gives the same
configs and columns. The package under test never sees the benchmark seed:
it receives only the configs and objects built from these plain dicts.
"""

from __future__ import annotations

import cmath
import math
import random

PRESETS = ("uniform", "tiered", "sparse", "peaked", "two-bigram")

_OMEGA = cmath.exp(2j * math.pi / 3.0)


def circulant_column(rng: random.Random) -> list[list[float]]:
    """First column of a random circulant unitary, as [re, im] pairs.

    Two eigenphases go through the inverse Fourier map, so the column has
    unit norm to double precision and always admits a circulant completion.
    Values keep all their digits: a column rounded to four places (as in
    the README example) misses the package's 1e-9 norm check.
    """
    eig = (1.0, cmath.exp(1j * rng.uniform(-math.pi, math.pi)), cmath.exp(1j * rng.uniform(-math.pi, math.pi)))
    col = [sum(_OMEGA ** ((l * m) % 3) * eig[m] for m in range(3)) / 3.0 for l in range(3)]
    return [[c.real, c.imag] for c in col]


def chain_links_feasible(moduli) -> bool:
    """Whether a squared-moduli triple has a circulant unitary completion.

    For N = 3 a bistochastic matrix is unistochastic exactly when its chain
    links close into a triangle (Bengtsson et al., quant-ph/0402325); for
    the circulant pattern the links are sqrt(t0 t2), sqrt(t0 t1) and
    sqrt(t1 t2). This is the benchmark's own verdict, independent of the
    package's completion search.
    """
    t0, t1, t2 = moduli
    links = (math.sqrt(t0 * t2), math.sqrt(t0 * t1), math.sqrt(t1 * t2))
    return 2.0 * max(links) <= sum(links)


def sim_config(seed: int, cycles: int) -> dict:
    """Run config for the CLI ``simulate`` workload: an x-basis circulant
    column realized without an ancilla, uniform frequencies."""
    rng = random.Random(seed)
    return {
        "cycles": cycles,
        "seed": rng.randrange(2**31),
        "q": 0.25,
        "basis_weights": [0.5, 0.5],
        "ancilla": "none",
        "freq": {"preset": "uniform"},
        "attack": {"type": "column", "basis": "x", "values": circulant_column(rng)},
    }


def short_sims_configs(seed: int, runs: int, cycles: int) -> list[dict]:
    """Configs for many short runs.

    The attack rotates through none, symmetric, a z- or x-basis column with
    the branch ancilla and a column with ``ancilla: none`` (which needs a
    completion); the preset rotates through all five, so every pairing
    recurs every 20 runs, and q is drawn from [0.1, 0.5].
    """
    rng = random.Random(seed)
    configs = []
    for k in range(runs):
        kind = k % 4
        ancilla = "none" if kind == 3 else "branch"
        if kind == 0:
            attack = {"type": "none"}
        elif kind == 1:
            attack = {"type": "symmetric", "d_z": rng.uniform(0.05, 0.65)}
        else:
            attack = {"type": "column", "basis": rng.choice("zx"), "values": circulant_column(rng)}
        configs.append(
            {
                "cycles": cycles,
                "seed": rng.randrange(2**31),
                "q": rng.uniform(0.1, 0.5),
                "ancilla": ancilla,
                "freq": {"preset": PRESETS[k % len(PRESETS)]},
                "attack": attack,
            }
        )
    return configs


def exact_analysis_inputs(seed: int, grid: int, columns: int, spectrum_checks: int) -> dict:
    """Leak-curve grid size and Dirichlet moduli columns for the analysis workload.

    Moduli triples are Dirichlet(1, 1, 1) draws with random entry phases.
    Exactly half are feasible by the chain-links test, so every seed asks
    the completion for the same mix of cheap accepts and budget-exhausting
    rejects.
    """
    rng = random.Random(seed)
    wanted = {True: columns // 2, False: columns - columns // 2}
    cols = []
    while len(cols) < columns:
        draws = [rng.expovariate(1.0) for _ in range(3)]
        total = sum(draws)
        moduli = [x / total for x in draws]
        feasible = chain_links_feasible(moduli)
        if not wanted[feasible]:
            continue
        wanted[feasible] -= 1
        values = []
        for t in moduli:
            phase = rng.uniform(-math.pi, math.pi)
            values.append([math.sqrt(t) * math.cos(phase), math.sqrt(t) * math.sin(phase)])
        cols.append({"moduli": moduli, "values": values, "basis": "zx"[len(cols) % 2]})
    return {"presets": list(PRESETS), "grid": grid, "columns": cols, "spectrum_checks": spectrum_checks}
