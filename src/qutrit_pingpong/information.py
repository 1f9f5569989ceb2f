"""Eavesdropper information bounds.

Given an attack column and the sender's bigram frequency table, the
eavesdropper's accessible information about the message mode is the Holevo
quantity of the nine conditional probe states. The 9x9 ensemble density
operator is block-structured: its spectrum splits into three cubics, one
per shift class of the bigram alphabet, with coefficients that are simple
symmetric functions of the column moduli and the class frequencies. Both
the factorized route and a direct dense diagonalization are provided so
each can check the other.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .attack import AttackColumn, symmetric_column
from .qutrit import OMEGA, Hermitian9, NumericalError, solve_cubic

TRIT_TO_BIT = math.log2(3.0)

_FREQ_SUM_TOL = 1e-12
_EIGENVALUE_FLOOR = -1e-10


@dataclass(frozen=True)
class FrequencyTable:
    """Bigram frequencies p[i][j]: phase index i, shift index j.

    Rows and columns both run over {0, 1, 2}; entries are non-negative and
    sum to one.
    """

    p: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.p, dtype=float)
        if arr.shape != (3, 3):
            raise ValueError(f"frequency table must be 3x3, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("frequencies must be finite")
        if (arr < 0.0).any():
            raise ValueError("frequencies must be non-negative")
        total = float(arr.sum())
        if abs(total - 1.0) > _FREQ_SUM_TOL:
            raise ValueError(f"frequencies must sum to 1, got {total!r}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "p", arr)

    @classmethod
    def uniform(cls) -> "FrequencyTable":
        return cls(np.full((3, 3), 1.0 / 9.0))

    def group(self, j: int) -> tuple[float, float, float]:
        """Frequencies of the three bigrams sharing shift index j."""
        if j not in (0, 1, 2):
            raise ValueError(f"shift index must be 0, 1 or 2, got {j!r}")
        return (float(self.p[0, j]), float(self.p[1, j]), float(self.p[2, j]))

    def group_sums(self) -> tuple[float, float, float]:
        sums = self.p.sum(axis=0)
        return (float(sums[0]), float(sums[1]), float(sums[2]))

    def flat(self) -> np.ndarray:
        """Row-major vector, entry 3*i + j."""
        return self.p.reshape(9).copy()


def frequency_table_from_rows(rows, where: str) -> FrequencyTable:
    """Validate a 3x3 frequency array read from JSON and renormalize it.

    Small rounding in the input is forgiven by renormalizing, but sums more
    than 1e-9 away from one are rejected as genuinely malformed. Error
    messages start with where, the caller's name for the array.
    """
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{where} must be a 3x3 array of numbers") from None
    if arr.shape != (3, 3):
        raise ValueError(f"{where} must be a 3x3 array of numbers")
    if not np.isfinite(arr).all() or (arr < 0.0).any():
        raise ValueError(f"{where} entries must be finite and non-negative")
    total = float(arr.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"{where} entries sum to {total!r}, not 1")
    return FrequencyTable(arr / total)


def load_frequency_table(path) -> FrequencyTable:
    """Read a frequency table from JSON: {"p": [[...], [...], [...]]}."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"frequency file {path}: invalid JSON ({exc})") from exc
    if not (isinstance(data, dict) and "p" in data):
        raise ValueError(f"frequency file {path}: expected an object with a 'p' field")
    return frequency_table_from_rows(data["p"], f"frequency file {path}: 'p'")


def _preset(rows) -> FrequencyTable:
    return FrequencyTable(np.array(rows, dtype=float))


FREQUENCY_PRESETS: dict[str, FrequencyTable] = {
    "uniform": FrequencyTable.uniform(),
    "tiered": _preset(
        [
            [1 / 6, 1 / 6, 1 / 18],
            [1 / 9, 1 / 18, 1 / 9],
            [1 / 18, 1 / 9, 1 / 6],
        ]
    ),
    "sparse": _preset(
        [
            [2 / 9, 0.0, 2 / 9],
            [0.0, 2 / 9, 0.0],
            [2 / 9, 0.0, 1 / 9],
        ]
    ),
    "peaked": _preset(
        [
            [0.4, 0.0, 0.0],
            [0.1, 0.4, 0.0],
            [0.0, 0.1, 0.0],
        ]
    ),
    "two-bigram": _preset(
        [
            [2 / 3, 0.0, 0.0],
            [0.0, 1 / 3, 0.0],
            [0.0, 0.0, 0.0],
        ]
    ),
}


@dataclass(frozen=True)
class InfoResult:
    """An information value tagged with its unit ("trit" or "bit")."""

    value: float
    unit: str

    def __post_init__(self):
        if self.unit not in ("trit", "bit"):
            raise ValueError(f"unit must be 'trit' or 'bit', got {self.unit!r}")
        upper = 2.0 if self.unit == "trit" else 2.0 * TRIT_TO_BIT
        if not (math.isfinite(self.value) and -1e-9 <= self.value <= upper + 1e-9):
            raise ValueError(f"information value {self.value!r} outside [0, {upper}]")

    def in_bits(self) -> float:
        return self.value * TRIT_TO_BIT if self.unit == "trit" else self.value

    def in_trits(self) -> float:
        return self.value / TRIT_TO_BIT if self.unit == "bit" else self.value


def _entropy_base3(probs) -> float:
    h = 0.0
    for p in probs:
        if p > 0.0:
            h -= p * math.log(p)
    return h / math.log(3.0)


def source_entropy(freq: FrequencyTable, unit: str = "trit") -> InfoResult:
    """Shannon entropy of the bigram source."""
    h = _entropy_base3(freq.flat())
    if unit == "bit":
        return InfoResult(h * TRIT_TO_BIT, "bit")
    return InfoResult(h, unit)


class DensityMatrix9(Hermitian9):
    """A 9x9 density operator: Hermitian, unit trace, positive semidefinite."""

    def __post_init__(self):
        super().__post_init__()
        tr = float(np.trace(self.m).real)
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"density matrix trace must be 1, got {tr!r}")
        low = float(np.linalg.eigvalsh(self.m).min())
        if low < _EIGENVALUE_FLOOR:
            raise ValueError(f"density matrix has negative eigenvalue {low!r}")


def _probe_state(col: AttackColumn, i: int, j: int) -> np.ndarray:
    """Eavesdropper's conditional pure state for bigram (i, j).

    Nine amplitudes indexed 3*block + travel, where the block records which
    computational component the probe latched onto and the travel index is
    the coded output Bob receives.
    """
    psi = np.zeros(9, dtype=np.complex128)
    psi[3 * 0 + j % 3] = col.c0
    psi[3 * 1 + (1 + j) % 3] = col.c1 * OMEGA ** (i % 3)
    psi[3 * 2 + (2 + j) % 3] = col.c2 * OMEGA ** ((2 * i) % 3)
    return psi


def assemble_rho(col: AttackColumn, freq: FrequencyTable) -> DensityMatrix9:
    """Ensemble density operator of the nine frequency-weighted probe states."""
    rho = np.zeros((9, 9), dtype=np.complex128)
    for i in range(3):
        for j in range(3):
            w = freq.p[i, j]
            if w == 0.0:
                continue
            psi = _probe_state(col, i, j)
            rho += w * np.outer(psi, psi.conj())
    return DensityMatrix9(rho)


def cubic_coefficients(
    moduli: tuple[float, float, float], group: tuple[float, float, float]
) -> tuple[float, float, float]:
    """Monic cubic lambda^3 + c2 lambda^2 + c1 lambda + c0 for one shift class.

    moduli is the attack column's squared-moduli triple, group the class's
    three bigram frequencies. The three cubics (one per class) jointly carry
    the full ensemble spectrum.
    """
    a, b, c = moduli
    p0, p1, p2 = group
    c2 = -(p0 + p1 + p2)
    c1 = 3.0 * (a * b + a * c + b * c) * (p0 * p1 + p0 * p2 + p1 * p2)
    c0 = -27.0 * a * b * c * p0 * p1 * p2
    return (c2, c1, c0)


def factorized_eigenvalues(col: AttackColumn, freq: FrequencyTable) -> np.ndarray:
    """All nine ensemble eigenvalues via the three per-class cubics, descending."""
    moduli = col.moduli_squared()
    roots: list[float] = []
    for j in range(3):
        c2, c1, c0 = cubic_coefficients(moduli, freq.group(j))
        roots.extend(solve_cubic(c2, c1, c0))
    return np.sort(np.array(roots))[::-1]


def holevo_information(
    col: AttackColumn, freq: FrequencyTable, unit: str = "trit"
) -> InfoResult:
    """Eavesdropper's Holevo bound on information about the bigram.

    The probe states are pure, so the bound is the ensemble eigenvalue
    entropy. Eigenvalues in [-1e-10, 0) are clamped to zero; anything lower
    or any total off from one by more than 1e-9 raises NumericalError.
    """
    lams = factorized_eigenvalues(col, freq)
    if lams.min() < _EIGENVALUE_FLOOR:
        raise NumericalError(f"spectrum has negative eigenvalue {lams.min()!r}")
    lams = np.clip(lams, 0.0, None)
    total = float(lams.sum())
    if abs(total - 1.0) > 1e-9:
        raise NumericalError(f"spectrum sums to {total!r}, expected 1")
    h = _entropy_base3(lams)
    if unit == "bit":
        return InfoResult(h * TRIT_TO_BIT, "bit")
    return InfoResult(h, unit)


def info_curve(
    freq: FrequencyTable, d_values=None
) -> list[tuple[float, float]]:
    """(detection, information) samples for the symmetric attack family.

    Detection runs over [0, 2/3]; information is reported in trits. The
    default grid has 67 evenly spaced points.
    """
    if d_values is None:
        d_values = np.linspace(0.0, 2.0 / 3.0, 67)
    points = []
    for d in np.asarray(d_values, dtype=float):
        if not (math.isfinite(d) and -1e-12 <= d <= 2.0 / 3.0 + 1e-12):
            raise ValueError(f"detection grid value {d!r} outside [0, 2/3]")
        d = min(max(d, 0.0), 2.0 / 3.0)
        info = holevo_information(symmetric_column(d), freq)
        points.append((float(d), info.value))
    return points


def curve_csv(points) -> str:
    """CSV text of info_curve points: d_z,I0_trits,I0_bits at 17 significant digits."""
    lines = ["d_z,I0_trits,I0_bits"]
    lines.extend(f"{d:.17g},{v:.17g},{v * TRIT_TO_BIT:.17g}" for d, v in points)
    return "\n".join(lines) + "\n"
