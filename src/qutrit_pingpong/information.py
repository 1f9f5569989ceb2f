"""Eavesdropper information bounds.

Given an attack column and the sender's bigram frequency table, the
eavesdropper's accessible information about the message mode is the Holevo
quantity of the nine conditional probe states; the probe state for bigram
(i, j) is coding unitary (i, j), taken from qutrit.CODING_UNITARIES,
applied to the attack-weighted pointer state. The 9x9 ensemble density
operator is block diagonal, one 3x3 block per shift class of the bigram
alphabet, and each block has the spectrum of the Gram matrix of its three
weighted probe states, which depends only on the column's squared moduli.
One private batched routine builds these blocks for N columns at once and
diagonalizes them in a single eigvalsh call; the leak curve, the Holevo
bound and the factorized spectrum all go through it. The paper's
closed-form cubics (cubic_coefficients) are the blocks' characteristic
polynomials, and the dense 9x9 operator (assemble_rho) is kept so that
each route can check the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .attack import AttackColumn, is_finite_real, read_json
from .qutrit import ALGEBRAIC_TOL, CODING_UNITARIES, OMEGA, NumericalError, frozen_array

TRIT_TO_BIT = math.log2(3.0)

_FREQ_SUM_TOL = 1e-12
_EIGENVALUE_FLOOR = -1e-10


@dataclass(frozen=True, eq=False)
class FrequencyTable:
    """Bigram frequencies p[i][j]: phase index i, shift index j.

    Rows and columns both run over {0, 1, 2}; entries are non-negative and
    sum to one. Two tables are equal when their entries are.
    """

    p: np.ndarray
    # _gram_weights[j, i, k] = sqrt(p[i][j] p[k][j]), the scale of the shift-class
    # Gram blocks, kept C-contiguous so a single spectrum does not rebuild it.
    _gram_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = frozen_array(self.p, (3, 3), "frequency table", dtype=float)
        if (arr < 0.0).any():
            raise ValueError("frequencies must be non-negative")
        total = float(arr.sum())
        if abs(total - 1.0) > _FREQ_SUM_TOL:
            raise ValueError(f"frequencies must sum to 1, got {total!r}")
        object.__setattr__(self, "p", arr)
        weights = np.ascontiguousarray(np.sqrt(arr.T[:, :, None] * arr.T[:, None, :]))
        weights.setflags(write=False)
        object.__setattr__(self, "_gram_weights", weights)

    def __eq__(self, other):
        if not isinstance(other, FrequencyTable):
            return NotImplemented
        return bool(np.array_equal(self.p, other.p))

    def __hash__(self):
        return hash(self.p.tobytes())

    @classmethod
    def uniform(cls) -> "FrequencyTable":
        return cls(np.full((3, 3), 1.0 / 9.0))


def frequency_table_from_rows(rows, where: str) -> FrequencyTable:
    """Validate a 3x3 frequency array read from JSON and renormalize it.

    Each entry must be a finite, non-negative int or float; JSON booleans
    and strings are rejected. Small rounding in the input is forgiven by
    renormalizing, but sums more than 1e-9 away from one are rejected as
    genuinely malformed. Error messages start with where, the caller's name
    for the array.
    """
    rows_ok = isinstance(rows, list) and len(rows) == 3
    if not (rows_ok and all(isinstance(row, list) and len(row) == 3 for row in rows)):
        raise ValueError(f"{where} must be a 3x3 array of numbers")
    if not all(is_finite_real(x) and x >= 0 for row in rows for x in row):
        raise ValueError(f"{where} entries must be finite non-negative numbers")
    arr = np.array(rows, dtype=float)
    total = float(arr.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"{where} entries sum to {total!r}, not 1")
    return FrequencyTable(arr / total)


def load_frequency_table(path) -> FrequencyTable:
    """Read a frequency table from JSON: {"p": [[...], [...], [...]]} and no other field."""
    data = read_json(path, "frequency file")
    if not (isinstance(data, dict) and set(data) == {"p"}):
        raise ValueError(f"frequency file {path}: expected an object with a 'p' field and no other")
    return frequency_table_from_rows(data["p"], f"frequency file {path}: 'p'")


FREQUENCY_PRESETS: dict[str, FrequencyTable] = {
    "uniform": FrequencyTable.uniform(),
    "tiered": FrequencyTable(
        [
            [1 / 6, 1 / 6, 1 / 18],
            [1 / 9, 1 / 18, 1 / 9],
            [1 / 18, 1 / 9, 1 / 6],
        ]
    ),
    "sparse": FrequencyTable(
        [
            [2 / 9, 0.0, 2 / 9],
            [0.0, 2 / 9, 0.0],
            [2 / 9, 0.0, 1 / 9],
        ]
    ),
    "peaked": FrequencyTable(
        [
            [0.4, 0.0, 0.0],
            [0.1, 0.4, 0.0],
            [0.0, 0.1, 0.0],
        ]
    ),
    "two-bigram": FrequencyTable(
        [
            [2 / 3, 0.0, 0.0],
            [0.0, 1 / 3, 0.0],
            [0.0, 0.0, 0.0],
        ]
    ),
}


@dataclass(frozen=True)
class InfoResult:
    """An information value in trits; multiply by TRIT_TO_BIT for bits."""

    value: float

    def __post_init__(self):
        if not (math.isfinite(self.value) and -1e-9 <= self.value <= 2.0 + 1e-9):
            raise ValueError(f"information value {self.value!r} outside [0, 2.0]")


def _entropy_trits(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy in trits over the last axis of non-negative probs."""
    logs = np.log(probs, out=np.zeros(probs.shape), where=probs > 0.0)
    # + 0.0 turns the -0.0 of a deterministic source into +0.0, nothing else.
    return np.add.reduce(probs * logs, axis=-1) * (-1.0 / math.log(3.0)) + 0.0


def source_entropy(freq: FrequencyTable) -> InfoResult:
    """Shannon entropy of the bigram source, in trits."""
    return InfoResult(float(_entropy_trits(freq.p.reshape(9))))


@dataclass(frozen=True, eq=False)
class DensityMatrix9:
    """A 9x9 density operator: Hermitian, unit trace, positive semidefinite."""

    m: np.ndarray

    def __post_init__(self):
        arr = frozen_array(self.m, (9, 9), "density matrix")
        residual = np.abs(arr - arr.conj().T).max()
        if residual > ALGEBRAIC_TOL:
            raise ValueError(f"density matrix is not Hermitian, residual {residual:.3e}")
        tr = float(np.trace(arr).real)
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"density matrix trace must be 1, got {tr!r}")
        low = float(np.linalg.eigvalsh(arr).min())
        if low < _EIGENVALUE_FLOOR:
            raise ValueError(f"density matrix has negative eigenvalue {low!r}")
        object.__setattr__(self, "m", arr)


def assemble_rho(col: AttackColumn, freq: FrequencyTable) -> DensityMatrix9:
    """Ensemble density operator of the nine frequency-weighted probe states.

    Eve's probe state for bigram k = 3i + j is coding unitary k applied to
    her attack-weighted pointer state: nine amplitudes indexed 3*block +
    travel, where the block records which computational component the probe
    latched onto and the travel index is the coded output Bob receives.
    """
    probes = (CODING_UNITARIES * col.as_array()).transpose(0, 2, 1).reshape(9, 9)
    return DensityMatrix9((probes.T * freq.p.reshape(9)) @ probes.conj())


def cubic_coefficients(
    moduli: tuple[float, float, float], group: tuple[float, float, float]
) -> tuple[float, float, float]:
    """Monic cubic lambda^3 + c2 lambda^2 + c1 lambda + c0 for one shift class.

    moduli is the attack column's squared-moduli triple, group the class's
    three bigram frequencies. This is the paper's closed form of the class's
    characteristic polynomial: c2, c1 and c0 are minus the trace, the sum of
    principal 2x2 minors and minus the determinant of its Gram block.
    """
    a, b, c = moduli
    p0, p1, p2 = group
    c2 = -(p0 + p1 + p2)
    c1 = 3.0 * (a * b + a * c + b * c) * (p0 * p1 + p0 * p2 + p1 * p2)
    c0 = -27.0 * a * b * c * p0 * p1 * p2
    return (c2, c1, c0)


# Entry [l, 3*i + k] is omega^(l (k - i)): the phase that squared modulus l
# puts on the overlap of the probe states of phase indices i and k.
_GRAM_PHASES = np.array(
    [[OMEGA ** (l * (k - i) % 3) for i in range(3) for k in range(3)] for l in range(3)]
)
_GRAM_PHASES.setflags(write=False)


def _class_blocks(moduli: np.ndarray, freq: FrequencyTable) -> np.ndarray:
    """Gram blocks of the three shift classes, shape (N, 3, 3, 3).

    moduli has shape (N, 3). Block [n, j] is G_ik = sqrt(p_ij p_kj)
    sum_l t_l omega^(l (k - i)) for the squared moduli t = moduli[n]: the
    Gram matrix of the class-j probe states, whose eigenvalues are the
    class's share of the ensemble spectrum; the column's phases drop out.
    """
    return (moduli @ _GRAM_PHASES).reshape(-1, 1, 3, 3) * freq._gram_weights


def _class_spectra(moduli: np.ndarray, freq: FrequencyTable) -> np.ndarray:
    """All nine ensemble eigenvalues of each row of moduli, shape (N, 9)."""
    return np.linalg.eigvalsh(_class_blocks(moduli, freq)).reshape(-1, 9)


def _first(values: np.ndarray, bad: np.ndarray) -> float:
    """The first of values where bad is set, for an error message."""
    return float(values[np.flatnonzero(bad)[0]])


def _holevo_trits(moduli: np.ndarray, freq: FrequencyTable) -> np.ndarray:
    """Holevo bound in trits of each row of moduli, shape (N,).

    Eigenvalues in [-1e-10, 0) are clamped to zero; anything lower or any
    spectrum total off from one by more than 1e-9 raises NumericalError,
    and a value outside [0, 2] trits raises ValueError, each naming the
    first offending point.
    """
    lams = _class_spectra(moduli, freq)
    # Each check is one reduction over the batch; only a failure looks for
    # the first offending point.
    if lams.min(initial=0.0) < _EIGENVALUE_FLOOR:
        low = lams.min(axis=1)
        first = _first(low, low < _EIGENVALUE_FLOOR)
        raise NumericalError(f"spectrum has negative eigenvalue {first!r}")
    lams = np.maximum(lams, 0.0)
    totals = np.add.reduce(lams, axis=1)
    errors = np.abs(totals - 1.0)
    if errors.max(initial=0.0) > 1e-9:
        raise NumericalError(f"spectrum sums to {_first(totals, errors > 1e-9)!r}, expected 1")
    info = _entropy_trits(lams)
    # [-1e-9, 2 + 1e-9] is the band of half-width 1 + 1e-9 around 1; NaN fails too.
    offsets = np.abs(info - 1.0)
    if not offsets.max(initial=0.0) <= 1.0 + 1e-9:
        bad = ~(offsets <= 1.0 + 1e-9)
        raise ValueError(f"information value {_first(info, bad)!r} outside [0, 2.0]")
    return info


def factorized_eigenvalues(col: AttackColumn, freq: FrequencyTable) -> np.ndarray:
    """All nine ensemble eigenvalues from the three shift-class blocks, descending."""
    return np.sort(_class_spectra(np.array([col.moduli_squared()]), freq)[0])[::-1]


def holevo_information(col: AttackColumn, freq: FrequencyTable) -> InfoResult:
    """Eavesdropper's Holevo bound on information about the bigram, in trits.

    The probe states are pure, so the bound is the ensemble eigenvalue
    entropy. Eigenvalues in [-1e-10, 0) are clamped to zero; anything lower
    or any total off from one by more than 1e-9 raises NumericalError.
    """
    return InfoResult(float(_holevo_trits(np.array([col.moduli_squared()]), freq)[0]))


def info_curve(
    freq: FrequencyTable, d_values=None
) -> list[tuple[float, float]]:
    """(detection, information) samples for the symmetric attack family.

    Detection runs over [0, 2/3]; information is reported in trits. The
    default grid has 67 evenly spaced points. The grid must be a
    one-dimensional sequence of ints or floats, not booleans or strings;
    values within 1e-12 of the range are clamped into it, and NaN,
    infinities or anything further out raise ValueError naming the first
    bad value. The whole grid is evaluated in one batch.
    """
    if d_values is None:
        d_values = np.linspace(0.0, 2.0 / 3.0, 67)
    try:
        d = np.array(d_values)
    except (TypeError, ValueError):  # a ragged grid
        d = np.array(None)
    if d.dtype.kind not in "iuf":  # not booleans or strings, though numpy casts them
        raise ValueError("detection grid must be a sequence of numbers")
    d = d.astype(float, copy=False)
    if d.ndim != 1:
        raise ValueError(f"detection grid must be one-dimensional, got shape {d.shape}")
    bad = ~((d >= -1e-12) & (d <= 2.0 / 3.0 + 1e-12))
    if bad.any():
        raise ValueError(f"detection grid value {_first(d, bad)!r} outside [0, 2/3]")
    d = np.clip(d, 0.0, 2.0 / 3.0)
    # squared moduli of symmetric_column(d)
    moduli = np.column_stack((1.0 - d, d / 2.0, d / 2.0))
    return list(zip(d.tolist(), _holevo_trits(moduli, freq).tolist()))


def curve_csv(points) -> str:
    """CSV text of info_curve points: d_z,I0_trits,I0_bits at 17 significant digits."""
    lines = ["d_z,I0_trits,I0_bits"]
    lines.extend(f"{d:.17g},{v:.17g},{v * TRIT_TO_BIT:.17g}" for d, v in points)
    return "\n".join(lines) + "\n"
