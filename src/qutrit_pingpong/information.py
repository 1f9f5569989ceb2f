"""Eavesdropper information bounds.

Given an attack column and the sender's bigram frequency table, the
eavesdropper's accessible information about the message mode is the Holevo
quantity of the nine conditional probe states; the probe state for bigram
(i, j) is coding unitary (i, j), taken from qutrit.CODING_UNITARIES,
applied to the attack-weighted pointer state. The 9x9 ensemble density
operator is block diagonal, one 3x3 block per shift class of the bigram
alphabet, each with the spectrum of the Gram matrix of its three weighted
probe states, which depends only on the column's squared moduli. That
spectrum is the root set of the paper's class cubic, symmetric in the
class's frequencies, and a zero frequency zeroes a row and column of the
block. So a table keeps one block per distinct non-empty class, on its k
nonzero frequencies only, and a count of the classes it stands for, with
the classes sorted when the table is built into one group per solver. One
private batched routine solves the groups for N columns at once: a class
whose three frequencies are all exactly q is circulant, with eigenvalues
3q t_l for the squared moduli t and no block built (so the uniform
source's curve is 1 + H3(d)); the other 3x3 blocks take one eigvalsh call,
as the closed-form cubic splits an exact double root by ~1e-9; 2x2 and
1x1 blocks have closed forms. The leak curve (one read-only (N, 2)
array), the Holevo bound and the factorized spectrum all go through it.
On the symmetric attack family (t1 = t2) the blocks are real symmetric,
so eigvalsh takes LAPACK's real symmetric eigensolver; general columns
keep the Hermitian one. The paper's closed-form cubics
(cubic_coefficients) are the full blocks' characteristic polynomials, and
the dense 9x9 operator (assemble_rho) is kept so that each route can
check the other.

A frequency table's JSON form, {"preset": name} or {"p": 3x3 rows} in a --freq file and a run
config alike, is read by frequency_table_from_dict and written by frequency_table_to_dict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .attack import AttackColumn, is_finite_real, read_json
from .qutrit import ALGEBRAIC_TOL, CODING_UNITARIES, NumericalError, frozen_array

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
    # _class_groups holds one array per solver that some distinct non-empty
    # class needs, in this order. Classes with k = 1, 2 or 3 nonzero
    # frequencies q, not all three equal, have a (U_k, k, k) group of Gram
    # weights: [u, i, m] = sqrt(q_i q_m) over q, in table order, of the first
    # shift class standing for class u. Classes whose three frequencies are
    # all exactly q have a (U_e, 3) group: row u is 3q three times, the scale
    # of each squared modulus in the circulant block's eigenvalues 3q t_l.
    # _class_counts[u], over the groups in turn, is how many of the three
    # classes hold the same frequencies in some order. A class whose
    # frequencies are all zero has no entry.
    _class_groups: tuple = field(init=False, repr=False, compare=False)
    _class_counts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = frozen_array(self.p, (3, 3), "frequency table", dtype=float)
        if (arr < 0.0).any():
            raise ValueError("frequencies must be non-negative")
        total = float(arr.sum())
        if abs(total - 1.0) > _FREQ_SUM_TOL:
            raise ValueError(f"frequencies must sum to 1, got {total!r}")
        object.__setattr__(self, "p", arr)
        columns = arr.T.tolist()
        keys = [tuple(sorted(group)) for group in columns]
        distinct = [j for j, key in enumerate(keys) if any(key) and key not in keys[:j]]
        nonzero = {j: [x for x in columns[j] if x > 0.0] for j in distinct}  # -0.0 counts as zero
        # A class's solver: its count k of nonzero frequencies, or 4 when its three are exactly equal.
        solver = {j: 4 if keys[j][0] == keys[j][2] else len(nonzero[j]) for j in distinct}
        distinct.sort(key=solver.get)
        classes = {k: np.array([nonzero[j] for j in distinct if solver[j] == k]) for k in sorted({*solver.values()})}
        groups = tuple(3.0 * q if k == 4 else np.sqrt(q[:, :, None] * q[:, None, :]) for k, q in classes.items())
        counts = np.array([keys.count(keys[j]) for j in distinct])
        for value in (*groups, counts):
            value.setflags(write=False)
        object.__setattr__(self, "_class_groups", groups)
        object.__setattr__(self, "_class_counts", counts)

    def __eq__(self, other):
        if not isinstance(other, FrequencyTable):
            return NotImplemented
        return bool(np.array_equal(self.p, other.p))

    def __hash__(self):
        return hash(tuple(self.p.ravel().tolist()))


FREQUENCY_PRESETS: dict[str, FrequencyTable] = {
    "uniform": FrequencyTable(np.full((3, 3), 1.0 / 9.0)),
    "tiered": FrequencyTable([[1 / 6, 1 / 6, 1 / 18], [1 / 9, 1 / 18, 1 / 9], [1 / 18, 1 / 9, 1 / 6]]),
    "sparse": FrequencyTable([[2 / 9, 0.0, 2 / 9], [0.0, 2 / 9, 0.0], [2 / 9, 0.0, 1 / 9]]),
    "peaked": FrequencyTable([[0.4, 0.0, 0.0], [0.1, 0.4, 0.0], [0.0, 0.1, 0.0]]),
    "two-bigram": FrequencyTable([[2 / 3, 0.0, 0.0], [0.0, 1 / 3, 0.0], [0.0, 0.0, 0.0]]),
}


def frequency_table_from_dict(spec, where: str) -> FrequencyTable:
    """A frequency table from its JSON form: {"preset": name} or {"p": 3x3 rows}, nothing else.

    where names the object in errors, e.g. "freq", and every message starts
    with it. Each entry of p must be a finite, non-negative int or float;
    JSON booleans and strings are rejected. Small rounding in the input is
    forgiven by renormalizing, but sums more than 1e-9 away from one are
    rejected as genuinely malformed.
    """
    if isinstance(spec, dict) and set(spec) == {"preset"}:
        name = spec["preset"]
        if not isinstance(name, str) or name not in FREQUENCY_PRESETS:
            raise ValueError(f"{where}.preset must be one of {sorted(FREQUENCY_PRESETS)}, got {name!r}")
        return FREQUENCY_PRESETS[name]
    if not (isinstance(spec, dict) and set(spec) == {"p"}):
        raise ValueError(f"{where} must be {{'preset': name}} or {{'p': 3x3 array}}")
    rows = spec["p"]
    rows_ok = isinstance(rows, list) and len(rows) == 3
    if not (rows_ok and all(isinstance(row, list) and len(row) == 3 for row in rows)):
        raise ValueError(f"{where}.p must be a 3x3 array of numbers")
    if not all(is_finite_real(x) and x >= 0 for row in rows for x in row):
        raise ValueError(f"{where}.p entries must be finite non-negative numbers")
    arr = np.array(rows, dtype=float)
    total = float(arr.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"{where}.p entries sum to {total!r}, not 1")
    return FrequencyTable(arr / total)


def frequency_table_to_dict(freq: FrequencyTable) -> dict:
    """The {"p": rows} JSON form of a table, which frequency_table_from_dict reads back."""
    return {"p": freq.p.tolist()}


def load_frequency_table(path) -> FrequencyTable:
    """Read a frequency table JSON file, in either form frequency_table_from_dict accepts."""
    return frequency_table_from_dict(read_json(path, "frequency file"), f"frequency file {path}: freq")


@dataclass(frozen=True)
class InfoResult:
    """An information value in trits; multiply by TRIT_TO_BIT for bits."""

    value: float

    def __post_init__(self):
        if not (math.isfinite(self.value) and -1e-9 <= self.value <= 2.0 + 1e-9):
            raise ValueError(f"information value {self.value!r} outside [0, 2.0]")


def _entropy_trits(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy in trits over the last axis of non-negative probs."""
    # log(1) = 0 stands in for a masked log, whose where= path is several times slower.
    logs = np.log(np.where(probs > 0.0, probs, 1.0))
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


# Entry [l, k*i + m] of _GRAM_PHASES[k] is omega^(l (m - i)), for i, m < k:
# the phase that squared modulus l puts on the overlap of the probe states of
# phase indices i and m, entry l of the diagonal of coding unitary
# ((m - i) % 3, 0). Each table is the leading k x k corner of the 3 x 3 one.
_PHASES = CODING_UNITARIES[[3 * ((m - i) % 3) for i in range(3) for m in range(3)]].diagonal(axis1=1, axis2=2)
_PHASES = _PHASES.T.reshape(3, 3, 3)
_GRAM_PHASES = {k: frozen_array(_PHASES[:, :k, :k].reshape(3, k * k), (3, k * k), "phases") for k in (1, 2, 3)}
# The imaginary part of sum_l t_l omega^(l (m - i)) is (t1 - t2) sin(2 pi (m - i) / 3),
# so when t1 == t2 the cosines alone give the whole block.
_GRAM_COSINES = {k: frozen_array(table.real, table.shape, "cosines", dtype=float) for k, table in _GRAM_PHASES.items()}


def _gram_blocks(moduli: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Gram blocks, shape (N, U, k, k), of U distinct classes: weights is (U, k, k), from freq._class_groups.

    moduli has shape (N, 3). Block [n, u] is G_im = sqrt(q_i q_m) sum_l t_l
    omega^(l (m - i)) for the squared moduli t = moduli[n] and the k nonzero
    frequencies q of class u; the column's phases drop out. A class's full
    3x3 block is zero in the rows and columns of its zero frequencies, and
    relabeling its phase indices by a shift conjugates it by a permutation
    and by a reflection complex-conjugates it. So this block, with 3 - k
    zeros, has the spectrum of every class holding these frequencies in any
    order: the class's share of the ensemble spectrum. When every row has
    t1 == t2, as on the symmetric attack family, the blocks are real
    symmetric and come out float64, so eigvalsh takes LAPACK's real
    symmetric driver; otherwise they are complex Hermitian.
    """
    tables = _GRAM_COSINES if (moduli[:, 1] == moduli[:, 2]).all() else _GRAM_PHASES
    return (moduli @ tables[weights.shape[1]]).reshape(-1, 1, *weights.shape[1:]) * weights


def _class_spectra(moduli: np.ndarray, freq: FrequencyTable) -> np.ndarray:
    """Eigenvalues of each distinct class block of each row of moduli, shape (N, U, 3).

    A class with k nonzero frequencies has its block's k eigenvalues, then
    3 - k zeros. Each group of freq._class_groups has one solver. A class
    whose three frequencies are all q has q times the circulant of g(delta)
    = sum_l t_l omega^(l delta), which the Fourier basis diagonalizes: its
    eigenvalues are 3q t_l, in the order of t, for real and complex blocks
    alike, and its block is never built. The other 3x3 blocks go, ascending,
    to one eigvalsh call, which keeps a double root double. A 2x2 block
    [[a, b], [b*, e]] has (a + e)/2 -+ hypot((a - e)/2, |b|), ascending, as
    accurate as eigvalsh, and a 1x1 block is its own eigenvalue. No caller
    reads the order within a class.
    """
    lams = np.zeros((len(moduli), len(freq._class_counts), 3))
    u = 0
    for weights in freq._class_groups:
        k = weights.shape[-1]
        out = lams[:, u : u + len(weights), :k]
        if weights.ndim == 2:
            out[...] = moduli[:, None, :] * weights
        elif k == 3:
            out[...] = np.linalg.eigvalsh(_gram_blocks(moduli, weights))
        elif k == 2:
            blocks = _gram_blocks(moduli, weights)
            a, e = blocks[..., 0, 0].real, blocks[..., 1, 1].real
            radius = np.hypot((a - e) * 0.5, np.abs(blocks[..., 0, 1]))
            out[..., 0] = (a + e) * 0.5 - radius
            out[..., 1] = (a + e) * 0.5 + radius
        else:
            out[...] = _gram_blocks(moduli, weights).real[..., 0]
        u += len(weights)
    return lams


def _first(values: np.ndarray, bad: np.ndarray) -> float:
    """The first of values where bad is set, for an error message."""
    return float(values[np.flatnonzero(bad)[0]])


def _holevo_trits(moduli: np.ndarray, freq: FrequencyTable) -> np.ndarray:
    """Holevo bound in trits of each row of moduli, shape (N,).

    Eigenvalues in [-1e-10, 0) are clamped to zero; anything lower or any
    spectrum total off from one by more than 1e-9 raises NumericalError,
    and a value outside [0, 2] trits raises ValueError, each naming the
    first offending point. Each distinct class's total and entropy count
    once per class it stands for.
    """
    lams = _class_spectra(moduli, freq)
    # Each check is one reduction over the batch; only a failure looks for
    # the first offending point.
    if lams.min(initial=0.0) < _EIGENVALUE_FLOOR:
        low = lams.min(axis=(1, 2))
        first = _first(low, low < _EIGENVALUE_FLOOR)
        raise NumericalError(f"spectrum has negative eigenvalue {first!r}")
    lams = np.maximum(lams, 0.0)
    totals = np.add.reduce(lams, axis=2) @ freq._class_counts
    errors = np.abs(totals - 1.0)
    if errors.max(initial=0.0) > 1e-9:
        raise NumericalError(f"spectrum sums to {_first(totals, errors > 1e-9)!r}, expected 1")
    info = _entropy_trits(lams) @ freq._class_counts
    # [-1e-9, 2 + 1e-9] is the band of half-width 1 + 1e-9 around 1; NaN fails too.
    offsets = np.abs(info - 1.0)
    if not offsets.max(initial=0.0) <= 1.0 + 1e-9:
        bad = ~(offsets <= 1.0 + 1e-9)
        raise ValueError(f"information value {_first(info, bad)!r} outside [0, 2.0]")
    return info


def factorized_eigenvalues(col: AttackColumn, freq: FrequencyTable) -> np.ndarray:
    """All nine ensemble eigenvalues from the distinct shift-class blocks, descending.

    Each distinct class's k eigenvalues appear once per class it stands for,
    and the 9 - sum k of the classes' zero frequencies pad them as zeros.
    """
    spectra = _class_spectra(np.array([col.moduli_squared()]), freq)[0]
    lams = np.repeat(spectra, freq._class_counts, axis=0).ravel()
    return np.sort(np.concatenate((lams, np.zeros(9 - lams.size))))[::-1]


def holevo_information(col: AttackColumn, freq: FrequencyTable) -> InfoResult:
    """Eavesdropper's Holevo bound on information about the bigram, in trits.

    The probe states are pure, so the bound is the ensemble eigenvalue
    entropy. Eigenvalues in [-1e-10, 0) are clamped to zero; anything lower
    or any total off from one by more than 1e-9 raises NumericalError.
    """
    return InfoResult(float(_holevo_trits(np.array([col.moduli_squared()]), freq)[0]))


def info_curve(freq: FrequencyTable, d_values=None) -> np.ndarray:
    """The leak curve of the symmetric attack family, a read-only (N, 2) float64 array.

    Row n is (d, I): the detection probability d, over [0, 2/3], and the
    Holevo bound I in trits, so iterating it yields (d, I) pairs. The
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
    # numpy casts booleans and strings to numbers, and a boolean among floats to a float
    mixed_in = d.ndim == 1 and not isinstance(d_values, np.ndarray) and any(
        isinstance(v, (bool, np.bool_)) for v in d_values
    )
    if d.dtype.kind not in "iuf" or mixed_in:
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
    curve = np.column_stack((d, _holevo_trits(moduli, freq)))
    curve.setflags(write=False)
    return curve


def curve_csv(points) -> str:
    """CSV text of (d, I) rows, an info_curve array or float pairs: d_z,I0_trits,I0_bits, 17 significant digits."""
    rows = (f"{d:.17g},{v:.17g},{v * TRIT_TO_BIT:.17g}" for d, v in np.asarray(points, dtype=float).tolist())
    return "\n".join(["d_z,I0_trits,I0_bits", *rows]) + "\n"
