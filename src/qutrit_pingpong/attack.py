"""Eavesdropper attack model.

An individual attack entangles each travelling qutrit with a fresh ancilla.
Restricted to the basis the attack is expressed in, its effect is a 3x3
coefficient matrix whose first column alone fixes the detection probability
in that basis. This module provides the column and operator types, the
circulant completion of a column, the cross-representation moduli relation,
the check and blend of control-basis weights, bundled reference attack rows
with known detection probabilities, and the JSON input checks the file
loaders share. An AttackColumn may miss unit squared norm by up to
CONSTRAINT_TOL; it alone absorbs that slack, and every reader takes the
column at unit norm, through as_array() for the entries or moduli_squared()
for the unit-sum squared moduli. Every spec holds a basis, every spec but
NoAttack its column, and isometry() writes any spec as the circulant of one
first column, (1, 0, 0) for NoAttack.
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .qutrit import NumericalError, check_basis, check_unitary, frozen_array, mub

# Attack-operator constraints (normalization, unitarity, moduli pattern)
# are enforced at this scale; reference data is only six digits deep.
CONSTRAINT_TOL = 1e-9

# Levels of the probe ancilla an attack may write to.
ANCILLA_DIM = 9

# A circulant completion is accepted when its chain links miss closing into
# a triangle by at most this much; that miss is the completion's unitarity
# residual, so the result stays well inside CONSTRAINT_TOL.
_COMPLETION_TOL = 1e-10


def is_finite_real(value) -> bool:
    """True for a finite int or float; False for a bool (JSON true/false)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def read_json(path, what: str):
    """The parsed JSON file at path; invalid or too deeply nested JSON raises
    ValueError naming the file as what, e.g. "config file"."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, RecursionError, UnicodeDecodeError) as exc:
            raise ValueError(f"{what} {path}: invalid JSON ({exc})") from exc


def reject_extra_fields(data: dict, allowed: set, what: str) -> None:
    """Raise ValueError naming the keys of a JSON object outside allowed."""
    extra = set(data) - allowed
    if extra:
        raise ValueError(f"unexpected {what} fields: {sorted(extra)}")


def _items(value) -> tuple:
    """tuple(value), or () when value is not iterable."""
    try:
        return tuple(value)
    except TypeError:
        return ()


def check_basis_weights(weights) -> tuple[float, float]:
    """Control-basis weights (q_z, q_x) as two floats.

    Raises ValueError unless weights holds two finite non-negative numbers,
    not booleans, that sum to 1 within 1e-12.
    """
    pair = _items(weights)
    if len(pair) != 2 or not all(is_finite_real(w) and w >= 0.0 for w in pair):
        raise ValueError(f"basis_weights must be two non-negative numbers, got {weights!r}")
    q_z, q_x = (float(w) for w in pair)
    if abs(q_z + q_x - 1.0) > 1e-12:
        raise ValueError(f"basis_weights must sum to 1, got {(q_z, q_x)!r}")
    return q_z, q_x


def check_ancilla(mode) -> None:
    """Raise ValueError unless the ancilla mode is "branch" or "none"."""
    if mode not in ("branch", "none"):
        raise ValueError(f"ancilla mode must be 'branch' or 'none', got {mode!r}")


def _column_entry(name: str, value) -> complex:
    """value as a complex number; ValueError naming the entry for a bool, str, bytes or other non-number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Number):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return complex(value)


@dataclass(frozen=True)
class AttackColumn:
    """First column of an attack coefficient matrix in some measuring basis.

    Entries are the amplitudes the attack leaves on outputs 0, 1, 2 for
    input 0; they must carry unit total weight within CONSTRAINT_TOL, and
    as_array() and moduli_squared() read them at exactly unit weight.
    """

    c0: complex
    c1: complex
    c2: complex

    def __post_init__(self):
        for name in ("c0", "c1", "c2"):
            c = _column_entry(name, getattr(self, name))
            # No entry of a unit column exceeds modulus one; rejecting larger
            # ones also keeps the squared moduli below from overflowing.
            if not abs(c) <= 1.0 + CONSTRAINT_TOL:
                raise ValueError(f"{name} must be finite with modulus at most 1, got {c!r}")
            object.__setattr__(self, name, c)
        norm = self.squared_norm()
        if abs(norm - 1.0) > CONSTRAINT_TOL:
            raise ValueError(f"attack column must have unit norm, squared norm {norm!r}")

    def as_array(self) -> np.ndarray:
        """The entries at unit norm: each over the square root of squared_norm(), which absorbs the norm slack."""
        return np.array([self.c0, self.c1, self.c2], dtype=np.complex128) / math.sqrt(self.squared_norm())

    def squared_norm(self) -> float:
        """The sum of the squared moduli, within CONSTRAINT_TOL of 1."""
        return abs(self.c0) ** 2 + abs(self.c1) ** 2 + abs(self.c2) ** 2

    def moduli_squared(self) -> tuple[float, float, float]:
        """The squared moduli over their sum, which absorbs the norm slack of up to CONSTRAINT_TOL."""
        norm = self.squared_norm()
        return tuple(abs(c) ** 2 / norm for c in (self.c0, self.c1, self.c2))


def normalized_column(c0, c1, c2) -> AttackColumn:
    """Build an AttackColumn from unnormalized entries by rescaling."""
    # An array entry is left to frozen_array, whose shape check rejects it.
    entries = [c if np.ndim(c) else _column_entry(name, c) for name, c in zip(("c0", "c1", "c2"), (c0, c1, c2))]
    v = frozen_array(entries, (3,), "column entries")
    norm = float(np.linalg.norm(v))
    if norm < 1e-6:
        raise ValueError("column entries are too close to zero to normalize")
    return AttackColumn(*(v / norm).tolist())


def detection_from_column(col: AttackColumn) -> float:
    """Probability a control round in the column's own basis flags the attack.

    Equals one minus the weight the attack leaves on the unperturbed output,
    read from the column at unit norm (moduli_squared()).
    """
    return 1.0 - col.moduli_squared()[0]


def symmetric_column(d: float) -> AttackColumn:
    """Column of the symmetric attack with detection probability d.

    The two disturbed outputs share the leaked weight equally; d may range
    from 0 (no attack) to 2/3 (maximal extraction).
    """
    if not is_finite_real(d):
        raise ValueError(f"symmetric attack needs a finite number d, got {d!r}")
    if not 0.0 <= d <= 2.0 / 3.0:
        raise ValueError(f"symmetric attack needs 0 <= d <= 2/3, got {d!r}")
    return AttackColumn(math.sqrt(1.0 - d), math.sqrt(d / 2.0), math.sqrt(d / 2.0))


# Row g of m.take(_BROKEN_DIAGONALS) is broken diagonal g of m, the entries
# (j, (j + g) % 3), whose squared moduli must agree for the attack to
# preserve the complete mixedness of the travelling qutrit.
_BROKEN_DIAGONALS = 3 * np.arange(3) + (np.arange(3)[None, :] + np.arange(3)[:, None]) % 3
_BROKEN_DIAGONALS.setflags(write=False)
# Entry [m, n] of the circulant of a first column c is c[_CIRCULANT_FLAT[3m + n]] = c[(m - n) % 3].
_CIRCULANT_FLAT = ((np.arange(3)[:, None] - np.arange(3)[None, :]) % 3).ravel()
_CIRCULANT_FLAT.setflags(write=False)
# Flat positions in a (3, ANCILLA_DIM, 3) isometry V[m, slot, n]: entry 3m + n
# of _SLOT_ZERO is that of [m, 0, n], 27m + n, and entry 3m + n of
# _BRANCH_SLOTS is that of [m, 3n + m, n], 27m + 3(3n + m) + n = 30m + 10n.
_SLOT_ZERO = (3 * ANCILLA_DIM * np.arange(3)[:, None] + np.arange(3)[None, :]).ravel()
_SLOT_ZERO.setflags(write=False)
_BRANCH_SLOTS = (30 * np.arange(3)[:, None] + 10 * np.arange(3)[None, :]).ravel()
_BRANCH_SLOTS.setflags(write=False)
_IDENTITY_COLUMN = frozen_array([1.0, 0.0, 0.0], (3,), "identity column")


@dataclass(frozen=True, eq=False)
class AttackOperator:
    """Full 3x3 attack coefficient matrix in a named measuring basis.

    Column i is the response to basis state i. The matrix must be unitary
    and its squared moduli must be constant along broken diagonals, which
    keeps the travelling qutrit's reduced state completely mixed.
    """

    m: np.ndarray
    representation: str

    def __post_init__(self):
        arr = frozen_array(self.m, (3, 3), "attack matrix")
        check_basis(self.representation)
        check_unitary("attack matrix", arr, CONSTRAINT_TOL)
        diagonals = np.abs(arr.take(_BROKEN_DIAGONALS)) ** 2
        spread = diagonals.max(axis=1) - diagonals.min(axis=1)
        if spread.max() > CONSTRAINT_TOL:
            raise ValueError(
                "attack matrix does not preserve complete mixedness: "
                f"squared moduli {diagonals[spread.argmax()].tolist()} differ along a broken diagonal"
            )
        object.__setattr__(self, "m", arr)

    def column(self) -> AttackColumn:
        """The first column, the response to basis state 0."""
        return AttackColumn(*(complex(c) for c in self.m[:, 0]))


def complete_circulant(col: AttackColumn, representation: str = "z") -> AttackOperator:
    """Extend an attack column to a circulant unitary with the same moduli.

    A circulant with first column c is unitary exactly when the three terms
    c0 conj(c2), c1 conj(c0) and c2 conj(c1) sum to zero. Their lengths are
    the chain links sqrt(t0 t2), sqrt(t0 t1) and sqrt(t1 t2) of the squared
    moduli t, so a completion exists exactly when the links close into a
    triangle (Bengtsson et al., quant-ph/0402325), and the entry phases
    follow from the triangle's angles in closed form. Of the six solutions
    the one returned has c0 real and positive, and c1 = c2 whenever
    t1 = t2. Entry phases of the result generally differ from the input
    column's; the cyclic-shift structure makes the broken-diagonal moduli
    pattern hold exactly. Raises NumericalError, naming the violated
    triangle inequality, when the links miss closing by more than 1e-10;
    the result is unitary by construction, and _check_circulant checks it.
    Its matrix is the circulant of _completion_column(col) through _CIRCULANT_FLAT.
    """
    check_basis(representation)
    return AttackOperator(_completion_column(col)[_CIRCULANT_FLAT].reshape(3, 3), representation)


def _completion_column(col: AttackColumn) -> np.ndarray:
    """The first column of complete_circulant's result, after _check_circulant."""
    t0, t1, t2 = col.moduli_squared()
    links = {
        "sqrt(t0*t2)": math.sqrt(t0 * t2),
        "sqrt(t0*t1)": math.sqrt(t0 * t1),
        "sqrt(t1*t2)": math.sqrt(t1 * t2),
    }
    longest = max(links, key=links.get)
    rest = [name for name in links if name != longest]
    gap = links[longest] - links[rest[0]] - links[rest[1]]
    if gap > _COMPLETION_TOL:
        listed = ", ".join(f"{name} = {value:.6g}" for name, value in links.items())
        raise NumericalError(
            f"no circulant completion for squared moduli {[t0, t1, t2]}: chain links {listed} "
            f"violate {longest} <= {rest[0]} + {rest[1]} by {gap:.3e}"
        )
    # Four times the triangle's area, by Heron's formula written in t using
    # t0 + t1 + t2 = 1. A flat triangle accepted within the tolerance may
    # give a slightly negative square.
    square = 2.0 * t0 * t1 * t2 - ((t0 * t1) ** 2 + (t1 * t2) ** 2 + (t2 * t0) ** 2)
    area4 = math.sqrt(max(square, 0.0))
    # Interior angles opposite the links sqrt(t0*t2) and sqrt(t0*t1). Taken
    # from the shared area by atan2 they stay exact for flat triangles, where
    # acos of the cosine rule loses half the digits.
    opp02 = math.atan2(area4, t0 * t1 + t1 * t2 - t0 * t2)
    opp01 = math.atan2(area4, t0 * t2 + t1 * t2 - t0 * t1)
    # The three terms' phases sum to zero, and each turns from the next by pi
    # less an interior angle; these phases of c1 and c2 satisfy both.
    phase1 = math.pi - (2.0 * opp02 + opp01) / 3.0
    phase2 = math.pi - (opp02 + 2.0 * opp01) / 3.0
    c = (math.sqrt(t0), math.sqrt(t1) * cmath.exp(1j * phase1), math.sqrt(t2) * cmath.exp(1j * phase2))
    _check_circulant(c)
    return np.array(c, dtype=np.complex128)


def _check_circulant(c) -> float:
    """check_unitary's residual for the circulant of first column c (three Python numbers), read from c alone as
    the larger of |sum |c_i|^2 - 1| and |c0 conj(c2) + c1 conj(c0) + c2 conj(c1)|; ValueError above CONSTRAINT_TOL."""
    c0, c1, c2 = c
    off_diagonal = abs(c0 * c2.conjugate() + c1 * c0.conjugate() + c2 * c1.conjugate())
    residual = max(abs(abs(c0) ** 2 + abs(c1) ** 2 + abs(c2) ** 2 - 1.0), off_diagonal)
    if residual > CONSTRAINT_TOL:
        raise ValueError(f"circulant completion is not unitary, residual {residual:.3e}")
    return residual


def column_z_from_x(col_x: AttackColumn) -> tuple[float, float, float]:
    """Squared moduli of the computational-basis column implied by an x-basis column.

    The z moduli are the squared moduli of the Fourier transform
    mub("x") @ col_x.as_array() of the column at unit norm; the triple
    always sums to one.
    """
    m0, m1, m2 = (np.abs(mub("x") @ col_x.as_array()) ** 2).tolist()
    return (m0, m1, m2)


def blended_detection(rates, weights) -> float:
    """Detection probability of a control mode mixing z and x rounds.

    rates is (d_z, d_x), the detection probability of one control round in
    each basis; weights is (q_z, q_x), checked as check_basis_weights does.
    """
    q_z, q_x = check_basis_weights(weights)
    pair = _items(rates)
    if len(pair) != 2 or not all(is_finite_real(d) and -1e-12 <= d <= 1.0 + 1e-12 for d in pair):
        raise ValueError(f"rates must be two probabilities (d_z, d_x), got {rates!r}")
    return q_z * pair[0] + q_x * pair[1]


@dataclass(frozen=True)
class ReferenceAttack:
    """One bundled reference parameter row: an x-basis column (possibly given
    unnormalized at six digits) and its tabulated detection probabilities.
    A row is symmetric when its two disturbed entries agree, b == c."""

    a: complex
    b: complex
    c: complex
    d_x: float
    d_z: float

    @property
    def symmetric(self) -> bool:
        return self.b == self.c


# Reference attack parameter sets. Entries are carried verbatim at their
# published six-digit precision, except the imaginary part of the last
# asymmetric row's first entry: its source listing rounds it to 0.293,
# which is too coarse to reproduce the row's own detection values; the
# value stored here is the six-digit one implied by that row's exact
# d_x = 2/3 together with its printed real part.
REFERENCE_ATTACKS: tuple[ReferenceAttack, ...] = (
    ReferenceAttack(-0.910684 + 0.0j, 0.244017 + 0.0j, -0.333333 + 0.0j, 0.170655, 0.666667),
    ReferenceAttack(-0.807162 + 0.0j, 0.309719 + 0.0j, -0.502558 + 0.0j, 0.348490, 0.666667),
    ReferenceAttack(-0.709081 + 0.0j, 0.331451 + 0.0j, -0.622370 + 0.0j, 0.497204, 0.666667),
    ReferenceAttack(-0.666667 + 0.0j, 0.333333 + 0.0j, -0.666667 + 0.0j, 0.555556, 0.666667),
    ReferenceAttack(-0.577406 + 0.0j, 0.325969 + 0.0j, -0.748563 + 0.0j, 0.666603, 0.666667),
    ReferenceAttack(0.530210 - 0.8j, 0.169304 - 0.1j, 0.014630 + 0.2j, 0.078878, 0.666667),
    ReferenceAttack(-0.909127 + 0.1j, -0.133042 - 0.2j, 0.125653 - 0.3j, 0.163489, 0.666667),
    ReferenceAttack(0.204236 + 0.83j, 0.026660 - 0.3j, 0.136663 + 0.4j, 0.269388, 0.666667),
    ReferenceAttack(0.737034 + 0.3j, -0.031581 - 0.5j, 0.160573 - 0.3j, 0.366781, 0.666667),
    ReferenceAttack(0.674712 + 0.3j, 0.525520 + 0.2j, -0.220436 - 0.3j, 0.454764, 0.666667),
    ReferenceAttack(-0.531662 + 0.3j, 0.463325 + 0.2j, -0.531662 + 0.3j, 0.627335, 0.666667),
    ReferenceAttack(-0.497557 + 0.292866j, 0.459068 + 0.2j, -0.570890 + 0.3j, 0.666667, 0.666667),
    ReferenceAttack(-0.953939 + 0.1j, -0.2j, -0.2j, 0.080000, 0.666667),
    ReferenceAttack(0.305505 + 0.8j, 0.305505 - 0.2j, 0.305505 - 0.2j, 0.266667, 0.666667),
    ReferenceAttack(0.027387 + 0.7j, 0.463276 - 0.2j, 0.463276 - 0.2j, 0.509250, 0.666667),
    ReferenceAttack(0.577350 + 0.0j, -0.288675 + 0.5j, -0.288675 + 0.5j, 0.666667, 0.666667),
    ReferenceAttack(0.577350j, 0.5 - 0.288675j, 0.5 - 0.288675j, 0.666667, 0.666667),
    ReferenceAttack(0.577350 + 0.0j, 0.288675 + 0.5j, 0.288675 + 0.5j, 0.666667, 0.222222),
)


# The reference rows are tabulated to six digits.
REFERENCE_TOL = 5e-5


@dataclass(frozen=True)
class ReferenceCheck:
    """One reference row with its recomputed detection probabilities; deviation,
    the larger absolute error against the table, passes within REFERENCE_TOL."""

    row: ReferenceAttack
    d_x: float
    d_z: float

    @property
    def deviation(self) -> float:
        return max(abs(self.d_x - self.row.d_x), abs(self.d_z - self.row.d_z))

    @property
    def passed(self) -> bool:
        return self.deviation <= REFERENCE_TOL


def verify_reference_attacks() -> list[ReferenceCheck]:
    """Recompute (d_x, d_z) for every bundled reference row.

    d_x follows from the column directly, d_z from the cross-representation
    moduli relation.
    """
    checks = []
    for row in REFERENCE_ATTACKS:
        col = normalized_column(row.a, row.b, row.c)
        checks.append(ReferenceCheck(row, detection_from_column(col), 1.0 - column_z_from_x(col)[0]))
    return checks


@dataclass(frozen=True)
class NoAttack:
    """The channel is untouched; its basis is z, as every spec has one."""

    basis = "z"


@dataclass(frozen=True)
class SymmetricAttack:
    """Symmetric attack in the computational basis; keeps float(d_z) and its column, symmetric_column(d_z)."""

    d_z: float
    column: AttackColumn = field(init=False, compare=False, repr=False)
    basis = "z"

    def __post_init__(self):
        object.__setattr__(self, "column", symmetric_column(self.d_z))
        object.__setattr__(self, "d_z", float(self.d_z))


@dataclass(frozen=True)
class ColumnAttack:
    """Attack given by an explicit first column in a named basis."""

    basis: str
    column: AttackColumn

    def __post_init__(self):
        check_basis(self.basis)
        if not isinstance(self.column, AttackColumn):
            raise ValueError(f"column attack needs an AttackColumn, got {self.column!r}")


AttackSpec = NoAttack | SymmetricAttack | ColumnAttack


def isometry(attack: AttackSpec, ancilla: str) -> np.ndarray:
    """The attack as a (3, ANCILLA_DIM, 3) isometry V[m_out, slot, n_in] in its own basis, attack.basis.

    V sends basis vector n of the travelling qutrit, the probe in slot 0, to
    the sum over m and slot of V[m, slot, n] |m>|slot>. One write puts the
    circulant e of a first column c, e[m, n] = c[(m - n) % 3], into a zero
    vector at flat positions built at import, and V is its view. In slot 0,
    NoAttack's c = (1, 0, 0), in either ancilla mode, makes e the identity,
    and a column attack's _completion_column(column) in mode "none" makes e
    complete_circulant's matrix. In mode "branch", c = column.as_array()
    and V[m, 3n + m, n] = e[m, n], every other entry 0: slot 3n + m records
    the branch that rewrote n into m; the columns of e are the unit column
    permuted, so V is an isometry.
    """
    check_ancilla(ancilla)
    if isinstance(attack, NoAttack):
        slots, column = _SLOT_ZERO, _IDENTITY_COLUMN
    elif ancilla == "none":
        slots, column = _SLOT_ZERO, _completion_column(attack.column)
    else:
        slots, column = _BRANCH_SLOTS, attack.column.as_array()
    v = np.zeros(3 * ANCILLA_DIM * 3, dtype=np.complex128)
    v[slots] = column[_CIRCULANT_FLAT]
    return v.reshape(3, ANCILLA_DIM, 3)


def attack_from_dict(data: dict) -> AttackSpec:
    """Parse an attack specification mapping with strict validation."""
    if not isinstance(data, dict):
        raise ValueError("attack specification must be a JSON object")
    kind = data.get("type")
    if kind == "none":
        reject_extra_fields(data, {"type"}, "attack")
        return NoAttack()
    if kind == "symmetric":
        reject_extra_fields(data, {"type", "d_z"}, "attack")
        if "d_z" not in data:
            raise ValueError("symmetric attack needs a d_z field")
        return SymmetricAttack(data["d_z"])
    if kind == "column":
        reject_extra_fields(data, {"type", "basis", "values"}, "attack")
        basis = data.get("basis")
        values = data.get("values")
        if not (isinstance(values, list) and len(values) == 3):
            raise ValueError("column attack needs exactly three [re, im] pairs")
        entries = []
        for pair in values:
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ValueError("each column value must be a [re, im] pair")
            re, im = pair
            if not (is_finite_real(re) and is_finite_real(im)):
                raise ValueError("column values must be finite numbers")
            entries.append(complex(float(re), float(im)))
        return ColumnAttack(basis.lower() if isinstance(basis, str) else basis, AttackColumn(*entries))
    raise ValueError(f"unknown attack type {kind!r}")


def attack_to_dict(attack: AttackSpec) -> dict:
    if isinstance(attack, NoAttack):
        return {"type": "none"}
    if isinstance(attack, SymmetricAttack):
        return {"type": "symmetric", "d_z": attack.d_z}
    if isinstance(attack, ColumnAttack):
        column = attack.column
        vals = [[c.real, c.imag] for c in (column.c0, column.c1, column.c2)]
        return {"type": "column", "basis": attack.basis, "values": vals}
    raise ValueError(f"not an attack specification: {attack!r}")

