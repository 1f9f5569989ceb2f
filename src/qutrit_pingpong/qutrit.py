"""Qutrit-pair algebra and the small dense numerics it rests on.

Bell states of two qutrits, the dense coding unitaries, the four mutually
unbiased qutrit bases, plus a trigonometric real-cubic root solver.
Everything is closed form in plain numpy at dimension 3 or 9; values are
immutable after construction and all functions are pure.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

# Primitive cube root of unity. Phases are kept as principal exponents.
OMEGA = cmath.exp(2j * math.pi / 3)

# Tolerance of the exact algebraic identities, stated once and reused everywhere.
ALGEBRAIC_TOL = 1e-12

BASIS_LABELS = ("z", "x", "v", "t")

# Which basis Bob must read out so that an honest control round is perfectly
# correlated with Alice's result.
PARTNER_BASIS = {"z": "z", "x": "x", "v": "t", "t": "v"}

_DISCRIMINANT_GUARD = 1e-12


class NumericalError(ArithmeticError):
    """A closed-form routine got input outside its domain.

    Raised for a cubic with complex roots, chain links that do not close into
    a triangle, or a spectrum that fails its floor or sum check.
    """


def _complex_array(name: str, values, shape: tuple) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite (no NaN or inf entries)")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _check_unit_norm(name: str, arr: np.ndarray, tol: float) -> None:
    sq = float(np.vdot(arr, arr).real)
    if abs(sq - 1.0) > tol:
        raise ValueError(f"{name} must be normalized, squared norm is {sq!r}")


def _check_trit(name: str, value: int) -> int:
    if value not in (0, 1, 2):
        raise ValueError(f"{name} must be 0, 1 or 2, got {value!r}")
    return value


@dataclass(frozen=True)
class Ket3:
    """Pure state of one qutrit: three complex amplitudes, unit norm."""

    amp: np.ndarray

    def __post_init__(self):
        arr = _complex_array("Ket3.amp", self.amp, (3,))
        _check_unit_norm("Ket3.amp", arr, ALGEBRAIC_TOL)
        object.__setattr__(self, "amp", arr)


@dataclass(frozen=True)
class TwoQutritKet:
    """Pure state of the home/travel qutrit pair, indexed (home, travel)."""

    amp: np.ndarray

    def __post_init__(self):
        arr = _complex_array("TwoQutritKet.amp", self.amp, (3, 3))
        _check_unit_norm("TwoQutritKet.amp", arr, ALGEBRAIC_TOL)
        object.__setattr__(self, "amp", arr)


@dataclass(frozen=True)
class Unitary3:
    """A 3x3 unitary matrix."""

    m: np.ndarray

    def __post_init__(self):
        arr = _complex_array("Unitary3.m", self.m, (3, 3))
        residual = np.abs(arr.conj().T @ arr - np.eye(3)).max()
        if residual > ALGEBRAIC_TOL:
            raise ValueError(f"Unitary3.m is not unitary, residual {residual:.3e}")
        object.__setattr__(self, "m", arr)


@dataclass(frozen=True)
class MubBasis:
    """One of the four pairwise unbiased qutrit bases, labelled z, x, v or t."""

    label: str
    vectors: tuple[Ket3, Ket3, Ket3]

    def __post_init__(self):
        if self.label not in BASIS_LABELS:
            raise ValueError(f"basis label must be one of {BASIS_LABELS}, got {self.label!r}")
        if len(self.vectors) != 3:
            raise ValueError("MubBasis needs exactly three vectors")
        m = self.matrix
        residual = np.abs(m.conj().T @ m - np.eye(3)).max()
        if residual > ALGEBRAIC_TOL:
            raise ValueError(f"basis {self.label!r} is not orthonormal, residual {residual:.3e}")

    @property
    def matrix(self) -> np.ndarray:
        """Columns are the basis vectors."""
        return np.column_stack([k.amp for k in self.vectors])


@dataclass(frozen=True)
class Hermitian9:
    """A 9x9 Hermitian matrix."""

    m: np.ndarray

    def __post_init__(self):
        arr = _complex_array("Hermitian9.m", self.m, (9, 9))
        residual = np.abs(arr - arr.conj().T).max()
        if residual > ALGEBRAIC_TOL:
            raise ValueError(f"Hermitian9.m is not Hermitian, residual {residual:.3e}")
        object.__setattr__(self, "m", arr)


def bell_state(i: int, j: int) -> TwoQutritKet:
    """Maximally entangled two-qutrit state with phase index i and shift index j.

    Component |k, k+j mod 3> carries phase omega^(i*k), weight 1/sqrt(3).
    The nine states form an orthonormal basis of the pair space.
    """
    _check_trit("i", i)
    _check_trit("j", j)
    amp = np.zeros((3, 3), dtype=np.complex128)
    for k in range(3):
        amp[k, (k + j) % 3] = OMEGA ** ((i * k) % 3) / math.sqrt(3.0)
    return TwoQutritKet(amp)


def coding_unitary(i: int, j: int) -> Unitary3:
    """Dense-coding unitary: maps |k> to omega^(i*k) |k+j mod 3>.

    Applying it to the travel qutrit of bell_state(0, 0) yields bell_state(i, j).
    """
    _check_trit("i", i)
    _check_trit("j", j)
    m = np.zeros((3, 3), dtype=np.complex128)
    for k in range(3):
        m[(k + j) % 3, k] = OMEGA ** ((i * k) % 3)
    return Unitary3(m)


def mub(label: str) -> MubBasis:
    """One of the four mutually unbiased qutrit bases.

    z is the computational basis. x is its Fourier conjugate,
    x_a = (|0> + w^a |1> + w^(2a) |2>)/sqrt(3) with w = OMEGA. v and t single
    out one component with a phase: v_b has omega on entry b and ones
    elsewhere, t_b the complex conjugate pattern. Every cross-basis overlap
    has squared modulus 1/3.
    """
    lbl = str(label).lower()
    if lbl not in BASIS_LABELS:
        raise ValueError(f"unknown basis label {label!r}, expected one of {BASIS_LABELS}")
    s = 1.0 / math.sqrt(3.0)
    cols: list[np.ndarray] = []
    if lbl == "z":
        cols = [np.eye(3, dtype=np.complex128)[:, k] for k in range(3)]
    elif lbl == "x":
        for a in range(3):
            cols.append(np.array([OMEGA ** ((a * k) % 3) * s for k in range(3)]))
    else:
        phase = OMEGA if lbl == "v" else OMEGA.conjugate()
        for b in range(3):
            vec = np.full(3, s, dtype=np.complex128)
            vec[b] = phase * s
            cols.append(vec)
    return MubBasis(lbl, tuple(Ket3(c) for c in cols))


@dataclass(frozen=True)
class BasisPairDecomposition:
    """Decomposition of the shared entangled state over a control basis pair.

    terms lists (alice_index, bob_index, amplitude) for every product state
    |bob_vector, alice_vector> carrying weight; outcomes outside these pairs
    flag tampering in control mode.
    """

    alice_basis: str
    bob_basis: str
    terms: tuple[tuple[int, int, complex], ...]

    def allowed_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset((a, b) for a, b, _ in self.terms)


def control_correlations(alice_basis: str) -> BasisPairDecomposition:
    """How honest control-round outcomes correlate, per Alice measuring basis.

    Alice reads the travel qutrit in alice_basis; Bob reads home in the
    partner basis (z with z, x with x, v with t and t with v). The shared
    state bell_state(0, 0) then splits into three product terms of amplitude
    1/sqrt(3); the pairs are computed here, not hardcoded.
    """
    lbl = str(alice_basis).lower()
    if lbl not in BASIS_LABELS:
        raise ValueError(f"unknown basis label {alice_basis!r}")
    partner = PARTNER_BASIS[lbl]
    alice = mub(lbl).matrix
    bob = mub(partner).matrix
    psi = bell_state(0, 0).amp
    terms = []
    for a in range(3):
        for b in range(3):
            amp = complex(np.einsum("h,ht,t->", bob[:, b].conj(), psi, alice[:, a].conj()))
            if abs(amp) > 1e-9:
                terms.append((a, b, amp))
    return BasisPairDecomposition(lbl, partner, tuple(terms))


def partial_trace_home(ket: TwoQutritKet) -> np.ndarray:
    """Reduced density matrix of the travel qutrit."""
    return np.einsum("ht,hu->tu", ket.amp, ket.amp.conj())


def partial_trace_travel(ket: TwoQutritKet) -> np.ndarray:
    """Reduced density matrix of the home qutrit."""
    return np.einsum("ht,gt->hg", ket.amp, ket.amp.conj())


def solve_cubic(c2: float, c1: float, c0: float) -> tuple[float, float, float]:
    """Real roots of x^3 + c2 x^2 + c1 x + c0 = 0, sorted descending.

    Trigonometric method for the three-real-root regime. A discriminant more
    negative than the 1e-12 guard means a complex-root regime, which for the
    spectra handled here signals invalid physical parameters; that raises
    NumericalError. Residuals stay below 1e-10 for unit-scale coefficients.
    """
    for name, val in (("c2", c2), ("c1", c1), ("c0", c0)):
        if not math.isfinite(val):
            raise ValueError(f"{name} must be finite")
    p = c1 - c2 * c2 / 3.0
    q = c2 * (2.0 * c2 * c2 - 9.0 * c1) / 27.0 + c0
    disc = -4.0 * p * p * p - 27.0 * q * q
    if disc < -_DISCRIMINANT_GUARD:
        raise NumericalError(
            f"cubic has complex roots (discriminant {disc:.3e}); "
            "coefficients do not describe a real spectrum"
        )
    shift = -c2 / 3.0
    if p >= 0.0:
        # Degenerate regime: with a non-negative p the guard forces p and q
        # to be roundoff-small, so all three roots coincide.
        t = math.copysign(abs(q) ** (1.0 / 3.0), -q) if q != 0.0 else 0.0
        roots = [t + shift] * 3
    else:
        m = 2.0 * math.sqrt(-p / 3.0)
        cos3t = 3.0 * q / (p * m)
        cos3t = min(1.0, max(-1.0, cos3t))
        t0 = math.acos(cos3t) / 3.0
        roots = [m * math.cos(t0 - 2.0 * math.pi * k / 3.0) + shift for k in range(3)]
    roots.sort(reverse=True)
    return (roots[0], roots[1], roots[2])
