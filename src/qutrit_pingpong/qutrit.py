"""Qutrit-pair algebra and the small dense numerics it rests on.

The nine dense coding unitaries |k> -> omega^(ik) |k+j>, the Bell states
of two qutrits, the four mutually unbiased bases with their lower-case
labels (z, x, v, t) and the control-round rules (CONTROL_MAPS and the
HONEST_PAIRS mask, which the simulator and control_correlations read), all
plain numpy, built and checked once at import; the accessors return these
read-only values. Only the coding unitaries write out the phase-and-shift
convention: the Bell states and Eve's probe states in `information` come
from their stack, CODING_UNITARIES. The one check of each kind: check_basis
of a basis label, frozen_array of an array a value type holds (its shape,
finiteness and read-only copy), check_unitary of unitarity at a tolerance
the caller gives. solve_cubic, a real-cubic root solver, is the analytic
reference for the spectrum cubics. All functions are pure.
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


def check_basis(label) -> str:
    """label, if it is one of the lower-case BASIS_LABELS; else ValueError."""
    if not (isinstance(label, str) and label in BASIS_LABELS):
        raise ValueError(f"unknown basis label {label!r}, expected one of {BASIS_LABELS}")
    return label


# Which basis Bob must read out so that an honest control round is perfectly
# correlated with Alice's result.
PARTNER_BASIS = {"z": "z", "x": "x", "v": "t", "t": "v"}

_DISCRIMINANT_GUARD = 1e-12


class NumericalError(ArithmeticError):
    """A numerical routine got input outside its domain.

    Raised for chain links that do not close into a triangle, an ensemble
    spectrum that fails its floor or sum check, or a cubic with complex roots
    in solve_cubic.
    """


def frozen_array(value, shape: tuple, what: str, dtype=np.complex128) -> np.ndarray:
    """A read-only dtype copy of value. Raises ValueError "{what} must have
    shape {shape}, got {got}" or "{what} must be finite"."""
    arr = np.array(value, dtype=dtype)
    if arr.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite")
    arr.setflags(write=False)
    return arr


def check_unitary(name: str, m: np.ndarray, tol: float = ALGEBRAIC_TOL) -> None:
    """Raise ValueError naming m unless m^dagger m is the identity within tol."""
    residual = np.abs(m.conj().T @ m - np.eye(len(m))).max()
    if residual > tol:
        raise ValueError(f"{name} is not unitary, residual {residual:.3e}")


def _pair_index(i: int, j: int) -> int:
    for name, value in (("i", i), ("j", j)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value not in (0, 1, 2):
            raise ValueError(f"{name} must be 0, 1 or 2, got {value!r}")
    return 3 * int(i) + int(j)


def _build_coding_unitary(i: int, j: int) -> np.ndarray:
    m = np.zeros((3, 3), dtype=np.complex128)
    for k in range(3):
        m[(k + j) % 3, k] = OMEGA ** ((i * k) % 3)
    check_unitary(f"coding unitary ({i}, {j})", m)
    return m


# The nine dense-coding unitaries, index 3i + j, as one read-only stack.
CODING_UNITARIES = np.stack([_build_coding_unitary(i, j) for i in range(3) for j in range(3)])
CODING_UNITARIES.setflags(write=False)
_CODING_UNITARIES = tuple(CODING_UNITARIES)

# The nine entangled pair states, index 3i + j, each a (home, travel) array:
# coding unitary 3i + j applied to the travel qutrit of bell_state(0, 0).
BELL_STATES = CODING_UNITARIES.transpose(0, 2, 1) / math.sqrt(3.0)
check_unitary("the Bell-state basis", BELL_STATES.reshape(9, 9))
BELL_STATES.setflags(write=False)


def bell_state(i: int, j: int) -> np.ndarray:
    """Maximally entangled two-qutrit state with phase index i and shift index j.

    Component |k, k+j mod 3> carries phase omega^(i*k), weight 1/sqrt(3).
    Returns the read-only (home, travel) amplitude array BELL_STATES[3i + j];
    the nine states form an orthonormal basis of the pair space.
    """
    return BELL_STATES[_pair_index(i, j)]


def coding_unitary(i: int, j: int) -> np.ndarray:
    """Dense-coding unitary: maps |k> to omega^(i*k) |k+j mod 3>.

    Returns a read-only 3x3 array. Applying it to the travel qutrit of
    bell_state(0, 0) yields bell_state(i, j).
    """
    return _CODING_UNITARIES[_pair_index(i, j)]


def _build_mub(label: str) -> np.ndarray:
    s = 1.0 / math.sqrt(3.0)
    if label == "z":
        m = np.eye(3, dtype=np.complex128)
    elif label == "x":
        m = np.array([[OMEGA ** ((a * k) % 3) * s for a in range(3)] for k in range(3)])
    else:
        m = np.full((3, 3), s, dtype=np.complex128)
        np.fill_diagonal(m, (OMEGA if label == "v" else OMEGA.conjugate()) * s)
    check_unitary(f"basis {label!r}", m)
    m.setflags(write=False)
    return m


_MUBS = {label: _build_mub(label) for label in BASIS_LABELS}


def mub(label: str) -> np.ndarray:
    """One of the four mutually unbiased qutrit bases, as a read-only 3x3 matrix.

    Column a is basis vector a. z is the computational basis. x is its
    Fourier conjugate, x_a = (|0> + w^a |1> + w^(2a) |2>)/sqrt(3) with
    w = OMEGA. v and t single out one component with a phase: v_b has omega
    on entry b and ones elsewhere, t_b the complex conjugate pattern. Every
    cross-basis overlap has squared modulus 1/3.
    """
    return _MUBS[check_basis(label)]


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


# The control-round amplitude maps, one (9, 9) block per basis: row 3a + b of
# block s reads the travel qutrit t as a in basis BASIS_LABELS[s] and the home
# qutrit h as b in its partner basis; column 3h + t is the (home, travel) pair.
CONTROL_MAPS = np.einsum(
    "sta,shb->sabht",
    np.stack([_MUBS[label] for label in BASIS_LABELS]).conj(),
    np.stack([_MUBS[PARTNER_BASIS[label]] for label in BASIS_LABELS]).conj(),
).reshape(len(BASIS_LABELS), 9, 9)
CONTROL_MAPS.setflags(write=False)
# Amplitude of each control pair in bell_state(0, 0); HONEST_PAIRS[s, 3a + b]
# marks the pairs an honest channel gives, every other pair flags tampering.
_HONEST_AMPS = CONTROL_MAPS @ BELL_STATES[0].reshape(9)
HONEST_PAIRS = np.abs(_HONEST_AMPS) > 1e-9
HONEST_PAIRS.setflags(write=False)

_CONTROL_CORRELATIONS = {
    label: BasisPairDecomposition(
        label, PARTNER_BASIS[label], tuple((*divmod(int(k), 3), complex(amps[k])) for k in np.flatnonzero(honest))
    )
    for label, amps, honest in zip(BASIS_LABELS, _HONEST_AMPS, HONEST_PAIRS)
}


def control_correlations(alice_basis: str) -> BasisPairDecomposition:
    """How honest control-round outcomes correlate, per Alice measuring basis.

    Alice reads the travel qutrit in alice_basis; Bob reads home in the
    partner basis (z with z, x with x, v with t and t with v). The shared
    state bell_state(0, 0) then splits into three product terms of amplitude
    1/sqrt(3); the pairs and amplitudes are read from CONTROL_MAPS and
    HONEST_PAIRS, computed from the stored bases, not hardcoded.
    """
    return _CONTROL_CORRELATIONS[check_basis(alice_basis)]


def solve_cubic(c2: float, c1: float, c0: float) -> tuple[float, float, float]:
    """Real roots of x^3 + c2 x^2 + c1 x + c0 = 0, sorted descending.

    The largest root comes from the trigonometric method, well conditioned
    there; the other two from their sum and product by the cancellation-free
    quadratic, so a double root at zero does not split by the square root of
    the rounding error. A discriminant below the -1e-12 guard means complex
    roots, which for the spectra handled here signals invalid physical
    parameters; that raises NumericalError.
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
        return (t + shift, t + shift, t + shift)
    m = 2.0 * math.sqrt(-p / 3.0)
    cos3t = min(1.0, max(-1.0, 3.0 * q / (p * m)))
    top = m * math.cos(math.acos(cos3t) / 3.0) + shift
    rest = -c2 - top
    # The product from c0 keeps its relative accuracy while the top root
    # dominates; otherwise the top root may be tiny, and c1 gives it.
    product = -c0 / top if abs(top) > abs(rest) else c1 - top * rest
    r = (rest + math.copysign(math.sqrt(max(rest * rest - 4.0 * product, 0.0)), rest)) / 2.0
    roots = sorted((top, r, product / r if r != 0.0 else 0.0), reverse=True)
    return (roots[0], roots[1], roots[2])
