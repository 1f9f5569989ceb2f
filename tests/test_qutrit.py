"""Core algebra: entangled pairs, coding operations, bases, the cubic solver."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qutrit_pingpong.attack import AttackOperator, NoAttack, normalized_column
from qutrit_pingpong.information import DensityMatrix9, FrequencyTable
from qutrit_pingpong.protocol import attack_state, decode_distribution
from qutrit_pingpong.qutrit import (
    BASIS_LABELS,
    CONTROL_MAPS,
    HONEST_PAIRS,
    OMEGA,
    PARTNER_BASIS,
    NumericalError,
    bell_state,
    check_unitary,
    coding_unitary,
    control_correlations,
    frozen_array,
    mub,
    solve_cubic,
)


def test_omega_is_primitive_cube_root():
    assert abs(OMEGA**3 - 1.0) < 1e-15
    assert abs(OMEGA - 1.0) > 1.0


def test_bell_states_orthonormal():
    states = [bell_state(i, j).reshape(9) for i in range(3) for j in range(3)]
    gram = np.array([[np.vdot(a, b) for b in states] for a in states])
    assert np.abs(gram - np.eye(9)).max() < 1e-14


def test_bell_state_rejects_bad_indices():
    with pytest.raises(ValueError):
        bell_state(3, 0)
    with pytest.raises(ValueError):
        bell_state(0, -1)


_TAKES_A_BIGRAM = {
    "bell_state": bell_state,
    "coding_unitary": coding_unitary,
    "decode_distribution": lambda i, j: decode_distribution(attack_state(NoAttack(), "branch"), (i, j)),
}


@pytest.mark.parametrize("call", _TAKES_A_BIGRAM.values(), ids=_TAKES_A_BIGRAM.keys())
@pytest.mark.parametrize("index", [True, np.True_, 1.0, "1", None], ids=["bool", "np.bool_", "float", "str", "None"])
def test_bigram_indices_must_be_integers(call, index):
    # Each value compares equal to 0, 1 or 2 or is not a number; none is an index.
    with pytest.raises(ValueError) as first:
        call(index, 0)
    assert str(first.value) == f"i must be 0, 1 or 2, got {index!r}"
    with pytest.raises(ValueError) as second:
        call(0, index)
    assert str(second.value) == f"j must be 0, 1 or 2, got {index!r}"
    assert np.array_equal(call(np.int64(2), np.int64(1)), call(2, 1))


def test_coding_unitaries_are_unitary():
    for i in range(3):
        for j in range(3):
            u = coding_unitary(i, j)
            assert np.abs(u.conj().T @ u - np.eye(3)).max() < 1e-14


def test_coding_unitary_moves_base_pair_to_each_entangled_state():
    base = bell_state(0, 0)
    for i in range(3):
        for j in range(3):
            u = coding_unitary(i, j)
            moved = np.einsum("ts,hs->ht", u, base)
            assert np.abs(moved - bell_state(i, j)).max() < 1e-14


def test_identity_coding_operation_is_identity():
    assert np.abs(coding_unitary(0, 0) - np.eye(3)).max() == 0.0


@pytest.mark.parametrize("label", BASIS_LABELS)
def test_each_basis_is_orthonormal(label):
    m = mub(label)
    assert np.abs(m.conj().T @ m - np.eye(3)).max() < 1e-14


def test_distinct_bases_are_mutually_unbiased():
    for a in BASIS_LABELS:
        for b in BASIS_LABELS:
            if a == b:
                continue
            ma, mb = mub(a), mub(b)
            overlaps = np.abs(ma.conj().T @ mb) ** 2
            assert np.abs(overlaps - 1.0 / 3.0).max() < 1e-14, (a, b)


def test_mub_rejects_unknown_label():
    with pytest.raises(ValueError):
        mub("w")


def test_partner_basis_map_is_an_involution():
    for label in BASIS_LABELS:
        assert PARTNER_BASIS[PARTNER_BASIS[label]] == label


def test_computational_control_pairs_are_diagonal():
    dec = control_correlations("z")
    assert dec.bob_basis == "z"
    assert dec.allowed_pairs() == frozenset({(0, 0), (1, 1), (2, 2)})


def test_phase_basis_control_pairs_sum_to_zero_mod_three():
    dec = control_correlations("x")
    assert dec.bob_basis == "x"
    assert dec.allowed_pairs() == frozenset({(0, 0), (1, 2), (2, 1)})


@pytest.mark.parametrize("label,partner", [("v", "t"), ("t", "v")])
def test_conjugate_pair_bases_correlate_diagonally(label, partner):
    dec = control_correlations(label)
    assert dec.bob_basis == partner
    assert dec.allowed_pairs() == frozenset({(0, 0), (1, 1), (2, 2)})


def test_control_amplitudes_are_uniform():
    for label in BASIS_LABELS:
        for _, _, amp in control_correlations(label).terms:
            assert abs(abs(amp) - 1.0 / math.sqrt(3.0)) < 1e-14


def test_base_pair_reduces_to_maximally_mixed():
    base = bell_state(0, 0)
    travel = np.einsum("ht,hu->tu", base, base.conj())
    home = np.einsum("ht,gt->hg", base, base.conj())
    for rho in (travel, home):
        assert np.abs(rho - np.eye(3) / 3.0).max() < 1e-14


@pytest.mark.parametrize("array", [mub("x"), bell_state(1, 2), coding_unitary(1, 2), CONTROL_MAPS, HONEST_PAIRS])
def test_stored_arrays_are_read_only(array):
    with pytest.raises(ValueError):
        array[0, 0] = 0.0


def test_constants_are_built_once():
    assert mub("x") is mub("x")
    assert coding_unitary(1, 2) is coding_unitary(1, 2)
    assert control_correlations("z") is control_correlations("z")


def test_frozen_array_returns_a_read_only_copy():
    source = np.eye(3)
    frozen = frozen_array(source, (3, 3), "matrix")
    source[0, 0] = 5.0
    assert frozen.dtype == np.complex128 and frozen[0, 0] == 1.0
    assert not frozen.flags.writeable and source.flags.writeable
    assert frozen_array([1, 2], (2,), "pair", dtype=float).dtype == np.float64


# Every value type that holds an array, with the name and shape its one check uses.
_ARRAY_HOLDERS = [
    (lambda a: AttackOperator(a, "z"), "attack matrix", (3, 3)),
    (DensityMatrix9, "density matrix", (9, 9)),
    (FrequencyTable, "frequency table", (3, 3)),
    (lambda a: normalized_column(*a), "column entries", (3,)),
]


@pytest.mark.parametrize("build, what, shape", _ARRAY_HOLDERS, ids=[h[1] for h in _ARRAY_HOLDERS])
def test_every_array_holder_rejects_a_bad_shape_and_a_nan_the_same_way(build, what, shape):
    with pytest.raises(ValueError) as bad_shape:
        build(np.ones(shape + (2,)))
    assert str(bad_shape.value) == f"{what} must have shape {shape}, got {shape + (2,)}"
    with_nan = np.zeros(shape)
    with_nan.flat[0] = np.nan
    with pytest.raises(ValueError) as not_finite:
        build(with_nan)
    assert str(not_finite.value) == f"{what} must be finite"


def test_unitarity_check_takes_the_callers_tolerance():
    nearly = np.diag([1.0, 1.0, 1.0 + 1e-10])
    check_unitary("nearly", nearly, tol=1e-9)
    with pytest.raises(ValueError, match=r"^nearly is not unitary, residual 2\.000e-10$"):
        check_unitary("nearly", nearly)
    with pytest.raises(ValueError, match="attack matrix is not unitary"):
        AttackOperator(np.diag([1.0, 1.0, 1.0 + 1e-8]), "z")


def test_hermitian_validation_rejects_asymmetric():
    # The Hermitian check lives in DensityMatrix9, where 9x9 operators are made.
    skew = np.eye(9, dtype=complex) / 9.0  # unit trace, so only the Hermitian check can fire
    skew[0, 1] = 0.1
    with pytest.raises(ValueError, match="not Hermitian"):
        DensityMatrix9(skew)


@given(
    st.lists(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        min_size=3,
        max_size=3,
    ).filter(lambda r: min(abs(r[0] - r[1]), abs(r[0] - r[2]), abs(r[1] - r[2])) > 1e-3)
)
def test_cubic_recovers_separated_roots(roots):
    # The largest root comes first; the order of the other two follows their magnitudes.
    r = sorted(roots, reverse=True)
    c2 = -(r[0] + r[1] + r[2])
    c1 = r[0] * r[1] + r[0] * r[2] + r[1] * r[2]
    c0 = -r[0] * r[1] * r[2]
    got = solve_cubic(c2, c1, c0)
    assert got.shape == (3,) and abs(got[0] - r[0]) < 1e-9
    assert max(abs(g - e) for g, e in zip(sorted(got, reverse=True), r)) < 1e-9


def test_cubic_triple_root_branch_exact_coefficients():
    # (x - 1/4)^3: the coefficients are binary-exact, so the depressed
    # cubic collapses to zero and the shift is returned untouched
    r = 0.25
    got = solve_cubic(-3 * r, 3 * r * r, -(r**3))
    assert got.tolist() == [r, r, r]


def test_cubic_triple_root_with_rounded_coefficients():
    # 1/9 is not binary-exact; a triple root can then only be pinned to
    # about the cube root of the coefficient rounding error
    r = 1.0 / 9.0
    got = solve_cubic(-3 * r, 3 * r * r, -(r**3))
    assert max(abs(g - r) for g in got) < 1e-5


def test_cubic_rejects_complex_root_case():
    # x^3 + x has roots 0, +i, -i
    with pytest.raises(NumericalError):
        solve_cubic(0.0, 1.0, 0.0)


def test_cubic_roots_descend():
    # roots 0.5, 0.3, 0.1
    got = solve_cubic(-0.9, 0.23, -0.015)
    assert got[0] >= got[1] >= got[2]
    assert abs(got[0] - 0.5) < 1e-10 and abs(got[2] - 0.1) < 1e-10


def test_cubic_solves_broadcast_coefficients_row_by_row():
    # (N, 1), (1, U) and scalar coefficients give (N, U, 3) roots, each row
    # those of its own cubic, for a spectrum descending.
    rng = np.random.default_rng(38)
    roots = np.sort(rng.random((4, 2, 3)), axis=-1)[..., ::-1]
    roots[:, 0] = roots[:1, 0]  # column 0 shares its trace across the rows
    c2 = -roots.sum(axis=-1)
    c1 = roots[..., 0] * roots[..., 1] + roots[..., 0] * roots[..., 2] + roots[..., 1] * roots[..., 2]
    c0 = -roots.prod(axis=-1)
    got = solve_cubic(c2[:1, :1], c1[:, :1], c0[:, :1])
    assert got.shape == (4, 1, 3)
    assert np.abs(got - roots[:, :1]).max() < 1e-12
    got = solve_cubic(c2, c1, c0)
    assert got.shape == (4, 2, 3) and np.abs(got - roots).max() < 1e-12
    assert (np.diff(got, axis=-1) <= 0.0).all()
    assert solve_cubic(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros((0, 2))).shape == (0, 2, 3)
    for p0 in (1.0 / 3.0, 0.25, 1e-3):  # x^3 - p0 x^2: the double zero stays exact
        assert solve_cubic(np.array([-p0]), 0.0, np.array([0.0, -0.0])).tolist() == [[p0, 0.0, 0.0]] * 2


def test_cubic_batch_errors_name_the_coefficient_or_the_discriminant():
    good = np.array([-0.9, -0.9])
    for name, bad in (("c2", [-0.9, np.nan]), ("c1", [0.23, np.inf]), ("c0", [-np.inf, -0.015])):
        coefficients = {"c2": good, "c1": np.array([0.23, 0.23]), "c0": np.array([-0.015, -0.015])}
        coefficients[name] = np.array(bad)
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            solve_cubic(**coefficients)
    # one row of roots 0, +i, -i among real ones
    with pytest.raises(NumericalError, match=r"discriminant -4\.000e\+00"):
        solve_cubic(np.array([-0.9, 0.0]), np.array([0.23, 1.0]), np.array([-0.015, 0.0]))
