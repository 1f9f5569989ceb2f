"""Attack columns, circulant completion, reference data, JSON specs."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qutrit_pingpong.attack import (
    REFERENCE_ATTACKS,
    AttackColumn,
    AttackOperator,
    ColumnAttack,
    NoAttack,
    SymmetricAttack,
    attack_from_dict,
    attack_to_dict,
    blended_detection,
    circulant,
    column_z_from_x,
    complete_circulant,
    detection_from_column,
    normalized_column,
    symmetric_column,
    verify_reference_attacks,
)
from qutrit_pingpong.qutrit import OMEGA, NumericalError


def test_column_requires_unit_norm():
    with pytest.raises(ValueError):
        AttackColumn(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        AttackColumn(float("nan"), 0.0, 0.0)


_BUILDS_A_COLUMN = {"AttackColumn": AttackColumn, "normalized_column": normalized_column}


@pytest.mark.parametrize("build", _BUILDS_A_COLUMN.values(), ids=_BUILDS_A_COLUMN.keys())
@pytest.mark.parametrize(
    "entry", ["1", b"1", True, np.True_, None, object()], ids=["str", "bytes", "bool", "np.bool_", "None", "object"]
)
def test_column_entries_must_be_numbers(build, entry):
    with pytest.raises(ValueError) as first:
        build(entry, 0.0, 0.0)
    assert str(first.value) == f"c0 must be a number, got {entry!r}"
    with pytest.raises(ValueError) as last:
        build(0.0, 0.0, entry)
    assert str(last.value) == f"c2 must be a number, got {entry!r}"
    assert build(np.float64(1.0), np.int64(0), 0j) == AttackColumn(1.0, 0.0, 0.0)


def test_normalized_column_rescales():
    col = normalized_column(3.0, 4.0, 0.0)
    assert abs(col.c0 - 0.6) < 1e-15
    assert abs(col.c1 - 0.8) < 1e-15


def test_normalized_column_rejects_zero():
    with pytest.raises(ValueError):
        normalized_column(0.0, 0.0, 0.0)


def test_detection_is_leaked_weight():
    col = AttackColumn(math.sqrt(0.7), math.sqrt(0.2), math.sqrt(0.1))
    assert abs(detection_from_column(col) - 0.3) < 1e-12


def test_detection_of_undisturbed_column_is_zero():
    assert detection_from_column(AttackColumn(1.0, 0.0, 0.0)) == 0.0


def test_detection_of_tabulated_columns():
    general = normalized_column(-0.910684, 0.244017, -0.333333)
    assert abs(detection_from_column(general) - 0.170655) < 5e-5
    sym = normalized_column(-0.953939 + 0.1j, -0.2j, -0.2j)
    assert abs(detection_from_column(sym) - 0.08) < 5e-5


def test_symmetric_column_shares_disturbance_equally():
    col = symmetric_column(0.4)
    assert abs(abs(col.c1) ** 2 - 0.2) < 1e-15
    assert abs(abs(col.c2) ** 2 - 0.2) < 1e-15
    assert abs(detection_from_column(col) - 0.4) < 1e-15


@pytest.mark.parametrize("d", [-0.1, 0.7, 1.0])
def test_symmetric_column_range(d):
    with pytest.raises(ValueError):
        symmetric_column(d)


def test_attack_operator_rejects_non_unitary():
    with pytest.raises(ValueError):
        AttackOperator(np.ones((3, 3)), "z")


def test_attack_operator_rejects_uneven_moduli():
    # unitary, but the main diagonal mixes weights 0, 0, 1
    swap = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    with pytest.raises(ValueError):
        AttackOperator(swap, "z")


def test_attack_operator_names_the_worst_broken_diagonal_in_plain_floats():
    # every broken diagonal of this permutation spreads by 1; the main one is named
    perm = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
    with pytest.raises(ValueError, match=r"squared moduli \[1\.0, 0\.0, 0\.0\] differ along a broken diagonal$"):
        AttackOperator(perm, "z")


def test_attack_operator_rejects_unknown_basis():
    with pytest.raises(ValueError):
        AttackOperator(np.eye(3, dtype=complex), "q")


def test_identity_is_a_valid_attack_operator():
    op = AttackOperator(np.eye(3, dtype=complex), "z")
    assert detection_from_column(op.column()) == 0.0


def test_completion_matches_symmetric_family():
    for d in np.linspace(0.0, 2.0 / 3.0, 14):
        op = complete_circulant(symmetric_column(float(d)))
        got = np.abs(op.m[:, 0]) ** 2
        want = np.array(symmetric_column(float(d)).moduli_squared())
        assert np.abs(got - want).max() < 1e-10


def test_completion_of_lossless_column_is_identity():
    op = complete_circulant(AttackColumn(1.0, 0.0, 0.0))
    assert np.abs(op.m - np.eye(3)).max() < 1e-9


def test_completion_of_uniform_column_up_to_gauge():
    # the maximally leaking column has a closed-form circulant realization;
    # the solver may return it with a different global phase or with the two
    # free eigenphases conjugated, both of which leave the moduli untouched
    op = complete_circulant(symmetric_column(2.0 / 3.0))
    got = op.m[:, 0]
    want = np.array([0.577350, -0.288675 + 0.5j, -0.288675 + 0.5j])
    assert abs(abs(got[0]) - abs(want[0])) < 1e-6
    residuals = []
    for cand in (want, want.conj()):
        phase = got[0] / cand[0]
        residuals.append(np.abs(got - phase * cand).max())
    assert min(residuals) < 1e-6


def test_completion_output_is_circulant():
    op = complete_circulant(symmetric_column(0.3))
    for j in range(3):
        for k in range(3):
            assert op.m[j, k] == op.m[(j + 1) % 3, (k + 1) % 3]


def test_completion_keeps_representation_label():
    op = complete_circulant(symmetric_column(0.1), representation="x")
    assert op.representation == "x"


def test_completion_recovers_random_feasible_columns():
    rng = np.random.default_rng(424242)
    fourier = np.array([[OMEGA ** ((l * m) % 3) for m in range(3)] for l in range(3)])
    for _ in range(60):
        phases = rng.uniform(-math.pi, math.pi, size=2)
        eig = np.array([1.0, np.exp(1j * phases[0]), np.exp(1j * phases[1])])
        col_vals = fourier @ eig / 3.0
        col = AttackColumn(*(complex(v) for v in col_vals))
        op = complete_circulant(col)
        got = np.abs(op.m[:, 0]) ** 2
        assert np.abs(got - np.array(col.moduli_squared())).max() < 1e-10


def _symmetric_shape(d: float) -> AttackColumn:
    # the symmetric pattern past d = 2/3; its links flatten into a segment at d = 8/9
    return AttackColumn(math.sqrt(1.0 - d), math.sqrt(d / 2.0), math.sqrt(d / 2.0))


def _unitarity_residual(m: np.ndarray) -> float:
    return float(np.abs(m.conj().T @ m - np.eye(3)).max())


def test_completion_rejects_infeasible_column():
    infeasible = [
        (AttackColumn(0.0, 1.0 / math.sqrt(2), 1.0 / math.sqrt(2)), "sqrt(t1*t2) <= sqrt(t0*t2) + sqrt(t0*t1)"),
        (AttackColumn(math.sqrt(1.0 - 3e-8), math.sqrt(3e-8), 0.0), "sqrt(t0*t1) <= sqrt(t0*t2) + sqrt(t1*t2)"),
        (_symmetric_shape(8.0 / 9.0 + 1e-6), "sqrt(t1*t2) <= sqrt(t0*t2) + sqrt(t0*t1)"),
    ]
    for col, inequality in infeasible:
        with pytest.raises(NumericalError) as err:
            complete_circulant(col)
        assert "chain links sqrt(t0*t2) = " in str(err.value)
        assert inequality in str(err.value)


@pytest.mark.parametrize(
    "col, residual",
    [
        # pure shifts: every link is zero and the completion is a cyclic shift
        (AttackColumn(0.0, 1.0, 0.0), 1e-15),
        (AttackColumn(0.0, 0.0, 1.0), 1e-15),
        (AttackColumn(0.0, 1j, 0.0), 1e-15),
        # flat triangle: sqrt(t1*t2) = sqrt(t0*t2) + sqrt(t0*t1)
        (_symmetric_shape(8.0 / 9.0), 1e-12),
        # links (0, 1e-10, 0) miss closing by 1e-10, inside the completion tolerance
        (AttackColumn(math.sqrt(1.0 - 1e-20), 1e-10, 0.0), 1e-10),
    ],
)
def test_completion_accepts_edge_columns(col, residual):
    op = complete_circulant(col)
    assert np.abs(np.abs(op.m) - circulant(np.abs(col.as_array()))).max() < 1e-15
    assert _unitarity_residual(op.m) <= residual


def test_completion_of_column_at_the_norm_limit_is_unitary():
    # squared norm 1 - 9.999999e-10, just inside AttackColumn's 1e-9 limit
    col = AttackColumn(
        -0.25555008368730636 + 0.3641931503165765j,
        -0.018508355876153158 - 0.7026266724200085j,
        0.39704834147430657 + 0.3877928796266745j,
    )
    assert _unitarity_residual(complete_circulant(col).m) < 1e-12


def test_completion_verdict_is_the_chain_link_triangle():
    rng = np.random.default_rng(97)
    accepted = 0
    for _ in range(500):
        t = rng.dirichlet([1.0, 1.0, 1.0])
        col = AttackColumn(*(complex(x) for x in np.sqrt(t) * np.exp(1j * rng.uniform(-math.pi, math.pi, 3))))
        t0, t1, t2 = col.moduli_squared()
        # 16 (area)^2 of the links' triangle, by Heron's formula for moduli summing to 1
        heron = 2.0 * t0 * t1 * t2 - ((t0 * t1) ** 2 + (t1 * t2) ** 2 + (t2 * t0) ** 2)
        try:
            op = complete_circulant(col)
        except NumericalError:
            assert heron < 0.0
            continue
        accepted += 1
        assert heron >= 0.0
        assert np.abs(np.abs(op.m[:, 0]) ** 2 - np.array([t0, t1, t2])).max() < 1e-12
        assert _unitarity_residual(op.m) < 1e-12
    assert 200 < accepted < 300


def test_completion_rejects_unknown_representation():
    with pytest.raises(ValueError):
        complete_circulant(symmetric_column(0.2), representation="w")


@given(st.integers(min_value=0, max_value=10_000))
def test_cross_representation_moduli_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    v /= np.linalg.norm(v)
    col = AttackColumn(*(complex(x) for x in v))
    m = column_z_from_x(col)
    assert all(x >= 0.0 for x in m)
    assert abs(sum(m) - 1.0) < 1e-12


def test_cross_representation_of_uniform_column_is_deterministic():
    # equal x entries concentrate all computational weight on "no shift"
    col = AttackColumn(*[1.0 / math.sqrt(3.0)] * 3)
    m0, m1, m2 = column_z_from_x(col)
    assert abs(m0 - 1.0) < 1e-12
    assert abs(m1) < 1e-12 and abs(m2) < 1e-12


def test_cross_representation_of_concentrated_column_is_flat():
    m = column_z_from_x(AttackColumn(1.0, 0.0, 0.0))
    assert max(abs(x - 1.0 / 3.0) for x in m) < 1e-12


def test_reference_rows_all_reproduce():
    checks = verify_reference_attacks()
    assert len(checks) == 18
    assert all(c.passed for c in checks)
    assert max(c.deviation for c in checks) < 5e-5


def test_reference_rows_contain_both_shapes():
    symmetric = [r for r in REFERENCE_ATTACKS if r.symmetric]
    general = [r for r in REFERENCE_ATTACKS if not r.symmetric]
    assert len(symmetric) == 6
    assert len(general) == 12


def test_reference_last_row_has_reduced_computational_leak():
    row = REFERENCE_ATTACKS[-1]
    assert row.symmetric
    assert abs(row.d_z - 0.222222) < 1e-9
    col = normalized_column(row.a, row.b, row.c)
    m0, _, _ = column_z_from_x(col)
    assert abs((1.0 - m0) - row.d_z) < 5e-5


def test_reference_rows_saturate_one_basis():
    # every stored row leaks maximally in at least one control basis
    for row in REFERENCE_ATTACKS:
        assert abs(max(row.d_x, row.d_z) - 2.0 / 3.0) < 5e-5


def test_blended_detection_mixes_rates():
    assert abs(blended_detection((0.0, 2.0 / 3.0), (0.5, 0.5)) - 1.0 / 3.0) < 1e-15


def test_blended_detection_saturated_and_silent_cases():
    for q_z in (0.0, 0.3, 1.0):
        assert abs(blended_detection((2.0 / 3.0, 2.0 / 3.0), (q_z, 1.0 - q_z)) - 2.0 / 3.0) < 1e-15
    assert blended_detection((0.0, 0.0), (0.5, 0.5)) == 0.0


@pytest.mark.parametrize(
    "rates,weights",
    [
        ((0.1, 0.2), (0.7, 0.7)),
        ((0.1, 0.2), (-0.5, 1.5)),
        ((0.1, 0.2), (True, False)),
        ((0.1, 0.2), ("0.5", 0.5)),
        ((0.1, 0.2), (10**400, 0)),
        ((1.5, 0.2), (0.5, 0.5)),
        ((True, 0.2), (0.5, 0.5)),
        ((0.1,), (0.5, 0.5)),
    ],
    ids=[
        "weights-sum-above-1",
        "negative-weight",
        "boolean-weights",
        "string-weight",
        "huge-integer-weight",
        "rate-above-1",
        "boolean-rate",
        "one-rate",
    ],
)
def test_blended_detection_validates_weights(rates, weights):
    with pytest.raises(ValueError):
        blended_detection(rates, weights)


def test_attack_spec_round_trips():
    specs = [
        NoAttack(),
        SymmetricAttack(0.25),
        ColumnAttack("x", symmetric_column(0.3)),
    ]
    for spec in specs:
        again = attack_from_dict(attack_to_dict(spec))
        assert type(again) is type(spec)
    col = attack_from_dict(attack_to_dict(specs[2]))
    assert col.basis == "x"
    assert np.abs(col.column.as_array() - specs[2].column.as_array()).max() < 1e-15


def test_symmetric_attack_validates_range():
    with pytest.raises(ValueError):
        SymmetricAttack(0.9)


def test_symmetric_attack_holds_its_z_column():
    attack = SymmetricAttack(0.3)
    assert attack.column == symmetric_column(0.3) and attack.basis == "z"
    assert repr(attack) == "SymmetricAttack(d_z=0.3)"
    assert attack == SymmetricAttack(0.3) and hash(attack) == hash(SymmetricAttack(0.3))
    assert attack_to_dict(attack) == {"type": "symmetric", "d_z": 0.3}


@pytest.mark.parametrize("d_z", [False, np.False_, "0.1", None])
def test_symmetric_attack_takes_only_a_finite_number(d_z):
    message = f"symmetric attack needs a finite number d, got {d_z!r}"
    with pytest.raises(ValueError) as built:
        SymmetricAttack(d_z)
    with pytest.raises(ValueError) as parsed:
        attack_from_dict({"type": "symmetric", "d_z": d_z})
    assert str(built.value) == str(parsed.value) == message


def test_column_attack_validates_basis():
    with pytest.raises(ValueError):
        ColumnAttack("q", symmetric_column(0.1))


@pytest.mark.parametrize(
    "payload",
    [
        {"type": "mystery"},
        {"type": "symmetric"},
        {"type": "symmetric", "d_z": "big"},
        {"type": "symmetric", "d_z": 0.1, "stray": 1},
        {"type": "column", "basis": "z"},
        {"type": "column", "values": [[1, 0], [0, 0], [0, 0]]},
        {"type": "column", "basis": "z", "values": [[1, 0], [0, 0]]},
        {"type": "column", "basis": "z", "values": [[1, 0], [0, 0], ["x", 0]]},
        {"type": "none", "extra": True},
        [],
    ],
)
def test_attack_from_dict_rejects_malformed(payload):
    with pytest.raises(ValueError):
        attack_from_dict(payload)

