"""Frequency tables, entropies, ensemble spectra, leak curves."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qutrit_pingpong.attack import AttackColumn, complete_circulant, normalized_column, symmetric_column
from qutrit_pingpong import information
from qutrit_pingpong.information import (
    FREQUENCY_PRESETS,
    DensityMatrix9,
    FrequencyTable,
    InfoResult,
    _class_blocks,
    assemble_rho,
    cubic_coefficients,
    factorized_eigenvalues,
    holevo_information,
    info_curve,
    load_frequency_table,
    source_entropy,
)
from qutrit_pingpong.qutrit import NumericalError, solve_cubic

_ENTROPY_EXPECTATIONS = {
    "uniform": 2.0,
    "tiered": 1.9206,
    "sparse": 1.4392,
    "peaked": 1.0864,
    "two-bigram": 0.57938,
}


def _random_column(rng) -> AttackColumn:
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    v /= np.linalg.norm(v)
    return AttackColumn(*(complex(x) for x in v))


def test_frequency_table_validation():
    with pytest.raises(ValueError):
        FrequencyTable(np.full((3, 3), 0.2))
    with pytest.raises(ValueError):
        FrequencyTable(-np.full((3, 3), 1.0 / 9.0))
    with pytest.raises(ValueError):
        FrequencyTable(np.full((2, 3), 1.0 / 6.0))


def test_frequency_tables_compare_by_value():
    uniform = FrequencyTable.uniform()
    assert FREQUENCY_PRESETS["uniform"] == uniform
    assert hash(FREQUENCY_PRESETS["uniform"]) == hash(uniform)
    assert FREQUENCY_PRESETS["tiered"] != uniform


def test_presets_are_well_formed():
    assert set(_ENTROPY_EXPECTATIONS) == set(FREQUENCY_PRESETS)
    for freq in FREQUENCY_PRESETS.values():
        assert abs(float(freq.p.sum()) - 1.0) < 1e-12


@pytest.mark.parametrize("name", sorted(_ENTROPY_EXPECTATIONS))
def test_preset_entropies(name):
    h = source_entropy(FREQUENCY_PRESETS[name]).value
    assert abs(h - _ENTROPY_EXPECTATIONS[name]) < 1e-3


def test_uniform_entropy_is_two_trits_exactly():
    assert source_entropy(FrequencyTable.uniform()).value == pytest.approx(2.0, abs=1e-14)


def test_deterministic_source_gives_positive_zero():
    freq = FrequencyTable(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    values = [source_entropy(freq).value, holevo_information(symmetric_column(0.3), freq).value]
    values += [v for _, v in info_curve(freq, [0.0, 1.0 / 3.0, 2.0 / 3.0])]
    for v in values:
        assert v == 0.0
        assert math.copysign(1.0, v) == 1.0


def test_info_result_validation():
    with pytest.raises(ValueError):
        InfoResult(2.5)
    with pytest.raises(ValueError):
        InfoResult(-0.5)


def test_load_frequency_table(tmp_path):
    path = tmp_path / "freq.json"
    path.write_text(json.dumps({"p": [[1 / 9] * 3] * 3}))
    freq = load_frequency_table(path)
    assert np.abs(freq.p - 1.0 / 9.0).max() < 1e-12


def test_load_frequency_table_renormalizes_rounding(tmp_path):
    p = np.full((3, 3), 0.1111111111)
    path = tmp_path / "freq.json"
    path.write_text(json.dumps({"p": p.tolist()}))
    freq = load_frequency_table(path)
    assert abs(float(freq.p.sum()) - 1.0) < 1e-15


@pytest.mark.parametrize(
    "payload",
    [
        {"p": [[0.5, 0.5, 0.5]] * 3},
        {"p": [[-0.1, 0.6, 0.5], [0, 0, 0], [0, 0, 0]]},
        {"p": [[1.0, 0.0], [0.0, 0.0]]},
        {"q": []},
        [1, 2, 3],
        {"p": {"row": [1.0, 0.0, 0.0]}},
        {"p": [[10**400, 0, 0], [0, 0, 0], [0, 0, 0]]},
        {"p": [[True, False, False], [False, False, False], [False, False, False]]},
        {"p": [["0.5", 0.5, 0], [0, 0, 0], [0, 0, 0]]},
    ],
)
def test_load_frequency_table_rejects_malformed(tmp_path, payload):
    path = tmp_path / "freq.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        load_frequency_table(path)


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix9(np.eye(9, dtype=complex))  # trace 9
    neg = np.zeros((9, 9), dtype=complex)
    neg[0, 0], neg[1, 1] = 1.5, -0.5
    with pytest.raises(ValueError):
        DensityMatrix9(neg)


def test_assembled_ensemble_is_a_density_matrix():
    rng = np.random.default_rng(5)
    for _ in range(5):
        col = _random_column(rng)
        p = rng.random((3, 3))
        freq = FrequencyTable(p / p.sum())
        rho = assemble_rho(col, freq)
        assert abs(float(np.trace(rho.m).real) - 1.0) < 1e-12


def test_cubic_coefficients_uniform_symmetric_case():
    # all moduli 1/3, all class frequencies 1/9: eigenvalue 1/9 three times
    c2, c1, c0 = cubic_coefficients((1 / 3, 1 / 3, 1 / 3), (1 / 9, 1 / 9, 1 / 9))
    assert c2 == pytest.approx(-1 / 3)
    assert c1 == pytest.approx(3 * (1 / 3) * (1 / 27), abs=1e-15)
    assert c0 == pytest.approx(-27 * (1 / 27) * (1 / 729), abs=1e-18)


def test_degenerate_shift_classes_pin_zero_eigenvalues():
    moduli = symmetric_column(0.5).moduli_squared()

    # a class with a single occupied bigram is pure: its cubic drops the
    # constant and linear terms and the spectrum is (frequency, 0, 0)
    c2, c1, c0 = cubic_coefficients(moduli, (0.0, 2.0 / 9.0, 0.0))
    assert c1 == 0.0 and c0 == 0.0
    roots = solve_cubic(c2, c1, c0)
    assert abs(roots[0] - 2.0 / 9.0) < 1e-12
    assert abs(roots[1]) < 1e-12 and abs(roots[2]) < 1e-12

    # an empty class contributes three exact zeros
    empty = cubic_coefficients(moduli, (0.0, 0.0, 0.0))
    assert empty == (0.0, 0.0, 0.0)
    assert solve_cubic(*empty) == (0.0, 0.0, 0.0)

    spread = factorized_eigenvalues(symmetric_column(0.5), FREQUENCY_PRESETS["two-bigram"])
    assert abs(spread[0] - 2.0 / 3.0) < 1e-12
    assert abs(spread[1] - 1.0 / 3.0) < 1e-12
    assert np.abs(spread[2:]).max() < 1e-12


def test_factorized_spectrum_matches_dense_diagonalization():
    rng = np.random.default_rng(99)
    for _ in range(30):
        col = _random_column(rng)
        p = rng.random((3, 3))
        freq = FrequencyTable(p / p.sum())
        lam_fact = factorized_eigenvalues(col, freq)
        lam_dense = np.sort(np.linalg.eigvalsh(assemble_rho(col, freq).m))[::-1]
        assert np.abs(lam_fact - lam_dense).max() < 1e-10


@given(st.integers(min_value=0, max_value=100_000))
def test_factorized_spectrum_is_a_distribution(seed):
    rng = np.random.default_rng(seed)
    col = _random_column(rng)
    p = rng.random((3, 3))
    freq = FrequencyTable(p / p.sum())
    lam = factorized_eigenvalues(col, freq)
    assert lam.min() > -1e-10
    assert abs(float(lam.sum()) - 1.0) < 1e-9


def test_maximal_attack_leaks_the_source_entropy():
    for freq in FREQUENCY_PRESETS.values():
        leak = holevo_information(symmetric_column(2.0 / 3.0), freq).value
        assert abs(leak - source_entropy(freq).value) < 1e-9


def test_invisible_attack_leaks_class_entropy_only():
    for freq in FREQUENCY_PRESETS.values():
        leak = holevo_information(symmetric_column(0.0), freq).value
        sums = freq.p.sum(axis=0)
        want = -sum(s * math.log(s) for s in sums if s > 0.0) / math.log(3.0)
        assert abs(leak - want) < 1e-9


def test_curves_monotone_for_all_presets():
    for freq in FREQUENCY_PRESETS.values():
        values = [v for _, v in info_curve(freq)]
        assert len(values) == 67
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_two_bigram_curve_is_flat():
    values = [v for _, v in info_curve(FREQUENCY_PRESETS["two-bigram"])]
    assert max(values) - min(values) < 1e-9
    assert abs(values[0] - 0.57938) < 1e-4


def test_curve_rejects_out_of_range_grid():
    uniform = FrequencyTable.uniform()
    for grid in ([0.0, 0.8], [0.1, -1e-9], [0.2, float("nan")], [float("inf")], [0.1, -float("inf")]):
        with pytest.raises(ValueError, match=r"detection grid value .* outside \[0, 2/3\]"):
            info_curve(uniform, grid)
    with pytest.raises(ValueError, match=r"value 0\.8 outside"):
        info_curve(uniform, [0.1, 0.8, 0.9])  # the first bad value is named
    for grid in ([[0.0, 0.1], [0.2, 0.3]], 0.3, np.float64(0.3), ["zero"], [[0.1], [0.2, 0.3]]):
        with pytest.raises(ValueError):
            info_curve(uniform, grid)


def test_curve_rejects_grids_of_booleans_and_strings():
    # numpy would cast these to floats; the grid must hold numbers, as in JSON.
    uniform = FrequencyTable.uniform()
    for grid in (["0.5"], [False], [True], np.array([True, False]), [None]):
        with pytest.raises(ValueError, match="^detection grid must be a sequence of numbers$"):
            info_curve(uniform, grid)
    assert info_curve(uniform, [0]) == info_curve(uniform, np.array([0.0], dtype=np.float32))


def test_curve_clamps_the_slack_and_returns_plain_floats():
    uniform = FrequencyTable.uniform()
    points = info_curve(uniform, [-1e-13, 0.25, 2.0 / 3.0 + 1e-13])
    assert [d for d, _ in points] == [0.0, 0.25, 2.0 / 3.0]
    assert all(type(d) is float and type(v) is float for d, v in points)
    assert points[1][1] == pytest.approx(holevo_information(symmetric_column(0.25), uniform).value, abs=1e-14)
    assert info_curve(uniform, []) == []
    assert info_curve(uniform, np.array([])) == []


def test_batched_spectrum_checks_name_the_first_bad_point(monkeypatch):
    flat = np.full(9, 1.0 / 9.0)
    clamped = np.r_[-5e-11, np.full(8, 1.0 / 8.0)]  # within the floor: counts as zero
    negative = np.r_[-5e-10, flat[1:]]
    heavy = flat * 1.1
    uniform = FrequencyTable.uniform()

    def curve_over(*rows):
        monkeypatch.setattr(information, "_class_spectra", lambda moduli, freq: np.array(rows))
        return info_curve(uniform, np.linspace(0.0, 0.5, len(rows)))

    values = [v for _, v in curve_over(flat, clamped)]
    assert values == pytest.approx([2.0, math.log(8.0) / math.log(3.0)], abs=1e-12)
    with pytest.raises(NumericalError, match=r"negative eigenvalue -5e-10"):
        curve_over(flat, heavy, negative)
    with pytest.raises(NumericalError, match=r"spectrum sums to 1\.1"):
        curve_over(flat, heavy, heavy * 1.1)
    for values, named in (([0.5, 2.1, -1.0], "2.1"), ([-2e-9, 0.5], "-2e-09"), ([0.5, np.nan], "nan")):
        monkeypatch.setattr(information, "_entropy_trits", lambda lams, v=values: np.array(v))
        with pytest.raises(ValueError, match=rf"information value {named} outside \[0, 2\.0\]"):
            curve_over(*[flat] * len(values))


def test_norm_slack_of_an_accepted_column_stays_out_of_the_spectrum():
    # AttackColumn accepts a squared norm within 1e-9 of one; the spectrum is
    # that of the normalized column, so the 1e-9 sum check never sees the slack.
    slack = AttackColumn(math.sqrt(0.5 + 1e-9), math.sqrt(0.3), math.sqrt(0.2))
    unit = normalized_column(slack.c0, slack.c1, slack.c2)
    for freq in FREQUENCY_PRESETS.values():
        lams = factorized_eigenvalues(slack, freq)
        assert abs(float(lams.sum()) - 1.0) < 1e-14
        assert np.abs(lams - factorized_eigenvalues(unit, freq)).max() < 1e-15
        assert abs(holevo_information(slack, freq).value - holevo_information(unit, freq).value) < 1e-13


@pytest.mark.parametrize("excess", [0.999e-9, -0.999e-9])
def test_completion_and_spectrum_read_one_unit_sum_triple(monkeypatch, excess):
    # A column at AttackColumn's 1e-9 norm limit: its squared moduli come out
    # at unit sum, and the completion and the spectrum both read that triple.
    col = AttackColumn(math.sqrt(0.5 + excess), math.sqrt(0.3), math.sqrt(0.2))
    triple = col.moduli_squared()
    assert abs(sum(triple) - 1.0) <= math.ulp(1.0)
    seen = []
    original = AttackColumn.moduli_squared

    def spy(self):
        seen.append(original(self))
        return seen[-1]

    monkeypatch.setattr(AttackColumn, "moduli_squared", spy)
    complete_circulant(col)
    holevo_information(col, FREQUENCY_PRESETS["tiered"])
    factorized_eigenvalues(col, FREQUENCY_PRESETS["tiered"])
    assert seen == [triple] * 3


def test_flat_columns_leak_two_trits_under_the_uniform_source():
    # Every probe state is equally likely and the nine are orthogonal: the
    # spectrum is 1/9 nine times whatever the column's phases.
    uniform = FREQUENCY_PRESETS["uniform"]
    rng = np.random.default_rng(1909)
    columns = [AttackColumn(*([1.0 / math.sqrt(3.0)] * 3))]
    columns += [AttackColumn(*(np.exp(2j * np.pi * rng.random(3)) / math.sqrt(3.0))) for _ in range(50)]
    for col in columns:
        assert abs(holevo_information(col, uniform).value - 2.0) < 1e-12
        assert np.abs(factorized_eigenvalues(col, uniform) - 1.0 / 9.0).max() < 1e-12


@pytest.mark.parametrize("name", sorted(FREQUENCY_PRESETS))
def test_factorized_spectrum_matches_dense_on_the_symmetric_grid(name):
    # Under `uniform` every class has the eigenvalue d/6 twice; a root
    # solver that splits repeated roots misses eigvalsh here by up to 9e-9.
    freq = FREQUENCY_PRESETS[name]
    for d in np.linspace(0.0, 2.0 / 3.0, 81):
        col = symmetric_column(float(d))
        lam_dense = np.sort(np.linalg.eigvalsh(assemble_rho(col, freq).m))[::-1]
        assert np.abs(factorized_eigenvalues(col, freq) - lam_dense).max() < 1e-10, (name, d)


def test_class_blocks_carry_the_paper_cubic():
    # The characteristic polynomial of each shift-class block is the
    # closed-form cubic: trace -c2, principal 2x2 minors c1, determinant -c0.
    rng = np.random.default_rng(314)
    for _ in range(50):
        col = _random_column(rng)
        p = rng.random((3, 3))
        freq = FrequencyTable(p / p.sum())
        moduli = col.moduli_squared()
        blocks = _class_blocks(np.array([moduli]), freq)[0]
        for j in range(3):
            g = blocks[j]
            c2, c1, c0 = cubic_coefficients(moduli, freq.p[:, j])
            minors = sum(np.linalg.det(g[np.ix_(pair, pair)]) for pair in ((0, 1), (0, 2), (1, 2)))
            assert abs(np.trace(g) + c2) < 1e-12
            assert abs(minors - c1) < 1e-12
            assert abs(np.linalg.det(g) + c0) < 1e-12


def _assert_spectrum_matches_dense(col, freq):
    lam_fact = factorized_eigenvalues(col, freq)
    lam_dense = np.sort(np.linalg.eigvalsh(assemble_rho(col, freq).m))[::-1]
    assert np.abs(lam_fact - lam_dense).max() < 1e-10
    holevo_information(col, freq)  # passes the -1e-10 floor and the 1e-9 sum check


def test_spectrum_with_empty_and_near_empty_entries_matches_dense():
    # A class with one occupied bigram gives the cubic x^3 - p0 x^2, whose
    # double root 0 the trigonometric formula alone split into +-1e-9.
    rng = np.random.default_rng(20091)
    columns = [symmetric_column(d) for d in (0.0, 0.2, 0.5, 2.0 / 3.0)]
    columns += [_random_column(rng) for _ in range(4)]
    transposed_peaked = FrequencyTable(FREQUENCY_PRESETS["peaked"].p.T)
    for col in columns:
        _assert_spectrum_matches_dense(col, transposed_peaked)
    assert len(info_curve(transposed_peaked, np.linspace(0.0, 2.0 / 3.0, 201))) == 201

    for k in range(1, 100):
        p0 = k / 100
        top, r2, r3 = solve_cubic(-p0, 0.0, 0.0)
        assert abs(top - p0) < 1e-15 and abs(r2) < 1e-15 and abs(r3) < 1e-15
        one_per_class = FrequencyTable([[p0, 1.0 - p0, 0.0], [0.0] * 3, [0.0] * 3])
        _assert_spectrum_matches_dense(columns[k % len(columns)], one_per_class)

    for _ in range(300):
        col = _random_column(rng) if rng.random() < 0.5 else AttackColumn(*np.eye(3)[rng.integers(3)])
        p = rng.dirichlet(np.ones(9))
        hit = rng.choice(9, size=rng.integers(1, 6), replace=False)
        p[hit] = rng.choice([0.0, 1e-15, 1e-12, 1e-8], size=hit.size)
        _assert_spectrum_matches_dense(col, FrequencyTable((p / p.sum()).reshape(3, 3)))

    # double and triple roots at the top
    uniform = FREQUENCY_PRESETS["uniform"]
    for moduli in ((0.4, 0.4, 0.2), (0.5, 0.5, 0.0), (1 / 3, 1 / 3, 1 / 3)):
        _assert_spectrum_matches_dense(AttackColumn(*np.sqrt(moduli)), uniform)
    _assert_spectrum_matches_dense(symmetric_column(2.0 / 3.0), uniform)
