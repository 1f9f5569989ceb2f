"""Frequency tables, entropies, ensemble spectra, leak curves."""

import decimal
import itertools
import json
import math
import sys
import types

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qutrit_pingpong.attack import (
    AttackColumn,
    ColumnAttack,
    attack_from_dict,
    attack_to_dict,
    complete_circulant,
    normalized_column,
    symmetric_column,
)
from qutrit_pingpong import information
from qutrit_pingpong.information import (
    FREQUENCY_PRESETS,
    DensityMatrix9,
    FrequencyTable,
    InfoResult,
    _gram_blocks,
    assemble_rho,
    cubic_coefficients,
    curve_csv,
    factorized_eigenvalues,
    frequency_table_from_dict,
    holevo_information,
    info_curve,
    load_frequency_table,
    source_entropy,
)
from qutrit_pingpong.qutrit import CODING_UNITARIES, NumericalError, solve_cubic

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
    uniform = FREQUENCY_PRESETS["uniform"]
    assert FREQUENCY_PRESETS["uniform"] == uniform
    assert hash(FREQUENCY_PRESETS["uniform"]) == hash(uniform)
    assert FREQUENCY_PRESETS["tiered"] != uniform
    # -0.0 equals 0.0, so tables that differ only in the sign of a zero hash alike.
    plain, signed = (
        frequency_table_from_dict({"p": [[0.5, 0.5, zero], [0, 0, 0], [0, 0, 0]]}, "table") for zero in (0.0, -0.0)
    )
    assert plain == signed and hash(plain) == hash(signed)
    assert len({plain, signed}) == 1


def test_presets_are_well_formed():
    assert set(_ENTROPY_EXPECTATIONS) == set(FREQUENCY_PRESETS)
    for freq in FREQUENCY_PRESETS.values():
        assert abs(float(freq.p.sum()) - 1.0) < 1e-12


@pytest.mark.parametrize("name", sorted(_ENTROPY_EXPECTATIONS))
def test_preset_entropies(name):
    h = source_entropy(FREQUENCY_PRESETS[name]).value
    assert abs(h - _ENTROPY_EXPECTATIONS[name]) < 1e-3


def test_uniform_entropy_is_two_trits_exactly():
    assert source_entropy(FREQUENCY_PRESETS["uniform"]).value == pytest.approx(2.0, abs=1e-14)


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
        {"preset": "nope"},
        {"preset": 3},
        {"preset": "tiered", "p": [[1 / 9] * 3] * 3},
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
    assert solve_cubic(*empty).tolist() == [0.0, 0.0, 0.0]

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
    uniform = FREQUENCY_PRESETS["uniform"]
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
    uniform = FREQUENCY_PRESETS["uniform"]
    grids = (["0.5"], [False], [True], np.array([True, False]), [None], [False, 0.5], [0.5, True], [np.True_, 0.1])
    for grid in grids:
        with pytest.raises(ValueError, match="^detection grid must be a sequence of numbers$"):
            info_curve(uniform, grid)
    assert np.array_equal(info_curve(uniform, [0]), info_curve(uniform, np.array([0.0], dtype=np.float32)))


def test_curve_clamps_the_slack_and_returns_a_read_only_array():
    uniform = FREQUENCY_PRESETS["uniform"]
    points = info_curve(uniform, [-1e-13, 0.25, 2.0 / 3.0 + 1e-13])
    assert points.dtype == np.float64 and points.shape == (3, 2)
    assert points.flags.c_contiguous and not points.flags.writeable
    assert points[:, 0].tolist() == [0.0, 0.25, 2.0 / 3.0]
    assert points[1, 1] == pytest.approx(holevo_information(symmetric_column(0.25), uniform).value, abs=1e-14)
    for empty in (info_curve(uniform, []), info_curve(uniform, np.array([]))):
        assert empty.dtype == np.float64 and empty.shape == (0, 2)


def test_a_curve_leaves_no_python_object_per_point():
    # One Python object per point would leave over 800 live blocks; the array leaves a few.
    grid = np.linspace(0.0, 2.0 / 3.0, 801)
    kept = []  # every curve stays alive, so no preset's count is offset by freeing the last one
    for name, freq in FREQUENCY_PRESETS.items():
        info_curve(freq, grid)  # warm-up: module caches and numpy's first-call state
        before = sys.getallocatedblocks()
        kept.append(info_curve(freq, grid))
        assert sys.getallocatedblocks() - before < 50, name
    assert all(curve.shape == (801, 2) for curve in kept)


@pytest.mark.parametrize("name", sorted(FREQUENCY_PRESETS))
def test_curve_csv_of_the_array_matches_the_csv_of_float_pairs(name):
    curve = info_curve(FREQUENCY_PRESETS[name])
    pairs = [(float(d), float(v)) for d, v in curve]
    assert all(type(d) is float and type(v) is float for d, v in pairs)
    assert curve_csv(curve).encode() == curve_csv(pairs).encode()
    assert curve_csv(curve[:0]) == curve_csv([]) == "d_z,I0_trits,I0_bits\n"


def test_batched_spectrum_checks_name_the_first_bad_point(monkeypatch):
    flat = np.full(9, 1.0 / 9.0)
    clamped = np.r_[-5e-11, np.full(8, 1.0 / 8.0)]  # within the floor: counts as zero
    negative = np.r_[-5e-10, flat[1:]]
    heavy = flat * 1.1
    sparse = FREQUENCY_PRESETS["sparse"]  # three distinct classes, each counted once
    assert sparse._class_counts.tolist() == [1, 1, 1]

    def curve_over(*rows):
        monkeypatch.setattr(information, "_class_spectra", lambda moduli, freq: np.array(rows).reshape(-1, 3, 3))
        return info_curve(sparse, np.linspace(0.0, 0.5, len(rows)))

    values = [v for _, v in curve_over(flat, clamped)]
    assert values == pytest.approx([2.0, math.log(8.0) / math.log(3.0)], abs=1e-12)
    with pytest.raises(NumericalError, match=r"negative eigenvalue -5e-10"):
        curve_over(flat, heavy, negative)
    with pytest.raises(NumericalError, match=r"spectrum sums to 1\.1"):
        curve_over(flat, heavy, heavy * 1.1)
    for values, named in (([0.5, 2.1, -1.0], "2.1"), ([-2e-9, 0.5], "-2e-09"), ([0.5, np.nan], "nan")):
        # per-class entropies whose count-weighted sum is the point's value
        per_class = lambda lams, v=values: np.column_stack((v, np.zeros((len(v), 2))))
        monkeypatch.setattr(information, "_entropy_trits", per_class)
        with pytest.raises(ValueError, match=rf"information value {named} outside \[0, 2\.0\]"):
            curve_over(*[flat] * len(values))


@pytest.mark.parametrize("excess", [1e-9, 9e-10, 5e-10, 2e-10, -9e-10])
def test_norm_slack_of_an_accepted_column_stays_out_of_the_spectrum(excess):
    # AttackColumn accepts a squared norm within 1e-9 of one and is read at
    # unit norm, so neither the spectrum's 1e-9 sum check nor the dense
    # operator's 1e-10 trace check sees the slack, and the echo keeps it.
    slack = AttackColumn(math.sqrt(0.5 + excess), math.sqrt(0.3), math.sqrt(0.2))
    unit = normalized_column(slack.c0, slack.c1, slack.c2)
    assert abs(float(np.sum(np.abs(slack.as_array()) ** 2)) - 1.0) <= 1e-15
    for freq in FREQUENCY_PRESETS.values():
        lams = factorized_eigenvalues(slack, freq)
        assert abs(float(lams.sum()) - 1.0) < 1e-14
        assert np.abs(lams - factorized_eigenvalues(unit, freq)).max() < 1e-15
        assert abs(holevo_information(slack, freq).value - holevo_information(unit, freq).value) < 1e-13
        _assert_spectrum_matches_dense(slack, freq)
    echoed = attack_from_dict(attack_to_dict(ColumnAttack("x", slack))).column
    assert (echoed.c0, echoed.c1, echoed.c2) == (slack.c0, slack.c1, slack.c2)


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
        for j in range(3):  # every class has three nonzero frequencies
            q = freq.p[:, j]
            g = _gram_blocks(np.array([moduli]), np.sqrt(np.outer(q, q))[None])[0, 0]
            c2, c1, c0 = cubic_coefficients(moduli, q)
            minors = sum(np.linalg.det(g[np.ix_(pair, pair)]) for pair in ((0, 1), (0, 2), (1, 2)))
            assert abs(np.trace(g) + c2) < 1e-12
            assert abs(minors - c1) < 1e-12
            assert abs(np.linalg.det(g) + c0) < 1e-12


def _class_blocks(moduli, freq):
    """Gram blocks of freq's classes, one (N, U, k, k) array per group of freq._class_groups but the equal one.

    A cubic group holds its classes' frequencies q, and its blocks are built
    here from the weights sqrt(q_i q_m); _class_spectra builds none.
    """
    return [
        _gram_blocks(moduli, np.sqrt(group[:, :, None] * group[:, None, :]) if solver == "cubic" else group)
        for solver, group in freq._class_groups
        if solver != "equal"
    ]


def _layout(freq):
    """(solver, number of distinct classes) of each group of freq._class_groups, in order."""
    return [(solver, len(group)) for solver, group in freq._class_groups]


def _block_dtypes(moduli, freq):
    return {blocks.dtype.type for blocks in _class_blocks(moduli, freq)}


def test_class_blocks_are_real_exactly_when_every_row_has_t1_equal_t2():
    tiered = FREQUENCY_PRESETS["tiered"]
    d = np.linspace(0.0, 2.0 / 3.0, 5)
    symmetric = np.column_stack((1.0 - d, d / 2.0, d / 2.0))
    general = np.array([[0.5, 0.3, 0.2]])
    assert _block_dtypes(symmetric, tiered) == {np.float64}
    (empty,) = _class_blocks(np.empty((0, 3)), tiered)
    assert empty.shape == (0, 1, 3, 3) and empty.dtype == np.float64
    assert _block_dtypes(general, tiered) == {np.complex128}
    assert _block_dtypes(np.vstack((symmetric, general)), tiered) == {np.complex128}
    assert _class_blocks(symmetric, FREQUENCY_PRESETS["uniform"]) == []  # its one class is equal: no block


@pytest.mark.parametrize("name", sorted(FREQUENCY_PRESETS))
def test_real_symmetric_curve_matches_the_hermitian_route(monkeypatch, name):
    freq = FREQUENCY_PRESETS[name]
    grid = np.linspace(0.0, 2.0 / 3.0, 801)
    real = np.array(info_curve(freq, grid))
    monkeypatch.setattr(information, "_GRAM_COSINES", information._GRAM_PHASES)
    rows = np.array([[0.5, 0.25, 0.25]])
    # uniform and tiered build no block, so peaked's blocks show that the patch took
    assert _block_dtypes(rows, freq) | _block_dtypes(rows, FREQUENCY_PRESETS["peaked"]) == {np.complex128}
    hermitian = np.array(info_curve(freq, grid))
    assert np.array_equal(real[:, 0], hermitian[:, 0])
    assert np.abs(real[:, 1] - hermitian[:, 1]).max() < 1e-14


def test_column_phases_do_not_matter_on_the_real_route(monkeypatch):
    # Equal moduli on c1 and c2 but different phases: the blocks are real,
    # and the spectrum is still that of the dense operator.
    c1 = math.sqrt(0.2) * complex(math.cos(0.7), math.sin(0.7))
    col = AttackColumn(math.sqrt(0.6), c1, c1.conjugate())
    moduli = col.moduli_squared()
    assert moduli[1] == moduli[2]
    dtypes = [_block_dtypes(np.array([moduli]), freq) for freq in FREQUENCY_PRESETS.values()]
    assert set().union(*dtypes) == {np.float64}  # uniform builds no block; every other preset's blocks are real
    for freq in FREQUENCY_PRESETS.values():
        _assert_spectrum_matches_dense(col, freq)
    real = [holevo_information(col, freq).value for freq in FREQUENCY_PRESETS.values()]
    monkeypatch.setattr(information, "_GRAM_COSINES", information._GRAM_PHASES)
    hermitian = [holevo_information(col, freq).value for freq in FREQUENCY_PRESETS.values()]
    assert np.abs(np.subtract(real, hermitian)).max() < 1e-14


def test_spectrum_depends_only_on_each_class_frequency_multiset():
    # Relabeling a class's phase indices is a shift, a reflection or both:
    # the block is conjugated by a permutation or complex-conjugated, so the
    # spectrum stays, whatever the column and whichever class is relabeled.
    relabelings = list(itertools.permutations(range(3)))
    rng = np.random.default_rng(2718)
    columns = [_random_column(rng) for _ in range(3)] + [symmetric_column(0.0), symmetric_column(2.0 / 3.0)]
    repeated = rng.random(3)
    tables = [rng.random((3, 3)) for _ in range(2)]
    tables.append(np.column_stack((repeated, repeated, np.zeros(3))))  # two equal classes, one empty
    for base in tables:
        base = base / base.sum()
        freq = FrequencyTable(base)
        want = [holevo_information(col, freq).value for col in columns]
        for n, relabel in enumerate(itertools.product(relabelings, repeat=3)):
            p = np.column_stack([base[list(sigma), j] for j, sigma in enumerate(relabel)])
            table = FrequencyTable(p[:, list(relabelings[n % 6])])
            for col, value in zip(columns, want):
                assert abs(holevo_information(col, table).value - value) < 1e-14
                lam_dense = np.sort(np.linalg.eigvalsh(assemble_rho(col, table).m))[::-1]
                assert np.abs(factorized_eigenvalues(col, table) - lam_dense).max() < 1e-10


def _symmetric_moduli(d):
    return np.column_stack((1.0 - d, d / 2.0, d / 2.0))


def _all_class_curve(freq, moduli):
    """Holevo bound of each row of moduli from all three 3x3 class blocks built straight from freq.p: the reference."""
    lag = np.subtract.outer(np.arange(3), np.arange(3)).T % 3  # lag[i, k] = (k - i) % 3
    circulant = np.einsum("nl,lik->nik", moduli, np.exp(2j * np.pi / 3.0 * np.multiply.outer(np.arange(3), lag)))
    scale = np.sqrt(np.einsum("ij,kj->jik", freq.p, freq.p))
    lams = np.maximum(np.linalg.eigvalsh(circulant[:, None] * scale).reshape(-1, 9), 0.0)
    logs = np.log(lams, out=np.zeros(lams.shape), where=lams > 0.0)
    return -(lams * logs).sum(axis=1) / math.log(3.0)


def test_presets_keep_one_block_per_distinct_nonempty_class():
    layout = {name: _layout(freq) for name, freq in FREQUENCY_PRESETS.items()}
    want = {
        "uniform": [("equal", 1)],
        "tiered": [("cubic", 1)],
        "sparse": [(1, 1), (2, 2)],
        "peaked": [(2, 1)],
        "two-bigram": [(1, 2)],
    }
    assert layout == want
    assert FREQUENCY_PRESETS["uniform"]._class_groups[0][1].tolist() == [[3.0 / 9.0] * 3]
    assert FREQUENCY_PRESETS["tiered"]._class_groups[0][1].tolist() == [[1 / 6, 1 / 9, 1 / 18]]  # its frequencies


@pytest.mark.parametrize("name", sorted(FREQUENCY_PRESETS))
def test_distinct_class_curve_matches_all_three_blocks(name):
    freq = FREQUENCY_PRESETS[name]
    grid = np.linspace(0.0, 2.0 / 3.0, 801)
    got = np.array([v for _, v in info_curve(freq, grid)])
    assert np.abs(got - _all_class_curve(freq, _symmetric_moduli(grid))).max() < 1e-14


def _zero_pattern_tables():
    """Seeded tables, one per way of giving each of the three classes 0-3 nonzero frequencies.

    Every other table repeats its first class, reordered, as its second, and
    some of the zeros are -0.0; the sparse preset adds a class with a zero in
    the middle.
    """
    rng = np.random.default_rng(2028)
    tables = [FREQUENCY_PRESETS["sparse"].p.copy()]
    for n, sizes in enumerate(itertools.product(range(4), repeat=3)):
        if not any(sizes):
            continue
        p = np.zeros((3, 3))
        for j, k in enumerate(sizes):
            p[rng.choice(3, size=k, replace=False), j] = 0.05 + rng.random(k)
        if n % 2:
            p[:, 1] = p[rng.permutation(3), 0]
        p[(p == 0.0) & (rng.random((3, 3)) < 0.5)] = -0.0
        tables.append(p)
    return [FrequencyTable(p / p.sum()) for p in tables]


def test_zero_pattern_tables_cover_every_group_pattern_and_signed_zero():
    tables = _zero_pattern_tables()
    patterns = {tuple(solver for solver, _ in freq._class_groups) for freq in tables}
    assert patterns == {(1,), (2,), ("cubic",), (1, 2), (1, "cubic"), (2, "cubic"), (1, 2, "cubic")}
    assert any(math.copysign(1.0, x) < 0 for freq in tables for x in freq.p.ravel())
    assert any((freq._class_counts > 1).any() for freq in tables)


def test_zero_patterns_match_all_three_blocks_and_the_dense_spectrum():
    rng = np.random.default_rng(9001)
    columns = [symmetric_column(d) for d in (0.0, 0.2, 0.5, 2.0 / 3.0)]
    columns += [_random_column(rng) for _ in range(4)]
    grid = np.linspace(0.0, 2.0 / 3.0, 41)
    for freq in _zero_pattern_tables():
        want = _all_class_curve(freq, np.array([col.moduli_squared() for col in columns]))
        for col, value in zip(columns, want):
            assert abs(holevo_information(col, freq).value - value) < 1e-14
            lam_dense = np.sort(np.linalg.eigvalsh(assemble_rho(col, freq).m))[::-1]
            assert np.abs(factorized_eigenvalues(col, freq) - lam_dense).max() < 1e-10
        curve = np.array([v for _, v in info_curve(freq, grid)])
        assert np.abs(curve - _all_class_curve(freq, _symmetric_moduli(grid))).max() < 1e-14


def test_reduced_blocks_carry_the_paper_cubic():
    # A class with k nonzero frequencies q has the cubic lambda^(3 - k)
    # times its k x k block's characteristic polynomial; the block's
    # diagonal is q, as the squared moduli sum to one.
    rng = np.random.default_rng(1994)
    for freq in _zero_pattern_tables():
        moduli = _random_column(rng).moduli_squared()
        for group in _class_blocks(np.array([moduli]), freq):
            for g in group[0]:
                zeros = np.zeros(3 - len(g))
                want = cubic_coefficients(moduli, np.r_[g.diagonal().real, zeros])
                assert np.abs(np.r_[np.poly(g).real, zeros][1:] - want).max() < 1e-12


def _equal_class_tables():
    """Seeded tables in which a class with three equal frequencies sits beside other classes.

    Beside it stand a class of three distinct frequencies, a class with a
    -0.0 or 0.0 among its frequencies, a second equal class with another
    frequency, or the same equal class again, so that it stands for two
    classes.
    """
    rng = np.random.default_rng(3232)
    tables = []
    for _ in range(3):
        q, r = 0.05 + rng.random(2)
        equal, other_equal, general = [q] * 3, [r] * 3, list(0.05 + rng.random(3))
        pair, single = [0.05 + rng.random(), -0.0, 0.05 + rng.random()], [0.0, 0.05 + rng.random(), -0.0]
        layouts = (
            (equal, general, pair),
            (general, single, equal),
            (equal, equal, general),
            (pair, equal, equal),
            (equal, other_equal, single),
            (general, equal, list(0.05 + rng.random(3))),
        )
        tables += [np.column_stack(layout) for layout in layouts]
    return [FrequencyTable(p / p.sum()) for p in tables]


def test_equal_class_tables_cover_their_layouts():
    tables = _equal_class_tables()
    kinds = [[solver for solver, _ in freq._class_groups] for freq in tables]
    assert all(kind[-1] == "equal" and kind.count("equal") == 1 for kind in kinds)
    assert any("cubic" in kind for kind in kinds)  # an equal class beside a class of three distinct frequencies
    for freq in tables:
        equal = freq._class_groups[-1][1]
        columns = [freq.p[:, j] for j in range(3) if (freq.p[:, j] == freq.p[0, j]).all()]
        assert {tuple(row) for row in equal.tolist()} == {(3.0 * p[0],) * 3 for p in columns}
    # the equal group comes last, so its counts are the last ones
    assert any((freq._class_counts[-len(freq._class_groups[-1][1]) :] == 2).any() for freq in tables)
    assert any(len(freq._class_groups[-1][1]) == 2 for freq in tables)  # two equal classes with different q
    assert any(len(freq._class_groups) > 1 for freq in tables)
    assert any(math.copysign(1.0, x) < 0 for freq in tables for x in freq.p.ravel())


def test_equal_frequency_classes_match_all_three_blocks_and_the_dense_spectrum():
    rng = np.random.default_rng(4242)
    columns = [symmetric_column(d) for d in (0.0, 0.2, 0.5, 2.0 / 3.0)]
    columns += [_random_column(rng) for _ in range(8)]
    grid = np.linspace(0.0, 2.0 / 3.0, 41)
    for freq in _equal_class_tables():
        want = _all_class_curve(freq, np.array([col.moduli_squared() for col in columns]))
        for col, value in zip(columns, want):
            assert abs(holevo_information(col, freq).value - value) < 1e-14
            lam_dense = np.sort(np.linalg.eigvalsh(assemble_rho(col, freq).m))[::-1]
            assert np.abs(factorized_eigenvalues(col, freq) - lam_dense).max() < 1e-10
        curve = np.array([v for _, v in info_curve(freq, grid)])
        assert np.abs(curve - _all_class_curve(freq, _symmetric_moduli(grid))).max() < 1e-14
        assert info_curve(freq, []).shape == (0, 2)
        assert information._class_spectra(np.empty((0, 3)), freq).shape == (0, len(freq._class_counts), 3)


def _exact_uniform_leak(moduli):
    """1 + H(t) in trits for squared moduli t, worked in 50-digit decimals and rounded once."""
    with decimal.localcontext() as context:
        context.prec = 50
        t = [decimal.Decimal(float(x)) for x in moduli]
        return float(1 - sum(x * x.ln() for x in t if x > 0) / decimal.Decimal(3).ln())


def test_uniform_source_leaks_one_trit_plus_the_column_entropy():
    # Every class block of the uniform source is circulant, with eigenvalues
    # t_l / 3, so the bound is 1 + H(t) and the curve 1 + H3(d). The
    # closed form meets 1e-15; eigvalsh missed by up to 3.6e-15.
    uniform = FREQUENCY_PRESETS["uniform"]
    rng = np.random.default_rng(1910)
    for col in [_random_column(rng) for _ in range(300)]:
        assert abs(holevo_information(col, uniform).value - _exact_uniform_leak(col.moduli_squared())) <= 1e-15
    grid = np.linspace(0.0, 2.0 / 3.0, 801)
    want = [_exact_uniform_leak(t) for t in _symmetric_moduli(grid)]
    assert np.abs(np.array([v for _, v in info_curve(uniform, grid)]) - want).max() <= 1e-15


def _exact_class_entropy(moduli, q):
    """-sum lambda ln(lambda) over the roots of the class cubic for squared moduli t and frequencies q, in nats.

    The cubic is worked in 60-digit decimals from the floats as given, and
    each root is bisected between the cubic's critical points.
    """
    with decimal.localcontext() as context:
        context.prec = 60
        t, p = ([decimal.Decimal(float(x)) for x in v] for v in (moduli, q))
        c2 = -(p[0] + p[1] + p[2])
        c1 = 3 * (t[0] * t[1] + t[0] * t[2] + t[1] * t[2]) * (p[0] * p[1] + p[0] * p[2] + p[1] * p[2])
        c0 = -27 * t[0] * t[1] * t[2] * p[0] * p[1] * p[2]
        cubic = lambda x: ((x + c2) * x + c1) * x + c0
        half = (c2 * c2 - 3 * c1).sqrt()
        edges = [decimal.Decimal(-1), (-c2 - half) / 3, (-c2 + half) / 3, 1 - c2]
        entropy = decimal.Decimal(0)
        for lo, hi in zip(edges, edges[1:]):
            below = cubic(lo) > 0
            if below == (cubic(hi) > 0):  # a double root, at the critical point
                root = lo if abs(cubic(lo)) < abs(cubic(hi)) else hi
            else:
                for _ in range(220):  # 2^-220 < 1e-66
                    mid = (lo + hi) / 2
                    lo, hi = (mid, hi) if (cubic(mid) > 0) == below else (lo, mid)
                root = (lo + hi) / 2
            entropy -= root * root.ln() if root > 0 else 0
        return entropy


def test_tiered_curve_meets_the_60_digit_class_cubic():
    # tiered's three classes hold the frequencies 1/6, 1/9 and 1/18 in some
    # order, so its bound is three times its one class's root entropy. The
    # closed form is 4.4e-16 off at these points (6.7e-16 over all 801);
    # eigvalsh on the Gram blocks was 2.2e-15 off, at d = 0.
    tiered = FREQUENCY_PRESETS["tiered"]
    assert _layout(tiered) == [("cubic", 1)] and tiered._class_counts.tolist() == [3]
    grid = np.linspace(0.0, 2.0 / 3.0, 801)[::20]
    q = tiered.p[:, 0]
    want = [float(3 * _exact_class_entropy(t, q) / decimal.Decimal(3).ln()) for t in _symmetric_moduli(grid)]
    assert len(want) == 41
    assert np.abs(info_curve(tiered, grid)[:, 1] - want).max() <= 2e-15


def _dense_spectra(moduli, freq):
    """Ascending eigenvalues of the 9x9 operator that assemble_rho builds, for real columns of squared moduli moduli."""
    probes = (CODING_UNITARIES * np.sqrt(moduli)[:, None, None, :]).transpose(0, 1, 3, 2).reshape(-1, 9, 9)
    return np.linalg.eigvalsh(np.einsum("nki,k,nkj->nij", probes, freq.p.reshape(9), probes.conj()))


def _factorized_spectra(moduli, freq):
    """Ascending nine eigenvalues of each row of moduli from _class_spectra, each class counted, zeros padding."""
    lams = np.repeat(information._class_spectra(moduli, freq), freq._class_counts, axis=1).reshape(len(moduli), -1)
    return np.sort(np.column_stack((lams, np.zeros((len(moduli), 9 - lams.shape[1])))), axis=1)


def _separation(q):
    """The least pairwise gap |q_i - q_j| / max(q_i, q_j) of three frequencies."""
    return min(abs(x - y) / max(x, y) for x, y in itertools.combinations(q, 2))


def _at_gap(q0, gap):
    """The largest float q1 < q0 with (q0 - q1) / q0 >= gap: a pair at the edge of that gap."""
    q1 = q0 * (1.0 - gap)
    while (q0 - q1) / q0 < gap:
        q1 = np.nextafter(q1, 0.0)
    while (q0 - np.nextafter(q1, q0)) / q0 >= gap:
        q1 = np.nextafter(q1, q0)
    return float(q1)


def _lone_class_table(q):
    """A table whose class 0 holds the frequencies q exactly; the rest of the weight is one bigram of class 1."""
    p = np.zeros((3, 3))
    p[:, 0] = q
    p[0, 1] = 1.0 - sum(q)
    freq = FrequencyTable(p)
    assert freq.p[:, 0].tolist() == list(q)
    return freq


def _edge_moduli(rng):
    """Squared moduli at and near flat, the pure shifts, rows with one zero, the 801-point symmetric grid and draws."""
    flat = np.full(3, 1.0 / 3.0)
    rows = [flat]
    for eps in (1e-12, 1e-9, 1e-6):
        v = rng.normal(size=(4, 3))
        v -= v.mean(axis=1, keepdims=True)
        rows += list(flat + eps * v / np.abs(v).max(axis=1, keepdims=True))
    rows += list(np.eye(3))  # a double zero
    for zero in range(3):
        rows += list(np.insert(rng.dirichlet(np.ones(2), size=3), zero, 0.0, axis=1))
    rows += list(_symmetric_moduli(np.linspace(0.0, 2.0 / 3.0, 801)))
    draws = rng.dirichlet(np.ones(3), size=100)
    rows += list(draws) + list(draws[:, [0, 2, 1]])  # both orders of t1 and t2
    return np.array(rows)


@pytest.mark.parametrize("scale", [1.0, 1.1])
def test_cubic_classes_match_dense_eigvalsh_at_the_separation_edge(scale):
    # The worst case is three frequencies each a gap apart, at flat moduli,
    # where the block is diag(q): 3.7e-12 at the 1e-2 edge, against 3.2e-10
    # at 1e-3 and 4.9e-8 at 1e-4 in a sweep like this one.
    gap = information._CUBIC_SEPARATION * scale
    moduli = _edge_moduli(np.random.default_rng(3838))
    assert np.abs(moduli.sum(axis=1) - 1.0).max() < 1e-15
    rng = np.random.default_rng(3839)
    for _ in range(4):
        x = 0.25 + 0.05 * rng.random()
        pair = _at_gap(x, gap)
        assert (x - np.nextafter(pair, x)) / x < gap <= (x - pair) / x
        for q in ((x, pair, _at_gap(pair, gap)), (x, pair, 0.3 * x), (x, pair, 0.01 * x), (0.01 * x, x, pair)):
            freq = _lone_class_table(q)
            assert _layout(freq) == [(1, 1), ("cubic", 1)] and gap <= _separation(q)
            lams = information._class_spectra(moduli, freq)
            assert lams.min() >= -1e-10
            assert np.abs(_factorized_spectra(moduli, freq) - _dense_spectra(moduli, freq)).max() < 1e-10, q
    col = _random_column(rng)  # the batched dense reference is assemble_rho's
    want = np.linalg.eigvalsh(assemble_rho(col, freq).m)
    assert np.abs(_dense_spectra(np.array([col.moduli_squared()]), freq)[0] - want).max() < 1e-15


def test_classes_under_the_separation_edge_reach_eigvalsh(monkeypatch):
    # A class one ulp under the 1e-2 edge, a repeat (q, q, r) and a near
    # repeat (q, q, q + 1 ulp) all keep eigvalsh, and match the dense spectrum.
    x = 0.3
    pair = _at_gap(x, information._CUBIC_SEPARATION)
    classes = ((x, np.nextafter(pair, x), 0.1), (x, x, 0.1), (x, x, np.nextafter(x, 1.0)))
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def spy(blocks):
        seen.append(blocks.shape)
        return eigvalsh(blocks)

    monkeypatch.setattr(information.np.linalg, "eigvalsh", spy)
    moduli = _edge_moduli(np.random.default_rng(3840))
    for q in classes:
        freq = _lone_class_table(tuple(float(v) for v in q))
        assert _separation(q) < information._CUBIC_SEPARATION
        assert _layout(freq) == [(1, 1), (3, 1)]
        seen.clear()
        got = _factorized_spectra(moduli, freq)
        assert seen == [(len(moduli), 1, 3, 3)]
        assert np.abs(got - _dense_spectra(moduli, freq)).max() < 1e-10


# A table whose one non-empty class, (0.4, 0.4, 0.2), repeats a frequency: its block goes to eigvalsh.
_REPEATED = FrequencyTable(np.column_stack(([0.4, 0.4, 0.2], [0.0] * 3, [0.0] * 3)))


def test_equal_frequency_classes_never_reach_eigvalsh(monkeypatch):
    seen = []

    def refuse(blocks):
        seen.append(blocks.shape)
        raise RuntimeError("eigvalsh called")

    monkeypatch.setattr(information.np.linalg, "eigvalsh", refuse)
    uniform = FREQUENCY_PRESETS["uniform"]
    info_curve(uniform, np.linspace(0.0, 2.0 / 3.0, 801))
    holevo_information(_random_column(np.random.default_rng(5)), uniform)
    factorized_eigenvalues(symmetric_column(0.3), uniform)
    with pytest.raises(RuntimeError, match="eigvalsh called"):
        info_curve(_REPEATED, [0.1, 0.2])
    assert seen == [(2, 1, 3, 3)]
    mixed = FrequencyTable(np.column_stack(([0.1] * 3, [0.25, 0.25, 0.1], [0.05, 0.03, 0.02])))
    assert _layout(mixed) == [(3, 1), ("cubic", 1), ("equal", 1)]
    assert mixed._class_groups[2][1].tolist() == [[3.0 * 0.1] * 3]
    with pytest.raises(RuntimeError, match="eigvalsh called"):
        info_curve(mixed, [0.1, 0.2, 0.3])
    assert seen[-1] == (3, 1, 3, 3)  # only the class with a repeated frequency


def test_no_preset_reaches_an_eigensolver(monkeypatch):
    # tiered's one class is separated, so its curve, Holevo bounds and
    # spectrum take the cubic; no preset has a class that repeats a frequency.
    def refuse(*args, **kwargs):
        raise RuntimeError("eigensolver called")

    for name in ("eigvalsh", "eigh", "eigvals", "eig"):
        monkeypatch.setattr(information.np.linalg, name, refuse)
    rng = np.random.default_rng(38)
    columns = [_random_column(rng) for _ in range(8)] + [symmetric_column(d) for d in (0.0, 0.3, 2.0 / 3.0)]
    for freq in FREQUENCY_PRESETS.values():
        assert info_curve(freq, np.linspace(0.0, 2.0 / 3.0, 801)).shape == (801, 2)
        for col in columns:
            holevo_information(col, freq)
            factorized_eigenvalues(col, freq)
    with pytest.raises(RuntimeError, match="eigensolver called"):
        info_curve(_REPEATED, [0.1])


def test_only_exactly_equal_frequencies_skip_eigvalsh(monkeypatch):
    # (q, q, r) and (q, q, q + 1 ulp) are not equal classes: both go to
    # eigvalsh, beside the one class (q, q, q) that is.
    q = 0.1
    p = np.column_stack(([q, q, 0.2], [q, q, np.nextafter(q, 1.0)], [q, q, q]))
    freq = FrequencyTable(p)
    assert np.array_equal(freq.p, p)
    assert _layout(freq) == [(3, 2), ("equal", 1)]
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def spy(blocks):
        seen.append(blocks.shape)
        return eigvalsh(blocks)

    monkeypatch.setattr(information.np.linalg, "eigvalsh", spy)
    grid = np.linspace(0.0, 2.0 / 3.0, 801)
    curve = info_curve(freq, grid)
    assert seen == [(801, 2, 3, 3)]
    assert np.abs(curve[:, 1] - _all_class_curve(freq, _symmetric_moduli(grid))).max() < 1e-14
    # At d = 2/3 the squared moduli are flat, the (q, q, r) block is
    # diag(q, q, r) to roundoff and q is a double eigenvalue.
    col = symmetric_column(2.0 / 3.0)
    lams = np.sort(information._class_spectra(np.array([col.moduli_squared()]), freq)[0, 0])
    lam_dense = np.linalg.eigvalsh(assemble_rho(col, freq).m)
    assert np.abs(lam_dense - np.sort(p.ravel())).max() < 1e-10
    assert np.abs(lams - [q, q, 0.2]).max() < 1e-10
    _assert_spectrum_matches_dense(col, freq)


def test_class_spectra_build_blocks_only_for_the_classes_they_solve_from_one(monkeypatch):
    built = []

    def record(moduli, weights):
        blocks = _gram_blocks(moduli, weights)
        built.append((weights, blocks.shape))
        return blocks

    monkeypatch.setattr(information, "_gram_blocks", record)
    grid = np.linspace(0.0, 2.0 / 3.0, 801)
    for name in ("uniform", "tiered"):
        freq = FREQUENCY_PRESETS[name]
        info_curve(freq, grid)
        holevo_information(_random_column(np.random.default_rng(6)), freq)
        factorized_eigenvalues(symmetric_column(0.3), freq)
    # uniform's classes have three equal frequencies, 3q t read off the moduli;
    # tiered's class has three separated ones, its cubic read off the moduli and q
    assert built == []
    info_curve(_REPEATED, grid)
    assert [shape for _, shape in built] == [(801, 1, 3, 3)]
    mixed = FrequencyTable(np.column_stack(([0.1] * 3, [0.25, 0.25, 0.1], [0.05, 0.03, 0.02])))
    built.clear()
    info_curve(mixed, [0.1, 0.2, 0.3])
    ((weights, shape),) = built
    assert shape == (3, 1, 3, 3) and weights is mixed._class_groups[0][1]  # the class with a repeated frequency
    # Every weight group is built whole, once; the cubic and equal groups are never built.
    tables = [FREQUENCY_PRESETS[name] for name in ("sparse", "peaked", "two-bigram")] + _equal_class_tables()
    tables += _zero_pattern_tables() + [_REPEATED, mixed]
    for freq in tables:
        built.clear()
        info_curve(freq, grid)
        want = [group for solver, group in freq._class_groups if solver in (1, 2, 3)]
        assert len(built) == len(want) and all(w is v for (w, _), v in zip(built, want))
        assert all(shape == (801, *w.shape) for w, shape in built)


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


def _pair_spectra(monkeypatch, blocks):
    """_class_spectra's (N, U, 3) rows for an (N, U, 2, 2) stack of Hermitian blocks, one group of U classes."""
    monkeypatch.setattr(information, "_gram_blocks", lambda moduli, weights: blocks)
    counts = np.ones(blocks.shape[1], dtype=int)
    classes = types.SimpleNamespace(_class_groups=((2, np.ones(blocks.shape[1:])),), _class_counts=counts)
    return information._class_spectra(np.zeros((len(blocks), 3)), classes)


def _exact_pair_spectra(blocks):
    """Both eigenvalues of each 2x2 Hermitian block, ascending, worked in 50-digit decimals and rounded once."""
    out = []
    with decimal.localcontext() as context:
        context.prec = 50
        for a, b, e in zip(blocks[..., 0, 0].real.ravel(), blocks[..., 0, 1].ravel(), blocks[..., 1, 1].real.ravel()):
            a, e, re, im = (decimal.Decimal(float(x)) for x in (a, e, b.real, b.imag))
            radius = (((a - e) / 2) ** 2 + re * re + im * im).sqrt()
            out.append((float((a + e) / 2 - radius), float((a + e) / 2 + radius)))
    return np.array(out).reshape(*blocks.shape[:2], 2)


def test_two_by_two_blocks_match_eigvalsh_in_ascending_padded_layout(monkeypatch):
    rng = np.random.default_rng(3030)
    grid = _symmetric_moduli(np.linspace(0.0, 2.0 / 3.0, 801))
    stacks = []
    for name in ("sparse", "peaked"):  # at d = 0 each pair block is rank one
        for rows in (grid, grid[:1], grid[:0]):
            stacks += [w for w in _class_blocks(rows, FREQUENCY_PRESETS[name]) if w.shape[2] == 2]
    general = np.array([_random_column(rng).moduli_squared() for _ in range(40)])
    stacks += [w for freq in _zero_pattern_tables() for w in _class_blocks(general, freq) if w.shape[2] == 2]
    for complex_ in (False, True):
        for rank in (2, 1):
            v = rng.normal(size=(50, 3, 2, rank)) + (1j * rng.normal(size=(50, 3, 2, rank)) if complex_ else 0.0)
            blocks = v @ np.swapaxes(v, -1, -2).conj()
            stacks += [blocks, blocks * 1e-12, blocks * 1e-200, blocks * 1e200]
        stacks.append(np.eye(2) * rng.random((50, 3, 1, 1)) + (0j if complex_ else 0.0))  # a = e, b = 0
    for blocks in stacks:
        got = _pair_spectra(monkeypatch, blocks)
        scale = np.hypot.reduce(np.abs(blocks).reshape(*blocks.shape[:2], 4), axis=2)[..., None]  # Frobenius norm
        assert (np.abs(got[..., :2] - _exact_pair_spectra(blocks)) <= 1e-15 * scale).all()
        # LAPACK's complex Hermitian solver is itself off by up to about 1e-15 of the norm.
        slack = 2e-15 if np.iscomplexobj(blocks) else 1e-15
        assert (np.abs(got[..., :2] - np.linalg.eigvalsh(blocks)) <= slack * scale).all()
        assert (got[..., 0] <= got[..., 1]).all()
        assert (got[..., 2] == 0.0).all()
    assert any(np.iscomplexobj(blocks) for blocks in stacks) and any(not np.iscomplexobj(blocks) for blocks in stacks)


def _masked_entropy(probs):
    """The entropy with numpy's masked log, the reference form."""
    logs = np.log(probs, out=np.zeros(probs.shape), where=probs > 0.0)
    return np.add.reduce(probs * logs, axis=-1) * (-1.0 / math.log(3.0)) + 0.0


def test_entropy_is_bit_identical_to_the_masked_log():
    grid = _symmetric_moduli(np.linspace(0.0, 2.0 / 3.0, 801))
    rng = np.random.default_rng(4141)
    general = np.array([_random_column(rng).moduli_squared() for _ in range(200)])
    tables = [information._class_spectra(grid, freq) for freq in FREQUENCY_PRESETS.values()]
    tables += [np.maximum(lams, 0.0) for lams in tables]
    tables += [information._class_spectra(general, freq) for freq in _zero_pattern_tables()]
    tiny = np.nextafter(0.0, 1.0)
    signed = [[0.0, -0.0, 1.0], [-0.0, 0.5, 0.5], [tiny, 1.0 - tiny, 0.0], [1e-310, -0.0, 0.0], [-1e-17, 1.0, 0.0]]
    tables.append(np.array(signed))
    for lams in tables:
        got, want = information._entropy_trits(lams), _masked_entropy(lams)
        assert got.tobytes() == want.tobytes()
    for source in ([1.0, 0.0, 0.0], [-0.0, 1.0, -0.0], [0.0, 0.0, 1.0]):
        value = information._entropy_trits(np.array(source))
        assert value == 0.0 and math.copysign(1.0, value) == 1.0
