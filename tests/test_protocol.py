"""Full-state simulator: states, attacks, control statistics, runs."""

import json
import math
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from qutrit_pingpong import attack as attack_module, protocol
from qutrit_pingpong.attack import (
    AttackColumn,
    ColumnAttack,
    NoAttack,
    SymmetricAttack,
    attack_to_dict,
    column_z_from_x,
    complete_circulant,
    detection_from_column,
    isometry,
    normalized_column,
    symmetric_column,
)
from qutrit_pingpong.information import FREQUENCY_PRESETS, holevo_information
from qutrit_pingpong.protocol import (
    ANCILLA_DIM,
    CONTROL_BASES,
    TRANSCRIPT_HEADER,
    ProtocolConfig,
    attack_state,
    control_distribution,
    decode_distribution,
    detection_probability,
    load_protocol_config,
    rounds_for_confidence,
    run,
    write_transcript,
    _BLOCK,
    _cdf,
)
from qutrit_pingpong.qutrit import (
    BELL_STATES,
    CODING_UNITARIES,
    NumericalError,
    bell_state,
    coding_unitary,
    control_correlations,
    mub,
)


def test_initial_state_shape_and_support():
    st0 = attack_state(NoAttack(), "branch")
    assert st0.shape == (3, 3, ANCILLA_DIM)
    assert float((np.abs(st0[:, :, 1:]) ** 2).sum()) == 0.0
    diag = [st0[k, k, 0] for k in range(3)]
    assert all(abs(a - 1.0 / math.sqrt(3.0)) < 1e-15 for a in diag)


def _nan_at_origin(v: np.ndarray) -> np.ndarray:
    v = v.copy()
    v[0, 0, 0] = math.nan
    return v


@pytest.mark.parametrize(
    "spoil", [lambda v: (1.0 + 1e-9) * v, _nan_at_origin], ids=["scaled-by-1+1e-9", "holding-a-nan"]
)
def test_run_rejects_an_attack_map_that_breaks_the_norm(spoil, monkeypatch):
    monkeypatch.setattr(protocol, "isometry", lambda spec, ancilla: spoil(isometry(spec, ancilla)))
    attack = SymmetricAttack(0.3)
    for build in (
        lambda: attack_state(attack, "branch"),
        lambda: run(ProtocolConfig(cycles=10, seed=1, attack=attack)),
    ):
        with pytest.raises(ValueError, match="joint state must be normalized"):
            build()


_READERS = {
    "control_distribution": lambda amps: control_distribution(amps, "z"),
    "detection_probability": lambda amps: detection_probability(amps, "x"),
    "decode_distribution": lambda amps: decode_distribution(amps, (0, 0)),
}


@pytest.mark.parametrize("reader", sorted(_READERS))
def test_amplitude_readers_apply_the_attack_state_check(reader):
    # Unchecked, the zero state reads as a certain detection and a 9x9 array of
    # twos as nine probabilities summing to 324.
    read = _READERS[reader]
    good = attack_state(SymmetricAttack(0.3), "branch")
    read(good)
    read(good.copy())  # a writable copy passes the same check
    for amps, message in (
        (np.zeros((3, 3, ANCILLA_DIM)), "joint state must be normalized, squared norm 0.0"),
        ((1.0 + 1e-9) * good, "joint state must be normalized"),
        (_nan_at_origin(good), "joint state must be normalized, squared norm nan"),
        (np.where(np.arange(ANCILLA_DIM) == 0, math.inf, good), "joint state must be normalized, squared norm"),
        (np.zeros(81), r"joint state must have shape \(3, 3, 9\), got \(81,\)"),
        (good.reshape(9, 9), r"joint state must have shape \(3, 3, 9\), got \(9, 9\)"),
        (2 * np.ones((9, 9)), r"joint state must have shape \(3, 3, 9\), got \(9, 9\)"),
    ):
        with pytest.raises(ValueError, match=message):
            read(amps)


def test_run_builds_its_born_table_from_one_attack_state_call(monkeypatch):
    # The recorder hands run the amplitudes of another attack, so a table that
    # matches them was built from the very array attack_state returned.
    calls, sampled = [], []
    substitute = attack_state(SymmetricAttack(0.5), "branch")

    def recording_attack_state(attack, ancilla):
        calls.append((attack, ancilla))
        return substitute

    def recording_cdf(probs):
        sampled.append(probs.copy())
        return _cdf(probs)

    monkeypatch.setattr(protocol, "attack_state", recording_attack_state)
    monkeypatch.setattr(protocol, "_cdf", recording_cdf)
    cfg = ProtocolConfig(cycles=20, seed=5, attack=SymmetricAttack(0.1), q=0.3, ancilla="none")
    report = run(cfg)
    assert calls == [(cfg.attack, cfg.ancilla)]
    assert np.array_equal(sampled.pop(), _two_map_outcome_distribution(cfg, substitute))
    for basis in CONTROL_BASES:
        assert report.basis_stats[basis].predicted == detection_probability(substitute, basis)


@pytest.mark.parametrize(
    "column",
    [(1, 0, 0), np.array([1, 0, 0]), None, {"c0": 1, "c1": 0, "c2": 0}],
    ids=["tuple", "array", "none", "dict"],
)
def test_a_column_attack_takes_only_an_attack_column(column):
    message = f"column attack needs an AttackColumn, got {column!r}"
    for build in (
        lambda: ColumnAttack("z", column),
        lambda: run(ProtocolConfig(cycles=1, seed=0, attack=ColumnAttack("z", column))),
        lambda: attack_to_dict(ColumnAttack("z", column)),
    ):
        with pytest.raises(ValueError) as excinfo:
            build()
        assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "array",
    [
        protocol._OUTCOME_MAP,
        protocol._FORBIDDEN,
        protocol._ROW_TAILS,
        *(operand for pair in protocol._ATTACK_OPERANDS.values() for operand in pair),
        protocol._FORBIDDEN_COUNTS,
        protocol._HONEST_CODES,
        protocol._TALLIES,
        *(getattr(attack_module, name) for name in ("_CIRCULANT_FLAT", "_SLOT_ZERO", "_SLOT_ZERO_DIAGONAL")),
    ],
)
def test_import_time_tables_are_read_only(array):
    assert not array.flags.writeable
    with pytest.raises(ValueError):
        array[0] = array[0]


def _assert_normalized(amps: np.ndarray) -> None:
    assert abs(np.vdot(amps, amps).real - 1.0) <= 1e-10


def apply_travel_unitary(amps: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Apply the 3x3 unitary u to the travelling qutrit of (3, 3, 9) amplitudes, checking the result's norm."""
    out = np.einsum("ts,hsn->htn", u, amps)
    _assert_normalized(out)
    return out


def test_travel_unitary_preserves_norm_and_decode():
    st1 = apply_travel_unitary(attack_state(NoAttack(), "branch"), coding_unitary(2, 1))
    probs = decode_distribution(st1, (0, 0))
    # encoding on top of an already-coded state lands on the composed bigram
    assert probs.argmax() == 3 * 2 + 1
    assert abs(probs.max() - 1.0) < 1e-12


def test_uncoded_decode_is_point_mass():
    st0 = attack_state(NoAttack(), "branch")
    for i in range(3):
        for j in range(3):
            probs = decode_distribution(st0, (i, j))
            assert abs(probs[3 * i + j] - 1.0) < 1e-12


@pytest.mark.parametrize("bigram", [(0,), (0, 1, 2), 5], ids=["one-index", "three-indices", "int"])
def test_decode_distribution_rejects_a_bigram_that_is_not_a_pair(bigram):
    with pytest.raises(ValueError) as excinfo:
        decode_distribution(attack_state(NoAttack(), "branch"), bigram)
    assert str(excinfo.value) == f"bigram must be a pair (i, j), got {bigram!r}"


def _branch_amps(e: np.ndarray, basis: str) -> np.ndarray:
    """The entangling-probe map on the ready state, kept as the reference for attack_state's "branch" mode.

    e[m, n] rewrites basis vector n into vector m, and the probe records the
    branch in pointer slot 3n + m.
    """
    m = mub(basis)
    ready = attack_state(NoAttack(), "branch")[:, :, 0] @ m.conj()
    return np.einsum("tm,mn,hn->htnm", m, e, ready).reshape(3, 3, ANCILLA_DIM)


def _unit_circulant_of(col: AttackColumn) -> np.ndarray:
    """The circulant of the column at unit norm: each stored entry over the square root of its squared_norm()."""
    values = np.array([col.c0, col.c1, col.c2], dtype=complex) / math.sqrt(col.squared_norm())
    e = np.empty((3, 3), dtype=complex)
    for n in range(3):
        for m in range(3):
            e[m, n] = values[(m - n) % 3]
    return e


def _random_columns(count: int, seed: int) -> list[AttackColumn]:
    """Random columns, every other one off unit squared norm by up to 8e-10 (AttackColumn allows 1e-9)."""
    rng = np.random.default_rng(seed)
    cols = []
    for k in range(count):
        unit = normalized_column(*(rng.normal(size=3) + 1j * rng.normal(size=3)))
        scale = math.sqrt(1.0 + rng.uniform(-8e-10, 8e-10)) if k % 2 else 1.0
        cols.append(AttackColumn(*(scale * unit.as_array()).tolist()))
    return cols


@pytest.mark.parametrize("basis", ["z", "x", "v", "t"])
def test_branch_attack_state_is_bit_identical_to_the_reference_map(basis):
    for col in _random_columns(20, seed=1 + "zxvt".index(basis)):
        want = _branch_amps(_unit_circulant_of(col), basis)
        assert np.array_equal(attack_state(ColumnAttack(basis, col), "branch"), want)
    for d in (0.0, 0.2, 0.5, 2.0 / 3.0):
        want = _branch_amps(_unit_circulant_of(symmetric_column(d)), "z")
        assert np.array_equal(attack_state(SymmetricAttack(d), "branch"), want)


def _none_amps(col: AttackColumn, basis: str) -> np.ndarray:
    """The circulant completion applied in travel coordinates to the ready state, kept as the reference for
    attack_state's "none" mode."""
    m = mub(basis)
    op = complete_circulant(col, representation=basis)
    return apply_travel_unitary(attack_state(NoAttack(), "branch"), m @ op.m @ m.conj().T)


@pytest.mark.parametrize("basis", ["z", "x", "v", "t"])
def test_none_attack_state_matches_the_reference_map(basis):
    feasible = 0
    for col in _random_columns(80, seed=11 + "zxvt".index(basis)):
        try:
            want = _none_amps(col, basis)
        except NumericalError:
            continue
        feasible += 1
        assert np.abs(attack_state(ColumnAttack(basis, col), "none") - want).max() <= 1e-15
    assert feasible >= 20


_COLUMN = AttackColumn(math.sqrt(0.8), math.sqrt(0.1), math.sqrt(0.1))


@pytest.mark.parametrize("ancilla", ["branch", "none"])
@pytest.mark.parametrize(
    "attack",
    [NoAttack(), SymmetricAttack(0.3), *(ColumnAttack(basis, _COLUMN) for basis in "zxvt")],
    ids=["none", "symmetric", "column-z", "column-x", "column-v", "column-t"],
)
def test_branch_attack_is_an_isometry(attack, ancilla):
    v = isometry(attack, ancilla).reshape(3 * ANCILLA_DIM, 3)
    assert np.abs(v.conj().T @ v - np.eye(3)).max() < 1e-12
    out = attack_state(attack, ancilla)
    assert abs(float((np.abs(out) ** 2).sum()) - 1.0) < 1e-12
    assert not out.flags.writeable
    with pytest.raises(ValueError):
        out[0, 0, 0] = 0.0


@pytest.mark.parametrize("slack", [2e-10, 5e-10, 9e-10])
def test_closed_form_detections_read_the_column_at_unit_norm(slack):
    # AttackColumn accepts a squared norm up to 1e-9 from 1; the closed forms
    # must read such a column at unit norm, as the simulator does.
    scale = math.sqrt(1.0 + slack)
    col = AttackColumn(scale * math.sqrt(0.6), scale * 0.5, 1j * scale * math.sqrt(0.15))
    attack = ColumnAttack("x", col)
    for ancilla in ("branch", "none"):
        assert abs(detection_from_column(col) - detection_probability(attack_state(attack, ancilla), "x")) <= 1e-12
        report = run(ProtocolConfig(cycles=1, seed=0, attack=attack, ancilla=ancilla))
        assert abs(detection_from_column(col) - report.basis_stats["x"].predicted) <= 1e-12
    assert abs(sum(column_z_from_x(col)) - 1.0) <= 1e-15


def test_honest_control_tables():
    st0 = attack_state(NoAttack(), "branch")
    for basis in ("z", "x", "v", "t"):
        joint = control_distribution(st0, basis)
        assert detection_probability(st0, basis) < 1e-14
        for pair in control_correlations(basis).allowed_pairs():
            assert abs(joint[pair] - 1.0 / 3.0) < 1e-12


def test_control_distribution_rejects_unknown_basis():
    with pytest.raises(ValueError):
        control_distribution(attack_state(NoAttack(), "branch"), "w")


@pytest.mark.parametrize("d", [0.2, 0.5, 2.0 / 3.0])
def test_branch_attack_detection_rates(d):
    state = attack_state(SymmetricAttack(d), "branch")
    assert abs(detection_probability(state, "z") - d) < 1e-12
    for basis in ("x", "v", "t"):
        assert abs(detection_probability(state, basis) - 2.0 / 3.0) < 1e-12


def test_unitary_attack_is_invisible_in_conjugate_basis():
    state = attack_state(SymmetricAttack(0.5), "none")
    assert abs(detection_probability(state, "z") - 0.5) < 1e-12
    assert detection_probability(state, "x") < 1e-12


def test_phase_basis_attack_rates():
    col = AttackColumn(math.sqrt(0.6), math.sqrt(0.25), math.sqrt(0.15))
    state = attack_state(ColumnAttack("x", col), "branch")
    assert abs(detection_probability(state, "x") - 0.4) < 1e-12
    assert abs(detection_probability(state, "z") - 2.0 / 3.0) < 1e-12
    state = attack_state(ColumnAttack("x", col), "none")
    assert abs(detection_probability(state, "x") - 0.4) < 1e-12
    assert detection_probability(state, "z") < 1e-12


def test_circulant_x_columns_are_dephased_in_every_foreign_basis():
    # A circulant-completable x-basis column is unit eigenphases sent through
    # mub("x"). Its z relation always gives 2/3; the branch probe shows 2/3 in
    # z, v and t, while the unitary completion never fires in z.
    rng = np.random.default_rng(20240601)
    for _ in range(12):
        eig = np.exp(1j * np.append(0.0, rng.uniform(-math.pi, math.pi, size=2)))
        attack = ColumnAttack("x", AttackColumn(*(mub("x") @ eig / math.sqrt(3.0)).tolist()))
        assert abs(1.0 - column_z_from_x(attack.column)[0] - 2.0 / 3.0) < 1e-12
        branch = attack_state(attack, "branch")
        for basis in ("z", "v", "t"):
            assert abs(detection_probability(branch, basis) - 2.0 / 3.0) < 1e-12
        assert detection_probability(attack_state(attack, "none"), "z") < 1e-12


@pytest.mark.parametrize("basis", ["z", "x"])
@pytest.mark.parametrize("excess", [1e-12, 1e-11, 4e-11])
def test_runs_every_completion_that_complete_circulant_accepts(basis, excess):
    # Past d = 8/9 the chain links of (sqrt(1-d), sqrt(d/2), sqrt(d/2)) no
    # longer close; a miss within 1e-10 is still an accepted completion.
    d = 8.0 / 9.0 + excess
    col = AttackColumn(math.sqrt(1.0 - d), math.sqrt(d / 2.0), math.sqrt(d / 2.0))
    complete_circulant(col, representation=basis)
    report = run(ProtocolConfig(cycles=1000, seed=8, attack=ColumnAttack(basis, col), ancilla="none"))
    assert report.cycles == 1000
    assert abs(report.basis_stats[basis].predicted - (1.0 - abs(col.c0) ** 2)) < 1e-12


def test_swap_unitary_detection_in_computational_basis():
    # exchanging |0> and |1> on the travel qutrit disturbs two of the three
    # equally weighted control draws
    swap = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    state = apply_travel_unitary(attack_state(NoAttack(), "branch"), swap)
    assert abs(detection_probability(state, "z") - 2.0 / 3.0) < 1e-12


def test_no_attack_state_is_initial():
    ready = np.multiply.outer(bell_state(0, 0), np.eye(ANCILLA_DIM)[0])
    for ancilla in ("branch", "none"):
        assert np.abs(attack_state(NoAttack(), ancilla) - ready).max() == 0.0


def test_attack_state_rejects_an_unknown_ancilla_mode():
    message = "^ancilla mode must be 'branch' or 'none', got 'brnach'$"
    with pytest.raises(ValueError, match=message):
        attack_state(SymmetricAttack(0.5), "brnach")
    with pytest.raises(ValueError, match=message):
        ProtocolConfig(cycles=1, seed=0, ancilla="brnach")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"cycles": 0, "seed": 1},
        {"cycles": 10, "seed": -1},
        {"cycles": 10, "seed": 1, "q": 1.5},
        {"cycles": 10, "seed": 1, "basis_weights": (0.3, 0.3)},
        {"cycles": 10, "seed": 1, "basis_weights": (-0.5, 1.5)},
        {"cycles": 10, "seed": 1, "ancilla": "probe"},
        {"cycles": True, "seed": 1},
        {"cycles": 1, "seed": 0, "basis_weights": 5},
        {"cycles": 1, "seed": 0, "basis_weights": None},
        {"cycles": 1, "seed": 0, "attack": symmetric_column(0.2)},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        ProtocolConfig(**kwargs)


def test_config_round_trip():
    cfg = ProtocolConfig(
        cycles=500,
        seed=9,
        freq=FREQUENCY_PRESETS["sparse"],
        attack=SymmetricAttack(0.25),
        q=0.4,
        basis_weights=(0.7, 0.3),
        ancilla="none",
    )
    again = ProtocolConfig.from_dict(cfg.to_dict())
    assert again.cycles == cfg.cycles
    assert again.q == cfg.q
    assert again.basis_weights == cfg.basis_weights
    assert again.ancilla == "none"
    assert np.abs(again.freq.p - cfg.freq.p).max() < 1e-15
    assert isinstance(again.attack, SymmetricAttack)


@pytest.mark.parametrize("d_z", [0, 0.3])
def test_symmetric_config_round_trips_with_a_float_d_z(d_z):
    cfg = ProtocolConfig(cycles=1, seed=0, attack=SymmetricAttack(d_z))
    assert type(cfg.to_dict()["attack"]["d_z"]) is float
    assert ProtocolConfig.from_dict(cfg.to_dict()) == cfg


def test_equal_configs_compare_equal_and_hash_alike():
    a, b = ProtocolConfig(cycles=1, seed=0), ProtocolConfig(cycles=1, seed=0)
    assert a == b
    assert hash(a) == hash(b)
    assert a != ProtocolConfig(cycles=1, seed=0, freq=FREQUENCY_PRESETS["tiered"])


def test_config_from_dict_defaults_and_presets():
    cfg = ProtocolConfig.from_dict({"cycles": 10, "seed": 3, "freq": {"preset": "peaked"}})
    assert isinstance(cfg.attack, NoAttack)
    assert cfg.q == 0.25
    assert np.abs(cfg.freq.p - FREQUENCY_PRESETS["peaked"].p).max() == 0.0


@pytest.mark.parametrize(
    "payload",
    [
        {"seed": 1},
        {"cycles": 10},
        {"cycles": 10, "seed": 1, "surprise": True},
        {"cycles": 10, "seed": 1, "freq": {"preset": "nope"}},
        {"cycles": 10, "seed": 1, "freq": {"p": [[1, 0], [0, 0]]}},
        {"cycles": 10, "seed": 1, "basis_weights": [1.0]},
        {"cycles": 10, "seed": 1, "freq": {"p": [[0.5, 0.5, 0.5]] * 3}},
        {"cycles": 10, "seed": 1, "q": True},
        {"cycles": 10, "seed": 1, "basis_weights": [True, False]},
        {"cycles": 10, "seed": 1, "freq": {"preset": ["uniform"]}},
        {
            "cycles": 10,
            "seed": 1,
            "attack": {"type": "column", "basis": "z", "values": [[1e200, 0], [0, 0], [0, 0]]},
        },
        # an integer literal too large for a float, in each numeric field
        {"cycles": 10, "seed": 1, "q": 10**400},
        {"cycles": 10, "seed": 1, "basis_weights": [10**400, 0]},
        {"cycles": 10, "seed": 1, "attack": {"type": "symmetric", "d_z": 10**400}},
        {
            "cycles": 10,
            "seed": 1,
            "attack": {"type": "column", "basis": "z", "values": [[10**400, 0], [0, 0], [0, 0]]},
        },
        {"cycles": 10, "seed": 1, "freq": {"p": [[10**400, 0, 0], [0, 0, 0], [0, 0, 0]]}},
        # JSON booleans and strings are not frequencies
        {"cycles": 10, "seed": 1, "freq": {"p": [[True, False, False], [False] * 3, [False] * 3]}},
        {"cycles": 10, "seed": 1, "freq": {"p": [["0.5", 0.5, 0], [0, 0, 0], [0, 0, 0]]}},
    ],
)
def test_config_from_dict_rejects_malformed(payload):
    with pytest.raises(ValueError):
        ProtocolConfig.from_dict(payload)


def test_load_protocol_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"cycles": 25, "seed": 4, "attack": {"type": "none"}}))
    cfg = load_protocol_config(path)
    assert cfg.cycles == 25
    assert isinstance(cfg.attack, NoAttack)


def test_rounds_for_confidence_reference_points():
    assert rounds_for_confidence(1.0 / 3.0, 0.99) == 12
    assert rounds_for_confidence(2.0 / 3.0, 0.99) == 5
    assert rounds_for_confidence(1.0, 0.99) == 1
    # 1 - d rounds here; the exact answer comes from a 60-digit decimal evaluation
    assert rounds_for_confidence(1e-12, 0.99) == 4605170185986


def test_rounds_for_confidence_rejects_undetectable():
    with pytest.raises(ValueError):
        rounds_for_confidence(0.0, 0.99)
    with pytest.raises(ValueError):
        rounds_for_confidence(-0.2, 0.99)
    with pytest.raises(ValueError):
        rounds_for_confidence(1.5, 0.99)
    with pytest.raises(ValueError):
        rounds_for_confidence(True, 0.99)
    with pytest.raises(ValueError):
        rounds_for_confidence(1e-320, 0.99)


def test_rounds_for_confidence_rejects_bad_target():
    with pytest.raises(ValueError):
        rounds_for_confidence(0.5, 1.0)
    with pytest.raises(ValueError):
        rounds_for_confidence(0.5, 0.0)


@given(
    st.floats(min_value=1e-4, max_value=0.999),
    st.floats(min_value=0.5, max_value=0.9999),
)
@example(d=0.6423052989512529, target=0.6423052989512529)  # one round reaches d exactly
def test_rounds_for_confidence_is_minimal(d, target):
    r = rounds_for_confidence(d, target)
    assert 1.0 - (1.0 - d) ** r >= target
    if r > 1:
        assert 1.0 - (1.0 - d) ** (r - 1) < target


def test_run_is_deterministic():
    cfg = ProtocolConfig(cycles=3000, seed=77, attack=SymmetricAttack(0.3))
    assert run(cfg).to_json() == run(cfg).to_json()


def test_run_counts_are_consistent():
    cfg = ProtocolConfig(cycles=5000, seed=13, attack=SymmetricAttack(0.4), q=0.5)
    report = run(cfg)
    assert report.control_rounds + report.message_rounds == cfg.cycles
    assert report.detections == sum(s.detections for s in report.basis_stats.values())
    assert int(report.confusion.sum()) == report.message_rounds
    assert report.correct_messages == int(np.trace(report.confusion))


def test_honest_run_never_detects_and_decodes_exactly():
    cfg = ProtocolConfig(cycles=20_000, seed=5)
    report = run(cfg)
    assert report.detections == 0
    assert report.first_detection_cycle is None
    assert report.rounds_to_detection is None
    assert report.correct_messages == report.message_rounds


def test_attacked_run_stays_within_three_sigma():
    cfg = ProtocolConfig(cycles=30_000, seed=21, attack=SymmetricAttack(0.5), q=0.5)
    report = run(cfg)
    for s in report.basis_stats.values():
        assert s.within_band


def test_message_statistics_match_source_frequencies():
    freq = FREQUENCY_PRESETS["tiered"]
    cfg = ProtocolConfig(cycles=100_000, seed=606, freq=freq, q=0.0)
    report = run(cfg)
    assert report.message_rounds == cfg.cycles
    sent = report.confusion.sum(axis=1)
    for k, p in enumerate(freq.p.reshape(9)):
        if p == 0.0:
            assert sent[k] == 0
            continue
        band = 3.0 * math.sqrt(cfg.cycles * p * (1.0 - p))
        assert abs(float(sent[k]) - cfg.cycles * p) <= band


def test_attacked_run_corrupts_decoding():
    cfg = ProtocolConfig(cycles=20_000, seed=707, attack=SymmetricAttack(2.0 / 3.0), q=0.0)
    state = attack_state(cfg.attack, cfg.ancilla)
    # with the ancilla recording every transition, a maximal attack leaves
    # only the diagonal branches coherent: each bigram survives with 1/9
    p_right = decode_distribution(state, (0, 0))[0]
    assert abs(p_right - 1.0 / 9.0) < 1e-12
    for i in range(3):
        for j in range(3):
            assert abs(decode_distribution(state, (i, j))[3 * i + j] - p_right) < 1e-12
    report = run(cfg)
    band = 3.0 * math.sqrt(cfg.cycles * p_right * (1.0 - p_right))
    assert 0 < report.correct_messages < report.message_rounds
    assert abs(report.correct_messages - cfg.cycles * p_right) <= band


def test_attacked_run_x_rounds_within_three_sigma():
    col = symmetric_column(0.5)
    cfg = ProtocolConfig(
        cycles=100_000,
        seed=808,
        attack=ColumnAttack("x", col),
        q=1.0,
        basis_weights=(0.0, 1.0),
    )
    report = run(cfg)
    stats = report.basis_stats["x"]
    assert stats.rounds == cfg.cycles
    assert abs(stats.predicted - 0.5) < 1e-12
    assert stats.within_band


def test_attacked_run_reports_first_detection():
    cfg = ProtocolConfig(cycles=2000, seed=3, attack=SymmetricAttack(2.0 / 3.0), q=0.5)
    report = run(cfg)
    assert report.detections > 0
    assert 1 <= report.first_detection_cycle <= cfg.cycles
    assert report.rounds_to_detection >= 1


def test_seed_changes_outcomes():
    base = ProtocolConfig(cycles=2000, seed=1, attack=SymmetricAttack(0.5))
    other = ProtocolConfig(cycles=2000, seed=2, attack=SymmetricAttack(0.5))
    assert run(base).to_json() != run(other).to_json()


def test_transcript_rows(tmp_path):
    cfg = ProtocolConfig(cycles=200, seed=8, attack=SymmetricAttack(0.5), q=0.5)
    report = run(cfg)
    assert len(report.outcomes) == cfg.cycles
    path = tmp_path / "transcript.csv"
    write_transcript(report.outcomes, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "cycle,mode,basis,alice,bob,detected,sent,decoded"
    assert len(lines) == cfg.cycles + 1
    control = [l for l in lines[1:] if ",control," in l]
    message = [l for l in lines[1:] if ",message," in l]
    assert len(control) == report.control_rounds
    assert len(message) == report.message_rounds
    for line in message[:5]:
        sent, decoded = line.split(",")[6:8]
        assert len(sent) == 2 and len(decoded) == 2


def _formatted_transcript(codes) -> bytes:
    """The per-row f-string formatter that the byte writer replaced, kept as its reference."""
    tails = [
        f"control,{basis},{a},{b},{int((a, b) not in control_correlations(basis).allowed_pairs())},,"
        for basis in CONTROL_BASES for a in range(3) for b in range(3)
    ]
    bigrams = [f"{i}{j}" for i in range(3) for j in range(3)]
    tails += [f"message,,,,,{sent},{decoded}" for sent in bigrams for decoded in bigrams]
    rows = "".join(f"{cycle},{tails[code]}\n" for cycle, code in enumerate(bytes(codes), start=1))
    return (TRANSCRIPT_HEADER + "\n" + rows).encode("utf-8")


@pytest.mark.parametrize("cycles", [1, 9, 10, 99, 100, 4095, 4096, 4097, 9999, 10000, 100001])
def test_transcript_matches_the_row_formatter(cycles, tmp_path):
    """Every digit width up to 6 and the edges of the 2**12-cycle blocks, over all 99 codes."""
    codes = (np.arange(cycles) % 99).astype(np.uint8)
    path = tmp_path / "transcript.csv"
    write_transcript(codes, path)
    assert path.read_bytes() == _formatted_transcript(codes)


def test_transcript_memory_stays_that_of_one_block(tmp_path):
    cycles = 1_000_000
    codes = (np.arange(cycles) % 99).astype(np.uint8)
    path = tmp_path / "transcript.csv"
    tracemalloc.start()
    try:
        write_transcript(codes, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size == len(TRANSCRIPT_HEADER) + 1 + sum(len(str(c)) + 19 for c in range(1, cycles + 1))
    # one block's rows and int64 temporaries; a copy of the 1 MB of codes would not fit
    assert peak < 500_000


def test_report_json_shape():
    cfg = ProtocolConfig(cycles=300, seed=2, attack=SymmetricAttack(0.2))
    data = json.loads(run(cfg).to_json())
    assert data["cycles"] == 300
    assert set(data["basis_stats"]) == {"z", "x"}
    assert data["config"]["attack"] == {"type": "symmetric", "d_z": 0.2}
    assert len(data["confusion"]) == 9


def _two_map_outcome_distribution(config: ProtocolConfig, amps: np.ndarray) -> np.ndarray:
    """The weighted table run samples from normalized amplitudes, from the control and decode maps that the
    stacked 99-row map replaced; kept as its reference."""
    _assert_normalized(amps)
    pairs = [control_correlations(basis) for basis in CONTROL_BASES]
    alice = np.stack([mub(p.alice_basis) for p in pairs])
    bob = np.stack([mub(p.bob_basis) for p in pairs])
    control_map = np.einsum("sta,shb->sabht", alice.conj(), bob.conj()).reshape(len(pairs), 9, 9)
    decode_map = np.einsum("oht,kts->kohs", BELL_STATES.conj(), CODING_UNITARIES).reshape(9, 9, 9)

    def born(amplitude_map):
        return (np.abs(amplitude_map @ amps.reshape(9, ANCILLA_DIM)) ** 2).sum(axis=-1)

    weights = np.append(config.q * np.array(config.basis_weights), (1.0 - config.q) * config.freq.p)
    return (weights[:, None] * np.vstack([born(control_map), born(decode_map)])).ravel()


_FEASIBLE_COLUMN = AttackColumn(math.sqrt(0.6), 0.5, 1j * math.sqrt(0.15))


@pytest.mark.parametrize("ancilla", ["branch", "none"])
@pytest.mark.parametrize(
    "attack",
    [NoAttack(), SymmetricAttack(0.4), *(ColumnAttack(basis, _FEASIBLE_COLUMN) for basis in "zxvt")],
    ids=["none", "symmetric", "column-z", "column-x", "column-v", "column-t"],
)
def test_born_table_and_predictions_are_bit_identical_to_the_two_map_formula(attack, ancilla, monkeypatch):
    sampled = []

    def recording_cdf(probs):
        sampled.append(probs.copy())
        return _cdf(probs)

    monkeypatch.setattr(protocol, "_cdf", recording_cdf)
    state = attack_state(attack, ancilla)
    for freq in FREQUENCY_PRESETS.values():
        for q in (0.0, 0.3, 1.0):
            for weights in ((1.0, 0.0), (0.4, 0.6)):
                cfg = ProtocolConfig(
                    cycles=20, seed=5, freq=freq, attack=attack, q=q, basis_weights=weights, ancilla=ancilla
                )
                report = run(cfg)
                assert np.array_equal(sampled.pop(), _two_map_outcome_distribution(cfg, state))
                for basis in CONTROL_BASES:
                    assert report.basis_stats[basis].predicted == detection_probability(state, basis)


def test_cumulative_table_never_lands_on_a_zero_probability_code():
    # numpy sums a table in a different order than it accumulates it, so a
    # total taken separately can exceed the last cumulative entry; the
    # table must end at exactly 1.0 and the last uniform below 1 must still
    # land on a possible outcome
    rng = np.random.default_rng(16914)
    tables = []
    for size in (9, 99):
        for _ in range(500):
            p = rng.random(size) * (rng.random(size) < 0.7)
            p[-1] = 0.0
            p[rng.integers(size - 1)] = rng.random() + 0.01
            tables.append(p)
    for name in ("peaked", "two-bigram"):
        freq = FREQUENCY_PRESETS[name]
        cfg = ProtocolConfig(cycles=1, seed=0, freq=freq, attack=SymmetricAttack(0.5), q=0.0)
        tables.append(_two_map_outcome_distribution(cfg, attack_state(cfg.attack, cfg.ancilla)))
    for p in tables:
        cum = _cdf(p)
        assert cum[-1] == 1.0
        assert p[np.searchsorted(cum, np.nextafter(1.0, 0.0), side="right")] > 0.0


def _chi_square_critical(dof: int, alpha: float) -> float:
    """Upper alpha point of the chi-square law (Wilson-Hilferty approximation)."""
    h = 2.0 / (9.0 * dof)
    return dof * (1.0 - h + NormalDist().inv_cdf(1.0 - alpha) * math.sqrt(h)) ** 3


@pytest.mark.parametrize(
    "config",
    [
        ProtocolConfig(
            cycles=200_000, seed=1, freq=FREQUENCY_PRESETS["peaked"], attack=SymmetricAttack(0.5), q=0.5
        ),
        ProtocolConfig(
            cycles=200_000,
            seed=2,
            freq=FREQUENCY_PRESETS["tiered"],
            attack=ColumnAttack("x", AttackColumn(math.sqrt(0.6), 0.5, 1j * math.sqrt(0.15))),
            q=0.5,
            basis_weights=(0.3, 0.7),
            ancilla="none",
        ),
        ProtocolConfig(
            cycles=200_000,
            seed=3,
            freq=FREQUENCY_PRESETS["sparse"],
            attack=ColumnAttack("x", AttackColumn(math.sqrt(0.6), 0.5, 1j * math.sqrt(0.15))),
            q=0.3,
        ),
    ],
    ids=["symmetric-branch", "column-x-none", "column-x-branch"],
)
def test_outcome_counts_fit_the_exact_distribution(config):
    """Chi-square goodness of fit of all 99 code counts, at a false-alarm level of 1e-6."""
    p = _two_map_outcome_distribution(config, attack_state(config.attack, config.ancilla))
    assert abs(p.sum() - 1.0) < 1e-12
    counts = np.bincount(run(config).outcomes, minlength=p.size)
    assert (counts[p == 0.0] == 0).all()
    expected = config.cycles * p
    small = expected < 5.0
    observed = np.append(counts[~small], counts[small].sum())
    expected = np.append(expected[~small], expected[small].sum())
    observed, expected = observed[expected > 0.0], expected[expected > 0.0]
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert chi2 < _chi_square_critical(expected.size - 1, 1e-6)


def test_run_memory_is_one_byte_per_cycle_plus_one_block():
    cfg = ProtocolConfig(cycles=1_000_000, seed=4, attack=SymmetricAttack(0.5), q=0.5)
    run(ProtocolConfig(cycles=1, seed=4, attack=SymmetricAttack(0.5)))
    tracemalloc.start()
    try:
        report = run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.outcomes.nbytes == cfg.cycles
    # the block's float64 uniforms and its searchsorted indices, with slack
    assert peak < cfg.cycles + 24 * _BLOCK


@pytest.mark.parametrize(
    "config,first_detection",
    [
        # first detected in the sixth block of 7 cycles
        (ProtocolConfig(cycles=3000, seed=1, attack=SymmetricAttack(0.05), q=0.1), 40),
        (
            ProtocolConfig(
                cycles=3000,
                seed=3,
                freq=FREQUENCY_PRESETS["tiered"],
                attack=ColumnAttack("x", AttackColumn(math.sqrt(0.6), 0.5, 1j * math.sqrt(0.15))),
                q=0.3,
                ancilla="none",
            ),
            20,
        ),
        (ProtocolConfig(cycles=3000, seed=2), None),
    ],
    ids=["symmetric", "column-x-none", "honest"],
)
def test_outputs_do_not_depend_on_the_block_size(config, first_detection, monkeypatch, tmp_path):
    outputs = []
    for block in (1, 7, 2**12, 2**16):
        monkeypatch.setattr(protocol, "_BLOCK", block)
        report = run(config)
        assert report.first_detection_cycle == first_detection
        write_transcript(report.outcomes, tmp_path / "transcript.csv")
        outputs.append((report.outcomes.tobytes(), report.to_json(), (tmp_path / "transcript.csv").read_bytes()))
    assert all(out == outputs[0] for out in outputs[1:])


def _reference_amps(attack, ancilla: str) -> np.ndarray:
    """attack_state's amplitudes from the reference maps: bell_state(0, 0) with the probe in slot 0 for
    NoAttack, _branch_amps of the unit circulant in mode "branch", _none_amps in mode "none"."""
    if isinstance(attack, NoAttack):
        amps = np.zeros((3, 3, ANCILLA_DIM), dtype=complex)
        amps[:, :, 0] = BELL_STATES[0]
        return amps
    if ancilla == "branch":
        return _branch_amps(_unit_circulant_of(attack.column), attack.basis)
    return _none_amps(attack.column, attack.basis)


def _sampler_mix() -> list[ProtocolConfig]:
    """Seeded configs over every attack kind, both ancilla modes, all presets and q in {0, 0.3, 1}; every
    other run spans three blocks or more, and the last is first detected in its third block."""
    rng = np.random.default_rng(35)
    attacks = [NoAttack(), SymmetricAttack(0.4), *(ColumnAttack(basis, _FEASIBLE_COLUMN) for basis in "zxvt")]
    presets = sorted(FREQUENCY_PRESETS)
    configs = []
    for k, (attack, ancilla) in enumerate((a, mode) for a in attacks for mode in ("branch", "none")):
        z_weight = float(rng.choice([0.0, 0.5, 1.0, rng.random()]))
        configs.append(
            ProtocolConfig(
                cycles=int(2 * _BLOCK + rng.integers(1, _BLOCK)) if k % 2 else int(rng.integers(1, 400)),
                seed=int(rng.integers(2**31)),
                freq=FREQUENCY_PRESETS[presets[k % len(presets)]],
                attack=attack,
                q=(0.0, 0.3, 1.0)[k % 3],
                basis_weights=(z_weight, 1.0 - z_weight),
                ancilla=ancilla,
            )
        )
    late = ProtocolConfig(
        cycles=3 * _BLOCK + 5,
        seed=23,
        freq=FREQUENCY_PRESETS["sparse"],
        attack=SymmetricAttack(3e-4),
        q=0.3,
        basis_weights=(1.0, 0.0),
    )
    return configs + [late]


def test_run_matches_a_reference_sampler_and_a_plain_python_tally():
    configs = _sampler_mix()
    honest = [control_correlations(basis).allowed_pairs() for basis in CONTROL_BASES]
    forbidden = {9 * s + 3 * a + b for s in range(2) for a in range(3) for b in range(3) if (a, b) not in honest[s]}
    for cfg in configs:
        amps = attack_state(cfg.attack, cfg.ancilla)
        assert np.abs(amps - _reference_amps(cfg.attack, cfg.ancilla)).max() <= 1e-15
        cum = _cdf(_two_map_outcome_distribution(cfg, amps))
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        want = np.concatenate(
            [
                np.searchsorted(cum, rng.random(min(_BLOCK, cfg.cycles - start)), side="right")
                for start in range(0, cfg.cycles, _BLOCK)
            ]
        )
        report = run(cfg)
        codes = report.outcomes.tolist()
        assert codes == want.tolist()

        counts = [0] * 99
        for code in codes:
            counts[code] += 1
        first = next((cycle for cycle, code in enumerate(codes, start=1) if code in forbidden), None)
        assert report.first_detection_cycle == first
        for s, basis in enumerate(CONTROL_BASES):
            stats = report.basis_stats[basis]
            assert stats.rounds == sum(counts[9 * s : 9 * s + 9])
            assert stats.detections == sum(counts[c] for c in range(9 * s, 9 * s + 9) if c in forbidden)
            assert stats.predicted == detection_probability(amps, basis)
        assert report.confusion.tolist() == [counts[18 + 9 * k : 27 + 9 * k] for k in range(9)]
        assert report.detections == sum(counts[c] for c in forbidden)
    assert report.first_detection_cycle > 2 * _BLOCK  # the last run's, in its third block


def _von_neumann_trits(rho: np.ndarray) -> float:
    lams = np.linalg.eigvalsh(rho)
    lams = lams[lams > 0.0]
    return float(-(lams * np.log(lams)).sum() / math.log(3.0))


@pytest.mark.parametrize("name", sorted(FREQUENCY_PRESETS))
def test_holevo_bound_matches_the_joint_state_for_z_columns(name):
    """chi of Eve's travel-and-ancilla states, coded on the branch-attacked joint state."""
    freq = FREQUENCY_PRESETS[name]
    rng = np.random.default_rng(7)
    columns = [symmetric_column(d) for d in np.linspace(0.0, 2.0 / 3.0, 9)]
    for _ in range(20):
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        columns.append(AttackColumn(*(v / np.linalg.norm(v))))
    for col in columns:
        state = attack_state(ColumnAttack("z", col), "branch")
        ensemble = np.zeros((27, 27), dtype=complex)
        conditional = 0.0
        for (i, j), p in np.ndenumerate(freq.p):
            # home by (travel, ancilla); Eve holds travel and ancilla
            a = apply_travel_unitary(state, coding_unitary(i, j)).reshape(3, 27)
            rho = a.T @ a.conj()
            ensemble += p * rho
            conditional += p * _von_neumann_trits(rho)
        chi = _von_neumann_trits(ensemble) - conditional
        assert abs(chi - holevo_information(col, freq).value) < 1e-10
