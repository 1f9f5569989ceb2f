"""Full-state simulator: states, attacks, control statistics, runs."""

import json
import math
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from qutrit_pingpong.attack import (
    AttackColumn,
    ColumnAttack,
    NoAttack,
    SymmetricAttack,
    complete_circulant,
    symmetric_column,
)
from qutrit_pingpong.information import FREQUENCY_PRESETS, holevo_information
from qutrit_pingpong.protocol import (
    ANCILLA_DIM,
    CONTROL_BASES,
    TRANSCRIPT_HEADER,
    JointState,
    ProtocolConfig,
    apply_branch_attack,
    apply_travel_unitary,
    attack_state,
    control_distribution,
    decode_distribution,
    detection_probability,
    initial_state,
    load_protocol_config,
    outcome_distribution,
    rounds_for_confidence,
    run,
    write_transcript,
    _BLOCK,
    _cdf,
)
from qutrit_pingpong.qutrit import coding_unitary, control_correlations


def test_initial_state_shape_and_support():
    st0 = initial_state()
    assert st0.amps.shape == (3, 3, ANCILLA_DIM)
    assert float((np.abs(st0.amps[:, :, 1:]) ** 2).sum()) == 0.0
    diag = [st0.amps[k, k, 0] for k in range(3)]
    assert all(abs(a - 1.0 / math.sqrt(3.0)) < 1e-15 for a in diag)


def test_joint_state_validation():
    with pytest.raises(ValueError):
        JointState(np.zeros((3, 3, ANCILLA_DIM), dtype=complex))
    with pytest.raises(ValueError):
        JointState(np.zeros((3, 3, 3), dtype=complex))


def test_travel_unitary_preserves_norm_and_decode():
    st1 = apply_travel_unitary(initial_state(), coding_unitary(2, 1))
    probs = decode_distribution(st1, (0, 0))
    # encoding on top of an already-coded state lands on the composed bigram
    assert probs.argmax() == 3 * 2 + 1
    assert abs(probs.max() - 1.0) < 1e-12


def test_uncoded_decode_is_point_mass():
    st0 = initial_state()
    for i in range(3):
        for j in range(3):
            probs = decode_distribution(st0, (i, j))
            assert abs(probs[3 * i + j] - 1.0) < 1e-12


def test_branch_attack_requires_unit_columns():
    with pytest.raises(ValueError):
        apply_branch_attack(initial_state(), np.ones((3, 3)))


def _shifted():
    # cyclic-shift coefficients of a mildly disturbing column
    col = np.array([math.sqrt(0.8), math.sqrt(0.1), math.sqrt(0.1)])
    e = np.empty((3, 3), dtype=complex)
    for n in range(3):
        for m in range(3):
            e[m, n] = col[(m - n) % 3]
    return e


def test_branch_attack_cannot_run_twice():
    once = apply_branch_attack(initial_state(), _shifted())
    with pytest.raises(ValueError):
        apply_branch_attack(once, _shifted())


def test_branch_attack_is_an_isometry():
    out = apply_branch_attack(initial_state(), _shifted())
    assert abs(float((np.abs(out.amps) ** 2).sum()) - 1.0) < 1e-12


def test_honest_control_tables():
    st0 = initial_state()
    for basis in ("z", "x", "v", "t"):
        joint = control_distribution(st0, basis)
        assert detection_probability(st0, basis) < 1e-14
        for pair in control_correlations(basis).allowed_pairs():
            assert abs(joint[pair] - 1.0 / 3.0) < 1e-12


def test_control_distribution_rejects_unknown_basis():
    with pytest.raises(ValueError):
        control_distribution(initial_state(), "w")


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
    state = apply_travel_unitary(initial_state(), swap)
    assert abs(detection_probability(state, "z") - 2.0 / 3.0) < 1e-12


def test_no_attack_state_is_initial():
    for ancilla in ("branch", "none"):
        assert np.abs(attack_state(NoAttack(), ancilla).amps - initial_state().amps).max() == 0.0


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
        tables.append(outcome_distribution(cfg, attack_state(cfg.attack, cfg.ancilla)))
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
    p = outcome_distribution(config, attack_state(config.attack, config.ancilla))
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
            a = apply_travel_unitary(state, coding_unitary(i, j)).amps.reshape(3, 27)
            rho = a.T @ a.conj()
            ensemble += p * rho
            conditional += p * _von_neumann_trits(rho)
        chi = _von_neumann_trits(ensemble) - conditional
        assert abs(chi - holevo_information(col, freq).value) < 1e-10
