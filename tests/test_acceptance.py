"""Acceptance gate: every shipped guarantee, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the line per criterion.
"""

import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from qutrit_pingpong.attack import (
    AttackColumn,
    SymmetricAttack,
    blended_detection,
    verify_reference_attacks,
)
from qutrit_pingpong.comparison import protocol_table
from qutrit_pingpong.information import (
    FREQUENCY_PRESETS,
    FrequencyTable,
    assemble_rho,
    factorized_eigenvalues,
    info_curve,
    source_entropy,
)
from qutrit_pingpong.protocol import (
    ProtocolConfig,
    rounds_for_confidence,
    run,
)
from qutrit_pingpong.qutrit import (
    BASIS_LABELS,
    bell_state,
    coding_unitary,
    control_correlations,
    mub,
)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def test_criterion_1_source_entropies():
    expected = {
        "uniform": 2.000,
        "tiered": 1.921,
        "sparse": 1.439,
        "peaked": 1.086,
        "two-bigram": 0.579,
    }
    with criterion("source entropies of the five bundled presets (within 1e-3 trits)"):
        for name, want in expected.items():
            have = source_entropy(FREQUENCY_PRESETS[name]).value
            assert abs(have - want) < 1e-3, (name, have, want)


def test_criterion_2_reference_attack_rows():
    with criterion("18 bundled attack rows reproduce tabulated detection values (5e-5)"):
        checks = verify_reference_attacks()
        assert len(checks) == 18
        bad = [c for c in checks if not c.passed]
        assert not bad, [(c.row, c.deviation) for c in bad]
        assert max(c.deviation for c in checks) <= 5e-5


def test_criterion_3_protocol_comparison_rationals():
    with criterion("protocol comparison detection rationals are exact"):
        rows = protocol_table()
        fractions = [(r.d_max, r.d_min) for r in rows]
        assert fractions == [
            (Fraction(2, 3), Fraction(1, 3)),
            (Fraction(1, 2), Fraction(1, 4)),
            (Fraction(3, 4), Fraction(3, 8)),
            (Fraction(7, 8), Fraction(7, 16)),
        ]
        for r in rows:
            assert r.d_min * 2 == r.d_max


def test_criterion_4_information_curves():
    with criterion("leak curves: endpoint identities (1e-9), monotone, flat two-bigram case"):
        for name, freq in FREQUENCY_PRESETS.items():
            pts = info_curve(freq)
            assert len(pts) == 67
            values = [v for _, v in pts]
            # at maximal extraction the leak equals the source entropy
            assert abs(values[-1] - source_entropy(freq).value) < 1e-9, name
            # an invisible attack still leaks the shift-class entropy
            sums = freq.p.sum(axis=0)
            class_entropy = -sum(s * math.log(s) for s in sums if s > 0) / math.log(3.0)
            assert abs(values[0] - class_entropy) < 1e-9, name
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:])), name
        flat = [v for _, v in info_curve(FREQUENCY_PRESETS["two-bigram"])]
        assert all(abs(v - 0.5794) < 1e-4 for v in flat)


def test_criterion_5_factorized_spectrum_cross_check():
    with criterion("factorized spectra match dense eigvalsh on 120 seeded draws (1e-10)"):
        rng = np.random.default_rng(271828)
        worst = 0.0
        for _ in range(120):
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            v /= np.linalg.norm(v)
            col = AttackColumn(*(complex(x) for x in v))
            p = rng.random((3, 3))
            freq = FrequencyTable(p / p.sum())
            lam_f = factorized_eigenvalues(col, freq)
            lam_d = np.sort(np.linalg.eigvalsh(assemble_rho(col, freq).m))[::-1]
            worst = max(worst, float(np.abs(lam_f - lam_d).max()))
        assert worst < 1e-10, worst


def test_criterion_6_structural_identities():
    with criterion("structural identities hold at 1e-12"):
        # entangled basis: orthonormal, generated by the coding operations
        states = [bell_state(i, j).reshape(9) for i in range(3) for j in range(3)]
        gram = np.array([[np.vdot(a, b) for b in states] for a in states])
        assert np.abs(gram - np.eye(9)).max() < 1e-12
        base = bell_state(0, 0)
        for i in range(3):
            for j in range(3):
                moved = np.einsum("ts,hs->ht", coding_unitary(i, j), base)
                assert np.abs(moved - bell_state(i, j)).max() < 1e-12
        # four pairwise unbiased bases
        for a in BASIS_LABELS:
            for b in BASIS_LABELS:
                ov = np.abs(mub(a).conj().T @ mub(b)) ** 2
                want = np.eye(3) if a == b else np.full((3, 3), 1.0 / 3.0)
                assert np.abs(ov - want).max() < 1e-12
        # either particle of the shared pair alone is maximally mixed
        reduced = np.einsum("ht,hu->tu", base, base.conj())
        assert np.abs(reduced - np.eye(3) / 3.0).max() < 1e-12
        # control-round correlation structure
        assert control_correlations("z").allowed_pairs() == frozenset({(0, 0), (1, 1), (2, 2)})
        assert control_correlations("x").allowed_pairs() == frozenset({(0, 0), (1, 2), (2, 1)})
        assert control_correlations("v").bob_basis == "t"
        assert control_correlations("t").bob_basis == "v"
        for basis in BASIS_LABELS:
            for _, _, amp in control_correlations(basis).terms:
                assert abs(abs(amp) - 1.0 / math.sqrt(3.0)) < 1e-12


def test_criterion_7_simulator_agrees_with_analysis():
    with criterion("simulator: 3-sigma agreement, silent honest runs, reproducibility"):
        for d in (0.2, 0.5, 2.0 / 3.0):
            cfg = ProtocolConfig(
                cycles=100_000,
                seed=1000 + int(d * 1000),
                attack=SymmetricAttack(d),
                q=1.0,
                basis_weights=(1.0, 0.0),
                ancilla="branch",
            )
            report = run(cfg)
            s = report.basis_stats["z"]
            assert s.rounds == 100_000
            assert abs(s.predicted - d) < 1e-12
            assert s.within_band, (d, s)
        honest = ProtocolConfig(cycles=100_000, seed=33, q=0.25)
        h_report = run(honest)
        assert h_report.detections == 0
        decode_only = ProtocolConfig(cycles=10_000, seed=44, q=0.0)
        d_report = run(decode_only)
        assert d_report.message_rounds == 10_000
        assert d_report.correct_messages == 10_000
        again = ProtocolConfig(
            cycles=100_000,
            seed=1500,
            attack=SymmetricAttack(0.5),
            q=1.0,
            basis_weights=(1.0, 0.0),
            ancilla="branch",
        )
        assert run(again).to_json() == run(again).to_json()


def test_criterion_8_control_mode_bookkeeping():
    with criterion("blended two-basis control rate and 99% confidence round count"):
        mixed = blended_detection((0.0, 2.0 / 3.0), (0.5, 0.5))
        assert abs(mixed - 1.0 / 3.0) < 1e-12
        assert rounds_for_confidence(1.0 / 3.0, 0.99) == 12
