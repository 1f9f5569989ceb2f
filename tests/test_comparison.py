"""Cross-variant capacity and detectability table."""

import math
from fractions import Fraction

import pytest

from qutrit_pingpong.comparison import format_protocol_table, protocol_table
from qutrit_pingpong.information import FREQUENCY_PRESETS, TRIT_TO_BIT, info_curve


def test_table_has_four_variants():
    rows = protocol_table()
    assert len(rows) == 4
    assert rows[0].carrier_dim == 3
    assert all(r.carrier_dim == 2 for r in rows[1:])


def test_detection_rationals_are_exact():
    want = {
        "Bell pairs of qutrits": (Fraction(2, 3), Fraction(1, 3)),
        "Bell pairs of qubits": (Fraction(1, 2), Fraction(1, 4)),
        "GHZ triplets of qubits": (Fraction(3, 4), Fraction(3, 8)),
        "GHZ quadruples of qubits": (Fraction(7, 8), Fraction(7, 16)),
    }
    for row in protocol_table():
        d_max, d_min = want[row.name]
        assert row.d_max == d_max
        assert row.d_min == d_min


def test_worst_case_is_half_best_case():
    for row in protocol_table():
        assert row.d_min * 2 == row.d_max


def test_capacities():
    rows = {r.name: r for r in protocol_table()}
    assert rows["Bell pairs of qutrits"].capacity_bits == pytest.approx(2.0 * math.log2(3.0))
    assert rows["Bell pairs of qubits"].capacity_bits == 2.0
    assert rows["GHZ triplets of qubits"].capacity_bits == 3.0
    assert rows["GHZ quadruples of qubits"].capacity_bits == 4.0


def test_qutrit_pair_beats_qubit_pair_before_ghz_catches_up():
    rows = {r.name: r for r in protocol_table()}
    assert rows["Bell pairs of qutrits"].capacity_bits > rows["Bell pairs of qubits"].capacity_bits
    assert rows["GHZ quadruples of qubits"].capacity_bits > rows["Bell pairs of qutrits"].capacity_bits


def _qutrit_curve_bits():
    # the qutrit variant's leak curve on the comparison's common axis of bits
    return [(d, trits * TRIT_TO_BIT) for d, trits in info_curve(FREQUENCY_PRESETS["uniform"])]


def test_curve_data_tops_out_at_full_capacity():
    data = _qutrit_curve_bits()
    d_last, bits_last = data[-1]
    assert d_last == pytest.approx(2.0 / 3.0)
    assert bits_last == pytest.approx(2.0 * TRIT_TO_BIT, abs=1e-9)


def test_curve_data_endpoints_and_order():
    data = _qutrit_curve_bits()
    assert len(data) == 67
    d_first, bits_first = data[0]
    assert d_first == 0.0
    # an invisible attack still leaks one trit of the uniform source
    assert bits_first == pytest.approx(TRIT_TO_BIT, abs=1e-9)
    assert all(a[0] < b[0] for a, b in zip(data, data[1:]))


def test_formatted_table_lists_every_variant():
    text = format_protocol_table()
    for row in protocol_table():
        assert row.name in text
