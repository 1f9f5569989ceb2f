"""The package's public surface."""

import pytest

import qutrit_pingpong
from qutrit_pingpong.attack import complete_circulant, symmetric_column
from qutrit_pingpong.information import FrequencyTable, assemble_rho
from qutrit_pingpong.protocol import JointState, initial_state


def test_every_exported_name_resolves():
    missing = [name for name in qutrit_pingpong.__all__ if not hasattr(qutrit_pingpong, name)]
    assert missing == []


@pytest.mark.parametrize(
    "make",
    [
        lambda: complete_circulant(symmetric_column(0.3)),
        lambda: assemble_rho(symmetric_column(0.3), FrequencyTable.uniform()),
        lambda: JointState(initial_state().amps),
    ],
    ids=["AttackOperator", "DensityMatrix9", "JointState"],
)
def test_array_holding_values_compare_and_hash(make):
    # Identity equality: comparing or hashing must not touch the array field.
    a, b = make(), make()
    assert (a == a) is True
    assert (a == b) is False
    assert (a != b) is True
    assert hash(a) == hash(a)
    assert len({a, b}) == 2
