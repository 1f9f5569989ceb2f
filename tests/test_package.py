"""The package's public surface."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qutrit_pingpong
from qutrit_pingpong.attack import (
    AttackOperator,
    ColumnAttack,
    attack_from_dict,
    complete_circulant,
    symmetric_column,
)
from qutrit_pingpong.information import FrequencyTable, assemble_rho
from qutrit_pingpong.protocol import (
    JointState,
    control_distribution,
    detection_probability,
    initial_state,
)
from qutrit_pingpong.qutrit import BASIS_LABELS, control_correlations, mub


def test_importing_information_loads_only_what_it_needs():
    # The child must import the same package, installed or not.
    src = str(Path(qutrit_pingpong.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, qutrit_pingpong.information\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'qutrit_pingpong'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "qutrit_pingpong",
        "qutrit_pingpong.attack",
        "qutrit_pingpong.information",
        "qutrit_pingpong.qutrit",
    ]


_TAKES_A_LABEL = {
    "mub": mub,
    "control_correlations": control_correlations,
    "AttackOperator": lambda b: AttackOperator(np.eye(3), b),
    "complete_circulant": lambda b: complete_circulant(symmetric_column(0.3), b),
    "ColumnAttack": lambda b: ColumnAttack(b, symmetric_column(0.3)),
    "control_distribution": lambda b: control_distribution(initial_state(), b),
    "detection_probability": lambda b: detection_probability(initial_state(), b),
}


@pytest.mark.parametrize("call", _TAKES_A_LABEL.values(), ids=_TAKES_A_LABEL.keys())
@pytest.mark.parametrize("label", ["X", 1, ["z"]], ids=["upper-case", "int", "list"])
def test_every_label_taking_function_rejects_the_same_way(call, label):
    call("x")
    with pytest.raises(ValueError) as excinfo:
        call(label)
    assert str(excinfo.value) == f"unknown basis label {label!r}, expected one of {BASIS_LABELS}"


def test_config_basis_is_lower_cased_once():
    values = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    assert attack_from_dict({"type": "column", "basis": "X", "values": values}).basis == "x"
    with pytest.raises(ValueError, match="unknown basis label 1"):
        attack_from_dict({"type": "column", "basis": 1, "values": values})


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
