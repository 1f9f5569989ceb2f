"""The package's public surface."""

import inspect
import math
import subprocess
import sys
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest

from qutrit_pingpong.attack import (
    AttackOperator,
    ColumnAttack,
    NoAttack,
    ReferenceAttack,
    ReferenceCheck,
    attack_from_dict,
    complete_circulant,
    symmetric_column,
)
from qutrit_pingpong.comparison import ProtocolDescriptor
from qutrit_pingpong.information import FREQUENCY_PRESETS, assemble_rho
from qutrit_pingpong.protocol import (
    BasisStats,
    RunReport,
    attack_state,
    control_distribution,
    detection_probability,
    rounds_for_confidence,
)
from qutrit_pingpong.qutrit import BASIS_LABELS, control_correlations, mub


def test_importing_information_loads_only_what_it_needs(package_env):
    code = (
        "import sys, qutrit_pingpong.information\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'qutrit_pingpong'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=package_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "qutrit_pingpong",
        "qutrit_pingpong.attack",
        "qutrit_pingpong.information",
        "qutrit_pingpong.qutrit",
    ]


def test_numpy_random_loads_at_the_first_run_not_at_import(package_env):
    # Importing numpy.random costs several milliseconds and megabytes, which a
    # command that never draws should not pay. numpy 1.x imports it itself.
    code = (
        "import sys, numpy\n"
        "print('numpy.random' in sys.modules)\n"
        "import qutrit_pingpong.cli\n"
        "print('numpy.random' in sys.modules)\n"
        "from qutrit_pingpong.protocol import ProtocolConfig, run\n"
        "run(ProtocolConfig(cycles=1, seed=0))\n"
        "print('numpy.random' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=package_env)
    assert proc.returncode == 0, proc.stderr
    by_numpy, after_import, after_run = proc.stdout.split()
    assert (after_import, after_run) == (by_numpy, "True")


_TAKES_A_LABEL = {
    "mub": mub,
    "control_correlations": control_correlations,
    "AttackOperator": lambda b: AttackOperator(np.eye(3), b),
    "complete_circulant": lambda b: complete_circulant(symmetric_column(0.3), b),
    "ColumnAttack": lambda b: ColumnAttack(b, symmetric_column(0.3)),
    "control_distribution": lambda b: control_distribution(attack_state(NoAttack(), "branch"), b),
    "detection_probability": lambda b: detection_probability(attack_state(NoAttack(), "branch"), b),
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
        lambda: assemble_rho(symmetric_column(0.3), FREQUENCY_PRESETS["uniform"]),
    ],
    ids=["AttackOperator", "DensityMatrix9"],
)
def test_array_holding_values_compare_and_hash(make):
    # Identity equality: comparing or hashing must not touch the array field.
    a, b = make(), make()
    assert (a == a) is True
    assert (a == b) is False
    assert (a != b) is True
    assert hash(a) == hash(a)
    assert len({a, b}) == 2


# Each record's constructor takes only its facts; every other field derives from them.
# RunReport's facts include the totals run tallies from the outcome counts.
_RECORD_FACTS = {
    ProtocolDescriptor: ["name", "carrier_dim", "group_size"],
    ReferenceAttack: ["a", "b", "c", "d_x", "d_z"],
    ReferenceCheck: ["row", "d_x", "d_z"],
    BasisStats: ["rounds", "detections", "predicted"],
    RunReport: [
        "config",
        "first_detection_cycle",
        "basis_stats",
        "confusion",
        "outcomes",
        "control_rounds",
        "detections",
        "correct_messages",
    ],
}


def test_records_derive_their_totals_and_verdicts_from_their_facts():
    for record, facts in _RECORD_FACTS.items():
        assert list(inspect.signature(record).parameters) == facts, record.__name__

    row = ProtocolDescriptor("Bell pairs of qutrits", 3, 2)
    assert (row.capacity_bits, row.d_max, row.d_min) == (2 * math.log2(3), Fraction(2, 3), Fraction(1, 3))
    assert list(asdict(row)) == ["name", "carrier_dim", "group_size", "capacity_bits", "d_max", "d_min"]
    for dim, group in ((1, 2), (2, 0)):
        with pytest.raises(ValueError, match="carrier dimension and group size must be at least 2 and 1"):
            ProtocolDescriptor("bad", dim, group)

    general = ReferenceAttack(0.6, 0.8, 0.0, 0.5, 0.25)
    assert not general.symmetric and ReferenceAttack(0.6, 0.4j, 0.4j, 0.5, 0.25).symmetric
    near = ReferenceCheck(general, 0.5 + 1e-5, 0.25 - 4e-5)
    assert near.deviation == max(abs(near.d_x - 0.5), abs(near.d_z - 0.25)) and near.passed
    assert not ReferenceCheck(general, 0.5, 0.25 + 1e-4).passed

    z = BasisStats(100, 30, 0.25)
    assert (z.empirical, z.three_sigma, z.within_band) == (0.3, 3.0 * math.sqrt(0.25 * 0.75 / 100), True)
    assert BasisStats(100, 50, 0.25).within_band is False
    idle = BasisStats(0, 0, 0.5)
    assert (idle.empirical, idle.three_sigma, idle.within_band) == (None, None, None)

    confusion = np.diag([2, 1, 0, 0, 0, 0, 0, 0, 1])
    confusion[0, 1] = 1
    stats = {"z": BasisStats(4, 1, 0.25), "x": BasisStats(2, 1, 0.5)}
    report = RunReport({}, 3, stats, confusion, np.zeros(11, dtype=np.uint8), 6, 2, 4)
    totals = (report.cycles, report.control_rounds, report.message_rounds, report.detections)
    assert totals == (11, 6, 5, 2)
    assert report.correct_messages == 4
    assert report.rounds_to_detection == rounds_for_confidence(2 / 6)
    assert "outcomes" not in report.as_dict() and report.as_dict()["message_rounds"] == 5
    quiet_stats = {"z": BasisStats(3, 0, 0.0), "x": idle}
    quiet = RunReport({}, None, quiet_stats, confusion, np.zeros(8, dtype=np.uint8), 3, 0, 4)
    assert (quiet.detections, quiet.rounds_to_detection) == (0, None)
