"""Full-state protocol simulator.

Tracks the complete 81-amplitude joint state of the home qutrit, the
travelling qutrit and a 9-level probe ancilla. Message cycles apply a
coding operation to the travelling qutrit and decode by projecting onto
the entangled pair basis; control cycles measure both qutrits in paired
bases (qutrit.CONTROL_MAPS) and flag any pair outside qutrit.HONEST_PAIRS.
The post-attack amplitudes are one contraction of the ready state with the
attack's isometry (attack.isometry), on operands built once per basis at
import; attack_state returns them read-only, after the one check of a
post-attack state, its shape and norm, which the readers
detection_probability, control_distribution and decode_distribution apply
to the amplitudes they are given. That state is the same every cycle, so
each cycle is one draw from the exact Born distribution over 99 outcome
codes (a control pair in a basis, or a sent and a decoded bigram). run
builds it once per run and reads everything that depends only on the
layout of the codes through maps built at import, so a run does only the
work its config and its draws need; run's docstring lists the steps, the
report's totals among them. A run keeps one outcome byte per cycle; the
report's counts and the CSV transcript are both derived from those bytes.
The sampler and the transcript writer both work in blocks of at most
_BLOCK = 2**12 cycles; each transcript row is its cycle number and one row
of a 99-entry tail table built once, at import.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .attack import (
    ANCILLA_DIM,
    AttackSpec,
    NoAttack,
    attack_from_dict,
    attack_to_dict,
    check_ancilla,
    check_basis_weights,
    is_finite_real,
    isometry,
    read_json,
    reject_extra_fields,
)
from .information import FREQUENCY_PRESETS, FrequencyTable, frequency_table_from_dict, frequency_table_to_dict
from .qutrit import (
    BASIS_LABELS,
    BELL_STATES,
    CODING_UNITARIES,
    CONTROL_MAPS,
    HONEST_PAIRS,
    _pair_index,
    check_basis,
    mub,
)

_STATE_NORM_TOL = 1e-10


def _attack_operands(label: str) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (M, ready) of basis label: M = mub(label) and the ready block, the shared pair
    bell_state(0, 0) with the probe ancilla in slot 0, in M's coordinates: ready[h, n] = the amplitude on
    home h and travel basis vector n of M."""
    m = mub(label)
    ready = BELL_STATES[0] @ m.conj()
    ready.setflags(write=False)
    return m, ready


# The operands of every attack contraction, one pair per basis, shared by all runs.
_ATTACK_OPERANDS = {label: _attack_operands(label) for label in BASIS_LABELS}


# The simulator mixes control rounds in the first two bases only.
CONTROL_BASES = BASIS_LABELS[:2]
_MESSAGE_CODE = 9 * len(CONTROL_BASES)
_N_CODES = _MESSAGE_CODE + 81

# outcome[c, 3h + t] maps the (home, travel) pair to outcome code c: the
# control rows of CONTROL_BASES, then for each bigram k the nine rows
# _MESSAGE_CODE + 9k + out that code with k and read out.
_OUTCOME_MAP = np.vstack(
    [
        CONTROL_MAPS[: len(CONTROL_BASES)].reshape(_MESSAGE_CODE, 9),
        np.einsum("oht,kts->kohs", BELL_STATES.conj(), CODING_UNITARIES).reshape(81, 9),
    ]
)
_OUTCOME_MAP.setflags(write=False)


def _checked_amps(amps) -> np.ndarray:
    """amps as an array, after the one check of a post-attack state: shape (3, 3, ANCILLA_DIM) and a
    squared norm within _STATE_NORM_TOL of 1, which NaN and inf fail."""
    amps = np.asarray(amps)
    if amps.shape != (3, 3, ANCILLA_DIM):
        raise ValueError(f"joint state must have shape (3, 3, {ANCILLA_DIM}), got {amps.shape}")
    norm = float(np.vdot(amps, amps).real)
    if not abs(norm - 1.0) <= _STATE_NORM_TOL:
        raise ValueError(f"joint state must be normalized, squared norm {norm!r}")
    return amps


def _born(amplitude_map: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """Born probabilities of the outcomes a map's rows project on, summed over the ancilla of (3, 3, 9) amps."""
    return (np.abs(amplitude_map @ amps.reshape(9, ANCILLA_DIM)) ** 2).sum(axis=-1)


def _detections(honest: np.ndarray) -> list[float]:
    """Detection probability of each row of an (r, 3) array that holds the probabilities of the three pairs an
    honest channel gives in one control basis: one minus the row's sum, floored at 0."""
    return np.maximum(0.0, 1.0 - honest.sum(axis=1)).tolist()


def control_distribution(amps: np.ndarray, alice_basis: str) -> np.ndarray:
    """Joint control-round distribution of attack_state's amplitudes amps for a travel-side basis choice.

    joint[a, b] is the probability that the receiver sees a on the
    travelling qutrit and the sender sees b on the home qutrit, measured
    in the partner basis (CONTROL_MAPS).
    """
    return _born(CONTROL_MAPS[BASIS_LABELS.index(check_basis(alice_basis))], _checked_amps(amps)).reshape(3, 3)


def detection_probability(amps: np.ndarray, alice_basis: str) -> float:
    """Exact probability that one control round in this basis flags the channel, from attack_state's amps.

    One minus the mass of the outcome pairs an honest channel gives.
    """
    s = BASIS_LABELS.index(check_basis(alice_basis))
    control = _born(CONTROL_MAPS[s : s + 1], _checked_amps(amps))
    return _detections(control[HONEST_PAIRS[s : s + 1]].reshape(1, 3))[0]


def decode_distribution(amps: np.ndarray, bigram: tuple[int, int]) -> np.ndarray:
    """Receiver-side decode distribution of attack_state's amplitudes amps after encoding the given bigram.

    Returns the nine probabilities of reading entangled-pair outcome
    (i, j), flattened as 3i + j. Without an attack the distribution is a
    point mass on the encoded bigram.
    """
    try:
        i, j = bigram
    except (TypeError, ValueError):
        raise ValueError(f"bigram must be a pair (i, j), got {bigram!r}") from None
    start = _MESSAGE_CODE + 9 * _pair_index(i, j)
    return _born(_OUTCOME_MAP[start : start + 9], _checked_amps(amps))


@dataclass(frozen=True)
class ProtocolConfig:
    """Run parameters for the simulator.

    q is the probability a cycle is a control cycle; basis_weights splits
    control cycles between the computational and phase bases. The ancilla
    mode selects how a column attack acts: "branch" entangles a probe,
    "none" applies a circulant unitary completion to the travel qutrit.
    """

    cycles: int
    seed: int
    freq: FrequencyTable = FREQUENCY_PRESETS["uniform"]
    attack: AttackSpec = field(default_factory=NoAttack)
    q: float = 0.25
    basis_weights: tuple[float, float] = (0.5, 0.5)
    ancilla: str = "branch"

    def __post_init__(self):
        if not isinstance(self.cycles, int) or isinstance(self.cycles, bool) or self.cycles < 1:
            raise ValueError(f"cycles must be a positive integer, got {self.cycles!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not isinstance(self.freq, FrequencyTable):
            raise ValueError("freq must be a FrequencyTable")
        if not isinstance(self.attack, AttackSpec):
            raise ValueError(f"not an attack specification: {self.attack!r}")
        if not (is_finite_real(self.q) and 0.0 <= self.q <= 1.0):
            raise ValueError(f"q must be a number in [0, 1], got {self.q!r}")
        object.__setattr__(self, "q", float(self.q))
        object.__setattr__(self, "basis_weights", check_basis_weights(self.basis_weights))
        check_ancilla(self.ancilla)

    def to_dict(self) -> dict:
        """The config as JSON values, in field order; from_dict reads it back."""
        return {
            **vars(self),
            "freq": frequency_table_to_dict(self.freq),
            "attack": attack_to_dict(self.attack),
            "basis_weights": list(self.basis_weights),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ProtocolConfig":
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        reject_extra_fields(data, {f.name for f in fields(cls)}, "config")
        for name in ("cycles", "seed"):
            if name not in data:
                raise ValueError(f"config needs a {name!r} field")
        kwargs = dict(data)
        if "freq" in data:
            kwargs["freq"] = frequency_table_from_dict(data["freq"], "freq")
        if "attack" in data:
            kwargs["attack"] = attack_from_dict(data["attack"])
        return cls(**kwargs)


def load_protocol_config(path) -> ProtocolConfig:
    return ProtocolConfig.from_dict(read_json(path, "config file"))


def attack_state(attack: AttackSpec, ancilla: str) -> np.ndarray:
    """Read-only (3, 3, 9) amplitudes of (home, travel, ancilla) after the attack touches the travelling
    qutrit once, in ancilla mode "branch" or "none".

    One contraction for every attack, with (M, ready) the operands of
    attack.basis built at import and V = isometry(attack, ancilla):
    amplitude (h, t, slot) is the sum over m and n of
    M[t, m] V[m, slot, n] ready[h, n], where M = mub(attack.basis) and
    ready[h, n] is the ready state's amplitude on home h and travel basis
    vector n of M. The amplitudes pass _checked_amps, the check that the
    readers of a post-attack state also apply.
    """
    m, ready = _ATTACK_OPERANDS[attack.basis]
    amps = _checked_amps(np.einsum("tm,man,hn->hta", m, isometry(attack, ancilla), ready))
    amps.setflags(write=False)
    return amps


# Index maps over the outcome codes that run reads its tallies through.
# _FORBIDDEN marks a control pair an honest channel never gives, as a mask and
# as 0/1 counts. Row s of _HONEST_CODES holds the codes 9s + 3a + b of the three
# pairs an honest channel gives in basis CONTROL_BASES[s], in row order.
# _TALLIES @ counts is [rounds per basis, caught per basis, correct messages]: a
# basis row sums its nine control codes or only its forbidden ones, and the last
# row the codes 18 + 10k that decoded bigram k as sent.
_HONEST_CONTROL = HONEST_PAIRS[: len(CONTROL_BASES)]
_FORBIDDEN = np.append(~_HONEST_CONTROL, np.zeros(_N_CODES - _MESSAGE_CODE, dtype=bool))
_FORBIDDEN.setflags(write=False)
_FORBIDDEN_COUNTS = _FORBIDDEN.astype(np.int64)
_FORBIDDEN_COUNTS.setflags(write=False)
_HONEST_CODES = np.flatnonzero(_HONEST_CONTROL).reshape(len(CONTROL_BASES), 3)
_HONEST_CODES.setflags(write=False)
_BASIS_CODES = (np.arange(_N_CODES) // 9 == np.arange(len(CONTROL_BASES))[:, None]).astype(np.int64)
_CORRECT_CODES = np.isin(np.arange(_N_CODES), _MESSAGE_CODE + 10 * np.arange(9))
_TALLIES = np.vstack([_BASIS_CODES, _BASIS_CODES * _FORBIDDEN_COUNTS, _CORRECT_CODES])
_TALLIES.setflags(write=False)
del _BASIS_CODES, _CORRECT_CODES


TRANSCRIPT_HEADER = "cycle,mode,basis,alice,bob,detected,sent,decoded"


def _row_tails() -> np.ndarray:
    """Read-only (99, 19) uint8 table: "," + the 17-character row tail of each code + newline.

    Every tail has the same width, control,z,0,1,1,, as well as
    message,,,,,00,11, so a row is its cycle number followed by one row
    of this table.
    """
    tails = [
        f"control,{basis},{a},{b},{int(_FORBIDDEN[9 * s + 3 * a + b])},,"
        for s, basis in enumerate(CONTROL_BASES) for a in range(3) for b in range(3)
    ]
    bigrams = [f"{i}{j}" for i in range(3) for j in range(3)]
    tails += [f"message,,,,,{sent},{decoded}" for sent in bigrams for decoded in bigrams]
    return np.frombuffer("".join(f",{tail}\n" for tail in tails).encode("ascii"), dtype=np.uint8).reshape(
        _N_CODES, 19
    )


_ROW_TAILS = _row_tails()

# Cycles per block, in run's sampler and in write_transcript alike, so that the
# temporaries of each stay those of one block. At 2**16 the writer's temporaries
# raised the peak RSS of a 1e5-cycle `simulate` by about 10%.
_BLOCK = 2**12


def write_transcript(outcomes, path) -> None:
    """Write a run's outcome codes (RunReport.outcomes) as a CSV transcript.

    One row per cycle, numbered from 1; bigrams appear as two-digit strings,
    and a control row is detected when an honest channel never gives its
    outcome pair. Rows are written as bytes in blocks of at most _BLOCK
    cycles whose numbers have the same digit count w: each block is one
    (n, w + 19) uint8 array, the digits by integer arithmetic and the rest
    of each row from the tail table built at import.
    """
    codes = np.asarray(outcomes, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(TRANSCRIPT_HEADER.encode("ascii") + b"\n")
        start = 0
        while start < codes.size:
            width = len(str(start + 1))
            stop = min(codes.size, start + _BLOCK, 10**width - 1)
            rows = np.empty((stop - start, width + _ROW_TAILS.shape[1]), dtype=np.uint8)
            cycle = np.arange(start + 1, stop + 1, dtype=np.int64)
            for column in range(width - 1, -1, -1):
                rows[:, column] = ord("0") + cycle % 10
                cycle //= 10
            rows[:, width:] = _ROW_TAILS[codes[start:stop]]
            fh.write(rows)
            start = stop


def rounds_for_confidence(d: float, target: float = 0.99) -> int:
    """Fewest control rounds that reach the target detection confidence.

    Solves for the smallest r with 1 - (1 - d)^r >= target, evaluated as
    -expm1(r * log1p(-d)) so that a tiny d is not lost in 1 - d; one round
    gives exactly d, so d >= target needs no logarithm at all. A
    non-positive d means an undetectable attack, which is an error here, as
    is a d above 1 or one needing more than 2**53 rounds, beyond which a
    float no longer tells r from r + 1.
    """
    if not is_finite_real(d):
        raise ValueError(f"detection probability must be a finite number, got {d!r}")
    if not (is_finite_real(target) and 0.0 < target < 1.0):
        raise ValueError(f"confidence target must lie in (0, 1), got {target!r}")
    if d <= 0.0:
        raise ValueError("undetectable attack: detection probability must be positive")
    if d > 1.0:
        raise ValueError(f"detection probability must not exceed 1, got {d!r}")
    if d >= target:
        return 1
    step = math.log1p(-d)
    estimate = math.log1p(-target) / step
    if not estimate <= 2.0**53:
        raise ValueError(f"detection probability {d!r} is too small: the round count exceeds 2**53")
    r = max(1, math.ceil(estimate))
    while -math.expm1(r * step) < target:
        r += 1
    while r > 1 and -math.expm1((r - 1) * step) >= target:
        r -= 1
    return r


@dataclass(frozen=True)
class BasisStats:
    """Control statistics for one basis, with the exact prediction attached. The
    empirical rate, its 3-sigma band and within_band derive; None without rounds."""

    rounds: int
    detections: int
    predicted: float
    empirical: float | None = field(init=False, default=None)
    three_sigma: float | None = field(init=False, default=None)
    within_band: bool | None = field(init=False, default=None)

    def __post_init__(self):
        if self.rounds > 0:
            emp = self.detections / self.rounds
            band = 3.0 * math.sqrt(self.predicted * (1.0 - self.predicted) / self.rounds)
            object.__setattr__(self, "empirical", emp)
            object.__setattr__(self, "three_sigma", band)
            object.__setattr__(self, "within_band", abs(emp - self.predicted) <= band)


@dataclass(frozen=True, eq=False)
class RunReport:
    """Everything a simulation run produces.

    outcomes is a read-only uint8 array with one code per cycle: 9s + 3a + b
    for a control round in basis CONTROL_BASES[s] with results a and b,
    18 + 9k + out for a message round that sent bigram k and decoded out.
    Every count derives from it: the run passes the per-basis statistics, the
    confusion matrix and its totals control_rounds, detections and
    correct_messages, and the report derives the rest from those.
    write_transcript turns outcomes into the CSV transcript, and as_dict
    and to_json leave it out.
    """

    config: dict
    first_detection_cycle: int | None
    basis_stats: dict
    confusion: np.ndarray
    outcomes: np.ndarray
    cycles: int = field(init=False)
    control_rounds: int
    message_rounds: int = field(init=False)
    detections: int
    correct_messages: int
    rounds_to_detection: int | None = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "cycles", self.outcomes.size)
        object.__setattr__(self, "message_rounds", self.outcomes.size - self.control_rounds)
        rtd = rounds_for_confidence(self.detections / self.control_rounds) if self.detections else None
        object.__setattr__(self, "rounds_to_detection", rtd)

    def as_dict(self) -> dict:
        """Every field but outcomes, as JSON values."""
        report = {
            **vars(self),
            "basis_stats": {basis: asdict(s) for basis, s in self.basis_stats.items()},
            "confusion": self.confusion.tolist(),
        }
        del report["outcomes"]
        return report

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)


def _cdf(probs: np.ndarray) -> np.ndarray:
    """Cumulative table of a distribution that ends at exactly 1.0.

    Dividing by the last entry, not by a separately summed total, keeps a
    uniform draw in [0, 1) from landing past the last nonzero entry.
    Generator.choice(p=...) draws the same codes but re-checks p on every
    call and was slower on a shared 2-vCPU machine: 32 against 18 us for
    200 cycles, 353 against 304 us for 4096, this table's build included.
    """
    cum = probs.cumsum()
    cum /= cum[-1]
    return cum


def run(config: ProtocolConfig) -> RunReport:
    """Simulate the protocol and report its statistics.

    Each cycle is one draw from the exact 99-outcome distribution, built
    once per run. The steps of a run:

    1. a PCG64 generator seeded with config.seed;
    2. one Born table from attack_state(config.attack, config.ancilla),
       which checks the amplitudes' norm, by one product with the stacked
       99-row outcome map;
    3. the eleven block weights, written into one vector: the nine control
       codes of basis CONTROL_BASES[s] weigh q * basis_weights[s] and the
       nine message codes of bigram k weigh (1 - q) * f_k, so an outcome
       that a zero weight rules out is exactly zero; one broadcast product
       weights the table, and _cdf makes its cumulative table;
    4. cycles drawn in blocks of at most _BLOCK, one uniform per cycle
       inverted through the cumulative table. PCG64 draws the same uniforms
       however they are split into blocks, so the block size changes no
       outcome. Each block's codes are counted as they are drawn, so memory
       beyond one byte per cycle stays that of one block; until a detection
       is found, the integer product of a block's counts with
       _FORBIDDEN_COUNTS tells whether the block holds one;
    5. the integer map _TALLIES turns the counts into each basis's rounds
       and caught detections and the correct messages, as Python ints, and
       the gather _HONEST_CODES of the table's honest control entries gives
       both predicted detections, summed as detection_probability sums them;
    6. the report, with the config as JSON values and the totals of step 5.

    Identical configs reproduce identical reports.
    """
    rng = np.random.Generator(np.random.PCG64(config.seed))
    table = _born(_OUTCOME_MAP, attack_state(config.attack, config.ancilla))
    q = config.q
    weights = np.empty((_N_CODES // 9, 1))  # one per block of nine codes
    weights[: len(CONTROL_BASES), 0] = [q * w for w in config.basis_weights]
    weights[len(CONTROL_BASES) :, 0] = (1.0 - q) * config.freq.p.ravel()
    cum = _cdf((table.reshape(weights.size, 9) * weights).ravel())

    codes = np.empty(config.cycles, dtype=np.uint8)
    counts = np.zeros(_N_CODES, dtype=np.int64)
    first_detection = None
    for start in range(0, config.cycles, _BLOCK):
        block = codes[start : start + _BLOCK]
        block[:] = cum.searchsorted(rng.random(block.size), side="right")
        block_counts = np.bincount(block, minlength=_N_CODES)
        if first_detection is None and block_counts @ _FORBIDDEN_COUNTS:
            first_detection = start + int(_FORBIDDEN[block].argmax()) + 1
        counts += block_counts
    codes.setflags(write=False)

    *per_basis, correct = (_TALLIES @ counts).tolist()
    rounds, caught = per_basis[: len(CONTROL_BASES)], per_basis[len(CONTROL_BASES) :]
    confusion = counts[_MESSAGE_CODE:].reshape(9, 9)
    predicted = _detections(table[_HONEST_CODES])
    basis_stats = {
        basis: BasisStats(*stats) for basis, *stats in zip(CONTROL_BASES, rounds, caught, predicted)
    }
    totals = sum(rounds), sum(caught), correct
    return RunReport(config.to_dict(), first_detection, basis_stats, confusion, codes, *totals)
