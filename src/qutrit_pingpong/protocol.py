"""Full-state protocol simulator.

Tracks the complete 81-amplitude joint state of the home qutrit, the
travelling qutrit and a 9-level probe ancilla. Message cycles apply a
coding operation to the travelling qutrit and decode by projecting onto
the entangled pair basis; control cycles measure both qutrits in paired
bases and flag any disallowed outcome pair. Attacks enter either as a
circulant unitary on the travelling qutrit alone or as an
entangling-probe branching map. The post-attack state is the same every
cycle, so each cycle is one draw from the exact Born distribution over 99
outcome codes (a control pair in a basis, or a sent and a decoded
bigram), computed once per run; runs sample it in numpy blocks by
inverting its cumulative table. A run keeps one outcome byte per cycle;
the report's counts and the CSV transcript are both derived from those
bytes. The transcript is written as byte rows in blocks of at most 2**12
cycles, each row its cycle number and one row of a 99-entry tail table
built once, at import.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .attack import (
    AttackSpec,
    ColumnAttack,
    NoAttack,
    SymmetricAttack,
    attack_from_dict,
    attack_to_dict,
    check_basis_weights,
    circulant,
    complete_circulant,
    is_finite_real,
    read_json,
    reject_extra_fields,
)
from .information import FREQUENCY_PRESETS, FrequencyTable, frequency_table_from_rows
from .qutrit import (
    BASIS_LABELS,
    BELL_STATES,
    CODING_UNITARIES,
    _pair_index,
    bell_state,
    check_basis,
    control_correlations,
    frozen_array,
    mub,
)

ANCILLA_DIM = 9

_STATE_NORM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class JointState:
    """Pure state of (home, travel, ancilla) as a (3, 3, 9) amplitude array."""

    amps: np.ndarray

    def __post_init__(self):
        arr = frozen_array(self.amps, (3, 3, ANCILLA_DIM), "joint state")
        norm = float((np.abs(arr) ** 2).sum())
        if abs(norm - 1.0) > _STATE_NORM_TOL:
            raise ValueError(f"joint state must be normalized, squared norm {norm!r}")
        object.__setattr__(self, "amps", arr)


_READY = JointState(np.multiply.outer(bell_state(0, 0), np.eye(ANCILLA_DIM)[0]))


def initial_state() -> JointState:
    """Shared entangled pair with the probe ancilla parked in its ready slot (built once, at import)."""
    return _READY


def apply_travel_unitary(state: JointState, u: np.ndarray) -> JointState:
    """Apply the 3x3 unitary u to the travelling qutrit; JointState checks the result's norm."""
    return JointState(np.einsum("ts,hsn->htn", u, state.amps))


def apply_branch_attack(state: JointState, e: np.ndarray, basis: str = "z") -> JointState:
    """Entangling-probe attack, with its coefficients given in a measuring basis.

    e[m, n] is the amplitude for rewriting vector n of the basis into
    vector m; the probe remembers the (n, m) branch in pointer slot 3n + m.
    Each column of e must be a unit vector (the map is then an isometry; e
    itself need not be unitary). The ancilla must still be in its ready slot.
    """
    e = frozen_array(e, (3, 3), "branch coefficients")
    col_norms = (np.abs(e) ** 2).sum(axis=0)
    if np.abs(col_norms - 1.0).max() > 1e-9:
        raise ValueError(f"branch columns must be unit vectors, squared norms {col_norms.tolist()}")
    occupied = float((np.abs(state.amps[:, :, 1:]) ** 2).sum())
    if occupied > _STATE_NORM_TOL:
        raise ValueError("ancilla is no longer in its ready slot; cannot attack twice")
    m = mub(basis)
    ready = state.amps[:, :, 0] @ m.conj()
    return JointState(np.einsum("tm,mn,hn->htnm", m, e, ready).reshape(3, 3, ANCILLA_DIM))


def _outcome_maps() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Amplitude maps from the (home, travel) pair h, t to each outcome, with the honest pairs.

    control[s, 3a + b, 3h + t] reads t as a in basis BASIS_LABELS[s] and h as
    b in its partner basis, and allowed[s, a, b] marks the pairs an honest
    channel gives; decode[k, out, 3h + t] codes with bigram k, then reads out.
    """
    pairs = [control_correlations(basis) for basis in BASIS_LABELS]
    alice = np.stack([mub(p.alice_basis) for p in pairs])
    bob = np.stack([mub(p.bob_basis) for p in pairs])
    control = np.einsum("sta,shb->sabht", alice.conj(), bob.conj()).reshape(len(pairs), 9, 9)
    allowed = np.array([[[(a, b) in p.allowed_pairs() for b in range(3)] for a in range(3)] for p in pairs])
    decode = np.einsum("oht,kts->kohs", BELL_STATES.conj(), CODING_UNITARIES).reshape(9, 9, 9)
    for arr in (control, allowed, decode):
        arr.setflags(write=False)
    return control, allowed, decode


_CONTROL_MAP, _ALLOWED, _DECODE_MAP = _outcome_maps()


def _born(amplitude_map: np.ndarray, state: JointState) -> np.ndarray:
    """Born probabilities of the outcomes a map's rows project on, summed over the ancilla."""
    return (np.abs(amplitude_map @ state.amps.reshape(9, ANCILLA_DIM)) ** 2).sum(axis=-1)


def control_distribution(state: JointState, alice_basis: str) -> np.ndarray:
    """Joint control-round distribution for a travel-side basis choice.

    joint[a, b] is the probability that the receiver sees a on the
    travelling qutrit and the sender sees b on the home qutrit, measured
    in the partner basis of control_correlations(alice_basis).
    """
    return _born(_CONTROL_MAP[BASIS_LABELS.index(check_basis(alice_basis))], state).reshape(3, 3)


def detection_probability(state: JointState, alice_basis: str) -> float:
    """Exact probability that one control round in this basis flags the channel.

    One minus the mass of the outcome pairs an honest channel gives.
    """
    joint = control_distribution(state, alice_basis)
    return max(0.0, 1.0 - float(joint[_ALLOWED[BASIS_LABELS.index(alice_basis)]].sum()))


def decode_distribution(state: JointState, bigram: tuple[int, int]) -> np.ndarray:
    """Receiver-side decode distribution after encoding the given bigram.

    Returns the nine probabilities of reading entangled-pair outcome
    (i, j), flattened as 3i + j. Without an attack the distribution is a
    point mass on the encoded bigram.
    """
    return _born(_DECODE_MAP[_pair_index(*bigram)], state)


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
    freq: FrequencyTable = field(default_factory=FrequencyTable.uniform)
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
        if not isinstance(self.attack, (NoAttack, SymmetricAttack, ColumnAttack)):
            raise ValueError(f"not an attack specification: {self.attack!r}")
        if not (is_finite_real(self.q) and 0.0 <= self.q <= 1.0):
            raise ValueError(f"q must be a number in [0, 1], got {self.q!r}")
        object.__setattr__(self, "q", float(self.q))
        object.__setattr__(self, "basis_weights", check_basis_weights(self.basis_weights))
        if self.ancilla not in ("branch", "none"):
            raise ValueError(f"ancilla mode must be 'branch' or 'none', got {self.ancilla!r}")

    def to_dict(self) -> dict:
        return {
            "cycles": self.cycles,
            "seed": self.seed,
            "freq": {"p": [[float(x) for x in row] for row in self.freq.p]},
            "attack": attack_to_dict(self.attack),
            "q": self.q,
            "basis_weights": list(self.basis_weights),
            "ancilla": self.ancilla,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ProtocolConfig":
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        known = {"cycles", "seed", "freq", "attack", "q", "basis_weights", "ancilla"}
        reject_extra_fields(data, known, "config")
        for name in ("cycles", "seed"):
            if name not in data:
                raise ValueError(f"config needs a {name!r} field")
        freq = FrequencyTable.uniform()
        if "freq" in data:
            spec = data["freq"]
            if isinstance(spec, dict) and set(spec) == {"preset"}:
                name = spec["preset"]
                if not isinstance(name, str) or name not in FREQUENCY_PRESETS:
                    raise ValueError(
                        f"unknown frequency preset {name!r}; choose from {sorted(FREQUENCY_PRESETS)}"
                    )
                freq = FREQUENCY_PRESETS[name]
            elif isinstance(spec, dict) and set(spec) == {"p"}:
                freq = frequency_table_from_rows(spec["p"], "freq.p")
            else:
                raise ValueError("freq must be {'preset': name} or {'p': 3x3 array}")
        attack: AttackSpec = NoAttack()
        if "attack" in data:
            attack = attack_from_dict(data["attack"])
        kwargs = {name: data[name] for name in ("q", "basis_weights", "ancilla") if name in data}
        return cls(cycles=data["cycles"], seed=data["seed"], freq=freq, attack=attack, **kwargs)


def load_protocol_config(path) -> ProtocolConfig:
    return ProtocolConfig.from_dict(read_json(path, "config file"))


def attack_state(attack: AttackSpec, ancilla: str) -> JointState:
    """Joint state after the attack touches the travelling qutrit once, in ancilla mode "branch" or "none"."""
    if isinstance(attack, NoAttack):
        return initial_state()
    if isinstance(attack, SymmetricAttack):
        column, basis = attack.column(), "z"
    else:
        column, basis = attack.column, attack.basis
    if ancilla == "branch":
        return apply_branch_attack(initial_state(), circulant(column.as_array()), basis)
    op = complete_circulant(column, representation=basis)
    m = mub(basis)
    return apply_travel_unitary(initial_state(), m @ op.m @ m.conj().T)


# The simulator mixes control rounds in the first two bases only.
CONTROL_BASES = BASIS_LABELS[:2]
_MESSAGE_CODE = 18
_N_CODES = 99

# Mask over the outcome codes: True for a control pair an honest channel never gives.
_FORBIDDEN = np.append(~_ALLOWED[: len(CONTROL_BASES)], np.zeros(_N_CODES - _MESSAGE_CODE, dtype=bool))
_FORBIDDEN.setflags(write=False)


def outcome_distribution(config: ProtocolConfig, state: JointState) -> np.ndarray:
    """Probability of each of the 99 outcome codes in one cycle of a run.

    Code 9s + 3a + b, a control round in basis CONTROL_BASES[s] with
    results a and b, has probability q * basis_weights[s] * joint_s[a, b];
    code 18 + 9k + out, a message round that sent bigram k and decoded out,
    has probability (1 - q) * f_k * decode_k[out]. An outcome that a zero
    q, basis weight or bigram frequency rules out is exactly zero.
    """
    control = _born(_CONTROL_MAP[: len(CONTROL_BASES)], state)
    weights = np.append(config.q * np.array(config.basis_weights), (1.0 - config.q) * config.freq.p)
    return (weights[:, None] * np.vstack([control, _born(_DECODE_MAP, state)])).ravel()


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

# Cycles written per block. The writer's temporaries stay those of one block;
# at 2**16 they raised the peak RSS of a 1e5-cycle `simulate` by about 10%.
_TRANSCRIPT_BLOCK = 2**12


def write_transcript(outcomes, path) -> None:
    """Write a run's outcome codes (RunReport.outcomes) as a CSV transcript.

    One row per cycle, numbered from 1; bigrams appear as two-digit strings,
    and a control row is detected when an honest channel never gives its
    outcome pair. Rows are written as bytes in blocks of at most 2**12
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
            stop = min(codes.size, start + _TRANSCRIPT_BLOCK, 10**width - 1)
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
    """Control statistics for one basis, with the exact prediction attached."""

    rounds: int
    detections: int
    predicted: float
    empirical: float | None
    three_sigma: float | None
    within_band: bool | None


@dataclass(frozen=True, eq=False)
class RunReport:
    """Everything a simulation run produces.

    outcomes is a read-only uint8 array with one code per cycle: 9s + 3a + b
    for a control round in basis CONTROL_BASES[s] with results a and b,
    18 + 9k + out for a message round that sent bigram k and decoded out.
    Every count here derives from it, write_transcript turns it into the
    CSV transcript, and as_dict and to_json leave it out.
    """

    config: dict
    cycles: int
    control_rounds: int
    message_rounds: int
    detections: int
    first_detection_cycle: int | None
    basis_stats: dict
    confusion: np.ndarray
    correct_messages: int
    rounds_to_detection: int | None
    outcomes: np.ndarray

    def as_dict(self) -> dict:
        stats = {basis: asdict(s) for basis, s in self.basis_stats.items()}
        return {
            "config": self.config,
            "cycles": self.cycles,
            "control_rounds": self.control_rounds,
            "message_rounds": self.message_rounds,
            "detections": self.detections,
            "first_detection_cycle": self.first_detection_cycle,
            "basis_stats": stats,
            "confusion": [[int(x) for x in row] for row in self.confusion],
            "correct_messages": self.correct_messages,
            "rounds_to_detection": self.rounds_to_detection,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)


# Cycles sampled per numpy call: the sampler's temporary memory stays that of one block.
_BLOCK = 2**16


def _cdf(probs: np.ndarray) -> np.ndarray:
    """Cumulative table of a distribution that ends at exactly 1.0.

    Dividing by the last entry, not by a separately summed total, keeps a
    uniform draw in [0, 1) from landing past the last nonzero entry.
    """
    cum = np.cumsum(probs)
    cum /= cum[-1]
    return cum


def run(config: ProtocolConfig) -> RunReport:
    """Simulate the protocol and report its statistics.

    Each cycle is one draw from the exact 99-outcome distribution
    (outcome_distribution), built once per run from the post-attack state.
    Cycles are drawn in blocks of at most 2**16, one uniform per cycle
    inverted through the cumulative table; each block's codes are counted
    as they are drawn, so memory beyond one byte per cycle stays that of
    one block. Identical configs reproduce identical reports.
    """
    rng = np.random.Generator(np.random.PCG64(config.seed))
    state = attack_state(config.attack, config.ancilla)
    cum = _cdf(outcome_distribution(config, state))

    codes = np.empty(config.cycles, dtype=np.uint8)
    counts = np.zeros(_N_CODES, dtype=np.int64)
    first_detection = None
    for start in range(0, config.cycles, _BLOCK):
        block = codes[start : start + _BLOCK]
        block[:] = np.searchsorted(cum, rng.random(block.size), side="right")
        block_counts = np.bincount(block, minlength=_N_CODES)
        if first_detection is None and block_counts[_FORBIDDEN].any():
            first_detection = start + int(_FORBIDDEN[block].argmax()) + 1
        counts += block_counts
    codes.setflags(write=False)

    control = counts[:_MESSAGE_CODE].reshape(2, 9)
    rounds = control.sum(axis=1).tolist()
    caught = (control * _FORBIDDEN[:_MESSAGE_CODE].reshape(2, 9)).sum(axis=1).tolist()
    confusion = counts[_MESSAGE_CODE:].reshape(9, 9)

    basis_stats = {}
    for basis, n, hits in zip(CONTROL_BASES, rounds, caught):
        p = detection_probability(state, basis)
        if n > 0:
            emp = hits / n
            band = 3.0 * math.sqrt(p * (1.0 - p) / n)
            basis_stats[basis] = BasisStats(n, hits, p, emp, band, abs(emp - p) <= band)
        else:
            basis_stats[basis] = BasisStats(0, 0, p, None, None, None)

    total_control, detections = sum(rounds), sum(caught)
    rtd = rounds_for_confidence(detections / total_control) if detections else None

    return RunReport(
        config=config.to_dict(),
        cycles=config.cycles,
        control_rounds=total_control,
        message_rounds=config.cycles - total_control,
        detections=detections,
        first_detection_cycle=first_detection,
        basis_stats=basis_stats,
        confusion=confusion,
        correct_messages=int(np.trace(confusion)),
        rounds_to_detection=rtd,
        outcomes=codes,
    )
