"""Full-state protocol simulator.

Tracks the complete 81-amplitude joint state of the home qutrit, the
travelling qutrit and a 9-level probe ancilla. Message cycles apply a
coding operation to the travelling qutrit and decode by projecting onto
the entangled pair basis; control cycles measure both qutrits in paired
bases and flag any disallowed outcome pair. Attacks enter either as a
circulant unitary on the travelling qutrit alone or as an
entangling-probe branching map. All outcome distributions are exact Born
probabilities; sampling inverts their cumulative sums. A run keeps one
outcome byte per cycle; the report's counts and the CSV transcript are
both derived from those bytes after the sampling loop.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import asdict, dataclass, field

import numpy as np

from .attack import (
    AttackSpec,
    ColumnAttack,
    NoAttack,
    SymmetricAttack,
    attack_from_dict,
    attack_to_dict,
    circulant,
    complete_circulant,
    is_finite_real,
)
from .information import FREQUENCY_PRESETS, FrequencyTable, frequency_table_from_rows
from .qutrit import (
    BASIS_LABELS,
    BELL_STATES,
    Unitary3,
    bell_state,
    coding_unitary,
    control_correlations,
    mub,
)

ANCILLA_DIM = 9

_STATE_NORM_TOL = 1e-10


@dataclass(frozen=True)
class JointState:
    """Pure state of (home, travel, ancilla) as a (3, 3, 9) amplitude array."""

    amps: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.amps, dtype=np.complex128)
        if arr.shape != (3, 3, ANCILLA_DIM):
            raise ValueError(f"joint state must have shape (3, 3, 9), got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("joint state amplitudes must be finite")
        norm = float((np.abs(arr) ** 2).sum())
        if abs(norm - 1.0) > _STATE_NORM_TOL:
            raise ValueError(f"joint state must be normalized, squared norm {norm!r}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "amps", arr)


def initial_state() -> JointState:
    """Shared entangled pair with the probe ancilla parked in its ready slot."""
    amps = np.zeros((3, 3, ANCILLA_DIM), dtype=np.complex128)
    amps[:, :, 0] = bell_state(0, 0)
    return JointState(amps)


def apply_travel_unitary(state: JointState, u: Unitary3) -> JointState:
    return JointState(np.einsum("ts,hsn->htn", u.m, state.amps))


def apply_branch_attack(state: JointState, e: np.ndarray) -> JointState:
    """Entangling-probe attack in computational coordinates.

    e[m, n] is the amplitude for rewriting travel state n into m; the probe
    remembers the (n, m) branch in pointer slot 3n + m. Each column of e
    must be a unit vector (the map is then an isometry; e itself need not
    be unitary). The ancilla must still be in its ready slot.
    """
    e = np.asarray(e, dtype=np.complex128)
    if e.shape != (3, 3):
        raise ValueError(f"branch coefficients must be 3x3, got {e.shape}")
    if not np.isfinite(e).all():
        raise ValueError("branch coefficients must be finite")
    col_norms = (np.abs(e) ** 2).sum(axis=0)
    if np.abs(col_norms - 1.0).max() > 1e-9:
        raise ValueError(f"branch columns must be unit vectors, squared norms {col_norms.tolist()}")
    occupied = float((np.abs(state.amps[:, :, 1:]) ** 2).sum())
    if occupied > _STATE_NORM_TOL:
        raise ValueError("ancilla is no longer in its ready slot; cannot attack twice")
    out = np.zeros((3, 3, ANCILLA_DIM), dtype=np.complex128)
    for n in range(3):
        for m in range(3):
            out[:, m, 3 * n + m] += e[m, n] * state.amps[:, n, 0]
    return JointState(out)


@dataclass(frozen=True)
class ControlTable:
    """Exact joint outcome distribution of one control-basis choice.

    joint[a, b] is the probability that the receiver sees a on the
    travelling qutrit and the sender sees b on the home qutrit; allowed
    holds the (a, b) pairs an unattacked channel can produce.
    """

    alice_basis: str
    bob_basis: str
    joint: np.ndarray
    allowed: frozenset

    def __post_init__(self):
        arr = np.asarray(self.joint, dtype=float)
        if arr.shape != (3, 3):
            raise ValueError("joint distribution must be 3x3")
        if (arr < -1e-12).any() or abs(float(arr.sum()) - 1.0) > 1e-10:
            raise ValueError("joint distribution must be a probability table")
        arr = arr.clip(min=0.0)
        arr.setflags(write=False)
        object.__setattr__(self, "joint", arr)
        object.__setattr__(self, "allowed", frozenset(self.allowed))

    def detection_probability(self) -> float:
        ok = sum(self.joint[a, b] for (a, b) in self.allowed)
        return max(0.0, 1.0 - float(ok))


def control_distribution(state: JointState, alice_basis: str) -> ControlTable:
    """Joint control-round distribution for a travel-side basis choice.

    The sender measures the home qutrit in the partner basis; allowed pairs
    come from the ideal-state correlation rules.
    """
    if alice_basis not in BASIS_LABELS:
        raise ValueError(f"unknown basis {alice_basis!r}")
    pairs = control_correlations(alice_basis)
    overlaps = np.einsum("hb,ta,htn->abn", mub(pairs.bob_basis).conj(), mub(alice_basis).conj(), state.amps)
    joint = (np.abs(overlaps) ** 2).sum(axis=2)
    return ControlTable(alice_basis, pairs.bob_basis, joint, pairs.allowed_pairs())


def detection_probability(state: JointState, alice_basis: str) -> float:
    """Exact probability that one control round in this basis flags the channel."""
    return control_distribution(state, alice_basis).detection_probability()


def decode_distribution(state: JointState, bigram: tuple[int, int]) -> np.ndarray:
    """Receiver-side decode distribution after encoding the given bigram.

    Returns the nine probabilities of reading entangled-pair outcome
    (i, j), flattened as 3i + j. Without an attack the distribution is a
    point mass on the encoded bigram.
    """
    i, j = bigram
    encoded = apply_travel_unitary(state, coding_unitary(i, j))
    overlaps = np.einsum("kht,htn->kn", BELL_STATES.conj(), encoded.amps)
    probs = (np.abs(overlaps) ** 2).sum(axis=1)
    return probs


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
        bw = tuple(self.basis_weights)
        if len(bw) != 2 or any(not is_finite_real(w) or w < 0.0 for w in bw):
            raise ValueError(f"basis_weights must be two non-negative numbers, got {self.basis_weights!r}")
        bw = tuple(float(w) for w in bw)
        if abs(bw[0] + bw[1] - 1.0) > 1e-12:
            raise ValueError(f"basis_weights must sum to 1, got {bw!r}")
        object.__setattr__(self, "basis_weights", bw)
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
        extra = set(data) - known
        if extra:
            raise ValueError(f"unexpected config fields: {sorted(extra)}")
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
        kwargs = {}
        if "q" in data:
            kwargs["q"] = data["q"]
        if "basis_weights" in data:
            bw = data["basis_weights"]
            if not (isinstance(bw, list) and len(bw) == 2):
                raise ValueError("basis_weights must be a two-element list")
            kwargs["basis_weights"] = tuple(bw)
        if "ancilla" in data:
            kwargs["ancilla"] = data["ancilla"]
        return cls(cycles=data["cycles"], seed=data["seed"], freq=freq, attack=attack, **kwargs)


def load_protocol_config(path) -> ProtocolConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {path}: invalid JSON ({exc})") from exc
    return ProtocolConfig.from_dict(data)


def attack_state(config: ProtocolConfig) -> JointState:
    """Joint state after the eavesdropper touches the travelling qutrit once."""
    state = initial_state()
    attack = config.attack
    if isinstance(attack, NoAttack):
        return state
    if isinstance(attack, SymmetricAttack):
        column, basis = attack.column(), "z"
    else:
        column, basis = attack.column, attack.basis
    if config.ancilla == "none":
        op = complete_circulant(column, representation=basis)
        m = mub(basis)
        u = m @ op.m @ m.conj().T
        return apply_travel_unitary(state, Unitary3(u))
    e = circulant(column.as_array())
    m = mub(basis)
    rotated = JointState(np.einsum("tn,htk->hnk", m.conj(), state.amps))
    branched = apply_branch_attack(rotated, e)
    return JointState(np.einsum("tm,hmk->htk", m, branched.amps))


CONTROL_BASES = ("z", "x")
_MESSAGE_CODE = 18
_N_CODES = 99


def _forbidden_codes() -> np.ndarray:
    """Mask over the outcome codes: True for a control pair an honest channel never gives."""
    forbidden = np.zeros(_N_CODES, dtype=bool)
    for code in range(_MESSAGE_CODE):
        allowed = control_correlations(CONTROL_BASES[code // 9]).allowed_pairs()
        forbidden[code] = divmod(code % 9, 3) not in allowed
    forbidden.setflags(write=False)
    return forbidden


_FORBIDDEN = _forbidden_codes()


TRANSCRIPT_HEADER = "cycle,mode,basis,alice,bob,detected,sent,decoded"


def write_transcript(outcomes, path) -> None:
    """Write a run's outcome codes (RunReport.outcomes) as a CSV transcript.

    One row per cycle, numbered from 1; bigrams appear as two-digit strings,
    and a control row is detected when an honest channel never gives its
    outcome pair. The 99 possible row tails are built once per call.
    """
    tails = [
        f"control,{basis},{a},{b},{int(_FORBIDDEN[9 * s + 3 * a + b])},,"
        for s, basis in enumerate(CONTROL_BASES) for a in range(3) for b in range(3)
    ]
    bigrams = [f"{i}{j}" for i in range(3) for j in range(3)]
    tails += [f"message,,,,,{sent},{decoded}" for sent in bigrams for decoded in bigrams]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TRANSCRIPT_HEADER + "\n")
        fh.writelines(f"{cycle},{tails[code]}\n" for cycle, code in enumerate(outcomes, start=1))


def rounds_for_confidence(d: float, target: float = 0.99) -> int:
    """Fewest control rounds that reach the target detection confidence.

    Solves for the smallest r with 1 - (1 - d)^r >= target, evaluated as
    -expm1(r * log1p(-d)) so that a tiny d is not lost in 1 - d. A
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
    if d == 1.0:
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

    outcomes holds one code per cycle: 9s + 3a + b for a control round in
    basis CONTROL_BASES[s] with results a and b, 18 + 9k + out for a message
    round that sent bigram k and decoded out. Every count here derives from
    it, write_transcript turns it into the CSV transcript, and as_dict and
    to_json leave it out.
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
    outcomes: bytes

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


def _cumulative(probs: np.ndarray) -> list[float]:
    return (np.cumsum(probs) / probs.sum()).tolist()


def _draw(cum: list[float], u: float) -> int:
    return min(bisect_right(cum, u), len(cum) - 1)


def run(config: ProtocolConfig) -> RunReport:
    """Simulate the protocol and report its statistics.

    The post-attack state is the same every cycle, so all outcome
    distributions are computed once up front and each cycle only draws
    from them and appends one outcome code. The counts, the confusion
    matrix and the first detection all come from those codes after the
    loop. Identical configs reproduce identical reports.
    """
    rng = np.random.Generator(np.random.PCG64(config.seed))
    state = attack_state(config)

    control_tables = [control_distribution(state, basis) for basis in CONTROL_BASES]
    alice_cum = [_cumulative(t.joint.sum(axis=1)) for t in control_tables]
    bob_cond_cum = [
        [_cumulative(row if row.sum() > 0 else np.ones(3)) for row in t.joint] for t in control_tables
    ]
    decode_cum = [_cumulative(decode_distribution(state, divmod(k, 3))) for k in range(9)]
    bigram_cum = _cumulative(config.freq.flat())

    q_z, _ = config.basis_weights
    codes = bytearray()
    for _ in range(config.cycles):
        if rng.random() < config.q:
            s = 0 if rng.random() < q_z else 1
            a = _draw(alice_cum[s], rng.random())
            codes.append(9 * s + 3 * a + _draw(bob_cond_cum[s][a], rng.random()))
        else:
            k = _draw(bigram_cum, rng.random())
            codes.append(_MESSAGE_CODE + 9 * k + _draw(decode_cum[k], rng.random()))

    outcomes = bytes(codes)
    series = np.frombuffer(outcomes, dtype=np.uint8)
    counts = np.bincount(series, minlength=_N_CODES)
    control = counts[:_MESSAGE_CODE].reshape(2, 9)
    rounds = control.sum(axis=1).tolist()
    caught = (control * _FORBIDDEN[:_MESSAGE_CODE].reshape(2, 9)).sum(axis=1).tolist()
    confusion = counts[_MESSAGE_CODE:].reshape(9, 9)
    flagged = _FORBIDDEN[series]
    first_detection = int(flagged.argmax()) + 1 if flagged.any() else None

    basis_stats = {}
    for basis, table, n, hits in zip(CONTROL_BASES, control_tables, rounds, caught):
        p = table.detection_probability()
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
        outcomes=outcomes,
    )
