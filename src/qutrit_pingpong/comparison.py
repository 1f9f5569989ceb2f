"""Capacity and detectability comparison across ping-pong protocol variants.

Each variant is summarized by its carrier dimension, how many carriers a
message block uses, the block capacity in bits, and the best and worst
detection probabilities a single control round offers against a maximally
extracting attack. Exact rationals keep the d_min = d_max / 2 structure
visible. The qubit-based rows are fixed reference parameters of the
published variants, not recomputed here; the qutrit variant's leak curve in
bits is the I0_bits column of information.curve_csv (the `curve` command).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from fractions import Fraction

from .information import TRIT_TO_BIT


@dataclass(frozen=True)
class ProtocolDescriptor:
    """Headline numbers of one ping-pong protocol variant."""

    name: str
    carrier_dim: int
    group_size: int
    capacity_bits: float
    d_max: Fraction
    d_min: Fraction

    def __post_init__(self):
        if self.carrier_dim < 2 or self.group_size < 1:
            raise ValueError("carrier dimension and group size must be at least 2 and 1")
        if not (math.isfinite(self.capacity_bits) and self.capacity_bits > 0.0):
            raise ValueError(f"capacity must be positive, got {self.capacity_bits!r}")
        for name in ("d_max", "d_min"):
            val = getattr(self, name)
            if not isinstance(val, Fraction) or not 0 <= val <= 1:
                raise ValueError(f"{name} must be a Fraction in [0, 1], got {val!r}")
        if self.d_min * 2 != self.d_max:
            raise ValueError(
                f"worst-case detection must be half the best case, got {self.d_min} vs {self.d_max}"
            )


def protocol_table() -> tuple[ProtocolDescriptor, ...]:
    """The four compared variants, strongest carrier first."""
    return (
        ProtocolDescriptor("Bell pairs of qutrits", 3, 2, 2.0 * TRIT_TO_BIT, Fraction(2, 3), Fraction(1, 3)),
        ProtocolDescriptor("Bell pairs of qubits", 2, 2, 2.0, Fraction(1, 2), Fraction(1, 4)),
        ProtocolDescriptor("GHZ triplets of qubits", 2, 3, 3.0, Fraction(3, 4), Fraction(3, 8)),
        ProtocolDescriptor("GHZ quadruples of qubits", 2, 4, 4.0, Fraction(7, 8), Fraction(7, 16)),
    )


def protocol_table_json() -> str:
    """The compared variants as a JSON array; rationals become [numerator, denominator]."""
    rows = [
        {
            **asdict(r),
            "d_max": [r.d_max.numerator, r.d_max.denominator],
            "d_min": [r.d_min.numerator, r.d_min.denominator],
        }
        for r in protocol_table()
    ]
    return json.dumps(rows, indent=2)


def format_protocol_table() -> str:
    """Plain-text table of the compared variants."""
    rows = protocol_table()
    header = f"{'protocol':<28} {'dim':>3} {'group':>5} {'capacity_bits':>13} {'d_max':>7} {'d_min':>7}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.name:<28} {r.carrier_dim:>3} {r.group_size:>5} "
            f"{r.capacity_bits:>13.4f} {str(r.d_max):>7} {str(r.d_min):>7}"
        )
    return "\n".join(lines)
