"""Capacity and detectability comparison across ping-pong protocol variants.

Each variant is summarized by its carrier dimension, how many carriers a
message block uses, the block capacity in bits, and the best and worst
detection probabilities a single control round offers against a maximally
extracting attack. A row holds only its facts, carrier_dim D and
group_size n; the capacity n log2(D), d_max = 1 - 1/D^(n - 1) and
d_min = d_max / 2 derive from them. Full extraction leaves the n - 1
travelling carriers uncorrelated with the home carrier, so only one of the
D^(n - 1) equally likely travel readings is honest. The qutrit variant's
leak curve in bits is the I0_bits column of information.curve_csv.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction


@dataclass(frozen=True)
class ProtocolDescriptor:
    """Headline numbers of one ping-pong protocol variant, built from its
    name, carrier_dim and group_size; capacity_bits, d_max and d_min derive."""

    name: str
    carrier_dim: int
    group_size: int
    capacity_bits: float = field(init=False)
    d_max: Fraction = field(init=False)
    d_min: Fraction = field(init=False)

    def __post_init__(self):
        if self.carrier_dim < 2 or self.group_size < 1:
            raise ValueError("carrier dimension and group size must be at least 2 and 1")
        d_max = 1 - Fraction(1, self.carrier_dim ** (self.group_size - 1))
        object.__setattr__(self, "capacity_bits", self.group_size * math.log2(self.carrier_dim))
        object.__setattr__(self, "d_max", d_max)
        object.__setattr__(self, "d_min", d_max / 2)


def protocol_table() -> tuple[ProtocolDescriptor, ...]:
    """The four compared variants, strongest carrier first."""
    return (
        ProtocolDescriptor("Bell pairs of qutrits", 3, 2),
        ProtocolDescriptor("Bell pairs of qubits", 2, 2),
        ProtocolDescriptor("GHZ triplets of qubits", 2, 3),
        ProtocolDescriptor("GHZ quadruples of qubits", 2, 4),
    )


def protocol_table_json() -> str:
    """The compared variants as a JSON array; rationals become [numerator, denominator]."""
    rows = [
        {**asdict(r), "d_max": r.d_max.as_integer_ratio(), "d_min": r.d_min.as_integer_ratio()}
        for r in protocol_table()
    ]
    return json.dumps(rows, indent=2)


def format_protocol_table() -> str:
    """Plain-text table of the compared variants."""
    header = f"{'protocol':<28} {'dim':>3} {'group':>5} {'capacity_bits':>13} {'d_max':>7} {'d_min':>7}"
    lines = [header, "-" * len(header)]
    for r in protocol_table():
        lines.append(
            f"{r.name:<28} {r.carrier_dim:>3} {r.group_size:>5} "
            f"{r.capacity_bits:>13.4f} {str(r.d_max):>7} {str(r.d_min):>7}"
        )
    return "\n".join(lines)
