#!/usr/bin/env python3
"""Scan how attacks expressed in the phase basis show up in other bases.

Samples random circulant-completable phase-basis columns (unit-modulus
eigenvalue triples pushed through the inverse Fourier map) and reports, for
each, the detection probability in the attack's own basis next to what the
other control bases see. Two channel realizations are contrasted:

  unitary   the circulant completion acting on the travel qutrit alone;
            diagonal in the conjugate basis, so the computational-basis
            control rounds never fire
  probe     the branching attack that records every (input, output)
            transition in an orthogonal pointer state; every basis other
            than the attack's own then sees the maximal rate 2/3

The cross-representation scalar relation sits between the two: applied to
a circulant-completable column it always predicts the dephased value 2/3,
because the plain entry sum of such a column is unimodular.

With --full the probe rows also list the v/t bases to show the dephasing is
basis-wide, not specific to the computational basis.
"""

import argparse
import math
import sys

import numpy as np

from qutrit_pingpong.attack import AttackColumn, ColumnAttack, column_z_from_x
from qutrit_pingpong.protocol import attack_state, detection_probability
from qutrit_pingpong.qutrit import mub


def random_circulant_column(rng) -> AttackColumn:
    phases = rng.uniform(-math.pi, math.pi, size=2)
    eig = np.array([1.0, np.exp(1j * phases[0]), np.exp(1j * phases[1])])
    col = mub("x") @ eig / math.sqrt(3.0)
    return AttackColumn(*(complex(v) for v in col))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=12, help="number of random columns (default 12)")
    parser.add_argument("--seed", type=int, default=20240601, help="sampling seed")
    parser.add_argument("--full", action="store_true", help="also tabulate the v and t bases")
    parser.add_argument("--out", metavar="PATH", help="write the table as CSV")
    args = parser.parse_args(argv)
    if args.samples < 1:
        parser.error("--samples must be positive")

    rng = np.random.default_rng(args.seed)
    bases = ("z", "x", "v", "t") if args.full else ("z", "x")
    header = ["d_x_own", "relation_d_z"]
    for mode in ("unitary", "probe"):
        for b in bases:
            header.append(f"{mode}_d_{b}")

    rows = []
    for _ in range(args.samples):
        col = random_circulant_column(rng)
        own = 1.0 - abs(col.c0) ** 2
        m0, _, _ = column_z_from_x(col)
        relation_dz = 1.0 - m0
        row = [own, relation_dz]
        for ancilla in ("none", "branch"):
            state = attack_state(ColumnAttack("x", col), ancilla)
            for b in bases:
                row.append(detection_probability(state, b))
        rows.append(row)

    widths = [max(len(h), 12) for h in header]
    print("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(f"{v:.6f}".rjust(w) for v, w in zip(row, widths)))

    relation_vals = {f"{r[1]:.9f}" for r in rows}
    unitary_dz = max(r[2] for r in rows)
    print()
    print(f"scalar relation on circulant-completable columns: always {sorted(relation_vals)}")
    print(f"largest computational-basis rate of the unitary realization: {unitary_dz:.2e}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
        print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
