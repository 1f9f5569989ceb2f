#!/usr/bin/env python3
"""Export the bundled data products: leak curves for every frequency preset,
the preset tables themselves, and the protocol comparison table.

Writes CSV/JSON files into --out-dir (default ./exports). The curve CSVs
carry full double precision so downstream plots reproduce exactly; their
I0_bits column is the qutrit leak curve on the comparison table's bit axis.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from qutrit_pingpong.comparison import format_protocol_table, protocol_table_json
from qutrit_pingpong.information import (
    FREQUENCY_PRESETS,
    curve_csv,
    frequency_table_to_dict,
    info_curve,
    source_entropy,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="exports", help="output directory (default ./exports)")
    parser.add_argument("--points", type=int, default=67, help="curve grid size (default 67)")
    args = parser.parse_args(argv)
    if args.points < 2:
        parser.error("--points must be at least 2")

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = np.linspace(0.0, 2.0 / 3.0, args.points)

    for name, freq in FREQUENCY_PRESETS.items():
        curve_path = out / f"curve_{name}.csv"
        curve_path.write_text(curve_csv(info_curve(freq, grid)), encoding="utf-8")
        freq_path = out / f"freq_{name}.json"
        freq_path.write_text(json.dumps(frequency_table_to_dict(freq), indent=2) + "\n")
        h = source_entropy(freq).value
        print(f"{name:11s} H = {h:.5f} trit  ->  {curve_path}")

    table_path = out / "protocol_table.json"
    table_path.write_text(protocol_table_json() + "\n", encoding="utf-8")
    print(f"comparison  ->  {table_path}")
    print()
    print(format_protocol_table())
    return 0


if __name__ == "__main__":
    sys.exit(main())
