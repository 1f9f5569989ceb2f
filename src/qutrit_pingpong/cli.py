"""Command-line front end.

Subcommands: entropy, curve, attack-verify, simulate, rounds, compare.
compare prints only the variant table, as text or with --json as JSON; the
qutrit variant's leak curve in bits is the I0_bits column of curve.
Exit codes: 0 success, 2 bad input or usage (including a run too large
to allocate), 3 numerical failure (including a failed reference
verification).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .attack import verify_reference_attacks
from .comparison import format_protocol_table, protocol_table_json
from .information import (
    FREQUENCY_PRESETS,
    TRIT_TO_BIT,
    FrequencyTable,
    curve_csv,
    info_curve,
    load_frequency_table,
    source_entropy,
)
from .protocol import (
    load_protocol_config,
    rounds_for_confidence,
    run,
    write_transcript,
)
from .qutrit import NumericalError


def _add_freq_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--freq", metavar="PATH", help="frequency table JSON file")
    group.add_argument(
        "--preset",
        choices=sorted(FREQUENCY_PRESETS),
        help="named bigram frequency preset",
    )


def _resolve_freq(args) -> FrequencyTable:
    if args.freq:
        return load_frequency_table(args.freq)
    return FREQUENCY_PRESETS[args.preset or "uniform"]


def _write_output(text: str, path, what: str) -> None:
    """Write text to path and print "wrote WHAT to PATH", or write it to stdout when path is None."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {what} to {path}")
    else:
        sys.stdout.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qutrit-pingpong",
        description="Qutrit ping-pong protocol: attack analysis and simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_entropy = sub.add_parser("entropy", help="Shannon entropy of a bigram source")
    _add_freq_options(p_entropy)

    p_curve = sub.add_parser("curve", help="information vs detection for the symmetric attack")
    _add_freq_options(p_curve)
    p_curve.add_argument("--points", type=int, default=67, help="grid size (default 67)")
    p_curve.add_argument("--out", metavar="PATH", help="write CSV here instead of stdout")

    sub.add_parser("attack-verify", help="recompute the bundled reference attack rows")

    p_sim = sub.add_parser("simulate", help="run the full-state protocol simulation")
    p_sim.add_argument("--config", required=True, metavar="PATH", help="run config JSON file")
    p_sim.add_argument("--seed", type=int, help="override the config seed")
    p_sim.add_argument("--out", metavar="PATH", help="write the report JSON here")
    p_sim.add_argument("--transcript", metavar="PATH", help="write a per-cycle CSV transcript")

    p_rounds = sub.add_parser("rounds", help="control rounds needed to reach a confidence")
    p_rounds.add_argument("d", type=float, help="per-round detection probability")
    p_rounds.add_argument("target", type=float, nargs="?", default=0.99, help="confidence (default 0.99)")

    p_cmp = sub.add_parser("compare", help="compare ping-pong protocol variants")
    p_cmp.add_argument("--json", action="store_true", help="emit the table as JSON")

    return parser


def _cmd_entropy(args) -> int:
    h = source_entropy(_resolve_freq(args)).value
    print(f"H = {h:.4f} trit")
    print(f"H = {h * TRIT_TO_BIT:.4f} bit")
    return 0


def _cmd_curve(args) -> int:
    freq = _resolve_freq(args)
    if args.points < 2:
        raise ValueError(f"curve needs at least 2 points, got {args.points}")
    # The bound rounds_for_confidence applies too. Above it np.linspace rounds
    # the count through a float, and near 2**63 it fails with an IndexError.
    if args.points > 2**53:
        raise ValueError(f"curve needs at most 2**53 points, got {args.points}")
    if args.out:  # fail on a bad path before the curve is computed, as simulate does
        open(args.out, "wb").close()
    curve = info_curve(freq, np.linspace(0.0, 2.0 / 3.0, args.points))
    _write_output(curve_csv(curve), args.out, f"{len(curve)} points")
    endpoints = f"endpoints: I(0) = {curve[0, 1]:.4f}, I(2/3) = {curve[-1, 1]:.4f}"
    print(f"{endpoints}, source H = {source_entropy(freq).value:.4f} (trits)", file=sys.stderr)
    return 0


def _cmd_attack_verify(args) -> int:
    checks = verify_reference_attacks()
    for idx, chk in enumerate(checks, start=1):
        tag = "ok" if chk.passed else "FAIL"
        kind = "symmetric" if chk.row.symmetric else "general"
        print(
            f"row {idx:2d} [{kind:9s}] d_x = {chk.d_x:.6f} (table {chk.row.d_x:.6f})  "
            f"d_z = {chk.d_z:.6f} (table {chk.row.d_z:.6f})  dev = {chk.deviation:.2e}  {tag}"
        )
    print(f"max deviation {max(chk.deviation for chk in checks):.2e} over {len(checks)} rows")
    failed = sum(not chk.passed for chk in checks)
    if failed:
        print(f"{failed} row(s) exceeded tolerance", file=sys.stderr)
        return 3
    print("PASS")
    return 0


def _cmd_simulate(args) -> int:
    config = load_protocol_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    # Open each output before the run, as a shell redirection would, so that
    # a bad path fails before any cycle is drawn. Both exist then, so samefile
    # also catches two spellings of one path and a link to the other.
    for path in (args.transcript, args.out):
        if path:
            open(path, "wb").close()
    if args.transcript and args.out and os.path.samefile(args.transcript, args.out):
        raise ValueError("--out and --transcript name the same file")
    report = run(config)
    if args.transcript:
        write_transcript(report.outcomes, args.transcript)
    _write_output(report.to_json() + "\n", args.out, "report")
    return 0


def _cmd_rounds(args) -> int:
    print(rounds_for_confidence(args.d, args.target))
    return 0


def _cmd_compare(args) -> int:
    print(protocol_table_json() if args.json else format_protocol_table())
    return 0


_DISPATCH = {
    "entropy": _cmd_entropy,
    "curve": _cmd_curve,
    "attack-verify": _cmd_attack_verify,
    "simulate": _cmd_simulate,
    "rounds": _cmd_rounds,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return _DISPATCH[args.command](args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    raise SystemExit(main())
