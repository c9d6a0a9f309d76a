"""Command-line interface.

Exit codes: 0 success, 1 oracle failure, 2 blow-up, 3 modulus breach under
--strict, 4 step budget exceeded or a grid too large to allocate, 10 a file
or directory that cannot be opened or created, 11 malformed snapshot, 12
config or command-line usage error.
"""

from __future__ import annotations

import argparse
import sys

from .config import load_config
from .diagnostics import NormSeries, check_boundedness, fit_decay_exponent
from .driver import run_simulation
from .errors import (
    BlowUpError,
    BudgetError,
    ConfigError,
    ParameterError,
    SnapshotFormatError,
)
from .modulus import _monitor, _unbacked, check_modulus
from .oracles import ORACLE_CSV_HEADER, SUITES, run_oracle_suite
from .snapshot import read_snapshot

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_BLOWUP = 2
EXIT_BREACH = 3
EXIT_BUDGET = 4
EXIT_NOT_FOUND = 10
EXIT_BAD_SNAPSHOT = 11
EXIT_BAD_CONFIG = 12


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors exiting 12, not 2, the blow-up code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_CONFIG, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sqglab",
        description="Pseudo-spectral quasi-geostrophic solver and diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a configured simulation")
    run.add_argument("--config", required=True, help="flat key=value config file")
    run.add_argument("--restart", default=None, help="snapshot to resume from")
    run.add_argument("--strict", action="store_true",
                     help="exit 3 if the modulus monitor reports a breach")
    run.add_argument("--output", default=None,
                     help="set output.directory")

    oracle = sub.add_parser("oracle", help="run validation oracles")
    oracle.add_argument("--suite", required=True, choices=["all", *SUITES])
    oracle.add_argument("--output", default="oracle_report.csv")

    check = sub.add_parser("modulus-check", help="one-shot breach report")
    check.add_argument("--field", required=True, help="snapshot file")
    check.add_argument("--delta3", type=float, required=True)

    analyze = sub.add_parser("analyze", help="fit or bound a norms.csv column")
    analyze.add_argument("--norms", required=True)
    analyze.add_argument("--column", required=True)
    analyze.add_argument("--window", required=True, metavar="A:B")
    analyze.add_argument("--weight", type=float, default=None)
    return parser


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.output is not None:
        config.directory = args.output
    result = run_simulation(config, restart=args.restart)
    final = result.state
    print(f"completed t = {final.t:.6g} after {final.step_count} steps; "
          f"norms -> {result.norms_path}")
    if result.breaches:
        worst = max(b.worst_ratio for b in result.breaches)
        print(f"modulus breached at {len(result.breaches)} sample(s), "
              f"worst ratio {worst:.6g}")
        if args.strict:
            return EXIT_BREACH
    return EXIT_OK


def _cmd_oracle(args) -> int:
    reports = run_oracle_suite(args.suite)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(ORACLE_CSV_HEADER + "\n")
        for report in reports:
            fh.write(report.csv_row() + "\n")
    for report in reports:
        status = "pass" if report.passed else "FAIL"
        print(f"{status} {report.name}: rel {report.max_rel_error:.3e} "
              f"(tol {report.tolerance:.0e})")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAILURE


def _cmd_modulus_check(args) -> int:
    snap = read_snapshot(args.field)
    if unbacked := _unbacked(snap.gamma, snap.kappa):
        raise ConfigError(f"modulus-check: {args.field}: snapshot {unbacked[1]}")
    try:
        mod, offsets, _ = _monitor(snap.field.grid, args.delta3, snap.kappa)
    except ParameterError as exc:
        raise ConfigError(f"modulus-check: --delta3 {args.delta3}, snapshot kappa "
                          f"{snap.kappa}, grid.length {snap.field.grid.length}: {exc}"
                          ) from None
    report = check_modulus(snap.field, mod, offsets)
    print("breached,worst_ratio,worst_offset_d1,worst_offset_d2,time")
    print(f"{'true' if report.breached else 'false'},{report.worst_ratio:.17g},"
          f"{report.worst_offset[0]},{report.worst_offset[1]},{snap.t:.17g}")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    try:
        a, b = args.window.split(":")
        window = (float(a), float(b))
    except ValueError:
        raise ConfigError(f"window must be A:B, got {args.window!r}") from None
    # a file that is not a norms series, or a column or window it cannot
    # answer, is bad input: every reading and fitting error is a ValueError
    try:
        series = NormSeries.read_csv(args.norms)
        if args.weight is None:
            fit = fit_decay_exponent(series, args.column, window)
            print("column,window_a,window_b,alpha,amplitude,residual_rms,n_samples")
            print(f"{args.column},{window[0]:.17g},{window[1]:.17g},"
                  f"{fit.alpha:.17g},{fit.amplitude:.17g},{fit.residual_rms:.17g},"
                  f"{fit.n_samples}")
        else:
            res = check_boundedness(series, args.weight, args.column, window)
            print("column,weight,window_a,window_b,sup,stabilized")
            print(f"{args.column},{args.weight:.17g},{window[0]:.17g},"
                  f"{window[1]:.17g},{res.sup:.17g},"
                  f"{'true' if res.stabilized else 'false'}")
    except ValueError as exc:
        raise ConfigError(f"analyze: {exc}") from None
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "oracle": _cmd_oracle,
        "modulus-check": _cmd_modulus_check,
        "analyze": _cmd_analyze,
    }
    try:
        return handlers[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return EXIT_NOT_FOUND
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_FOUND
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (SnapshotFormatError, ConfigError, BlowUpError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return {SnapshotFormatError: EXIT_BAD_SNAPSHOT, ConfigError: EXIT_BAD_CONFIG,
                BlowUpError: EXIT_BLOWUP, BudgetError: EXIT_BUDGET}[type(exc)]
