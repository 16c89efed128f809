"""Command-line entry point for the benchmark harness.

Subcommands mirror the experiments: window-sweep, lt-compare,
raptor-compare, transfer. raptor-compare and transfer take one --window;
raptor-compare's is its precode's k, and s and h follow from k. Exit codes:
0 success, 1 an invalid parameter or I/O error, 2 a session or trial failed
in some row (unless --allow-failures).

Results are reproducible: with a fixed --seed the emitted CSV is
byte-identical across runs. Timing columns are filled only with --timing,
which necessarily breaks byte-identity.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from .bench import ExperimentSpec, emit_csv, emit_summary, run_experiment
from .errors import InvalidParameterError

DESK_WINDOWS = (1000, 3000, 10000, 30000, 100000)
# Each scale's session length and each experiment's default windows.
DESK = {
    "total_symbols": 100_000,
    "window-sweep": DESK_WINDOWS,
    "lt-compare": (1024,),
    "raptor-compare": (1024,),
    "transfer": (10_000,),
}
PAPER_SCALE = {**DESK, "total_symbols": 1_000_000, "lt-compare": (10267,),
               "raptor-compare": (10017,)}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--window", type=int, action="append", dest="windows",
                   help="window length (repeatable but for raptor-compare, transfer)")
    p.add_argument("--loss-rate", type=float, action="append", dest="loss_rates",
                   help="loss probability (repeatable)")
    p.add_argument("--trials", type=int, default=30)
    p.add_argument("--seed", type=int, default=1, help="master seed")
    p.add_argument("--symbol-bytes", type=int, default=64)
    p.add_argument("--total-symbols", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=0.1,
                   help="repair overhead factor in (1+epsilon)*m")
    p.add_argument("--d-max", type=int, default=None,
                   help="degree cap for the precoded loss-aware scheme")
    p.add_argument("--out", default=None, help="CSV output path")
    p.add_argument("--trace", default=None, help="diagnostics trace log path")
    p.add_argument("--timing", action="store_true",
                   help="measure wall-clock timing columns (breaks CSV byte-identity)")
    p.add_argument("--paper-scale", action="store_true",
                   help="restore full-scale experiment magnitudes")
    p.add_argument("--allow-failures", action="store_true",
                   help="exit 0 even when some rows contain failed trials")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrf-bench",
        description="Fountain-code benchmark harness (loss-aware vs baselines)")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, doc in (
        ("window-sweep", "loss-aware codec across window lengths"),
        ("lt-compare", "fountain baseline vs loss-aware codec"),
        ("raptor-compare", "precoded baseline vs precoded loss-aware codec"),
        ("transfer", "full windowed transfer sessions"),
    ):
        _add_common(sub.add_parser(name, help=doc))
    return parser


def spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    scale = PAPER_SCALE if args.paper_scale else DESK
    windows = tuple(args.windows) if args.windows else scale[args.experiment]
    loss_rates = tuple(args.loss_rates) if args.loss_rates else (0.005, 0.01, 0.02)
    return ExperimentSpec(
        experiment=args.experiment,
        window_lengths=windows,
        loss_rates=loss_rates,
        trials=args.trials,
        master_seed=args.seed,
        symbol_bytes=args.symbol_bytes,
        total_symbols=(args.total_symbols if args.total_symbols is not None
                       else scale["total_symbols"]),
        epsilon=args.epsilon,
        d_max=args.d_max,
        timing=args.timing,
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.trace, "w") if args.trace else contextlib.nullcontext() as trace:
            spec = spec_from_args(args)
            spec.trace = trace
            rows = run_experiment(spec)
            if args.out:
                emit_csv(rows, args.out)
            emit_summary(rows)
    except (OSError, InvalidParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if any(r.success_rate < 1.0 for r in rows) and not args.allow_failures:
        print("error: some rows contain failed trials (see --trace)", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
