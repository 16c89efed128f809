"""Repeatability checks for the session benchmark.

    python3 perfbench/selfcheck.py determinism --seeds 1 2 3
    python3 perfbench/selfcheck.py spread --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 10

``determinism`` runs every workload twice at the first seed, untraced and
traced, with ``--seconds 0`` (the fixed session prefix only), and fails unless
the count metrics below repeat exactly. It also reports how those counts
spread across all the given seeds, the yardstick for a later change that
legitimately alters how the package draws random numbers.

``spread`` runs every workload once per seed, untraced, and reports for each
end-to-end metric the interquartile range of its values as a share of their
median (``statistics.quantiles(values, n=4)``), against the metric's bound
from ``BENCHMARK.json``. It fails if a spread other than that of ``setup_s``
exceeds its bound, and marks spreads above a third of the bound.

Each run is a child process started and waited for in turn. A summary JSON
is written under ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

RUN = HERE / "run.py"
BENCHMARK = HERE.parent / "BENCHMARK.json"
# (trace flag, metric) pairs that must repeat exactly at a fixed seed.
COUNT_METRICS = (
    (0, "link_efficiency"),
    (0, "degree_ratio"),
    (1, "transfer.feedback_rounds_per_window"),
    (1, "precode.solve.calls"),
    (1, "gf2.solve.calls"),
)


def run_once(workload: str, seed: int, seconds: float, trace: int, out: Path) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    return {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}


def relative_iqr(values) -> tuple[float, float]:
    """(median, (q3 - q1) / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, ((q3 - q1) / median if median else float("inf"))


def determinism(args) -> tuple[dict, bool]:
    summary, ok = {}, True
    for name in args.workloads:
        by_trace = {}
        for trace in (0, 1):
            runs = [run_once(name, s, 0, trace, args.out) for s in args.seeds]
            repeat = run_once(name, args.seeds[0], 0, trace, args.out)
            by_trace[trace] = (runs, repeat)
        for trace, metric in COUNT_METRICS:
            runs, repeat = by_trace[trace]
            values = [r[metric] for r in runs]
            same = repeat[metric] == values[0]
            ok &= same
            entry = {"seed": args.seeds[0], "first": values[0],
                     "repeat": repeat[metric], "identical": same,
                     "across_seeds": dict(zip(args.seeds, values)),
                     "range_over_median": ((max(values) - min(values))
                                           / statistics.median(values)
                                           if statistics.median(values) else 0.0)}
            summary[f"{name}/{metric}"] = entry
            print(f"{name:16} {metric:38} {'same' if same else 'DIFFERS':7} "
                  f"seed {args.seeds[0]}: {values[0]:.6g} / {repeat[metric]:.6g}; "
                  f"{len(values)} seeds {min(values):.6g}..{max(values):.6g} "
                  f"(range/median {entry['range_over_median']:.4f})")
    return summary, ok


def spread(args) -> tuple[dict, bool]:
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary, ok = {}, True
    for name in args.workloads:
        runs = [run_once(name, s, args.seconds, 0, args.out) for s in args.seeds]
        for metric, bound in bounds.items():
            values = [r[metric] for r in runs]
            median, rel = relative_iqr(values)
            gated = metric != "setup_s"
            within = rel <= bound
            ok &= within or not gated
            mark = ("" if rel < bound / 3 else " above bound/3") if within else " ABOVE BOUND"
            summary[f"{name}/{metric}"] = {"values": values, "median": median,
                                           "iqr_over_median": rel, "bound": bound}
            print(f"{name:16} {metric:16} median {median:<12.6g} "
                  f"iqr/median {rel:.4f} (bound {bound}){mark}")
    return summary, ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("mode", choices=("determinism", "spread"))
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                   choices=list(WORKLOADS))
    p.add_argument("--out", type=Path, default=HERE / "results")
    args = p.parse_args(argv)
    check = determinism if args.mode == "determinism" else spread
    summary, ok = check(args)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"selfcheck-{args.mode}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps({"mode": args.mode, "seeds": args.seeds,
                                "seconds": args.seconds, "ok": ok,
                                "metrics": summary}, indent=1))
    print(f"{'ok' if ok else 'FAILED'}; summary in {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
