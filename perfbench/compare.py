"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the ``*.json`` records that ``run.py --out DIR`` writes
(one per run; several seeds per workload). For every workload and metric the
script prints each side's median and quartiles and the relative change of
the medians. For end-to-end metrics it applies the bound from
``BENCHMARK.json``:

- ``WORSE``: the new median is worse than the base median by more than the
  bound;
- ``unresolved``: the run-to-run spread (interquartile range over median)
  of either side is wider than the bound, and not every new run beats every
  base run;
- ``ok`` otherwise.

Per-layer metrics have no bound and are listed for reading only. The script
reports; it does not gate. It exits 0 whatever it finds, and 2 on unreadable
input.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: Path):
    """{(workload, trace): {metric: [values]}} and the provenance records."""
    values = defaultdict(lambda: defaultdict(list))
    provenance = []
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if "workload" not in record:  # e.g. a selfcheck summary
            continue
        key = (record["workload"], record["trace"])
        for name, metric in record["metrics"].items():
            values[key][name].append(metric["value"])
        provenance.append(record["provenance"])
    return values, provenance


def quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base, new, bound: float, better: str) -> str:
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    sign = 1.0 if better == "higher" else -1.0
    worse_by = sign * (bm - nm) / bm if bm else 0.0
    spread = max((b3 - b1) / bm if bm else 0.0, (n3 - n1) / nm if nm else 0.0)
    all_better = (min(new) > max(base)) if better == "higher" else (max(new) < min(base))
    if spread > bound and not all_better:
        return "unresolved"
    return "WORSE" if worse_by > bound else "ok"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", type=Path)
    p.add_argument("new", type=Path)
    args = p.parse_args(argv)
    try:
        spec = json.loads(BENCHMARK.read_text())
        base, base_prov = load(args.base)
        new, new_prov = load(args.new)
    except (OSError, ValueError, KeyError) as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    e2e = {m["name"]: m for m in spec["end_to_end"]}

    for side, prov in (("base", base_prov), ("new", new_prov)):
        codes = sorted({(r["commit"] or "-", r["src_sha256"][:12]) for r in prov})
        envs = sorted({(r["python"], r["numpy"], r["nproc"]) for r in prov})
        print(f"# {side}: code {codes}; python/numpy/nproc {envs}")
    if ({r["src_sha256"] for r in base_prov} == {r["src_sha256"] for r in new_prov}):
        print("# note: both sides measured the same source tree")

    print(f"{'workload':16} {'metric':36} {'base q1/median/q3':>32} "
          f"{'new q1/median/q3':>32} {'change':>8}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, _ = key
        for name in sorted(set(base[key]) & set(new[key])):
            b, n = base[key][name], new[key][name]
            bq, nq = quartiles(b), quartiles(n)
            change = (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            status = ""
            if name in e2e:
                status = verdict(b, n, e2e[name]["bound"], e2e[name]["better"])
            print(f"{workload:16} {name:36} "
                  f"{'/'.join(f'{v:.4g}' for v in bq):>32} "
                  f"{'/'.join(f'{v:.4g}' for v in nq):>32} "
                  f"{change:>+8.2%}  {status} (n={len(b)}/{len(n)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
