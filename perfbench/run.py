"""Session benchmark for lrfcodes.

Runs one workload (see ``workloads.py``) through the public
``lrfcodes.run_session`` and checks every delivered payload against its
source bytes:

    python3 perfbench/run.py --workload lt-stream --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` times each layer
of the package from outside (``spans.py``) and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give each metric with its unit and sample count. A full record of the run
(provenance, every session time, raw counters) goes to ``--out``, and a
traced run also writes its spans there.

Exit status: 0 on success, 1 if any session raised or delivered wrong bytes
(the result is still printed, with ``"correct": false``), 2 if the package
cannot be imported from this checkout's ``src/`` (nothing is printed on
standard output).

The package is imported from the ``src/`` directory next to this one, never
from an installed copy, so a run always measures the code of its checkout.
"""

from __future__ import annotations

import time

# setup_s counts from here: the imports below, payload generation and the
# warm-up session are all set-up.
_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from spans import Instrumentation, Recorder  # noqa: E402
from workloads import EPSILON, WINDOWS_PER_SESSION, WORKLOADS, Workload  # noqa: E402

LAYER_MODULES = ("distributions", "codec", "precode", "gf2", "channel", "transfer")
# Set-up (payload generation plus one warm-up session) is repeated and its
# median reported, so that one slow repetition does not move setup_s.
SETUP_REPEATS = 3
EXIT_INCORRECT = 1
EXIT_NO_PACKAGE = 2


class PackageMissing(Exception):
    pass


def import_package():
    """Import lrfcodes from ``<checkout>/src``; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "lrfcodes" / "__init__.py").is_file():
        raise PackageMissing(f"no lrfcodes package under {src}")
    sys.path.insert(0, str(src))
    import lrfcodes
    origin = Path(lrfcodes.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise PackageMissing(f"lrfcodes imported from {origin}, not from {src}")
    modules = {m: importlib.import_module(f"lrfcodes.{m}") for m in LAYER_MODULES}
    return lrfcodes, modules


def git_commit(root: Path) -> str | None:
    """HEAD commit read from ``.git`` without running git; None outside a
    repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    """SHA-256 over the package sources, so two results of the same code
    can be recognised without git."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(lrfcodes, np) -> dict:
    return {
        "commit": git_commit(ROOT),
        "src_sha256": source_digest(ROOT),
        "lrfcodes_file": lrfcodes.__file__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Inputs


def make_payload(np, wl: Workload, seed: int) -> bytes:
    rng = np.random.default_rng([seed, 0])
    return rng.integers(0, 256, size=wl.session_bytes, dtype=np.uint8).tobytes()


def session_seeds(np, seed: int, index: int | None) -> tuple[int, int]:
    """(session seed, channel seed) of timed session ``index``, or of the
    warm-up session for ``index=None``. The warm-up is the same session for
    every seed, so that set-up time does not depend on the seed."""
    key = [2] if index is None else [seed, 1, index]
    state = np.random.SeedSequence(key).generate_state(2, dtype=np.uint64)
    return int(state[0]), int(state[1])


def channel_config(lrfcodes, wl: Workload, channel_seed: int):
    burst = lrfcodes.channel.BurstModel(*wl.burst) if wl.burst else None
    return lrfcodes.ChannelConfig(loss_rate=wl.loss_rate, seed=channel_seed,
                                  burst=burst)


# ---------------------------------------------------------------------------
# Host speed
#
# A shared virtual machine can change speed by tens of percent over minutes,
# for every process alike. Each session is therefore preceded
# by a short probe: a fixed kernel of the primitives the package spends its
# time in (seeded random.Random sampling, sorting, small numpy gathers and
# XOR reductions, set updates, big-integer XOR). It imports nothing from
# lrfcodes, so no change to the package moves it. The gated timing metrics
# scale each measured time by PROBE_REFERENCE_S / probe time, i.e. report it
# as it would read on a host where the probe takes PROBE_REFERENCE_S; the
# wall-clock values are printed and recorded beside them.

PROBE_ROUNDS = 400
# Typical probe time on a 2-vCPU Xeon VM with Python 3.11.7 and numpy 2.4.6.
PROBE_REFERENCE_S = 0.01


class HostProbe:
    def __init__(self, np):
        rng = np.random.default_rng(0)
        self._np = np
        self._rows = rng.integers(0, 256, size=(4096, 64), dtype=np.uint8)
        self._big = int.from_bytes(rng.bytes(512), "little")

    def __call__(self) -> float:
        """Seconds for one pass of the fixed kernel."""
        np, rows, big = self._np, self._rows, self._big
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_ROUNDS):
            picks = random.Random(i * 7919).sample(range(4096), 12)
            picks.sort()
            x = np.bitwise_xor.reduce(rows[np.array(picks, dtype=np.int64)], axis=0)
            pending = set(picks)
            pending.discard(picks[0])
            acc ^= big ^ int(x[0]) ^ len(pending)
        return time.perf_counter() - t0


def host_normalized(seconds: float, probe_s: float) -> float:
    return seconds * PROBE_REFERENCE_S / probe_s


# ---------------------------------------------------------------------------
# Correctness gate


@dataclass
class SessionResult:
    ok: bool
    seconds: float
    metrics: object | None
    error: str | None = None
    probe_s: float = PROBE_REFERENCE_S  # host probe run just before the session


def run_checked(driver, data: bytes, wl: Workload, channel_cfg, session_seed: int,
                rec: Recorder | None = None) -> SessionResult:
    """One timed session; ok only if it returned exactly ``data``."""
    gc.collect()
    frame = rec.enter("transfer.driver", True) if rec is not None else None
    t0 = time.perf_counter()
    try:
        metrics, delivered = driver(
            data, wl.window, wl.symbol_bytes, channel_cfg, EPSILON, wl.scheme,
            seed=session_seed, return_payload=True,
            initial_loss_rate=wl.initial_loss_rate)
    except Exception:  # every failure is counted, none stops the run
        return SessionResult(False, time.perf_counter() - t0, None,
                             traceback.format_exc())
    finally:
        if frame is not None:
            rec.exit(frame)
    seconds = time.perf_counter() - t0
    if delivered != data:
        return SessionResult(False, seconds, metrics,
                             "delivered bytes differ from the source")
    return SessionResult(True, seconds, metrics)


# ---------------------------------------------------------------------------
# Metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def count_metrics(wl: Workload, prefix: list[SessionResult]) -> dict:
    """Link efficiency and degree ratio over the fixed session prefix."""
    ok = [r.metrics for r in prefix if r.ok]
    source = len(ok) * wl.source_symbols
    sent = sum(m.natives_sent + m.encoding_sent for m in ok)
    return {
        "link_efficiency": _ratio(source, sent),
        "degree_ratio": _ratio(sum(m.total_degree_sent for m in ok), source),
    }


def layer_metrics(rec: Recorder, windows: int) -> dict:
    """Per-layer metrics as (value, unit) from the recorder's totals."""
    t, s, n, c = rec.total_s, rec.self_s, rec.calls, rec.counts
    symbols = c["codec.encode.symbols"]
    return {
        "codec.encode.s": (t["codec.encode"], "s"),
        "codec.encode.symbols": (symbols, "count"),
        "codec.encode.us_per_symbol": (_ratio(t["codec.encode"], symbols) * 1e6, "us"),
        "codec.neighbors.s": (t["codec.neighbors"], "s"),
        "codec.degree.s": (t["codec.degree"], "s"),
        "codec.peel.add_symbol.s": (t["codec.peel.add_symbol"], "s"),
        "codec.peel.run.s": (t["codec.peel.run"], "s"),
        "codec.peel.useful_ratio": (_ratio(c["codec.peel.released"],
                                           n["codec.peel.add_symbol"]), "ratio"),
        "codec.peel.add_native.s": (t["codec.peel.add_native"], "s"),
        "codec.peel.add_native.calls": (n["codec.peel.add_native"], "count"),
        "codec.peel.covered_map.s": (t["codec.peel.covered_map"], "s"),
        "codec.peel.pending_rows.s": (t["codec.peel.pending_rows"], "s"),
        "transfer.dest_step.self_s": (s["transfer.dest_step"], "s"),
        "transfer.dest_step.calls": (n["transfer.dest_step"], "count"),
        "channel.estimator.s": (t["channel.estimator"], "s"),
        "channel.reports": (c["channel.reports"], "count"),
        "precode.expand.s": (t["precode.expand"], "s"),
        "precode.solve.self_s": (s["precode.solve"], "s"),
        "precode.solve.calls": (n["precode.solve"], "count"),
        "precode.solve.failed": (c["precode.solve.raised"], "count"),
        "gf2.solve.s": (t["gf2.solve"], "s"),
        "gf2.solve.calls": (n["gf2.solve"], "count"),
        "gf2.solve.unknowns_max": (rec.maxima["gf2.solve.unknowns_max"], "count"),
        "gf2.solve.solved_ratio": (_ratio(c["gf2.solve.solved"],
                                          c["gf2.solve.unknowns"]), "ratio"),
        "transfer.start_window.self_s": (s["transfer.start_window"], "s"),
        "transfer.source_step.self_s": (s["transfer.source_step"], "s"),
        "transfer.conclude.self_s": (s["transfer.conclude"], "s"),
        "transfer.driver.self_s": (s["transfer.driver"], "s"),
        "transfer.feedback_rounds_per_window": (_ratio(n["transfer.conclude"],
                                                       windows), "ratio"),
        "channel.loss_mask.s": (t["channel.loss_mask"], "s"),
        "channel.symbols": (c["channel.symbols"], "count"),
        "channel.drop_ratio": (_ratio(c["channel.dropped"], c["channel.symbols"]),
                               "ratio"),
        "distributions.build.s": (t["distributions.build"], "s"),
        "distributions.build.calls": (n["distributions.build"], "count"),
        "distributions.sample.s": (t["distributions.sample"], "s"),
    }


# ---------------------------------------------------------------------------
# Runs


def measure_untraced(wl: Workload, run,
                     deadline_s: float) -> tuple[dict, dict, dict, list]:
    """Gated metrics, printed-only metrics, raw record and session results."""
    results = []
    t_start = time.perf_counter()
    while (len(results) < wl.count_sessions
           or time.perf_counter() - t_start < deadline_s):
        results.append(run(len(results)))
    ok = [r for r in results if r.ok]
    wall = [r.seconds for r in ok]
    scaled = [host_normalized(r.seconds, r.probe_s) for r in ok]
    verified = len(ok) * wl.session_bytes
    n = f"{len(ok)} sessions"

    def median(xs):
        return statistics.median(xs) if xs else 0.0

    values = {
        "goodput_MBps": (_ratio(verified, sum(scaled)) / 1e6, "MB/s",
                         f"{n}, {verified} B verified, host-normalized"),
        "session_s_p50": (median(scaled), "s", f"{n}, host-normalized"),
    }
    prefix = f"first {wl.count_sessions} sessions"
    for name, value in count_metrics(wl, results[:wl.count_sessions]).items():
        values[name] = (value, "ratio", prefix)
    info = {
        "goodput_wall_MBps": (_ratio(verified, sum(wall)) / 1e6, "MB/s", f"{n}, wall clock"),
        "session_wall_s_p50": (median(wall), "s", f"{n}, wall clock"),
        "host_speed": (median([PROBE_REFERENCE_S / r.probe_s for r in ok]), "ratio",
                       f"{n}, median probe speed relative to the reference"),
    }
    extra = {"session_s": wall, "probe_s": [r.probe_s for r in ok]}
    return values, info, extra, results


def measure_traced(wl: Workload, run, deadline_s: float, inst: Instrumentation,
                   rec: Recorder) -> tuple[dict, dict, dict, list]:
    """Alternate untraced and traced runs of each session; per-layer metrics
    come from the first ``count_sessions`` traced sessions."""
    results, pairs = [], []
    layers = raw = None
    windows = 0
    t_start = time.perf_counter()
    i = 0
    while i < wl.count_sessions or time.perf_counter() - t_start < deadline_s:
        timed = {}
        # Alternate which side runs first so warm caches favour neither.
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                rec.session = i
                with inst:
                    timed[traced] = run(i, rec)
            else:
                timed[traced] = run(i)
            results.append(timed[traced])
        if timed[True].ok:
            windows += timed[True].metrics.windows_completed
        if timed[True].ok and timed[False].ok:
            pairs.append((timed[False].seconds, timed[True].seconds))
        i += 1
        if i == wl.count_sessions:
            layers = layer_metrics(rec, windows)
            raw = {"calls": dict(rec.calls), "total_s": dict(rec.total_s),
                   "self_s": dict(rec.self_s), "counts": dict(rec.counts)}
    prefix = f"first {wl.count_sessions} traced sessions"
    values = {name: (v, unit, prefix) for name, (v, unit) in layers.items()}
    untraced = sum(p[0] for p in pairs)
    values["trace.overhead_ratio"] = (
        _ratio(sum(p[1] for p in pairs), untraced) - 1.0 if untraced else 0.0,
        "ratio", f"{len(pairs)} session pairs")
    return values, {}, {"session_pairs_s": pairs, "prefix_totals": raw}, results


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", type=Path, default=HERE / "results",
                   help="directory for the full result record and spans")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be >= 0")
    return args


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_MB is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(args.out)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = max(status, proc.returncode)
        if proc.returncode == EXIT_NO_PACKAGE or not lines:
            return proc.returncode or EXIT_NO_PACKAGE
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None, driver=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    wl = WORKLOADS[args.workload]
    try:
        lrfcodes, modules = import_package()
    except PackageMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return EXIT_NO_PACKAGE
    import numpy as np

    driver = driver or lrfcodes.run_session
    import_s = time.perf_counter() - _T0
    probe = HostProbe(np)

    def run(index, rec=None):
        session_seed, channel_seed = session_seeds(np, args.seed, index)
        probe_s = probe()
        result = run_checked(driver, data, wl,
                             channel_config(lrfcodes, wl, channel_seed),
                             session_seed, rec)
        result.probe_s = probe_s
        return result

    setups, warmups = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        data = make_payload(np, wl, args.seed)
        payload_s = time.perf_counter() - t0
        warmups.append(run(None))
        setups.append(payload_s + warmups[-1].seconds)

    rec = Recorder()
    if args.trace:
        values, info, extra, results = measure_traced(
            wl, run, args.seconds, Instrumentation(modules, rec), rec)
    else:
        values, info, extra, results = measure_untraced(wl, run, args.seconds)
        setup_wall = import_s + statistics.median(setups)
        setup_probe = statistics.median(r.probe_s for r in warmups)
        values["setup_s"] = (host_normalized(setup_wall, setup_probe), "s",
                             f"median of {SETUP_REPEATS} set-ups, import once, "
                             "host-normalized")
        info["setup_wall_s"] = (setup_wall, "s", "wall clock")
        values["peak_rss_MB"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
            "this process")

    checked = warmups + results
    failures = [r.error for r in checked if not r.ok]
    attempted = len(checked)
    info["session_fail_ratio"] = (
        len(failures) / attempted, "ratio",
        f"{len(failures)} of {attempted} sessions, warm-ups included")

    meta = provenance(lrfcodes, np)
    print(f"# {wl.name}: {wl.scheme} w={wl.window} l={wl.symbol_bytes}B "
          f"{WINDOWS_PER_SESSION} windows/session seed={args.seed} "
          f"trace={args.trace}")
    print(f"# code {meta['commit'] or 'no git'} src {meta['src_sha256'][:12]} "
          f"from {meta['lrfcodes_file']}; Python {meta['python']}, "
          f"numpy {meta['numpy']}, nproc {meta['nproc']}")
    for name, (value, unit, samples) in (values | info).items():
        print(f"{wl.name} {name} = {value:.6g} {unit} ({samples})")
    for error in sorted({e.strip().splitlines()[-1] for e in failures}):
        print(f"# FAILED: {error}")

    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": meta,
        "metrics": {k: {"value": v, "unit": u, "samples": s}
                    for k, (v, u, s) in values.items()},
        "info": {k: {"value": v, "unit": u, "samples": s}
                 for k, (v, u, s) in info.items()},
        "attempted": attempted,
        "failed": len(failures), "failures": failures,
        "setup_repeats_s": setups, "import_s": import_s, **extra,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    stem = (f"{wl.name}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    if args.trace:
        rec.write_spans(args.out / f"{stem}.spans.jsonl")
    (args.out / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in values.items()},
    }))
    return EXIT_INCORRECT if failures else 0


if __name__ == "__main__":
    sys.exit(main())
