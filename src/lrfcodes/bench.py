"""Benchmark harness: encoding ratio, degree ratio, timing, and throughput
experiments over the four schemes, emitting CSV rows and summary tables.

Experiments:
    window-sweep   -- loss-aware codec across window lengths and loss rates;
                      ratios are per *lost* symbol.
    lt-compare     -- robust-soliton fountain baseline vs the loss-aware
                      codec; ratios are per *input* symbol.
    raptor-compare -- precoded baseline vs the precoded loss-aware codec,
                      whose row takes ``d_max``; ratios are per *input*
                      symbol.
    transfer       -- full windowed transfer sessions; throughput from wall
                      time.

The four experiments share one loop and one aggregator, driven by one
table that gives each experiment its schemes, its ratio denominator, its
trials' seeds and its trial, over the spec's window lengths; raptor-compare
and transfer take one. raptor-compare's window is the precode's k, and s and
h follow from it (``SessionConfig.precode_config``). A codec experiment's
trial is one window through the transfer protocol's exchange loop
(``transfer.run_window``): the natives a seeded loss mask marks are lost,
repair symbols always arrive, and NACK-driven repair batches follow until
the window is acked or the source's repair budget runs out. Batch sizes,
repair budgets and the decode-finish logic are therefore those of
``transfer``; the realized overhead is measured rather than assumed. A
transfer trial is one whole session (``transfer.run_session``); a session
that fails counts as one that completed no window. The decode timing column
counts repair decoding only (taking repair batches and concluding windows),
as ``SessionMetrics.decode_time`` does. Timing columns, and transfer's
throughput, are filled only when timing is enabled; without it they stay
empty so CSV output is byte-identical across runs with the same master seed.
"""

from __future__ import annotations

import csv
import statistics
import sys
from dataclasses import dataclass, fields

from .channel import Channel, ChannelConfig
from .codec import SourceBlock, derive_seed
from .errors import InvalidParameterError, SessionFailure, check_real, check_size
from .transfer import (SCHEMES, DestinationState, Natives, SessionConfig, SessionMetrics,
                       SourceState, run_session, run_window)

EXPERIMENTS = ("window-sweep", "lt-compare", "raptor-compare", "transfer")


@dataclass
class ExperimentSpec:
    experiment: str
    window_lengths: tuple[int, ...] = (1000,)
    loss_rates: tuple[float, ...] = (0.01,)
    trials: int = 30
    master_seed: int = 1
    symbol_bytes: int = 64
    total_symbols: int = 100_000
    epsilon: float = 0.1
    d_max: int | None = None
    timing: bool = False
    trace: object = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise InvalidParameterError(
                f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENTS}")
        check_size("trials", self.trials)
        self.master_seed = check_size("master_seed", self.master_seed, low=0)
        check_size("total_symbols", self.total_symbols)
        check_size("symbol_bytes", self.symbol_bytes)
        if not self.loss_rates or not self.window_lengths:
            raise InvalidParameterError("need loss rates and window lengths")
        for w in self.window_lengths:
            check_size("window length", w)
        for p in self.loss_rates:
            check_real("loss rate", p, 0.0, 1.0)
        check_real("epsilon", self.epsilon, 0.0)
        if self.experiment in ("raptor-compare", "transfer") and len(self.window_lengths) > 1:
            raise InvalidParameterError(
                f"{self.experiment} takes one window, got {self.window_lengths}")
        capped = any(SCHEMES[s].capped for s in _EXPERIMENTS[self.experiment][0])
        if self.d_max is not None and not capped:
            raise InvalidParameterError(f"{self.experiment} runs no scheme that takes d_max")


@dataclass
class ResultRow:
    experiment: str
    scheme: str
    window_len: int
    loss_rate: float
    trials: int
    encoding_ratio: float
    degree_ratio: float
    encode_ns_per_lost: float | None
    decode_ns_per_lost: float | None
    throughput_MBps: float | None
    success_rate: float
    master_seed: int


CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))


def _trial_seed(master: int, *parts: int) -> int:
    s = master
    for p in parts:
        s = derive_seed(s, p)
    return s


def _trace(spec: ExperimentSpec, line: str) -> None:
    if spec.trace is not None:
        spec.trace.write(line + "\n")


# ---------------------------------------------------------------------------
# Trials


def _codec_trial(spec: ExperimentSpec, scheme: str, w: int, p: float, t: int,
                 seed: int) -> SessionMetrics | None:
    """One w-symbol window of the transfer protocol under ``scheme``; the
    trial succeeded if its metrics count the window completed.

    The source is warm-started at the true loss fraction m/w, so a
    loss-aware scheme sizes its proactive repair from the m natives the mask
    drops. A scheme whose natives do not travel starts from a rate of 0, so
    its first batch is w symbols. Returns None for a loss-aware trial that
    lost nothing: it sends no repair, so there is nothing to measure.
    """
    row = SCHEMES[scheme]
    channel = ChannelConfig(p, derive_seed(seed, 1))
    mask = Channel(channel).loss_mask(w)
    m = int(mask.sum())
    if m == 0 and row.loss_aware:
        return None
    cfg = SessionConfig(window=w, symbol_bytes=spec.symbol_bytes,
                        epsilon=spec.epsilon, scheme=scheme, channel=channel,
                        seed=seed, d_max=spec.d_max if row.capped else None,
                        initial_loss_rate=m / w if row.natives else 0.0)
    metrics = SessionMetrics()
    block = SourceBlock.random(w, spec.symbol_bytes, derive_seed(seed, 0))

    def deliver(emissions: list) -> list:
        return [Natives(em.window, em.rows, mask) if isinstance(em, Natives) else em
                for em in emissions]

    try:
        run_window(SourceState(cfg, metrics), DestinationState(cfg, metrics, 1), 0, block, deliver)
    except SessionFailure:
        _trace(spec, f"{spec.experiment},{scheme},{w},{p},trial={t},"
                     f"failure unresolved_after_budget enc_sent={metrics.encoding_sent}")
    return metrics


def _session_trial(spec: ExperimentSpec, scheme: str, w: int, p: float, t: int,
                   seed: int) -> SessionMetrics:
    """One ``run_session`` of ``spec.total_symbols`` symbols in windows of w;
    a failed session counts as one that completed no window."""
    try:
        return run_session(spec.total_symbols * spec.symbol_bytes, w, spec.symbol_bytes,
                           ChannelConfig(p, derive_seed(seed, 7)), spec.epsilon, scheme,
                           seed=seed, d_max=spec.d_max if SCHEMES[scheme].capped else None)
    except SessionFailure as exc:
        _trace(spec, f"{spec.experiment},{scheme},{w},{p},trial={t},"
                     f"session_failure window={exc.window} unresolved={exc.unresolved}")
        return SessionMetrics()


# ---------------------------------------------------------------------------
# Aggregation


def _aggregate(spec: ExperimentSpec, scheme: str, w: int, p: float,
               trials: list[SessionMetrics | None], per_input: bool) -> ResultRow:
    """One row over a (window, loss rate, scheme) cell's trials. Ratios
    average over the trials that succeeded, or over all of them when none
    did; timing and throughput average over the successful ones only."""
    used = [t for t in trials if t is not None]
    skipped = len(trials) - len(used)
    if skipped:
        _trace(spec, f"{spec.experiment},{scheme},{w},{p},"
                     f"skipped_zero_loss_trials={skipped}")
    if not used:
        return ResultRow(spec.experiment, scheme, w, p, 0, 0.0, 0.0,
                         None, None, None, 1.0, spec.master_seed)
    ok = [m for m in used if m.windows_completed]
    denom = (lambda m: w) if per_input else (lambda m: max(m.lost, 1))
    sample = ok if ok else used
    enc_ratio = statistics.fmean(m.encoding_sent / denom(m) for m in sample)
    deg_ratio = statistics.fmean(m.total_degree_sent / denom(m) for m in sample)
    enc_ns = dec_ns = tput = None
    if spec.timing and ok:
        enc_ns = statistics.fmean(m.encode_time * 1e9 / denom(m) for m in ok)
        dec_ns = statistics.fmean(m.decode_time * 1e9 / denom(m) for m in ok)
        if spec.experiment == "transfer":
            tput = statistics.fmean(m.throughput_bytes_per_s for m in ok) / 1e6
    return ResultRow(spec.experiment, scheme, w, p, len(used), enc_ratio,
                     deg_ratio, enc_ns, dec_ns, tput, len(ok) / len(used),
                     spec.master_seed)


# ---------------------------------------------------------------------------
# Experiment driver


# Each experiment's schemes, whether its ratios are per input symbol (else
# per lost symbol), its trials' seed paths from the (window, loss rate,
# scheme, trial) indices (the leading tag keeps experiments apart), and its
# trial. raptor-compare and transfer run one window, so their paths leave
# out its index.
_EXPERIMENTS = {
    "window-sweep": (("LRF",), False, lambda wi, pi, si, t: (1, wi, pi, t),
                     _codec_trial),
    "lt-compare": (("LT", "LRF"), True, lambda wi, pi, si, t: (2, wi, pi, si, t),
                   _codec_trial),
    "raptor-compare": (("Raptor", "LR-Raptor"), True, lambda wi, pi, si, t: (3, pi, si, t),
                       _codec_trial),
    "transfer": (SCHEMES, False, lambda wi, pi, si, t: (4, pi, si, t),
                 _session_trial),
}


def run_experiment(spec: ExperimentSpec) -> list[ResultRow]:
    """A row per (window, loss rate, scheme) of the spec's experiment."""
    schemes, per_input, seed_path, trial = _EXPERIMENTS[spec.experiment]
    rows = []
    for wi, w in enumerate(spec.window_lengths):
        for pi, p in enumerate(spec.loss_rates):
            for si, scheme in enumerate(schemes):
                trials = [trial(spec, scheme, w, p, t,
                                _trial_seed(spec.master_seed, *seed_path(wi, pi, si, t)))
                          for t in range(spec.trials)]
                rows.append(_aggregate(spec, scheme, w, p, trials, per_input))
    return rows


# ---------------------------------------------------------------------------
# Output


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_csv(rows: list[ResultRow], path) -> None:
    """Write rows with the fixed 12-column schema (RFC 4180, header row)."""
    if not rows:
        raise InvalidParameterError("no result rows to emit")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(_format_cell(getattr(row, col)) for col in CSV_COLUMNS)


def emit_summary(rows: list[ResultRow]) -> None:
    """Per-experiment/scheme medians on stdout."""
    if not rows:
        raise InvalidParameterError("no result rows to summarize")
    groups: dict[tuple[str, str], list[ResultRow]] = {}
    for row in rows:
        groups.setdefault((row.experiment, row.scheme), []).append(row)
    sys.stdout.write(f"{'experiment':<15} {'scheme':<10} {'rows':>5} "
                     f"{'med_enc_ratio':>14} {'med_deg_ratio':>14} {'med_success':>12}\n")
    for (exp, scheme), grp in groups.items():
        enc = statistics.median(r.encoding_ratio for r in grp)
        deg = statistics.median(r.degree_ratio for r in grp)
        suc = statistics.median(r.success_rate for r in grp)
        sys.stdout.write(f"{exp:<15} {scheme:<10} {len(grp):>5} "
                         f"{enc:>14.6g} {deg:>14.6g} {suc:>12.3f}\n")
