"""Windowed transfer over an erasure channel with proactive repair symbols.

Source and destination are explicit state machines driven by an event loop
with a global symbol clock (no real sockets). Per window of w symbols the
source emits the natives plus, for the loss-aware schemes, ceil((1+eps) * m)
encoding symbols sized from the latest fed-back loss estimate. The natives
travel as one ``Natives`` event (the (w, l) rows) and each batch of encoding
symbols as one ``Repairs`` event; one channel mask drops rows of both. The
destination takes the received natives in one copy of the block and their
loss mask in one estimator pass, hands each batch to the window's peeling
decoder, peels when a delivery phase ends, acks the window on full
recovery, and feeds back one ``LossReport`` per natives event, counting that
window's natives, to the source; the report is itself the feedback event.
One rule, ``SourceState._resize``, sizes a loss-aware window's law, NACK
batch and repair budget, at window start and on a NACK. ``run_window`` is
the one exchange loop of a window for sessions and bench trials alike. A
session decodes in place: its ``DestinationState`` allocates the delivered
payload once, each window's natives land in their rows of it, and a window
is finished as its scheme's row says (peeled, or solved with the precode).
A window's decode ends at its ack: ``conclude`` retires its decoder. The
state machines read a scheme's row of ``SCHEMES``, never its name.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import Channel, ChannelConfig, LossRateEstimator, LossReport
from .codec import (MAX_WINDOW, PeelDecoder, RepairBatch, SourceBlock, derive_seed,
                    encode_stream)
from .distributions import (DegreeDistribution, LossContext, lr_raptor_dist,
                            lrf_ideal, min_degree, robust_soliton)
from .errors import (DecodeFailure, InvalidInputError, InvalidParameterError, SessionFailure,
                     check_real, check_size)
from .precode import PrecodeConfig, precode_expand, precode_solve


@dataclass(frozen=True)
class Scheme:
    """One scheme's protocol choices: a row of ``SCHEMES``."""

    natives: bool   # the window's natives travel
    precoded: bool  # repair is encoded over the precode's k+s+h intermediates
    # None: ``_resize`` sizes the law from the fed-back loss. Else the law is
    # the robust soliton and a NACK batch is max(floor, block // divisor).
    nack_batch: tuple[int, int] | None
    capped: bool = False  # ``d_max`` may cap the law

    @property
    def loss_aware(self) -> bool:
        return self.nack_batch is None


SCHEMES: dict[str, Scheme] = {
    # Pure fountain baseline: robust-soliton symbols only, streamed until the window decodes.
    "LT": Scheme(natives=False, precoded=False, nack_batch=(32, 50)),
    # Natives plus loss-aware truncated-soliton repair symbols.
    "LRF": Scheme(natives=True, precoded=False, nack_batch=None),
    # Systematic precode: natives plus robust-soliton symbols over it, streamed on demand.
    "Raptor": Scheme(natives=True, precoded=True, nack_batch=(16, 100)),
    # Systematic precode: natives plus loss-aware repair symbols over it.
    "LR-Raptor": Scheme(natives=True, precoded=True, nack_batch=None, capped=True),
}

# The precode's shape: k is the window, and s and h are these fractions of
# it, matching the standard (k, s, h) proportions for a ~10k block.
SPARSE_PARITY_FRACTION = 241 / 10017
DENSE_PARITY_FRACTION = 11 / 10017


# Repair-loop sizing. A loss-aware window's NACK batch is EXTRA_BATCH_FRAC of
# its proactive count m', and its extra repair at most BUDGET_FACTOR * m'; a
# robust-soliton window's is at most BUDGET_FACTOR * block. A row without natives
# first sends ceil(block / (1 - p)) for the fed-back rate p, read as at most
# LT_MAX_LOSS_RATE.
EXTRA_BATCH_FRAC = 0.25
BUDGET_FACTOR = 3.0
LT_MAX_LOSS_RATE = 0.5
# The robust soliton law of the rows that are not loss-aware: failure bound delta, constant c.
ROBUST_DELTA, ROBUST_C = 0.5, 0.1


def default_precode_shape(k: int) -> tuple[int, int]:
    s = max(1, round(SPARSE_PARITY_FRACTION * k))
    h = max(2, round(DENSE_PARITY_FRACTION * k))
    return s, h


def normalize_scheme(scheme: str) -> str:
    names = {name.lower(): name for name in SCHEMES}
    if isinstance(scheme, str) and scheme.lower() in names:
        return names[scheme.lower()]
    raise InvalidParameterError(f"unknown scheme {scheme!r}; expected one of {tuple(SCHEMES)}")


# ---------------------------------------------------------------------------
# Events


@dataclass(frozen=True, eq=False)
class Natives:
    """A window's natives as one event: the (w, l) uint8 ``rows`` (the block, not
    a copy) and the (w,) bool ``lost`` mask of sequence gaps (None from a source)."""

    window: int
    rows: np.ndarray
    lost: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class Repairs:
    """A batch of repair symbols for one window, as one event."""

    window: int
    batch: RepairBatch


@dataclass(frozen=True)
class Ack:
    window: int


@dataclass(frozen=True)
class WindowNack:
    """The destination cannot finish this window; more repair is needed."""

    window: int
    unresolved: int


# ---------------------------------------------------------------------------
# Metrics


@dataclass
class SessionMetrics:
    natives_sent: int = 0
    encoding_sent: int = 0
    total_degree_sent: int = 0
    lost: int = 0
    delivered: int = 0
    recovered: int = 0
    windows_completed: int = 0
    encode_time: float = 0.0
    # Repair decoding: taking repair batches and concluding windows.
    decode_time: float = 0.0
    wall_time: float = 0.0
    bytes_delivered: int = 0
    # Events the destination rejected as malformed (wrong type, bad length,
    # unresolvable neighbors) and dropped.
    protocol_errors: int = 0

    @property
    def throughput_bytes_per_s(self) -> float:
        return self.bytes_delivered / self.wall_time if self.wall_time > 0 else 0.0


# ---------------------------------------------------------------------------
# Configuration


@dataclass
class SessionConfig:
    window: int
    symbol_bytes: int
    epsilon: float
    scheme: str
    channel: ChannelConfig
    seed: int = 0
    d_max: int | None = None  # a capped scheme's degree cap; None is no cap
    # Warm-start loss estimate; None means "assume the channel's configured
    # rate was already fed back before the session".
    initial_loss_rate: float | None = None
    trace: object = None

    def __post_init__(self):
        self.scheme = normalize_scheme(self.scheme)
        self.seed = check_size("seed", self.seed, low=0)
        # Each size is an integer >= 1; only a capped row's law has a cap.
        for name in ("window", "symbol_bytes") + (("d_max",) if self.d_max is not None else ()):
            check_size(name, getattr(self, name))
        if self.d_max is not None and not SCHEMES[self.scheme].capped:
            raise InvalidParameterError(f"{self.scheme} takes no d_max: its law has no cap")
        check_real("epsilon", self.epsilon, 0.0)
        if self.initial_loss_rate is not None:
            check_real("initial loss rate", self.initial_loss_rate, 0.0, 1.0)
        if not isinstance(self.channel, ChannelConfig):
            raise InvalidParameterError(f"channel must be a ChannelConfig, not "
                                        f"{type(self.channel).__name__}")
        # The block the encoder sees: the window, or its precode's intermediates.
        check_size("encoded block", self.precode_config().total if SCHEMES[self.scheme].precoded
                   else self.window, high=MAX_WINDOW)

    def precode_config(self) -> PrecodeConfig:
        return PrecodeConfig(self.window, *default_precode_shape(self.window),
                             seed=derive_seed(self.seed, 0x9C0DE))


# ---------------------------------------------------------------------------
# Source


@dataclass
class _RepairPlan:
    block: SourceBlock               # block repairs are encoded over
    dist: DegreeDistribution | None
    base_seed: int
    next_id: int = 0
    extra_sent: int = 0
    extra_budget: int = 0
    batch: int = 1
    m_hat: int = 0                   # predicted loss the dist was sized for


class SourceState:
    """Source side: emits natives and repair symbols per window, re-sizes the
    repair distribution from fed-back loss estimates."""

    def __init__(self, cfg: SessionConfig, metrics: SessionMetrics):
        self.cfg = cfg
        self.metrics = metrics
        self.known_loss_rate = (cfg.initial_loss_rate if cfg.initial_loss_rate is not None
                                else cfg.channel.loss_rate)
        self.row = SCHEMES[cfg.scheme]
        self.plans: dict[int, _RepairPlan] = {}

    # -- helpers

    def _encode(self, plan: _RepairPlan, count: int, window: int) -> Repairs:
        t0 = time.perf_counter()
        batch = encode_stream(plan.block, plan.dist, plan.base_seed, count,
                              start_id=plan.next_id)
        self.metrics.encode_time += time.perf_counter() - t0
        plan.next_id += count
        self.metrics.encoding_sent += count
        self.metrics.total_degree_sent += int(batch.degrees.sum())
        return Repairs(window, batch)

    def _resize(self, plan: _RepairPlan, m_hat: int) -> int:
        """Size the plan's loss-aware law, NACK batch and extra budget for a
        predicted loss of m_hat >= 1 natives; returns the proactive count
        m'. The budget never shrinks, and allows BUDGET_FACTOR * m' symbols
        beyond the extra repair already sent."""
        total = plan.block.w
        ctx = LossContext(total, min(m_hat, total))
        if self.cfg.d_max is None:
            plan.dist = lrf_ideal(ctx)
        else:
            # A cap below the law's least useful degree is raised to it: a one-degree law.
            plan.dist = lr_raptor_dist(ctx, max(min(self.cfg.d_max, total), min_degree(ctx)))
        plan.m_hat = m_hat
        m_prime = math.ceil((1.0 + self.cfg.epsilon) * m_hat)
        plan.batch = math.ceil(EXTRA_BATCH_FRAC * m_prime)
        plan.extra_budget = max(plan.extra_budget,
                                plan.extra_sent + math.ceil(BUDGET_FACTOR * m_prime))
        return m_prime

    # -- protocol surface

    def start_window(self, index: int, block: SourceBlock) -> list:
        cfg, row = self.cfg, self.row
        p_hat = self.known_loss_rate
        enc_block = precode_expand(block, cfg.precode_config()) if row.precoded else block
        total = enc_block.w
        plan = self.plans[index] = _RepairPlan(block=enc_block, dist=None,
                                               base_seed=derive_seed(cfg.seed, index))
        emissions: list = []
        if row.natives:
            emissions.append(Natives(index, block.data))
            self.metrics.natives_sent += block.w

        if not row.loss_aware:
            plan.dist = robust_soliton(total, ROBUST_DELTA, ROBUST_C)
            plan.extra_budget = math.ceil(BUDGET_FACTOR * total)
            floor, divisor = row.nack_batch
            plan.batch = max(floor, total // divisor)
            if not row.natives:
                initial = math.ceil(total / (1.0 - min(p_hat, LT_MAX_LOSS_RATE)))
                emissions.append(self._encode(plan, initial, index))
            return emissions

        # Loss-aware schemes: proactive repair sized from the fed-back rate.
        # Lost natives alone set the size; for the precoded scheme the parity
        # intermediates fall out of the precode constraints at the decoder.
        if p_hat > 0:
            m_prime = self._resize(plan, max(1, round(p_hat * block.w)))
            emissions.append(self._encode(plan, m_prime, index))
        return emissions

    def step(self, events: Sequence) -> list:
        """React to feedback: loss reports retune the estimate, nacks emit
        another repair batch (bounded by the window's extra budget)."""
        emissions: list = []
        for ev in events:
            if isinstance(ev, LossReport):
                self.known_loss_rate = ev.estimate
            elif isinstance(ev, Ack):
                self.plans.pop(ev.window, None)
            elif isinstance(ev, WindowNack):
                plan = self.plans.get(ev.window)
                if plan is None:
                    continue
                if self.row.loss_aware:
                    # Re-size the repair law only for more unresolved natives
                    # than the m_hat it was sized for (0 if it has no law yet).
                    m_hat = max(1, ev.unresolved)
                    if m_hat > plan.m_hat:
                        self._resize(plan, m_hat)
                count = min(plan.batch, plan.extra_budget - plan.extra_sent)
                if count <= 0:
                    raise SessionFailure(
                        f"window {ev.window} undecodable after repair budget "
                        f"({plan.extra_sent} extra symbols)",
                        window=ev.window, unresolved=ev.unresolved)
                plan.extra_sent += count
                emissions.append(self._encode(plan, count, ev.window))
        return emissions


# ---------------------------------------------------------------------------
# Destination


def _is_array(a, shape: tuple, dtype) -> bool:
    return isinstance(a, np.ndarray) and a.shape == shape and a.dtype == dtype


class DestinationState:
    """Destination side: feeds arrivals to per-window decoders, peels when a
    delivery phase ends, acks windows on full recovery, and emits one loss
    report per natives event.

    It holds the session's delivered payload: ``delivered``, one zeroed
    ``bytearray`` of windows·k·l bytes, and ``out``, its (windows, k, l)
    uint8 view. Window i's natives land in ``out[i]``: a scheme that is not
    precoded decodes straight into it, a precoded one's ``precode_solve``
    writes it. An event for a window past ``out`` is malformed.

    ``windows`` maps a window's index to its decoder while it is open and
    to None once it is acked; a window never opened has no key. Events for
    an acked window still count as delivered or lost but touch no decoder.
    ``natives_seen`` counts each window's natives received."""

    def __init__(self, cfg: SessionConfig, metrics: SessionMetrics, windows: int):
        self.cfg = cfg
        self.metrics = metrics
        self.estimator = LossRateEstimator()
        self.windows: dict[int, PeelDecoder | None] = {}
        self.precode = cfg.precode_config() if SCHEMES[cfg.scheme].precoded else None
        # Every window's decoder: its symbol count and symbol bytes.
        self._shape = (self.precode.total if self.precode else cfg.window, cfg.symbol_bytes)
        shape = (check_size("windows", windows), cfg.window, cfg.symbol_bytes)
        self.delivered = bytearray(math.prod(shape))
        self.out = np.frombuffer(self.delivered, dtype=np.uint8).reshape(shape)
        self.natives_seen = np.zeros(windows, dtype=np.int64)

    def _decoder(self, index: int) -> PeelDecoder | None:
        """The window's decoder, opened on first use; None once it is acked."""
        if index not in self.windows:
            rows = None if self.precode else self.out[index]
            self.windows[index] = PeelDecoder(*self._shape, payloads=rows)
        return self.windows[index]

    def step(self, event) -> list:
        """Process one arrival event. A malformed event, or a batch's
        malformed rows, is dropped and counted in ``protocol_errors`` before
        it can open a window; any error but ``InvalidInputError`` is a fault
        and propagates."""
        out: list = []
        try:
            if (not isinstance(event, (Natives, Repairs)) or isinstance(event.window, bool)
                    or not isinstance(event.window, numbers.Integral)
                    or not 0 <= event.window < len(self.out)
                    or isinstance(event, Repairs) and not isinstance(event.batch, RepairBatch)):
                raise InvalidInputError("not an arrival event (a window index in 0..windows-1 "
                                        "and a RepairBatch for repairs)")
            index = int(event.window)
            if isinstance(event, Natives):
                k, l = self.cfg.window, self.cfg.symbol_bytes
                lost = np.zeros(k, dtype=bool) if event.lost is None else event.lost
                if not (_is_array(event.rows, (k, l), np.uint8) and _is_array(lost, (k,), bool)):
                    raise InvalidInputError(
                        f"natives event: ({k}, {l}) uint8 rows, ({k},) bool mask")
                decoder = self._decoder(index)
                if decoder is not None:
                    # Rejects a covered native before any count moves.
                    decoder.add_natives(event.rows, ~lost)
                report = self.estimator.observe_many(lost)
                out.append(report)
                dropped = report.lost
                self.natives_seen[index] += k - dropped
                self.metrics.delivered += k - dropped
                self.metrics.lost += dropped
            else:
                batch = event.batch
                t0 = time.perf_counter()
                # Each malformed row is dropped and counted once; the rest
                # of the batch is decoded without another check.
                bad = batch.malformed(*self._shape)
                good = bad.size - int(np.count_nonzero(bad))
                self.metrics.protocol_errors += bad.size - good
                if good:
                    if good < bad.size:
                        batch = batch.select(~bad)
                    decoder = self._decoder(index)
                    if decoder is not None:
                        decoder._take(batch.resolved(self._shape[0]))
                    self.metrics.delivered += len(batch)
                self.metrics.decode_time += time.perf_counter() - t0
        except InvalidInputError:
            self.metrics.protocol_errors += 1
        return out

    def conclude(self, index: int) -> list:
        """Attempt to finish a window after a delivery phase. On full
        recovery, with the window's natives in ``out[index]``, it retires
        the window's decoder and emits an Ack; otherwise a WindowNack asking
        for more repair; on a window already acked, nothing. An index
        outside 0..windows-1 raises ``InvalidParameterError``."""
        index = check_size("window index", index, low=0, high=len(self.out) - 1)
        decoder = self._decoder(index)
        if decoder is None:
            return []
        k = self.cfg.window
        t0 = time.perf_counter()
        decoder.run()
        # The row's ``precoded`` flag picks the finish. Finishing LT with
        # precode_solve over an empty precode cut perfbench's ``lt-stream``
        # goodput from 11.4 to 3.9 MB/s (seed 1); RESIDUAL_CAP 400 in place of
        # 2000 cut ``lr-raptor-burst`` from 122.8 to 75.1: no cap serves both.
        if self.precode is None:
            done = decoder.success
            if done:
                decoder.payloads  # the read writes the queued releases into out[index]
        else:
            try:
                precode_solve(decoder, self.precode, self.out[index])
                done = True
            except DecodeFailure:
                done = False
        self.metrics.decode_time += time.perf_counter() - t0

        if not done:
            unresolved = k - int(np.count_nonzero(decoder.covered[:k]))
            return [WindowNack(index, unresolved)]

        self.windows[index] = None
        self.metrics.windows_completed += 1
        self.metrics.recovered += k - int(self.natives_seen[index])
        return [Ack(index)]


# ---------------------------------------------------------------------------
# Session driver


def run_window(source: SourceState, dest: DestinationState, index: int, block: SourceBlock,
               deliver) -> np.ndarray:
    """Exchange one window until it is acked; returns its (k, l) natives, the
    view ``dest.out[index]``.

    Each round, ``deliver`` maps the source's emissions to the events that
    reach the destination, which steps each and concludes the window; its
    responses go to the source, whose reply is the next round's emissions.

    Raises:
        SessionFailure: the source's repair budget for the window ran out.
    """
    emissions = source.start_window(index, block)
    while True:
        responses: list = []
        for ev in deliver(emissions):
            responses += dest.step(ev)
        responses += dest.conclude(index)
        emissions = source.step(responses)
        if any(isinstance(r, Ack) for r in responses):
            return dest.out[index]


def _split_windows(data: bytes, w: int, l: int) -> list[np.ndarray]:
    """The data as (w, l) uint8 windows: read-only views of the whole ones,
    then the rest, if any, copied into a zero-padded window of its own."""
    whole, rest = divmod(len(data), w * l)
    flat = np.frombuffer(data, dtype=np.uint8)
    windows = list(flat[:whole * w * l].reshape(whole, w, l))
    if rest:
        last = np.zeros((w, l), dtype=np.uint8)
        last.reshape(-1)[:rest] = flat[whole * w * l:]
        windows.append(last)
    return windows


def run_session(data, window: int, symbol_bytes: int, channel_cfg: ChannelConfig,
                epsilon: float, scheme: str, seed: int = 0,
                return_payload: bool = False, **options):
    """Drive one source -> channel -> destination session to completion.

    ``data`` is either the payload (bytes, bytearray, memoryview or a uint8
    array) or an integer size (deterministic pseudo-random payload derived
    from ``seed``). Returns ``SessionMetrics``, or with
    ``return_payload=True`` ``(metrics, delivered)``: ``delivered`` is a
    ``bytearray`` (equal to the payload as ``bytes``), the one buffer the
    windows were decoded into, trimmed of the last window's padding.

    Raises:
        InvalidParameterError: ``data`` is neither bytes-like nor a size.
        SessionFailure: some window stayed undecodable within its repair
            budget.
    """
    cfg = SessionConfig(window=window, symbol_bytes=symbol_bytes, epsilon=epsilon,
                        scheme=scheme, channel=channel_cfg, seed=seed, **options)
    if isinstance(data, numbers.Integral):
        rng = np.random.default_rng(derive_seed(cfg.seed, 0xDA7A))
        data = rng.integers(0, 256, size=check_size("payload size", data, low=0),
                            dtype=np.uint8).tobytes()
    elif isinstance(data, (bytes, bytearray, memoryview)) or (
            isinstance(data, np.ndarray) and data.dtype == np.uint8):
        data = bytes(data)
    else:
        raise InvalidParameterError(f"data must be bytes, bytearray, memoryview, a uint8 array "
                                    f"or a size, not {type(data).__name__}")
    size = len(data)
    if size == 0:
        raise InvalidParameterError("no data to transfer")

    metrics = SessionMetrics()
    source = SourceState(cfg, metrics)
    chan = Channel(channel_cfg)
    trace = cfg.trace
    clock = 0

    def deliver(emissions: list) -> list:
        # One loss draw covers the emissions in order, an event's rows one by
        # one; each symbol is traced at its own link position.
        nonlocal clock
        ends = np.cumsum([0] + [len(em.rows) if isinstance(em, Natives) else len(em.batch)
                                for em in emissions])
        mask = chan.loss_mask(int(ends[-1]))
        events = []
        for em, dropped in zip(emissions, np.split(mask, ends[1:-1])):
            natives = isinstance(em, Natives)
            if trace:
                ids, kinds = ((range(dropped.size), ("NativeSymbol", "NativeLoss")) if natives
                              else (em.batch.ids.tolist(), ("RepairSymbol", "repair_lost")))
                for ident, gone in zip(ids, dropped.tolist()):
                    clock += 1
                    trace.write(f"{clock},{kinds[gone]},{em.window},{ident},\n")
            else:
                clock += dropped.size
            if natives:
                events.append(Natives(em.window, em.rows, dropped))
            else:
                metrics.lost += int(np.count_nonzero(dropped))
                if not dropped.all():  # a lost repair symbol raises no event
                    events.append(Repairs(em.window, em.batch.select(~dropped)))
        return events

    t_start = time.perf_counter()
    windows = _split_windows(data, window, symbol_bytes)
    # The destination allocates the delivered payload once and decodes each
    # window into its rows, so an acked window's natives need no copy.
    dest = DestinationState(cfg, metrics, len(windows))

    for index, window_data in enumerate(windows):
        run_window(source, dest, index, SourceBlock(window_data), deliver)
        if trace:
            trace.write(f"{clock},ack,{index},,\n")

    metrics.wall_time = time.perf_counter() - t_start
    # With no view of it left, the buffer drops its padding in place.
    delivered = dest.delivered
    del dest
    del delivered[size:]
    if delivered != data:
        raise SessionFailure("delivered data does not match source data",
                             window=-1, unresolved=0)
    metrics.bytes_delivered = size
    if return_payload:
        return metrics, delivered
    return metrics
