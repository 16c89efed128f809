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
batch and repair budget, at window start and on a NACK. ``run_window``, the
one exchange loop of a window for sessions and bench trials alike, takes the
acked window's natives and the destination forgets the window.

Schemes:
    LT        -- pure fountain baseline: robust-soliton encoding symbols
                 only, streamed until the window decodes.
    LRF       -- natives plus loss-aware truncated-soliton repair symbols.
    Raptor    -- systematic precode; natives plus robust-soliton symbols
                 over the intermediate block, streamed on demand.
    LR-Raptor -- systematic precode; natives plus loss-aware repair symbols
                 (capped at ``d_max`` when set) over the intermediate block.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import Channel, ChannelConfig, LossRateEstimator, LossReport
from .codec import PeelDecoder, RepairBatch, SourceBlock, derive_seed, encode_stream
from .distributions import (DegreeDistribution, LossContext, lr_raptor_dist,
                            lrf_ideal, robust_soliton)
from .errors import (DecodeFailure, InvalidInputError, InvalidParameterError, SessionFailure,
                     check_size)
from .precode import PrecodeConfig, precode_expand, precode_solve

SCHEMES = ("LT", "LRF", "Raptor", "LR-Raptor")

# The precode's shape: k is the window, and s and h are these fractions of
# it, matching the standard (k, s, h) proportions for a ~10k block.
SPARSE_PARITY_FRACTION = 241 / 10017
DENSE_PARITY_FRACTION = 11 / 10017


# Repair-loop sizing. A loss-aware window's NACK batch is EXTRA_BATCH_FRAC
# of its proactive count m', and its extra repair is capped at
# BUDGET_FACTOR * m'; LT and Raptor cap theirs at BASELINE_EXTRA_FACTOR times
# the block.
EXTRA_BATCH_FRAC = 0.25
BUDGET_FACTOR = 3.0
BASELINE_EXTRA_FACTOR = 3.0
# LT's and Raptor's NACK batches are a share of the block with a floor:
# max(MIN, block // DIVISOR). LT's first batch is ceil(w / (1 - p)) for the
# fed-back rate p, read as at most LT_MAX_LOSS_RATE.
LT_BATCH_MIN, LT_BATCH_DIVISOR = 32, 50
RAPTOR_BATCH_MIN, RAPTOR_BATCH_DIVISOR = 16, 100
LT_MAX_LOSS_RATE = 0.5
# The robust soliton law of LT and Raptor: failure bound delta, constant c.
ROBUST_DELTA, ROBUST_C = 0.5, 0.1


def default_precode_shape(k: int) -> tuple[int, int]:
    s = max(1, round(SPARSE_PARITY_FRACTION * k))
    h = max(2, round(DENSE_PARITY_FRACTION * k))
    return s, h


def normalize_scheme(scheme: str) -> str:
    for s in SCHEMES:
        if scheme.lower() == s.lower():
            return s
    raise InvalidParameterError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


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
    d_max: int | None = None
    # Warm-start loss estimate; None means "assume the channel's configured
    # rate was already fed back before the session".
    initial_loss_rate: float | None = None
    trace: object = None

    def __post_init__(self):
        self.scheme = normalize_scheme(self.scheme)
        # Each size is an integer >= 1; a None d_max is no cap.
        for name in ("window", "symbol_bytes") + (("d_max",) if self.d_max is not None else ()):
            check_size(name, getattr(self, name))
        if not 0 <= self.epsilon < math.inf:
            raise InvalidParameterError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if self.initial_loss_rate is not None and not 0.0 <= self.initial_loss_rate <= 1.0:
            raise InvalidParameterError(
                f"initial loss rate {self.initial_loss_rate} outside [0, 1]")

    @property
    def uses_precode(self) -> bool:
        return self.scheme in ("Raptor", "LR-Raptor")

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
        predicted loss of m_hat natives; returns the proactive count m'. The
        budget never shrinks, and allows BUDGET_FACTOR * m' symbols beyond
        the extra repair already sent."""
        total = plan.block.w
        ctx = LossContext(total, min(m_hat, total))
        if self.cfg.scheme == "LR-Raptor":
            plan.dist = lr_raptor_dist(ctx, min(self.cfg.d_max or total, total))
        else:
            plan.dist = lrf_ideal(ctx)
        plan.m_hat = m_hat
        m_prime = math.ceil((1.0 + self.cfg.epsilon) * m_hat)
        plan.batch = max(1, math.ceil(EXTRA_BATCH_FRAC * max(m_prime, 1)))
        plan.extra_budget = max(plan.extra_budget,
                                plan.extra_sent + math.ceil(BUDGET_FACTOR * max(m_prime, 1)))
        return m_prime

    # -- protocol surface

    def start_window(self, index: int, block: SourceBlock) -> list:
        cfg = self.cfg
        p_hat = self.known_loss_rate
        enc_block = precode_expand(block, cfg.precode_config()) if cfg.uses_precode else block
        total = enc_block.w
        plan = self.plans[index] = _RepairPlan(block=enc_block, dist=None,
                                               base_seed=derive_seed(cfg.seed, index))
        emissions: list = []
        # Natives travel for every systematic scheme.
        if cfg.scheme != "LT":
            emissions.append(Natives(index, block.data))
            self.metrics.natives_sent += block.w

        if cfg.scheme in ("LT", "Raptor"):
            plan.dist = robust_soliton(total, ROBUST_DELTA, ROBUST_C)
            plan.extra_budget = math.ceil(BASELINE_EXTRA_FACTOR * total)
            if cfg.scheme == "Raptor":
                plan.batch = max(RAPTOR_BATCH_MIN, total // RAPTOR_BATCH_DIVISOR)
                return emissions
            plan.batch = max(LT_BATCH_MIN, total // LT_BATCH_DIVISOR)
            initial = math.ceil(total / (1.0 - min(p_hat, LT_MAX_LOSS_RATE)))
            return [self._encode(plan, initial, index)]

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
                if self.cfg.scheme in ("LRF", "LR-Raptor"):
                    # Re-size the repair law only for more unresolved natives
                    # than the m_hat it was sized for (or size it, if none).
                    m_hat = max(1, ev.unresolved)
                    if plan.dist is None or m_hat > plan.m_hat:
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


@dataclass
class _WindowState:
    decoder: PeelDecoder | None  # None once the window is taken
    natives_seen: int = 0
    complete: bool = False
    recovered: np.ndarray | None = None   # (k, l) natives once complete


def _is_array(a, shape: tuple, dtype) -> bool:
    return isinstance(a, np.ndarray) and a.shape == shape and a.dtype == dtype


class DestinationState:
    """Destination side: feeds arrivals to per-window decoders, peels when a
    delivery phase ends, acks windows on full recovery, and emits one loss
    report per natives event."""

    def __init__(self, cfg: SessionConfig, metrics: SessionMetrics):
        self.cfg = cfg
        self.metrics = metrics
        self.estimator = LossRateEstimator()
        self.windows: dict[int, _WindowState] = {}
        self.precode = cfg.precode_config() if cfg.uses_precode else None
        # Every window's decoder: its symbol count and symbol bytes.
        self._shape = (self.precode.total if self.precode else cfg.window, cfg.symbol_bytes)

    def _window(self, index: int) -> _WindowState:
        state = self.windows.get(index)
        if state is None:
            state = self.windows[index] = _WindowState(decoder=PeelDecoder(*self._shape))
        return state

    def step(self, event) -> list:
        """Process one arrival event. A malformed event, or a batch's
        malformed rows, is dropped and counted in ``protocol_errors`` before
        it can open a window; any error but ``InvalidInputError`` is a fault
        and propagates."""
        out: list = []
        try:
            if (not isinstance(event, (Natives, Repairs)) or not isinstance(event.window, int)
                    or event.window < 0
                    or isinstance(event, Repairs) and not isinstance(event.batch, RepairBatch)):
                raise InvalidInputError("not an arrival event (a window index >= 0, and a "
                                        "RepairBatch for repairs)")
            if isinstance(event, Natives):
                k, l = self.cfg.window, self.cfg.symbol_bytes
                lost = np.zeros(k, dtype=bool) if event.lost is None else event.lost
                if not (_is_array(event.rows, (k, l), np.uint8) and _is_array(lost, (k,), bool)):
                    raise InvalidInputError(
                        f"natives event: ({k}, {l}) uint8 rows, ({k},) bool mask")
                state = self._window(event.window)
                if not state.complete:
                    # Rejects a covered native before any count moves.
                    state.decoder.add_natives(event.rows, ~lost)
                out.append(self.estimator.observe_many(lost))
                dropped = int(np.count_nonzero(lost))
                state.natives_seen += k - dropped
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
                    state = self._window(event.window)
                    if not state.complete:
                        state.decoder._take(batch.resolved(self._shape[0]))
                    self.metrics.delivered += len(batch)
                self.metrics.decode_time += time.perf_counter() - t0
        except InvalidInputError:
            self.metrics.protocol_errors += 1
        return out

    def conclude(self, index: int) -> list:
        """Attempt to finish a window after a delivery phase; emits an Ack on
        full recovery or a WindowNack asking for more repair."""
        state = self._window(index)
        if state.complete:
            return []
        decoder = state.decoder
        t0 = time.perf_counter()
        decoder.run()
        natives: np.ndarray | None = None
        k = self.cfg.window
        if decoder.covered[:k].all():
            natives = decoder.payloads[:k]
        elif self.precode is not None:
            try:
                natives = precode_solve(decoder, self.precode)
            except DecodeFailure:
                natives = None
        self.metrics.decode_time += time.perf_counter() - t0

        if natives is None:
            unresolved = k - int(np.count_nonzero(decoder.covered[:k]))
            return [WindowNack(index, unresolved)]

        state.complete = True
        state.recovered = natives
        self.metrics.windows_completed += 1
        self.metrics.recovered += max(0, k - state.natives_seen)
        return [Ack(index)]

    def take(self, index: int) -> np.ndarray:
        """The (k, l) natives of an acked window. Its decoder goes with them;
        later events for the window count as delivered and touch no decoder."""
        state = self.windows.get(index)
        if state is None or state.recovered is None:
            raise InvalidParameterError(f"window {index} is not acked or already taken")
        natives = state.recovered
        state.recovered = state.decoder = None
        return natives


# ---------------------------------------------------------------------------
# Session driver


def run_window(source: SourceState, dest: DestinationState, index: int, block: SourceBlock,
               deliver) -> np.ndarray:
    """Exchange one window until it is acked; returns its (k, l) natives.

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
            return dest.take(index)


def _split_windows(data: bytes, w: int, l: int) -> np.ndarray:
    """The zero-padded data as a read-only (windows, w, l) uint8 view."""
    pad = -len(data) % (w * l)
    if pad:
        data += bytes(pad)
    return np.frombuffer(data, dtype=np.uint8).reshape(-1, w, l)


def run_session(data, window: int, symbol_bytes: int, channel_cfg: ChannelConfig,
                epsilon: float, scheme: str, seed: int = 0,
                return_payload: bool = False, **options):
    """Drive one source -> channel -> destination session to completion.

    ``data`` is either the payload bytes or an integer size (deterministic
    pseudo-random payload derived from ``seed``). Returns ``SessionMetrics``
    (or ``(metrics, delivered_bytes)`` with ``return_payload=True``).

    Raises:
        SessionFailure: some window stayed undecodable within its repair
            budget.
    """
    if isinstance(data, numbers.Integral):
        rng = np.random.default_rng(derive_seed(seed, 0xDA7A))
        data = rng.integers(0, 256, size=check_size("payload size", data, low=0),
                            dtype=np.uint8).tobytes()
    else:
        data = bytes(data)
    size = len(data)
    if size == 0:
        raise InvalidParameterError("no data to transfer")

    cfg = SessionConfig(window=window, symbol_bytes=symbol_bytes, epsilon=epsilon,
                        scheme=scheme, channel=channel_cfg, seed=seed, **options)
    metrics = SessionMetrics()
    source = SourceState(cfg, metrics)
    dest = DestinationState(cfg, metrics)
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
    # Each window's natives as taken: a read-only view of its decoder's
    # payload matrix, which the destination no longer holds, or
    # precode_solve's copy. One join copies them all.
    recovered_windows: list[np.ndarray] = []

    for index, window_data in enumerate(windows):
        recovered_windows.append(run_window(source, dest, index, SourceBlock(window_data), deliver))
        if trace:
            trace.write(f"{clock},ack,{index},,\n")

    metrics.wall_time = time.perf_counter() - t_start
    # The last window is trimmed of its padding as a view, before the join.
    tail = size - (len(windows) - 1) * window * symbol_bytes
    recovered_windows[-1] = recovered_windows[-1].reshape(-1)[:tail]
    delivered = b"".join(recovered_windows)
    if delivered != data:
        raise SessionFailure("delivered data does not match source data",
                             window=-1, unresolved=0)
    metrics.bytes_delivered = size
    if return_payload:
        return metrics, delivered
    return metrics
