"""Windowed transfer state-machine tests."""

import dataclasses
import gc
import hashlib
import io
import math
import tracemalloc

import numpy as np
import pytest

from lrfcodes.channel import BurstModel, ChannelConfig, LossReport
from lrfcodes.codec import (EncodingSymbol, PeelDecoder, RepairBatch, SourceBlock, derive_seed,
                            encode_stream, pack_symbol, unpack_symbol)
from lrfcodes.distributions import LossContext, ideal_soliton, lrf_ideal
from lrfcodes import transfer
from lrfcodes.errors import (DecodeFailure, InvalidInputError,
                             InvalidParameterError, SessionFailure)
from lrfcodes.precode import precode_solve
from lrfcodes.transfer import (Ack, DestinationState, Natives, Repairs,
                               SCHEMES, SessionConfig, SessionMetrics, SourceState,
                               WindowNack, default_precode_shape,
                               normalize_scheme, run_session)
from test_codec import encode_one


def _one(sym, window=0):
    """A repair event carrying a batch of one symbol."""
    return Repairs(window, RepairBatch.from_symbols([sym]))


def _dropping(em, indices):
    """A source's natives event as received with the given natives lost;
    any other event passes through."""
    if not isinstance(em, Natives):
        return em
    lost = np.zeros(len(em.rows), dtype=bool)
    lost[list(indices)] = True
    return Natives(em.window, em.rows, lost)


def _payload(symbols, symbol_bytes, seed=0):
    rng = np.random.default_rng(derive_seed(seed, 0xDA7A))
    return rng.integers(0, 256, size=symbols * symbol_bytes,
                        dtype=np.uint8).tobytes()


# ---------------------------------------------------------------------------
# Configuration helpers


def test_normalize_scheme():
    assert normalize_scheme("lrf") == "LRF"
    assert normalize_scheme("lr-raptor") == "LR-Raptor"
    with pytest.raises(InvalidParameterError):
        normalize_scheme("rs")


def test_default_precode_shape_scales():
    s, h = default_precode_shape(10017)
    assert (s, h) == (241, 11)
    s, h = default_precode_shape(1024)
    assert s >= 1 and h >= 2


def test_session_config_validation():
    cfg = ChannelConfig(0.01)
    with pytest.raises(InvalidParameterError):
        SessionConfig(window=0, symbol_bytes=8, epsilon=0.1, scheme="LRF",
                      channel=cfg)
    with pytest.raises(InvalidParameterError):
        SessionConfig(window=8, symbol_bytes=8, epsilon=-1.0, scheme="LRF",
                      channel=cfg)
    # A warm-start loss estimate is a rate, as the channel's is.
    for rate in (-0.1, 1.5, float("nan")):
        with pytest.raises(InvalidParameterError):
            SessionConfig(window=8, symbol_bytes=8, epsilon=0.1, scheme="LRF",
                          channel=cfg, initial_loss_rate=rate)
    with pytest.raises(InvalidParameterError):
        run_session(64, 8, 8, cfg, 0.1, "LRF", initial_loss_rate=1.5)
    # Nor may epsilon be NaN or infinite, or a payload size negative.
    for eps in (float("nan"), float("inf")):
        with pytest.raises(InvalidParameterError):
            SessionConfig(window=8, symbol_bytes=8, epsilon=eps, scheme="LRF", channel=cfg)
        with pytest.raises(InvalidParameterError):
            run_session(64, 8, 8, cfg, eps, "LRF")
    with pytest.raises(InvalidParameterError):
        run_session(-5, 8, 8, cfg, 0.1, "LRF")


@pytest.mark.parametrize("name, value", [("window", 2.5), ("symbol_bytes", 2.5), ("window", True),
                                         ("symbol_bytes", np.float64(8)), ("d_max", 0),
                                         ("d_max", -3), ("d_max", 2.5), ("d_max", True)])
def test_session_config_rejects_a_size_it_cannot_run(name, value):
    # Window, symbol bytes and the degree cap are integers >= 1, a bool not
    # counting: a typed failure at construction, not one mid-session.
    cfg = ChannelConfig(0.05, seed=1)
    sizes = {"window": 200, "symbol_bytes": 8, name: value}
    with pytest.raises(InvalidParameterError):
        SessionConfig(epsilon=0.2, scheme="LR-Raptor", channel=cfg, **sizes)
    with pytest.raises(InvalidParameterError):
        run_session(400 * 8, sizes.pop("window"), sizes.pop("symbol_bytes"), cfg, 0.2,
                    "LR-Raptor", **sizes)


def test_session_takes_numpy_integer_sizes():
    data = _payload(400, 8, seed=4)
    _, delivered = run_session(data, np.int64(200), np.int64(8), ChannelConfig(0.05, seed=1),
                               0.2, "LR-Raptor", seed=4, d_max=np.int64(100),
                               return_payload=True)
    assert delivered == data


def test_session_takes_a_numpy_integer_payload_size():
    # A numpy size was taken as bytes: bytes(np.int64(5)) is five zero bytes.
    cfg = ChannelConfig(0.05, seed=1)
    sent = [run_session(size, 8, 8, cfg, 0.2, "LRF", seed=3, return_payload=True)[1]
            for size in (5, np.int64(5))]
    assert sent[0] == sent[1] == _payload(5, 1, seed=3)
    # A bool is no size.
    with pytest.raises(InvalidParameterError):
        run_session(True, 8, 8, cfg, 0.2, "LRF")


def test_capped_lr_raptor_session_stays_within_its_cap():
    # A feasible cap, twice the loss-aware law's minimum degree
    # ceil(total / m_hat), bounds every repair symbol's degree, and the
    # bytes still arrive exactly. Uncapped, the mean degree is above it.
    window, l, p = 500, 8, 0.05
    d_max = 2 * math.ceil((window + sum(default_precode_shape(window))) / round(p * window))
    data = _payload(3 * window, l, seed=5)
    sent = {}
    for cap in (d_max, None):
        metrics, delivered = run_session(data, window, l, ChannelConfig(p, seed=5), 0.2,
                                         "LR-Raptor", seed=5, d_max=cap, return_payload=True)
        assert delivered == data and metrics.encoding_sent > 0
        sent[cap] = metrics.total_degree_sent / metrics.encoding_sent
    assert sent[d_max] <= d_max < sent[None]


# ---------------------------------------------------------------------------
# End-to-end sessions


@pytest.mark.parametrize("scheme", SCHEMES)
def test_session_roundtrip_lossy(scheme):
    data = _payload(600, 16, seed=1)
    metrics, delivered = run_session(data, 200, 16, ChannelConfig(0.02, seed=3),
                                     0.2, scheme, seed=1, return_payload=True)
    assert delivered == data
    assert metrics.windows_completed == 3
    assert metrics.bytes_delivered == len(data)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_session_roundtrip_lossless(scheme):
    data = _payload(400, 8, seed=2)
    metrics, delivered = run_session(data, 200, 8, ChannelConfig(0.0, seed=0),
                                     0.1, scheme, seed=2, return_payload=True)
    assert delivered == data
    assert metrics.lost == 0
    if scheme != "LT":
        # Nothing was lost and nothing was predicted lost: no repair needed.
        assert metrics.encoding_sent == 0


def test_session_pads_partial_window():
    data = _payload(150, 8, seed=3)  # not a multiple of the window
    metrics, delivered = run_session(data, 64, 8, ChannelConfig(0.01, seed=1),
                                     0.2, "LRF", seed=3, return_payload=True)
    assert delivered == data
    assert metrics.windows_completed == math.ceil(150 / 64)


def test_session_integer_data_is_deterministic():
    kwargs = dict(window=100, symbol_bytes=8,
                  channel_cfg=ChannelConfig(0.02, seed=9), epsilon=0.2,
                  scheme="LRF", seed=5, return_payload=True)
    _, a = run_session(400 * 8, **kwargs)
    _, b = run_session(400 * 8, **kwargs)
    assert a == b


def test_session_metrics_conservation():
    metrics = run_session(2000 * 8, 500, 8, ChannelConfig(0.03, seed=2),
                          0.2, "LRF", seed=7)
    assert metrics.natives_sent == 2000
    # Every emitted symbol was either delivered or lost.
    assert metrics.delivered + metrics.lost == (metrics.natives_sent
                                                + metrics.encoding_sent)
    # Decoded coverage accounts for each lost native exactly once.
    assert metrics.recovered <= metrics.lost
    assert metrics.total_degree_sent >= metrics.encoding_sent


def test_session_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(transfer, "BUDGET_FACTOR", 0.01)
    monkeypatch.setattr(transfer, "EXTRA_BATCH_FRAC", 0.01)
    with pytest.raises(SessionFailure):
        run_session(500 * 8, 500, 8, ChannelConfig(0.3, seed=4), 0.0, "LRF",
                    seed=1, initial_loss_rate=0.002)


def test_session_rejects_empty_data():
    with pytest.raises(InvalidParameterError):
        run_session(b"", 10, 8, ChannelConfig(0.0), 0.1, "LRF")


# ---------------------------------------------------------------------------
# State machines driven directly


def _drive_window(cfg, block, drop_indices=()):
    """One windowed exchange without a channel: drop the given natives."""
    metrics = SessionMetrics()
    recovered = transfer.run_window(SourceState(cfg, metrics), DestinationState(cfg, metrics), 0,
                                    block, lambda ems: [_dropping(em, drop_indices) for em in ems])
    return recovered, metrics


def test_source_dest_machines_recover_driven_losses():
    cfg = SessionConfig(window=64, symbol_bytes=8, epsilon=0.2, scheme="LRF",
                        channel=ChannelConfig(0.05, seed=0), seed=3)
    block = SourceBlock.random(64, 8, seed=3)
    recovered, metrics = _drive_window(cfg, block, drop_indices={1, 10, 30})
    np.testing.assert_array_equal(recovered, block.data)
    assert metrics.lost == 3


def test_repair_symbols_tolerate_reordering():
    # Deliver the repair symbols before the loss notifications/natives.
    cfg = SessionConfig(window=64, symbol_bytes=8, epsilon=0.5, scheme="LRF",
                        channel=ChannelConfig(0.05, seed=0), seed=4)
    block = SourceBlock.random(64, 8, seed=4)
    metrics = SessionMetrics()
    src = SourceState(cfg, metrics)
    dst = DestinationState(cfg, metrics)
    emissions = src.start_window(0, block)
    natives = [e for e in emissions if isinstance(e, Natives)]
    repairs = [e for e in emissions if isinstance(e, Repairs)]
    reordered = repairs + [_dropping(e, {2, 40}) for e in natives]
    responses = []
    for ev in reordered:
        responses += dst.step(ev)
    responses += dst.conclude(0)
    for _ in range(50):
        if any(isinstance(r, Ack) for r in responses):
            break
        emissions = src.step(responses)
        responses = []
        for ev in emissions:
            responses += dst.step(ev)
        responses += dst.conclude(0)
    np.testing.assert_array_equal(dst.windows[0].recovered, block.data)


def test_destination_feeds_back_loss_reports():
    cfg = SessionConfig(window=2000, symbol_bytes=4, epsilon=0.2, scheme="LRF",
                        channel=ChannelConfig(0.5, seed=0), seed=5)
    metrics = SessionMetrics()
    dst = DestinationState(cfg, metrics)
    rows = np.frombuffer(b"abcd" * 2000, dtype=np.uint8).reshape(2000, 4)
    ev = Natives(0, rows, np.arange(2000) % 2 == 1)
    assert dst.step(ev) == [LossReport(observed_window=2000, lost=1000, estimate=0.5)]


def test_source_updates_rate_from_feedback():
    cfg = SessionConfig(window=100, symbol_bytes=4, epsilon=0.2, scheme="LRF",
                        channel=ChannelConfig(0.01, seed=0), seed=6)
    metrics = SessionMetrics()
    src = SourceState(cfg, metrics)
    assert math.isclose(src.known_loss_rate, 0.01)
    src.step([LossReport(observed_window=1000, lost=80, estimate=0.08)])
    assert math.isclose(src.known_loss_rate, 0.08)


def test_nack_triggers_bounded_retransmission():
    cfg = SessionConfig(window=64, symbol_bytes=8, epsilon=0.2, scheme="LRF",
                        channel=ChannelConfig(0.05, seed=0), seed=7)
    metrics = SessionMetrics()
    src = SourceState(cfg, metrics)
    block = SourceBlock.random(64, 8, seed=7)
    src.start_window(0, block)
    sent_before = metrics.encoding_sent
    out = src.step([WindowNack(0, 5)])
    assert out, "nack must produce another repair batch"
    assert metrics.encoding_sent > sent_before
    with pytest.raises(SessionFailure):
        for _ in range(1000):
            src.step([WindowNack(0, 5)])


def test_ack_releases_window_state():
    cfg = SessionConfig(window=64, symbol_bytes=8, epsilon=0.2, scheme="LRF",
                        channel=ChannelConfig(0.05, seed=0), seed=8)
    metrics = SessionMetrics()
    src = SourceState(cfg, metrics)
    src.start_window(0, SourceBlock.random(64, 8, seed=8))
    assert 0 in src.plans
    src.step([Ack(0)])
    assert 0 not in src.plans
    # A late nack for an acked window is ignored.
    assert src.step([WindowNack(0, 3)]) == []


def test_conclude_propagates_non_decode_errors(monkeypatch):
    # Only a DecodeFailure means "send more repair"; any other error from the
    # precode solve is a fault and must reach the caller, not become a nack.
    def corrupt(*args, **kwargs):
        raise InvalidInputError("corrupt intermediate")

    monkeypatch.setattr(transfer, "precode_solve", corrupt)
    cfg = SessionConfig(window=64, symbol_bytes=8, epsilon=0.2, scheme="Raptor",
                        channel=ChannelConfig(0.05, seed=0), seed=9)
    metrics = SessionMetrics()
    src = SourceState(cfg, metrics)
    dst = DestinationState(cfg, metrics)
    for em in src.start_window(0, SourceBlock.random(64, 8, seed=9)):
        dst.step(_dropping(em, {5}))
    with pytest.raises(InvalidInputError):
        dst.conclude(0)


def test_step_propagates_decoder_errors(monkeypatch):
    # Only malformed input is a protocol error; a fault inside the decoder,
    # such as a numpy shape error, must reach the caller, not become a nack.
    def broken(self, batch):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(PeelDecoder, "_take", broken)
    cfg = SessionConfig(window=64, symbol_bytes=8, epsilon=0.2, scheme="LRF",
                        channel=ChannelConfig(0.05, seed=0), seed=9)
    metrics = SessionMetrics()
    src = SourceState(cfg, metrics)
    dst = DestinationState(cfg, metrics)
    natives, repairs = src.start_window(0, SourceBlock.random(64, 8, seed=9))
    dst.step(_dropping(natives, {5}))
    with pytest.raises(ValueError, match="broadcast"):
        dst.step(repairs)
    assert metrics.protocol_errors == 0


def test_destination_counts_malformed_events_in_metrics():
    # Malformed events are dropped without disturbing the window, and each
    # one is counted in SessionMetrics.protocol_errors.
    cfg = SessionConfig(window=16, symbol_bytes=8, epsilon=0.2, scheme="LRF",
                        channel=ChannelConfig(0.05, seed=0), seed=3)
    metrics = SessionMetrics()
    dst = DestinationState(cfg, metrics)
    blk = SourceBlock.random(16, 8, seed=3)
    sym = encode_one(blk, ideal_soliton(16), seed=5, symbol_id=0)
    wire, _ = unpack_symbol(pack_symbol(sym))
    bad_degree = dataclasses.replace(wire, degree=17)
    short = dataclasses.replace(sym, payload=sym.payload[:-1])
    malformed = [object(), Natives(0, np.zeros((16, 7), dtype=np.uint8)),
                 Natives(0, blk.data, np.zeros(99, dtype=bool)), _one(short), _one(bad_degree)]
    for i, ev in enumerate(malformed, 1):
        assert dst.step(ev) == []
        assert metrics.protocol_errors == i
    # A well-formed wire symbol still decodes after the rejected ones.
    assert dst.step(_one(wire)) == []
    assert metrics.protocol_errors == len(malformed)
    assert run_session(64 * 8, 64, 8, ChannelConfig(0.05, seed=1), 0.2, "LRF",
                       seed=1).protocol_errors == 0


def test_trace_stamps_each_symbol_with_its_link_position():
    trace = io.StringIO()
    metrics = run_session(3 * 200 * 8, 200, 8, ChannelConfig(0.05, seed=6), 0.2,
                          "LRF", seed=6, trace=trace)
    lines = [line.split(",") for line in trace.getvalue().splitlines()]
    symbol_lines = [f for f in lines if f[1] != "ack"]
    clocks = [int(f[0]) for f in symbol_lines]
    # One line per symbol put on the link, stamped 1, 2, 3, ... in order.
    assert clocks == list(range(1, metrics.natives_sent + metrics.encoding_sent + 1))
    kinds = [f[1] for f in symbol_lines]
    assert kinds.count("NativeSymbol") + kinds.count("NativeLoss") == metrics.natives_sent
    assert kinds.count("RepairSymbol") + kinds.count("repair_lost") == metrics.encoding_sent
    assert kinds.count("NativeLoss") + kinds.count("repair_lost") == metrics.lost
    # Within a window, natives go out in index order before any repair.
    natives = [(int(f[2]), int(f[3])) for f in symbol_lines if f[1].startswith("Native")]
    assert natives == [(w, i) for w in range(3) for i in range(200)]
    acks = [int(f[0]) for f in lines if f[1] == "ack"]
    assert len(acks) == 3 and acks == sorted(acks)
    # Tracing changes nothing else.
    untraced = run_session(3 * 200 * 8, 200, 8, ChannelConfig(0.05, seed=6), 0.2,
                           "LRF", seed=6)
    for field in ("natives_sent", "encoding_sent", "total_degree_sent", "lost",
                  "delivered", "recovered", "windows_completed", "protocol_errors"):
        assert getattr(untraced, field) == getattr(metrics, field)


def test_next_window_is_sized_from_the_last_natives_report(monkeypatch):
    # Window 0's natives event feeds back one report over its 300 natives,
    # so window 1's first repair batch is ceil((1+eps) * m0) for window 0's
    # m0 lost natives, whatever the configured rate (here 0.05, or 15).
    first_batches = {}
    start_window = SourceState.start_window

    def recording(self, index, block):
        out = start_window(self, index, block)
        first_batches[index] = sum(len(em.batch) for em in out if isinstance(em, Repairs))
        return out

    monkeypatch.setattr(SourceState, "start_window", recording)
    trace = io.StringIO()
    run_session(2 * 300 * 8, 300, 8, ChannelConfig(0.05, seed=3), 0.2, "LRF", seed=3,
                trace=trace)
    lines = [line.split(",") for line in trace.getvalue().splitlines()]
    m0 = sum(1 for f in lines if f[1] == "NativeLoss" and f[2] == "0")
    assert m0 != 15
    assert first_batches[1] == math.ceil((1 + 0.2) * m0)


def test_destination_counts_only_accepted_symbols():
    # A symbol the decoder rejects is a protocol error, not a delivery.
    cfg = SessionConfig(window=16, symbol_bytes=8, epsilon=0.2, scheme="LRF",
                        channel=ChannelConfig(0.05, seed=0), seed=3)
    metrics = SessionMetrics()
    dst = DestinationState(cfg, metrics)
    rows = SourceBlock.random(16, 8, seed=3).data
    for ev in (Natives(0, rows[:, :5]), Natives(0, rows, np.zeros(99, dtype=bool))):
        assert dst.step(ev) == []
    assert metrics.delivered == 0
    assert 0 not in dst.windows
    assert metrics.protocol_errors == 2
    sym = encode_one(SourceBlock.random(16, 8, seed=3), ideal_soliton(16), seed=5)
    for bad in (dataclasses.replace(sym, payload=sym.payload[:-1]),
                dataclasses.replace(sym, neighbors=None, degree=17)):
        assert dst.step(_one(bad)) == []
    assert metrics.delivered == 0
    assert 0 not in dst.windows
    assert metrics.protocol_errors == 4


def test_malformed_events_open_no_window():
    # A malformed event is rejected before it can open a window: nothing
    # would ever conclude or take the decoder it left behind.
    cfg = SessionConfig(window=1000, symbol_bytes=8, epsilon=0.2, scheme="LR-Raptor",
                        channel=ChannelConfig(0.05, seed=0), seed=3)
    metrics = SessionMetrics()
    dst = DestinationState(cfg, metrics)
    rows = SourceBlock.random(1000, 8, seed=3).data
    sym = EncodingSymbol(id=0, seed=0, degree=2, neighbors=np.array([3, 3]), payload=bytes(8))
    for ev in (Natives(7, rows[:, :5]), Natives("x", rows), _one(sym, window=12)):
        assert dst.step(ev) == []
    assert dst.windows == {}
    assert (metrics.protocol_errors, metrics.delivered, metrics.lost) == (3, 0, 0)
    # A valid event for an unseen window still opens it, repairs first.
    good = encode_stream(SourceBlock(rows), ideal_soliton(1000), 1, 2)
    dst.step(Repairs(12, good))
    assert list(dst.windows) == [12] and metrics.delivered == 2


def test_repairs_event_without_a_batch_is_one_protocol_error():
    # A repair event whose batch is not a RepairBatch is malformed like any
    # other: one protocol error each, and no window opens.
    cfg = SessionConfig(window=64, symbol_bytes=8, epsilon=0.2, scheme="LRF",
                        channel=ChannelConfig(0.05, seed=0), seed=3)
    metrics = SessionMetrics()
    dst = DestinationState(cfg, metrics)
    for ev in (Repairs(0, None), Repairs(0, "x")):
        assert dst.step(ev) == []
    assert dst.windows == {}
    assert (metrics.protocol_errors, metrics.delivered, metrics.lost) == (2, 0, 0)


def test_destination_rejects_a_natives_event_whole():
    # A wrong-shape rows matrix or mask, or a native the decoder already
    # holds, rejects the whole event: one protocol error, no count moves and
    # the decoder is untouched, though the event's other natives are new.
    cfg = SessionConfig(window=16, symbol_bytes=8, epsilon=0.2, scheme="LRF",
                        channel=ChannelConfig(0.05, seed=0), seed=3)
    metrics = SessionMetrics()
    dst = DestinationState(cfg, metrics)
    rows = SourceBlock.random(16, 8, seed=3).data
    odd = np.arange(16) % 2 == 1
    # An accepted event feeds back one report over its own mask.
    half = [LossReport(observed_window=16, lost=8, estimate=0.5)]
    assert dst.step(Natives(0, rows, odd)) == half
    state = dst.windows[0]
    covered, payloads = state.decoder.covered.copy(), state.decoder.payloads.copy()
    counts = (metrics.delivered, metrics.lost, state.natives_seen)
    assert counts == (8, 8, 8)
    rejected = [Natives(0, rows[:15]), Natives(0, rows[:, :7]), Natives(0, rows.astype(np.int64)),
                Natives(0, rows, odd[:15]), Natives(0, rows, odd.astype(np.uint8)),
                Natives(0, rows), Natives(0, rows, ~odd ^ (np.arange(16) == 4))]
    for i, ev in enumerate(rejected, 1):
        assert dst.step(ev) == []
        assert metrics.protocol_errors == i
        assert (metrics.delivered, metrics.lost, state.natives_seen) == counts
        np.testing.assert_array_equal(state.decoder.covered, covered)
        np.testing.assert_array_equal(state.decoder.payloads, payloads)
    # The odd natives still arrive in an event of their own.
    assert dst.step(Natives(0, rows, ~odd)) == half
    assert dst.conclude(0) == [Ack(0)]
    np.testing.assert_array_equal(dst.take(0), rows)


@pytest.mark.parametrize("scheme", ["LRF", "LR-Raptor"])
def test_natives_event_loads_the_decoder_as_a_per_native_loop(scheme):
    cfg = SessionConfig(window=40, symbol_bytes=8, epsilon=0.2, scheme=scheme,
                        channel=ChannelConfig(0.05, seed=0), seed=2)
    block = SourceBlock.random(40, 8, seed=2)
    lost = np.random.default_rng(2).random(40) < 0.3
    dst = DestinationState(cfg, SessionMetrics())
    dst.step(Natives(0, block.data, lost))
    loop = DestinationState(cfg, SessionMetrics())._window(0).decoder
    for i in np.flatnonzero(~lost):
        loop.add_native(int(i), block.data[i])
    # Rows that are a strided view of a wider matrix load the same.
    strided = DestinationState(cfg, SessionMetrics())
    strided.step(Natives(0, np.hstack([block.data, block.data])[:, :8], lost))
    for decoder in (dst.windows[0].decoder, strided.windows[0].decoder):
        np.testing.assert_array_equal(decoder.covered, loop.covered)
        np.testing.assert_array_equal(decoder.payloads, loop.payloads)
        assert decoder.unresolved == loop.unresolved == decoder.w - int((~lost).sum())


def test_destination_counts_malformed_neighbors_as_protocol_errors():
    # A repeated, negative or out-of-range neighbor index is a malformed
    # symbol: dropped and counted, never decoded or raised out of step().
    cfg = SessionConfig(window=8, symbol_bytes=2, epsilon=0.2, scheme="LRF",
                        channel=ChannelConfig(0.05, seed=0), seed=3)
    metrics = SessionMetrics()
    dst = DestinationState(cfg, metrics)
    for i, nb in enumerate(([3, 3], [-1, 2], [2, 8]), 1):
        sym = EncodingSymbol(id=i, seed=0, degree=2, neighbors=np.array(nb),
                             payload=bytes(2))
        assert dst.step(_one(sym)) == []
        assert metrics.protocol_errors == i
    assert metrics.delivered == 0
    assert 0 not in dst.windows


@pytest.mark.parametrize("corrupt", ["repeated", "negative", "beyond"])
def test_destination_drops_only_the_malformed_rows_of_a_batch(corrupt):
    # One bad row in the middle of a batch is dropped and counted; the good
    # rows of the same batch are still delivered and decode the window.
    # Each bad row counts once: a batch with two of them counts two.
    cfg = SessionConfig(window=64, symbol_bytes=8, epsilon=0.2, scheme="LRF",
                        channel=ChannelConfig(0.0, seed=0), seed=3)
    metrics = SessionMetrics()
    dst = DestinationState(cfg, metrics)
    block = SourceBlock.random(64, 8, seed=3)
    lost = {1, 10, 30}
    dst.step(_dropping(Natives(0, block.data), lost))
    batch = encode_stream(block, lrf_ideal(LossContext(64, len(lost))), 5, 9)

    def corrupted(rows):
        indices = batch.indices.copy()
        for r in rows:
            first = batch.indptr[r]
            indices[first] = {"repeated": indices[first + 1], "negative": -1,
                              "beyond": 64}[corrupt]
        return dataclasses.replace(batch, indices=indices)

    bad = corrupted([4])
    assert bad.malformed(64, 8).tolist() == [r == 4 for r in range(9)]
    # With row 3 emptied, row 4's first entry is also where row 3 starts;
    # a bad entry there is still row 4's. Row 3 is bad too: it no longer
    # lists as many neighbors as its degree.
    lo, hi = bad.indptr[3:5]
    gap = dataclasses.replace(bad, indices=np.delete(bad.indices, np.s_[lo:hi]),
                              indptr=np.concatenate((bad.indptr[:4], bad.indptr[4:] - (hi - lo))))
    assert gap.malformed(64, 8).tolist() == [r in (3, 4) for r in range(9)]
    assert dst.step(Repairs(0, bad)) == []
    assert metrics.protocol_errors == 1
    assert metrics.delivered == 61 + 8
    assert dst.conclude(0) == [Ack(0)]
    np.testing.assert_array_equal(dst.windows[0].recovered, block.data)
    other = DestinationState(cfg, SessionMetrics())
    assert other.step(Repairs(0, corrupted([1, 7]))) == []
    assert (other.metrics.protocol_errors, other.metrics.delivered) == (2, 7)


def _bad_columns(case):
    """A repair batch for a (16, 8) window whose columns disagree."""
    good = encode_stream(SourceBlock.random(16, 8, seed=3), ideal_soliton(16), 5, 2)
    wire = dataclasses.replace(good, indptr=None, indices=None)
    one = good.select(slice(0, 1))
    return {"indices missing": dataclasses.replace(good, indices=None),
            "indptr missing": dataclasses.replace(good, indptr=None),
            "ids a list": dataclasses.replace(good, ids=good.ids.tolist()),
            "one degree for two ids": dataclasses.replace(wire, degrees=wire.degrees[:1]),
            "one seed for two ids": dataclasses.replace(wire, seeds=wire.seeds[:1]),
            "2-D indptr": dataclasses.replace(one, indptr=one.indptr[None])}[case]


@pytest.mark.parametrize("case", ["indices missing", "indptr missing", "ids a list",
                                  "one degree for two ids", "one seed for two ids", "2-D indptr"])
def test_a_batch_with_disagreeing_columns_is_malformed_row_by_row(case):
    # Each row of such a batch counts one protocol error, no window opens,
    # and nothing else is raised; add_batch rejects the batch as input.
    batch = _bad_columns(case)
    cfg = SessionConfig(window=16, symbol_bytes=8, epsilon=0.2, scheme="LRF",
                        channel=ChannelConfig(0.05, seed=0), seed=3)
    metrics = SessionMetrics()
    dst = DestinationState(cfg, metrics)
    assert dst.step(Repairs(0, batch)) == []
    assert (metrics.protocol_errors, metrics.delivered) == (len(batch.ids), 0)
    assert dst.windows == {}
    with pytest.raises(InvalidInputError):
        PeelDecoder(16, 8).add_batch(batch)


def test_destination_checks_each_repair_batch_once(monkeypatch):
    # The destination drops a batch's malformed rows and hands the rest to
    # the decoder without a second check; add_batch still checks its input.
    cfg = SessionConfig(window=64, symbol_bytes=8, epsilon=0.2, scheme="LRF",
                        channel=ChannelConfig(0.0, seed=0), seed=3)
    block = SourceBlock.random(64, 8, seed=3)
    batch = encode_stream(block, lrf_ideal(LossContext(64, 3)), 5, 9)
    checked = []
    malformed = RepairBatch.malformed
    monkeypatch.setattr(RepairBatch, "malformed",
                        lambda self, w, l: checked.append(len(self)) or malformed(self, w, l))
    dst = DestinationState(cfg, SessionMetrics())
    dst.step(_dropping(Natives(0, block.data), {1, 10, 30}))
    assert dst.step(Repairs(0, batch)) == []
    assert checked == [9]
    assert dst.conclude(0) == [Ack(0)]
    np.testing.assert_array_equal(dst.take(0), block.data)


def test_taken_window_drops_its_decoder_and_late_events_touch_none():
    cfg = SessionConfig(window=64, symbol_bytes=8, epsilon=0.2, scheme="LRF",
                        channel=ChannelConfig(0.0, seed=0), seed=4)
    metrics = SessionMetrics()
    src, dst = SourceState(cfg, metrics), DestinationState(cfg, metrics)
    block = SourceBlock.random(64, 8, seed=4)
    for em in src.start_window(0, block):
        dst.step(em)
    assert dst.conclude(0) == [Ack(0)]
    np.testing.assert_array_equal(dst.take(0), block.data)
    assert dst.windows[0].decoder is None and dst.windows[0].recovered is None
    late = encode_stream(block, ideal_soliton(64), 1, 3)
    delivered, lost = metrics.delivered, metrics.lost
    for ev in (_dropping(Natives(0, block.data), {4}), Repairs(0, late)):
        dst.step(ev)
    assert dst.windows[0].decoder is None
    assert (metrics.delivered, metrics.lost) == (delivered + 63 + 3, lost + 1)
    assert metrics.protocol_errors == 0
    assert dst.conclude(0) == []
    with pytest.raises(InvalidParameterError):
        dst.take(0)


def test_session_peak_memory_does_not_grow_by_a_decoder_per_window():
    # The driver takes each acked window's natives and the destination drops
    # the window's decoder. Beyond the delivered bytes a session holds twice
    # (the recovered windows and their join), a 24-window LRF session may
    # then peak at most about one window's decoder above a 4-window one; a
    # destination that kept every decoder peaks about 20 windows above.
    w, l = 1000, 256
    channel = ChannelConfig(0.02, seed=1)
    run_session(_payload(2 * w, l), w, l, channel, 0.2, "LRF", seed=1)  # warm caches

    def excess(windows):
        data = _payload(windows * w, l, seed=windows)
        gc.collect()
        tracemalloc.start()
        try:
            run_session(data, w, l, channel, 0.2, "LRF", seed=1)
            return tracemalloc.get_traced_memory()[1] - 2 * len(data)
        finally:
            tracemalloc.stop()

    assert excess(24) < excess(4) + 2 * w * l


@pytest.mark.parametrize("scheme", ["LRF", "LR-Raptor"])
def test_taken_windows_hold_no_decoder_after_each_run_window(monkeypatch, scheme):
    # Once run_window returns a window's natives, that window's state in the
    # destination keeps neither its decoder nor its natives: a bound on peak
    # memory alone lets one extra window's decoder stay alive unnoticed.
    taken = []

    def checked(source, dest, index, block, deliver):
        natives = run_window(source, dest, index, block, deliver)
        taken.append(index)
        for i in taken:
            state = dest.windows[i]
            assert (state.decoder, state.recovered) == (None, None)
        return natives

    run_window = transfer.run_window
    monkeypatch.setattr(transfer, "run_window", checked)
    run_session(4 * 300 * 8, 300, 8, ChannelConfig(0.1, seed=2), 0.2, scheme, seed=2)
    assert taken == [0, 1, 2, 3]


def test_conclude_matches_a_fresh_precode_solve_every_round():
    # Warm-started far below the true loss, the window needs several NACK
    # rounds; each round conclude must agree with two more solves of the
    # same decoder state: in place, and on a fresh decoder given its
    # covered symbols and pending equations.
    cfg = SessionConfig(window=400, symbol_bytes=16, epsilon=0.2, scheme="LR-Raptor",
                        channel=ChannelConfig(0.0, seed=0), seed=12,
                        initial_loss_rate=0.01)
    metrics = SessionMetrics()
    src, dst = SourceState(cfg, metrics), DestinationState(cfg, metrics)
    pc = cfg.precode_config()
    block = SourceBlock.random(400, 16, seed=12)
    lost = set(range(0, 400, 9))
    emissions = src.start_window(0, block)
    nacks = 0
    while True:
        for em in emissions:
            dst.step(_dropping(em, lost))
        out = dst.conclude(0)
        state = dst.windows[0]
        decoder = state.decoder
        indptr, indices, rhs = decoder.pending_rows()
        n = indptr.size - 1
        again = PeelDecoder(pc.total, 16)
        again.add_natives(decoder.payloads, decoder.covered)
        again.add_batch(RepairBatch(np.zeros(n, dtype=np.uint64), np.zeros(n, dtype=np.uint64),
                                    np.diff(indptr), indptr, indices, rhs))
        again.run()
        fresh = []
        for solve in (lambda: precode_solve(decoder, pc), lambda: precode_solve(again, pc)):
            try:
                fresh.append(solve())
            except DecodeFailure:
                fresh.append(None)
        if isinstance(out[0], Ack):
            np.testing.assert_array_equal(state.recovered, block.data)
            assert len(fresh) == 2
            for natives in fresh:
                np.testing.assert_array_equal(natives, state.recovered)
            break
        assert isinstance(out[0], WindowNack)
        assert [natives is None for natives in fresh] == [True, True]
        nacks += 1
        emissions = src.step(out)
    assert nacks >= 3


@pytest.mark.parametrize("window, symbol_bytes, seed, encoding_sent, total_degree_sent", [
    (1000, 32, 11, 181, 16714),
    (800, 20, 3, 200, 13032),
])
def test_lr_raptor_session_counts_are_pinned(window, symbol_bytes, seed, encoding_sent,
                                             total_degree_sent):
    # Bursty two-window sessions with NACK rounds; how the precode system is
    # solved must not change which rounds succeed, so these stay fixed.
    # Window 1's proactive repair is sized from window 0's natives report,
    # over 1,000 outcomes in the first row and 800 in the second.
    channel = ChannelConfig(0.03, seed=seed, burst=BurstModel(0.01, 0.1))
    data = _payload(2 * window, symbol_bytes, seed)
    metrics, delivered = run_session(data, window, symbol_bytes, channel, 0.2, "LR-Raptor",
                                     seed=seed, return_payload=True)
    assert delivered == data
    assert (metrics.encoding_sent, metrics.total_degree_sent,
            metrics.windows_completed) == (encoding_sent, total_degree_sent, 2)


# SHA-256 of each session's trace: LT's and Raptor's from the commit before
# natives travelled as one event per window, LRF's and LR-Raptor's since the
# estimator reports once per natives event. A change to the protocol's event
# path must leave every symbol, loss, clock and ack where it was.
PINNED_TRACES = {
    ("LT", "bernoulli"): "b533bb761771f60e2fd17bba4c1fd530c3976d9c78ef46a4d7f4ee6e466e74bb",
    ("LT", "burst"): "b8613510ffd499a366b5b0b1366ff40150fb801014097f6ddc01585c22edf06b",
    ("LRF", "bernoulli"): "b84892d580ecfe9f23a57aca798ad0519ff7e90c375b6afae02595448cc2ab99",
    ("LRF", "burst"): "c03ab64b952a92da763fef39fa6239dd94ff2e7e2182eac732aa52c76942f02d",
    ("Raptor", "bernoulli"): "b64bbfe79d40cd3447cae368e385a0aaed8e9014d07324ec3adc12614e1a2a01",
    ("Raptor", "burst"): "ff89ddc39b7088056da8556da2bfe77289b0bc32c5d3b5d44d7a98916ff3992e",
    ("LR-Raptor", "bernoulli"): "8bb86ca6a5cded2e990cb8796f6b4ccc1b3b64affc48ab8f3fa7c1a380462f32",
    ("LR-Raptor", "burst"): "8e894307ca7cba607c0f9a6cb62145d47d86f52648243f2cc7d6190656db3472",
}


def test_session_traces_are_pinned(monkeypatch):
    # Three windows of 300 symbols, the last one padded, per scheme and
    # channel; every session takes NACK rounds, so repair re-sizing and the
    # estimator's feedback are in the traces too.
    channels = {"bernoulli": ChannelConfig(0.05, seed=21),
                "burst": ChannelConfig(0.03, seed=22, burst=BurstModel(0.02, 0.2))}
    nacks = []
    conclude = DestinationState.conclude

    def counting(self, index):
        out = conclude(self, index)
        nacks.extend(r for r in out if isinstance(r, WindowNack))
        return out

    monkeypatch.setattr(DestinationState, "conclude", counting)
    for (scheme, channel), digest in PINNED_TRACES.items():
        nacks.clear()
        trace = io.StringIO()
        run_session(3 * 300 * 16 - 40, 300, 16, channels[channel], 0.2, scheme, seed=5,
                    trace=trace)
        assert nacks, (scheme, channel)
        assert hashlib.sha256(trace.getvalue().encode()).hexdigest() == digest, (scheme, channel)


def test_precode_sessions_retain_no_memory_per_session():
    # Every session draws a new precode seed; nothing built for one
    # session's config may stay alive after it (the parent kept ~90 KB per
    # session of this size in its config caches).
    def sessions(seeds):
        for seed in seeds:
            run_session(2 * 600 * 8, 600, 8, ChannelConfig(0.05, seed=seed), 0.2,
                        "LR-Raptor", seed=seed)

    sessions([100])
    tracemalloc.start()
    try:
        sessions(range(1, 3))
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        sessions(range(3, 11))
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert grown < 200_000
