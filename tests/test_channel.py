"""Erasure-channel and loss-estimator tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrfcodes.channel import (BurstModel, Channel, ChannelConfig,
                              LossRateEstimator, LossReport)
from lrfcodes.errors import InvalidParameterError


# ---------------------------------------------------------------------------
# Channel basics


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        ChannelConfig(loss_rate=-0.1)
    with pytest.raises(InvalidParameterError):
        ChannelConfig(loss_rate=1.5)
    with pytest.raises(InvalidParameterError):
        BurstModel(p_good_to_bad=2.0, p_bad_to_good=0.5)
    # A rate is a finite real: a string or None raised a bare TypeError, and
    # True ran at loss rate 1.
    for rate in ("0.1", None, True, float("nan")):
        with pytest.raises(InvalidParameterError, match="loss rate"):
            ChannelConfig(rate)
    for args in (("a", 0.1), (0.1, None), (0.1, 0.2, np.True_), (0.1, 0.2, 0.0, float("nan"))):
        with pytest.raises(InvalidParameterError):
            BurstModel(*args)
    # A burst model that is not one was accepted and failed at the first mask.
    for burst in ("x", 0.1):
        with pytest.raises(InvalidParameterError, match="burst"):
            ChannelConfig(0.1, burst=burst)
    assert ChannelConfig(np.float32(0.5)).loss_rate == 0.5
    for seed in (-1, 1.5, "3", None):
        with pytest.raises(InvalidParameterError):
            ChannelConfig(0.02, seed=seed)
    assert ChannelConfig(0.02, seed=np.uint64(2**63)).seed == 2**63
    with pytest.raises(InvalidParameterError):
        ChannelConfig(0.02, seed=np.int64(-1))


def test_loss_mask_deterministic():
    cfg = ChannelConfig(0.3, seed=42)
    np.testing.assert_array_equal(Channel(cfg).loss_mask(1000), Channel(cfg).loss_mask(1000))


def test_loss_mask_differs_across_seeds():
    a = Channel(ChannelConfig(0.3, seed=1)).loss_mask(1000)
    b = Channel(ChannelConfig(0.3, seed=2)).loss_mask(1000)
    assert (a != b).any()


def test_loss_mask_extremes():
    assert not Channel(ChannelConfig(0.0, seed=3)).loss_mask(500).any()
    assert Channel(ChannelConfig(1.0, seed=3)).loss_mask(500).all()


def test_loss_rate_concentrates():
    # Binomial concentration: observed rate within 5 sigma of p.
    p, n = 0.05, 200_000
    mask = Channel(ChannelConfig(p, seed=9)).loss_mask(n)
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(mask.mean() - p) < 5 * sigma


def test_stateful_channel_continues_stream():
    cfg = ChannelConfig(0.2, seed=5)
    chan = Channel(cfg)
    parts = np.concatenate([chan.loss_mask(100) for _ in range(5)])
    whole = Channel(cfg).loss_mask(500)
    np.testing.assert_array_equal(parts, whole)


def test_negative_count_rejected():
    with pytest.raises(InvalidParameterError):
        Channel(ChannelConfig(0.1)).loss_mask(-1)


@pytest.mark.parametrize("call", [lambda: Channel(ChannelConfig(0.1)).loss_mask(2.5),
                                  lambda: Channel(ChannelConfig(0.1)).loss_mask(True),
                                  lambda: ChannelConfig(0.1, seed=True)],
                         ids=["count-float", "count-bool", "seed-bool"])
def test_channel_sizes_are_integers(call):
    # A float count failed with a bare TypeError; a bool was taken as 1.
    with pytest.raises(InvalidParameterError):
        call()
    assert Channel(ChannelConfig(0.1, seed=np.int64(1))).loss_mask(np.int64(5)).size == 5


# ---------------------------------------------------------------------------
# Burst model


def test_burst_model_produces_correlated_losses():
    burst = BurstModel(p_good_to_bad=0.02, p_bad_to_good=0.2,
                       loss_good=0.0, loss_bad=1.0)
    cfg = ChannelConfig(0.0, seed=11, burst=burst)
    mask = Channel(cfg).loss_mask(100_000).astype(float)
    rate = mask.mean()
    assert 0.0 < rate < 1.0
    # Lag-1 autocorrelation is clearly positive for a two-state chain.
    a, b = mask[:-1], mask[1:]
    corr = np.corrcoef(a, b)[0, 1]
    assert corr > 0.3


def test_burst_mask_deterministic():
    burst = BurstModel(p_good_to_bad=0.05, p_bad_to_good=0.3)
    cfg = ChannelConfig(0.0, seed=4, burst=burst)
    np.testing.assert_array_equal(Channel(cfg).loss_mask(2000),
                                  Channel(cfg).loss_mask(2000))


def _reference_burst_mask(channel, count):
    """The per-step loop the vectorized Gilbert-Elliott mask replaced, on
    the channel's generator and carried state."""
    b = channel.cfg.burst
    u_state = channel._rng.random(count)
    u_loss = channel._rng.random(count)
    mask = np.empty(count, dtype=bool)
    bad = channel._bad
    for i in range(count):
        if bad:
            if u_state[i] < b.p_bad_to_good:
                bad = False
        else:
            if u_state[i] < b.p_good_to_bad:
                bad = True
        mask[i] = u_loss[i] < (b.loss_bad if bad else b.loss_good)
    channel._bad = bad
    return mask


@pytest.mark.parametrize("burst", [
    BurstModel(0.0, 0.0), BurstModel(1.0, 1.0), BurstModel(0.0, 1.0), BurstModel(1.0, 0.0),
    BurstModel(0.05, 0.3), BurstModel(0.7, 0.4, loss_good=0.1, loss_bad=0.8),
    BurstModel(0.002, 0.05, loss_good=0.01),
])
def test_burst_mask_matches_the_per_step_loop(burst):
    # Counts of 0, 1 and 20,000 in one stream, so the state carries across
    # calls (through empty ones too).
    cfg = ChannelConfig(0.0, seed=9, burst=burst)
    fast, slow = Channel(cfg), Channel(cfg)
    for count in (0, 1, 20_000, 0, 1, 7, 1, 20_000):
        np.testing.assert_array_equal(fast.loss_mask(count), _reference_burst_mask(slow, count))
        assert fast._bad == slow._bad
    assert fast._rng.random() == slow._rng.random()


# ---------------------------------------------------------------------------
# Estimation


def test_loss_report_validation():
    # A report counts at least one native and at most all of them lost, as
    # integers: LossReport(0, 0) would be a rate of 0/0.
    for window, lost in ((5, 6), (0, 0), (-1, 0), (5, -1), (5, 1.5), (5.0, 2), (True, 0),
                         (5, True), (5, None)):
        with pytest.raises(InvalidParameterError):
            LossReport(observed_window=window, lost=lost)


def test_loss_report_rate_equals_its_counts():
    # The rate is read off the counts, so no report can contradict them
    # (a stored rate of NaN or -3.0 beside 2 of 10 lost was accepted).
    for window, lost in ((10, 2), (1, 0), (1, 1), (7, 3)):
        report = LossReport(window, lost)
        assert report.estimate == lost / window
    with pytest.raises(TypeError):
        LossReport(10, 2, float("nan"))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.booleans(), max_size=300))
def test_estimator_reports_once_per_call(mask):
    est = LossRateEstimator()
    report = est.observe_many(np.array(mask, dtype=bool))
    # ``observe`` is the one-outcome call of the same path.
    assert est.observe(True) == LossReport(observed_window=1, lost=1)
    if not mask:
        assert report is None
        return
    lost = sum(mask)
    assert report == LossReport(observed_window=len(mask), lost=lost)
    assert report.estimate == lost / len(mask)


def test_estimator_is_unbiased():
    rng = np.random.default_rng(17)
    p = 0.03
    est = LossRateEstimator()
    mask = rng.random(50_000) < p
    reports = [est.observe_many(mask[i:i + 1000]).estimate for i in range(0, mask.size, 1000)]
    mean = sum(reports) / len(reports)
    sigma = math.sqrt(p * (1 - p) / 1000 / len(reports))
    assert abs(mean - p) < 5 * sigma


def test_estimator_validation():
    # The estimator takes no smoothing, window or trigger knobs.
    with pytest.raises(TypeError):
        LossRateEstimator(ewma=0.5)
    with pytest.raises(TypeError):
        LossRateEstimator(window=1000)
