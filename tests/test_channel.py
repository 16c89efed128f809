"""Erasure-channel and loss-estimator tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrfcodes.channel import (BurstModel, Channel, ChannelConfig,
                              LossRateEstimator, LossReport, loss_mask)
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


def test_loss_mask_deterministic():
    cfg = ChannelConfig(0.3, seed=42)
    np.testing.assert_array_equal(loss_mask(1000, cfg), loss_mask(1000, cfg))


def test_loss_mask_differs_across_seeds():
    a = loss_mask(1000, ChannelConfig(0.3, seed=1))
    b = loss_mask(1000, ChannelConfig(0.3, seed=2))
    assert (a != b).any()


def test_loss_mask_extremes():
    assert not loss_mask(500, ChannelConfig(0.0, seed=3)).any()
    assert loss_mask(500, ChannelConfig(1.0, seed=3)).all()


def test_loss_rate_concentrates():
    # Binomial concentration: observed rate within 5 sigma of p.
    p, n = 0.05, 200_000
    mask = loss_mask(n, ChannelConfig(p, seed=9))
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
    with pytest.raises(InvalidParameterError):
        LossReport(observed_window=5, lost=6, estimate=1.2)


def test_estimator_reports_every_window():
    est = LossRateEstimator(window=100)
    reports = []
    for i in range(350):
        r = est.observe(i % 10 == 0)
        if r is not None:
            reports.append(r)
    assert len(reports) == 3
    for r in reports:
        assert r.observed_window == 100
        assert math.isclose(r.estimate, 0.1)


def test_estimator_is_unbiased():
    rng = np.random.default_rng(17)
    p = 0.03
    est = LossRateEstimator(window=1000)
    # One batch returns the reports a per-outcome ``observe`` loop would.
    reports = [r.estimate for r in est.observe_many(rng.random(50_000) < p)]
    mean = sum(reports) / len(reports)
    sigma = math.sqrt(p * (1 - p) / 1000 / len(reports))
    assert abs(mean - p) < 5 * sigma


def test_estimator_early_report_on_rate_jump():
    est = LossRateEstimator(window=1000, relative_change=0.5,
                           min_observations=50)
    for _ in range(1000):
        est.observe(False)  # first report: rate 0... emitted at the window
    assert est.estimate == 0.0
    # A sudden burst triggers a report before the next full window.
    emitted = None
    for i in range(1000):
        r = est.observe(True)
        if r is not None:
            emitted = (i, r)
            break
    assert emitted is not None
    assert emitted[0] < 999
    assert emitted[1].estimate > 0.0


def test_estimator_ewma_smooths():
    # relative_change is large so only the fixed window cadence reports.
    est = LossRateEstimator(window=100, ewma=0.5, relative_change=100.0,
                           min_observations=10_000)
    for _ in range(100):
        est.observe(False)
    assert est.estimate == 0.0
    for _ in range(100):
        est.observe(True)
    # One fully lossy window moves the EWMA halfway, not all the way.
    assert math.isclose(est.estimate, 0.5)


def test_estimator_validation():
    with pytest.raises(InvalidParameterError):
        LossRateEstimator(window=0)
    with pytest.raises(InvalidParameterError):
        LossRateEstimator(ewma=1.5)


class ReferenceEstimator:
    """The per-outcome loop ``observe_many`` replaced: a report at the
    window, or earlier once the running rate moves far enough from the last
    estimate (or above an estimate of 0)."""

    def __init__(self, window, relative_change, min_observations, ewma, estimate):
        self.window, self.relative_change = window, relative_change
        self.min_observations, self.ewma = min_observations, ewma
        self.estimate, self.observed, self.lost = estimate, 0, 0

    def observe(self, lost):
        self.observed += 1
        self.lost += int(lost)
        if self.observed >= self.window:
            return self._emit()
        if self.estimate is not None and self.observed >= self.min_observations:
            rate, reference = self.lost / self.observed, self.estimate
            if reference > 0 and abs(rate - reference) >= self.relative_change * reference:
                return self._emit()
            if reference == 0 and rate > 0:
                return self._emit()
        return None

    def _emit(self):
        rate = self.lost / self.observed
        if self.ewma is not None and self.estimate is not None:
            rate = self.ewma * rate + (1.0 - self.ewma) * self.estimate
        report = LossReport(observed_window=self.observed, lost=self.lost, estimate=rate)
        self.estimate, self.observed, self.lost = rate, 0, 0
        return report


@st.composite
def estimator_runs(draw):
    if draw(st.integers(0, 9)) == 0:
        # A session's shape: the destination's estimator over one or two
        # 10^4-native windows at p = 0.02, about 100 reports or more.
        params = dict(window=1000, relative_change=0.5, min_observations=50, ewma=None)
        estimate = draw(st.sampled_from([0.02, 0.0]))
        n, rate = draw(st.integers(10_000, 20_000)), 0.02
    else:
        params = dict(window=draw(st.integers(1, 60)),
                      relative_change=draw(st.sampled_from([0.0, 0.1, 0.5, 1.0, 100.0])),
                      min_observations=draw(st.integers(0, 30)),
                      ewma=draw(st.sampled_from([None, 0.25, 0.5, 1.0])))
        estimate = draw(st.sampled_from([None, 0.0, 0.01, 0.2, 0.9]))
        n = draw(st.integers(0, 300))
        rate = draw(st.sampled_from([0.0, 0.02, 0.2, 0.7, 1.0]))
    mask = np.random.default_rng(draw(st.integers(0, 2**32))).random(n) < rate
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=5)))
    return params, estimate, mask, cuts


@settings(max_examples=300, deadline=None)
@given(estimator_runs())
def test_observe_many_matches_the_per_outcome_loop(run):
    params, estimate, mask, cuts = run
    est = LossRateEstimator(**params)
    est.estimate = estimate
    reference = ReferenceEstimator(estimate=estimate, **params)
    # The mask goes in split at the cuts (empty pieces included); the
    # reports of the pieces, in order, are those of the whole loop.
    reports = []
    for lo, hi in zip([0] + cuts, cuts + [mask.size]):
        reports += est.observe_many(mask[lo:hi])
    expected = [r for r in map(reference.observe, mask.tolist()) if r is not None]
    assert reports == expected
    assert (est.estimate, est._observed, est._lost) == (reference.estimate, reference.observed,
                                                         reference.lost)
    # ``observe`` is the one-outcome call of the same path.
    assert est.observe(True) == reference.observe(True)
    assert (est.estimate, est._observed, est._lost) == (reference.estimate, reference.observed,
                                                         reference.lost)
