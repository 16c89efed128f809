"""Seedable erasure channel and destination-side loss-rate estimation.

The default channel drops each symbol independently with probability p
(Bernoulli erasures). A two-state burst model is available behind a flag for
experimentation; it is excluded from the acceptance metrics.

The loss-rate estimator reports once per call of ``observe_many``: the
destination hands it one window's natives mask per ``Natives`` event, and the
report counts exactly that mask. The source reads the latest report when it
sizes the next window's proactive repair.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import InvalidParameterError, check_size


@dataclass(frozen=True)
class BurstModel:
    """Gilbert-Elliott two-state loss model (good/bad)."""

    p_good_to_bad: float
    p_bad_to_good: float
    loss_good: float = 0.0
    loss_bad: float = 1.0

    def __post_init__(self):
        for name in ("p_good_to_bad", "p_bad_to_good", "loss_good", "loss_bad"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidParameterError(f"{name} {v} outside [0, 1]")


@dataclass(frozen=True)
class ChannelConfig:
    loss_rate: float
    seed: int = 0
    burst: BurstModel | None = None

    def __post_init__(self):
        if not 0.0 <= self.loss_rate <= 1.0:
            raise InvalidParameterError(f"loss rate {self.loss_rate} outside [0, 1]")
        check_size("seed", self.seed, low=0)


class Channel:
    """Stateful channel whose generator advances across calls, for sessions
    that transmit in multiple batches."""

    def __init__(self, cfg: ChannelConfig):
        self.cfg = cfg
        self._rng = np.random.default_rng(cfg.seed)
        self._bad = False

    def loss_mask(self, count: int) -> np.ndarray:
        """Boolean mask of length ``count``; True marks a dropped symbol."""
        check_size("count", count, low=0)
        if self.cfg.burst is None:
            return self._rng.random(count) < self.cfg.loss_rate
        b = self.cfg.burst
        u_state = self._rng.random(count)
        u_loss = self._rng.random(count)
        # A step below p_good_to_bad sends a good state bad, one below
        # p_bad_to_good a bad state good. Below only one threshold the step
        # sets that state whatever the last one was, below both it flips the
        # state, below neither it holds it. So the state is the last set
        # move (or the carried state) XOR the parity of the flips since.
        to_bad, to_good = u_state < b.p_good_to_bad, u_state < b.p_bad_to_good
        flips = np.bitwise_xor.accumulate(to_bad & to_good)
        sets = to_bad != to_good
        last = np.maximum.accumulate(np.where(sets, np.arange(count), -1))
        # (Where no set move came yet, last is -1 and its reads are unused.)
        bad = flips ^ np.where(last >= 0, to_bad[last] ^ flips[last], self._bad)
        if count:
            self._bad = bool(bad[-1])
        return u_loss < np.where(bad, b.loss_bad, b.loss_good)


@dataclass(frozen=True)
class LossReport:
    """Windowed loss estimate fed back from destination to source."""

    observed_window: int
    lost: int
    estimate: float

    def __post_init__(self):
        if not 0 <= self.lost <= self.observed_window:
            raise InvalidParameterError(
                f"lost {self.lost} outside 0..{self.observed_window}")


class LossRateEstimator:
    """Destination-side estimator: one report per ``observe_many`` call, over
    exactly the outcomes it was given (a window's natives mask per event).
    The estimate is the call's plain loss ratio."""

    def observe(self, lost: bool) -> LossReport:
        """Record one delivery outcome; returns its report."""
        return self.observe_many((lost,))

    def observe_many(self, lost) -> LossReport | None:
        """Report over the delivery outcomes given (True marks a loss); None
        for no outcomes."""
        lost = np.asarray(lost, dtype=bool)
        if not lost.size:
            return None
        count = int(np.count_nonzero(lost))
        return LossReport(observed_window=lost.size, lost=count, estimate=count / lost.size)
