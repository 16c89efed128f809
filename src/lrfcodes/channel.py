"""Seedable erasure channel and destination-side loss-rate estimation.

The default channel drops each symbol independently with probability p
(Bernoulli erasures). A two-state burst model is available behind a flag for
experimentation; it is excluded from the acceptance metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import InvalidParameterError


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


class Channel:
    """Stateful channel whose generator advances across calls, for sessions
    that transmit in multiple batches."""

    def __init__(self, cfg: ChannelConfig):
        self.cfg = cfg
        self._rng = np.random.default_rng(cfg.seed)
        self._bad = False

    def loss_mask(self, count: int) -> np.ndarray:
        """Boolean mask of length ``count``; True marks a dropped symbol."""
        if count < 0:
            raise InvalidParameterError(f"count must be >= 0, got {count}")
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


def loss_mask(count: int, cfg: ChannelConfig) -> np.ndarray:
    """Stateless mask: deterministic for a fixed config."""
    return Channel(cfg).loss_mask(count)


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
    """Streaming estimator emitting a report every ``window`` symbols, or
    earlier when the running window rate moves >= ``relative_change`` away
    from the last reported estimate (after a minimum of observations).

    The default estimate is the plain windowed ratio; pass ``ewma`` in (0, 1]
    to smooth reports exponentially instead.
    """

    def __init__(self, window: int = 1000, relative_change: float = 0.5,
                 min_observations: int = 50, ewma: float | None = None):
        if window < 1:
            raise InvalidParameterError(f"window must be >= 1, got {window}")
        if ewma is not None and not 0.0 < ewma <= 1.0:
            raise InvalidParameterError(f"ewma {ewma} outside (0, 1]")
        self.window = window
        self.relative_change = relative_change
        self.min_observations = min_observations
        self.ewma = ewma
        self.estimate: float | None = None
        self._observed = 0
        self._lost = 0

    def observe(self, lost: bool) -> LossReport | None:
        """Record one delivery outcome; returns a report when triggered."""
        return next(iter(self.observe_many((lost,))), None)

    def observe_many(self, lost) -> list[LossReport]:
        """Record delivery outcomes in order (True marks a loss); returns the
        reports a loop of ``observe`` over them would return, in order."""
        # Losses among outcomes [0, i] are cum[i + 1]; one pass for the call.
        lost = np.asarray(lost, dtype=bool)
        cum = np.zeros(lost.size + 1, dtype=np.int64)
        np.cumsum(lost, out=cum[1:])
        counts = np.arange(1, min(self.window, self._observed + lost.size) + 1)
        reports, lo = [], 0
        while lo < cum.size - 1:
            # A span runs from outcome lo to the next window report at the
            # latest; the first outcome that triggers a report ends it.
            seen, base = self._observed, self._lost - int(cum[lo])
            hi = min(cum.size - 1, lo + self.window - seen)
            at, fire = hi - 1, seen + hi - lo >= self.window
            first = lo + max(0, self.min_observations - seen - 1)
            if (ref := self.estimate) is not None and first < hi:
                if ref == 0:  # the first outcome from ``first`` on with a loss counted
                    moved = max(first, int(cum.searchsorted(-base, side="right")) - 1)
                else:
                    observed = counts[seen + first - lo:seen + hi - lo]
                    rate = (base + cum[first + 1:hi + 1]) / observed
                    hit = np.abs(rate - ref) >= self.relative_change * ref
                    i = int(hit.argmax())
                    moved = first + i if hit[i] else hi
                if moved < hi:
                    at, fire = moved, True
            self._observed, self._lost = seen + at + 1 - lo, base + int(cum[at + 1])
            if fire:
                reports.append(self._emit())
            lo = at + 1
        return reports

    def _emit(self) -> LossReport:
        rate = self._lost / self._observed
        if self.ewma is not None and self.estimate is not None:
            rate = self.ewma * rate + (1.0 - self.ewma) * self.estimate
        report = LossReport(observed_window=self._observed, lost=self._lost, estimate=rate)
        self.estimate = rate
        self._observed = 0
        self._lost = 0
        return report
