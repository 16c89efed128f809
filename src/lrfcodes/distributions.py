"""Degree distributions for fountain coding, including loss-rate-aware variants.

Provides the classic ideal and robust soliton laws, plus two soliton-shaped
distributions that exploit a known loss count m out of a window of w symbols:

* ``lrf_ideal`` -- support truncated below at the minimum useful degree
  ceil(w/m), so every encoding symbol is likely to repair a lost symbol.
* ``lr_raptor_dist`` -- the same shape additionally capped at a maximum
  degree, for use as the inner code of a precoded (Raptor-style) codec.

Also exposes the closed-form analysis quantities: minimum useful degree,
the hypergeometric probability that an encoding symbol hits a given number
of uncovered symbols, and the normalizers of the truncated and capped laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleCapError, InvalidParameterError, NoLossError

SUM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class DegreeDistribution:
    """Probability mass over degrees 1..w with a cached CDF for sampling.

    Immutable after construction; safe to share across threads.
    """

    w: int
    degrees: np.ndarray
    probs: np.ndarray
    cdf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.w < 1:
            raise InvalidParameterError(f"window length must be >= 1, got {self.w}")
        degrees = np.ascontiguousarray(self.degrees, dtype=np.int64)
        probs = np.ascontiguousarray(self.probs, dtype=np.float64)
        if degrees.ndim != 1 or degrees.shape != probs.shape or degrees.size == 0:
            raise InvalidParameterError("degrees and probs must be matching non-empty 1-D arrays")
        if np.any(np.diff(degrees) <= 0):
            raise InvalidParameterError("degrees must be strictly increasing")
        if degrees[0] < 1 or degrees[-1] > self.w:
            raise InvalidParameterError(f"support must lie in 1..{self.w}")
        if not np.all(probs >= 0):
            raise InvalidParameterError("probabilities must be non-negative numbers")
        total = float(probs.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise InvalidParameterError(f"probabilities sum to {total}, expected 1")
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "cdf", np.cumsum(probs))

    @property
    def pmf(self) -> dict[int, float]:
        """Mapping degree -> probability (support only)."""
        return {int(d): float(p) for d, p in zip(self.degrees, self.probs)}


@dataclass(frozen=True)
class LossContext:
    """A window of w symbols of which m were lost in transit (n received)."""

    w: int
    m: int
    n: int = field(init=False)
    loss_rate: float = field(init=False)

    def __post_init__(self):
        if self.w < 1:
            raise InvalidParameterError(f"window length must be >= 1, got {self.w}")
        if not 0 <= self.m <= self.w:
            raise InvalidParameterError(f"lost count {self.m} outside 0..{self.w}")
        object.__setattr__(self, "n", self.w - self.m)
        object.__setattr__(self, "loss_rate", self.m / self.w)


def _from_weights(w: int, degrees: np.ndarray, weights: np.ndarray) -> DegreeDistribution:
    weights = np.asarray(weights, dtype=np.float64)
    return DegreeDistribution(w=w, degrees=degrees, probs=weights / weights.sum())


def ideal_soliton(w: int) -> DegreeDistribution:
    """Ideal soliton: P(1) = 1/w, P(d) = 1/(d(d-1)) for d = 2..w."""
    if w < 1:
        raise InvalidParameterError(f"window length must be >= 1, got {w}")
    degrees = np.arange(1, w + 1, dtype=np.int64)
    probs = np.empty(w, dtype=np.float64)
    probs[0] = 1.0 / w
    if w > 1:
        d = degrees[1:].astype(np.float64)
        probs[1:] = 1.0 / (d * (d - 1.0))
    return DegreeDistribution(w=w, degrees=degrees, probs=probs)


def robust_soliton(w: int, delta: float, c: float) -> DegreeDistribution:
    """Robust soliton: ideal soliton plus a spike/tail term, renormalized.

    The tail adds mass R/(d*w) below the spike degree round(w/R) and a spike
    of R*ln(R/delta)/w there, with R = c * ln(w/delta) * sqrt(w).
    """
    if w < 1:
        raise InvalidParameterError(f"window length must be >= 1, got {w}")
    if not 0.0 < delta < 1.0:
        raise InvalidParameterError(f"delta {delta} outside (0, 1)")
    if not 0.0 < c < math.inf:
        raise InvalidParameterError(f"c must be positive and finite, got {c}")

    base = ideal_soliton(w)
    weights = base.probs.copy()
    R = c * math.log(w / delta) * math.sqrt(w)
    spike = min(max(round(w / R), 1), w)
    d = np.arange(1, spike, dtype=np.float64)
    weights[: spike - 1] += R / (d * w)
    spike_mass = R * math.log(R / delta) / w
    if spike_mass > 0.0:
        weights[spike - 1] += spike_mass
    return _from_weights(w, base.degrees, weights)


def min_degree(ctx: LossContext) -> int:
    """Minimum useful degree ceil(w/m): at this degree an encoding symbol
    hits one lost symbol in expectation."""
    if ctx.m == 0:
        raise NoLossError("no symbols lost; send zero encoding symbols")
    return -(-ctx.w // ctx.m)


def recovery_probability(ctx: LossContext, d: int, i: int) -> float:
    """Probability that a degree-d symbol covers exactly i lost symbols.

    Hypergeometric: C(m,i) * C(n,d-i) / C(w,d), computed with exact
    big-integer binomials so it stays finite at w ~ 1e5.
    """
    if not 1 <= d <= ctx.w:
        raise InvalidParameterError(f"degree {d} outside 1..{ctx.w}")
    if not 0 <= i <= min(d, ctx.m):
        raise InvalidParameterError(f"hit count {i} outside 0..{min(d, ctx.m)}")
    if d - i > ctx.n:
        return 0.0
    return math.comb(ctx.m, i) * math.comb(ctx.n, d - i) / math.comb(ctx.w, d)


def lrf_ideal(ctx: LossContext) -> DegreeDistribution:
    """Loss-aware soliton: P(d) proportional to 1/(d(d-1)) on ceil(w/m)..w,
    the uncapped ``lr_raptor_dist``.

    Degenerates to the ideal soliton when everything was lost (m = w), where
    the truncation would start at d = 1 and 1/(d(d-1)) is undefined.
    """
    return lr_raptor_dist(ctx, ctx.w)


def lr_raptor_dist(ctx: LossContext, d_max: int) -> DegreeDistribution:
    """Loss-aware soliton capped at d_max, for the inner code of a precoded
    codec where the degree must not grow with the block length. When m = w
    it is the ideal soliton cut at d_max, itself if nothing is cut."""
    if ctx.m == 0:
        raise NoLossError("no symbols lost; send zero encoding symbols")
    if not 1 <= d_max <= ctx.w:
        raise InvalidParameterError(f"d_max {d_max} outside 1..{ctx.w}")
    low = min_degree(ctx)
    if d_max < low:
        raise InfeasibleCapError(f"d_max {d_max} below minimum useful degree {low}")
    if low < 2:
        base = ideal_soliton(ctx.w)
        if d_max == ctx.w:
            return base
        keep = base.degrees <= d_max
        return _from_weights(ctx.w, base.degrees[keep], base.probs[keep])
    degrees = np.arange(low, d_max + 1, dtype=np.int64)
    d = degrees.astype(np.float64)
    return _from_weights(ctx.w, degrees, 1.0 / (d * (d - 1.0)))


def truncated_normalizer_closed_form(ctx: LossContext) -> float:
    """Closed-form normalizer w*n/(w^2 - w*n - n) of the truncated soliton.

    Exact only when w/m is an integer (the telescoping sum it comes from
    assumes an integer lower support bound).
    """
    return ctx.w * ctx.n / (ctx.w * ctx.w - ctx.w * ctx.n - ctx.n)


def capped_normalizer_closed_form(low: int, d_max: int) -> float:
    """Closed-form normalizer 1 / (1/(low-1) - 1/d_max) of the capped
    truncated soliton, from the telescoping identity."""
    if low < 2 or d_max < low:
        raise InvalidParameterError(f"need 2 <= low <= d_max, got {low}, {d_max}")
    return 1.0 / (1.0 / (low - 1) - 1.0 / d_max)


def inverse_cdf(dist: DegreeDistribution, u):
    """Degrees at uniforms ``u`` in [0, 1) (a scalar or an array): the
    inverse-transform map every sampler here, and the codec, goes through."""
    idx = np.searchsorted(dist.cdf, u, side="right")
    return dist.degrees[np.minimum(idx, dist.degrees.size - 1)]


def sample(dist: DegreeDistribution, rng) -> int:
    """Inverse-transform sample of one degree.

    ``rng`` is any generator with a ``random()`` method returning a float in
    [0, 1); the caller owns it, so determinism and thread-safety are the
    caller's contract.
    """
    return int(inverse_cdf(dist, rng.random()))
