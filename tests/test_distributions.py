"""Degree-distribution unit tests.

Numeric reference values are frozen from independent computations with
``fractions.Fraction`` / ``math.comb`` so regressions in the library cannot
silently shift them.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from lrfcodes.distributions import (DegreeDistribution, LossContext,
                                    capped_normalizer_closed_form,
                                    ideal_soliton, inverse_cdf, lr_raptor_dist,
                                    lrf_ideal, min_degree, recovery_probability,
                                    robust_soliton, sample,
                                    truncated_normalizer_closed_form)
from lrfcodes.errors import (InfeasibleCapError, InvalidParameterError,
                             NoLossError)


# ---------------------------------------------------------------------------
# Basic object invariants


def test_distribution_validates_probability_sum():
    with pytest.raises(InvalidParameterError):
        DegreeDistribution(w=4, degrees=np.array([1, 2]),
                          probs=np.array([0.5, 0.4]))
    # NaN fails both the sign and the sum comparison, so it is caught apart.
    for probs in ([np.nan, 1.0], [np.nan, np.nan], [np.inf, 0.0]):
        with pytest.raises(InvalidParameterError):
            DegreeDistribution(w=4, degrees=np.array([1, 2]), probs=np.array(probs))


def test_distribution_rejects_bad_degrees():
    with pytest.raises(InvalidParameterError):
        DegreeDistribution(w=4, degrees=np.array([0, 1]),
                          probs=np.array([0.5, 0.5]))
    with pytest.raises(InvalidParameterError):
        DegreeDistribution(w=4, degrees=np.array([1, 5]),
                          probs=np.array([0.5, 0.5]))


@pytest.mark.parametrize("w", [1, 2, 3, 10, 64, 257])
def test_ideal_soliton_normalized(w):
    dist = ideal_soliton(w)
    assert math.isclose(float(dist.probs.sum()), 1.0, abs_tol=1e-12)


def test_ideal_soliton_frozen_values():
    # rho(1) = 1/w, rho(d) = 1/(d(d-1)); frozen for w = 10.
    dist = ideal_soliton(10)
    pmf = dist.pmf
    assert math.isclose(pmf[1], 0.1, abs_tol=1e-15)
    for d in range(2, 11):
        assert math.isclose(pmf[d], 1.0 / (d * (d - 1)), abs_tol=1e-15)


# ---------------------------------------------------------------------------
# Robust soliton


def test_robust_soliton_spike_location():
    # R = c * ln(w/delta) * sqrt(w); the extra mass spikes at round(w/R).
    w, delta, c = 10267, 0.5, 0.1
    R = c * math.log(w / delta) * math.sqrt(w)
    spike = int(round(w / R))
    assert spike == 102  # frozen
    dist = robust_soliton(w, delta, c)
    pmf = dist.pmf
    # The spike dominates its immediate neighborhood.
    assert pmf[spike] > pmf[spike - 1]
    assert pmf[spike] > pmf[spike + 1]
    assert math.isclose(float(dist.probs.sum()), 1.0, abs_tol=1e-12)


def test_robust_soliton_reduces_toward_ideal_tail():
    # Far above the spike the robust pmf follows the ideal soliton shape
    # up to the common normalization.
    w = 1000
    robust = robust_soliton(w, 0.5, 0.1).pmf
    ideal = ideal_soliton(w).pmf
    ratios = [robust[d] / ideal[d] for d in (500, 700, 900)]
    assert max(ratios) - min(ratios) < 1e-9


def test_robust_soliton_rejects_bad_params():
    with pytest.raises(InvalidParameterError):
        robust_soliton(10, 0.0, 0.1)
    with pytest.raises(InvalidParameterError):
        robust_soliton(10, 0.5, -1.0)
    for delta, c in ((0.5, float("inf")), (0.5, float("nan")), (float("nan"), 0.1)):
        with pytest.raises(InvalidParameterError):
            robust_soliton(256, delta, c)


# ---------------------------------------------------------------------------
# Loss context and minimum useful degree


def test_loss_context_derived_fields():
    ctx = LossContext(10, 2)
    assert ctx.n == 8
    assert math.isclose(ctx.loss_rate, 0.2)


def test_min_degree_frozen_values():
    assert min_degree(LossContext(10, 2)) == 5
    assert min_degree(LossContext(10267, 103)) == 100  # ceil(10267/103)
    assert min_degree(LossContext(7, 3)) == 3          # ceil(7/3)


def test_min_degree_no_loss():
    with pytest.raises(NoLossError):
        min_degree(LossContext(10, 0))


# ---------------------------------------------------------------------------
# Release probability


def test_recovery_probability_frozen_value():
    # C(2,1) * C(8,4) / C(10,5) = 140/252, frozen with exact arithmetic.
    expect = Fraction(math.comb(2, 1) * math.comb(8, 4), math.comb(10, 5))
    got = recovery_probability(LossContext(10, 2), 5, 1)
    assert math.isclose(got, float(expect), rel_tol=1e-12)
    assert math.isclose(got, 0.5555555555555556, rel_tol=1e-12)


def test_recovery_probability_sums_to_one_over_i():
    # Summing over all split counts i exhausts the hypergeometric law.
    ctx, d = LossContext(12, 5), 4
    total = sum(recovery_probability(ctx, d, i) for i in range(0, d + 1))
    assert math.isclose(total, 1.0, rel_tol=1e-12)


def test_recovery_probability_out_of_range():
    # Infeasible split counts are a caller error ...
    with pytest.raises(InvalidParameterError):
        recovery_probability(LossContext(10, 2), 5, 3)
    with pytest.raises(InvalidParameterError):
        recovery_probability(LossContext(10, 2), 5, -1)
    # ... but a split needing more received symbols than exist has mass 0.
    assert recovery_probability(LossContext(10, 8), 5, 1) == 0.0


# ---------------------------------------------------------------------------
# Truncated (loss-aware) distribution


def test_lrf_ideal_frozen_small_case():
    # w = 10, m = 2: support 5..10, weights 1/(d(d-1)), normalizer 20/3.
    dist = lrf_ideal(LossContext(10, 2))
    assert dist.degrees.tolist() == [5, 6, 7, 8, 9, 10]
    alpha = Fraction(10 * 8, 10 * 10 - 10 * 8 - 8)  # = 20/3... wn/(w^2-wn-n)
    assert alpha == Fraction(20, 3)
    pmf = dist.pmf
    for d in range(5, 11):
        expect = alpha * Fraction(1, d * (d - 1))
        assert math.isclose(pmf[d], float(expect), rel_tol=1e-12)
    assert math.isclose(pmf[5], 1.0 / 3.0, rel_tol=1e-12)


def test_truncated_normalizer_closed_form_matches_sum():
    for w, m in [(10, 2), (100, 10), (200, 8), (144, 12)]:
        ctx = LossContext(w, m)
        L = w // m
        numeric = 1.0 / math.fsum(1.0 / (d * (d - 1)) for d in range(L, w + 1))
        assert math.isclose(truncated_normalizer_closed_form(ctx), numeric,
                            rel_tol=1e-9)


def test_lrf_ideal_fallback_when_support_degenerate():
    # m = w gives L = 1, where 1/(d(d-1)) is undefined; the ideal soliton
    # takes over.
    dist = lrf_ideal(LossContext(10, 10))
    ideal = ideal_soliton(10)
    assert dist.degrees.tolist() == ideal.degrees.tolist()
    np.testing.assert_allclose(dist.probs, ideal.probs)


def _truncated_soliton_reference(ctx):
    # The truncated soliton built directly: 1/(d(d-1)) on ceil(w/m)..w over
    # its own sum, or the ideal soliton where that support starts at 1.
    low = -(-ctx.w // ctx.m)
    if low < 2:
        base = ideal_soliton(ctx.w)
        return base.degrees, base.probs
    d = np.arange(low, ctx.w + 1, dtype=np.float64)
    weights = 1.0 / (d * (d - 1.0))
    return d.astype(np.int64), weights / weights.sum()


@pytest.mark.parametrize("pairs", [
    [(w, m) for w in range(1, 121) for m in range(1, w + 1)],
    [(10017, 1), (10017, 50), (10017, 100), (10269, 103), (10269, 10269), (100000, 1000)],
], ids=["w<=120", "paper-scale"])
def test_lrf_ideal_is_uncapped_lr_raptor_dist(pairs):
    # One loss-aware law: lrf_ideal is lr_raptor_dist with d_max = w, bit for
    # bit, and both equal the directly built truncated soliton; at m = w
    # nothing is cut, so the ideal soliton comes back unrenormalized.
    for w, m in pairs:
        ctx = LossContext(w, m)
        ideal, capped = lrf_ideal(ctx), lr_raptor_dist(ctx, w)
        degrees, probs = _truncated_soliton_reference(ctx)
        for dist in (ideal, capped):
            assert np.array_equal(dist.degrees, degrees), (w, m)
            assert np.array_equal(dist.probs, probs), (w, m)


def test_average_degree_frozen_value():
    # E[d] = alpha * sum_{d=5}^{10} 1/(d-1), exact via fractions.
    ctx = LossContext(10, 2)
    alpha = Fraction(20, 3)
    expect = alpha * sum(Fraction(1, d - 1) for d in range(5, 11))
    dist = lrf_ideal(ctx)
    got = float(dist.degrees @ dist.probs)
    assert math.isclose(got, float(expect), rel_tol=1e-12)
    assert math.isclose(got, 2509 / 378, rel_tol=1e-12)  # ~6.63757


# ---------------------------------------------------------------------------
# Capped distribution


def test_capped_normalizer_closed_form():
    for L, d_max in [(2, 10), (5, 50), (100, 200), (3, 4)]:
        numeric = 1.0 / math.fsum(1.0 / (d * (d - 1))
                                  for d in range(L, d_max + 1))
        assert math.isclose(capped_normalizer_closed_form(L, d_max), numeric,
                            rel_tol=1e-9)


def test_lr_raptor_dist_support_and_cap():
    ctx = LossContext(100, 10)
    dist = lr_raptor_dist(ctx, 40)
    assert dist.degrees.min() == 10
    assert dist.degrees.max() == 40
    assert math.isclose(float(dist.probs.sum()), 1.0, abs_tol=1e-12)


def test_lr_raptor_dist_infeasible_cap():
    with pytest.raises(InfeasibleCapError):
        lr_raptor_dist(LossContext(100, 10), 9)


# ---------------------------------------------------------------------------
# Sampling


def test_sample_deterministic_for_seed():
    dist = lrf_ideal(LossContext(64, 8))
    a = [sample(dist, random.Random(99)) for _ in range(5)]
    b = [sample(dist, random.Random(99)) for _ in range(5)]
    # Same fresh generator, same first draw.
    assert a[0] == b[0]


def test_sample_respects_support():
    dist = lrf_ideal(LossContext(64, 8))
    draws = inverse_cdf(dist, np.random.default_rng(1).random(2000))
    assert min(draws) >= 8  # L = 64/8
    assert max(draws) <= 64


def test_sample_frequency_matches_pmf():
    dist = lrf_ideal(LossContext(20, 4))
    n = 40000
    draws = inverse_cdf(dist, np.random.default_rng(7).random(n))
    counts = np.bincount(np.asarray(draws), minlength=21)
    pmf = dist.pmf
    for d, prob in pmf.items():
        if prob < 0.01:
            continue
        observed = counts[d] / n
        # Loose binomial bound: 5 sigma.
        sigma = math.sqrt(prob * (1 - prob) / n)
        assert abs(observed - prob) < 5 * sigma + 1e-9
