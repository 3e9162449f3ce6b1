"""Tests of the benchmark's reference code against brute force.

    python3 -m pytest bench/test_reference.py -q
"""

import bisect
import math

import numpy as np
import pytest
from scipy import integrate
from scipy import special as sp

import reference as ref


def _ecdf(sorted_x, t):
    return bisect.bisect_right(sorted_x, t) / len(sorted_x)


def _n2_mean_cond_var(alpha):
    return 0.5 + 1.0 / (2.0 * (1.0 + alpha)) - 1.0 / ((1.0 + alpha) * (1.0 + 2.0 * alpha))


def _samples(r, seed):
    return np.sort(np.random.default_rng(seed).normal(0.3, 1.2, r))


@pytest.mark.parametrize("r,seed", [(1, 0), (2, 1), (7, 2), (40, 3)])
def test_dk_matches_dense_sup(r, seed):
    x = _samples(r, seed)
    grid = np.linspace(-9.0, 9.0, 200_001)
    ecdf = np.searchsorted(x, grid, side="right") / r
    dense = float(np.max(np.abs(ecdf - sp.ndtr(grid))))
    # one-sided limits at the jumps, where the supremum sits
    at_jumps = max(max(abs((i + 1) / r - sp.ndtr(v)), abs(i / r - sp.ndtr(v)))
                   for i, v in enumerate(x))
    assert ref.empirical_dk(x) == pytest.approx(at_jumps, abs=1e-15)
    # the grid spacing bounds how far below the supremum the grid can fall
    assert dense <= ref.empirical_dk(x) + 1e-15
    assert ref.empirical_dk(x) - dense <= 1e-4


@pytest.mark.parametrize("r,seed", [(1, 4), (2, 5), (7, 6), (40, 7)])
def test_dw_matches_quadrature(r, seed):
    x = _samples(r, seed)

    def gap(t):
        return abs(_ecdf(x, t) - sp.ndtr(t))

    knots = [-np.inf, *x, np.inf]
    brute = 0.0
    for a, b in zip(knots[:-1], knots[1:]):
        level = _ecdf(x, a) if np.isfinite(a) else 0.0
        points = None
        if 0.0 < level < 1.0:
            cross = float(sp.ndtri(level))
            if a < cross < b:
                points = [cross]
        if np.isfinite(a) and np.isfinite(b):
            value, _ = integrate.quad(gap, a, b, points=points, epsabs=1e-14, epsrel=1e-12,
                                      limit=200)
        else:
            value, _ = integrate.quad(gap, a, b, epsabs=1e-14, epsrel=1e-12, limit=200)
        brute += value
    assert ref.QuantileW1(r)(x) == pytest.approx(brute, rel=1e-9, abs=1e-12)


def test_dw_rejects_a_sample_of_another_size():
    with pytest.raises(ValueError):
        ref.QuantileW1(5)(np.zeros(4))


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_n2_sampler_mean_conditional_variance(alpha):
    r = 400_000
    _, cond_var, _ = ref.sample_you_n2(r, alpha, 1.0, np.random.default_rng(11))
    exact = _n2_mean_cond_var(alpha)
    se = np.std(cond_var, ddof=1) / math.sqrt(r)
    assert abs(np.mean(cond_var) - exact) <= 5.0 * se


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_n2_sampler_moments_of_the_average(alpha):
    r = 400_000
    delta = 1.3
    cond_mean, cond_var, ybar = ref.sample_you_n2(r, alpha, delta, np.random.default_rng(12))
    exact = ref.you_moments(2, alpha, delta)
    se = np.std(ybar, ddof=1) / math.sqrt(r)
    assert abs(np.mean(ybar) - exact["mean"]) <= 5.0 * se
    assert np.all(cond_var > 0.0) and np.all(np.abs(cond_mean) <= delta)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_event_sums_reduce_to_the_two_tip_forms(alpha):
    assert ref.mean_cond_var_you(2, alpha) == pytest.approx(_n2_mean_cond_var(alpha), rel=1e-14)
    # one event whose two daughters hold one tip each, both jumping with
    # probability p: scale * 2p * E exp(-2 alpha T2) / n^2, T2 ~ Exp(2)
    p, sigma_c2 = 0.5, 2.0
    scale = 2.0 * alpha * sigma_c2
    expected = scale * 2.0 * p * (2.0 / (2.0 + 2.0 * alpha)) / 4.0
    assert ref.mean_jump_variance(2, alpha, p, sigma_c2) == pytest.approx(expected, rel=1e-14)


def test_pair_time_laplace_matches_simulated_merges():
    # backward in time: with k lineages left the step lasts Exp(k), and a
    # fixed pair still apart merges with probability 1 / C(k, 2)
    n, y, r = 6, 1.7, 400_000
    rng = np.random.default_rng(13)
    age = np.zeros(r)
    draws = np.zeros(r)
    apart = np.ones(r, dtype=bool)
    for k in range(n, 1, -1):
        age += rng.exponential(1.0 / k, r)
        hit = apart & (rng.random(r) < 2.0 / (k * (k - 1.0)))
        draws[hit] = np.exp(-y * age[hit])
        apart &= ~hit
    assert not apart.any()
    se = np.std(draws, ddof=1) / math.sqrt(r)
    assert abs(np.mean(draws) - ref.pair_time_laplace(n, y)) <= 5.0 * se


def test_daughter_counts_match_forward_yule_trees():
    # grow trees forward, splitting a uniform lineage, and count the tips
    # below each daughter slot; compare E d^2 per event with the
    # composition formula that mean_jump_variance sums
    n, r = 6, 40_000
    rng = np.random.default_rng(14)
    d2 = np.zeros((r, n - 1))
    for t in range(r):
        slots_of = [[]]                     # per lineage: slots it descends from
        count = [0] * (2 * (n - 1))
        for k in range(1, n):
            j = int(rng.integers(k))
            above = slots_of[j]
            slots_of[j] = above + [2 * (k - 1)]
            slots_of.append(above + [2 * (k - 1) + 1])
        for tip_slots in slots_of:
            for slot in tip_slots:
                count[slot] += 1
        d2[t] = [count[2 * e] ** 2 + count[2 * e + 1] ** 2 for e in range(n - 1)]
    for e in range(n - 1):
        big_k = e + 2.0
        exact = 2.0 * (n * n / big_k ** 2 + n * (n - big_k) * (big_k - 1.0)
                       / (big_k ** 2 * (big_k + 1.0)))
        se = np.std(d2[:, e], ddof=1) / math.sqrt(r)
        assert abs(np.mean(d2[:, e]) - exact) <= 5.0 * se + 1e-12


def test_variance_estimate_se_matches_repeated_samples():
    # H is distributed as the maximum of n unit exponentials (Renyi), so
    # exp(-alpha H) = (1 - U^(1/n))^alpha draws the conditional mean directly
    n, alpha, delta, r, trials = 50, 1.0, 1.3, 500, 4000
    u = np.random.default_rng(15).random((trials, r))
    x = delta * (1.0 - u ** (1.0 / n)) ** alpha
    s2 = np.var(x, axis=1, ddof=1)
    se = ref.variance_estimate_se(n, alpha, delta, r)
    assert np.std(s2, ddof=1) == pytest.approx(se, rel=0.1)
    exact = ref.you_moments(n, alpha, delta)["ve"]
    assert abs(np.mean(s2) - exact) <= 5.0 * se / math.sqrt(trials)


@pytest.mark.parametrize("b1,b2", [(32, 100), (10, 10)])
def test_sd_ratio_interval_false_alarm_on_normal_draws(b1, b2):
    rng = np.random.default_rng(16)
    trials, false_alarm = 100_000, 0.02
    s1 = rng.standard_normal((trials, b1)).std(axis=1, ddof=1)
    s2 = rng.standard_normal((trials, b2)).std(axis=1, ddof=1)
    lo, hi = ref.sd_ratio_interval(b1, b2, 3.0, false_alarm)
    rate = np.mean((s1 / s2 < lo) | (s1 / s2 > hi))
    assert abs(rate - false_alarm) <= 5.0 * math.sqrt(false_alarm / trials)
    # heavier tails widen the interval
    wide_lo, wide_hi = ref.sd_ratio_interval(b1, b2, 6.0, false_alarm)
    assert wide_lo < lo and wide_hi > hi
