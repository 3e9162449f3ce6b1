"""Independent oracle implementations used by the tests.

Everything here is deliberately written along a different route than the
package code: series instead of erfc, ancestor-chain walks instead of
descendant counts, dense covariance matrices instead of aggregated sums, a
quantile at every empirical-CDF level and a fresh sort per bootstrap
resample instead of crossing tests and rank counts.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import numpy as np

from youbounds import special


def phi_series(z: float) -> float:
    """Standard normal CDF by the Taylor series
    Phi(z) = 1/2 + phi(z) * sum z^(2k+1) / (1*3*...*(2k+1))."""
    if z < -9.0:
        return 1.0 - phi_series(-z)
    term = z
    total = z
    k = 0
    while abs(term) > 1e-20 * max(1.0, abs(total)):
        k += 1
        term *= z * z / (2 * k + 1)
        total += term
        if k > 10_000:
            raise RuntimeError("series did not converge")
    return 0.5 + total * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def harmonic_fraction(n: int) -> Fraction:
    return sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))


def kappa_second_derivative(x: float, sigma2: float) -> float:
    """Closed-form second derivative of the variance penalty in x,
    derived by hand: (3/4) sigma^3 (sigma2 + x)^(-7/2) (9 sigma2 - x)."""
    sigma = math.sqrt(sigma2)
    return 0.75 * sigma ** 3 * (sigma2 + x) ** -3.5 * (9.0 * sigma2 - x)


# ---------------------------------------------------------------------------
# tree oracles via ancestor chains

def single_tree_draws(n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """The draws of one n-tip tree, one stream call at a time: n period
    uniforms with each exact zero redrawn, then one uniform integer in
    [0, k) for each event k = 1..n-1."""
    u = rng.random(n)
    while not u.all():
        zero = u == 0.0
        u[zero] = rng.random(int(zero.sum()))
    splits = np.array([rng.integers(0, k) for k in range(1, n)], dtype=np.int64)
    return u, splits


def _replay(splits) -> tuple[list[int], dict[int, int], dict[int, int]]:
    """Returns (final alive ids, parent id map, id -> event where it split)."""
    n = len(splits) + 1
    alive = [0] * n
    parent: dict[int, int] = {}
    split_event: dict[int, int] = {}
    for k in range(1, n):
        j = int(splits[k - 1])
        pid = alive[j]
        split_event[pid] = k
        parent[2 * k - 1] = pid
        parent[2 * k] = pid
        alive[j] = 2 * k - 1
        alive[k] = 2 * k
    return alive, parent, split_event


def _ancestor_chains(splits) -> tuple[list[list[int]], dict[int, int]]:
    alive, parent, split_event = _replay(splits)
    chains = []
    for lineage in alive:
        chain = [lineage]
        while chain[-1] != 0:
            chain.append(parent[chain[-1]])
        chains.append(chain)
    return chains, split_event


def daughter_counts_by_chains(splits) -> np.ndarray:
    """Daughter tip counts of one tree from its splits: every lineage id is
    counted once per tip whose ancestor chain passes through it."""
    n = len(splits) + 1
    chains, _ = _ancestor_chains(splits)
    hits = Counter(node for chain in chains for node in chain)
    return np.array([[hits[2 * k - 1], hits[2 * k]] for k in range(1, n)],
                    dtype=np.int64).reshape(n - 1, 2)


def mrca_pair_ages(block) -> np.ndarray:
    """Pairwise coalescence ages of the block's first tree, found by walking
    ancestor chains upward."""
    n = block.n
    chains, split_event = _ancestor_chains(block.splits[0])
    chain_sets = [set(c) for c in chains]
    ages = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            for node in chains[j]:
                if node in chain_sets[i]:
                    k = split_event[node]
                    ages[i, j] = ages[j, i] = block.coalescence_ages[0, k - 1]
                    break
            else:
                raise AssertionError("no common ancestor found")
    return ages


def cov_matrix_cond_var(block, params, flags=None, variances=None) -> float:
    """Conditional variance of the tip average of the block's first tree via
    the dense conditional covariance matrix of the normalized tips; flags
    (1, n-1, 2) and variances (n-1,) fold in jumps."""
    n = block.n
    a = params.alpha
    height_term = math.exp(-2.0 * a * float(block.times[0].sum()))
    cov = np.exp(-2.0 * a * mrca_pair_ages(block)) - height_term
    np.fill_diagonal(cov, 1.0 - height_term)
    if flags is not None:
        chains, split_event = _ancestor_chains(block.splits[0])
        for k in range(1, n):
            for slot, daughter in enumerate((2 * k - 1, 2 * k)):
                if not flags[0, k - 1, slot]:
                    continue
                tips = [i for i, chain in enumerate(chains) if daughter in chain]
                add = (2.0 * a / params.sigma_a2) * variances[k - 1] \
                    * math.exp(-2.0 * a * block.coalescence_ages[0, k - 1])
                for i in tips:
                    for j in tips:
                        cov[i, j] += add
    return float(cov.sum()) / (n * n)


# ---------------------------------------------------------------------------
# Wasserstein statistic and its bootstrap error by level curves: a quantile
# for every empirical-CDF level and a sort and CDF pass for every resample

def _dw_level_curves(r: int) -> tuple[np.ndarray, np.ndarray]:
    """Empirical-CDF levels (i/R, i = 1..R-1) and the normal quantile at
    each."""
    levels = np.arange(1, r, dtype=np.float64) / r
    zc = np.fromiter((special.std_normal_quantile(c) for c in levels),
                     dtype=np.float64, count=r - 1)
    return levels, zc


def _normal_cdf_antiderivative(x: np.ndarray) -> np.ndarray:
    # integral of the normal CDF: z Phi(z) + phi(z), vanishing at -infinity
    inv_sqrt_2pi = 1.0 / math.sqrt(2.0 * math.pi)
    return x * special.std_normal_cdf_array(x) + inv_sqrt_2pi * np.exp(-0.5 * x * x)


def _dw_level_sorted(x: np.ndarray, levels: np.ndarray, zc: np.ndarray) -> float:
    """L1 distance between the empirical CDF of sorted x and the normal CDF,
    each segment classified by where the quantile of its level falls."""
    g = _normal_cdf_antiderivative(x)
    total = g[0] + (g[-1] - x[-1])
    if len(x) > 1:
        a, b = x[:-1], x[1:]
        ga, gb = g[:-1], g[1:]
        da = ga - levels * a
        db = gb - levels * b
        dz = _normal_cdf_antiderivative(zc) - levels * zc
        seg = np.where(zc <= a, db - da,
                       np.where(zc >= b, da - db, da + db - 2.0 * dz))
        total += float(np.sum(seg))
    return float(total)


def dw_by_level_curves(samples) -> float:
    x = np.sort(np.asarray(samples, dtype=np.float64).ravel())
    return _dw_level_sorted(x, *_dw_level_curves(len(x)))


def bootstrap_dw_se_by_resorting(z: np.ndarray, seed: int, resamples: int = 32) -> float:
    """Bootstrap error of the Wasserstein statistic: each resample drawn
    from spawn key (R, 1), sorted and scored from scratch."""
    z = np.asarray(z, dtype=np.float64)
    r = len(z)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(r, 1))
    rng = np.random.Generator(np.random.PCG64(ss))
    levels, zc = _dw_level_curves(r)
    values = np.empty(resamples)
    for b in range(resamples):
        resample = np.sort(z[rng.integers(0, r, size=r)])
        values[b] = _dw_level_sorted(resample, levels, zc)
    return float(np.std(values, ddof=1))
