"""Independent oracle implementations used by the tests.

Everything here is deliberately written along a different route than the
package code: series instead of erfc, ancestor-chain walks instead of
descendant counts, a quantile at every empirical-CDF level and a fresh sort
per bootstrap resample instead of crossing tests and rank counts. The
all-pairs tree matrices live in `youbounds.verify`, whose criterion 2 runs
them too.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import scipy.special

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


def harmonic_numpy_chunks(n: int) -> float:
    """H_n as the direct sum defines it, with every array built: 1e6-term
    chunks added left to right, each chunk np.sum of its reciprocals."""
    total = 0.0
    for start in range(1, n + 1, 1_000_000):
        total += _reciprocal_chunk_sum(start, min(n, start + 1_000_000 - 1))
    return total


@functools.cache
def _reciprocal_chunk_sum(start: int, stop: int) -> float:
    # cached so that many large n share their full chunks' sums
    return float(np.sum(1.0 / np.arange(start, stop + 1, dtype=np.float64)))


def _tail_products(n: int, y: Fraction) -> list[Fraction]:
    """out[k] = prod_{j=k..n} j / (j + y), the Laplace transform at y of the
    time from the event that leaves k lineages to the tips; out[n + 1] = 1."""
    out = [Fraction(1)] * (n + 2)
    for k in range(n, 0, -1):
        out[k] = out[k + 1] * k / (k + y)
    return out


def pair_laplace_fraction(n: int, y) -> Fraction:
    """Exact E exp(-y tau) for a uniform tip pair of an n-tip tree, summed
    over the step k at which the pair merges, probability
    2(n+1) / ((n-1) k (k+1))."""
    tail = _tail_products(n, Fraction(y))
    return sum((Fraction(2 * (n + 1), (n - 1) * k * (k + 1)) * tail[k]
                for k in range(2, n + 1)), Fraction(0))


def jump_pair_shared_fraction(n: int, alpha, p) -> Fraction:
    """Exact mean shared-pair jump exposure, summed over events: the event
    that makes K lineages gives each of its two daughter slots a part d of a
    uniform composition of n into K parts, with
    E d(d-1) = n^2/K^2 + n(n-K)(K-1) / (K^2 (K+1)) - n/K."""
    tail = _tail_products(n, 2 * Fraction(alpha))
    total = Fraction(0)
    for big_k in range(2, n + 1):
        d_pairs = (Fraction(n * n, big_k * big_k)
                   + Fraction(n * (n - big_k) * (big_k - 1), big_k * big_k * (big_k + 1))
                   - Fraction(n, big_k))
        total += d_pairs * tail[big_k]
    return 2 * Fraction(p) * total / (n * (n - 1))


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


def _ancestor_chains(splits) -> list[list[int]]:
    """The ancestor chain of every final lineage, from its id up to the
    root 0, by replaying the splits: event k replaces the split lineage
    with ids 2k - 1 (kept in its slot) and 2k (in slot k)."""
    n = len(splits) + 1
    alive = [0] * n
    parent: dict[int, int] = {}
    for k in range(1, n):
        j = int(splits[k - 1])
        parent[2 * k - 1] = parent[2 * k] = alive[j]
        alive[j] = 2 * k - 1
        alive[k] = 2 * k
    chains = []
    for lineage in alive:
        chain = [lineage]
        while chain[-1] != 0:
            chain.append(parent[chain[-1]])
        chains.append(chain)
    return chains


def daughter_counts_by_chains(splits) -> np.ndarray:
    """Daughter tip counts of one tree from its splits: every lineage id is
    counted once per tip whose ancestor chain passes through it."""
    n = len(splits) + 1
    chains = _ancestor_chains(splits)
    hits = Counter(node for chain in chains for node in chain)
    return np.array([[hits[2 * k - 1], hits[2 * k]] for k in range(1, n)],
                    dtype=np.int64).reshape(n - 1, 2)


# ---------------------------------------------------------------------------
# Wasserstein statistic and its bootstrap error by level curves: a quantile
# for every empirical-CDF level and a sort and CDF pass for every resample

def _dw_level_curves(r: int) -> tuple[np.ndarray, np.ndarray]:
    """Empirical-CDF levels (i/R, i = 1..R-1) and the normal quantile at
    each."""
    levels = np.arange(1, r, dtype=np.float64) / r
    return levels, special.std_normal_quantile(levels)


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


# ---------------------------------------------------------------------------
# exact distances of the two-tip YOU mixture by quadrature

def you_pair_moments(alpha: float, nodes: int,
                     delta: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights, conditional means and conditional variances of the n = 2 YOU
    tip average on a tensor Gauss-Legendre rule. The periods T1 ~ Exp(1) and
    T2 ~ Exp(2) make u1 = e^(-T1) and u2 = e^(-2 T2) uniform on (0, 1),
    M = delta e^(-alpha H) = delta u1^alpha u2^(alpha/2) and
    V = 1/2 + u2^alpha / 2 - u1^(2 alpha) u2^alpha."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    u, w = 0.5 * (x + 1.0), 0.5 * w
    u1, u2 = np.meshgrid(u, u, indexing="ij")
    m = delta * u1 ** alpha * u2 ** (0.5 * alpha)
    v = 0.5 + 0.5 * u2 ** alpha - u1 ** (2.0 * alpha) * u2 ** alpha
    return np.outer(w, w).ravel(), m.ravel(), v.ravel()


def mixture_distances(weights: np.ndarray, m: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """Kolmogorov and Wasserstein distances between the normal mixture with
    weights, means m and variances v, standardized by its mean mu and its
    variance ev + ve, and N(0, 1). The gap |F - Phi|, with
    F(t) = E Phi((mu + t sqrt(ev + ve) - M) / sqrt(V)) from scipy's ndtr, is
    taken on 3201 points of [-8, 8]: d_K is its largest value there and d_W
    its trapezoid integral."""
    mu = float(weights @ m)
    s = math.sqrt(float(weights @ v) + float(weights @ (m - mu) ** 2))
    t = np.linspace(-8.0, 8.0, 3201)
    sd = np.sqrt(v)
    cdf = np.concatenate([scipy.special.ndtr(np.subtract.outer(mu + s * block, m) / sd) @ weights
                          for block in np.array_split(t, 32)])
    gap = np.abs(cdf - scipy.special.ndtr(t))
    return float(gap.max()), float(0.5 * np.sum((gap[1:] + gap[:-1]) * np.diff(t)))
