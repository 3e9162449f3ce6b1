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
import itertools
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


def _period_grid(nodes: int, lineages: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Tensor Gauss-Legendre rule over u_j = e^(-T_j) for the Yule periods
    T_j ~ Exp(j), j = 1..lineages: the weights, which carry the density
    j u^(j-1) of u_j on (0, 1), and the flattened u_1, ..., u_lineages. The
    tip-average moments are polynomials in the u_j at integer alpha."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    u = 0.5 * (x + 1.0)
    weights = functools.reduce(np.multiply.outer,
                               [0.5 * w * j * u ** (j - 1) for j in range(1, lineages + 1)])
    grids = np.meshgrid(*[u] * lineages, indexing="ij")
    return weights.ravel(), [g.ravel() for g in grids]


def you_three_tip_moments(alpha: float, nodes: int,
                          delta: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights, conditional means and conditional variances of the n = 3 YOU
    tip average. The two tips of the second split share T3, every other pair
    T2 + T3, so with E1 = (u2 u3)^(2 alpha), E2 = u3^(2 alpha) and
    G = (u1 u2 u3)^(2 alpha), V = 1/3 + (2/9)(2 E1 + E2) - G and
    M = delta (u1 u2 u3)^alpha."""
    weights, (u1, u2, u3) = _period_grid(nodes, 3)
    e1, e2 = (u2 * u3) ** (2.0 * alpha), u3 ** (2.0 * alpha)
    v = 1.0 / 3.0 + (2.0 / 9.0) * (2.0 * e1 + e2) - (u1 * u2 * u3) ** (2.0 * alpha)
    return weights, delta * (u1 * u2 * u3) ** alpha, v


def youj_pair_moments(alpha: float, p: float, lift: float, nodes: int,
                      delta: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights, conditional means and conditional variances of the n = 2
    YOUj tip average under a constant schedule: the f in {0, 1, 2} jump
    flags of the one event, with weights (1-p)^2, 2p(1-p) and p^2, each on
    the period rule. Each flag adds lift E1 / 4, where lift is
    (2 alpha / sigma_a2) sigma_c2, to V = 1/2 + E1/2 - G, with
    E1 = u2^(2 alpha) and G = (u1 u2)^(2 alpha); M = delta (u1 u2)^alpha.
    Flag counts of zero weight are left out."""
    weights, (u1, u2) = _period_grid(nodes, 2)
    e1, g = u2 ** (2.0 * alpha), (u1 * u2) ** (2.0 * alpha)
    flag_weights = ((1.0 - p) ** 2, 2.0 * p * (1.0 - p), p * p)
    flags = [(f, pf) for f, pf in enumerate(flag_weights) if pf > 0.0]
    return (np.concatenate([pf * weights for _, pf in flags]),
            np.tile(delta * (u1 * u2) ** alpha, len(flags)),
            np.concatenate([0.5 + 0.5 * e1 - g + f * lift * e1 / 4.0 for f, _ in flags]))


def mixture_distances(weights: np.ndarray, m: np.ndarray, v: np.ndarray,
                      variance: float | None = None) -> tuple[float, float]:
    """Kolmogorov and Wasserstein distances between the normal mixture with
    weights, means m and variances v, standardized by its mean mu and a
    target variance s^2, and N(0, 1): the distances of the mixture to
    N(mu, s^2), d_W in units of s. The target is `variance`, by default the
    mixture's own variance ev + ve; the sandwich's is ev. The gap |F - Phi|,
    with F(t) = E Phi((mu + t s - M) / sqrt(V)) from scipy's ndtr, is taken
    on 3201 points of [-8, 8]: d_K is its largest value there and d_W its
    trapezoid integral."""
    mu = float(weights @ m)
    if variance is None:
        variance = float(weights @ v) + float(weights @ (m - mu) ** 2)
    s = math.sqrt(variance)
    t = np.linspace(-8.0, 8.0, 3201)
    sd = np.sqrt(v)
    cdf = np.concatenate([scipy.special.ndtr(np.subtract.outer(mu + s * block, m) / sd) @ weights
                          for block in np.array_split(t, 32)])
    gap = np.abs(cdf - scipy.special.ndtr(t))
    return float(gap.max()), float(0.5 * np.sum((gap[1:] + gap[:-1]) * np.diff(t)))


# ---------------------------------------------------------------------------
# the variance of the conditional variance V (ROADMAP item 1, "The model")
#
# V = 1/n + (2/n^2) sum_k X_k E_k - G + w sum_k Y_k E_k over the events
# k = 1..n-1 (event k takes k lineages to k + 1), with X_k = L_k R_k and
# Y_k = f_k L_k^2 + g_k R_k^2 from its daughters' tip counts L_k, R_k and its
# two jump flags f_k, g_k ~ Bernoulli(p), E_k = e^(-2 alpha A_k) for the time
# A_k from event k to the tips, G = e^(-2 alpha H) and w = 2 alpha sigma_c2 /
# n^2 (sigma_a2 = 1). Times are independent of the topology and the flags.

def vv_exact(n: int, alpha: float, p: float = 0.0, sigma_c2: float = 0.0) -> float:
    """Var(V) of YOU (p = 0 or sigma_c2 = 0) or of YOUj under a constant
    schedule, sigma_a2 = 1, as an O(n^2) double sum over the events. Each
    covariance of two products is centred as Cov(topology) E[E E] +
    E[topology] E[topology] Cov(E, E), and every topology covariance of two
    different events is a factor of the earlier event times a factor of the
    later one. The time factors are products over the periods j > m, which
    hold j lineages: T2[m] = prod j/(j + 2 alpha), T4[m] the same at
    4 alpha and D[m] = log(T4[m] / T2[m]^2) = sum log1p(4 alpha^2 /
    (j (j + 4 alpha))); T4/T2 is taken as the exp of a log difference, so
    no ratio of underflowed products is formed. Index m = 0 is G."""
    j = np.arange(1.0, n + 1.0)

    def over_later_periods(terms):  # out[m] = sum of terms[j - 1] over j > m
        return np.cumsum(terms[::-1])[::-1]

    log_t2 = over_later_periods(-np.log1p(2.0 * alpha / j))
    log_t4 = over_later_periods(-np.log1p(4.0 * alpha / j))
    d = over_later_periods(np.log1p(4.0 * alpha * alpha / (j * (j + 4.0 * alpha))))
    m = np.arange(n)
    lo, hi = np.minimum.outer(m, m), np.maximum.outer(m, m)
    ee = np.exp(log_t2[lo] + log_t4[hi] - log_t2[hi])
    cov_e = np.exp(log_t2[lo] + log_t2[hi]) * np.expm1(d[hi])

    k = np.arange(1.0, n)
    nf = float(n)
    a = 1.0 / ((k + 1.0) * (k + 2.0))
    q4 = (k + 1.0) * (k + 2.0) * (k + 3.0) * (k + 4.0)
    mean_x, mean_s = nf * (nf + 1.0) * a, 2.0 * nf * (2.0 * nf - k) * a
    x2 = nf * (nf + 1.0) * (k * k - 4.0 * k * nf - k + 4.0 * nf * nf + 4.0 * nf + 4.0) / q4
    quartic = 2.0 * nf * (2.0 * nf - k) * (12.0 * nf * nf - 12.0 * k * nf + k * k - 5.0 * k) / q4
    xs = 2.0 * nf * (nf + 1.0) * (6.0 * nf * nf + 6.0 * nf - 6.0 * k * nf + k * k - 5.0 * k) / q4
    # factors of the later event l, and the earlier event's a(k) or k a(k)
    b = (k - nf + 1.0) * nf * (nf + 1.0) / q4
    upper = np.triu(np.ones((n - 1, n - 1)), 1)
    cov_xx = np.outer(a, -2.0 * (k - 3.0 * nf - 2.0) * b) * upper
    cov_ss = np.outer(k * a, 24.0 * (k - 2.0 * nf) * b) * upper
    cov_xs = (np.outer(a, -12.0 * (k - 2.0 * nf) * b) * upper
              + (np.outer(k * a, 4.0 * (k - 3.0 * nf - 2.0) * b) * upper).T)
    cov_xx += cov_xx.T + np.diag(x2 - mean_x * mean_x)
    cov_ss += cov_ss.T
    cov_xs += np.diag(xs - mean_x * mean_s)

    def cov_of_sums(cov, mean_left, mean_right):
        return float(np.sum(cov * ee[1:, 1:] + np.outer(mean_left, mean_right) * cov_e[1:, 1:]))

    g_row = cov_e[0, 1:]
    vv = (4.0 / nf ** 4 * cov_of_sums(cov_xx, mean_x, mean_x)
          - 4.0 / nf ** 2 * float(mean_x @ g_row) + cov_e[0, 0])
    w = 2.0 * alpha * sigma_c2 / (nf * nf)
    mean_y = p * mean_s
    # different flags are independent: p^2 S_k S_l, and p (L^4 + R^4) +
    # 2 p^2 X^2 for the same event
    cov_yy = p * p * cov_ss + np.diag(p * quartic + 2.0 * p * p * x2 - mean_y * mean_y)
    var_j = cov_of_sums(cov_yy, mean_y, mean_y)
    cov_qj = cov_of_sums(p * cov_xs, mean_x, mean_y)
    return vv + w * w * var_j + 2.0 * w * (2.0 / nf ** 2 * cov_qj - float(mean_y @ g_row))


def vv_by_enumeration(n: int, alpha, p=0, sigma_c2=0) -> Fraction:
    """Var(V) in exact arithmetic, for rates where every time moment is
    rational (2 alpha an integer). The topology moments are integer sums
    over all (n - 1)! split sequences, each of probability 1/(n - 1)!, of
    the daughter counts that `daughter_counts_by_chains` replays. Given the
    topology, V is 1/n plus a sum of c_m E_m with E_0 = G, and E[V^2] sums
    the flag moments of c_a c_b times E[E_a E_b], which for a <= b is the
    product over the periods j > a of j/(j + 2 alpha), or j/(j + 4 alpha)
    for j > b."""
    alpha, p = Fraction(alpha), Fraction(p)
    q, w = Fraction(2, n * n), 2 * alpha * Fraction(sigma_c2) / (n * n)

    def period_product(lo, hi):
        value = Fraction(1)
        for j in range(lo + 1, n + 1):
            value *= j / (j + (2 if j <= hi else 4) * alpha)
        return value

    t2 = [period_product(m, n) for m in range(n)]
    ee = [[period_product(min(a, b), max(a, b)) for b in range(n)] for a in range(n)]
    events = range(n - 1)
    sequences = list(itertools.product(*[range(k) for k in range(1, n)]))
    sx, ss, sq = [0] * (n - 1), [0] * (n - 1), [0] * (n - 1)
    sxx, sxs, sss = ([[0] * (n - 1) for _ in events] for _ in range(3))
    for splits in sequences:
        counts = daughter_counts_by_chains(np.array(splits, dtype=np.int64)).tolist()
        x = [left * right for left, right in counts]
        s = [left * left + right * right for left, right in counts]
        for i in events:
            sx[i] += x[i]
            ss[i] += s[i]
            sq[i] += counts[i][0] ** 4 + counts[i][1] ** 4
            for t in events:
                sxx[i][t] += x[i] * x[t]
                sxs[i][t] += x[i] * s[t]
                sss[i][t] += s[i] * s[t]
    total = len(sequences)
    # flag moments: E f = p, E f g = p^2 for two different flags, E f^2 = p;
    # c_0 = -1 is not random, so row and column 0 are products of means
    mean_c = [Fraction(-1)] + [(q * sx[i] + w * p * ss[i]) / total for i in events]
    second = [[mean_c[a] * mean_c[b] for b in range(n)] for a in range(n)]
    for i in events:
        for t in events:
            value = q * q * sxx[i][t]
            if i == t:
                value += 2 * q * w * p * sxs[i][i] + w * w * (p * sq[i] + 2 * p * p * sxx[i][i])
            else:
                value += q * w * p * (sxs[i][t] + sxs[t][i]) + w * w * p * p * sss[i][t]
            second[i + 1][t + 1] = value / total
    mean_sum = sum((mean_c[a] * t2[a] for a in range(n)), Fraction(0))
    second_moment = (Fraction(1, n * n) + Fraction(2, n) * mean_sum
                     + sum((second[a][b] * ee[a][b] for a in range(n) for b in range(n)),
                           Fraction(0)))
    return second_moment - (Fraction(1, n) + mean_sum) ** 2


_EVENT_BLOCK = 4096


def vv_exact_linear(n: int, alpha: float, p: float = 0.0, sigma_c2: float = 0.0) -> float:
    """`vv_exact` as an O(n) sum, sigma_a2 = 1. Every covariance of two
    different events k < l is a factor of k times a factor of l, in the
    topology (a(k) or k a(k), with a(k) = 1/((k+1)(k+2))) and in the times
    (E[E_k E_l] = T2[k] T4[l]/T2[l], Cov(E_k, E_l) = T2[k] T2[l]
    expm1(D[l])), so each double sum over k < l is one pass over l against
    the prefix sums P0(l) = sum_{k<l} a(k) T2[k] and P1(l) = sum_{k<l}
    k a(k) T2[k]. The sums are the ones that do not depend on p, and the
    coefficients of p and p^2, kept per (n, alpha)."""
    vv, var_j1, var_j2, cov_qj1, cov_gj1 = _vv_linear_pieces(int(n), float(alpha))
    nf = float(n)
    w = 2.0 * alpha * sigma_c2 / (nf * nf)
    return vv + w * w * (p * var_j1 + p * p * var_j2) + 2.0 * w * p * (
        2.0 / nf ** 2 * cov_qj1 - cov_gj1)


@functools.lru_cache(maxsize=256)
def _vv_linear_pieces(n: int, alpha: float) -> tuple[float, float, float, float, float]:
    """(Var(V) without jumps, the p and p^2 coefficients of Var(J), and the
    p coefficients of Cov(Q, J) and Cov(G, J)), with J = sum_k Y_k E_k and
    Q = sum_k X_k E_k. The time factors and the prefix sums take one pass;
    the sums over the events run over blocks of _EVENT_BLOCK events, whose
    temporaries stay small."""
    j = np.arange(1.0, n + 1.0)

    def over_later_periods(terms):  # out[m] = sum of terms[j - 1] over j > m
        return np.cumsum(terms[::-1])[::-1]

    def over_earlier_events(terms):  # out[l] = sum of terms[k] over k < l
        out = np.zeros_like(terms)
        np.cumsum(terms[:-1], out=out[1:])
        return out

    log_t2 = over_later_periods(-np.log1p(2.0 * alpha / j))
    log_t4 = over_later_periods(-np.log1p(4.0 * alpha / j))
    d = over_later_periods(np.log1p(4.0 * alpha * alpha / (j * (j + 4.0 * alpha))))
    cov_g = np.exp(log_t2[0] + log_t2) * np.expm1(d)  # Cov(E_m, G); m = 0 is Var(G)
    # per event k = 1..n-1: T2[k], T4[k] / T2[k] and T2[k] expm1(D[k])
    t2 = np.exp(log_t2[1:])
    ratio = np.exp(log_t4[1:] - log_t2[1:])
    cov_e = t2 * np.expm1(d[1:])
    k = np.arange(1.0, n)
    a = 1.0 / ((k + 1.0) * (k + 2.0))
    p0, p1 = over_earlier_events(a * t2), over_earlier_events(k * a * t2)
    sums = np.zeros(6)
    for lo in range(0, n - 1, _EVENT_BLOCK):
        block = slice(lo, lo + _EVENT_BLOCK)
        sums += _event_sums(float(n), k[block], t2[block], ratio[block], cov_e[block],
                            cov_g[1:][block], p0[block], p1[block])
    var_q, cov_qg, var_j1, var_j2, cov_qj1, cov_gj1 = sums
    vv = 4.0 / n ** 4 * var_q - 4.0 / n ** 2 * cov_qg + cov_g[0]
    return vv, var_j1, var_j2, cov_qj1, cov_gj1


def _event_sums(nf, k, t2, ratio, cov_e, cov_g, p0, p1) -> np.ndarray:
    """Over the events k given, the sums behind Var(Q), Cov(Q, G), the p and
    p^2 coefficients of Var(J), and the p coefficients of Cov(Q, J) and
    Cov(G, J), each double sum over k < l taken at the later event l against
    the prefix sums p0 and p1."""
    a = 1.0 / ((k + 1.0) * (k + 2.0))
    q4 = (k + 1.0) * (k + 2.0) * (k + 3.0) * (k + 4.0)
    mean_x, mean_s = nf * (nf + 1.0) * a, 2.0 * nf * (2.0 * nf - k) * a
    x2 = nf * (nf + 1.0) * (k * k - 4.0 * k * nf - k + 4.0 * nf * nf + 4.0 * nf + 4.0) / q4
    quartic = 2.0 * nf * (2.0 * nf - k) * (12.0 * nf * nf - 12.0 * k * nf + k * k - 5.0 * k) / q4
    xs = 2.0 * nf * (nf + 1.0) * (6.0 * nf * nf + 6.0 * nf - 6.0 * k * nf + k * k - 5.0 * k) / q4
    # the later event's factors of Cov(X_k, X_l), Cov(S_k, S_l), Cov(X_k, S_l)
    # and Cov(S_k, X_l), k < l
    b = (k - nf + 1.0) * nf * (nf + 1.0) / q4
    g_xx, g_ss = -2.0 * (k - 3.0 * nf - 2.0) * b, 24.0 * (k - 2.0 * nf) * b
    g_xs, g_sx = -12.0 * (k - 2.0 * nf) * b, 4.0 * (k - 3.0 * nf - 2.0) * b
    # sum over k < l of E[X_k] T2[k] and E[S_k] T2[k]
    mean_x_before, mean_s_before = nf * (nf + 1.0) * p0, 2.0 * nf * (2.0 * nf * p0 - p1)
    ee_same, cov_e_same = t2 * ratio, t2 * cov_e

    def same_event(cov, mean_left, mean_right):
        return cov * ee_same + mean_left * mean_right * cov_e_same

    def earlier_later(g, prefix, mean_before, mean_later):
        return g * ratio * prefix + mean_later * cov_e * mean_before

    # Cov(Y_k, Y_l) is p^2 Cov(S_k, S_l) for k != l, and p (L^4 + R^4) +
    # 2 p^2 X^2 - p^2 E[S]^2 for k = l; E[Y_k] = p E[S_k]
    return np.array([
        np.sum(same_event(x2 - mean_x * mean_x, mean_x, mean_x)
               + 2.0 * earlier_later(g_xx, p0, mean_x_before, mean_x)),
        mean_x @ cov_g,
        quartic @ ee_same,
        np.sum(same_event(2.0 * x2 - mean_s * mean_s, mean_s, mean_s)
               + 2.0 * earlier_later(g_ss, p1, mean_s_before, mean_s)),
        np.sum(same_event(xs - mean_x * mean_s, mean_x, mean_s)
               + earlier_later(g_xs, p0, mean_x_before, mean_s)
               + earlier_later(g_sx, p1, mean_s_before, mean_x)),
        mean_s @ cov_g,
    ])

