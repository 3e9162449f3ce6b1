"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports the package under test. The closed forms are derived
from the model itself (Yule tree, stationary-scaled OU trait, Bernoulli
jumps on daughter lineages) by a route other than the package's: exact
O(n) sums over speciation events instead of its rational and harmonic
forms. The empirical distances use scipy's normal CDF and quantile, and the
Wasserstein distance is integrated in quantile space rather than over the
sample's CDF segments.

Model facts used throughout, for an n-tip pure-birth tree with unit rate:
the period with j lineages lasts Exp(j), j = 1..n (the stem is j = 1), so
E exp(-y * sum_{j >= k} T_j) = prod_{j >= k} j / (j + y). The ranked shape
is independent of the durations. Read backward, a fixed tip pair is still
apart when k lineages remain with probability (k-1)(n+1) / ((n-1)(k+1)) and
merges at that step with probability 2(n+1) / ((n-1) k (k+1)). Just after
the event that takes k lineages to K = k+1, the n tips are split over the K
lineages uniformly among compositions of n into K positive parts.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def height_laplace(n: int, x: float) -> float:
    """E exp(-x * height) = Gamma(n+1) Gamma(x+1) / Gamma(n+x+1)."""
    return math.exp(math.lgamma(n + 1.0) + math.lgamma(x + 1.0) - math.lgamma(n + x + 1.0))


def _tail_transforms(n: int, y: float) -> np.ndarray:
    """out[k] = prod_{j=k}^{n} j / (j + y) for k = 1..n; out[0] is unused
    and out[n + 1] = 1 (the empty product)."""
    j = np.arange(1, n + 1, dtype=np.float64)
    logs = np.log(j) - np.log(j + y)
    out = np.ones(n + 2)
    out[1:n + 1] = np.exp(np.cumsum(logs[::-1])[::-1])
    return out


def pair_time_laplace(n: int, y: float) -> float:
    """E exp(-y * coalescence time of a uniform tip pair), as a sum over
    the step at which the pair merges."""
    tail = _tail_transforms(n, y)
    k = np.arange(2, n + 1, dtype=np.float64)
    merge = 2.0 * (n + 1.0) / ((n - 1.0) * k * (k + 1.0))
    return float(np.dot(merge, tail[2:n + 1]))


def mean_cond_var_you(n: int, alpha: float) -> float:
    """Mean conditional variance of the normalized tip average, no jumps.

    Tip variance 1 - exp(-2 alpha H), pair covariance exp(-2 alpha tau) -
    exp(-2 alpha H), averaged over the n^2 entries of the covariance matrix.
    """
    tail = _tail_transforms(n, 2.0 * alpha)
    return 1.0 / n + (1.0 - 1.0 / n) * pair_time_laplace(n, 2.0 * alpha) - tail[1]


def mean_jump_variance(n: int, alpha: float, p: float, sigma_c2: float) -> float:
    """Mean conditional variance that the jumps add to the tip average, for
    unit diffusion variance.

    A jump on a daughter lineage with d descendant tips, at age a, adds
    2 alpha sigma_c2 exp(-2 alpha a) d^2 / n^2. For one of the K
    parts of a uniform composition of n, E d^2 = n^2/K^2 + n(n-K)(K-1)/(K^2(K+1)).
    """
    tail = _tail_transforms(n, 2.0 * alpha)
    k = np.arange(1, n, dtype=np.float64)
    big_k = k + 1.0
    d2 = n * n / big_k ** 2 + n * (n - big_k) * (big_k - 1.0) / (big_k ** 2 * (big_k + 1.0))
    slots = 2.0 * p * float(np.dot(d2, tail[2:n + 1]))
    return 2.0 * alpha * sigma_c2 * slots / (n * n)


def you_moments(n: int, alpha: float, delta: float, p: float = 0.0,
                sigma_c2: float = 0.0) -> dict[str, float]:
    """mean, ev (mean conditional variance) and ve (variance of the
    conditional mean) of the normalized tip average, for unit diffusion
    variance."""
    b1 = height_laplace(n, alpha)
    ev = mean_cond_var_you(n, alpha)
    if p * sigma_c2 > 0.0:
        ev += mean_jump_variance(n, alpha, p, sigma_c2)
    return {
        "mean": delta * b1,
        "ev": ev,
        "ve": delta * delta * (height_laplace(n, 2.0 * alpha) - b1 * b1),
    }


def variance_estimate_se(n: int, alpha: float, delta: float, r: int) -> float:
    """Exact standard error of the sample variance of r conditional means
    delta exp(-alpha H), from their first four raw moments delta^k B(k alpha):
    Var(s^2) = (mu4 - sigma^4 (r-3)/(r-1)) / r."""
    m1, m2, m3, m4 = (height_laplace(n, k * alpha) for k in (1, 2, 3, 4))
    var = m2 - m1 * m1
    mu4 = m4 - 4.0 * m3 * m1 + 6.0 * m2 * m1 * m1 - 3.0 * m1 ** 4
    return delta * delta * math.sqrt((mu4 - var * var * (r - 3.0) / (r - 1.0)) / r)


def sample_you_n2(r: int, alpha: float, delta: float,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """r exact draws of the two-tip model: conditional means, conditional
    variances and tip averages.

    T1 ~ Exp(1) is the stem, T2 ~ Exp(2) the period with both tips; the
    mean is delta exp(-alpha (T1+T2)) and the variance 1/2 + exp(-2 alpha
    T2)/2 - exp(-2 alpha (T1+T2)).
    """
    t1 = rng.exponential(1.0, r)
    t2 = rng.exponential(0.5, r)
    height = t1 + t2
    cond_mean = delta * np.exp(-alpha * height)
    cond_var = 0.5 + 0.5 * np.exp(-2.0 * alpha * t2) - np.exp(-2.0 * alpha * height)
    ybar = cond_mean + np.sqrt(cond_var) * rng.standard_normal(r)
    return cond_mean, cond_var, ybar


def dkw_band(r: int, delta: float) -> float:
    """Dvoretzky-Kiefer-Wolfowitz band: P(sup |F_R - F| > band) <= delta."""
    return math.sqrt(math.log(2.0 / delta) / (2.0 * r))


def empirical_dk(samples: np.ndarray) -> float:
    """sup_t |F_R(t) - Phi(t)|, taken at the jumps of F_R."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    r = len(x)
    cdf = sp.ndtr(x)
    i = np.arange(1, r + 1, dtype=np.float64)
    return float(max(np.max(i / r - cdf), np.max(cdf - (i - 1.0) / r)))


class QuantileW1:
    """Wasserstein-1 distance to N(0,1) of samples of one fixed size R.

    W1 = sum_i integral over u in ((i-1)/R, i/R) of |x_(i) - q(u)| du, with q
    the normal quantile. Substituting u = Phi(t) makes each piece an
    integral of |x - t| phi(t), whose antiderivative pieces are x Phi(t) +
    phi(t). The density at the R-1 interior quantiles depends on R alone and
    is computed once.
    """

    def __init__(self, r: int):
        self.r = r
        q = sp.ndtri(np.arange(1, r, dtype=np.float64) / r)
        self.lo = np.concatenate(([-np.inf], q))
        self.hi = np.concatenate((q, [np.inf]))
        dens = _INV_SQRT_2PI * np.exp(-0.5 * q * q)
        self.dens_lo = np.concatenate(([0.0], dens))
        self.dens_hi = np.concatenate((dens, [0.0]))

    def __call__(self, sorted_x: np.ndarray) -> float:
        x = sorted_x
        if len(x) != self.r:
            raise ValueError(f"expected {self.r} samples, got {len(x)}")
        r = self.r
        # x above its quantile cell: integral of (x - t) phi; below: of (t - x) phi
        whole = x / r + self.dens_hi - self.dens_lo
        above = x >= self.hi
        below = x <= self.lo
        inside = ~(above | below)
        total = float(np.sum(whole[above])) - float(np.sum(whole[below]))
        xi = x[inside]
        i = np.flatnonzero(inside) + 1.0
        split = (xi * (2.0 * sp.ndtr(xi) - (2.0 * i - 1.0) / r)
                 + 2.0 * _INV_SQRT_2PI * np.exp(-0.5 * xi * xi)
                 - self.dens_lo[inside] - self.dens_hi[inside])
        return total + float(np.sum(split))


def bootstrap_dw_se(z: np.ndarray, rng: np.random.Generator, resamples: int) -> tuple[float, float]:
    """Bootstrap standard deviation of W1 over `resamples` resamples of z,
    and the sample kurtosis of the resampled values."""
    w1 = QuantileW1(len(z))
    values = np.empty(resamples)
    for b in range(resamples):
        values[b] = w1(np.sort(z[rng.integers(0, len(z), size=len(z))]))
    centred = values - values.mean()
    kurtosis = float(np.mean(centred ** 4) / np.mean(centred ** 2) ** 2)
    return float(np.std(values, ddof=1)), kurtosis


def sd_ratio_interval(b1: int, b2: int, kurtosis: float,
                      false_alarm: float) -> tuple[float, float]:
    """Two-sided interval for s1 / s2, two independent standard deviations
    from b1 and b2 draws of the same law.

    For a normal law s1^2 / s2^2 ~ F(b1 - 1, b2 - 1). For kurtosis kappa the
    delta method gives Var(ln s^2) = kappa/b - (b-3)/(b(b-1)), which is
    2/(b-1) at kappa = 3; the F degrees of freedom are matched to it, with
    kappa floored at the normal value 3.
    """
    kappa = max(3.0, kurtosis)

    def dof(b: int) -> float:
        return 2.0 / (kappa / b - (b - 3.0) / (b * (b - 1.0)))

    lo = sp.fdtri(dof(b1), dof(b2), false_alarm / 2.0)
    hi = sp.fdtri(dof(b1), dof(b2), 1.0 - false_alarm / 2.0)
    return math.sqrt(lo), math.sqrt(hi)


def loglog_slope(ns, values) -> float:
    """Least-squares slope of ln(value) against ln(n)."""
    x = np.log(np.asarray(ns, dtype=np.float64))
    y = np.log(np.asarray(values, dtype=np.float64))
    return float(np.polyfit(x, y, 1)[0])
