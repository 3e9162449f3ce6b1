"""Scalar special functions shared by the analytic and Monte Carlo layers.

Everything here is a pure function of its arguments. Accuracy targets are
stated per function; they are what the bound formulas downstream need, not
what the underlying libm happens to deliver.
"""

from __future__ import annotations

import math

import numpy as np

EULER_GAMMA = 0.5772156649015328606

# crossover between the direct product and the log-gamma form of
# pochhammer_ratio; products are cheap and nearly exact for small n
_PRODUCT_MAX_N = 64

# direct summation limit for harmonic numbers
_HARMONIC_DIRECT_MAX_N = 10**7

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def pochhammer_ratio(n: int, x: float) -> float:
    """The factorial-over-rising-factorial ratio n! / ((x+1)(x+2)...(x+n)).

    Equals Gamma(n+1)Gamma(x+1)/Gamma(n+x+1). For a Yule tree this is the
    Laplace transform of the tree height at argument x, which is why it shows
    up in every closed-form moment in this package. Computed as the literal
    product for n <= 64 and through log-gamma above that; the two routes agree
    to 1e-10 relative (tested).
    """
    if n < 1 or int(n) != n:
        raise ValueError(f"pochhammer_ratio requires an integer n >= 1, got {n}")
    if x <= -1.0:
        raise ValueError(f"pochhammer_ratio requires x > -1, got {x}")
    n = int(n)
    if n <= _PRODUCT_MAX_N:
        out = 1.0
        for k in range(1, n + 1):
            out *= k / (k + x)
        return out
    return math.exp(math.lgamma(n + 1.0) + math.lgamma(x + 1.0) - math.lgamma(n + x + 1.0))


def harmonic(n: int) -> float:
    """Partial sum 1 + 1/2 + ... + 1/n.

    Direct (pairwise, chunked) summation up to n = 1e7; beyond that the
    standard asymptotic expansion ln n + gamma + 1/(2n) - 1/(12 n^2) +
    1/(120 n^4) is used, whose error is O(n^-6) and therefore far below
    float64 resolution in that range.
    """
    if n < 1 or int(n) != n:
        raise ValueError(f"harmonic requires an integer n >= 1, got {n}")
    n = int(n)
    if n <= _HARMONIC_DIRECT_MAX_N:
        total = 0.0
        chunk = 1_000_000
        for start in range(1, n + 1, chunk):
            stop = min(n, start + chunk - 1)
            total += float(np.sum(1.0 / np.arange(start, stop + 1, dtype=np.float64)))
        return total
    inv = 1.0 / n
    inv2 = inv * inv
    return math.log(n) + EULER_GAMMA + 0.5 * inv - inv2 / 12.0 + inv2 * inv2 / 120.0


def zeta(r: float) -> float:
    """Riemann zeta at real r > 1 by Euler-Maclaurin corrected partial sums.

    zeta(r) = sum_{k<N} k^-r + N^(1-r)/(r-1) + N^-r/2 + r N^(-r-1)/12
              - r(r+1)(r+2) N^(-r-3)/720
    with N = 1000. The first omitted correction is of order N^(-r-5), which
    for r > 1 is below 1e-19; comfortably inside the 1e-10 target.
    """
    if r <= 1.0:
        raise ValueError(f"zeta requires r > 1, got {r}")
    big_n = 1000
    k = np.arange(1, big_n, dtype=np.float64)
    partial = float(np.sum(k ** (-r)))
    tail = big_n ** (1.0 - r) / (r - 1.0)
    half = 0.5 * big_n ** (-r)
    bern1 = r * big_n ** (-r - 1.0) / 12.0
    bern2 = r * (r + 1.0) * (r + 2.0) * big_n ** (-r - 3.0) / 720.0
    return partial + tail + half + bern1 - bern2


def std_normal_pdf(z: float) -> float:
    """Standard normal density."""
    return _INV_SQRT_2PI * math.exp(-0.5 * z * z)


def std_normal_cdf(z: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-z / _SQRT2)


def std_normal_cdf_array(z: np.ndarray) -> np.ndarray:
    """Elementwise standard normal CDF for a float array.

    Delegates to math.erfc per element so the accuracy matches the scalar
    path exactly; the loop cost is acceptable at the sample sizes the Monte
    Carlo harness uses.
    """
    flat = np.asarray(z, dtype=np.float64).ravel()
    out = np.fromiter((0.5 * math.erfc(-v / _SQRT2) for v in flat), dtype=np.float64, count=flat.size)
    return out.reshape(np.shape(z))


# Acklam's rational approximation to the normal quantile (central region and
# tails), refined below by Newton steps. Max error of the raw approximation is
# about 1.15e-9, so two Newton iterations land at float64 precision.
_ACKLAM_A = (
    -3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
    1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00,
)
_ACKLAM_B = (
    -5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
    6.680131188771972e+01, -1.328068155288572e+01,
)
_ACKLAM_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
    -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00,
)
_ACKLAM_D = (
    7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
    3.754408661907416e+00,
)
_ACKLAM_P_LOW = 0.02425


def _acklam(p: float) -> float:
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    if p < _ACKLAM_P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if p > 1.0 - _ACKLAM_P_LOW:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)


def std_normal_quantile(p: float) -> float:
    """Inverse of std_normal_cdf on (0, 1).

    Acklam's rational initial guess plus two Newton corrections. The round
    trip quantile(cdf(z)) recovers z to better than 1e-9 for -6 <= z <= 5.3.
    Above that the rounding of the CDF value near 1 already displaces the
    recoverable z by up to ulp(1)/pdf(z) (3.7e-8 at z = 6); that floor
    belongs to float64, not to this inverse, which agrees with reference
    implementations to ~1e-10 even there and is accurate to ~1e-12 on
    exactly supplied p in the bulk.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"std_normal_quantile requires 0 < p < 1, got {p}")
    x = _acklam(p)
    for _ in range(2):
        density = std_normal_pdf(x)
        if density < 1e-280:
            break
        x -= (std_normal_cdf(x) - p) / density
    return x
