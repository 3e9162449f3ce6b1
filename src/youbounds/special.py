"""Special functions shared by the analytic and Monte Carlo layers.

Everything here is a pure function of its arguments. Accuracy targets are
stated per function; they are what the bound formulas downstream need, not
what the underlying libm happens to deliver. The normal CDF takes arrays
and the quantile floats or arrays; their exp, log and erfc are libm's,
called per element, so a value does not depend on how its argument is
batched.

harmonic's direct sum is pinned to the last bit, so its summation order is
part of its value: 1e6-term chunks added left to right, each summed in
NumPy's own pairwise order. It reproduces that order over a range of k
without building the range, from one leaf-sized work buffer kept for the
process.
"""

from __future__ import annotations

import functools
import math

import numpy as np

EULER_GAMMA = 0.5772156649015328606

# pochhammer_ratio multiplies its terms one by one up to n = 64; _log1p_sum
# adds them up to k = 64 and takes the rest as one Stirling difference
_DIRECT_MAX_K = 64

# direct summation limit for harmonic numbers
_HARMONIC_DIRECT_MAX_N = 10**7
# terms per chunk of the direct sum, and the longest piece of a chunk that
# is summed as one array
_HARMONIC_CHUNK = 10**6
_HARMONIC_LEAF = 1 << 16

# elements per math.erfc pass of std_normal_cdf_array
_CDF_CHUNK = 8192

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def pochhammer_ratio(n: int, x: float) -> float:
    """The factorial-over-rising-factorial ratio n! / ((x+1)(x+2)...(x+n)).

    Equals Gamma(n+1)Gamma(x+1)/Gamma(n+x+1). For a Yule tree this is the
    Laplace transform of the tree height at argument x, which is why it shows
    up in every closed-form moment in this package. Computed as the literal
    product for n <= 64 and as exp(-_log1p_sum(n, x, 1)) above that, a few
    ulps from exact at every n (tested up to n = 1e7).
    """
    if n < 1 or int(n) != n:
        raise ValueError(f"pochhammer_ratio requires an integer n >= 1, got {n}")
    if not x > -1.0:
        raise ValueError(f"pochhammer_ratio requires x > -1, got {x}")
    n = int(n)
    if n > _DIRECT_MAX_K:
        return math.exp(-_log1p_sum(n, x, 1))
    out = 1.0
    for k in range(1, n + 1):
        out *= k / (k + x)
    return out


@functools.lru_cache(maxsize=1024)
def _log1p_sum(n: int, x: float, k0: int) -> float:
    """sum_{k=k0..n} log1p(x/k) for integers 1 <= k0 <= 64, x > -k0: terms up
    to k = 64 directly (cached: bound curves ask for them at every n), then
    lgamma(n+1+x) - lgamma(n+1) - lgamma(65+x) + lgamma(65) by Stirling with
    each (z+x)^-m - z^-m as z^-m expm1(-m log1p(x/z)), first omitted term
    below 1e-16 x. Every piece is proportional to x, so its error grows with
    x/n; above x = 16 n the sum steps along k instead.

    There the m = n + 1 - k0 terms are m ln z - (lgamma(n+1) - lgamma(k0))
    plus lgamma(z+m) - lgamma(z) - m ln z = (z + m - 0.5) log1p(m/z) - m
    + (1/(z+m) - 1/z)/12 by Stirling along k from z = x + k0, whose next
    terms are below 1e-17 of the sum. With z above 16 n, ln z exceeds ln n,
    so the subtraction keeps its digits, and the last bracket is small."""
    if n <= _DIRECT_MAX_K:
        return math.fsum([math.log1p(x / k) for k in range(k0, n + 1)])
    if x > 16.0 * n:
        m, z = n + 1.0 - k0, x + k0
        return (m * math.log(z) - (math.lgamma(n + 1.0) - math.lgamma(k0))
                + ((z + m - 0.5) * math.log1p(m / z) - m + (1.0 / (z + m) - 1.0 / z) / 12.0))
    first = _DIRECT_MAX_K + 1.0
    total = _log1p_sum(_DIRECT_MAX_K, x, k0)
    for z, sign in ((n + 1.0, 1.0), (first, -1.0)):
        t, s2 = math.log1p(x / z), z ** -2
        series = math.expm1(-t) / 12.0 - s2 * (math.expm1(-3.0 * t) / 360.0
                                               - s2 * math.expm1(-5.0 * t) / 1260.0)
        total += sign * ((z + x - 0.5) * t + series / z)
    return total + x * math.log1p((n + 1.0 - first) / first)


@functools.lru_cache(maxsize=1)
def harmonic(n: int) -> float:
    """Partial sum 1 + 1/2 + ... + 1/n.

    Direct summation up to n = 1e7: chunks of 1e6 terms added left to
    right, each chunk the value of np.sum(1.0 / np.arange(start, stop + 1)).
    The chunk edges and NumPy's pairwise split of each chunk fix the
    rounding, so both are part of the value: any other order moves H_n,
    and every bound at the critical rate, by ulps. _reciprocal_sum keeps
    that order without the two 8 MB arrays per chunk. Beyond 1e7 the standard
    asymptotic expansion ln n + gamma + 1/(2n) - 1/(12 n^2) + 1/(120 n^4)
    is used, whose error is O(n^-6) and therefore far below float64
    resolution in that range.

    The last value is cached: at alpha = 1/2 a YOUj bound point asks for
    H_n twice, from the pair-time transform and the jump pair sum. One
    entry carries nothing from one tip count to the next.
    """
    if n < 1 or int(n) != n:
        raise ValueError(f"harmonic requires an integer n >= 1, got {n}")
    n = int(n)
    if n <= _HARMONIC_DIRECT_MAX_N:
        total = 0.0
        for start in range(1, n + 1, _HARMONIC_CHUNK):
            total += _reciprocal_sum(start, min(_HARMONIC_CHUNK, n + 1 - start))
        return total
    inv = 1.0 / n
    inv2 = inv * inv
    return math.log(n) + EULER_GAMMA + 0.5 * inv - inv2 / 12.0 + inv2 * inv2 / 120.0


def _reciprocal_sum(start: int, m: int) -> float:
    """np.sum(1.0 / np.arange(start, start + m)), bit for bit, without the
    arrays. NumPy's pairwise sum splits a length m at m//2 - (m//2) % 8
    and adds the halves' sums; the same split is made here until a piece
    fits one leaf, which np.sum then sums itself in the kept buffer."""
    if m > _HARMONIC_LEAF:
        half = m // 2 - (m // 2) % 8
        return _reciprocal_sum(start, half) + _reciprocal_sum(start + half, m - half)
    offsets, work = _harmonic_leaf_arrays()
    leaf = work[:m]
    np.add(offsets[:m], start, out=leaf)
    np.divide(1.0, leaf, out=leaf)
    return float(np.sum(leaf))


@functools.cache
def _harmonic_leaf_arrays() -> tuple[np.ndarray, np.ndarray]:
    """The offsets 0, 1, ..., _HARMONIC_LEAF - 1 and a work buffer of the
    same length, made by the first direct sum and reused by every later
    one, so that no leaf takes fresh pages. Every caller in a process
    shares them, so two threads must not sum at once; the package's
    workers are processes."""
    return np.arange(_HARMONIC_LEAF, dtype=np.float64), np.empty(_HARMONIC_LEAF)


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


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """fn (a math module function) on every element of the 1-D float array
    x, as a new array: libm's value for each element, where numpy's own
    vector exp and log can differ from it in the last place."""
    return np.fromiter(map(fn, x.tolist()), dtype=np.float64, count=x.size)


def std_normal_cdf_array(z: np.ndarray) -> np.ndarray:
    """Elementwise standard normal CDF for a float array, value for value
    0.5 * math.erfc(-z / sqrt(2)).

    math.erfc runs over the Python floats of one chunk of _CDF_CHUNK
    elements at a time, which bounds the boxed floats alive at once. This is
    the one path for Phi on arrays; std_normal_quantile's Newton steps use
    it too. A numpy-only erfc (Cody's rational approximations) is only about
    1.2 times faster on 2e5 sorted normals, rounds differently and would
    move every empirical dk and dw by ulps (ROADMAP item 6).
    """
    flat = np.asarray(z, dtype=np.float64).ravel()
    out = np.empty(flat.size)
    for start in range(0, flat.size, _CDF_CHUNK):
        chunk = flat[start:start + _CDF_CHUNK]
        out[start:start + chunk.size] = 0.5 * _libm(math.erfc, -chunk / _SQRT2)
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


def _horner(coefficients, t: np.ndarray) -> np.ndarray:
    out = coefficients[0] * t + coefficients[1]
    for c in coefficients[2:]:
        out = out * t + c
    return out


def _acklam(p: np.ndarray) -> np.ndarray:
    """Acklam's approximation on a 1-D array, region by region: the tail
    form within _ACKLAM_P_LOW of 0 or 1, the central form between."""
    x = np.empty(p.size)
    low, high = p < _ACKLAM_P_LOW, p > 1.0 - _ACKLAM_P_LOW
    mid = ~(low | high)
    q = p[mid] - 0.5
    r = q * q
    x[mid] = _horner(_ACKLAM_A, r) * q / _horner(_ACKLAM_B + (1.0,), r)
    for tail, sign, tail_p in ((low, 1.0, p), (high, -1.0, 1.0 - p)):
        if np.count_nonzero(tail):
            t = np.sqrt(-2.0 * _libm(math.log, tail_p[tail]))
            x[tail] = sign * _horner(_ACKLAM_C, t) / _horner(_ACKLAM_D + (1.0,), t)
    return x


def std_normal_quantile(p: float | np.ndarray) -> float | np.ndarray:
    """Inverse of std_normal_cdf_array on (0, 1), elementwise: a float for a
    float, an array of p's shape for an array.

    Acklam's rational initial guess plus two Newton corrections; an element
    whose density has fallen below 1e-280 takes no further correction. The
    round trip quantile(cdf(z)) recovers z to better than 1e-9 for
    -6 <= z <= 5.3. Above that the rounding of the CDF value near 1 already
    displaces the recoverable z by up to ulp(1)/pdf(z) (3.7e-8 at z = 6);
    that floor belongs to float64, not to this inverse, which agrees with
    reference implementations to ~1e-10 even there and is accurate to
    ~1e-12 on exactly supplied p in the bulk. exp and log are libm's, as in
    std_normal_cdf_array, so a value does not depend on how p is batched.
    """
    flat = np.asarray(p, dtype=np.float64).ravel()
    inside = (flat > 0.0) & (flat < 1.0)
    if not inside.all():
        raise ValueError(f"std_normal_quantile requires 0 < p < 1, got {flat[~inside][0]}")
    x = _acklam(flat)
    for _ in range(2):
        density = _INV_SQRT_2PI * _libm(math.exp, -0.5 * x * x)
        x -= np.divide(std_normal_cdf_array(x) - flat, density, out=np.zeros(x.size), where=density >= 1e-280)
    if np.ndim(p) == 0:
        return float(x[0])
    return x.reshape(np.shape(p))
