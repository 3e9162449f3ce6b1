"""Scalar special functions against frozen values and independent oracles."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from youbounds import special
from youbounds.analytic import JumpSchedule, YouParams, bound_point

import oracles

# value frozen from an independent 1e8-term partial sum plus integral tail
ZETA_3_2 = 2.612375348685488

# sum_{k=k0..n} log1p(x/k) = lgamma(n+1+x) - lgamma(k0+x) - lgamma(n+1) +
# lgamma(k0) above x = 2^53, frozen from mpmath's loggamma at 60 + log10(x)
# digits; x is 2 alpha (k0 = 1) or 2 alpha - 1 (k0 = 3), from 2^53 to 1e300
LOG1P_SUM_LARGE_X = [
    (65, 9007199254740994.0, 1, 2178.549450276475),
    (100, 1.1566976396472284e+18, 1, 3795.470700106232),
    (101, 1.1566976396472284e+18, 3, 3749.956626013333),
    (1000, 2e+19, 1, 38530.13576895865),
    (1001, 2e+19, 3, 38479.47789741245),
    (1000, 6.705e+21, 1, 44345.01229112044),
    (100001, 2.669861582183586e+50, 3, 10559701.974920494),
    (10000000, 1.24671400386e+27, 1, 472722122.5513042),
    (10000001, 1.24671400386e+27, 3, 472722044.73604685),
    (65, 1e+300, 1, 44691.066726631354),
    (10000000, 1e+300, 3, 6756572932.636659),
]


class TestPochhammerRatio:
    def test_trivial_values(self):
        assert special.pochhammer_ratio(1, 1.0) == pytest.approx(0.5, abs=1e-16)
        for n in (1, 5, 64, 65, 1000):
            assert special.pochhammer_ratio(n, 0.0) == pytest.approx(1.0, abs=1e-13)
        assert special.pochhammer_ratio(2, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-16)

    def test_product_vs_gamma_route(self):
        # both routes evaluated explicitly, including across the crossover
        for x in (0.5, 1.0, 2.0, 3.0):
            for n in (1, 2, 10, 63, 64, 65, 100, 1000, 10_000):
                product = 1.0
                for k in range(1, n + 1):
                    product *= k / (k + x)
                gamma_form = math.exp(
                    math.lgamma(n + 1.0) + math.lgamma(x + 1.0) - math.lgamma(n + x + 1.0))
                got = special.pochhammer_ratio(n, x)
                assert got == pytest.approx(product, rel=1e-10)
                assert got == pytest.approx(gamma_form, rel=1e-10)

    def test_crossover_recursion(self):
        # b(n+1,x) = b(n,x) * (n+1)/(n+1+x) must hold across the crossover
        for x in (0.5, 1.0, 2.7):
            left = special.pochhammer_ratio(64, x)
            right = special.pochhammer_ratio(65, x)
            assert right == pytest.approx(left * 65.0 / (65.0 + x), rel=1e-12)

    @given(n=st.integers(min_value=1, max_value=500),
           x=st.floats(min_value=0.01, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_n_and_x(self, n, x):
        here = special.pochhammer_ratio(n, x)
        assert special.pochhammer_ratio(n + 1, x) < here
        assert special.pochhammer_ratio(n, x + 0.5) < here

    @pytest.mark.parametrize("n", [10**5, 10**6, 10**7])
    def test_large_n_identities(self, n):
        assert special.pochhammer_ratio(n, 1) == pytest.approx(1.0 / (n + 1.0), rel=1e-14, abs=0.0)
        assert special.pochhammer_ratio(n, 2) == pytest.approx(
            2.0 / ((n + 1.0) * (n + 2.0)), rel=1e-14, abs=0.0)

    def test_gamma_limit(self):
        # n^x * b(n,x) -> Gamma(x+1)
        for x in (0.5, 1.0, 2.0):
            ratio = 1e6 ** x * special.pochhammer_ratio(1_000_000, x)
            assert ratio == pytest.approx(math.gamma(x + 1.0), rel=1e-3)

    @pytest.mark.parametrize("n,x,k0,exact", LOG1P_SUM_LARGE_X)
    def test_log1p_sum_at_large_x(self, n, x, k0, exact):
        # the Stirling difference in x cancelled here, to a sum of the
        # wrong size or sign
        assert abs(special._log1p_sum(n, x, k0) - exact) <= 1e-15 * exact

    def test_domain(self):
        with pytest.raises(ValueError):
            special.pochhammer_ratio(0, 1.0)
        with pytest.raises(ValueError):
            special.pochhammer_ratio(5, -1.0)


class TestHarmonic:
    def test_small_exact(self):
        assert special.harmonic(1) == 1.0
        assert special.harmonic(2) == pytest.approx(1.5, abs=1e-16)
        assert special.harmonic(3) == pytest.approx(11.0 / 6.0, abs=1e-15)

    def test_against_fractions(self):
        for n in (4, 7, 17, 50):
            assert special.harmonic(n) == pytest.approx(
                float(oracles.harmonic_fraction(n)), rel=1e-14)

    def test_direct_asymptotic_crossover(self):
        # the direct sum just below the crossover must agree with the
        # asymptotic branch used just above it
        n = 10_000_000
        direct = special.harmonic(n)
        expansion = (math.log(n) + special.EULER_GAMMA + 0.5 / n
                     - 1.0 / (12.0 * n * n) + 1.0 / (120.0 * float(n) ** 4))
        assert direct == pytest.approx(expansion, abs=2e-11)
        assert special.harmonic(n + 1) == pytest.approx(direct + 1.0 / (n + 1), abs=2e-11)

    def test_against_fractions_through_3000(self):
        # running sum of the oracle's terms, pinned to the oracle at the end
        exact = Fraction(0)
        for n in range(1, 3001):
            exact += Fraction(1, n)
            assert special.harmonic(n) == pytest.approx(float(exact), rel=1e-15)
        assert exact == oracles.harmonic_fraction(3000)

    def test_domain(self):
        with pytest.raises(ValueError):
            special.harmonic(0)


class TestHarmonicDirectSum:
    """The direct sum against the chunked np.sum it reproduces, compared
    with ==: a NumPy that changes its pairwise split fails here."""

    def test_bit_identical_to_chunked_numpy_sum(self):
        leaf = special._HARMONIC_LEAF
        ns = list(range(1, 301))
        ns += [leaf - 1, leaf, leaf + 1, 2 * leaf - 1, 2 * leaf + 1]
        ns += [10**6, 10**6 + 1, 2 * 10**6, 10**7]
        # the curves_sweep grid
        ns += [int(v) for v in np.round(np.logspace(2, 7, 200))]
        ns += [int(v) for v in np.random.default_rng(17).integers(1, 10**7, 200, endpoint=True)]
        bad = [n for n in ns if special.harmonic(n) != oracles.harmonic_numpy_chunks(n)]
        assert bad == []

    def test_peak_memory_below_one_megabyte(self):
        special.harmonic.cache_clear()
        special.harmonic(10)  # makes the kept leaf arrays
        special.harmonic.cache_clear()
        tracemalloc.start()
        try:
            special.harmonic(10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_one_miss_one_hit_per_youj_point_at_the_critical_rate(self):
        special.harmonic.cache_clear()
        bound_point(YouParams(0.5), JumpSchedule.constant(0.5, 1.0), 10**6)
        info = special.harmonic.cache_info()
        assert (info.misses, info.hits) == (1, 1)


class TestZeta:
    def test_classical_identities(self):
        assert special.zeta(2.0) == pytest.approx(math.pi ** 2 / 6.0, abs=1e-13)
        assert special.zeta(4.0) == pytest.approx(math.pi ** 4 / 90.0, abs=1e-13)

    def test_frozen_three_halves(self):
        assert special.zeta(1.5) == pytest.approx(ZETA_3_2, abs=1e-12)

    def test_against_scipy(self):
        for r in (1.1, 1.3, 1.5, 1.9, 2.5, 3.0, 3.5, 6.0):
            assert special.zeta(r) == pytest.approx(
                float(scipy.special.zeta(r)), abs=1e-10)

    def test_domain(self):
        for bad in (1.0, 0.5, -2.0):
            with pytest.raises(ValueError):
                special.zeta(bad)


def _cdf(z: float) -> float:
    return float(special.std_normal_cdf_array(np.array([z]))[0])


class TestNormalCdf:
    def test_center(self):
        assert _cdf(0.0) == 0.5

    def test_against_series_oracle(self):
        for z in np.linspace(-6.0, 6.0, 241):
            assert _cdf(float(z)) == pytest.approx(oracles.phi_series(float(z)), abs=1e-14)

    def test_against_scipy(self):
        for z in np.linspace(-8.0, 8.0, 101):
            assert _cdf(float(z)) == pytest.approx(float(scipy.stats.norm.cdf(z)), abs=1e-13)

    def test_symmetry_and_monotonicity(self):
        grid = np.linspace(-8.0, 8.0, 401)
        values = [_cdf(float(z)) for z in grid]
        for z, v in zip(grid, values):
            assert v + _cdf(float(-z)) == pytest.approx(1.0, abs=1e-12)
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_array_matches_scalar(self):
        # several erfc chunks, a shape, both infinities, signed zeros and
        # arguments past where Phi rounds to 0 and 1
        grid = np.concatenate([np.linspace(-40.0, 40.0, 20_000),
                               [-np.inf, -0.0, 0.0, np.inf]]).reshape(4, -1)
        arr = special.std_normal_cdf_array(grid)
        assert arr.shape == grid.shape
        for z, v in zip(grid.ravel(), arr.ravel()):
            assert v == 0.5 * math.erfc(-z / math.sqrt(2))


class TestNormalQuantile:
    def test_center(self):
        assert special.std_normal_quantile(0.5) == 0.0

    def test_roundtrip(self):
        # 1e-9 is attainable wherever float64 can carry p: everywhere on the
        # lower tail, and up to z ~ 5.4 on the upper tail. Beyond that the
        # rounding of p alone costs ulp(1)/pdf(z) (3.7e-8 at z = 6), so the
        # upper extreme is gated at the representation floor instead.
        for z in np.linspace(-6.0, 5.3, 121):
            p = _cdf(float(z))
            assert special.std_normal_quantile(p) == pytest.approx(float(z), abs=1e-9)
        for z in np.linspace(5.3, 6.0, 15):
            p = _cdf(float(z))
            floor = np.spacing(1.0) * math.sqrt(2.0 * math.pi) * math.exp(0.5 * z * z)
            assert special.std_normal_quantile(p) == pytest.approx(
                float(z), abs=1e-9 + floor)

    def test_roundtrip_tight_in_the_bulk(self):
        for z in np.linspace(-3.0, 3.0, 61):
            p = _cdf(float(z))
            assert special.std_normal_quantile(p) == pytest.approx(float(z), abs=1e-12)

    def test_quantile_accuracy_on_exact_p(self):
        # isolates the quantile's own error from cdf output rounding
        for p in np.linspace(1e-4, 1.0 - 1e-4, 97):
            assert special.std_normal_quantile(float(p)) == pytest.approx(
                float(scipy.stats.norm.ppf(p)), abs=1e-12)

    def test_against_scipy(self):
        for p in (1e-12, 1e-6, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-6):
            assert special.std_normal_quantile(p) == pytest.approx(
                float(scipy.stats.norm.ppf(p)), abs=1e-9)

    def test_extreme_tails_finite_and_ordered(self):
        q_lo = special.std_normal_quantile(1e-300)
        q_hi = special.std_normal_quantile(1.0 - 1e-16)
        assert math.isfinite(q_lo) and q_lo < -35.0
        assert math.isfinite(q_hi) and q_hi > 8.0

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                special.std_normal_quantile(bad)
        with pytest.raises(ValueError, match="got 1.0"):
            special.std_normal_quantile(np.array([0.2, 1.0, 0.3]))

    def test_array_equals_one_element_calls(self):
        # region masks and the per-element density stop must not make a
        # value depend on its batch: both tails down to the density stop,
        # the bulk, and the 0.02425 switch points, where the region changes
        rng = np.random.default_rng(12)
        switch = np.array([0.02425, 1.0 - 0.02425])
        p = np.concatenate([
            rng.uniform(0.0, 1.0, 2000),
            10.0 ** rng.uniform(-320.0, -1.6, 1000),
            1.0 - 10.0 ** rng.uniform(-16.0, -1.6, 1000),
            (switch[:, None] + np.arange(-100, 101) * 1e-17).ravel(),
            [5e-324, 1e-300, 0.5, 1.0 - 1e-16],
        ])
        p = p[(p > 0.0) & (p < 1.0)]
        batch = special.std_normal_quantile(p)
        single = np.array([special.std_normal_quantile(float(v)) for v in p])
        assert np.array_equal(batch, single)
        grid = special.std_normal_quantile(p[:2000].reshape(2, 1000))
        assert np.array_equal(grid, batch[:2000].reshape(2, 1000))
        assert isinstance(special.std_normal_quantile(0.3), float)
