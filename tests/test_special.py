"""Scalar special functions against frozen values and independent oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from youbounds import special

import oracles

# value frozen from an independent 1e8-term partial sum plus integral tail
ZETA_3_2 = 2.612375348685488


class TestLogGamma:
    def test_trivial_values(self):
        assert special.log_gamma(1.0) == 0.0
        assert special.log_gamma(2.0) == 0.0
        assert special.log_gamma(5.0) == pytest.approx(math.log(24.0), abs=1e-14)

    def test_factorials(self):
        for k in range(2, 21):
            assert special.log_gamma(float(k)) == pytest.approx(
                math.log(math.factorial(k - 1)), rel=1e-13)

    def test_against_scipy_small_arguments(self):
        for x in np.linspace(0.5, 30.0, 200):
            assert special.log_gamma(float(x)) == pytest.approx(
                float(scipy.special.gammaln(x)), abs=1e-12)

    def test_against_scipy_large_arguments(self):
        # absolute error grows with the value itself; relative stays tight
        for x in np.geomspace(30.0, 1e5, 60):
            assert special.log_gamma(float(x)) == pytest.approx(
                float(scipy.special.gammaln(x)), rel=1e-14)

    def test_domain(self):
        for bad in (0.0, -1.0, -0.5):
            with pytest.raises(ValueError):
                special.log_gamma(bad)


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
                    special.log_gamma(n + 1.0) + special.log_gamma(x + 1.0)
                    - special.log_gamma(n + x + 1.0))
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

    def test_gamma_limit(self):
        # n^x * b(n,x) -> Gamma(x+1)
        for x in (0.5, 1.0, 2.0):
            ratio = 1e6 ** x * special.pochhammer_ratio(1_000_000, x)
            assert ratio == pytest.approx(math.gamma(x + 1.0), rel=1e-3)

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


class TestNormalCdf:
    def test_center(self):
        assert special.std_normal_cdf(0.0) == 0.5

    def test_against_series_oracle(self):
        for z in np.linspace(-6.0, 6.0, 241):
            assert special.std_normal_cdf(float(z)) == pytest.approx(
                oracles.phi_series(float(z)), abs=1e-14)

    def test_against_scipy(self):
        for z in np.linspace(-8.0, 8.0, 101):
            assert special.std_normal_cdf(float(z)) == pytest.approx(
                float(scipy.stats.norm.cdf(z)), abs=1e-13)

    def test_symmetry_and_monotonicity(self):
        grid = np.linspace(-8.0, 8.0, 401)
        values = [special.std_normal_cdf(float(z)) for z in grid]
        for z, v in zip(grid, values):
            assert v + special.std_normal_cdf(float(-z)) == pytest.approx(1.0, abs=1e-12)
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_array_matches_scalar(self):
        grid = np.linspace(-5.0, 5.0, 37)
        arr = special.std_normal_cdf_array(grid)
        for z, v in zip(grid, arr):
            assert v == special.std_normal_cdf(float(z))

    def test_pdf(self):
        assert special.std_normal_pdf(0.0) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), abs=1e-16)
        assert special.std_normal_pdf(2.0) == pytest.approx(
            math.exp(-2.0) / math.sqrt(2.0 * math.pi), rel=1e-14)


class TestNormalQuantile:
    def test_center(self):
        assert special.std_normal_quantile(0.5) == 0.0

    def test_roundtrip(self):
        # 1e-9 is attainable wherever float64 can carry p: everywhere on the
        # lower tail, and up to z ~ 5.4 on the upper tail. Beyond that the
        # rounding of p alone costs ulp(1)/pdf(z) (3.7e-8 at z = 6), so the
        # upper extreme is gated at the representation floor instead.
        for z in np.linspace(-6.0, 5.3, 121):
            p = special.std_normal_cdf(float(z))
            assert special.std_normal_quantile(p) == pytest.approx(float(z), abs=1e-9)
        for z in np.linspace(5.3, 6.0, 15):
            p = special.std_normal_cdf(float(z))
            floor = np.spacing(1.0) / special.std_normal_pdf(float(z))
            assert special.std_normal_quantile(p) == pytest.approx(
                float(z), abs=1e-9 + floor)

    def test_roundtrip_tight_in_the_bulk(self):
        for z in np.linspace(-3.0, 3.0, 61):
            p = special.std_normal_cdf(float(z))
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
