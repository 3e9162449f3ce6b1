"""Distance-bound kernels: frozen examples, envelopes, and domination oracles."""

import functools
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from youbounds import analytic, stein

import oracles

C_K = 2.0 * (1.0 + 8.0 * math.exp(-1.25))
C_W = 2.0 * math.sqrt(2.0) * math.exp(-0.25)
SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


class TestMomentSummary:
    def test_valid_construction(self):
        ms = stein.MomentSummary(ev=2.0, vv=0.1, ve=0.3)
        assert ms.ev == 2.0

    def test_zero_fluctuations_allowed(self):
        stein.MomentSummary(ev=1.0, vv=0.0, ve=0.0)

    def test_is_frozen(self):
        ms = stein.MomentSummary(ev=1.0, vv=0.0, ve=0.0)
        with pytest.raises(AttributeError):
            ms.ev = 3.0

    @pytest.mark.parametrize("ev", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_ev(self, ev):
        with pytest.raises(ValueError):
            stein.MomentSummary(ev=ev, vv=0.0, ve=0.0)

    @pytest.mark.parametrize("vv", [-1e-12, math.nan, math.inf])
    def test_rejects_bad_vv(self, vv):
        with pytest.raises(ValueError):
            stein.MomentSummary(ev=1.0, vv=vv, ve=0.0)

    @pytest.mark.parametrize("ve", [-0.5, math.nan])
    def test_rejects_bad_ve(self, ve):
        with pytest.raises(ValueError):
            stein.MomentSummary(ev=1.0, vv=0.0, ve=ve)


class TestKolmogorovUpper:
    def test_pure_normal_is_zero(self):
        rep = stein.kolmogorov_upper(stein.MomentSummary(1.0, 0.0, 0.0))
        assert rep.total == 0.0
        assert rep.term_values() == (0.0, 0.0, 0.0)

    def test_all_ones(self):
        rep = stein.kolmogorov_upper(stein.MomentSummary(1.0, 1.0, 1.0))
        assert rep.total == pytest.approx(2.0 + SQRT_2_OVER_PI, rel=1e-15)
        assert rep.term_values()[0] == 1.0
        assert rep.term_values()[1] == 1.0
        assert rep.term_values()[2] == pytest.approx(SQRT_2_OVER_PI, rel=1e-15)

    def test_mean_spread_only(self):
        rep = stein.kolmogorov_upper(stein.MomentSummary(4.0, 0.0, 1.0))
        assert rep.total == 0.25
        assert rep.term_values() == (0.0, 0.25, 0.0)

    def test_report_shape(self):
        rep = stein.kolmogorov_upper(stein.MomentSummary(2.0, 0.5, 0.7))
        assert rep.distance == stein.KOLMOGOROV
        assert len(rep.terms) == 3
        assert rep.total == sum(rep.term_values())


class TestWassersteinUpper:
    def test_pure_normal_is_zero(self):
        rep = stein.wasserstein_upper(stein.MomentSummary(1.0, 0.0, 0.0))
        assert rep.total == 0.0

    def test_variance_fluctuation_only(self):
        rep = stein.wasserstein_upper(stein.MomentSummary(1.0, 1.0, 0.0))
        assert rep.total == pytest.approx(SQRT_2_OVER_PI, rel=1e-15)
        assert rep.term_values()[1:] == (0.0, 0.0, 0.0)

    def test_mean_spread_only(self):
        rep = stein.wasserstein_upper(stein.MomentSummary(1.0, 0.0, 2.0))
        assert rep.total == 2.0
        assert rep.term_values() == (0.0, 0.0, 2.0, 0.0)

    def test_report_shape(self):
        rep = stein.wasserstein_upper(stein.MomentSummary(2.0, 0.5, 0.7))
        assert rep.distance == stein.WASSERSTEIN
        assert len(rep.terms) == 4
        assert rep.total == sum(rep.term_values())


class TestVariancePenalty:
    @pytest.mark.parametrize("s2", [0.5, 1.0, 3.0])
    def test_exact_zero_at_center(self, s2):
        assert stein.variance_penalty(s2, s2) == 0.0

    def test_value_at_origin(self):
        assert stein.variance_penalty(0.0, 1.0) == pytest.approx(
            1.0 - 2.0 ** -1.5, rel=1e-15)

    def test_value_at_three(self):
        assert stein.variance_penalty(3.0, 1.0) == pytest.approx(
            math.sqrt(2.0) / 2.0 - 0.25, rel=1e-14)

    def test_array_matches_scalar(self):
        xs = np.linspace(0.0, 10.0, 101)
        arr = stein.variance_penalty(xs, 2.0)
        for x, v in zip(xs, arr):
            # numpy's vectorized power and libm's may differ in the last ulp
            assert v == pytest.approx(stein.variance_penalty(float(x), 2.0),
                                      rel=5e-15, abs=0.0)

    @pytest.mark.parametrize("s2", [0.0, -1.0])
    def test_rejects_bad_sigma2(self, s2):
        with pytest.raises(ValueError):
            stein.variance_penalty(1.0, s2)

    @pytest.mark.parametrize("s2", [0.5, 1.0, 2.5])
    def test_envelopes(self, s2):
        xs = np.linspace(0.0, 20.0 * s2, 1000)
        k = stein.variance_penalty(xs, s2)
        gap2 = (s2 - xs) ** 2
        assert np.all(k >= -1e-15)
        assert np.all(k <= 27.0 / (8.0 * s2) * gap2 + 1e-12)
        assert np.all(k <= np.abs(s2 - xs) + 1e-12)
        left = xs <= s2
        lower = 3.0 / (2.0 ** 3.5 * s2) * gap2[left]
        assert np.all(k[left] + 1e-12 >= lower)

    @pytest.mark.parametrize("s2", [1.0, 2.5])
    @pytest.mark.parametrize("x", [0.2, 1.7, 5.0, 12.0, 30.0])
    def test_second_derivative_closed_form(self, s2, x):
        h = 1e-4 * (1.0 + x)
        fd = (stein.variance_penalty(x + h, s2)
              - 2.0 * stein.variance_penalty(x, s2)
              + stein.variance_penalty(x - h, s2)) / (h * h)
        assert fd == pytest.approx(oracles.kappa_second_derivative(x, s2),
                                   rel=1e-5, abs=1e-10)

    @pytest.mark.parametrize("s2", [0.5, 1.0, 2.5])
    def test_second_derivative_sign_change_once_at_nine_centers(self, s2):
        assert oracles.kappa_second_derivative(9.0 * s2, s2) == 0.0
        xs = np.linspace(0.0, 40.0 * s2, 2001)
        vals = np.array([oracles.kappa_second_derivative(float(x), s2) for x in xs])
        signs = np.sign(vals[vals != 0.0])
        flips = np.nonzero(np.diff(signs))[0]
        assert len(flips) == 1
        assert np.all(vals[xs < 9.0 * s2] > 0.0)
        assert np.all(vals[xs > 9.0 * s2] < 0.0)


class TestLowerBoundConstant:
    def test_kolmogorov_closed_form(self):
        assert stein.lower_bound_constant(stein.KOLMOGOROV) == pytest.approx(
            C_K, rel=1e-15)
        assert stein.lower_bound_constant(stein.KOLMOGOROV) == pytest.approx(
            6.5840767497630415, rel=1e-15)

    def test_wasserstein_closed_form(self):
        # maximum lands at x = sqrt(1/2), value 2 sqrt(2) exp(-1/4)
        assert stein.lower_bound_constant(stein.WASSERSTEIN) == pytest.approx(
            C_W, rel=1e-14)
        assert stein.lower_bound_constant(stein.WASSERSTEIN) == pytest.approx(
            2.2027812596127347, rel=1e-14)

    def test_kolmogorov_against_quadrature(self):
        val, err = scipy.integrate.quad(
            lambda t: abs(2.0 * t ** 3 - 5.0 * t) * math.exp(-0.5 * t * t),
            -12.0, 12.0, points=[-math.sqrt(2.5), 0.0, math.sqrt(2.5)],
            limit=200)
        assert err < 1e-10
        assert stein.lower_bound_constant(stein.KOLMOGOROV) == pytest.approx(
            val, abs=1e-9)

    def test_wasserstein_against_grid_scan_and_polish(self):
        xs = np.linspace(0.0, 6.0, 600_001)
        obj = np.abs(2.0 * xs ** 3 - 5.0 * xs) * np.exp(-0.5 * xs * xs)
        i = int(np.argmax(obj))
        res = scipy.optimize.minimize_scalar(
            lambda x: -abs(2.0 * x ** 3 - 5.0 * x) * math.exp(-0.5 * x * x),
            bounds=(xs[i] - 1e-4, xs[i] + 1e-4), method="bounded",
            options={"xatol": 1e-12})
        polished = -res.fun
        assert polished >= obj[i] - 1e-15
        assert stein.lower_bound_constant(stein.WASSERSTEIN) == pytest.approx(
            polished, rel=1e-10)

    def test_both_positive(self):
        assert stein.lower_bound_constant(stein.KOLMOGOROV) > 0.0
        assert stein.lower_bound_constant(stein.WASSERSTEIN) > 0.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            stein.lower_bound_constant("total-variation")


class TestSteinLowerBound:
    def test_equal_ingredients_vanish(self):
        rep = stein.stein_lower_bound(
            stein.LowerBoundInputs(t1=0.7, t2=0.7, sigma2=2.0), stein.KOLMOGOROV)
        assert rep.total == 0.0

    def test_kolmogorov_plugin(self):
        rep = stein.stein_lower_bound(
            stein.LowerBoundInputs(t1=1.0, t2=0.0, sigma2=1.0), stein.KOLMOGOROV)
        assert rep.total == pytest.approx(1.0 / C_K, rel=1e-15)

    def test_wasserstein_plugin(self):
        rep = stein.stein_lower_bound(
            stein.LowerBoundInputs(t1=0.0, t2=2.0, sigma2=4.0), stein.WASSERSTEIN)
        assert rep.total == pytest.approx(2.0 / (4.0 * C_W), rel=1e-14)

    def test_report_records_ingredients(self):
        rep = stein.stein_lower_bound(
            stein.LowerBoundInputs(t1=0.3, t2=0.1, sigma2=1.5), stein.WASSERSTEIN)
        values = dict(rep.terms)
        assert values["t1 (cond-mean spread proxy)"] == 0.3
        assert values["t2 (variance-penalty proxy)"] == 0.1
        assert values["constant"] == pytest.approx(C_W, rel=1e-14)
        assert any("asymptotic" in note for note in rep.notes)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            stein.LowerBoundInputs(t1=1.0, t2=0.0, sigma2=0.0)
        with pytest.raises(ValueError):
            stein.LowerBoundInputs(t1=-1.0, t2=0.0, sigma2=1.0)

    def test_lower_never_exceeds_upper_for_matched_summaries(self):
        # matched proxies: t1 is the cond-mean spread itself, t2 at most the
        # quadratic envelope of the penalty, 27/(8 ev) * vv; the summaries the
        # model produces always sit deep in the small-fluctuation regime
        # vv << ev^2 where this domination is provable
        rng = np.random.default_rng(20260819)
        for _ in range(200):
            ev = float(rng.uniform(0.2, 5.0))
            vv = float(rng.uniform(0.0, 0.05)) * ev * ev
            ve = float(rng.uniform(0.0, 0.5)) * ev
            ms = stein.MomentSummary(ev, vv, ve)
            dk = stein.kolmogorov_upper(ms).total
            dw = stein.wasserstein_upper(ms).total
            cap = 27.0 / (8.0 * ev) * vv
            for t2 in (0.0, 0.5 * cap, cap):
                inputs = stein.LowerBoundInputs(t1=ve, t2=t2, sigma2=ev)
                for distance, upper in ((stein.KOLMOGOROV, dk),
                                        (stein.WASSERSTEIN, dw)):
                    low = stein.stein_lower_bound(inputs, distance).total
                    assert low <= upper + 1e-15


class TestScaleFamily:
    @pytest.mark.parametrize("c", [0.1, 10.0])
    def test_matched_power_rescaling_is_invariant(self, c):
        base = stein.MomentSummary(1.7, 0.41, 0.23)
        scaled = stein.MomentSummary(c * 1.7, c * c * 0.41, c * 0.23)
        for fn in (stein.kolmogorov_upper, stein.wasserstein_upper):
            a, b = fn(base), fn(scaled)
            assert b.total == pytest.approx(a.total, rel=1e-12)
            for (_, va), (_, vb) in zip(a.terms, b.terms):
                assert vb == pytest.approx(va, rel=1e-12, abs=0.0) or va == vb == 0.0

    @settings(max_examples=100)
    @given(c=st.floats(1e-2, 1e2), ev=st.floats(0.1, 10.0),
           vv=st.floats(0.0, 10.0), ve=st.floats(0.0, 10.0))
    def test_invariance_property(self, c, ev, vv, ve):
        a = stein.kolmogorov_upper(stein.MomentSummary(ev, vv, ve))
        b = stein.kolmogorov_upper(
            stein.MomentSummary(c * ev, c * c * vv, c * ve))
        assert b.total == pytest.approx(a.total, rel=1e-9)


class TestMonotonicityAndZeros:
    @pytest.mark.parametrize("fn", [stein.kolmogorov_upper,
                                    stein.wasserstein_upper])
    def test_nondecreasing_in_vv(self, fn):
        for ve in (0.0, 0.3):
            totals = [fn(stein.MomentSummary(2.0, vv, ve)).total
                      for vv in np.linspace(0.0, 4.0, 41)]
            assert all(b >= a for a, b in zip(totals, totals[1:]))
            assert totals[-1] > totals[0]

    @pytest.mark.parametrize("fn", [stein.kolmogorov_upper,
                                    stein.wasserstein_upper])
    def test_nondecreasing_in_ve(self, fn):
        for vv in (0.0, 0.5):
            totals = [fn(stein.MomentSummary(2.0, vv, ve)).total
                      for ve in np.linspace(0.0, 4.0, 41)]
            assert all(b >= a for a, b in zip(totals, totals[1:]))
            assert totals[-1] > totals[0]

    @settings(max_examples=100)
    @given(ev=st.floats(0.1, 10.0), vv=st.floats(0.0, 10.0),
           ve=st.floats(0.0, 10.0), bump=st.floats(0.0, 5.0))
    def test_vv_monotonicity_property(self, ev, vv, ve, bump):
        lo = stein.kolmogorov_upper(stein.MomentSummary(ev, vv, ve)).total
        hi = stein.kolmogorov_upper(
            stein.MomentSummary(ev, vv + bump, ve)).total
        assert hi >= lo * (1.0 - 1e-12)

    @pytest.mark.parametrize("fn", [stein.kolmogorov_upper,
                                    stein.wasserstein_upper])
    def test_zero_iff_no_fluctuations(self, fn):
        assert fn(stein.MomentSummary(3.0, 0.0, 0.0)).total == 0.0
        assert fn(stein.MomentSummary(3.0, 1e-12, 0.0)).total > 0.0
        assert fn(stein.MomentSummary(3.0, 0.0, 1e-12)).total > 0.0


class TestBoundReportValidation:
    def test_rejects_negative_term(self):
        with pytest.raises(ValueError):
            stein.BoundReport(stein.KOLMOGOROV, (("a", -1.0),), 0.0)

    def test_rejects_bad_distance(self):
        with pytest.raises(ValueError):
            stein.BoundReport("hellinger", (), 0.0)

    def test_rejects_negative_total(self):
        with pytest.raises(ValueError):
            stein.BoundReport(stein.KOLMOGOROV, (), -0.1)


# exact d_K and d_W of the n = 2, x0 = 0 YOU mixture, as ROADMAP item 3's
# probe printed them
TWO_TIP_DISTANCES = {2.0: ("4.378e-3", "1.157e-2"), 5.0: ("2.578e-3", "7.24e-3"),
                     10.0: ("1.686e-3", "4.84e-3")}


@functools.cache
def _two_tip(alpha, nodes=50):
    weights, v = oracles.you_pair_variances(alpha, nodes)
    ev = float(weights @ v)
    vv = float(weights @ (v - ev) ** 2)
    kappa = float(weights @ stein.variance_penalty(v, ev))
    return ev, vv, kappa, *oracles.centered_mixture_distances(weights, v)


def _as_printed(value, text):
    decimals = len(text.split("e")[0]) - 2
    return f"{value:.{decimals}e}" == f"{float(text):.{decimals}e}"


class TestExactTwoTipDistances:
    """The distances of the two-tip mixture by quadrature, with no Monte
    Carlo noise, against the bounds built from its exact ingredients."""

    @pytest.mark.parametrize("alpha", sorted(TWO_TIP_DISTANCES))
    def test_quadrature_ev_is_the_closed_form(self, alpha):
        ev = _two_tip(alpha)[0]
        assert abs(ev - analytic.var_ybar_you(2, analytic.YouParams(alpha))) <= 1e-12

    @pytest.mark.parametrize("alpha", sorted(TWO_TIP_DISTANCES))
    def test_distances_to_printed_digits(self, alpha):
        dk, dw = _two_tip(alpha)[3:]
        assert _as_printed(dk, TWO_TIP_DISTANCES[alpha][0])
        assert _as_printed(dw, TWO_TIP_DISTANCES[alpha][1])

    def test_doubling_the_nodes(self):
        (dk, dw), (dk2, dw2) = _two_tip(2.0)[3:], _two_tip(2.0, 100)[3:]
        assert abs(dk2 - dk) < 1e-9
        assert abs(dw2 - dw) < 1e-8

    @pytest.mark.parametrize("alpha", sorted(TWO_TIP_DISTANCES))
    def test_upper_bounds_lie_above(self, alpha):
        ev, vv, kappa, dk, dw = _two_tip(alpha)
        exact = stein.MomentSummary(ev, vv, 0.0)
        shipped = analytic.bound_point(analytic.YouParams(alpha), None, 2)
        for upper in (stein.kolmogorov_upper(exact), shipped[stein.KOLMOGOROV]):
            assert upper.total > dk
        for upper in (stein.wasserstein_upper(exact), shipped[stein.WASSERSTEIN]):
            assert upper.total > dw
        if alpha == 2.0:
            assert stein.kolmogorov_upper(exact).total == pytest.approx(0.2485, abs=5e-5)
            assert shipped[stein.KOLMOGOROV].total == pytest.approx(0.7027, abs=5e-5)
        # the paper states the lower bound only asymptotically: shown, not gated
        lower = stein.stein_lower_bound(stein.LowerBoundInputs(0.0, kappa, ev), stein.KOLMOGOROV)
        print(f"alpha = {alpha}: d_K = {dk:.4g}, Stein lower bound {lower.total:.4g} "
              f"with exact t2 = E kappa(V)")
