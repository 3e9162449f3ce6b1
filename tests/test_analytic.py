"""Closed forms, asymptotics, and bound curves for the OU-on-Yule models."""

import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from youbounds import analytic, special, stein, trees
from youbounds.analytic import (
    JumpSchedule,
    UnsupportedRegimeError,
    YouParams,
)

import oracles

EULER_GAMMA = 0.5772156649015328606

# dyadic pair-time arguments, so that Fraction(y) is the float y
DYADIC_Y = [1.0 + 2.0 ** -40, 1.0 + 2.0 ** -20, 1.25, 2.0, 5.0]
EXACT_NS = [2, 3, 7, 64, 65, 300]

# the rates at the two edges of the critical window, each with its float
# neighbour outside it: below 1/2 the outside rate is refused, above it is fast
CRITICAL_EDGES = [(0.499999999999, 0.49999999999899997), (0.500000000001, 0.5000000000010001)]


def _slope(ns, values):
    return float(np.polyfit(np.log(ns), np.log(values), 1)[0])


class TestYouParams:
    def test_delta_consistency(self):
        p = YouParams(alpha=0.7, sigma_a2=1.3, x0=2.1)
        assert p.delta == pytest.approx(2.1 * math.sqrt(1.4 / 1.3), rel=1e-12)

    def test_delta_zero_when_centered(self):
        assert YouParams(alpha=1.0, x0=0.0).delta == 0.0

    def test_is_frozen(self):
        p = YouParams(alpha=1.0)
        with pytest.raises(AttributeError):
            p.alpha = 2.0

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError):
            YouParams(alpha=alpha)

    def test_rejects_bad_sigma_a2(self):
        with pytest.raises(ValueError):
            YouParams(alpha=1.0, sigma_a2=0.0)

    def test_rejects_bad_x0(self):
        with pytest.raises(ValueError):
            YouParams(alpha=1.0, x0=math.inf)

    @pytest.mark.parametrize("alpha,sigma_a2,x0", [
        (1.0, 1.0, 1e155),     # delta^2 overflows
        (1.0, 1.0, -1e155),
        (1e300, 1.0, 1e200),   # delta overflows
    ])
    def test_rejects_offset_without_finite_square(self, alpha, sigma_a2, x0):
        with pytest.raises(ValueError, match=re.escape(
                f"has no finite square at x0 = {x0!r}, alpha = {alpha!r}, "
                f"sigma_a2 = {sigma_a2!r}")):
            YouParams(alpha, sigma_a2, x0)

    @pytest.mark.parametrize("alpha,sigma_a2,x0", [
        (1.0, 1e-320, 0.0),    # the quotient overflows; delta = 0 * inf would be NaN
        (1e300, 1e-300, 1.0),
        (1e308, 1.0, 0.0),     # 2 alpha overflows
        (1e308, 10.0, 1.0),    # and so the quotient, though alpha / sigma_a2 is 1e307
    ])
    def test_rejects_rate_scale_without_finite_value(self, alpha, sigma_a2, x0):
        # refused by its own name, before the offset is formed
        with pytest.raises(ValueError, match=re.escape(
                f"2 alpha / sigma_a2 is not finite at alpha = {alpha!r}, "
                f"sigma_a2 = {sigma_a2!r}")):
            YouParams(alpha, sigma_a2, x0)

    @pytest.mark.parametrize("sigma_a2", [1.0, 1e-10])
    def test_largest_rate_scale_accepted(self, sigma_a2):
        # 2 alpha / sigma_a2 is finite up to alpha / sigma_a2 = max / 2 = 8.99e307
        largest = sys.float_info.max / 2.0 * sigma_a2
        YouParams(largest, sigma_a2)
        with pytest.raises(ValueError, match="2 alpha / sigma_a2 is not finite"):
            YouParams(math.nextafter(largest, math.inf), sigma_a2)

    def test_largest_offsets_accepted(self):
        # delta^2 just below the largest double, and the sweep's largest rate
        assert math.isfinite(YouParams(1.0, 1.0, 9e153).delta ** 2)
        assert math.isfinite(YouParams(1e300, 1.0, 1.0).delta ** 2)


class TestJumpSchedule:
    def test_none_is_inactive(self):
        s = JumpSchedule.none()
        assert s.is_inactive
        assert [a.tolist() for a in trees.jump_event_arrays(s, 4)] == [[0.0] * 3, [0.0] * 3]

    def test_constant_expansion(self):
        s = JumpSchedule.constant(0.5, 1.3)
        assert not s.is_inactive
        assert [a.tolist() for a in trees.jump_event_arrays(s, 3)] == [[0.5, 0.5], [1.3, 1.3]]

    @pytest.mark.parametrize("p,s2", [(0.0, 1.0), (0.5, 0.0)])
    def test_constant_without_effect_is_inactive(self, p, s2):
        assert JumpSchedule.constant(p, s2).is_inactive

    def test_per_event_exact_length(self):
        s = JumpSchedule.per_event([(0.1, 1.0), (0.9, 2.0)])
        assert [a.tolist() for a in trees.jump_event_arrays(s, 3)] == [[0.1, 0.9], [1.0, 2.0]]

    def test_per_event_extras_ignored(self):
        s = JumpSchedule.per_event([(0.1, 1.0)] * 10)
        assert [a.size for a in trees.jump_event_arrays(s, 4)] == [3, 3]

    def test_per_event_too_short(self):
        s = JumpSchedule.per_event([(0.1, 1.0)] * 2)
        with pytest.raises(ValueError, match="2 entries"):
            trees.jump_event_arrays(s, 5)

    def test_per_event_inactive_detection(self):
        assert JumpSchedule.per_event([(0.0, 1.0), (0.5, 0.0)]).is_inactive
        assert not JumpSchedule.per_event([(0.0, 1.0), (0.5, 2.0)]).is_inactive

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            JumpSchedule.constant(1.2, 1.0)
        with pytest.raises(ValueError):
            JumpSchedule.per_event([(0.5, 1.0), (-0.1, 1.0)])

    def test_rejects_bad_variance(self):
        with pytest.raises(ValueError):
            JumpSchedule.constant(0.5, -1.0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            JumpSchedule("sometimes")

    def test_jump_scale_rule_names_the_largest_entry_that_can_jump(self):
        # only entries with p > 0 jump: the 1e300 entry at p = 0 is ignored
        params = YouParams(alpha=1.0)
        quiet = [(0.0, 1e300), (0.5, 1.0)]
        for schedule in (None, JumpSchedule.none(), JumpSchedule.constant(0.0, 1e300),
                         JumpSchedule.per_event(quiet)):
            analytic.check_jump_scale(params, schedule)
        with pytest.raises(ValueError, match=re.escape(
                "has no finite square at sigma_c2 = 1e+200, alpha = 1.0, sigma_a2 = 1.0")):
            analytic.check_jump_scale(params, JumpSchedule.per_event(quiet + [(0.1, 1e200)]))


class TestClassifyRegime:
    @pytest.mark.parametrize("alpha,kind,band", [
        (0.5, "critical", "half"),
        (0.5 + 1e-13, "critical", "half"),
        (0.5 - 1e-13, "critical", "half"),
        (0.4999, "slow", "below_half"),
        (0.2, "slow", "below_half"),
        (0.6, "fast", "half_to_three_quarters"),
        (0.75, "fast", "three_quarters"),
        (0.75 + 1e-10, "fast", "three_quarters"),
        (0.75 + 1e-8, "fast", "three_quarters_to_one"),
        (0.75 - 1e-8, "fast", "half_to_three_quarters"),
        (0.9, "fast", "three_quarters_to_one"),
        (1.0, "fast", "one"),
        (1.0 + 1e-13, "fast", "one"),
        (0.99, "fast", "three_quarters_to_one"),
        (1.5, "fast", "above_one"),
    ])
    def test_bands(self, alpha, kind, band):
        regime = analytic.classify_regime(alpha)
        assert regime.kind == kind
        assert regime.band == band

    @pytest.mark.parametrize("alpha", [0.0, -0.3])
    def test_rejects_nonpositive(self, alpha):
        with pytest.raises(ValueError):
            analytic.classify_regime(alpha)

    def test_unsupported_message_is_pinned(self):
        with pytest.raises(UnsupportedRegimeError) as exc:
            analytic.var_ybar_you(100, YouParams(0.4))
        assert str(exc.value) == "unsupported regime (no normal limit expected) at alpha = 0.4"
        assert isinstance(exc.value, ValueError)


class TestLaplaceHeight:
    @pytest.mark.parametrize("n", [1, 5, 64, 65, 1000])
    def test_zero_argument_is_one(self, n):
        assert analytic.laplace_height(n, 0.0) == 1.0

    def test_small_values(self):
        assert analytic.laplace_height(2, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert analytic.laplace_height(100, 1.0) == pytest.approx(1.0 / 101.0, rel=1e-12)

    def test_variance_variant(self):
        # n=2, x=1/2: b_{2,1} - b_{2,1/2}^2 = 1/3 - (8/15)^2 = 11/225
        assert analytic.laplace_height_variance(2, 0.5) == pytest.approx(
            11.0 / 225.0, rel=1e-13)
        assert analytic.laplace_height_variance(1, 1.0) == pytest.approx(
            1.0 / 12.0, rel=1e-14)

    def test_variance_nonnegative(self):
        for n in (1, 2, 10, 100, 10_000):
            for x in (0.25, 0.5, 1.0, 2.0):
                assert analytic.laplace_height_variance(n, x) >= 0.0
            assert analytic.laplace_height_variance(n, 0.0) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            analytic.laplace_height(0, 1.0)
        with pytest.raises(ValueError):
            analytic.laplace_height(2, -1.0)


class TestLaplacePairTime:
    def test_two_tips_at_one(self):
        assert analytic.laplace_pair_time(2, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-15)

    @pytest.mark.parametrize("y", [1.5, 2.0, 3.0])
    def test_two_tips_simplification(self, y):
        # the rational branch at n=2 collapses to 2/(2+y)
        assert analytic.laplace_pair_time(2, y) == pytest.approx(
            2.0 / (2.0 + y), rel=1e-13)

    def test_large_n_limit_at_two(self):
        n = 10**6
        assert n * analytic.laplace_pair_time(n, 2.0) == pytest.approx(2.0, rel=3e-6)

    @pytest.mark.parametrize("n", [2, 10, 100, 1000])
    def test_branch_continuity_from_above(self, n):
        # |d/dy E e^(-y tau)| = E tau e^(-y tau) <= 1/e on y >= 1
        base = analytic.laplace_pair_time(n, 1.0)
        assert analytic.laplace_pair_time(n, 1.0 + 1e-6) == pytest.approx(
            base, abs=5e-7)

    def test_values_inside_unit_interval(self):
        for n in (2, 3, 10, 1000):
            for y in (1.0, 1.5, 4.0, 8.0):
                v = analytic.laplace_pair_time(n, y)
                assert 0.0 < v < 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            analytic.laplace_pair_time(1, 2.0)
        with pytest.raises(UnsupportedRegimeError):
            analytic.laplace_pair_time(10, 0.9)

    @pytest.mark.parametrize("n", EXACT_NS)
    @pytest.mark.parametrize("y", DYADIC_Y)
    def test_against_fractions(self, n, y):
        exact = oracles.pair_laplace_fraction(n, y)
        assert abs(analytic.laplace_pair_time(n, y) - exact) <= 2e-15 * exact

    @pytest.mark.parametrize("n", [10**5, 10**6, 10**7])
    def test_large_n_identity_at_two(self, n):
        assert analytic.laplace_pair_time(n, 2.0) == pytest.approx(
            2.0 / (n + 2.0), rel=1e-14, abs=0.0)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 300), y=st.floats(1.0, 6.0), dy=st.floats(0.0, 3.0))
    @example(n=2, y=1.0, dy=1e-11)
    def test_decreasing_in_y(self, n, y, dy):
        assert (analytic.laplace_pair_time(n, y + dy)
                <= analytic.laplace_pair_time(n, y) + 1e-10)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 300), y=st.floats(1.0, 6.0))
    def test_decreasing_in_n(self, n, y):
        assert (analytic.laplace_pair_time(n + 1, y)
                <= analytic.laplace_pair_time(n, y) + 1e-10)


class TestMeanYbar:
    @pytest.mark.parametrize("n", [1, 5, 100])
    def test_centered_start_gives_zero(self, n):
        assert analytic.mean_ybar(n, YouParams(1.0, 1.0, 0.0)) == 0.0

    def test_single_tip_value(self):
        # alpha=1, sigma_a2=2 makes delta = x0 exactly; b_{1,1} = 1/2
        p = YouParams(alpha=1.0, sigma_a2=2.0, x0=1.0)
        assert p.delta == 1.0
        assert analytic.mean_ybar(1, p) == 0.5

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_gamma_limit(self, alpha):
        p = YouParams(alpha, 1.0, 1.0)
        n = 10**6
        scaled = float(n) ** alpha * analytic.mean_ybar(n, p) / p.delta
        assert scaled == pytest.approx(math.gamma(alpha + 1.0), rel=1e-5)

    def test_domain(self):
        with pytest.raises(ValueError):
            analytic.mean_ybar(0, YouParams(1.0))


class TestVarYbarYou:
    def test_two_tips_critical(self):
        # 1/2 + (1/2)(2/3) - 1/3 = 1/2
        assert analytic.var_ybar_you(2, YouParams(0.5)) == pytest.approx(
            0.5, rel=1e-14)

    def test_strictly_positive(self):
        for n in (2, 3, 10, 64, 65, 1000, 10**5):
            for alpha in (0.5, 0.6, 0.75, 1.0, 2.0, 5.0):
                assert analytic.var_ybar_you(n, YouParams(alpha)) > 0.0

    @pytest.mark.parametrize("alpha,limit,rel", [
        (1.0, 3.0, 1e-5),
        (2.0, 5.0 / 3.0, 1e-13),
    ])
    def test_fast_scaled_limit(self, alpha, limit, rel):
        n = 10**6
        assert n * analytic.var_ybar_you(n, YouParams(alpha)) == pytest.approx(
            limit, rel=rel)

    def test_critical_scaled_trend(self):
        # (n/ln n) sigma2 climbs to 2 with a gap whose ln n multiple is the
        # constant 3 - 2 gamma; convergence is logarithmic, so the limit is
        # checked through the gap structure rather than a naive tolerance
        ns = [10**4, 10**6, 10**9, 10**12]
        vals = [(n / math.log(n)) * analytic.var_ybar_you(n, YouParams(0.5))
                for n in ns]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(v < 2.0 for v in vals)
        assert vals[-1] > 1.92
        constant = 3.0 - 2.0 * EULER_GAMMA
        for n, v in zip(ns, vals):
            assert (2.0 - v) * math.log(n) == pytest.approx(constant, rel=5e-3)

    def test_unsupported_regime(self):
        with pytest.raises(UnsupportedRegimeError):
            analytic.var_ybar_you(100, YouParams(0.49))

    def test_next_to_critical_rate(self):
        # 60-digit value of 1/n + (1 - 1/n) pair - height at the float
        # alpha = 0.5 + 1e-10, with the sums of logs taken as log-gamma
        # differences
        value = analytic.var_ybar_you(10**6, YouParams(0.5 + 1e-10))
        assert value == pytest.approx(2.5785456415083515381e-05, rel=1e-13, abs=0.0)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 10**6), offset=st.floats(0.0, 1e-3))
    @example(n=10**6, offset=1e-10)
    @example(n=1000, offset=1e-12)
    def test_positive_and_continuous_above_critical(self, n, offset):
        # |d ln f / d alpha| <= 1 + ln n on this range for both models
        schedule = JumpSchedule.constant(0.5, 1.0)
        alpha, slope = 0.5 + offset, 1.0 + math.log(n)
        for f in (lambda a: analytic.var_ybar_you(n, YouParams(a)),
                  lambda a: analytic.var_ybar_youj(n, YouParams(a), schedule)):
            here, at_half, nearby = f(alpha), f(0.5), f(alpha + 1e-12)
            assert here > 0.0
            assert abs(here - at_half) <= (slope * (alpha - 0.5) + 1e-13) * at_half
            assert abs(nearby - here) <= (slope * 1e-12 + 1e-13) * here

    def test_domain(self):
        with pytest.raises(ValueError):
            analytic.var_ybar_you(1, YouParams(1.0))


class TestVarCondMean:
    def test_zero_for_centered_start(self):
        assert analytic.var_cond_mean_exact(10, YouParams(1.0, 1.0, 0.0)) == 0.0

    def test_single_tip_value(self):
        p = YouParams(alpha=1.0, sigma_a2=2.0, x0=1.0)
        assert analytic.var_cond_mean_exact(1, p) == pytest.approx(
            1.0 / 12.0, rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_exact_matches_asymptotic_constant_within_two_percent(self, alpha):
        p = YouParams(alpha, 1.0, 1.0)
        n = 10**5
        scaled = (analytic.var_cond_mean_exact(n, p)
                  * float(n) ** (2.0 * alpha) / p.delta ** 2)
        target = math.gamma(2.0 * alpha + 1.0) - math.gamma(alpha + 1.0) ** 2
        assert scaled == pytest.approx(target, rel=0.02)


def _vv_at(alpha, n, schedule=None):
    return analytic.asymptotic_constants(YouParams(alpha), schedule).vv.at(n)


class TestVarCondVarYou:
    def test_critical_constant(self):
        n = 1000
        expected = (8.0 * math.pi ** 2 / 6.0 + 1.0) / n ** 2
        assert _vv_at(0.5, n) == pytest.approx(expected, rel=1e-12)

    # above 3/4 the limit of n^3 vv, 16 a (4a^2 + a - 1) / ((2a-1)^2 (4a-3)(4a-1))
    @pytest.mark.parametrize("n", [100, 10**4])
    def test_alpha_one(self, n):
        assert _vv_at(1.0, n) == pytest.approx((64.0 / 3.0) * float(n) ** -3.0, rel=1e-15)

    def test_alpha_two(self):
        n = 500
        assert _vv_at(2.0, n) == \
            pytest.approx((544.0 / 315.0) * float(n) ** -3.0, rel=1e-14)

    def test_three_quarters_log_branch(self):
        n = 2000
        expected = 36.0 * float(n) ** -3.0 * math.log(n)
        assert _vv_at(0.75, n) == pytest.approx(expected, rel=1e-14)
        # the relative window around 3/4 keeps nearby arguments on the branch
        assert _vv_at(0.75 + 1e-10, n) == pytest.approx(expected, rel=1e-14)

    def test_zeta_band_constant(self):
        alpha, n = 0.6, 1000
        c = (32.0 * alpha * alpha / (2.0 - 2.0 * alpha)) \
            * special.zeta(4.0 - 4.0 * alpha) \
            + (math.gamma(4.0 * alpha + 1.0) - math.gamma(2.0 * alpha + 1.0)) ** 2
        assert _vv_at(alpha, n) == \
            pytest.approx(c * float(n) ** (-4.0 * alpha), rel=1e-12)

    def test_errors(self):
        with pytest.raises(UnsupportedRegimeError):
            analytic.asymptotic_constants(YouParams(0.4))


class TestJumpMeans:
    def test_no_jumps_no_exposure(self):
        assert analytic.jump_single_lineage_mean(50, 1.0, 0.0) == 0.0
        assert analytic.jump_pair_shared_mean(50, 1.0, 0.0) == 0.0
        assert analytic.jump_pair_shared_mean(50, 0.5, 0.0) == 0.0

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("p", [0.3, 1.0])
    def test_single_lineage_two_tips(self, alpha, p):
        assert analytic.jump_single_lineage_mean(2, alpha, p) == pytest.approx(
            p / (1.0 + alpha), rel=1e-13)

    @pytest.mark.parametrize("n", EXACT_NS)
    @pytest.mark.parametrize("y", DYADIC_Y)
    def test_pair_shared_against_fractions(self, n, y):
        exact = oracles.jump_pair_shared_fraction(n, y / 2.0, 0.5)
        got = analytic.jump_pair_shared_mean(n, y / 2.0, 0.5)
        if exact == 0:
            assert got == 0.0 and math.copysign(1.0, got) == 1.0
        else:
            assert abs(got - exact) <= 2e-15 * exact

    @pytest.mark.parametrize("alpha", [0.5, 0.6, 1.0, 2.0])
    def test_pair_shared_vanishes_at_two_tips(self, alpha):
        # a 2-tip tree has no slot whose daughter count exceeds one
        assert analytic.jump_pair_shared_mean(2, alpha, 0.7) == \
            pytest.approx(0.0, abs=1e-14)

    def test_critical_pair_refined_asymptotics(self):
        n, p = 10**6, 0.5
        value = n * analytic.jump_pair_shared_mean(n, 0.5, p)
        refined = 4.0 * p * (math.log(n) + EULER_GAMMA - 2.5)
        assert value == pytest.approx(refined, rel=1e-5)

    def test_critical_pair_ratio_trend(self):
        p = 0.5
        ratios = [n * analytic.jump_pair_shared_mean(n, 0.5, p)
                  / (4.0 * p * math.log(n))
                  for n in (10**4, 10**8, 10**12, 10**16)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert all(r < 1.0 for r in ratios)
        assert ratios[-1] > 0.94

    @pytest.mark.parametrize("alpha,p,n,rel", [
        (1.0, 0.5, 10**6, 1e-4),
        (2.0, 0.3, 10**6, 1e-4),
        (0.8, 1.0, 10**8, 2e-4),
    ])
    def test_fast_pair_scaled_limit(self, alpha, p, n, rel):
        value = n * analytic.jump_pair_shared_mean(n, alpha, p)
        assert value == pytest.approx(
            4.0 * p / (2.0 * alpha * (2.0 * alpha - 1.0)), rel=rel)

    def test_single_lineage_large_n_limit(self):
        assert analytic.jump_single_lineage_mean(10**6, 1.0, 0.5) == \
            pytest.approx(0.5, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            analytic.jump_single_lineage_mean(1, 1.0, 0.5)
        with pytest.raises(ValueError):
            analytic.jump_pair_shared_mean(10, 1.0, 1.5)
        with pytest.raises(UnsupportedRegimeError):
            analytic.jump_single_lineage_mean(10, 0.3, 0.5)


class TestVarYbarYouj:
    def test_inactive_schedule_reduces_to_jump_free(self):
        p = YouParams(1.0)
        base = analytic.var_ybar_you(100, p)
        for sch in (JumpSchedule.none(), JumpSchedule.constant(0.0, 1.0),
                    JumpSchedule.constant(0.5, 0.0)):
            assert analytic.var_ybar_youj(100, p, sch) == base

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_jumps_strictly_inflate_variance(self, alpha):
        p = YouParams(alpha)
        base = analytic.var_ybar_you(100, p)
        for prob in (0.3, 1.0):
            for s2 in (0.5, 2.0):
                sch = JumpSchedule.constant(prob, s2)
                assert analytic.var_ybar_youj(100, p, sch) > base

    def test_fast_scaled_limit(self):
        n = 10**6
        sch = JumpSchedule.constant(0.5, 1.0)
        value = n * analytic.var_ybar_youj(n, YouParams(1.0), sch)
        assert value == pytest.approx(6.0, rel=1e-5)

    def test_critical_scaled_trend(self):
        sch = JumpSchedule.constant(0.5, 1.0)
        ns = [10**4, 10**6, 10**9, 10**12]
        vals = [(n / math.log(n))
                * analytic.var_ybar_youj(n, YouParams(0.5), sch) for n in ns]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(v < 4.0 for v in vals)
        assert vals[-1] > 3.8
        gaps = [(4.0 - v) * math.log(n) for n, v in zip(ns, vals)]
        center = sum(gaps) / len(gaps)
        for g in gaps:
            assert g == pytest.approx(center, rel=0.01)

    def test_per_event_schedule_routes_to_monte_carlo(self):
        sch = JumpSchedule.per_event([(0.5, 1.0)] * 99)
        with pytest.raises(ValueError, match="Monte Carlo"):
            analytic.var_ybar_youj(100, YouParams(1.0), sch)


class TestVarCondVarYouj:
    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_all_or_nothing_falls_back_to_jump_free_rate(self, p):
        # at and below 3/4; above it the limit carries the jumps
        sch = JumpSchedule.constant(p, 1.0)
        assert _vv_at(0.6, 100, sch) == _vv_at(0.6, 100)

    def test_fast_plug_in_value(self):
        # 4 (2a)^2 sigma_c2^2 32 p(1-p) / ((4a)(4a-1)(4a-2)) n^-2 below 3/4
        n = 200
        sch = JumpSchedule.constant(0.5, 1.0)
        expected = 4.0 * 1.44 * 8.0 / (2.4 * 1.4 * 0.4) / (n * n)
        assert _vv_at(0.6, n, sch) == pytest.approx(expected, rel=1e-14)

    def test_critical_log_rate(self):
        n = 500
        sch = JumpSchedule.constant(0.5, 1.0)
        expected = 4.0 * 1.0 * 16.0 * 0.25 * math.log(n) / (n * n)
        assert _vv_at(0.5, n, sch) == pytest.approx(expected, rel=1e-14)

    def test_per_event_schedule_rejected(self):
        sch = JumpSchedule.per_event([(0.5, 1.0)] * 99)
        with pytest.raises(ValueError, match="Monte Carlo"):
            analytic.asymptotic_constants(YouParams(1.0), sch)

    def test_partial_lead_needs_only_a_finite_jump_scale_square(self):
        # (2a / sigma_a2)^2 = 1e400 overflows, but L = (2a / sigma_a2) sigma_c2 = 1e50
        params, sch = YouParams(0.6, 1.2e-200), JumpSchedule.constant(0.5, 1e-150)
        entry = analytic.asymptotic_constants(params, sch).vv.value
        assert entry == pytest.approx(4e100 * 8.0 / (2.4 * 1.4 * 0.4), rel=1e-14)

    @staticmethod
    def _squared_rate_entry(alpha, sigma_a2, p, sigma_c2):
        """The partial-probability entry with its lead formed as
        4 (2a / sigma_a2)^2 sigma_c2 sigma_c2, in the table's operation order."""
        lead = 4.0 * (2.0 * alpha / sigma_a2) ** 2 * sigma_c2 * sigma_c2
        if alpha == 0.5:
            return lead, lead * 16.0 * p * (1.0 - p)
        a4 = 4.0 * alpha
        return lead, lead * 32.0 * p * (1.0 - p) / (a4 * (a4 - 1.0) * (a4 - 2.0))

    @pytest.mark.parametrize("p", [0.5, 0.1])
    def test_partial_lead_rounds_like_the_squared_rate_form(self, p):
        # 4 L L against the squared-rate form, where both leads and entries
        # are normal doubles: the leads differ by at most 3 ulp, and each
        # rounded operation after the lead (the division above 1/2, and the
        # products with p and 1 - p at p = 0.1) can add one more
        grid = np.geomspace(1e-100, 1e100, 41).tolist()
        for alpha in np.linspace(0.5, 0.75, 11).tolist():
            slack = 3 + (alpha != 0.5) + 2 * (p != 0.5)
            for sigma_a2 in grid:
                for sigma_c2 in grid:
                    lead, old = self._squared_rate_entry(alpha, sigma_a2, p, sigma_c2)
                    if not sys.float_info.min <= min(lead, old) <= max(lead, old) < math.inf:
                        continue
                    entry = analytic.asymptotic_constants(
                        YouParams(alpha, sigma_a2), JumpSchedule.constant(p, sigma_c2)).vv.value
                    assert abs(entry - old) <= slack * math.ulp(old)

    @pytest.mark.parametrize("alpha", [0.5, 0.55, 0.6, 0.7, 0.75])
    def test_unit_scales_bit_identical_to_the_squared_rate_form(self, alpha):
        entry = analytic.asymptotic_constants(YouParams(alpha),
                                              JumpSchedule.constant(0.5, 1.0)).vv.value
        assert entry == self._squared_rate_entry(alpha, 1.0, 0.5, 1.0)[1]


class TestAsymptoticConstants:
    def test_you_fast(self):
        p = YouParams(1.0, 1.0, 2.0 ** -0.5)
        ac = analytic.asymptotic_constants(p)
        assert (ac.ev.value, ac.ev.n_power, ac.ev.log_power) == (3.0, -1.0, 0)
        assert ac.vv.value == pytest.approx(64.0 / 3.0, rel=1e-15)
        assert (ac.vv.n_power, ac.vv.log_power) == (-3.0, 0)
        assert ac.regime.band == "one"

    def test_you_critical(self):
        ac = analytic.asymptotic_constants(YouParams(0.5))
        assert (ac.ev.value, ac.ev.n_power, ac.ev.log_power) == (2.0, -1.0, 1)
        assert ac.vv.value == pytest.approx(8.0 * math.pi ** 2 / 6.0 + 1.0,
                                            rel=1e-12)
        assert (ac.vv.n_power, ac.vv.log_power) == (-2.0, 0)

    def test_youj_partial_probability(self):
        # above 3/4 the limit c0 + L p C1 + L^2 (A p + B p^2), L = 2 here
        sch = JumpSchedule.constant(0.5, 1.0)
        ac = analytic.asymptotic_constants(YouParams(1.0), sch)
        assert ac.ev.value == pytest.approx(6.0, rel=1e-14)
        assert ac.vv.value == pytest.approx(209.0, rel=1e-14)
        assert (ac.vv.n_power, ac.vv.log_power) == (-3.0, 0)
        assert not (ac.vv_too_small or ac.nonconvergent)

    def test_youj_critical_partial_probability(self):
        sch = JumpSchedule.constant(0.5, 1.0)
        ac = analytic.asymptotic_constants(YouParams(0.5), sch)
        assert ac.ev.value == pytest.approx(4.0, rel=1e-14)
        assert (ac.vv.value, ac.vv.n_power, ac.vv.log_power) == (16.0, -2.0, 1)

    def test_youj_certain_jumps_keep_jump_free_vv_rate(self):
        sch = JumpSchedule.constant(1.0, 1.0)
        ac = analytic.asymptotic_constants(YouParams(1.0), sch)
        assert ac.ev.value == pytest.approx(9.0, rel=1e-14)
        assert ac.vv.value == pytest.approx(526.0, rel=1e-14)
        assert (ac.vv.n_power, ac.vv_too_small) == (-3.0, False)
        # at and below 3/4 the jump-free entry, known to be too small
        ac = analytic.asymptotic_constants(YouParams(0.6), sch)
        assert ac.ev.value == pytest.approx(33.0, rel=1e-14)
        assert ac.vv == analytic.asymptotic_constants(YouParams(0.6)).vv
        assert ac.vv_too_small

    def test_inactive_schedule_is_no_schedule(self):
        inactive = (JumpSchedule.none(), JumpSchedule.constant(0.0, 1.0),
                    JumpSchedule.constant(0.5, 0.0),
                    JumpSchedule.per_event([(0.0, 1.0), (0.5, 0.0)]))
        for alpha in (0.5, 0.75, 1.0, 2.0):
            params = YouParams(alpha, 1.0, 0.5)
            base = (analytic.asymptotic_constants(params),
                    analytic.limit_distribution(params),
                    analytic.bound_point(params, None, 1000))
            for sch in inactive:
                assert (analytic.asymptotic_constants(params, sch),
                        analytic.limit_distribution(params, sch),
                        analytic.bound_point(params, sch, 1000)) == base

    def test_rated_constant_evaluation(self):
        rc = analytic.RatedConstant(2.0, -1.0, 1)
        assert rc.at(100) == pytest.approx(0.02 * math.log(100.0), rel=1e-15)


class TestIsNonconvergent:
    """The plateau rule, read as `asymptotic_constants(...).nonconvergent`."""

    def test_truth_table(self):
        def nonconvergent(params, schedule):
            return analytic.asymptotic_constants(params, schedule).nonconvergent

        p = YouParams(1.0)
        # a partial jump probability only on (1/2, 3/4]: above it vv is n^-3
        assert nonconvergent(YouParams(0.6), JumpSchedule.constant(0.5, 1.0))
        assert nonconvergent(YouParams(0.75), JumpSchedule.constant(0.5, 1.0))
        assert not nonconvergent(p, JumpSchedule.constant(0.5, 1.0))
        assert not nonconvergent(p, None)
        assert not nonconvergent(p, JumpSchedule.constant(1.0, 1.0))
        assert not nonconvergent(p, JumpSchedule.constant(0.0, 1.0))
        assert not nonconvergent(p, JumpSchedule.constant(0.5, 0.0))
        assert not nonconvergent(YouParams(0.5), JumpSchedule.constant(0.5, 1.0))
        # no rate table: refused, not read as convergent
        with pytest.raises(analytic.PerEventScheduleError):
            nonconvergent(p, JumpSchedule.per_event([(0.5, 1.0)] * 99))
        with pytest.raises(UnsupportedRegimeError):
            nonconvergent(YouParams(0.3), None)


class TestCriticalSecondOrder:
    """At alpha = 1/2 the mean conditional variance is (2 H_n - 3 + 3/(n+1)) / n,
    and with jumps (p = 1/2, sigma_c2 = 1) (4 H_n - 7 + 7/(n+1)) / n: the
    identities behind criterion 4c, checked against Fraction H_n."""

    @pytest.mark.parametrize("n", [2, 3, 7, 50, 57, 64, 65, 300, 1000])
    def test_identities(self, n):
        h = oracles.harmonic_fraction(n)
        half = YouParams(0.5)
        you = (2 * h - 3 + Fraction(3, n + 1)) / n
        youj = (4 * h - 7 + Fraction(7, n + 1)) / n
        # measured over every n <= 1000: at most 6 ulp (jump-free, n = 57) and
        # 5 ulp (jumps, n = 50) of the exact value
        for got, exact in ((analytic.var_ybar_you(n, half), you),
                           (analytic.var_ybar_youj(n, half, JumpSchedule.constant(0.5, 1.0)),
                            youj)):
            assert abs(got - float(exact)) <= 16 * math.ulp(float(exact))


PER_EVENT_MSG = ("per-event jump schedules have no closed form; run them through "
                 "the Monte Carlo harness instead")


class TestClosedFormGap:
    """Where the closed forms refuse: every public closed form that needs the
    gate raises the same error, with the same message and reason."""

    def test_rule(self):
        per_event = JumpSchedule.per_event([(0.5, 1.0)] * 9)
        base = analytic.var_ybar_you(10, YouParams(1.0))
        assert analytic.var_ybar_youj(10, YouParams(1.0), None) == base
        assert analytic.var_ybar_youj(
            10, YouParams(1.0), JumpSchedule.per_event([(0.0, 1.0)] * 9)) == base
        assert analytic.var_ybar_youj(10, YouParams(0.5), JumpSchedule.constant(0.5, 1.0)) > 0.0
        with pytest.raises(analytic.PerEventScheduleError) as raised:
            analytic.var_ybar_youj(10, YouParams(1.0), per_event)
        assert str(raised.value) == PER_EVENT_MSG
        assert raised.value.reason == "per-event schedules have no closed-form bounds"
        with pytest.raises(UnsupportedRegimeError) as raised:
            analytic.var_ybar_youj(10, YouParams(0.3), None)
        assert str(raised.value) == f"{analytic.UNSUPPORTED_REGIME_MSG} at alpha = 0.3"
        assert raised.value.reason == "no normal limit expected below the critical rate"
        # a per-event schedule is named first
        with pytest.raises(analytic.PerEventScheduleError):
            analytic.var_ybar_youj(10, YouParams(0.3), per_event)

    def test_refusals_raise_the_gap(self):
        per_event = JumpSchedule.per_event([(0.5, 1.0)] * 99)
        for params, schedule, error, message in (
                (YouParams(1.0), per_event, analytic.PerEventScheduleError, PER_EVENT_MSG),
                (YouParams(0.3), None, UnsupportedRegimeError,
                 f"{analytic.UNSUPPORTED_REGIME_MSG} at alpha = 0.3")):
            for refusal in (lambda: analytic.asymptotic_constants(params, schedule),
                            lambda: analytic.limit_distribution(params, schedule),
                            lambda: analytic.var_ybar_youj(100, params, schedule),
                            lambda: analytic.bound_point(params, schedule, 100)):
                with pytest.raises(error, match=f"^{re.escape(message)}$"):
                    refusal()

    @pytest.mark.parametrize("inside,outside", CRITICAL_EDGES)
    def test_critical_window_edges(self, inside, outside):
        # the pair-time and jump closed forms refuse exactly the rates below
        # the critical window, and are continuous into it from either side
        assert analytic.classify_regime(inside).kind == "critical"
        schedule = JumpSchedule.constant(0.5, 1.0)
        n = 1000
        half = YouParams(0.5)
        for alpha in (inside, outside):
            params = YouParams(alpha)
            calls = (lambda: analytic.var_ybar_you(n, params),
                     lambda: analytic.var_ybar_youj(n, params, schedule),
                     lambda: analytic.bound_point(params, schedule, n),
                     lambda: analytic.laplace_pair_time(n, 2.0 * alpha),
                     lambda: analytic.jump_pair_shared_mean(n, alpha, 0.5))
            if analytic.classify_regime(alpha).kind == "slow":
                assert alpha == outside < 0.5
                for call in calls:
                    with pytest.raises(UnsupportedRegimeError):
                        call()
                continue
            assert analytic.laplace_pair_time(n, 2.0 * alpha) == pytest.approx(
                analytic.laplace_pair_time(n, 1.0), rel=1e-10, abs=0.0)
            assert analytic.jump_pair_shared_mean(n, alpha, 0.5) == pytest.approx(
                analytic.jump_pair_shared_mean(n, 0.5, 0.5), rel=1e-10, abs=0.0)
            assert analytic.var_ybar_you(n, params) == pytest.approx(
                analytic.var_ybar_you(n, half), rel=1e-10, abs=0.0)
            assert analytic.var_ybar_youj(n, params, schedule) == pytest.approx(
                analytic.var_ybar_youj(n, half, schedule), rel=1e-10, abs=0.0)
            total = analytic.bound_point(params, schedule, n)[stein.KOLMOGOROV].total
            assert 0.0 < total < math.inf


class TestBoundPoint:
    def test_notes_record_assembly(self):
        rep = analytic.bound_point(YouParams(1.0, 1.0, 0.5), None, 1000)[stein.KOLMOGOROV]
        assert "regime=fast/one" in rep.notes
        assert "ev exact" in rep.notes
        assert "ve exact" in rep.notes
        assert "vv limit, above exact" in rep.notes
        assert "non-convergent regime" not in rep.notes
        assert len(rep.terms) == 3
        assert rep.total > 0.0
        rep = analytic.bound_point(YouParams(0.6, 1.0, 0.5), None, 1000)[stein.KOLMOGOROV]
        assert "vv leading-order" in rep.notes

    def test_large_rate_is_finite(self):
        # Gamma(2a + 1) overflows above a = 85.3: no bound ingredient may need it
        for rep in analytic.bound_point(YouParams(100.0, 1.0, 1.0), None, 1000).values():
            assert 0.0 < rep.total < math.inf

    def test_partial_jumps_with_overflowing_rate_square_are_finite(self):
        # the jump scale L = 1e50 has a finite square; (2a / sigma_a2)^2 has none
        point = analytic.bound_point(YouParams(0.6, 1.2e-200), JumpSchedule.constant(0.5, 1e-150),
                                     100)
        for rep in point.values():
            assert 0.0 < rep.total < math.inf
            assert all(math.isfinite(v) for v in rep.term_values())

    def test_wasserstein_has_four_terms(self):
        rep = analytic.bound_point(YouParams(1.0), None, 1000)[stein.WASSERSTEIN]
        assert len(rep.terms) == 4

    def test_nonconvergent_flagged(self):
        rep = analytic.bound_point(YouParams(0.6), JumpSchedule.constant(0.5, 1.0),
                                   1000)[stein.KOLMOGOROV]
        assert "non-convergent regime" in rep.notes

    # the ids name the model each schedule belongs to; jumps with p = 1 at
    # and below 3/4
    @pytest.mark.parametrize("alpha,schedule", [
        pytest.param(0.5, JumpSchedule.constant(1.0, 1.0), id="YOUj-0.5-schedule0"),
        pytest.param(0.6, JumpSchedule.constant(1.0, 0.5), id="YOUj-0.6-schedule5"),
        pytest.param(0.75, JumpSchedule.constant(1.0, 1.0), id="YOUj-0.75-schedule2"),
    ])
    def test_vv_known_too_small_is_noted(self, alpha, schedule):
        for rep in analytic.bound_point(YouParams(alpha), schedule, 1000).values():
            assert analytic.VV_TOO_SMALL_NOTE in rep.notes
            assert "vv leading-order" in rep.notes

    @pytest.mark.parametrize("alpha,schedule", [
        pytest.param(0.5, None, id="YOU-0.5-None"),
        pytest.param(0.6, None, id="YOU-0.6-None"),
        pytest.param(0.75, None, id="YOU-0.75-None"),
        pytest.param(0.75 + 1e-10, None, id="YOU-0.7500000001-None"),
        pytest.param(1.0, JumpSchedule.constant(0.5, 1.0), id="YOUj-1.0-schedule4"),
        pytest.param(2.0, JumpSchedule.constant(0.999, 1.0), id="YOUj-2.0-schedule5"),
        pytest.param(0.6, JumpSchedule.constant(0.1, 1.0), id="YOUj-0.6-schedule6"),
        # above 3/4 vv is the limit, which lies above the exact vv, also at p = 1
        pytest.param(0.9, None, id="YOU-0.9-None"),
        pytest.param(1.0, None, id="YOU-1.0-None"),
        pytest.param(2.0, None, id="YOU-2.0-None"),
        pytest.param(1.2, JumpSchedule.constant(0.0, 1.0), id="YOUj-1.2-schedule10"),
        pytest.param(1.0, JumpSchedule.constant(1.0, 1.0), id="YOUj-1.0-schedule11"),
    ])
    def test_vv_not_known_too_small_is_not_noted(self, alpha, schedule):
        rep = analytic.bound_point(YouParams(alpha), schedule, 1000)[stein.KOLMOGOROV]
        assert analytic.VV_TOO_SMALL_NOTE not in rep.notes
        assert ("vv limit, above exact" in rep.notes) == (alpha > 0.75 + 1e-9)

    @pytest.mark.parametrize("alpha", [0.5, 0.6, 0.75, 0.9, 1.0, 2.0])
    @pytest.mark.parametrize("schedule", [
        pytest.param(None, id="YOU-None"),
        pytest.param(JumpSchedule.constant(0.0, 1.0), id="YOUj-schedule1"),
        pytest.param(JumpSchedule.constant(0.5, 1.0), id="YOUj-schedule2"),
        pytest.param(JumpSchedule.constant(1.0, 1.0), id="YOUj-schedule3"),
    ])
    def test_reads_the_rate_table(self, alpha, schedule):
        n = 1000
        params = YouParams(alpha, 1.0, 0.5)
        table = analytic.asymptotic_constants(params, schedule)
        ev = analytic.var_ybar_youj(n, params, schedule)
        rep = analytic.bound_point(params, schedule, n)[stein.KOLMOGOROV]
        assert rep.terms[0] == ("sqrt(vv)/ev", math.sqrt(table.vv.at(n)) / ev)
        assert (analytic.VV_TOO_SMALL_NOTE in rep.notes) == table.vv_too_small
        assert ("non-convergent regime" in rep.notes) == table.nonconvergent
        if table.nonconvergent:
            with pytest.raises(ValueError, match="non-convergent"):
                analytic.limit_distribution(params, schedule)
        else:
            assert analytic.limit_distribution(params, schedule).variance \
                == table.ev.value

    def test_one_assembly_for_both_distances(self):
        point = analytic.bound_point(YouParams(1.0, 1.0, 0.5), None, 1000)
        assert list(point) == [stein.KOLMOGOROV, stein.WASSERSTEIN]
        assert all(rep.distance == d for d, rep in point.items())
        dk, dw = point.values()
        assert dk.notes == dw.notes
        # ve/ev and sqrt(2/pi) sqrt(ve) vv^1/4 / ev: the same ingredients
        assert dk.terms[1:] == dw.terms[2:]

    def test_slow_regime_rejected(self):
        with pytest.raises(UnsupportedRegimeError):
            analytic.bound_point(YouParams(0.4), None, 100)

    def test_active_per_event_schedule_rejected(self):
        sch = JumpSchedule.per_event([(0.5, 1.0)] * 99)
        with pytest.raises(ValueError, match="Monte Carlo"):
            analytic.bound_point(YouParams(1.0), sch, 100)

    @pytest.mark.parametrize("n", [1, 0])
    def test_single_tip_rejected(self, n):
        with pytest.raises(ValueError, match=f"at least 2 tips, got n = {n}"):
            analytic.bound_point(YouParams(1.0), None, n)

    def test_largest_representable_rate_is_finite(self):
        for rep in analytic.bound_point(YouParams(1e102), None, 2).values():
            assert 0.0 < rep.total < math.inf

    def test_every_rate_gets_bounds_or_a_message(self):
        # 400 log-spaced rates up to 1e300: from about 1.2e17 the Stirling form
        # of the height transform cancelled to a negative sum, which ended in an
        # OverflowError or a negative ev; vv, about n^-3 / alpha above 3/4, is
        # no normal double where n^3 alpha exceeds about 4.5e307
        schedules = (None, JumpSchedule.constant(0.5, 1.0), JumpSchedule.constant(1.0, 1.0))
        for alpha in np.geomspace(0.5, 1e300, 400).tolist():
            for n in (2, 3, 10, 100, 10**3, 10**5, 10**7):
                for schedule in schedules:
                    try:
                        point = analytic.bound_point(YouParams(alpha, 1.0, 1.0), schedule, n)
                    except ValueError as exc:
                        assert f"alpha = {alpha!r}" in str(exc)
                        continue
                    for rep in point.values():
                        assert 0.0 < rep.total < math.inf
                        assert all(math.isfinite(v) for v in rep.term_values())


class TestBoundCurve:
    def test_grid_validation(self):
        p = YouParams(1.0)
        with pytest.raises(ValueError):
            analytic.bound_curve(p, None, [100, 100])
        with pytest.raises(ValueError):
            analytic.bound_curve(p, None, [200, 100])
        with pytest.raises(ValueError):
            analytic.bound_curve(p, None, [1, 10])

    @pytest.mark.parametrize("alpha", [0.5, 0.6, 0.75, 0.9, 1.0, 2.0])
    @pytest.mark.parametrize("distance", [stein.KOLMOGOROV, stein.WASSERSTEIN])
    def test_jump_free_totals_strictly_decreasing(self, alpha, distance):
        grid = sorted(set(int(x) for x in np.geomspace(100, 10**6, 9)))
        params = YouParams(alpha, 1.0, 2.0 ** -0.5)
        totals = [r[distance].total for r in analytic.bound_curve(params, None, grid)]
        assert all(b < a for a, b in zip(totals, totals[1:]))

    def test_one_rate_table_per_curve(self, monkeypatch):
        calls = []
        zeta = special.zeta

        def counted_zeta(s):
            calls.append(s)
            return zeta(s)

        monkeypatch.setattr(special, "zeta", counted_zeta)
        analytic.asymptotic_constants.cache_clear()
        grid = np.unique(np.round(np.logspace(2, 7, 200)).astype(int))
        analytic.bound_curve(YouParams(0.6), None, grid)
        assert len(calls) == 1

    def test_partial_jump_probability_plateaus(self):
        # at 3/4, where ev nears its limit fastest of the plateau's rates
        params = YouParams(0.75, 1.0, 0.0)
        sch = JumpSchedule.constant(0.5, 1.0)
        reps = [r[stein.KOLMOGOROV]
                for r in analytic.bound_curve(params, sch, [10**3, 10**4, 10**5, 10**6])]
        totals = [r.total for r in reps]
        assert totals[-1] / totals[1] > 0.97
        assert 0.3 < totals[-1] < 0.5
        assert all("non-convergent regime" in r.notes for r in reps)

    def test_wasserstein_to_kolmogorov_ratio_rate(self):
        # at alpha=1 the two distances decay as n^(-3/4) vs n^(-1/2)
        params = YouParams(1.0, 1.0, 2.0 ** -0.5)
        ns = [10**3, 10**4, 10**5, 10**6]
        curve = analytic.bound_curve(params, None, ns)
        dk = [r[stein.KOLMOGOROV].total for r in curve]
        dw = [r[stein.WASSERSTEIN].total for r in curve]
        slope = _slope(ns, [w / k for w, k in zip(dw, dk)])
        assert slope == pytest.approx(-0.25, abs=0.05)


class TestLimitDistribution:
    def test_jump_free_fast(self):
        lim = analytic.limit_distribution(YouParams(1.0))
        assert lim.scaling == "sqrt(n)"
        assert lim.variance == pytest.approx(3.0, rel=1e-15)

    def test_jump_free_critical(self):
        lim = analytic.limit_distribution(YouParams(0.5))
        assert lim.scaling == "sqrt(n/log n)"
        assert lim.variance == pytest.approx(2.0, rel=1e-15)

    def test_jumps_critical(self):
        lim = analytic.limit_distribution(YouParams(0.5), JumpSchedule.constant(0.5, 1.0))
        assert lim.scaling == "sqrt(n/log n)"
        assert lim.variance == pytest.approx(4.0, rel=1e-15)

    def test_jumps_certain_fast(self):
        lim = analytic.limit_distribution(YouParams(1.0), JumpSchedule.constant(1.0, 1.0))
        assert lim.scaling == "sqrt(n)"
        assert lim.variance == pytest.approx(9.0, rel=1e-15)

    def test_partial_jump_probability_has_no_limit_statement(self):
        with pytest.raises(ValueError, match="non-convergent"):
            analytic.limit_distribution(YouParams(0.6), JumpSchedule.constant(0.5, 1.0))

    def test_partial_jump_probability_above_three_quarters(self):
        lim = analytic.limit_distribution(YouParams(1.0), JumpSchedule.constant(0.5, 1.0))
        assert (lim.scaling, lim.variance) == ("sqrt(n)", 6.0)

    def test_per_event_schedule_rejected(self):
        with pytest.raises(ValueError, match="Monte Carlo"):
            analytic.limit_distribution(YouParams(1.0), JumpSchedule.per_event([(0.5, 1.0)] * 9))

    def test_slow_regime_rejected(self):
        with pytest.raises(UnsupportedRegimeError):
            analytic.limit_distribution(YouParams(0.3))

    def test_rates_beyond_the_vv_entry_keep_their_limit(self):
        # only the ev entry is read, and it stays finite where vv does not
        lim = analytic.limit_distribution(YouParams(1e300))
        assert (lim.scaling, lim.variance) == ("sqrt(n)", 1.0)
        # the jump scale 2e300 has no finite square, so the vv entry is inf
        jumps = JumpSchedule.constant(0.5, 1.0)
        assert analytic.asymptotic_constants(YouParams(1e300), jumps).vv.value == math.inf
        lim = analytic.limit_distribution(YouParams(1e300), jumps)
        assert (lim.scaling, lim.variance) == ("sqrt(n)", 2.0)
