"""Closed forms, asymptotics, and bound curves for the OU-on-Yule models."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from youbounds import analytic, special, stein
from youbounds.analytic import (
    JumpSchedule,
    UnsupportedRegimeError,
    YouParams,
)

EULER_GAMMA = 0.5772156649015328606


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


class TestJumpSchedule:
    def test_none_is_inactive(self):
        s = JumpSchedule.none()
        assert s.is_inactive
        assert s.event_params(4) == ((0.0, 0.0),) * 3

    def test_constant_expansion(self):
        s = JumpSchedule.constant(0.5, 1.3)
        assert not s.is_inactive
        assert s.event_params(3) == ((0.5, 1.3), (0.5, 1.3))

    @pytest.mark.parametrize("p,s2", [(0.0, 1.0), (0.5, 0.0)])
    def test_constant_without_effect_is_inactive(self, p, s2):
        assert JumpSchedule.constant(p, s2).is_inactive

    def test_per_event_exact_length(self):
        s = JumpSchedule.per_event([(0.1, 1.0), (0.9, 2.0)])
        assert s.event_params(3) == ((0.1, 1.0), (0.9, 2.0))

    def test_per_event_extras_ignored(self):
        s = JumpSchedule.per_event([(0.1, 1.0)] * 10)
        assert len(s.event_params(4)) == 3

    def test_per_event_too_short(self):
        s = JumpSchedule.per_event([(0.1, 1.0)] * 2)
        with pytest.raises(ValueError, match="2 entries"):
            s.event_params(5)

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
        assert str(exc.value) == "unsupported regime (no normal limit expected)"
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

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 300), y=st.floats(1.0, 6.0), dy=st.floats(0.0, 3.0))
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


def _vv_at(model, alpha, n, schedule=None):
    return analytic.asymptotic_constants(model, YouParams(alpha), schedule).vv.at(n)


class TestVarCondVarYou:
    def test_critical_constant(self):
        n = 1000
        expected = (8.0 * math.pi ** 2 / 6.0 + 1.0) / n ** 2
        assert _vv_at("YOU", 0.5, n) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n", [100, 10**4])
    def test_alpha_one(self, n):
        assert _vv_at("YOU", 1.0, n) == pytest.approx(16.0 * float(n) ** -3.0, rel=1e-15)

    def test_alpha_two(self):
        n = 500
        assert _vv_at("YOU", 2.0, n) == \
            pytest.approx((128.0 / 90.0) * float(n) ** -3.0, rel=1e-14)

    def test_three_quarters_log_branch(self):
        n = 2000
        expected = 36.0 * float(n) ** -3.0 * math.log(n)
        assert _vv_at("YOU", 0.75, n) == pytest.approx(expected, rel=1e-14)
        # the relative window around 3/4 keeps nearby arguments on the branch
        assert _vv_at("YOU", 0.75 + 1e-10, n) == pytest.approx(expected, rel=1e-14)

    def test_zeta_band_constant(self):
        alpha, n = 0.6, 1000
        c = (32.0 * alpha * alpha / (2.0 - 2.0 * alpha)) \
            * special.zeta(4.0 - 4.0 * alpha) \
            + (math.gamma(4.0 * alpha + 1.0) - math.gamma(2.0 * alpha + 1.0)) ** 2
        assert _vv_at("YOU", alpha, n) == \
            pytest.approx(c * float(n) ** (-4.0 * alpha), rel=1e-12)

    def test_errors(self):
        with pytest.raises(UnsupportedRegimeError):
            analytic.asymptotic_constants("YOU", YouParams(0.4))


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
        sch = JumpSchedule.constant(p, 1.0)
        assert _vv_at("YOUj", 1.0, 100, sch) == _vv_at("YOU", 1.0, 100)

    def test_fast_plug_in_value(self):
        n = 200
        sch = JumpSchedule.constant(0.5, 1.0)
        assert _vv_at("YOUj", 1.0, n, sch) == pytest.approx((16.0 / 3.0) / (n * n), rel=1e-14)

    def test_critical_log_rate(self):
        n = 500
        sch = JumpSchedule.constant(0.5, 1.0)
        expected = 4.0 * 1.0 * 16.0 * 0.25 * math.log(n) / (n * n)
        assert _vv_at("YOUj", 0.5, n, sch) == pytest.approx(expected, rel=1e-14)

    def test_per_event_schedule_rejected(self):
        sch = JumpSchedule.per_event([(0.5, 1.0)] * 99)
        with pytest.raises(ValueError, match="Monte Carlo"):
            analytic.asymptotic_constants("YOUj", YouParams(1.0), sch)


class TestAsymptoticConstants:
    def test_you_fast(self):
        p = YouParams(1.0, 1.0, 2.0 ** -0.5)
        ac = analytic.asymptotic_constants("YOU", p)
        assert (ac.ev.value, ac.ev.n_power, ac.ev.log_power) == (3.0, -1.0, 0)
        assert ac.ve.value == pytest.approx(p.delta ** 2, rel=1e-12)
        assert (ac.ve.n_power, ac.ve.log_power) == (-2.0, 0)
        assert (ac.vv.value, ac.vv.n_power, ac.vv.log_power) == (16.0, -3.0, 0)
        assert ac.regime.band == "one"

    def test_you_critical(self):
        ac = analytic.asymptotic_constants("YOU", YouParams(0.5))
        assert (ac.ev.value, ac.ev.n_power, ac.ev.log_power) == (2.0, -1.0, 1)
        assert ac.vv.value == pytest.approx(8.0 * math.pi ** 2 / 6.0 + 1.0,
                                            rel=1e-12)
        assert (ac.vv.n_power, ac.vv.log_power) == (-2.0, 0)

    def test_youj_partial_probability(self):
        sch = JumpSchedule.constant(0.5, 1.0)
        ac = analytic.asymptotic_constants("YOUj", YouParams(1.0), sch)
        assert ac.ev.value == pytest.approx(6.0, rel=1e-14)
        assert ac.vv.value == pytest.approx(16.0 / 3.0, rel=1e-14)
        assert (ac.vv.n_power, ac.vv.log_power) == (-2.0, 0)

    def test_youj_critical_partial_probability(self):
        sch = JumpSchedule.constant(0.5, 1.0)
        ac = analytic.asymptotic_constants("YOUj", YouParams(0.5), sch)
        assert ac.ev.value == pytest.approx(4.0, rel=1e-14)
        assert (ac.vv.value, ac.vv.n_power, ac.vv.log_power) == (16.0, -2.0, 1)

    def test_youj_certain_jumps_keep_jump_free_vv_rate(self):
        sch = JumpSchedule.constant(1.0, 1.0)
        ac = analytic.asymptotic_constants("YOUj", YouParams(1.0), sch)
        assert ac.ev.value == pytest.approx(9.0, rel=1e-14)
        assert (ac.vv.value, ac.vv.n_power) == (16.0, -3.0)

    def test_inactive_schedule_is_no_schedule(self):
        base = analytic.asymptotic_constants("YOU", YouParams(1.0))
        for sch in (JumpSchedule.constant(0.5, 0.0),
                    JumpSchedule.per_event([(0.0, 1.0), (0.5, 0.0)])):
            assert analytic.asymptotic_constants("YOUj", YouParams(1.0), sch) == base

    def test_rated_constant_evaluation(self):
        rc = analytic.RatedConstant(2.0, -1.0, 1)
        assert rc.at(100) == pytest.approx(0.02 * math.log(100.0), rel=1e-15)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            analytic.asymptotic_constants("BM", YouParams(1.0))
        with pytest.raises(ValueError):
            analytic.asymptotic_constants(
                "YOU", YouParams(1.0), JumpSchedule.constant(0.5, 1.0))
        analytic.asymptotic_constants(
            "YOU", YouParams(1.0), JumpSchedule.constant(0.0, 1.0))


class TestIsNonconvergent:
    def test_truth_table(self):
        p = YouParams(1.0)
        assert analytic.is_nonconvergent(
            "YOUj", p, JumpSchedule.constant(0.5, 1.0))
        assert not analytic.is_nonconvergent("YOU", p, None)
        assert not analytic.is_nonconvergent(
            "YOUj", p, JumpSchedule.constant(1.0, 1.0))
        assert not analytic.is_nonconvergent(
            "YOUj", p, JumpSchedule.constant(0.0, 1.0))
        assert not analytic.is_nonconvergent(
            "YOUj", p, JumpSchedule.constant(0.5, 0.0))
        assert not analytic.is_nonconvergent(
            "YOUj", YouParams(0.5), JumpSchedule.constant(0.5, 1.0))
        assert not analytic.is_nonconvergent(
            "YOUj", p, JumpSchedule.per_event([(0.5, 1.0)] * 99))
        assert not analytic.is_nonconvergent("YOUj", p, None)


class TestBoundPoint:
    def test_notes_record_assembly(self):
        rep = analytic.bound_point(
            "YOU", YouParams(1.0, 1.0, 0.5), None, stein.KOLMOGOROV, 1000)
        assert "regime=fast/one" in rep.notes
        assert "ev exact" in rep.notes
        assert "ve exact" in rep.notes
        assert "vv leading-order" in rep.notes
        assert "non-convergent regime" not in rep.notes
        assert len(rep.terms) == 3
        assert rep.total > 0.0

    def test_wasserstein_has_four_terms(self):
        rep = analytic.bound_point(
            "YOU", YouParams(1.0), None, stein.WASSERSTEIN, 1000)
        assert len(rep.terms) == 4

    def test_nonconvergent_flagged(self):
        rep = analytic.bound_point(
            "YOUj", YouParams(1.0), JumpSchedule.constant(0.5, 1.0),
            stein.KOLMOGOROV, 1000)
        assert "non-convergent regime" in rep.notes

    @pytest.mark.parametrize("model,alpha,schedule", [
        ("YOU", 0.9, None),
        ("YOU", 1.0, None),
        ("YOU", 2.0, None),
        ("YOUj", 1.2, JumpSchedule.constant(0.0, 1.0)),
        ("YOUj", 1.0, JumpSchedule.constant(1.0, 1.0)),
        ("YOUj", 0.6, JumpSchedule.constant(1.0, 0.5)),
    ])
    def test_vv_known_too_small_is_noted(self, model, alpha, schedule):
        for distance in (stein.KOLMOGOROV, stein.WASSERSTEIN):
            rep = analytic.bound_point(model, YouParams(alpha), schedule, distance, 1000)
            assert analytic.VV_TOO_SMALL_NOTE in rep.notes
            assert "vv leading-order" in rep.notes

    @pytest.mark.parametrize("model,alpha,schedule", [
        ("YOU", 0.5, None),
        ("YOU", 0.6, None),
        ("YOU", 0.75, None),
        ("YOU", 0.75 + 1e-10, None),
        ("YOUj", 1.0, JumpSchedule.constant(0.5, 1.0)),
        ("YOUj", 2.0, JumpSchedule.constant(0.999, 1.0)),
        ("YOUj", 0.6, JumpSchedule.constant(0.1, 1.0)),
    ])
    def test_vv_not_known_too_small_is_not_noted(self, model, alpha, schedule):
        rep = analytic.bound_point(model, YouParams(alpha), schedule, stein.KOLMOGOROV, 1000)
        assert analytic.VV_TOO_SMALL_NOTE not in rep.notes

    @pytest.mark.parametrize("alpha", [0.5, 0.6, 0.75, 0.9, 1.0, 2.0])
    @pytest.mark.parametrize("model,schedule", [
        ("YOU", None),
        ("YOUj", JumpSchedule.constant(0.0, 1.0)),
        ("YOUj", JumpSchedule.constant(0.5, 1.0)),
        ("YOUj", JumpSchedule.constant(1.0, 1.0)),
    ])
    def test_reads_the_rate_table(self, alpha, model, schedule):
        n = 1000
        params = YouParams(alpha, 1.0, 0.5)
        table = analytic.asymptotic_constants(model, params, schedule)
        if model == "YOU":
            ev = analytic.var_ybar_you(n, params)
        else:
            ev = analytic.var_ybar_youj(n, params, schedule)
        rep = analytic.bound_point(model, params, schedule, stein.KOLMOGOROV, n)
        assert rep.terms[0] == ("sqrt(vv)/ev", math.sqrt(table.vv.at(n)) / ev)
        assert (analytic.VV_TOO_SMALL_NOTE in rep.notes) == table.vv_too_small
        assert ("non-convergent regime" in rep.notes) == table.nonconvergent
        if table.nonconvergent:
            with pytest.raises(ValueError, match="non-convergent"):
                analytic.limit_distribution(model, params, schedule)
        else:
            assert analytic.limit_distribution(model, params, schedule).variance \
                == table.ev.value

    def test_distance_validation(self):
        with pytest.raises(ValueError):
            analytic.bound_point("YOU", YouParams(1.0), None, "hellinger", 100)

    def test_slow_regime_rejected(self):
        with pytest.raises(UnsupportedRegimeError):
            analytic.bound_point("YOU", YouParams(0.4), None, stein.KOLMOGOROV, 100)

    def test_active_per_event_schedule_rejected(self):
        sch = JumpSchedule.per_event([(0.5, 1.0)] * 99)
        with pytest.raises(ValueError, match="Monte Carlo"):
            analytic.bound_point("YOUj", YouParams(1.0), sch,
                                 stein.KOLMOGOROV, 100)

    def test_you_with_active_schedule_rejected(self):
        with pytest.raises(ValueError, match="no jump schedule"):
            analytic.bound_point("YOU", YouParams(1.0),
                                 JumpSchedule.constant(0.5, 1.0),
                                 stein.KOLMOGOROV, 100)


class TestBoundCurve:
    def test_grid_validation(self):
        p = YouParams(1.0)
        with pytest.raises(ValueError):
            analytic.bound_curve("YOU", p, None, stein.KOLMOGOROV, [100, 100])
        with pytest.raises(ValueError):
            analytic.bound_curve("YOU", p, None, stein.KOLMOGOROV, [200, 100])
        with pytest.raises(ValueError):
            analytic.bound_curve("YOU", p, None, stein.KOLMOGOROV, [1, 10])

    @pytest.mark.parametrize("alpha", [0.5, 0.6, 0.75, 0.9, 1.0, 2.0])
    @pytest.mark.parametrize("distance", [stein.KOLMOGOROV, stein.WASSERSTEIN])
    def test_jump_free_totals_strictly_decreasing(self, alpha, distance):
        grid = sorted(set(int(x) for x in np.geomspace(100, 10**6, 9)))
        params = YouParams(alpha, 1.0, 2.0 ** -0.5)
        totals = [r.total
                  for r in analytic.bound_curve("YOU", params, None, distance, grid)]
        assert all(b < a for a, b in zip(totals, totals[1:]))

    def test_partial_jump_probability_plateaus(self):
        params = YouParams(1.0, 1.0, 2.0 ** -0.5)
        sch = JumpSchedule.constant(0.5, 1.0)
        reps = analytic.bound_curve("YOUj", params, sch, stein.KOLMOGOROV,
                                    [10**3, 10**4, 10**5, 10**6])
        totals = [r.total for r in reps]
        assert totals[-1] / totals[1] > 0.97
        assert 0.3 < totals[-1] < 0.5
        assert all("non-convergent regime" in r.notes for r in reps)

    def test_wasserstein_to_kolmogorov_ratio_rate(self):
        # at alpha=1 the two distances decay as n^(-3/4) vs n^(-1/2)
        params = YouParams(1.0, 1.0, 2.0 ** -0.5)
        ns = [10**3, 10**4, 10**5, 10**6]
        dk = [r.total for r in analytic.bound_curve(
            "YOU", params, None, stein.KOLMOGOROV, ns)]
        dw = [r.total for r in analytic.bound_curve(
            "YOU", params, None, stein.WASSERSTEIN, ns)]
        slope = _slope(ns, [w / k for w, k in zip(dw, dk)])
        assert slope == pytest.approx(-0.25, abs=0.05)


class TestLimitDistribution:
    def test_jump_free_fast(self):
        lim = analytic.limit_distribution("YOU", YouParams(1.0))
        assert lim.scaling == "sqrt(n)"
        assert lim.variance == pytest.approx(3.0, rel=1e-15)

    def test_jump_free_critical(self):
        lim = analytic.limit_distribution("YOU", YouParams(0.5))
        assert lim.scaling == "sqrt(n/log n)"
        assert lim.variance == pytest.approx(2.0, rel=1e-15)

    def test_jumps_critical(self):
        lim = analytic.limit_distribution(
            "YOUj", YouParams(0.5), JumpSchedule.constant(0.5, 1.0))
        assert lim.scaling == "sqrt(n/log n)"
        assert lim.variance == pytest.approx(4.0, rel=1e-15)

    def test_jumps_certain_fast(self):
        lim = analytic.limit_distribution(
            "YOUj", YouParams(1.0), JumpSchedule.constant(1.0, 1.0))
        assert lim.scaling == "sqrt(n)"
        assert lim.variance == pytest.approx(9.0, rel=1e-15)

    def test_partial_jump_probability_has_no_limit_statement(self):
        with pytest.raises(ValueError, match="non-convergent"):
            analytic.limit_distribution(
                "YOUj", YouParams(1.0), JumpSchedule.constant(0.5, 1.0))

    def test_per_event_schedule_rejected(self):
        with pytest.raises(ValueError, match="Monte Carlo"):
            analytic.limit_distribution(
                "YOUj", YouParams(1.0), JumpSchedule.per_event([(0.5, 1.0)] * 9))

    def test_slow_regime_rejected(self):
        with pytest.raises(UnsupportedRegimeError):
            analytic.limit_distribution("YOU", YouParams(0.3))
