"""Tests for the replicated Monte Carlo harness.

Covers the deterministic replicate streams (worker count can never change a
number), the moment estimators with their standard errors, the empirical
Kolmogorov and Wasserstein statistics against independent references, and the
sandwich reports that compare empirical distances with the analytic bounds.
"""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from youbounds import analytic, harness, stein, trees
from youbounds.analytic import JumpSchedule, YouParams
from youbounds.harness import ExperimentConfig

SEED = 424242
SQRT_2_OVER_PI = 0.7978845608028654


def _you_config(n=50, alpha=1.0, x0=0.0, replicates=1000, seed=SEED, workers=1):
    return ExperimentConfig(model="YOU", n=n, params=YouParams(alpha=alpha, x0=x0),
                            schedule=JumpSchedule.none(), replicates=replicates,
                            seed=seed, workers=workers)


class TestExperimentConfig:
    def test_rejects_single_replicate(self):
        with pytest.raises(ValueError, match="replicates"):
            _you_config(replicates=1)

    def test_rejects_single_tip(self):
        with pytest.raises(ValueError, match="n must be"):
            _you_config(n=1)

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers"):
            _you_config(workers=0)

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError, match="unknown model"):
            ExperimentConfig(model="OU", n=10, params=YouParams(alpha=1.0),
                             schedule=JumpSchedule.none(), replicates=10, seed=1)

    def test_rejects_jump_schedule_on_jump_free_model(self):
        with pytest.raises(ValueError, match="no jump schedule"):
            ExperimentConfig(model="YOU", n=10, params=YouParams(alpha=1.0),
                             schedule=JumpSchedule.constant(0.5, 1.0),
                             replicates=10, seed=1)

    def test_inactive_schedule_allowed_on_jump_free_model(self):
        config = ExperimentConfig(model="YOU", n=10, params=YouParams(alpha=1.0),
                                  schedule=JumpSchedule.constant(0.0, 1.0),
                                  replicates=10, seed=1)
        assert config.schedule.is_inactive

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_out_of_range_seed(self, seed):
        with pytest.raises(ValueError, match="seed"):
            _you_config(seed=seed)


class TestReplicateStreams:
    def test_replicate_rng_is_deterministic(self):
        a = harness.replicate_rng(123, 7).random(5)
        b = harness.replicate_rng(123, 7).random(5)
        assert np.array_equal(a, b)

    def test_distinct_replicates_get_distinct_streams(self):
        a = harness.replicate_rng(123, 0).random(5)
        b = harness.replicate_rng(123, 1).random(5)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("workers", [2, 5])
    def test_worker_count_never_changes_results(self, workers):
        base = harness.run_replicates(_you_config(n=20, x0=0.6, replicates=50))
        split = harness.run_replicates(
            _you_config(n=20, x0=0.6, replicates=50, workers=workers))
        assert np.array_equal(base.cond_mean, split.cond_mean)
        assert np.array_equal(base.cond_var, split.cond_var)
        assert np.array_equal(base.ybar, split.ybar)

    def test_oracle_columns_identical_across_workers(self):
        kwargs = dict(n=20, x0=0.6, replicates=60)
        base = harness.run_replicates(_you_config(**kwargs), collect_oracle=True)
        split = harness.run_replicates(_you_config(workers=3, **kwargs),
                                       collect_oracle=True)
        assert base.oracle is not None and split.oracle is not None
        assert set(base.oracle) == set(split.oracle)
        for key, column in base.oracle.items():
            assert np.array_equal(column, split.oracle[key])

    @pytest.mark.parametrize("model,schedule", [
        ("YOU", JumpSchedule.none()),
        ("YOUj", JumpSchedule.constant(0.5, 1.3)),
        ("YOUj", JumpSchedule.per_event([(0.1 * (k % 10), 0.5 + k % 3) for k in range(36)])),
    ])
    def test_blocks_match_per_tree_path(self, model, schedule):
        # replicate i of the block engine is the single-tree API driven by
        # replicate_rng(seed, i); R is not a multiple of the block size
        n = 37
        params = YouParams(alpha=0.8, sigma_a2=1.2, x0=0.6)
        r = harness._block_size(n) + 17
        config = ExperimentConfig(model=model, n=n, params=params, schedule=schedule,
                                  replicates=r, seed=SEED)
        data = harness.run_replicates(config, collect_oracle=True)
        for i in range(r):
            rng = harness.replicate_rng(SEED, i)
            tree = trees.sample_tree(n, rng)
            jumps = trees.sample_jumps(tree, schedule, rng) if model == "YOUj" else None
            if jumps is None:
                m = trees.conditional_moments_you(tree, params)
            else:
                m = trees.conditional_moments_youj(tree, jumps, params)
            expected = {
                "cond_mean": (data.cond_mean, m.cond_mean),
                "cond_var": (data.cond_var, m.cond_var),
                "exp_height_1": (data.oracle["exp_height_1"], math.exp(-tree.height)),
                "exp_height_2a": (data.oracle["exp_height_2a"],
                                  math.exp(-2.0 * params.alpha * tree.height)),
                "pair_1": (data.oracle["pair_1"], trees.pair_mean_exp(tree, 1.0)),
                "pair_2a": (data.oracle["pair_2a"],
                            trees.pair_mean_exp(tree, 2.0 * params.alpha)),
            }
            if jumps is not None:
                single, pair = trees.jump_exposure_sums(tree, jumps, params.alpha)
                expected["jump_single"] = (data.oracle["jump_single"], single)
                expected["jump_pair"] = (data.oracle["jump_pair"], pair)
            for key, (column, value) in expected.items():
                assert column[i] == pytest.approx(value, rel=1e-14, abs=0.0), (key, i)
            ybar = trees.sample_ybar(tree, params, rng, jumps)
            assert abs(data.ybar[i] - ybar) <= 1e-14, i

    def test_worker_splits_align_to_blocks(self):
        n = 200
        r = 3 * harness._block_size(n) + 5
        configs = [ExperimentConfig(model="YOUj", n=n, params=YouParams(alpha=1.0, x0=0.7),
                                    schedule=JumpSchedule.constant(0.5, 1.0),
                                    replicates=r, seed=SEED, workers=w)
                   for w in (1, 2, 3, 4)]
        base = harness.run_replicates(configs[0], collect_oracle=True)
        for config in configs[1:]:
            split = harness.run_replicates(config, collect_oracle=True)
            assert np.array_equal(base.cond_mean, split.cond_mean)
            assert np.array_equal(base.cond_var, split.cond_var)
            assert np.array_equal(base.ybar, split.ybar)
            for key, column in base.oracle.items():
                assert np.array_equal(column, split.oracle[key])

    def test_oracle_keys_by_model(self):
        you = harness.run_replicates(_you_config(n=5, replicates=4),
                                     collect_oracle=True)
        assert set(you.oracle) == {"exp_height_1", "exp_height_2a",
                                   "pair_1", "pair_2a"}
        config = ExperimentConfig(model="YOUj", n=5, params=YouParams(alpha=1.0),
                                  schedule=JumpSchedule.constant(0.5, 1.0),
                                  replicates=4, seed=SEED)
        youj = harness.run_replicates(config, collect_oracle=True)
        assert set(youj.oracle) == set(you.oracle) | {"jump_single", "jump_pair"}
        for column in youj.oracle.values():
            assert column.shape == (4,)

    def test_no_oracle_columns_by_default(self):
        data = harness.run_replicates(_you_config(n=5, replicates=4))
        assert data.oracle is None


class TestMomentEstimates:
    def test_closed_forms_within_four_se(self):
        # The stated Monte Carlo contract: at R = 1e5 the estimated mean, ev
        # and ve land within 4 standard errors of their closed forms.
        params = YouParams(alpha=1.0, x0=1.0 / math.sqrt(2.0))
        config = ExperimentConfig(model="YOU", n=50, params=params,
                                  schedule=JumpSchedule.none(),
                                  replicates=100_000, seed=SEED + 1)
        est = harness.estimate_moment_summary(config)
        for got, target in (
            (est.mean, analytic.mean_ybar(50, params)),
            (est.ev, analytic.var_ybar_you(50, params)),
            (est.ve, analytic.var_cond_mean_exact(50, params)),
        ):
            assert got.se > 0.0
            assert abs(got.value - target) <= 4.0 * got.se
            assert got.r_used == 100_000
        assert est.vv.value > 0.0
        assert est.vv.se > 0.0

    def test_centered_start_gives_exact_zero_spread(self):
        # x0 = 0 makes every conditional mean exactly 0.0, so its sample
        # variance and the attached standard error are exact zeros.
        est = harness.estimate_moment_summary(_you_config(n=30, replicates=500))
        assert est.mean.value == 0.0
        assert est.mean.se == 0.0
        assert est.ve.value == 0.0
        assert est.ve.se == 0.0

    def test_jackknife_needs_four_replicates(self):
        est = harness.estimate_moment_summary(_you_config(n=5, replicates=3))
        assert math.isfinite(est.vv.value)
        assert math.isnan(est.vv.se)
        assert math.isnan(est.ve.se)

    def test_jackknife_tracks_normal_theory(self):
        # For i.i.d. normals the variance of the sample variance is
        # 2 sigma^4 / R; the 32-batch jackknife should land near it.
        draws = np.random.default_rng(5).normal(size=20_000)
        est = harness._variance_estimate(draws)
        theory = math.sqrt(2.0 / 20_000)
        assert est.value == pytest.approx(1.0, abs=0.05)
        assert 0.5 * theory <= est.se <= 2.0 * theory

    def test_reuses_precomputed_replicates(self):
        config = _you_config(n=15, x0=0.4, replicates=200)
        data = harness.run_replicates(config)
        assert harness.estimate_moment_summary(config, data) == \
            harness.estimate_moment_summary(config, data)


class TestEmpiricalKolmogorov:
    def test_rejects_empty_input(self):
        with pytest.raises(ValueError, match="at least one sample"):
            harness.empirical_dk([])

    def test_single_sample_at_zero(self):
        assert harness.empirical_dk([0.0]) == 0.5

    def test_far_shifted_samples_saturate(self):
        x = np.random.default_rng(1).normal(size=1000) + 10.0
        assert harness.empirical_dk(x) >= 0.999

    def test_exact_normal_draws_stay_inside_band(self):
        x = np.random.default_rng(2).standard_normal(100_000)
        assert harness.empirical_dk(x) <= harness.dkw_band(100_000)

    def test_matches_scipy_kstest(self):
        x = np.random.default_rng(3).standard_normal(500)
        ours = harness.empirical_dk(x)
        reference = scipy.stats.kstest(x, "norm").statistic
        assert ours == pytest.approx(reference, abs=1e-12)

    def test_band_exceedance_rate(self):
        # The 99% band may be exceeded by roughly 1% of independent runs;
        # 6/200 keeps the self-test off the knife edge.
        exceed = 0
        for s in range(200):
            x = np.random.default_rng(9000 + s).standard_normal(2000)
            if harness.empirical_dk(x) > harness.dkw_band(2000):
                exceed += 1
        assert exceed <= 6

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=-50.0, max_value=50.0,
                              allow_nan=False), min_size=1, max_size=50))
    def test_statistic_in_unit_interval(self, samples):
        assert 0.0 <= harness.empirical_dk(samples) <= 1.0


class TestEmpiricalWasserstein:
    def test_rejects_empty_input(self):
        with pytest.raises(ValueError, match="at least one sample"):
            harness.empirical_dw([])

    def test_point_mass_at_zero(self):
        # W1 between a point mass at 0 and N(0,1) is E|Z| = sqrt(2/pi).
        assert harness.empirical_dw([0.0]) == pytest.approx(
            SQRT_2_OVER_PI, rel=1e-15)

    def test_exact_normal_draws_are_small(self):
        x = np.random.default_rng(4).standard_normal(100_000)
        assert harness.empirical_dw(x) <= 0.015

    def test_mean_shift_recovered(self):
        x = np.random.default_rng(6).standard_normal(100_000) + 0.3
        assert harness.empirical_dw(x) == pytest.approx(0.3, abs=0.02)

    def test_matches_grid_integration(self):
        # Independent route: integrate |F_R - Phi| on a dense grid with the
        # trapezoid rule, using scipy's normal CDF.
        x = np.sort(np.random.default_rng(7).standard_normal(100))
        grid = np.linspace(x[0] - 8.0, x[-1] + 8.0, 400_001)
        ecdf = np.searchsorted(x, grid, side="right") / len(x)
        gap = np.abs(ecdf - scipy.stats.norm.cdf(grid))
        reference = float(np.trapezoid(gap, grid))
        assert harness.empirical_dw(x) == pytest.approx(reference, abs=1e-4)

    def test_matches_scipy_against_normal_quantiles(self):
        # Second independent route: scipy's 1-D Wasserstein distance between
        # the sample and a fine quantile discretization of N(0,1).
        x = np.random.default_rng(8).standard_normal(400)
        q = scipy.stats.norm.ppf((np.arange(200_000) + 0.5) / 200_000)
        reference = scipy.stats.wasserstein_distance(x, q)
        assert harness.empirical_dw(x) == pytest.approx(reference, abs=2e-4)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=-50.0, max_value=50.0,
                              allow_nan=False), min_size=1, max_size=50))
    def test_statistic_nonnegative(self, samples):
        assert harness.empirical_dw(samples) >= 0.0


class TestDkwBand:
    def test_frozen_values(self):
        assert harness.dkw_band(200_000) == pytest.approx(
            0.0036394770800720934, rel=1e-15)
        assert harness.dkw_band(2_000) == pytest.approx(
            0.036394770800720934, rel=1e-15)

    def test_shrinks_with_replicates(self):
        assert harness.dkw_band(100) > harness.dkw_band(10_000)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="r >= 1"):
            harness.dkw_band(0)


class TestBootstrapSE:
    def test_deterministic_and_positive(self):
        z = np.random.default_rng(10).standard_normal(500)
        a = harness._bootstrap_dw_se(z, 99)
        b = harness._bootstrap_dw_se(z, 99)
        assert a == b
        assert a > 0.0
        assert harness._bootstrap_dw_se(z, 100) != a


class TestVerdict:
    def test_empirical_above_upper_fails(self):
        assert harness._verdict(0.50, 0.40, 0.0, 0.05, 100) == "fail"

    def test_inside_sandwich_passes(self):
        assert harness._verdict(0.20, 0.40, 0.1, 0.05, 100) == "pass"

    def test_boundaries_count_as_pass(self):
        assert harness._verdict(0.45, 0.40, 0.0, 0.05, 100) == "pass"
        assert harness._verdict(0.05, 0.40, 0.1, 0.05, 100) == "pass"

    def test_lower_miss_is_inconclusive_at_small_n(self):
        assert harness._verdict(0.01, 0.40, 0.1, 0.05, 200) == "inconclusive"

    def test_lower_miss_fails_at_large_n(self):
        assert harness._verdict(0.01, 0.40, 0.1, 0.05, 1000) == "fail"


class TestSandwich:
    def test_jump_free_run(self):
        params = YouParams(alpha=1.0, x0=1.0 / math.sqrt(2.0))
        config = ExperimentConfig(model="YOU", n=200, params=params,
                                  schedule=JumpSchedule.none(),
                                  replicates=20_000, seed=SEED + 2)
        report = harness.run_sandwich(config)
        assert report.dkw_band == harness.dkw_band(20_000)
        assert report.kappa_mean >= 0.0
        assert report.dw_bootstrap_se > 0.0
        assert report.empirical_dk <= report.upper_dk.total + report.dkw_band
        assert report.empirical_dw <= (report.upper_dw.total
                                       + 3.0 * report.dw_bootstrap_se)
        assert report.lower_dk.total <= report.upper_dk.total
        assert report.lower_dw.total <= report.upper_dw.total
        assert report.verdict_dk != "fail"
        assert report.verdict_dw != "fail"

    def test_jump_run_with_certain_jumps(self):
        params = YouParams(alpha=1.0, x0=1.0 / math.sqrt(2.0))
        config = ExperimentConfig(model="YOUj", n=200, params=params,
                                  schedule=JumpSchedule.constant(1.0, 1.0),
                                  replicates=20_000, seed=SEED + 3)
        report = harness.run_sandwich(config)
        assert report.empirical_dk <= report.upper_dk.total + report.dkw_band
        assert report.empirical_dw <= (report.upper_dw.total
                                       + 3.0 * report.dw_bootstrap_se)
        assert report.lower_dk.total <= report.upper_dk.total
        assert report.verdict_dk != "fail"

    def test_per_event_schedule_rejected(self):
        config = ExperimentConfig(
            model="YOUj", n=5, params=YouParams(alpha=1.0),
            schedule=JumpSchedule.per_event([(0.5, 1.0)] * 4),
            replicates=100, seed=SEED)
        with pytest.raises(ValueError, match="per-event"):
            harness.run_sandwich(config)

    def test_run_experiment_skips_sandwich_for_per_event(self):
        config = ExperimentConfig(
            model="YOUj", n=5, params=YouParams(alpha=1.0),
            schedule=JumpSchedule.per_event([(0.5, 1.0)] * 4),
            replicates=50, seed=SEED)
        result = harness.run_experiment(config)
        assert result.sandwich is None
        assert result.estimates.ev.r_used == 50

    def test_run_experiment_includes_sandwich_by_default(self):
        result = harness.run_experiment(_you_config(n=20, replicates=200))
        assert result.sandwich is not None
        assert result.config.n == 20


class TestStandardizedMoments:
    def test_analytic_standardization_centers_and_scales(self):
        # Standardizing by the analytic mean and standard deviation must
        # leave the draws with sample mean 0 and variance 1 up to Monte
        # Carlo error; gates use estimated moments (4 SE).
        params = YouParams(alpha=1.0, x0=1.0 / math.sqrt(2.0))
        n, r = 1000, 100_000
        config = ExperimentConfig(model="YOU", n=n, params=params,
                                  schedule=JumpSchedule.none(),
                                  replicates=r, seed=SEED + 4)
        data = harness.run_replicates(config)
        mu = analytic.mean_ybar(n, params)
        sigma = math.sqrt(analytic.var_ybar_you(n, params))
        z = (data.ybar - mu) / sigma
        mean_se = z.std(ddof=1) / math.sqrt(r)
        assert abs(z.mean()) <= 4.0 * mean_se
        s2 = z.var(ddof=1)
        dev2 = (z - z.mean()) ** 2
        var_se = dev2.std(ddof=1) / math.sqrt(r)
        assert abs(s2 - 1.0) <= 4.0 * var_se


class TestOracleChecks:
    def test_jump_free_checks_pass(self):
        params = YouParams(alpha=1.0, x0=0.7)
        config = ExperimentConfig(model="YOU", n=20, params=params,
                                  schedule=JumpSchedule.none(),
                                  replicates=4000, seed=SEED + 5)
        checks = harness.oracle_checks(config)
        assert [c.name for c in checks] == [
            "height_laplace[x=1]", "height_laplace[x=2a]",
            "pair_laplace[y=1]", "pair_laplace[y=2a]",
            "cond_var_mean", "cond_mean_var"]
        for check in checks:
            assert check.passed, f"{check.name}: z = {check.z:+.2f}"
            assert abs(check.z) <= 4.0

    def test_jump_model_adds_exposure_checks(self):
        params = YouParams(alpha=1.0, x0=0.7)
        config = ExperimentConfig(model="YOUj", n=20, params=params,
                                  schedule=JumpSchedule.constant(0.5, 1.0),
                                  replicates=4000, seed=SEED + 6)
        checks = harness.oracle_checks(config)
        names = [c.name for c in checks]
        assert "jump_single_mean" in names
        assert "jump_pair_mean" in names
        for check in checks:
            assert check.passed, f"{check.name}: z = {check.z:+.2f}"
