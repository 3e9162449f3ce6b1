"""Tests for the replicated Monte Carlo harness.

Covers the deterministic replicate streams (worker count can never change a
number), the moment estimators with their standard errors, the empirical
Kolmogorov and Wasserstein statistics against independent references, and the
sandwich reports that compare empirical distances with the analytic bounds.
"""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from youbounds import analytic, harness, stein, trees, verify
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

    @pytest.mark.parametrize("field, value", [("n", 50.0), ("n", 2.5), ("replicates", 100.0),
                                              ("seed", 1.5), ("workers", 1.0)])
    def test_rejects_counts_that_are_not_integers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            _you_config(**{field: value})

    def test_accepts_numpy_integer_counts(self):
        config = _you_config(n=np.int64(50), replicates=np.int32(100), seed=np.uint64(SEED),
                             workers=np.int8(1))
        assert (config.n, config.replicates, config.seed, config.workers) == (50, 100, SEED, 1)


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
        # replicate i of the engine is the trees kernels applied to row
        # i mod B of block i // B alone, as a one-row block, whose stream is
        # replayed in its documented order; R is not a multiple of the block
        # size
        n = 37
        params = YouParams(alpha=0.8, sigma_a2=1.2, x0=0.6)
        b = harness._block_size(n)
        r = b + 17
        config = ExperimentConfig(model=model, n=n, params=params, schedule=schedule,
                                  replicates=r, seed=SEED)
        data = harness.run_replicates(config, collect_oracle=True)
        ps, variances = trees.jump_event_arrays(schedule, n) if model == "YOUj" else (None, None)
        for block in range(-(-r // b)):
            rng = harness.replicate_rng(SEED, block)
            rows = trees.sample_tree(n, rng, b)
            flags = trees.sample_jumps(ps, rng, b) if model == "YOUj" else None
            for row in range(min(b, r - block * b)):
                i = block * b + row
                tree = trees.TreeBlock(**{f.name: getattr(rows, f.name)[row:row + 1]
                                          for f in dataclasses.fields(rows)})
                if flags is None:
                    mean, var = trees.conditional_moments_you(tree, params)
                else:
                    tree_flags = flags[row:row + 1]
                    mean, var = trees.conditional_moments_youj(tree, tree_flags, variances,
                                                               params)
                height = tree.heights[0]
                expected = {
                    "cond_mean": (data.cond_mean, mean[0]),
                    "cond_var": (data.cond_var, var[0]),
                    "exp_height_1": (data.oracle["exp_height_1"], math.exp(-height)),
                    "exp_height_2a": (data.oracle["exp_height_2a"],
                                      math.exp(-2.0 * params.alpha * height)),
                    "pair_1": (data.oracle["pair_1"], trees.pair_mean_exp(tree, 1.0)[0]),
                    "pair_2a": (data.oracle["pair_2a"],
                                trees.pair_mean_exp(tree, 2.0 * params.alpha)[0]),
                }
                if flags is not None:
                    single, pair = trees.jump_exposure_sums(tree, tree_flags, params.alpha)
                    expected["jump_single"] = (data.oracle["jump_single"], single[0])
                    expected["jump_pair"] = (data.oracle["jump_pair"], pair[0])
                for key, (column, value) in expected.items():
                    assert column[i] == pytest.approx(value, rel=1e-14, abs=0.0), (key, i)
                # the block's normals follow its jump uniforms, one per row
                ybar = rng.normal(mean[0], math.sqrt(var[0]))
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

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_first_replicates_are_a_shorter_run(self, workers):
        # the last block draws B full rows, so a replicate depends only on
        # the seed, its index and n
        n = 200
        b = harness._block_size(n)
        kwargs = dict(model="YOUj", n=n, params=YouParams(alpha=1.0, x0=0.7),
                      schedule=JumpSchedule.constant(0.5, 1.0), seed=SEED)
        full = harness.run_replicates(ExperimentConfig(replicates=3 * b + 5, **kwargs),
                                      collect_oracle=True)
        short = harness.run_replicates(
            ExperimentConfig(replicates=b + 2, workers=workers, **kwargs), collect_oracle=True)
        assert np.array_equal(short.cond_mean, full.cond_mean[:b + 2])
        assert np.array_equal(short.cond_var, full.cond_var[:b + 2])
        assert np.array_equal(short.ybar, full.ybar[:b + 2])
        for key, column in short.oracle.items():
            assert np.array_equal(column, full.oracle[key][:b + 2])

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


class TestBlockBuffers:
    @pytest.mark.parametrize("model,schedule", [
        ("YOU", JumpSchedule.none()),
        ("YOUj", JumpSchedule.constant(0.5, 1.3)),
    ])
    def test_reused_buffers_match_fresh_draws(self, model, schedule):
        # each block of a run drawn and scored in one set of buffers, the
        # short last block included, equals the same block drawn fresh
        n = 37
        b = harness._block_size(n)
        r = 2 * b + 5
        config = ExperimentConfig(model=model, n=n, params=YouParams(alpha=0.8, x0=0.6),
                                  schedule=schedule, replicates=r, seed=SEED)
        jump_arrays = trees.jump_event_arrays(schedule, n) if model == "YOUj" else None
        ps = None if jump_arrays is None else jump_arrays[0]
        shared = trees.BlockBuffers()
        for k in range(3):
            tree, flags, normals = harness.draw_block(config, k, ps, shared)
            fresh_tree, fresh_flags, fresh_normals = harness.draw_block(config, k, ps)
            for field in dataclasses.fields(trees.TreeBlock):
                assert np.array_equal(getattr(tree, field.name),
                                      getattr(fresh_tree, field.name)), (k, field.name)
            assert (flags is None) == (fresh_flags is None)
            if flags is not None:
                assert np.array_equal(flags, fresh_flags)
            assert np.array_equal(normals, fresh_normals)
            size = min(b, r - k * b)
            got = harness._run_block(config, k, size, jump_arrays, True, shared)
            expected = harness._run_block(config, k, size, jump_arrays, True,
                                          trees.BlockBuffers())
            assert len(got) == len(expected)
            for column, want in zip(got, expected):
                assert len(column) == size
                assert np.array_equal(column, want)
            # every kernel, the oracle ones included, has now run on the shared
            # buffers: no numbered temporary may alias what the block hands on
            for field in dataclasses.fields(trees.TreeBlock):
                assert np.array_equal(getattr(tree, field.name),
                                      getattr(fresh_tree, field.name)), (k, field.name)
            if flags is not None:
                assert np.array_equal(flags, fresh_flags)

    @pytest.mark.parametrize("collect_oracle", [False, True])
    @pytest.mark.parametrize("n", [50, 200, 5000])
    def test_block_allocates_only_the_split_draw(self, n, collect_oracle):
        # once a chunk's buffers hold one block, drawing and scoring the next
        # allocates little more than the fresh (B, n-1) int64 split draw
        # (Generator.integers has no out); the per-block arrays come from the
        # buffers
        config = ExperimentConfig(model="YOUj", n=n, params=YouParams(alpha=1.0, x0=0.7),
                                  schedule=JumpSchedule.constant(0.5, 1.0),
                                  replicates=10, seed=SEED)
        b = harness._block_size(n)
        jump_arrays = trees.jump_event_arrays(config.schedule, n)
        buffers = trees.BlockBuffers()
        harness._run_block(config, 0, b, jump_arrays, collect_oracle, buffers)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            harness._run_block(config, 1, b, jump_arrays, collect_oracle, buffers)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 2 * b * (n - 1) * np.dtype(np.int64).itemsize

    @pytest.mark.parametrize("model,n,collect_oracle,units", [
        ("YOUj", 200, False, 13.0),
        ("YOUj", 200, True, 13.0),
        ("YOU", 5000, False, 11.5),
    ])
    def test_chunk_peak(self, model, n, collect_oracle, units):
        # a fresh 3-block chunk peaks at the named keys' arrays a block hands on
        # (times, splits, ages, counts, flags: 5.25 units of B(n-1) int64),
        # the five shared numbered temporaries (5 units, 6 with the jump uniforms)
        # and the split draw's raw words and iterator buffers (about 1 unit)
        schedule = JumpSchedule.constant(0.5, 1.0) if model == "YOUj" else JumpSchedule.none()
        config = ExperimentConfig(model=model, n=n, params=YouParams(alpha=1.0, x0=0.7),
                                  schedule=schedule, replicates=10, seed=SEED)
        b = harness._block_size(n)
        harness._run_chunk((config, 0, b, collect_oracle))
        tracemalloc.start()
        try:
            harness._run_chunk((config, 0, 3 * b, collect_oracle))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= units * b * (n - 1) * np.dtype(np.int64).itemsize


class TestTipAverageDraws:
    def test_inactive_jumps_leave_the_moments_unchanged(self):
        # the jump model draws the same trees first; with p = 0 no slot
        # jumps, so its conditional moments are the jump-free ones
        kwargs = dict(n=30, params=YouParams(alpha=1.0, x0=0.5), replicates=100, seed=SEED)
        you = harness.run_replicates(ExperimentConfig(model="YOU", schedule=JumpSchedule.none(),
                                                      **kwargs))
        config = ExperimentConfig(model="YOUj", schedule=JumpSchedule.constant(0.0, 2.0),
                                  **kwargs)
        youj = harness.run_replicates(config)
        assert np.array_equal(you.cond_mean, youj.cond_mean)
        assert np.array_equal(you.cond_var, youj.cond_var)
        assert np.array_equal(youj.ybar, harness.run_replicates(config).ybar)

    def test_standardized_draws_are_standard_normal(self):
        # ybar = cond_mean + sqrt(cond_var) z on the block arrays: given its
        # tree, each draw standardizes to a standard normal
        r = 1_000_000
        params = YouParams(alpha=0.8, x0=0.9)
        config = ExperimentConfig(model="YOU", n=10, params=params,
                                  schedule=JumpSchedule.none(), replicates=r, seed=29,
                                  workers=harness.resolve_workers(None, verify.DEFAULT_WORKERS))
        data = harness.run_replicates(config)
        z = (data.ybar - data.cond_mean) / np.sqrt(data.cond_var)
        assert abs(z.mean()) <= 4.0 * math.sqrt(1.0 / r)
        assert abs(z.var(ddof=1) - 1.0) <= 4.0 * math.sqrt(2.0 / (r - 1))


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

    @pytest.mark.parametrize("alpha,p,seed", [(0.6, 0.0, 2601), (1.0, 0.0, 2602),
                                              (2.0, 0.0, 2603), (1.0, 0.5, 2604),
                                              (1.0, 1.0, 2605)])
    def test_vv_within_four_se_of_exact(self, alpha, p, seed):
        # the engine's second moment of V against the exact Var(V) at
        # R = 2e4, n = 50: YOU, or YOUj with sigma_c2 = 1
        n = 50
        model, schedule = ("YOUj", JumpSchedule.constant(p, 1.0)) if p else \
            ("YOU", JumpSchedule.none())
        config = ExperimentConfig(model=model, n=n, params=YouParams(alpha), schedule=schedule,
                                  replicates=20_000, seed=seed)
        vv = harness.estimate_moment_summary(config).vv
        assert abs(vv.value - oracles.vv_exact(n, alpha, p, 1.0)) <= 4.0 * vv.se

    def test_centered_start_gives_exact_zero_spread(self):
        # x0 = 0 makes every conditional mean exactly 0.0, so its sample
        # variance and the attached standard error are exact zeros.
        est = harness.estimate_moment_summary(_you_config(n=30, replicates=500))
        assert est.mean.value == 0.0
        assert est.mean.se == 0.0
        assert est.ve.value == 0.0
        assert est.ve.se == 0.0

    def test_jackknife_needs_four_replicates(self):
        # the variance error (a jackknife at first, now the fourth-moment
        # error of a sample variance) is reported only from four replicates
        est = harness.estimate_moment_summary(_you_config(n=5, replicates=3))
        assert math.isfinite(est.vv.value)
        assert math.isnan(est.vv.se)
        assert math.isnan(est.ve.se)

    def test_jackknife_tracks_normal_theory(self):
        # For i.i.d. normals the variance of the sample variance is
        # 2 sigma^4 / R; the fourth-moment error should land near it.
        draws = np.random.default_rng(5).normal(size=20_000)
        est = harness._column_estimates(draws)[1]
        theory = math.sqrt(2.0 / 20_000)
        assert est.value == pytest.approx(1.0, abs=0.05)
        assert 0.5 * theory <= est.se <= 2.0 * theory

    def test_variance_se_matches_exact_error_on_skewed_draws(self):
        # exp(-H) of a 200-tip Yule tree is Beta(1, 200) (H is distributed
        # as the largest of 200 unit exponentials): the conditional means
        # behind ve at alpha = 1, kurtosis 8.8. Its exact error is
        # sqrt((mu4 - sigma^4 (R-3)/(R-1)) / R); the estimate spreads about
        # 4% around it at R = 2e4.
        n, r = 200, 20_000
        raw = [Fraction(1)]
        for j in range(4):
            raw.append(raw[-1] * Fraction(1 + j, 1 + n + j))
        var = raw[2] - raw[1] ** 2
        mu4 = raw[4] - 4 * raw[3] * raw[1] + 6 * raw[2] * raw[1] ** 2 - 3 * raw[1] ** 4
        exact = math.sqrt(float((mu4 - var ** 2 * Fraction(r - 3, r - 1)) / r))
        est = harness._column_estimates(np.random.default_rng(7).beta(1.0, n, size=r))[1]
        assert 0.8 <= est.se / exact <= 1.25

    def test_huge_deviations_scale_by_an_exact_power_of_two(self):
        # deviations near 1e-10 times 2^500 pass 1e140, where their summed
        # fourth powers overflow; the scaled route must give the unscaled
        # sample's value and error times 2^1000, bit for bit
        x = 1.0 + 1e-10 * np.random.default_rng(11).normal(size=1000)
        small = harness._column_estimates(x)[1]
        big = harness._column_estimates(x * 2.0 ** 500)[1]
        assert math.isfinite(small.se) and small.se > 0.0
        assert big.value == small.value * 2.0 ** 1000
        assert big.se == small.se * 2.0 ** 1000

    def test_mean_error_scales_by_the_same_power_of_two(self):
        # the mean's error comes from the same scaled squares: times 2^500
        x = 1.0 + 1e-10 * np.random.default_rng(11).normal(size=1000)
        small = harness._column_estimates(x)[0]
        big = harness._column_estimates(x * 2.0 ** 500)[0]
        assert big.value == small.value * 2.0 ** 500
        assert big.se == small.se * 2.0 ** 500

    @pytest.mark.parametrize("r", [2, 4, 2000])
    @pytest.mark.parametrize("scale", [1e-30, 1e30, 1e100])
    def test_one_pass_is_numpy_bit_for_bit(self, r, scale):
        # the mean and its error are np.mean and np.std / sqrt(R), the
        # variance np.var, whether or not the deviations were scaled
        x = scale * np.random.default_rng(r).lognormal(size=r)
        mean, var = harness._column_estimates(x)
        assert mean.value == np.mean(x)
        assert mean.se == float(np.std(x, ddof=1) / math.sqrt(r))
        assert var.value == np.var(x, ddof=1)
        assert mean.r_used == var.r_used == r

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


def _oracle_sample(kind: str, r: int) -> np.ndarray:
    rng = np.random.default_rng(1000 + r)
    z = rng.standard_normal(r) + 0.2
    if kind == "ties":
        z = np.round(z, 1)
    elif kind == "far_tails":
        # Phi rounds to 1 above z = 8.3 and to 0 below z = -38
        z[:4] = [8.5, 12.0, 30.0, 45.0][:r]
        z[4:8] = [-38.5, -40.0, -60.0, -100.0][:max(0, r - 4)]
    return z


def _assert_matches_oracles(z, seed: int) -> None:
    # both routes evaluate the same segment terms up to rounding; the
    # absolute floor covers standard errors of resamples that are all equal
    dw = harness.empirical_dw(z)
    assert abs(dw - oracles.dw_by_level_curves(z)) <= 1e-12 * dw
    s = harness._sort_sample(z, "test")
    se = harness._bootstrap_dw_se(s, seed, harness._DwWork.for_sample(len(s.x)))
    reference = oracles.bootstrap_dw_se_by_resorting(z, seed)
    assert abs(se - reference) <= 1e-12 * reference + 1e-15


class TestAgainstLevelCurveOracles:
    """The segment-by-segment dw and the rank-count bootstrap against the
    earlier route: a quantile at every empirical-CDF level and a fresh sort
    and CDF pass for every resample."""

    @pytest.mark.parametrize("kind", ["normal", "ties", "far_tails"])
    @pytest.mark.parametrize("r", [1, 2, 3, 1000])
    def test_matches(self, kind, r):
        _assert_matches_oracles(_oracle_sample(kind, r), seed=r)

    def test_ties_and_far_tails_present(self):
        z = _oracle_sample("ties", 1000)
        assert len(np.unique(z)) < 100
        z = _oracle_sample("far_tails", 1000)
        cdf = scipy.stats.norm.cdf(z)
        assert np.sum(cdf == 1.0) == 4 and np.sum(cdf == 0.0) == 4

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
                    min_size=1, max_size=6)
           .flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=25)),
           st.integers(min_value=0, max_value=2 ** 32))
    def test_short_lists_with_duplicates(self, samples, seed):
        _assert_matches_oracles(np.array(samples), seed)


# (empirical_dk, empirical_dw, _bootstrap_dw_se with seed 1000) of
# _oracle_sample(kind, 1000), recorded before the sort, Phi, quantile and
# bootstrap were rewritten for speed; the rewrite moved no bit
GOLDEN_R1000 = {
    "normal": (0.0756234868151906, 0.1638346261345681, 0.037395027690637184),
    "ties": (0.08646246127401314, 0.1632782220110931, 0.0363980318538833),
    "far_tails": (0.0766234868151906, 0.47125125423581327, 0.09637034802656944),
}
# run_sandwich on _golden_sandwich_data(decimals), recorded the same way:
# (empirical_dk, empirical_dw, dw_bootstrap_se, kappa_mean)
GOLDEN_SANDWICH_R2E5 = {
    None: (0.004434077763994737, 0.008684546826996242, 0.0013906969078876926,
           0.01358228403509874),
    2: (0.0056206081719316625, 0.009039124136665435, 0.0013021016439519221,
        0.01358228403509874),
}


def _golden_sandwich_config() -> ExperimentConfig:
    return ExperimentConfig(model="YOU", n=2, params=YouParams(1.0, 1.0, 1.0 / math.sqrt(2.0)),
                            schedule=JumpSchedule.none(), replicates=200_000, seed=2020)


def _golden_sandwich_data(decimals) -> harness.ReplicateData:
    """A near-normal standardized sample of 2e5, rounded to `decimals` (None:
    not rounded; 2: about 1000 distinct values, every one heavily tied)."""
    config = _golden_sandwich_config()
    r = config.replicates
    rng = np.random.default_rng(2020)
    sigma2 = analytic.var_ybar_youj(2, config.params, config.schedule)
    z = 1.01 * rng.standard_normal(r) + 0.005
    if decimals is not None:
        z = np.round(z, decimals)
    ybar = analytic.mean_ybar(2, config.params) + math.sqrt(sigma2) * z
    return harness.ReplicateData(np.zeros(r), sigma2 * rng.uniform(0.5, 1.5, r), ybar)


class TestGoldenStatistics:
    """Exact values pinned with ==: the speed work on the sandwich statistics
    must not move one bit, ties included."""

    @pytest.mark.parametrize("kind", sorted(GOLDEN_R1000))
    def test_oracle_samples(self, kind):
        z = _oracle_sample(kind, 1000)
        s = harness._sort_sample(z, "test")
        got = (harness.empirical_dk(z), harness.empirical_dw(z),
               harness._bootstrap_dw_se(s, 1000, harness._DwWork.for_sample(len(s.x))))
        assert got == GOLDEN_R1000[kind]

    @pytest.mark.parametrize("decimals", [None, 2])
    def test_run_sandwich_r2e5(self, decimals):
        report = harness.run_sandwich(_golden_sandwich_config(), _golden_sandwich_data(decimals))
        got = (report.empirical_dk, report.empirical_dw, report.dw_bootstrap_se,
               report.kappa_mean)
        assert got == GOLDEN_SANDWICH_R2E5[decimals]


class TestSandwichMemory:
    """Peak traced allocation of the full-length passes at R = 2e5, in units
    of one float64 sample (8R bytes). The sorted sample keeps three such
    arrays (x, Phi, G) and the 4-byte ranks; dk, dw and the bootstrap share
    one workspace of two 8-byte arrays and two masks, to which neither dk
    nor any resample adds. A work array too many shows as a whole unit."""

    R = 200_000

    def _peak_units(self, call) -> float:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        return peak / (8 * self.R)

    def _sample(self) -> harness._SortedSample:
        return harness._sort_sample(np.random.default_rng(5).standard_normal(self.R), "test")

    def test_sort_sample(self):
        z = np.random.default_rng(5).standard_normal(self.R)
        assert self._peak_units(lambda: harness._sort_sample(z, "test")) <= 5.0

    def test_dk(self):
        s = self._sample()
        work = harness._DwWork.for_sample(self.R)
        assert self._peak_units(lambda: harness._dk_sorted(s, work)) <= 0.05

    def test_bootstrap(self):
        s = self._sample()
        assert self._peak_units(lambda: harness._bootstrap_dw_se(
            s, 3, harness._DwWork.for_sample(len(s.x)))) <= 2.5

    def test_bootstrap_peak_does_not_grow_with_resamples(self, monkeypatch):
        s = self._sample()
        peaks = []
        for resamples in (2, 32):
            monkeypatch.setattr(harness, "_BOOTSTRAP_RESAMPLES", resamples)
            peaks.append(self._peak_units(lambda: harness._bootstrap_dw_se(
                s, 3, harness._DwWork.for_sample(len(s.x)))))
        assert peaks[1] <= peaks[0] + 0.05

    def test_run_sandwich(self):
        config, data = _golden_sandwich_config(), _golden_sandwich_data(None)
        assert config.replicates == self.R
        assert self._peak_units(lambda: harness.run_sandwich(config, data)) <= 6.0


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


class TestSampleWorkspace:
    @pytest.mark.parametrize("r", [1, 2, 3, 8191, 8192, 200_000])
    def test_holds_the_levels_i_over_r(self, r):
        work = harness._DwWork.for_sample(r)
        assert np.array_equal(work.levels, np.arange(1, r + 1) / r)
        assert len(work.below) == len(work.cross) == r - 1


class TestBootstrapSE:
    def test_deterministic_and_positive(self):
        s = harness._sort_sample(np.random.default_rng(10).standard_normal(500), "test")
        work = harness._DwWork.for_sample(len(s.x))
        a = harness._bootstrap_dw_se(s, 99, work)
        b = harness._bootstrap_dw_se(s, 99, harness._DwWork.for_sample(len(s.x)))
        assert a == b
        assert a > 0.0
        assert harness._bootstrap_dw_se(s, 100, work) != a


class TestBootstrapIndices:
    @pytest.mark.parametrize("chunk", [7, 8191, harness._DRAW_CHUNK])
    def test_chunked_draws_are_one_integers_call(self, chunk, monkeypatch):
        # chunks of an odd length leave PCG64's spare half-word in the
        # generator for the next chunk, so they still give one call's
        # indices, and the next resample starts where one call would leave it
        r = 20_000
        monkeypatch.setattr(harness, "_DRAW_CHUNK", chunk)
        rank = harness._sort_sample(np.random.default_rng(1).standard_normal(r), "test").rank
        expected_rng, rng = np.random.default_rng(7), np.random.default_rng(7)
        work = harness._DwWork.for_sample(r)
        for _ in range(2):
            ranks = rank[expected_rng.integers(0, r, size=r)]
            harness._resample_levels(rng, rank, work)
            assert np.array_equal(work.levels[:-1],
                                  np.cumsum(np.bincount(ranks, minlength=r)[:-1]) / r)


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


class TestDwSamplingBias:
    def test_integral_constant(self):
        # sqrt(Phi (1 - Phi)) is even in z
        half, _ = scipy.integrate.quad(
            lambda z: math.sqrt(scipy.stats.norm.cdf(z) * scipy.stats.norm.sf(z)),
            0.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=200)
        assert harness._W1_NULL_INTEGRAL == pytest.approx(2.0 * half, rel=1e-12)

    def test_null_mean_of_normal_samples(self):
        # 300 samples of 1000 standard normals: the mean W1 to N(0,1) is the
        # bias the dw verdict allows for, within 4 standard errors
        dws = np.array([harness.empirical_dw(np.random.default_rng(5000 + i)
                                             .standard_normal(1000))
                        for i in range(300)])
        se = dws.std(ddof=1) / math.sqrt(len(dws))
        assert abs(dws.mean() - harness._dw_sampling_bias(1000)) <= 4.0 * se

    @staticmethod
    def _fixed_sample(config: ExperimentConfig) -> harness.ReplicateData:
        # a fixed sample that no change of the engine's streams can move:
        # replicate i drawn from its own stream (seed, i), one tree and then
        # one normal, as the engine drew them before its streams were per
        # block
        columns = np.empty((3, config.replicates))
        for i in range(config.replicates):
            ss = np.random.SeedSequence(entropy=config.seed, spawn_key=(i,))
            rng = np.random.Generator(np.random.PCG64(ss))
            mean, var = trees.conditional_moments_you(trees.sample_tree(config.n, rng),
                                                      config.params)
            columns[:, i] = mean[0], var[0], rng.normal(mean[0], math.sqrt(var[0]))
        return harness.ReplicateData(*columns)

    def _sandwich(self, shift: float) -> harness.SandwichReport:
        config = ExperimentConfig(model="YOU", n=5000,
                                  params=YouParams(alpha=1.0, x0=1.0 / math.sqrt(2.0)),
                                  schedule=JumpSchedule.none(), replicates=1000, seed=11)
        data = self._fixed_sample(config)
        sd = math.sqrt(analytic.var_ybar_you(config.n, config.params))
        data.ybar = data.ybar + shift * sd
        return harness.run_sandwich(config, data)

    def test_small_sample_bias_is_not_a_failure(self):
        # W1 of 1000 draws sits about 0.04 above the distance it estimates;
        # 3 bootstrap errors alone (0.037 here) do not cover it
        report = self._sandwich(0.0)
        assert report.empirical_dw > report.upper_dw.total + 3.0 * report.dw_bootstrap_se
        assert report.verdict_dw == "pass"

    def test_shifted_sample_still_fails(self):
        report = self._sandwich(0.3)
        assert report.verdict_dw == "fail"


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

    def test_rate_beyond_the_rate_table_refused_before_drawing(self, monkeypatch):
        def no_draws(config):
            raise AssertionError("a replicate was drawn")

        monkeypatch.setattr(harness, "run_replicates", no_draws)
        config = _you_config(n=1000, alpha=1e300, replicates=100)
        with pytest.raises(ValueError, match="cannot hold vv at alpha = 1e\\+300"):
            harness.run_sandwich(config)

    @pytest.mark.parametrize("rows", [199, 201])
    def test_data_of_another_sample_size_rejected(self, rows):
        config = _you_config(n=20, replicates=200)
        data = harness.run_replicates(dataclasses.replace(config, replicates=rows))
        with pytest.raises(ValueError, match=f"got {rows} replicates .* of 200"):
            harness.run_sandwich(config, data)

    def test_run_experiment_skips_sandwich_for_per_event(self):
        config = ExperimentConfig(
            model="YOUj", n=5, params=YouParams(alpha=1.0),
            schedule=JumpSchedule.per_event([(0.5, 1.0)] * 4),
            replicates=50, seed=SEED)
        result = harness.run_experiment(config)
        assert result.sandwich is None
        assert result.sandwich_omitted == "per-event schedules have no closed-form bounds"
        assert result.estimates.ev.r_used == 50

    def test_run_experiment_skips_sandwich_below_critical_rate(self):
        config = ExperimentConfig(
            model="YOU", n=5, params=YouParams(alpha=0.3),
            schedule=JumpSchedule.none(), replicates=50, seed=SEED)
        result = harness.run_experiment(config)
        assert result.sandwich is None
        assert result.sandwich_omitted == "no normal limit expected below the critical rate"
        assert result.estimates.ev.r_used == 50

    def test_run_experiment_names_a_per_event_schedule_first(self):
        config = ExperimentConfig(
            model="YOUj", n=5, params=YouParams(alpha=0.3),
            schedule=JumpSchedule.per_event([(0.5, 1.0)] * 4), replicates=50, seed=SEED)
        assert harness.run_experiment(config).sandwich_omitted == (
            "per-event schedules have no closed-form bounds")

    def test_inactive_per_event_schedule_is_sandwiched_as_jump_free(self):
        config = ExperimentConfig(
            model="YOUj", n=5, params=YouParams(alpha=1.0),
            schedule=JumpSchedule.per_event([(0.0, 1.0)] * 4),
            replicates=50, seed=SEED)
        result = harness.run_experiment(config)
        assert result.sandwich_omitted is None
        assert result.sandwich.upper_dk == analytic.bound_point(
            YouParams(alpha=1.0), None, 5)[stein.KOLMOGOROV]

    def test_run_experiment_includes_sandwich_by_default(self):
        result = harness.run_experiment(_you_config(n=20, replicates=200))
        assert result.sandwich is not None
        assert result.sandwich_omitted is None
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
                                  replicates=r, seed=SEED + 4,
                                  workers=harness.resolve_workers(None, verify.DEFAULT_WORKERS))
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

    @pytest.mark.parametrize("model, alpha, schedule, error", [
        pytest.param("YOUj", 1.0, JumpSchedule.per_event([(0.5, 1.0)] * 5),
                     analytic.PerEventScheduleError, id="per_event"),
        pytest.param("YOU", 0.3, JumpSchedule.none(), analytic.UnsupportedRegimeError,
                     id="slow_rate"),
    ])
    def test_no_closed_form_raises_before_drawing(self, monkeypatch, model, alpha,
                                                 schedule, error):
        def no_draws(*args, **kwargs):
            raise AssertionError("run_replicates was called")

        monkeypatch.setattr(harness, "run_replicates", no_draws)
        config = ExperimentConfig(model=model, n=6, params=YouParams(alpha=alpha),
                                  schedule=schedule, replicates=20000, seed=SEED)
        with pytest.raises(error) as expected:
            analytic.var_ybar_youj(config.n, config.params, config.schedule)
        with pytest.raises(error) as raised:
            harness.oracle_checks(config)
        assert str(raised.value) == str(expected.value)
        assert raised.value.reason == expected.value.reason

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
