"""Tests for the pure-birth tree sampler and exact per-tree moments.

Monte Carlo checks draw fresh trees and compare sample means against the
closed forms from the analytic module at 4 standard errors; the structural
checks compare the O(n) aggregate routes against independent brute-force
routes from oracles.py.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from youbounds import analytic, trees
from youbounds.analytic import JumpSchedule, YouParams
from youbounds.trees import JumpRealization, YuleTree

R_TREES = 100_000
R_YBAR = 1_000_000


class _StubRNG:
    """Deterministic stand-in for a Generator: hands out queued uniform
    blocks and one fixed integer block."""

    def __init__(self, blocks, ints=()):
        self._blocks = [np.asarray(b, dtype=np.float64) for b in blocks]
        self._ints = np.asarray(ints, dtype=np.int64)

    def random(self, size=None):
        block = self._blocks.pop(0)
        assert block.size == size
        return block.copy()

    def integers(self, low, high, dtype=None):
        return self._ints.copy()


def _two_tip_tree(t1: float, t2: float) -> YuleTree:
    return YuleTree(
        times=np.array([t1, t2]),
        splits=np.array([0], dtype=np.int64),
        daughter_counts=np.array([[1, 1]], dtype=np.int64),
        coalescence_ages=np.array([t2]),
    )


def _assert_within_4se(samples: np.ndarray, target: float) -> None:
    se = samples.std(ddof=1) / math.sqrt(len(samples))
    assert abs(samples.mean() - target) <= 4.0 * se


@pytest.fixture(scope="module")
def stats_50():
    """One 1e5-replicate pass over 50-tip trees, accumulating every statistic
    the module-level Monte Carlo examples need."""
    rng = np.random.default_rng(20260819)
    params = YouParams(alpha=1.0)
    schedule = JumpSchedule.constant(0.5, 1.0)
    names = ("exp_height", "pair_y1", "pair_y2", "cond_var", "jump_part",
             "single_sum", "pair_sum")
    out = {name: np.empty(R_TREES) for name in names}
    for r in range(R_TREES):
        tree = trees.sample_tree(50, rng)
        out["exp_height"][r] = math.exp(-tree.height)
        out["pair_y1"][r] = trees.pair_mean_exp(tree, 1.0)
        out["pair_y2"][r] = trees.pair_mean_exp(tree, 2.0)
        base = trees.conditional_moments_you(tree, params)
        out["cond_var"][r] = base.cond_var
        jumps = trees.sample_jumps(tree, schedule, rng)
        withj = trees.conditional_moments_youj(tree, jumps, params)
        out["jump_part"][r] = withj.cond_var - base.cond_var
        single, pair = trees.jump_exposure_sums(tree, jumps, params.alpha)
        out["single_sum"][r] = single
        out["pair_sum"][r] = pair
    return out


@pytest.fixture(scope="module")
def stats_100():
    """1e5 heights of 100-tip trees, transformed by exp(-2U)."""
    rng = np.random.default_rng(20260820)
    vals = np.empty(R_TREES)
    for r in range(R_TREES):
        vals[r] = math.exp(-2.0 * trees.sample_tree(100, rng).height)
    return vals


@pytest.fixture(scope="module")
def stats_single_edge():
    """1e5 single-tip trees: the lone edge is a unit-rate exponential."""
    rng = np.random.default_rng(20260821)
    heights = np.empty(R_TREES)
    for r in range(R_TREES):
        heights[r] = trees.sample_tree(1, rng).height
    return heights


class TestSampleTree:
    @pytest.mark.parametrize("n", [0, -3, 2.5])
    def test_rejects_bad_tip_count(self, n):
        with pytest.raises(ValueError, match="n >= 1"):
            trees.sample_tree(n, np.random.default_rng(0))

    def test_single_edge(self):
        tree = trees.sample_tree(1, np.random.default_rng(7))
        assert tree.n == 1
        assert tree.times.shape == (1,)
        assert tree.times[0] > 0.0
        assert tree.splits.shape == (0,)
        assert tree.daughter_counts.shape == (0, 2)
        assert tree.coalescence_ages.shape == (0,)
        assert tree.height == tree.times[0]

    def test_shapes_and_ranges(self):
        n = 40
        tree = trees.sample_tree(n, np.random.default_rng(11))
        assert tree.n == n
        assert tree.times.shape == (n,)
        assert np.all(tree.times > 0.0)
        assert tree.splits.shape == (n - 1,)
        assert np.issubdtype(tree.splits.dtype, np.integer)
        assert np.all(tree.splits >= 0)
        assert np.all(tree.splits < np.arange(1, n))
        assert tree.daughter_counts.shape == (n - 1, 2)
        assert np.all(tree.daughter_counts >= 1)
        assert tree.daughter_counts[0].sum() == n
        assert tree.coalescence_ages.shape == (n - 1,)
        assert np.all(np.diff(tree.coalescence_ages) < 0.0)
        assert tree.coalescence_ages[-1] == tree.times[-1]
        assert tree.coalescence_ages[0] + tree.times[0] == pytest.approx(
            tree.height, rel=1e-15)

    def test_deterministic_given_seed(self):
        a = trees.sample_tree(30, np.random.default_rng(404))
        b = trees.sample_tree(30, np.random.default_rng(404))
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.splits, b.splits)
        assert np.array_equal(a.daughter_counts, b.daughter_counts)

    def test_arrays_are_read_only(self):
        tree = trees.sample_tree(12, np.random.default_rng(3))
        for arr in (tree.times, tree.splits, tree.daughter_counts,
                    tree.coalescence_ages):
            assert not arr.flags.writeable

    def test_zero_uniform_is_redrawn(self):
        # A literal u = 0 would give a zero-length period; the sampler
        # replaces it and keeps the other draws.
        rng = _StubRNG(blocks=[[0.5, 0.0, 0.25], [0.75]], ints=[0, 1])
        tree = trees.sample_tree(3, rng)
        assert tree.times[0] == -math.log1p(-0.5)
        assert tree.times[1] == -math.log1p(-0.75) / 2.0
        assert tree.times[2] == -math.log1p(-0.25) / 3.0
        assert np.all(tree.times > 0.0)

    def test_caterpillar_counts(self):
        # Splitting the newest lineage every time nests the clades, so the
        # daughter counts walk down (1, n-1), (1, n-2), ..., (1, 1).
        rng = _StubRNG(blocks=[[0.5, 0.5, 0.5, 0.5]], ints=[0, 1, 2])
        tree = trees.sample_tree(4, rng)
        assert tree.daughter_counts.tolist() == [[1, 3], [1, 2], [1, 1]]

    def test_balanced_counts(self):
        # Events 2 and 3 split the two root daughters (the second sits at
        # slot 1 after event 2), leaving both sides of the root with 2 tips.
        rng = _StubRNG(blocks=[[0.5, 0.5, 0.5, 0.5]], ints=[0, 0, 1])
        tree = trees.sample_tree(4, rng)
        assert tree.daughter_counts.tolist() == [[2, 2], [1, 1], [1, 1]]

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(min_value=2, max_value=120),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_pair_count_identity(self, n, seed):
        tree = trees.sample_tree(n, np.random.default_rng(seed))
        counts = tree.daughter_counts
        assert int((counts[:, 0] * counts[:, 1]).sum()) == n * (n - 1) // 2

    def test_single_edge_is_unit_exponential(self, stats_single_edge):
        # E exp(-x U) for U ~ Exp(1) is 1/(1+x).
        for x in (1.0, 2.0):
            _assert_within_4se(np.exp(-x * stats_single_edge), 1.0 / (1.0 + x))
        _assert_within_4se(stats_single_edge, 1.0)


class TestDaughterCountKernel:
    @pytest.mark.parametrize("b", [1, 5])
    @pytest.mark.parametrize("n", [2, 3, 17, 200, 1000])
    def test_matches_chain_replay(self, n, b):
        # a random block, then the same block with a caterpillar (every
        # event splits the newest lineage, the deepest slot tree) in it
        rng = np.random.default_rng(1000 * n + b)
        splits = np.stack([rng.integers(0, np.arange(1, n)) for _ in range(b)])
        caterpillar = splits.copy()
        caterpillar[b // 2] = np.arange(n - 1)
        for block in (splits, caterpillar):
            counts = trees.daughter_counts(block)
            assert counts.shape == (b, n - 1, 2)
            for row, got in zip(block, counts):
                assert np.array_equal(got, oracles.daughter_counts_by_chains(row))


class TestPairMeanExp:
    def test_rejects_single_tip(self):
        tree = trees.sample_tree(1, np.random.default_rng(0))
        with pytest.raises(ValueError, match="n >= 2"):
            trees.pair_mean_exp(tree, 1.0)

    def test_two_tips_closed_form(self):
        tree = _two_tip_tree(0.8, 0.6)
        for y in (0.3, 1.0, 2.0):
            assert trees.pair_mean_exp(tree, y) == pytest.approx(
                math.exp(-y * 0.6), rel=1e-15)

    def test_tiny_rate_limit(self):
        rng = np.random.default_rng(5)
        for n in (2, 17, 60):
            tree = trees.sample_tree(n, rng)
            assert trees.pair_mean_exp(tree, 1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            tree = trees.sample_tree(int(rng.integers(2, 80)), rng)
            v = trees.pair_mean_exp(tree, float(rng.uniform(0.1, 3.0)))
            assert 0.0 < v < 1.0

    def test_matches_all_pairs_route(self):
        # The event-weighted O(n) form must agree with summing
        # exp(-y * age) over every explicit tip pair.
        rng = np.random.default_rng(77)
        for _ in range(30):
            n = int(rng.integers(2, 65))
            tree = trees.sample_tree(n, rng)
            ages = oracles.mrca_pair_ages(tree)
            iu = np.triu_indices(n, 1)
            for y in (0.7, 2.0):
                brute = float(np.exp(-y * ages[iu]).mean())
                assert abs(trees.pair_mean_exp(tree, y) - brute) <= 1e-12


class TestConditionalMomentsYou:
    def test_centered_start_means_zero(self):
        tree = trees.sample_tree(25, np.random.default_rng(1))
        m = trees.conditional_moments_you(tree, YouParams(alpha=1.3))
        assert m.cond_mean == 0.0

    def test_mean_decays_with_height(self):
        tree = trees.sample_tree(25, np.random.default_rng(2))
        params = YouParams(alpha=0.7, sigma_a2=2.0, x0=1.3)
        m = trees.conditional_moments_you(tree, params)
        assert m.cond_mean == pytest.approx(
            params.delta * math.exp(-0.7 * tree.height), rel=1e-15)

    def test_single_tip_variance(self):
        tree = trees.sample_tree(1, np.random.default_rng(3))
        m = trees.conditional_moments_you(tree, YouParams(alpha=0.9))
        assert m.cond_var == pytest.approx(
            1.0 - math.exp(-1.8 * tree.height), rel=1e-15)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_two_tip_closed_form(self, alpha):
        tree = _two_tip_tree(0.9, 0.4)
        m = trees.conditional_moments_you(tree, YouParams(alpha=alpha))
        expected = (0.5 + 0.5 * math.exp(-2.0 * alpha * 0.4)
                    - math.exp(-2.0 * alpha * 1.3))
        assert m.cond_var == pytest.approx(expected, rel=1e-14)

    def test_matches_covariance_matrix_route(self):
        rng = np.random.default_rng(88)
        for _ in range(30):
            n = int(rng.integers(2, 33))
            tree = trees.sample_tree(n, rng)
            params = YouParams(alpha=float(rng.uniform(0.4, 2.2)))
            fast = trees.conditional_moments_you(tree, params).cond_var
            brute = oracles.cov_matrix_cond_var(tree, params)
            assert abs(fast - brute) <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(min_value=1, max_value=100),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           alpha=st.floats(min_value=0.2, max_value=3.0))
    def test_variance_envelopes(self, n, seed, alpha):
        tree = trees.sample_tree(n, np.random.default_rng(seed))
        m = trees.conditional_moments_you(tree, YouParams(alpha=alpha))
        tip_share = 1.0 - math.exp(-2.0 * alpha * tree.height)
        assert m.cond_var >= tip_share / n - 1e-15
        assert m.cond_var <= tip_share + 1e-15

    def test_mc_mean_exp_height(self, stats_50, stats_100):
        _assert_within_4se(stats_50["exp_height"], analytic.laplace_height(50, 1.0))
        _assert_within_4se(stats_100, analytic.laplace_height(100, 2.0))

    def test_mc_height_transform_variance(self, stats_100):
        # Delta-method gate: the sampling error of a sample variance is
        # roughly the standard error of the squared deviations.
        dev2 = (stats_100 - stats_100.mean()) ** 2
        se = dev2.std(ddof=1) / math.sqrt(len(stats_100))
        target = analytic.laplace_height_variance(100, 2.0)
        assert abs(stats_100.var(ddof=1) - target) <= 4.0 * se

    @pytest.mark.parametrize("y,key", [(1.0, "pair_y1"), (2.0, "pair_y2")])
    def test_mc_pair_time_transform(self, stats_50, y, key):
        _assert_within_4se(stats_50[key], analytic.laplace_pair_time(50, y))

    def test_mc_cond_var_mean(self, stats_50):
        _assert_within_4se(stats_50["cond_var"],
                           analytic.var_ybar_you(50, YouParams(alpha=1.0)))


class TestSampleJumps:
    def test_consumes_fixed_uniform_budget(self):
        # Identical streams must stay aligned after sampling under different
        # schedules, so the draw count cannot depend on the probabilities.
        tree = trees.sample_tree(10, np.random.default_rng(9))
        follow = {}
        for p in (0.0, 0.35, 1.0):
            rng = np.random.default_rng(123)
            trees.sample_jumps(tree, JumpSchedule.constant(p, 1.0), rng)
            follow[p] = rng.random()
        assert follow[0.0] == follow[0.35] == follow[1.0]

    def test_probability_extremes(self):
        tree = trees.sample_tree(15, np.random.default_rng(10))
        rng = np.random.default_rng(1)
        none = trees.sample_jumps(tree, JumpSchedule.constant(0.0, 2.0), rng)
        assert not none.flags.any()
        assert np.all(none.variances == 2.0)
        every = trees.sample_jumps(tree, JumpSchedule.constant(1.0, 3.0), rng)
        assert every.flags.all()
        assert every.flags.shape == (14, 2)

    def test_flag_fraction_tracks_probability(self):
        tree = trees.sample_tree(10_000, np.random.default_rng(12))
        jumps = trees.sample_jumps(tree, JumpSchedule.constant(0.5, 1.0),
                                   np.random.default_rng(13))
        slots = 2 * (tree.n - 1)
        se = math.sqrt(0.25 / slots)
        assert abs(jumps.flags.mean() - 0.5) <= 4.0 * se

    def test_per_event_expansion(self):
        tree = trees.sample_tree(4, np.random.default_rng(14))
        schedule = JumpSchedule.per_event([(0.0, 5.0), (1.0, 7.0), (0.0, 9.0)])
        jumps = trees.sample_jumps(tree, schedule, np.random.default_rng(15))
        assert jumps.variances.tolist() == [5.0, 7.0, 9.0]
        assert jumps.flags.tolist() == [[False, False], [True, True],
                                        [False, False]]

    def test_short_schedule_rejected(self):
        tree = trees.sample_tree(4, np.random.default_rng(16))
        schedule = JumpSchedule.per_event([(0.5, 1.0), (0.5, 1.0)])
        with pytest.raises(ValueError, match="entries"):
            trees.sample_jumps(tree, schedule, np.random.default_rng(17))

    def test_realization_shape_validated(self):
        with pytest.raises(ValueError, match="shape"):
            JumpRealization(flags=np.zeros((3, 2), dtype=bool),
                            variances=np.zeros(2))


class TestConditionalMomentsYouj:
    def test_no_flags_equals_jump_free(self):
        tree = trees.sample_tree(20, np.random.default_rng(18))
        params = YouParams(alpha=1.1)
        jumps = JumpRealization(flags=np.zeros((19, 2), dtype=bool),
                                variances=np.full(19, 4.0))
        assert trees.conditional_moments_youj(tree, jumps, params) == \
            trees.conditional_moments_you(tree, params)

    def test_mean_unchanged_by_jumps(self):
        tree = trees.sample_tree(20, np.random.default_rng(19))
        params = YouParams(alpha=1.1, x0=0.7)
        jumps = trees.sample_jumps(tree, JumpSchedule.constant(0.6, 1.5),
                                   np.random.default_rng(20))
        base = trees.conditional_moments_you(tree, params)
        withj = trees.conditional_moments_youj(tree, jumps, params)
        assert withj.cond_mean == base.cond_mean

    def test_two_tip_hand_value(self):
        tree = _two_tip_tree(0.9, 0.4)
        params = YouParams(alpha=0.9, sigma_a2=1.5)
        base = trees.conditional_moments_you(tree, params).cond_var
        one = JumpRealization(flags=np.array([[True, False]]),
                              variances=np.array([0.8]))
        add = (2.0 * 0.9 / 1.5) * 0.8 * math.exp(-1.8 * 0.4) / 4.0
        got = trees.conditional_moments_youj(tree, one, params).cond_var
        assert got == pytest.approx(base + add, rel=1e-14)
        both = JumpRealization(flags=np.array([[True, True]]),
                               variances=np.array([0.8]))
        got2 = trees.conditional_moments_youj(tree, both, params).cond_var
        assert got2 == pytest.approx(base + 2.0 * add, rel=1e-14)

    def test_jumps_inflate_variance(self):
        rng = np.random.default_rng(21)
        params = YouParams(alpha=0.8)
        for _ in range(10):
            tree = trees.sample_tree(int(rng.integers(2, 40)), rng)
            jumps = trees.sample_jumps(tree, JumpSchedule.constant(1.0, 0.5), rng)
            base = trees.conditional_moments_you(tree, params).cond_var
            withj = trees.conditional_moments_youj(tree, jumps, params).cond_var
            assert withj > base

    def test_matches_covariance_matrix_route(self):
        rng = np.random.default_rng(89)
        schedule = JumpSchedule.constant(0.6, 1.3)
        for _ in range(30):
            n = int(rng.integers(2, 33))
            tree = trees.sample_tree(n, rng)
            params = YouParams(alpha=float(rng.uniform(0.4, 2.2)))
            jumps = trees.sample_jumps(tree, schedule, rng)
            fast = trees.conditional_moments_youj(tree, jumps, params).cond_var
            brute = oracles.cov_matrix_cond_var(tree, params, jumps)
            assert abs(fast - brute) <= 1e-10

    def test_mc_jump_variance_part(self, stats_50):
        params = YouParams(alpha=1.0)
        schedule = JumpSchedule.constant(0.5, 1.0)
        target = (analytic.var_ybar_youj(50, params, schedule)
                  - analytic.var_ybar_you(50, params))
        _assert_within_4se(stats_50["jump_part"], target)


class TestJumpExposureSums:
    def test_single_tip_zero(self):
        tree = trees.sample_tree(1, np.random.default_rng(22))
        jumps = JumpRealization(flags=np.zeros((0, 2), dtype=bool),
                                variances=np.zeros(0))
        assert trees.jump_exposure_sums(tree, jumps, 1.0) == (0.0, 0.0)

    def test_no_flags_zero(self):
        tree = trees.sample_tree(12, np.random.default_rng(23))
        jumps = JumpRealization(flags=np.zeros((11, 2), dtype=bool),
                                variances=np.ones(11))
        assert trees.jump_exposure_sums(tree, jumps, 0.7) == (0.0, 0.0)

    def test_two_tip_hand_values(self):
        tree = _two_tip_tree(0.5, 0.3)
        one = JumpRealization(flags=np.array([[True, False]]),
                              variances=np.array([1.0]))
        single, pair = trees.jump_exposure_sums(tree, one, 1.2)
        assert single == pytest.approx(math.exp(-2.4 * 0.3) / 2.0, rel=1e-15)
        assert pair == 0.0
        both = JumpRealization(flags=np.array([[True, True]]),
                               variances=np.array([1.0]))
        single2, _ = trees.jump_exposure_sums(tree, both, 1.2)
        assert single2 == pytest.approx(math.exp(-2.4 * 0.3), rel=1e-15)

    def test_mc_means_match_closed_forms(self, stats_50):
        _assert_within_4se(stats_50["single_sum"],
                           analytic.jump_single_lineage_mean(50, 1.0, 0.5))
        _assert_within_4se(stats_50["pair_sum"],
                           analytic.jump_pair_shared_mean(50, 1.0, 0.5))


class TestSampleYbar:
    def test_deterministic_and_jump_free_aliases(self):
        tree = trees.sample_tree(8, np.random.default_rng(24))
        params = YouParams(alpha=1.0, x0=0.5)
        off = JumpRealization(flags=np.zeros((7, 2), dtype=bool),
                              variances=np.zeros(7))
        a = [trees.sample_ybar(tree, params, np.random.default_rng(25))
             for _ in range(5)]
        b = [trees.sample_ybar(tree, params, np.random.default_rng(25))
             for _ in range(5)]
        assert a == b
        rng1 = np.random.default_rng(26)
        rng2 = np.random.default_rng(26)
        for _ in range(5):
            assert trees.sample_ybar(tree, params, rng1) == \
                trees.sample_ybar(tree, params, rng2, jumps=off)

    def test_tiny_variance_collapses_to_mean(self):
        tree = _two_tip_tree(1e-9, 1e-9)
        params = YouParams(alpha=1.0, x0=2.0)
        m = trees.conditional_moments_you(tree, params)
        draw = trees.sample_ybar(tree, params, np.random.default_rng(27))
        assert m.cond_var < 1e-8
        assert draw == pytest.approx(m.cond_mean, abs=1e-3)

    def test_mc_moments_on_fixed_tree(self):
        tree = trees.sample_tree(10, np.random.default_rng(28))
        params = YouParams(alpha=0.8, x0=0.9)
        m = trees.conditional_moments_you(tree, params)
        rng = np.random.default_rng(29)
        draws = np.fromiter(
            (trees.sample_ybar(tree, params, rng) for _ in range(R_YBAR)),
            dtype=np.float64, count=R_YBAR)
        mean_se = math.sqrt(m.cond_var / R_YBAR)
        assert abs(draws.mean() - m.cond_mean) <= 4.0 * mean_se
        var_se = m.cond_var * math.sqrt(2.0 / (R_YBAR - 1))
        assert abs(draws.var(ddof=1) - m.cond_var) <= 4.0 * var_se


class TestDumpTree:
    def test_exact_format(self):
        tree = YuleTree(
            times=np.array([0.5, 0.25, 0.125]),
            splits=np.array([0, 1], dtype=np.int64),
            daughter_counts=np.array([[1, 2], [1, 1]], dtype=np.int64),
            coalescence_ages=np.array([0.375, 0.125]),
        )
        assert trees.dump_tree(tree) == (
            "1\t0.5\t1\t-\n"
            "2\t0.25\t2\t-\n"
            "3\t0.125\t-\t-\n"
        )
        jumps = JumpRealization(
            flags=np.array([[True, False], [False, True]]),
            variances=np.array([1.0, 1.0]),
        )
        assert trees.dump_tree(tree, jumps) == (
            "1\t0.5\t1\t10\n"
            "2\t0.25\t2\t01\n"
            "3\t0.125\t-\t-\n"
        )

    def test_single_tip_dump(self):
        tree = trees.sample_tree(1, np.random.default_rng(30))
        text = trees.dump_tree(tree)
        lines = text.splitlines()
        assert len(lines) == 1
        assert lines[0].split("\t")[0] == "1"
        assert lines[0].endswith("\t-\t-")

    def test_durations_roundtrip_exactly(self):
        tree = trees.sample_tree(9, np.random.default_rng(31))
        lines = trees.dump_tree(tree).splitlines()
        assert len(lines) == 9
        for k, line in enumerate(lines):
            fields = line.split("\t")
            assert len(fields) == 4
            assert fields[0] == str(k + 1)
            assert float(fields[1]) == tree.times[k]
        splits = [int(line.split("\t")[2]) for line in lines[:-1]]
        assert splits == [int(s) + 1 for s in tree.splits]
