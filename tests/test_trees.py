"""Tests for the pure-birth tree sampler and exact per-tree moments.

Single trees are one-row blocks.

Monte Carlo checks draw fresh trees and compare sample means against the
closed forms from the analytic module at 4 standard errors; the structural
checks compare the O(n) aggregate routes against independent brute-force
routes: the ancestor-chain replays of oracles.py and the all-pairs matrices
that `verify` criterion 2 also uses.
"""

import copy
import dataclasses
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from youbounds import analytic, harness, trees, verify
from youbounds.analytic import JumpSchedule, YouParams

R_TREES = 100_000


class _StubRNG:
    """Deterministic stand-in for a Generator: hands out queued uniform
    blocks and one fixed integer block, each in the shape asked for; like
    Generator.random, random fills `out` when given one."""

    def __init__(self, blocks, ints=()):
        self._blocks = [np.asarray(b, dtype=np.float64) for b in blocks]
        self._ints = np.asarray(ints, dtype=np.int64)

    def random(self, size=None, out=None):
        block = self._blocks.pop(0)
        if out is None:
            assert block.size == np.prod(size)
            return block.reshape(size).copy()
        assert size is None and block.size == out.size
        out[...] = block.reshape(out.shape)
        return out

    def integers(self, low, high, size=None, dtype=None):
        assert self._ints.size == np.prod(size)
        return self._ints.reshape(size).copy()


def _two_tip_tree(t1: float, t2: float) -> trees.TreeBlock:
    return trees.TreeBlock(
        times=np.array([[t1, t2]]),
        splits=np.array([[0]], dtype=np.int64),
        daughter_counts=np.array([[[1, 1]]], dtype=np.int64),
        coalescence_ages=np.array([[t2]]),
        heights=np.array([t1 + t2]),
    )


def _jump_flags(schedule: JumpSchedule, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """One tree's (1, n-1, 2) jump flags under the schedule, and the
    schedule's per-event jump variances."""
    ps, variances = trees.jump_event_arrays(schedule, n)
    return trees.sample_jumps(ps, rng), variances


def _assert_within_4se(samples: np.ndarray, target: float) -> None:
    se = samples.std(ddof=1) / math.sqrt(len(samples))
    assert abs(samples.mean() - target) <= 4.0 * se


def _block_rows():
    """Row counts of the blocks that make up R_TREES trees: 4096 rows each,
    the last block shorter."""
    return [min(4096, R_TREES - lo) for lo in range(0, R_TREES, 4096)]


@pytest.fixture(scope="module")
def stats_50():
    """One 1e5-replicate pass over 50-tip trees, accumulating every statistic
    the module-level Monte Carlo examples need."""
    rng = np.random.default_rng(20260819)
    params = YouParams(alpha=1.0)
    ps, variances = trees.jump_event_arrays(JumpSchedule.constant(0.5, 1.0), 50)
    names = ("exp_height", "pair_y1", "pair_y2", "cond_var", "jump_part",
             "single_sum", "pair_sum")
    out = {name: [] for name in names}
    for rows in _block_rows():
        block = trees.sample_tree(50, rng, rows)
        flags = trees.sample_jumps(ps, rng, rows)
        out["exp_height"].append(np.exp(-block.heights))
        out["pair_y1"].append(trees.pair_mean_exp(block, 1.0))
        out["pair_y2"].append(trees.pair_mean_exp(block, 2.0))
        cond_var = trees.conditional_moments_you(block, params)[1]
        out["cond_var"].append(cond_var)
        out["jump_part"].append(
            trees.conditional_moments_youj(block, flags, variances, params)[1] - cond_var)
        single, pair = trees.jump_exposure_sums(block, flags, params.alpha)
        out["single_sum"].append(single)
        out["pair_sum"].append(pair)
    return {name: np.concatenate(parts) for name, parts in out.items()}


@pytest.fixture(scope="module")
def stats_100():
    """1e5 heights of 100-tip trees, transformed by exp(-2U)."""
    rng = np.random.default_rng(20260820)
    return np.concatenate([np.exp(-2.0 * trees.sample_tree(100, rng, rows).heights)
                           for rows in _block_rows()])


@pytest.fixture(scope="module")
def stats_single_edge():
    """1e5 single-tip trees: the lone edge is a unit-rate exponential."""
    rng = np.random.default_rng(20260821)
    return np.concatenate([trees.sample_tree(1, rng, rows).heights for rows in _block_rows()])


class TestSampleTree:
    @pytest.mark.parametrize("n", [0, -3, 2.5])
    def test_rejects_bad_tip_count(self, n):
        with pytest.raises(ValueError, match="n >= 1"):
            trees.sample_tree(n, np.random.default_rng(0))

    def test_single_edge(self):
        tree = trees.sample_tree(1, np.random.default_rng(7))
        assert tree.n == 1
        assert tree.times.shape == (1, 1)
        assert tree.times[0, 0] > 0.0
        assert tree.splits.shape == (1, 0)
        assert tree.daughter_counts.shape == (1, 0, 2)
        assert tree.coalescence_ages.shape == (1, 0)
        assert tree.heights.tolist() == [tree.times[0, 0]]

    def test_shapes_and_ranges(self):
        n = 40
        tree = trees.sample_tree(n, np.random.default_rng(11))
        assert tree.n == n
        assert tree.times.shape == (1, n)
        times = tree.times[0]
        assert np.all(times > 0.0)
        assert tree.splits.shape == (1, n - 1)
        splits = tree.splits[0]
        assert np.issubdtype(splits.dtype, np.integer)
        assert np.all(splits >= 0)
        assert np.all(splits < np.arange(1, n))
        assert tree.daughter_counts.shape == (1, n - 1, 2)
        counts = tree.daughter_counts[0]
        assert np.all(counts >= 1)
        assert counts[0].sum() == n
        assert tree.coalescence_ages.shape == (1, n - 1)
        ages = tree.coalescence_ages[0]
        assert np.all(np.diff(ages) < 0.0)
        assert ages[-1] == times[-1]
        assert tree.heights.shape == (1,)
        assert ages[0] + times[0] == pytest.approx(tree.heights[0], rel=1e-15)

    def test_deterministic_given_seed(self):
        a = trees.sample_tree(30, np.random.default_rng(404))
        b = trees.sample_tree(30, np.random.default_rng(404))
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.splits, b.splits)
        assert np.array_equal(a.daughter_counts, b.daughter_counts)

    def test_zero_uniform_is_redrawn(self):
        # A literal u = 0 would give a zero-length period; the sampler
        # replaces it and keeps the other draws.
        rng = _StubRNG(blocks=[[0.5, 0.0, 0.25], [0.75]], ints=[0, 1])
        times = trees.sample_tree(3, rng).times[0]
        assert times[0] == -math.log1p(-0.5)
        assert times[1] == -math.log1p(-0.75) / 2.0
        assert times[2] == -math.log1p(-0.25) / 3.0
        assert np.all(times > 0.0)

    def test_zero_uniforms_of_a_block_are_redrawn_in_row_order(self):
        rng = _StubRNG(blocks=[[0.5, 0.0, 0.25, 0.0, 0.125, 0.375], [0.75, 0.625]],
                       ints=[0, 1, 0, 0])
        block = trees.sample_tree(3, rng, 2)
        u = np.array([[0.5, 0.75, 0.25], [0.625, 0.125, 0.375]])
        assert np.array_equal(block.times, -np.log1p(-u) / np.arange(1, 4))
        assert block.splits.tolist() == [[0, 1], [0, 0]]

    def test_caterpillar_counts(self):
        # Splitting the newest lineage every time nests the clades, so the
        # daughter counts walk down (1, n-1), (1, n-2), ..., (1, 1).
        rng = _StubRNG(blocks=[[0.5, 0.5, 0.5, 0.5]], ints=[0, 1, 2])
        tree = trees.sample_tree(4, rng)
        assert tree.daughter_counts[0].tolist() == [[1, 3], [1, 2], [1, 1]]

    def test_balanced_counts(self):
        # Events 2 and 3 split the two root daughters (the second sits at
        # slot 1 after event 2), leaving both sides of the root with 2 tips.
        rng = _StubRNG(blocks=[[0.5, 0.5, 0.5, 0.5]], ints=[0, 0, 1])
        tree = trees.sample_tree(4, rng)
        assert tree.daughter_counts[0].tolist() == [[2, 2], [1, 1], [1, 1]]

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(min_value=2, max_value=120),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_pair_count_identity(self, n, seed):
        tree = trees.sample_tree(n, np.random.default_rng(seed))
        counts = tree.daughter_counts[0]
        assert int((counts[:, 0] * counts[:, 1]).sum()) == n * (n - 1) // 2

    def test_single_edge_is_unit_exponential(self, stats_single_edge):
        # E exp(-x U) for U ~ Exp(1) is 1/(1+x).
        for x in (1.0, 2.0):
            _assert_within_4se(np.exp(-x * stats_single_edge), 1.0 / (1.0 + x))
        _assert_within_4se(stats_single_edge, 1.0)


class TestBlockBuffers:
    def test_reused_buffers_match_fresh_draws(self):
        # a block with a redrawn zero uniform, a block of other trees, then
        # the first again, drawn and scored in one set of buffers: every
        # array must equal a fresh draw of the same block, so no state of
        # one block (such as the subtree sizes) leaks into the next
        n, rows = 6, 3
        uniforms = np.linspace(0.05, 0.95, rows * n)
        with_zero = uniforms.copy()
        with_zero[4] = 0.0
        specs = [
            dict(blocks=[with_zero, [0.6]], ints=np.tile(np.arange(n - 1), rows)),
            dict(blocks=[uniforms[::-1]], ints=np.zeros(rows * (n - 1))),
            dict(blocks=[with_zero, [0.6]], ints=np.tile(np.arange(n - 1), rows)),
        ]
        params = YouParams(alpha=0.8, sigma_a2=1.3, x0=0.4)
        ps, variances = trees.jump_event_arrays(JumpSchedule.constant(0.5, 1.2), n)
        shared = trees.BlockBuffers()
        for k, spec in enumerate(specs):
            tree = trees.sample_tree(n, _StubRNG(**spec), rows, shared)
            fresh = trees.sample_tree(n, _StubRNG(**spec), rows)
            assert np.all(tree.times > 0.0)
            for field in dataclasses.fields(trees.TreeBlock):
                assert np.array_equal(getattr(tree, field.name),
                                      getattr(fresh, field.name)), (k, field.name)
            flags = trees.sample_jumps(ps, np.random.default_rng(k), rows, shared)
            fresh_flags = trees.sample_jumps(ps, np.random.default_rng(k), rows)
            assert np.array_equal(flags, fresh_flags)
            pairs = [trees.pair_mean_exp(tree, 1.0, shared), trees.pair_mean_exp(fresh, 1.0)]
            assert np.array_equal(*pairs)
            you = [trees.conditional_moments_you(tree, params, shared),
                   trees.conditional_moments_you(fresh, params)]
            youj = [trees.conditional_moments_youj(tree, flags, variances, params, shared),
                    trees.conditional_moments_youj(fresh, fresh_flags, variances, params)]
            sums = [trees.jump_exposure_sums(tree, flags, params.alpha, shared),
                    trees.jump_exposure_sums(fresh, fresh_flags, params.alpha)]
            for got, expected in (you, youj, sums):
                assert np.array_equal(got[0], expected[0])
                assert np.array_equal(got[1], expected[1])


class TestDrawTree:
    """The draws of sample_tree, replayed from the stream."""

    @pytest.mark.parametrize("n", [1, 2, 3, 37, 200])
    def test_one_row_is_the_single_tree_stream(self, n):
        # the per-tree draws in their documented order: n uniforms (zeros
        # redrawn), then the n-1 splits, one integer draw per event
        for seed in range(5):
            rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
            tree = trees.sample_tree(n, rng)
            expected_u, expected_splits = oracles.single_tree_draws(n, replay)
            assert tree.times.shape == (1, n) and tree.splits.shape == (1, n - 1)
            assert np.array_equal(tree.times[0],
                                  -np.log1p(-expected_u) / np.arange(1, n + 1))
            assert np.array_equal(tree.splits[0], expected_splits)
            assert rng.random() == replay.random()

    def test_rows_follow_one_stream(self):
        rng = np.random.default_rng(40)
        block = trees.sample_tree(6, rng, 4)
        replay = np.random.default_rng(40)
        assert np.array_equal(block.times, -np.log1p(-replay.random((4, 6))) / np.arange(1, 7))
        for row in block.splits:
            assert np.array_equal(row, replay.integers(0, np.arange(1, 6)))
        assert np.all(block.splits < np.arange(1, 6))
        assert rng.random() == replay.random()


def _rng_holding_a_spare_half():
    rng = np.random.default_rng(8)
    rng.integers(0, 7)
    return rng


class TestSplitKernel:
    """The split draw of sample_tree against the Generator.integers call it
    replaces: the same values, and the generator left in the same state,
    the spare half-word of PCG64's 32-bit draws included."""

    @staticmethod
    def _assert_matches_integers(n, rows, rng):
        replay = copy.deepcopy(rng)
        got = trees._draw_splits(n, rng, rows, trees.BlockBuffers())
        want = replay.integers(0, np.arange(1, n), size=(rows, n - 1), dtype=np.int64)
        assert np.array_equal(got, want)
        assert rng.bit_generator.state == replay.bit_generator.state

    @pytest.mark.parametrize("n", [2, 3, 17, 200, 5000])
    def test_engine_blocks(self, n):
        # at n = 17 the block's 1927 x 15 draws end on a spare half-word
        for seed in range(20):
            self._assert_matches_integers(n, harness._block_size(n), np.random.default_rng(seed))

    @pytest.mark.parametrize("n", [100_000, 300_000])
    def test_rejection_tail(self, n):
        # a rejection is likely at n = 1e5 (seed 1 rejects, after an odd
        # number of halves) and certain at 3e5 (seed 0 after an even number),
        # so the whole draw comes from Generator.integers
        for seed in range(3):
            self._assert_matches_integers(n, 1, np.random.default_rng(seed))

    @pytest.mark.parametrize("n, rows, make_rng", [
        # row 0 rejects a draw for event 1825 (bound 1825)
        pytest.param(5000, 6, partial(harness.replicate_rng, 12345, 14), id="n5000-block14"),
        # row 146 rejects a draw for event 144
        pytest.param(200, 163, partial(harness.replicate_rng, 12345, 3378), id="n200-block3378"),
        pytest.param(200, 163, _rng_holding_a_spare_half, id="spare-half"),
        pytest.param(1, 163, partial(harness.replicate_rng, 12345, 0), id="n1"),
        pytest.param(2, 163, partial(harness.replicate_rng, 12345, 0), id="n2"),
    ])
    def test_engine_blocks_that_fall_back(self, n, rows, make_rng):
        rng, replay = make_rng(), make_rng()
        splits = trees.sample_tree(n, rng, rows).splits
        replay.random((rows, n))
        want = replay.integers(0, np.arange(1, n), size=(rows, n - 1), dtype=np.int64)
        assert np.array_equal(splits, want)
        assert rng.bit_generator.state == replay.bit_generator.state

    def test_generator_holding_a_spare_half_word(self):
        rng = np.random.default_rng(8)
        rng.integers(0, 5)
        assert rng.bit_generator.state["has_uint32"] == 1
        self._assert_matches_integers(200, 163, rng)

    def test_other_bit_generator(self):
        rng = np.random.Generator(np.random.MT19937(3))
        replay = copy.deepcopy(rng)
        got = trees._draw_splits(200, rng, 163, trees.BlockBuffers())
        want = replay.integers(0, np.arange(1, 200), size=(163, 199), dtype=np.int64)
        assert np.array_equal(got, want)
        assert rng.integers(0, 2**32, size=4).tolist() == replay.integers(0, 2**32, size=4).tolist()


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
            before = block.copy()
            counts = trees.daughter_counts(block)
            assert np.array_equal(block, before)
            assert counts.dtype == np.int64
            assert counts.shape == (b, n - 1, 2)
            for row, got in zip(block, counts):
                assert np.array_equal(got, oracles.daughter_counts_by_chains(row))

    @pytest.mark.parametrize("b", [1, 14])
    def test_star_and_caterpillar_closed_forms(self, b):
        # a star (every event splits lineage 0) has the shallowest slot tree,
        # a caterpillar (event k splits slot k-1) the deepest; 14 trees make
        # 70000 slots, past the 32-bit sort keys
        n = 5000
        k = np.arange(1, n)
        star = trees.daughter_counts(np.zeros((b, n - 1), dtype=np.int64))
        assert np.array_equal(star, np.broadcast_to(np.stack([n - k, np.ones_like(k)], axis=1),
                                                    (b, n - 1, 2)))
        caterpillar = trees.daughter_counts(np.tile(k - 1, (b, 1)))
        assert np.array_equal(caterpillar,
                              np.broadcast_to(np.stack([np.ones_like(k), n - k], axis=1),
                                              (b, n - 1, 2)))

    def test_engine_block_shape(self):
        # n = 5000 runs in blocks of B = 2^15 // n = 6 trees
        n = 5000
        splits = trees.sample_tree(n, np.random.default_rng(5000), 2 ** 15 // n).splits
        counts = trees.daughter_counts(splits)
        assert counts.shape == (6, n - 1, 2)
        for row, got in zip(splits, counts):
            assert np.array_equal(got, oracles.daughter_counts_by_chains(row))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(min_value=1, max_value=40),
           b=st.integers(min_value=1, max_value=6))
    def test_small_blocks_match_chain_replay(self, data, n, b):
        row = st.tuples(*[st.integers(min_value=0, max_value=k - 1) for k in range(1, n)])
        splits = np.array(data.draw(st.lists(row, min_size=b, max_size=b)),
                          dtype=np.int64).reshape(b, n - 1)
        counts = trees.daughter_counts(splits)
        for row_splits, got in zip(splits, counts):
            assert np.array_equal(got, oracles.daughter_counts_by_chains(row_splits))


class TestPairMeanExp:
    def test_rejects_single_tip(self):
        tree = trees.sample_tree(1, np.random.default_rng(0))
        with pytest.raises(ValueError, match="n >= 2"):
            trees.pair_mean_exp(tree, 1.0)

    def test_two_tips_closed_form(self):
        tree = _two_tip_tree(0.8, 0.6)
        for y in (0.3, 1.0, 2.0):
            assert trees.pair_mean_exp(tree, y)[0] == pytest.approx(
                math.exp(-y * 0.6), rel=1e-15)

    def test_tiny_rate_limit(self):
        rng = np.random.default_rng(5)
        for n in (2, 17, 60):
            tree = trees.sample_tree(n, rng)
            assert trees.pair_mean_exp(tree, 1e-12)[0] == pytest.approx(1.0, abs=1e-9)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            tree = trees.sample_tree(int(rng.integers(2, 80)), rng)
            v = trees.pair_mean_exp(tree, float(rng.uniform(0.1, 3.0)))[0]
            assert 0.0 < v < 1.0

    def test_matches_all_pairs_route(self):
        # The event-weighted O(n) form must agree with summing
        # exp(-y * age) over every explicit tip pair.
        rng = np.random.default_rng(77)
        for _ in range(30):
            n = int(rng.integers(2, 65))
            tree = trees.sample_tree(n, rng)
            ages = verify.brute_pair_ages(tree)
            iu = np.triu_indices(n, 1)
            for y in (0.7, 2.0):
                brute = float(np.exp(-y * ages[iu]).mean())
                assert abs(trees.pair_mean_exp(tree, y)[0] - brute) <= 1e-12


class TestConditionalMomentsYou:
    def test_centered_start_means_zero(self):
        tree = trees.sample_tree(25, np.random.default_rng(1))
        cond_mean, _ = trees.conditional_moments_you(tree, YouParams(alpha=1.3))
        assert cond_mean.tolist() == [0.0]

    def test_mean_decays_with_height(self):
        tree = trees.sample_tree(25, np.random.default_rng(2))
        params = YouParams(alpha=0.7, sigma_a2=2.0, x0=1.3)
        cond_mean, _ = trees.conditional_moments_you(tree, params)
        assert cond_mean[0] == pytest.approx(
            params.delta * math.exp(-0.7 * tree.heights[0]), rel=1e-15)

    def test_single_tip_variance(self):
        tree = trees.sample_tree(1, np.random.default_rng(3))
        _, cond_var = trees.conditional_moments_you(tree, YouParams(alpha=0.9))
        assert cond_var[0] == pytest.approx(
            1.0 - math.exp(-1.8 * tree.heights[0]), rel=1e-15)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_two_tip_closed_form(self, alpha):
        tree = _two_tip_tree(0.9, 0.4)
        _, cond_var = trees.conditional_moments_you(tree, YouParams(alpha=alpha))
        expected = (0.5 + 0.5 * math.exp(-2.0 * alpha * 0.4)
                    - math.exp(-2.0 * alpha * 1.3))
        assert cond_var[0] == pytest.approx(expected, rel=1e-14)

    def test_matches_covariance_matrix_route(self):
        rng = np.random.default_rng(88)
        for _ in range(30):
            n = int(rng.integers(2, 33))
            tree = trees.sample_tree(n, rng)
            params = YouParams(alpha=float(rng.uniform(0.4, 2.2)))
            fast = trees.conditional_moments_you(tree, params)[1][0]
            brute = verify.brute_cond_var(tree, params)
            assert abs(fast - brute) <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(min_value=1, max_value=100),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           alpha=st.floats(min_value=0.2, max_value=3.0))
    def test_variance_envelopes(self, n, seed, alpha):
        tree = trees.sample_tree(n, np.random.default_rng(seed))
        cond_var = trees.conditional_moments_you(tree, YouParams(alpha=alpha))[1][0]
        tip_share = 1.0 - math.exp(-2.0 * alpha * tree.heights[0])
        assert cond_var >= tip_share / n - 1e-15
        assert cond_var <= tip_share + 1e-15

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
        follow = {}
        for p in (0.0, 0.35, 1.0):
            rng = np.random.default_rng(123)
            _jump_flags(JumpSchedule.constant(p, 1.0), 10, rng)
            follow[p] = rng.random()
        assert follow[0.0] == follow[0.35] == follow[1.0]

    def test_probability_extremes(self):
        rng = np.random.default_rng(1)
        none, variances = _jump_flags(JumpSchedule.constant(0.0, 2.0), 15, rng)
        assert not none.any()
        assert np.all(variances == 2.0)
        every, _ = _jump_flags(JumpSchedule.constant(1.0, 3.0), 15, rng)
        assert every.all()
        assert every.shape == (1, 14, 2)
        rows = trees.sample_jumps(np.full(14, 0.5), rng, 3)
        assert rows.shape == (3, 14, 2)

    def test_flag_fraction_tracks_probability(self):
        n = 10_000
        flags, _ = _jump_flags(JumpSchedule.constant(0.5, 1.0), n, np.random.default_rng(13))
        slots = 2 * (n - 1)
        se = math.sqrt(0.25 / slots)
        assert abs(flags.mean() - 0.5) <= 4.0 * se

    def test_per_event_expansion(self):
        schedule = JumpSchedule.per_event([(0.0, 5.0), (1.0, 7.0), (0.0, 9.0)])
        flags, variances = _jump_flags(schedule, 4, np.random.default_rng(15))
        assert variances.tolist() == [5.0, 7.0, 9.0]
        assert flags.tolist() == [[[False, False], [True, True], [False, False]]]

    def test_short_schedule_rejected(self):
        schedule = JumpSchedule.per_event([(0.5, 1.0), (0.5, 1.0)])
        with pytest.raises(ValueError, match="entries"):
            trees.jump_event_arrays(schedule, 4)


class TestConditionalMomentsYouj:
    def test_no_flags_equals_jump_free(self):
        tree = trees.sample_tree(20, np.random.default_rng(18))
        params = YouParams(alpha=1.1)
        flags = np.zeros((1, 19, 2), dtype=bool)
        withj = trees.conditional_moments_youj(tree, flags, np.full(19, 4.0), params)
        base = trees.conditional_moments_you(tree, params)
        assert np.array_equal(withj[0], base[0]) and np.array_equal(withj[1], base[1])

    def test_mean_unchanged_by_jumps(self):
        tree = trees.sample_tree(20, np.random.default_rng(19))
        params = YouParams(alpha=1.1, x0=0.7)
        flags, variances = _jump_flags(JumpSchedule.constant(0.6, 1.5), 20,
                                       np.random.default_rng(20))
        base_mean, _ = trees.conditional_moments_you(tree, params)
        withj_mean, _ = trees.conditional_moments_youj(tree, flags, variances, params)
        assert np.array_equal(withj_mean, base_mean)

    def test_two_tip_hand_value(self):
        tree = _two_tip_tree(0.9, 0.4)
        params = YouParams(alpha=0.9, sigma_a2=1.5)
        base = trees.conditional_moments_you(tree, params)[1][0]
        variances = np.array([0.8])
        one = np.array([[[True, False]]])
        add = (2.0 * 0.9 / 1.5) * 0.8 * math.exp(-1.8 * 0.4) / 4.0
        got = trees.conditional_moments_youj(tree, one, variances, params)[1][0]
        assert got == pytest.approx(base + add, rel=1e-14)
        both = np.array([[[True, True]]])
        got2 = trees.conditional_moments_youj(tree, both, variances, params)[1][0]
        assert got2 == pytest.approx(base + 2.0 * add, rel=1e-14)

    def test_jumps_inflate_variance(self):
        rng = np.random.default_rng(21)
        params = YouParams(alpha=0.8)
        for _ in range(10):
            n = int(rng.integers(2, 40))
            tree = trees.sample_tree(n, rng)
            flags, variances = _jump_flags(JumpSchedule.constant(1.0, 0.5), n, rng)
            base = trees.conditional_moments_you(tree, params)[1][0]
            withj = trees.conditional_moments_youj(tree, flags, variances, params)[1][0]
            assert withj > base

    def test_matches_covariance_matrix_route(self):
        rng = np.random.default_rng(89)
        schedule = JumpSchedule.constant(0.6, 1.3)
        for _ in range(30):
            n = int(rng.integers(2, 33))
            tree = trees.sample_tree(n, rng)
            params = YouParams(alpha=float(rng.uniform(0.4, 2.2)))
            flags, variances = _jump_flags(schedule, n, rng)
            fast = trees.conditional_moments_youj(tree, flags, variances, params)[1][0]
            brute = verify.brute_cond_var(tree, params, flags, variances)
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
        single, pair = trees.jump_exposure_sums(tree, np.zeros((1, 0, 2), dtype=bool), 1.0)
        assert single.tolist() == [0.0] and pair.tolist() == [0.0]

    def test_no_flags_zero(self):
        tree = trees.sample_tree(12, np.random.default_rng(23))
        single, pair = trees.jump_exposure_sums(tree, np.zeros((1, 11, 2), dtype=bool), 0.7)
        assert single.tolist() == [0.0] and pair.tolist() == [0.0]

    def test_two_tip_hand_values(self):
        tree = _two_tip_tree(0.5, 0.3)
        single, pair = trees.jump_exposure_sums(tree, np.array([[[True, False]]]), 1.2)
        assert single[0] == pytest.approx(math.exp(-2.4 * 0.3) / 2.0, rel=1e-15)
        assert pair[0] == 0.0
        single2, _ = trees.jump_exposure_sums(tree, np.array([[[True, True]]]), 1.2)
        assert single2[0] == pytest.approx(math.exp(-2.4 * 0.3), rel=1e-15)

    def test_mc_means_match_closed_forms(self, stats_50):
        _assert_within_4se(stats_50["single_sum"],
                           analytic.jump_single_lineage_mean(50, 1.0, 0.5))
        _assert_within_4se(stats_50["pair_sum"],
                           analytic.jump_pair_shared_mean(50, 1.0, 0.5))


class TestDumpTree:
    def test_exact_format(self):
        tree = trees.TreeBlock(
            times=np.array([[0.5, 0.25, 0.125]]),
            splits=np.array([[0, 1]], dtype=np.int64),
            daughter_counts=np.array([[[1, 2], [1, 1]]], dtype=np.int64),
            coalescence_ages=np.array([[0.375, 0.125]]),
            heights=np.array([0.875]),
        )
        assert trees.dump_tree(tree) == (
            "1\t0.5\t1\t-\n"
            "2\t0.25\t2\t-\n"
            "3\t0.125\t-\t-\n"
        )
        flags = np.array([[[True, False], [False, True]]])
        assert trees.dump_tree(tree, flags) == (
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
            assert float(fields[1]) == tree.times[0, k]
        splits = [int(line.split("\t")[2]) for line in lines[:-1]]
        assert splits == [int(s) + 1 for s in tree.splits[0]]
