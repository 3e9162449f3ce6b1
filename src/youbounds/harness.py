"""Replicated Monte Carlo experiments with deterministic parallelism.

Per replicate: sample a tree (and jump placements for the jump model),
compute the exact conditional moments, and draw the tip average from its
conditional normal. Replicates run in blocks of B = max(1, 2^15 // n),
starting at global multiples of B, and every block owns an RNG stream
derived from (seed, block index). A block draws all of its B rows as whole
arrays, in stream order: the (B, n) period uniforms, the (B, n-1) splits,
for the jump model the (B, n-1, 2) jump uniforms, then B standard normals.
The trees, moments and tip averages of the whole block are then computed at
once by the `trees` kernels. The last block of a run draws its B full rows
too and keeps the ones it needs, so replicate i depends only on (seed, i, n)
and the first R' replicates of a run are a run of R' replicates. Workers
take contiguous runs of whole blocks and every reduction runs over the full
index-ordered arrays, so results are bit-identical for any worker count.

The empirical distances compare the analytically standardized draws against
N(0,1). The sample is sorted once, and Phi and its antiderivative
G(z) = z Phi(z) + phi(z) are evaluated once on the sorted values; every
statistic reads those arrays. The Kolmogorov statistic is the one-sample
sup-distance to the normal CDF. The Wasserstein statistic is the exact L1
distance between the empirical CDF and the normal CDF, integrated segment by
segment in closed form: comparing Phi at a segment's two ends with the
segment's level decides the sign of |c - Phi| there, and normal quantiles
are computed, in one call, only for the few segments that Phi crosses. Its
bootstrap error scores each resample from the counts of the drawn ranks,
with no sort and no further CDF evaluation. The sorted sample keeps x, Phi,
G and the ranks (the inverse of the sorting permutation), and dw and all
its resamples share one set of work arrays, allocated once per sandwich
(`_DwWork`): two 8-byte arrays of R whose roles change within a resample
(the drawn ranks become the levels once they are counted, the counts become
the segment terms, the levels become the segments' D(a)) and two masks. No
full-length array is allocated per resample, the ranks take four bytes
while R < 2^31, and a sandwich holds at most about 5.8 float64 arrays of R
at its peak. The sort is not stable and Phi and the quantiles take whole
arrays; none of this moves a bit of any statistic (see `_sort_sample` and
`special`). The dw verdict allows for the positive O(R^-1/2) bias of the
empirical Wasserstein distance as well as for its bootstrap error.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from dataclasses import dataclass

import numpy as np

from . import analytic, special, stein, trees
from .analytic import JumpSchedule, YouParams, MODEL_YOU, MODEL_YOUJ
from .stein import BoundReport, LowerBoundInputs

# 99% two-sided empirical-CDF band: sqrt(ln(2/0.01) / (2R))
_DKW_DELTA = 0.01
_BOOTSTRAP_RESAMPLES = 32
# bootstrap indices drawn per integers call: 64 KB, below glibc's mmap threshold
_DRAW_CHUNK = 8192
# I = integral over the line of sqrt(Phi (1 - Phi)); see _dw_sampling_bias
_W1_NULL_INTEGRAL = 1.6147438534296696
_LOWER_BOUND_TRUST_N = 1000
# array elements per block of replicates, (B, n) arrays; see _block_size
_BLOCK_ELEMENTS = 2 ** 15
_WORKERS_ENV = "YOUBOUNDS_WORKERS"
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# (ReplicateData.oracle key, oracle check name) per model, in the order
# _run_block appends the oracle columns
_YOU_ORACLE = (("exp_height_1", "height_laplace[x=1]"), ("exp_height_2a", "height_laplace[x=2a]"),
               ("pair_1", "pair_laplace[y=1]"), ("pair_2a", "pair_laplace[y=2a]"))
_ORACLE_COLUMNS = {MODEL_YOU: _YOU_ORACLE,
                   MODEL_YOUJ: _YOU_ORACLE + (("jump_single", "jump_single_mean"),
                                              ("jump_pair", "jump_pair_mean"))}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one Monte Carlo run depends on (worker count excluded from
    all outputs; it must never change a result)."""

    model: str
    n: int
    params: YouParams
    schedule: JumpSchedule
    replicates: int
    seed: int
    workers: int = 1

    def __post_init__(self) -> None:
        if self.model not in (MODEL_YOU, MODEL_YOUJ):
            raise ValueError(f"unknown model: {self.model!r}")
        if self.model == MODEL_YOU and not self.schedule.is_inactive:
            raise ValueError("the jump-free model takes no jump schedule")
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if self.replicates < 2:
            raise ValueError(f"replicates must be >= 2, got {self.replicates}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class EstimateWithSE:
    value: float
    se: float
    r_used: int


@dataclass(frozen=True)
class MomentEstimates:
    """Monte Carlo estimates of the mean and the three bound ingredients."""

    mean: EstimateWithSE
    ev: EstimateWithSE
    vv: EstimateWithSE
    ve: EstimateWithSE


@dataclass
class ReplicateData:
    """Raw per-replicate columns, in replicate-index order."""

    cond_mean: np.ndarray
    cond_var: np.ndarray
    ybar: np.ndarray
    oracle: dict[str, np.ndarray] | None = None


def resolve_workers(explicit: int | None, default: int) -> int:
    """The worker count: an explicit setting, else the YOUBOUNDS_WORKERS
    environment variable, else the command's default. A count below 1 from
    either source is refused, with a message naming the flag or the
    variable, before any work starts."""
    if explicit is not None:
        if explicit < 1:
            raise ValueError(f"--workers must be >= 1, got {explicit}")
        return explicit
    env = os.environ.get(_WORKERS_ENV)
    if env:
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(f"{_WORKERS_ENV} must be an integer, got {env!r}")
        if workers < 1:
            raise ValueError(f"{_WORKERS_ENV} must be >= 1, got {env!r}")
        return workers
    return default


def replicate_rng(seed: int, block: int) -> np.random.Generator:
    """The RNG stream owned by block `block` of replicates of a run seeded
    with `seed`."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block,))
    return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True)
class BlockDraws:
    """One block of B replicates, row i for the block's i-th replicate: the
    trees, the jump flags (B, n-1, 2) (None for the jump-free model) and the
    standard normals (B,)."""

    tree: trees.TreeBlock
    flags: np.ndarray | None
    normals: np.ndarray


def draw_block(config: ExperimentConfig, block: int, jump_ps: np.ndarray | None = None,
               buffers: trees.BlockBuffers | None = None) -> BlockDraws:
    """The draws of block `block` of a run, as whole arrays from the block's
    stream, in stream order: the trees (uniforms with zeros redrawn, then
    splits), for the jump model the jump flags (with the per-event
    probabilities jump_ps), then the normals. A block always draws B full
    rows, so a replicate's draws depend only on the seed, its index and n.
    The trees and flags are drawn into `buffers` (fresh ones if None) and
    are valid until the next block is drawn into them."""
    n = config.n
    rows = _block_size(n)
    rng = replicate_rng(config.seed, block)
    tree = trees.sample_tree(n, rng, rows, buffers)
    flags = None
    if config.model == MODEL_YOUJ:
        if jump_ps is None:
            jump_ps = trees.jump_event_arrays(config.schedule, n)[0]
        flags = trees.sample_jumps(jump_ps, rng, rows, buffers)
    return BlockDraws(tree, flags, rng.standard_normal(rows))


def _block_size(n: int) -> int:
    """Replicates per block: about 2^15 array elements per (B, n) array."""
    return max(1, _BLOCK_ELEMENTS // n)


def _run_block(config: ExperimentConfig, index: int, size: int, jump_arrays,
               collect_oracle: bool, buffers: trees.BlockBuffers) -> list[np.ndarray]:
    """The columns of the first `size` replicates of block `index`, drawn
    and scored in `buffers`."""
    params = config.params
    ps, variances = jump_arrays if jump_arrays is not None else (None, None)
    draws = draw_block(config, index, ps, buffers)
    block, flags = draws.tree, draws.flags
    if flags is None:
        cond_mean, cond_var = trees.conditional_moments_you(block, params, buffers)
    else:
        cond_mean, cond_var = trees.conditional_moments_youj(block, flags, variances, params,
                                                             buffers)
    # bit-for-bit what normal(cond_mean, sqrt(cond_var)) would draw
    ybar = cond_mean + np.sqrt(cond_var) * draws.normals
    columns = [cond_mean, cond_var, ybar]
    if collect_oracle:
        two_alpha = 2.0 * params.alpha
        columns += [np.exp(-block.heights), np.exp(-two_alpha * block.heights),
                    trees.pair_mean_exp(block, 1.0, buffers),
                    trees.pair_mean_exp(block, two_alpha, buffers)]
        if flags is not None:
            columns += trees.jump_exposure_sums(block, flags, params.alpha, buffers)
    return [column[:size] for column in columns]


def _run_chunk(args) -> list[np.ndarray]:
    """Replicates start..stop-1, where start is a multiple of the block size.
    One set of buffers serves every block of the chunk."""
    config, start, stop, collect_oracle = args
    jump_arrays = None
    if config.model == MODEL_YOUJ:
        jump_arrays = trees.jump_event_arrays(config.schedule, config.n)
    width = 3 + (len(_ORACLE_COLUMNS[config.model]) if collect_oracle else 0)
    columns = np.empty((width, stop - start))
    step = _block_size(config.n)
    buffers = trees.BlockBuffers()
    for lo in range(start, stop, step):
        hi = min(stop, lo + step)
        columns[:, lo - start:hi - start] = _run_block(config, lo // step, hi - lo,
                                                       jump_arrays, collect_oracle, buffers)
    return list(columns)


def run_replicates(config: ExperimentConfig, collect_oracle: bool = False) -> ReplicateData:
    """All replicate columns for a configuration, index-ordered.

    The worker count splits the blocks into contiguous runs whose results are
    concatenated back in order, so it cannot affect any value.
    """
    r = config.replicates
    step = _block_size(config.n)
    blocks = -(-r // step)
    processes = min(config.workers, blocks)
    if processes == 1:
        columns = _run_chunk((config, 0, r, collect_oracle))
    else:
        edges = np.minimum(np.linspace(0, blocks, processes + 1).astype(int) * step, r)
        tasks = [(config, int(a), int(b), collect_oracle)
                 for a, b in zip(edges[:-1], edges[1:]) if b > a]
        with multiprocessing.Pool(processes=len(tasks)) as pool:
            chunk_results = pool.map(_run_chunk, tasks)
        columns = [np.concatenate(parts) for parts in zip(*chunk_results)]
    data = ReplicateData(cond_mean=columns[0], cond_var=columns[1], ybar=columns[2])
    if collect_oracle:
        data.oracle = {key: column for (key, _), column
                       in zip(_ORACLE_COLUMNS[config.model], columns[3:], strict=True)}
    return data


def _column_estimates(x: np.ndarray) -> tuple[EstimateWithSE, EstimateWithSE]:
    """The mean of a column with its error sqrt(s^2 / R), and its sample
    variance s^2 with the fourth-moment error of a sample variance,
    se^2 = (m4 - m2^2 (R-3)/(R-1)) / R from the central moments m2 and m4
    (no error below four replicates), all from one centred pass. Where the
    summed fourth powers of the deviations could overflow, the deviations are
    scaled by an exact power of two and each result back by its own power of
    it; below that point the arithmetic is untouched (`ldexp(., 0)`)."""
    r = len(x)
    mean = float(np.mean(x))
    dev2 = x - mean
    peak = max(float(dev2.max()), -float(dev2.min()))
    shift = math.frexp(peak)[1] if peak > (np.finfo(np.float64).max / r) ** 0.25 else 0
    if shift:
        dev2 *= math.ldexp(1.0, -shift)
    dev2 *= dev2
    total = float(np.sum(dev2))
    var = total / (r - 1)
    var_se = float("nan")
    if r >= 4:
        m2 = total / r
        m4 = float(np.mean(dev2 * dev2))
        var_se = math.ldexp(math.sqrt((m4 - m2 * m2 * (r - 3.0) / (r - 1.0)) / r), 2 * shift)
    return (EstimateWithSE(mean, math.ldexp(math.sqrt(var) / math.sqrt(r), shift), r),
            EstimateWithSE(math.ldexp(var, 2 * shift), var_se, r))


def estimate_moment_summary(config: ExperimentConfig,
                            data: ReplicateData | None = None) -> MomentEstimates:
    """Monte Carlo estimates of mean, ev, vv and ve with standard errors:
    the conditional mean's column gives mean and ve, the conditional
    variance's ev and vv (see `_column_estimates`)."""
    if data is None:
        data = run_replicates(config)
    mean, ve = _column_estimates(data.cond_mean)
    ev, vv = _column_estimates(data.cond_var)
    return MomentEstimates(mean=mean, ev=ev, vv=vv, ve=ve)


@dataclass(frozen=True)
class _SortedSample:
    """A sample sorted once, with what every statistic reads off it: Phi(x),
    the antiderivative G(x) = x Phi(x) + phi(x) of the normal CDF (vanishing
    at -infinity), and the ranks, rank[j] being the sorted position of the
    sample's element j (the inverse of the sorting permutation)."""

    x: np.ndarray
    cdf: np.ndarray
    g: np.ndarray
    rank: np.ndarray


def _sort_sample(samples, name: str) -> _SortedSample:
    """The sample sorted, with Phi and G on the sorted values and the ranks.

    The sort need not be stable: no statistic depends on the order of tied
    values. Tied values have equal Phi and G, so a segment between two of
    them has zero width and adds zero, and the level entering and leaving a
    tie group is the same whichever order its members take, in the sample
    and in every bootstrap resample. The sorting permutation is dropped once
    it has given the ranks, which take four bytes while R < 2^31, and G
    takes one temporary.
    """
    z = np.asarray(samples, dtype=np.float64).ravel()
    r = len(z)
    if r == 0:
        raise ValueError(f"{name} requires at least one sample")
    order = np.argsort(z)
    x = z[order]
    rank = np.empty(r, dtype=np.int32 if r < 2 ** 31 else np.int64)
    rank[order] = np.arange(r, dtype=rank.dtype)
    del order
    cdf = special.std_normal_cdf_array(x)
    # x * cdf + _INV_SQRT_2PI * np.exp(-0.5 * x * x), operation for operation
    g = np.multiply(x, -0.5)
    g *= x
    np.exp(g, out=g)
    g *= _INV_SQRT_2PI
    g += x * cdf
    return _SortedSample(x=x, cdf=cdf, g=g, rank=rank)


def _dk_sorted(s: _SortedSample) -> float:
    """max over i of max(i/R - Phi, Phi - (i-1)/R), taken as the larger of
    the two maxima."""
    r = len(s.x)
    i = np.arange(1, r + 1, dtype=np.float64)
    work = np.divide(i, r)
    np.subtract(work, s.cdf, out=work)
    high = np.max(work)
    np.subtract(i, 1.0, out=work)
    np.divide(work, r, out=work)
    np.subtract(s.cdf, work, out=work)
    return float(max(high, np.max(work)))


@dataclass(frozen=True)
class _DwWork:
    """The full-length work arrays of the Wasserstein statistic for a sample
    of R, shared by dw and every bootstrap resample. Both arrays of R change
    roles. `levels` holds a resample's drawn ranks (in the ranks' dtype)
    until they are counted, then its R - 1 levels, and then the segments'
    D(a). `seg` holds the rank counts (as int64), then the segment terms.
    `below` and `cross` are the masks of `_dw_segments`."""

    levels: np.ndarray
    seg: np.ndarray
    below: np.ndarray
    cross: np.ndarray

    @classmethod
    def for_size(cls, r: int) -> _DwWork:
        return cls(np.empty(r), np.empty(r), np.empty(r - 1, np.bool_),
                   np.empty(r - 1, np.bool_))


def _set_levels(work: _DwWork) -> None:
    """The empirical-CDF levels from the rank counts in `seg`: the running
    counts over R, into `levels`. The counts are overwritten."""
    counts = work.seg.view(np.int64)[:-1]
    np.divide(np.cumsum(counts, out=counts), len(work.seg), out=work.levels[:-1])


def _dw_segments(s: _SortedSample, work: _DwWork) -> float:
    """Exact L1 distance between the normal CDF and the step function that
    is 0 left of x[0], levels[i] on [x[i], x[i+1]] and 1 right of x[-1],
    with the levels in `work.levels`, which it overwrites.

    The tails are G(x[0]) and G(x[-1]) - x[-1]. On a segment [a, b] at level
    c, with D(t) = G(t) - c t: if Phi(b) <= c the segment adds D(a) - D(b),
    if Phi(a) >= c it adds D(b) - D(a), and otherwise Phi crosses c at the
    quantile zc inside the segment, where D(zc) = phi(zc), and it adds
    D(a) + D(b) - 2 phi(zc). The quantiles of all crossing segments are
    computed in one call. Everything read from the levels (the masks and the
    crossing levels) is read before D(a) replaces them.
    """
    x, cdf, g = s.x, s.cdf, s.g
    total = g[0] + (g[-1] - x[-1])
    if len(x) > 1:
        levels, seg = work.levels[:-1], work.seg[:-1]
        below, cross = work.below, work.cross
        np.less_equal(cdf[1:], levels, out=below)
        # Phi(a) < c < Phi(b): below is the complement of c < Phi(b)
        np.greater(np.less(cdf[:-1], levels, out=cross), below, out=cross)
        idx = np.flatnonzero(cross)
        c = levels[idx]
        # D(b) into seg, then D(a) over the levels, which are no longer read
        np.subtract(g[1:], np.multiply(levels, x[1:], out=seg), out=seg)
        da = levels
        np.subtract(g[:-1], np.multiply(da, x[:-1], out=da), out=da)
        np.subtract(seg, da, out=seg)
        np.negative(seg, out=seg, where=below)
        if idx.size:
            zc = special.std_normal_quantile(c)
            db = g[idx + 1] - c * x[idx + 1]
            seg[idx] = da[idx] + db - 2.0 * _INV_SQRT_2PI * np.exp(-0.5 * zc * zc)
        total += float(np.sum(seg))
    return float(total)


def _dw_sorted(s: _SortedSample, work: _DwWork) -> float:
    """dw of the sample itself: the levels i/R are those of the resample
    that draws every rank once."""
    work.seg.view(np.int64).fill(1)
    _set_levels(work)
    return _dw_segments(s, work)


def empirical_dk(samples) -> float:
    """One-sample Kolmogorov statistic against the standard normal CDF."""
    return _dk_sorted(_sort_sample(samples, "empirical_dk"))


def empirical_dw(samples) -> float:
    """Exact L1 distance between the sample's empirical CDF and the standard
    normal CDF (the 1-D Wasserstein distance to N(0,1))."""
    s = _sort_sample(samples, "empirical_dw")
    return _dw_sorted(s, _DwWork.for_size(len(s.x)))


def dkw_band(r: int) -> float:
    """Width of the 99% uniform empirical-CDF confidence band for R samples."""
    if r < 1:
        raise ValueError(f"dkw_band requires r >= 1, got {r}")
    return math.sqrt(math.log(2.0 / _DKW_DELTA) / (2.0 * r))


def _bootstrap_dw_se(s: _SortedSample, seed: int, work: _DwWork) -> float:
    """Resampling standard error of the Wasserstein statistic.

    The bootstrap stream uses spawn key (R, 1), disjoint from every block's
    (block,) key, so it neither disturbs nor depends on the replicate
    draws. A resample is R indices into the original sample; its
    sorted form is the sorted sample with element k repeated as often as
    its rank k was drawn, so its empirical CDF is the running sum of the
    rank counts over the sorted sample (segments between undrawn elements
    keep the previous level). Each resample is thus scored on the sample's
    own Phi and G, with no sort and no CDF evaluation, in `work`, which
    every resample reuses: no full-length array is allocated per resample.
    """
    r = len(s.x)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(r, 1))
    rng = np.random.Generator(np.random.PCG64(ss))
    values = np.empty(_BOOTSTRAP_RESAMPLES)
    for b in range(_BOOTSTRAP_RESAMPLES):
        _resample_levels(rng, s.rank, work)
        values[b] = _dw_segments(s, work)
    return float(np.std(values, ddof=1))


def _resample_levels(rng: np.random.Generator, rank: np.ndarray, work: _DwWork) -> None:
    """The empirical-CDF levels of one resample into `work.levels`: the
    ranks of its R drawn indices go there, are counted into `seg` (in place,
    where `np.bincount` would allocate the counts afresh), and are replaced
    by the running counts over R.

    The indices are drawn in chunks of at most _DRAW_CHUNK, each replaced by
    its rank. The 32-bit draws behind integers(0, R) keep PCG64's spare
    half-word in the generator, so the chunks hold exactly what one
    integers(0, R, size=R) call returns, and a chunk is small enough to come
    from reused heap memory rather than fresh pages."""
    r = len(rank)
    drawn, counts = work.levels.view(rank.dtype)[:r], work.seg.view(np.int64)
    for lo in range(0, r, _DRAW_CHUNK):
        hi = min(r, lo + _DRAW_CHUNK)
        # every index is in range, so "clip" changes nothing; it spares the
        # copy of `drawn` that the default mode makes
        np.take(rank, rng.integers(0, r, size=hi - lo), out=drawn[lo:hi], mode="clip")
    counts.fill(0)
    np.add.at(counts, drawn, 1)
    _set_levels(work)


def _dw_sampling_bias(r: int) -> float:
    """Leading-order mean of the L1 distance between the empirical CDF of R
    draws and their own continuous CDF F: |F_R - F| at t has mean about
    sqrt(2/pi) sqrt(F(1 - F) / R), which integrates to sqrt(2/pi) I / sqrt(R).
    """
    return math.sqrt(2.0 / math.pi) * _W1_NULL_INTEGRAL / math.sqrt(r)


@dataclass(frozen=True)
class SandwichReport:
    """Empirical distances against their analytic upper and lower bounds."""

    empirical_dk: float
    empirical_dw: float
    dkw_band: float
    dw_bootstrap_se: float
    kappa_mean: float
    upper_dk: BoundReport
    upper_dw: BoundReport
    lower_dk: BoundReport
    lower_dw: BoundReport
    verdict_dk: str
    verdict_dw: str


@dataclass(frozen=True)
class ExperimentResult:
    """A run's estimates and sandwich; where the sandwich is None,
    sandwich_omitted says why there are no closed-form bounds to check."""

    config: ExperimentConfig
    estimates: MomentEstimates
    sandwich: SandwichReport | None
    sandwich_omitted: str | None = None


def _verdict(empirical: float, upper: float, lower: float, slack: float, n: int) -> str:
    if empirical > upper + slack:
        return "fail"
    if empirical < lower - slack:
        # the lower bound is asymptotic; below the trust threshold a miss is
        # reported as inconclusive rather than a failure
        return "fail" if n >= _LOWER_BOUND_TRUST_N else "inconclusive"
    return "pass"


def run_sandwich(config: ExperimentConfig, data: ReplicateData | None = None) -> SandwichReport:
    """Empirical distances of the standardized tip average vs the bounds.

    Standardization uses the analytic mean and standard deviation (exactly
    the pair the limit statements normalize by), never sample moments. The
    lower bound feeds on the exact conditional-mean variance and the Monte
    Carlo mean of the variance penalty, evaluated on the same replicates.
    """
    n, params, schedule = config.n, config.params, config.schedule
    # refuses configurations without closed-form bounds, and rates the rate
    # table cannot hold, before any replicate is drawn
    upper = analytic.bound_point(params, schedule, n)
    upper_dk, upper_dw = upper[stein.KOLMOGOROV], upper[stein.WASSERSTEIN]
    sigma2 = analytic.var_ybar_youj(n, params, schedule)
    if data is None:
        data = run_replicates(config)
    if len(data.ybar) != config.replicates:
        raise ValueError(f"run_sandwich got {len(data.ybar)} replicates of data "
                         f"for a configuration of {config.replicates}")
    z = (data.ybar - analytic.mean_ybar(n, params)) / math.sqrt(sigma2)

    # each full-length array is dropped once it is done with, so the peak is
    # the sorted sample plus the work arrays of dw and its bootstrap
    s = _sort_sample(z, "run_sandwich")
    del z
    dk = _dk_sorted(s)
    work = _DwWork.for_size(config.replicates)
    dw = _dw_sorted(s, work)
    dw_se = _bootstrap_dw_se(s, config.seed, work)
    del s, work
    band = dkw_band(config.replicates)

    t1 = analytic.var_cond_mean_exact(n, params)
    # the penalty is nonnegative in exact arithmetic; clamp the rounding fuzz
    t2 = max(0.0, float(np.mean(stein.variance_penalty(data.cond_var, sigma2))))
    inputs = LowerBoundInputs(t1=t1, t2=t2, sigma2=sigma2)
    lower_dk = stein.stein_lower_bound(inputs, stein.KOLMOGOROV)
    lower_dw = stein.stein_lower_bound(inputs, stein.WASSERSTEIN)

    return SandwichReport(
        empirical_dk=dk,
        empirical_dw=dw,
        dkw_band=band,
        dw_bootstrap_se=dw_se,
        kappa_mean=t2,
        upper_dk=upper_dk,
        upper_dw=upper_dw,
        lower_dk=lower_dk,
        lower_dw=lower_dw,
        verdict_dk=_verdict(dk, upper_dk.total, lower_dk.total, band, n),
        # W1(F_R, N) is within W1(F_R, F) of W1(F, N), the quantity bounded
        verdict_dw=_verdict(dw, upper_dw.total, lower_dw.total,
                            _dw_sampling_bias(config.replicates) + 3.0 * dw_se, n),
    )


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """One full run: moment estimates plus the sandwich check, both computed
    from a single pass of replicates. The bounds are asked for before any
    replicate is drawn. Where the closed forms refuse the configuration (an
    active per-event schedule, a rate below the critical one), the sandwich
    is None and the refusal's reason is kept; any other refusal, such as a
    rate the rate table cannot hold, ends the run."""
    try:
        analytic.bound_point(config.params, config.schedule, config.n)
        omitted = None
    except (analytic.PerEventScheduleError, analytic.UnsupportedRegimeError) as refusal:
        omitted = refusal.reason
    data = run_replicates(config)
    estimates = estimate_moment_summary(config, data)
    sandwich = None if omitted is not None else run_sandwich(config, data)
    return ExperimentResult(config, estimates, sandwich, omitted)


@dataclass(frozen=True)
class OracleCheck:
    """One closed-form-vs-Monte-Carlo comparison."""

    name: str
    closed_form: float
    estimate: float
    se: float
    z: float
    passed: bool


def _z_score(estimate: float, closed_form: float, se: float) -> float:
    if se == 0.0:
        return 0.0 if estimate == closed_form else math.inf
    return (estimate - closed_form) / se


def oracle_checks(config: ExperimentConfig) -> list[OracleCheck]:
    """Every closed form this package trusts, tested against its own Monte
    Carlo estimate at |z| <= 4. The closed forms are evaluated before
    anything is drawn, `analytic.var_ybar_youj` first, so a configuration
    without them is refused by its gate with nothing drawn."""
    n, params, schedule = config.n, config.params, config.schedule
    cond_var_mean = analytic.var_ybar_youj(n, params, schedule)
    two_alpha = 2.0 * params.alpha
    closed = [analytic.laplace_height(n, 1.0), analytic.laplace_height(n, two_alpha),
              analytic.laplace_pair_time(n, 1.0), analytic.laplace_pair_time(n, two_alpha)]
    if config.model == MODEL_YOUJ:
        closed += [analytic.jump_single_lineage_mean(n, params.alpha, schedule.p),
                   analytic.jump_pair_shared_mean(n, params.alpha, schedule.p)]
    cond_mean_var = analytic.var_cond_mean_exact(n, params)
    data = run_replicates(config, collect_oracle=True)
    moments = estimate_moment_summary(config, data)
    checks = [(name, value, _column_estimates(data.oracle[key])[0])
              for (key, name), value in zip(_ORACLE_COLUMNS[config.model], closed, strict=True)]
    checks += [("cond_var_mean", cond_var_mean, moments.ev),
               ("cond_mean_var", cond_mean_var, moments.ve)]

    out = []
    for name, closed_form, est in checks:
        z = _z_score(est.value, closed_form, est.se)
        out.append(OracleCheck(name=name, closed_form=closed_form, estimate=est.value,
                               se=est.se, z=z, passed=abs(z) <= 4.0))
    return out
