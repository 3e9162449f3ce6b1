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
segment's level decides the sign of |c - Phi| there, and a normal quantile
is computed only for the few segments that Phi crosses. Its bootstrap error
scores each resample from the counts of the drawn ranks, with no sort and no
further CDF evaluation. The dw verdict allows for the positive O(R^-1/2)
bias of the empirical Wasserstein distance as well as for its bootstrap
error.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from dataclasses import dataclass

import numpy as np

from . import analytic, special, stein, trees
from .analytic import JumpSchedule, YouParams, MODEL_YOUJ
from .stein import BoundReport, LowerBoundInputs

# 99% two-sided empirical-CDF band: sqrt(ln(2/0.01) / (2R))
_DKW_DELTA = 0.01
_BOOTSTRAP_RESAMPLES = 32
# I = integral over the line of sqrt(Phi (1 - Phi)); see _dw_sampling_bias
_W1_NULL_INTEGRAL = 1.6147438534296696
_LOWER_BOUND_TRUST_N = 1000
# array elements per block of replicates, (B, n) arrays; see _block_size
_BLOCK_ELEMENTS = 2 ** 15
_WORKERS_ENV = "YOUBOUNDS_WORKERS"
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


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
        # the model and schedule checks of the closed forms
        analytic._normalize_schedule(self.model, self.schedule)
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
    """Monte Carlo estimates of the four bound ingredients."""

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
    environment variable (at least 1), else the command's default."""
    if explicit is not None:
        return explicit
    env = os.environ.get(_WORKERS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"{_WORKERS_ENV} must be an integer, got {env!r}")
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


def draw_block(config: ExperimentConfig, block: int,
               jump_ps: np.ndarray | None = None) -> BlockDraws:
    """The draws of block `block` of a run, as whole arrays from the block's
    stream, in stream order: the trees (uniforms with zeros redrawn, then
    splits), for the jump model the jump flags (with the per-event
    probabilities jump_ps), then the normals. A block always draws B full
    rows, so a replicate's draws depend only on the seed, its index and n."""
    n = config.n
    rows = _block_size(n)
    rng = replicate_rng(config.seed, block)
    tree = trees.sample_tree(n, rng, rows)
    flags = None
    if config.model == MODEL_YOUJ:
        if jump_ps is None:
            jump_ps = trees.jump_event_arrays(config.schedule, n)[0]
        flags = trees.sample_jumps(jump_ps, rng, rows)
    return BlockDraws(tree, flags, rng.standard_normal(rows))


def _oracle_keys(config: ExperimentConfig) -> list[str]:
    keys = ["exp_height_1", "exp_height_2a", "pair_1", "pair_2a"]
    if config.model == MODEL_YOUJ:
        keys += ["jump_single", "jump_pair"]
    return keys


def _block_size(n: int) -> int:
    """Replicates per block: about 2^15 array elements per (B, n) array."""
    return max(1, _BLOCK_ELEMENTS // n)


def _run_block(config: ExperimentConfig, index: int, size: int, jump_arrays,
               collect_oracle: bool) -> list[np.ndarray]:
    """The columns of the first `size` replicates of block `index`."""
    params = config.params
    ps, variances = jump_arrays if jump_arrays is not None else (None, None)
    draws = draw_block(config, index, ps)
    block, flags = draws.tree, draws.flags
    if flags is None:
        cond_mean, cond_var = trees.conditional_moments_you(block, params)
    else:
        cond_mean, cond_var = trees.conditional_moments_youj(block, flags, variances, params)
    # bit-for-bit what normal(cond_mean, sqrt(cond_var)) would draw
    ybar = cond_mean + np.sqrt(cond_var) * draws.normals
    columns = [cond_mean, cond_var, ybar]
    if collect_oracle:
        two_alpha = 2.0 * params.alpha
        columns += [np.exp(-block.heights), np.exp(-two_alpha * block.heights),
                    trees.pair_mean_exp(block, 1.0), trees.pair_mean_exp(block, two_alpha)]
        if flags is not None:
            columns += trees.jump_exposure_sums(block, flags, params.alpha)
    return [column[:size] for column in columns]


def _run_chunk(args) -> list[np.ndarray]:
    """Replicates start..stop-1, where start is a multiple of the block size."""
    config, start, stop, collect_oracle = args
    jump_arrays = None
    if config.model == MODEL_YOUJ:
        jump_arrays = trees.jump_event_arrays(config.schedule, config.n)
    width = 3 + (len(_oracle_keys(config)) if collect_oracle else 0)
    columns = np.empty((width, stop - start))
    step = _block_size(config.n)
    for lo in range(start, stop, step):
        hi = min(stop, lo + step)
        columns[:, lo - start:hi - start] = _run_block(config, lo // step, hi - lo,
                                                       jump_arrays, collect_oracle)
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
        data.oracle = dict(zip(_oracle_keys(config), columns[3:]))
    return data


def _mean_estimate(x: np.ndarray) -> EstimateWithSE:
    r = len(x)
    return EstimateWithSE(float(np.mean(x)), float(np.std(x, ddof=1) / math.sqrt(r)), r)


def _variance_estimate(x: np.ndarray) -> EstimateWithSE:
    """Sample variance with the fourth-moment standard error of a sample
    variance, se^2 = (m4 - m2^2 (R-3)/(R-1)) / R from the central moments
    m2 and m4; below four replicates there is no error estimate."""
    r = len(x)
    value = float(np.var(x, ddof=1))
    if r < 4:
        return EstimateWithSE(value, float("nan"), r)
    dev2 = x - np.mean(x)
    dev2 *= dev2
    m2 = float(np.mean(dev2))
    m4 = float(np.mean(dev2 * dev2))
    se = math.sqrt((m4 - m2 * m2 * (r - 3.0) / (r - 1.0)) / r)
    return EstimateWithSE(value, se, r)


def estimate_moment_summary(config: ExperimentConfig,
                            data: ReplicateData | None = None) -> MomentEstimates:
    """Monte Carlo estimates of mean, ev, vv and ve with standard errors.

    Means get s/sqrt(R); the two variances get the fourth-moment error of a
    sample variance, which follows the data's own kurtosis.
    """
    if data is None:
        data = run_replicates(config)
    return MomentEstimates(
        mean=_mean_estimate(data.cond_mean),
        ev=_mean_estimate(data.cond_var),
        vv=_variance_estimate(data.cond_var),
        ve=_variance_estimate(data.cond_mean),
    )


@dataclass(frozen=True)
class _SortedSample:
    """A sample sorted once, with what every statistic reads off it: Phi(x),
    the antiderivative G(x) = x Phi(x) + phi(x) of the normal CDF (vanishing
    at -infinity), and the sorting permutation."""

    x: np.ndarray
    cdf: np.ndarray
    g: np.ndarray
    order: np.ndarray


def _sort_sample(samples, name: str) -> _SortedSample:
    z = np.asarray(samples, dtype=np.float64).ravel()
    if len(z) == 0:
        raise ValueError(f"{name} requires at least one sample")
    order = np.argsort(z, kind="stable")
    x = z[order]
    cdf = special.std_normal_cdf_array(x)
    g = x * cdf + _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return _SortedSample(x=x, cdf=cdf, g=g, order=order)


def _dk_sorted(s: _SortedSample) -> float:
    r = len(s.x)
    i = np.arange(1, r + 1, dtype=np.float64)
    return float(np.max(np.maximum(i / r - s.cdf, s.cdf - (i - 1.0) / r)))


def _dw_segments(s: _SortedSample, levels: np.ndarray) -> float:
    """Exact L1 distance between the normal CDF and the step function that
    is 0 left of x[0], levels[i] on [x[i], x[i+1]] and 1 right of x[-1].

    The tails are G(x[0]) and G(x[-1]) - x[-1]. On a segment [a, b] at level
    c, with D(t) = G(t) - c t: if Phi(b) <= c the segment adds D(a) - D(b),
    if Phi(a) >= c it adds D(b) - D(a), and otherwise Phi crosses c at the
    quantile zc inside the segment, where D(zc) = phi(zc), and it adds
    D(a) + D(b) - 2 phi(zc). Quantiles are computed for crossing segments
    only.
    """
    x, cdf, g = s.x, s.cdf, s.g
    total = g[0] + (g[-1] - x[-1])
    if len(x) > 1:
        da = g[:-1] - levels * x[:-1]
        db = g[1:] - levels * x[1:]
        seg = db - da
        np.negative(seg, out=seg, where=cdf[1:] <= levels)
        cross = np.flatnonzero((cdf[:-1] < levels) & (levels < cdf[1:]))
        if cross.size:
            zc = np.array([special.std_normal_quantile(c) for c in levels[cross]])
            seg[cross] = da[cross] + db[cross] - 2.0 * _INV_SQRT_2PI * np.exp(-0.5 * zc * zc)
        total += float(np.sum(seg))
    return float(total)


def _dw_sorted(s: _SortedSample) -> float:
    r = len(s.x)
    return _dw_segments(s, np.arange(1, r, dtype=np.float64) / r)


def empirical_dk(samples) -> float:
    """One-sample Kolmogorov statistic against the standard normal CDF."""
    return _dk_sorted(_sort_sample(samples, "empirical_dk"))


def empirical_dw(samples) -> float:
    """Exact L1 distance between the sample's empirical CDF and the standard
    normal CDF (the 1-D Wasserstein distance to N(0,1))."""
    return _dw_sorted(_sort_sample(samples, "empirical_dw"))


def dkw_band(r: int) -> float:
    """Width of the 99% uniform empirical-CDF confidence band for R samples."""
    if r < 1:
        raise ValueError(f"dkw_band requires r >= 1, got {r}")
    return math.sqrt(math.log(2.0 / _DKW_DELTA) / (2.0 * r))


def _bootstrap_dw_se(s: _SortedSample, seed: int) -> float:
    """Resampling standard error of the Wasserstein statistic.

    The bootstrap stream uses spawn key (R, 1), disjoint from every block's
    (block,) key, so it neither disturbs nor depends on the replicate
    draws. A resample is R indices into the original sample; its
    sorted form is the sorted sample with element k repeated as often as
    its rank k was drawn, so its empirical CDF is the running sum of the
    rank counts over the sorted sample (segments between undrawn elements
    keep the previous level). Each resample is thus scored on the sample's
    own Phi and G, with no sort and no CDF evaluation.
    """
    r = len(s.x)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(r, 1))
    rng = np.random.Generator(np.random.PCG64(ss))
    rank = np.empty(r, dtype=np.intp)
    rank[s.order] = np.arange(r)
    values = np.empty(_BOOTSTRAP_RESAMPLES)
    for b in range(_BOOTSTRAP_RESAMPLES):
        counts = np.bincount(rank[rng.integers(0, r, size=r)], minlength=r)
        values[b] = _dw_segments(s, np.cumsum(counts[:-1]) / r)
    return float(np.std(values, ddof=1))


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
    config: ExperimentConfig
    estimates: MomentEstimates
    sandwich: SandwichReport | None


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
    if config.schedule.kind == "per_event":
        raise ValueError("per-event schedules have no closed-form bounds to sandwich against")
    if data is None:
        data = run_replicates(config)
    n, params, schedule = config.n, config.params, config.schedule
    mu = analytic.mean_ybar(n, params)
    if config.model == MODEL_YOUJ:
        sigma2 = analytic.var_ybar_youj(n, params, schedule)
    else:
        sigma2 = analytic.var_ybar_you(n, params)
    z = (data.ybar - mu) / math.sqrt(sigma2)

    s = _sort_sample(z, "run_sandwich")
    dk = _dk_sorted(s)
    dw = _dw_sorted(s)
    band = dkw_band(config.replicates)
    dw_se = _bootstrap_dw_se(s, config.seed)

    upper_dk = analytic.bound_point(config.model, params, schedule, stein.KOLMOGOROV, n)
    upper_dw = analytic.bound_point(config.model, params, schedule, stein.WASSERSTEIN, n)

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
                            _dw_sampling_bias(len(z)) + 3.0 * dw_se, n),
    )


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """One full run: moment estimates plus the sandwich check, both computed
    from a single pass of replicates. The sandwich is skipped (None) where
    there are no bounds to check: per-event schedules and rates below 1/2."""
    data = run_replicates(config)
    estimates = estimate_moment_summary(config, data)
    sandwich = None
    if (config.schedule.kind != "per_event"
            and analytic.classify_regime(config.params.alpha).kind != "slow"):
        sandwich = run_sandwich(config, data)
    return ExperimentResult(config=config, estimates=estimates, sandwich=sandwich)


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
    Carlo estimate at |z| <= 4."""
    data = run_replicates(config, collect_oracle=True)
    n, params = config.n, config.params
    two_alpha = 2.0 * params.alpha
    assert data.oracle is not None
    checks: list[tuple[str, float, EstimateWithSE]] = [
        ("height_laplace[x=1]", analytic.laplace_height(n, 1.0),
         _mean_estimate(data.oracle["exp_height_1"])),
        ("height_laplace[x=2a]", analytic.laplace_height(n, two_alpha),
         _mean_estimate(data.oracle["exp_height_2a"])),
        ("pair_laplace[y=1]", analytic.laplace_pair_time(n, 1.0),
         _mean_estimate(data.oracle["pair_1"])),
        ("pair_laplace[y=2a]", analytic.laplace_pair_time(n, two_alpha),
         _mean_estimate(data.oracle["pair_2a"])),
    ]
    if config.model == MODEL_YOUJ:
        sigma2 = analytic.var_ybar_youj(n, params, config.schedule)
        checks.append(("jump_single_mean",
                       analytic.jump_single_lineage_mean(n, params.alpha, config.schedule.p),
                       _mean_estimate(data.oracle["jump_single"])))
        checks.append(("jump_pair_mean",
                       analytic.jump_pair_shared_mean(n, params.alpha, config.schedule.p),
                       _mean_estimate(data.oracle["jump_pair"])))
    else:
        sigma2 = analytic.var_ybar_you(n, params)
    checks.append(("cond_var_mean", sigma2, _mean_estimate(data.cond_var)))
    checks.append(("cond_mean_var", analytic.var_cond_mean_exact(n, params),
                   _variance_estimate(data.cond_mean)))

    out = []
    for name, closed_form, est in checks:
        z = _z_score(est.value, closed_form, est.se)
        out.append(OracleCheck(name=name, closed_form=closed_form, estimate=est.value,
                               se=est.se, z=z, passed=abs(z) <= 4.0))
    return out
