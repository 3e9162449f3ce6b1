"""Replicated Monte Carlo experiments with deterministic parallelism.

Per replicate: sample a tree (and jump placements for the jump model),
compute the exact conditional moments, and draw the tip average from its
conditional normal. Every replicate owns an RNG stream derived from
(seed, replicate index). Replicates run in blocks of B = max(1, 2^15 // n),
starting at global multiples of B: a loop builds each replicate's stream and
makes its draws in stream order (tree uniforms, splits, jump uniforms, one
standard normal) into block arrays, and the trees, moments and draws of the
whole block are then computed at once by the `trees` kernels. Workers take
contiguous runs of whole blocks and every reduction runs over the full
index-ordered arrays, so results are bit-identical for any worker count.

The empirical distances compare the analytically standardized draws against
N(0,1): the Kolmogorov statistic is the one-sample sup-distance to the normal
CDF, and the Wasserstein statistic is the exact L1 distance between the
empirical CDF and the normal CDF, integrated segment by segment in closed
form.
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
_JACKKNIFE_BATCHES = 32
_BOOTSTRAP_RESAMPLES = 32
_LOWER_BOUND_TRUST_N = 1000
# array elements per block of replicates, (B, n) arrays; see _block_size
_BLOCK_ELEMENTS = 2 ** 15
_WORKERS_ENV = "YOUBOUNDS_WORKERS"


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


def replicate_rng(seed: int, rep: int) -> np.random.Generator:
    """The RNG stream owned by replicate `rep` of a run seeded with `seed`."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(rep,))
    return np.random.Generator(np.random.PCG64(ss))


def _oracle_keys(config: ExperimentConfig) -> list[str]:
    keys = ["exp_height_1", "exp_height_2a", "pair_1", "pair_2a"]
    if config.model == MODEL_YOUJ:
        keys += ["jump_single", "jump_pair"]
    return keys


def _block_size(n: int) -> int:
    """Replicates per block: about 2^15 array elements per (B, n) array."""
    return max(1, _BLOCK_ELEMENTS // n)


def _run_block(config: ExperimentConfig, start: int, stop: int, jump_arrays,
               collect_oracle: bool) -> list[np.ndarray]:
    n, params = config.n, config.params
    size = stop - start
    uniforms = np.empty((size, n))
    splits = np.empty((size, n - 1), dtype=np.int64)
    normals = np.empty(size)
    if jump_arrays is not None:
        ps, variances = jump_arrays
        flags = np.empty((size, n - 1, 2), dtype=bool)
    for i in range(size):
        rng = replicate_rng(config.seed, start + i)
        uniforms[i], splits[i] = trees.draw_tree(n, rng)
        if jump_arrays is not None:
            flags[i] = rng.random((n - 1, 2)) < ps[:, None]
        normals[i] = rng.standard_normal()

    block = trees.tree_block(uniforms, splits)
    cond_mean, cond_var = trees.block_moments_you(block, params)
    if jump_arrays is not None:
        cond_var = cond_var + trees.block_jump_variance(block, flags, variances, params)
    # bit-for-bit what normal(cond_mean, sqrt(cond_var)) would draw
    ybar = cond_mean + np.sqrt(cond_var) * normals
    columns = [cond_mean, cond_var, ybar]
    if collect_oracle:
        two_alpha = 2.0 * params.alpha
        columns += [np.exp(-block.heights), np.exp(-two_alpha * block.heights),
                    trees.block_pair_mean_exp(block, 1.0),
                    trees.block_pair_mean_exp(block, two_alpha)]
        if jump_arrays is not None:
            columns += trees.block_jump_exposure_sums(block, flags, params.alpha)
    return columns


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
        columns[:, lo - start:hi - start] = _run_block(config, lo, hi, jump_arrays,
                                                       collect_oracle)
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
    """Sample variance with a delete-one-batch jackknife standard error."""
    r = len(x)
    value = float(np.var(x, ddof=1))
    if r < 4:
        return EstimateWithSE(value, float("nan"), r)
    batches = np.array_split(x, min(_JACKKNIFE_BATCHES, r))
    s1 = np.array([b.sum() for b in batches])
    s2 = np.array([np.sum(b * b) for b in batches])
    counts = np.array([len(b) for b in batches], dtype=np.float64)
    total1, total2, total_n = s1.sum(), s2.sum(), counts.sum()
    rest_n = total_n - counts
    rest_mean = (total1 - s1) / rest_n
    theta = (total2 - s2 - rest_n * rest_mean ** 2) / (rest_n - 1.0)
    b = len(batches)
    se = math.sqrt((b - 1.0) / b * float(np.sum((theta - theta.mean()) ** 2)))
    return EstimateWithSE(value, se, r)


def estimate_moment_summary(config: ExperimentConfig,
                            data: ReplicateData | None = None) -> MomentEstimates:
    """Monte Carlo estimates of mean, ev, vv and ve with standard errors.

    Means get s/sqrt(R); the two variances get jackknife-over-batches errors,
    which stay honest for fourth-moment-driven quantities.
    """
    if data is None:
        data = run_replicates(config)
    return MomentEstimates(
        mean=_mean_estimate(data.cond_mean),
        ev=_mean_estimate(data.cond_var),
        vv=_variance_estimate(data.cond_var),
        ve=_variance_estimate(data.cond_mean),
    )


def empirical_dk(samples) -> float:
    """One-sample Kolmogorov statistic against the standard normal CDF."""
    x = np.sort(np.asarray(samples, dtype=np.float64).ravel())
    r = len(x)
    if r == 0:
        raise ValueError("empirical_dk requires at least one sample")
    cdf = special.std_normal_cdf_array(x)
    i = np.arange(1, r + 1, dtype=np.float64)
    return float(np.max(np.maximum(i / r - cdf, cdf - (i - 1.0) / r)))


def _dw_level_curves(r: int) -> tuple[np.ndarray, np.ndarray]:
    """Empirical-CDF levels (i/R, i = 1..R-1) and the normal quantile at
    each; these depend only on the sample size, so bootstrap loops reuse
    them."""
    levels = np.arange(1, r, dtype=np.float64) / r
    zc = np.fromiter((special.std_normal_quantile(c) for c in levels),
                     dtype=np.float64, count=r - 1)
    return levels, zc


def _normal_cdf_antiderivative(x: np.ndarray) -> np.ndarray:
    # integral of the normal CDF: z Phi(z) + phi(z), vanishing at -infinity
    inv_sqrt_2pi = 1.0 / math.sqrt(2.0 * math.pi)
    return x * special.std_normal_cdf_array(x) + inv_sqrt_2pi * np.exp(-0.5 * x * x)


def _dw_sorted(x: np.ndarray, levels: np.ndarray, zc: np.ndarray) -> float:
    """Exact L1 distance between the empirical CDF of sorted x and the
    normal CDF.

    Tail pieces come from the antiderivative G(z) = z Phi(z) + phi(z); inside
    each sample segment the empirical CDF is flat at level c, so the integral
    of |c - Phi| is a difference of D(t) = G(t) - c t evaluated at the ends
    and, when the quantile of c falls inside the segment, at the crossing.
    """
    g = _normal_cdf_antiderivative(x)
    total = g[0] + (g[-1] - x[-1])
    if len(x) > 1:
        a, b = x[:-1], x[1:]
        ga, gb = g[:-1], g[1:]
        da = ga - levels * a
        db = gb - levels * b
        dz = _normal_cdf_antiderivative(zc) - levels * zc
        seg = np.where(zc <= a, db - da,
                       np.where(zc >= b, da - db, da + db - 2.0 * dz))
        total += float(np.sum(seg))
    return float(total)


def empirical_dw(samples) -> float:
    """Exact L1 distance between the sample's empirical CDF and the standard
    normal CDF (the 1-D Wasserstein distance to N(0,1))."""
    x = np.sort(np.asarray(samples, dtype=np.float64).ravel())
    if len(x) == 0:
        raise ValueError("empirical_dw requires at least one sample")
    levels, zc = _dw_level_curves(len(x))
    return _dw_sorted(x, levels, zc)


def dkw_band(r: int) -> float:
    """Width of the 99% uniform empirical-CDF confidence band for R samples."""
    if r < 1:
        raise ValueError(f"dkw_band requires r >= 1, got {r}")
    return math.sqrt(math.log(2.0 / _DKW_DELTA) / (2.0 * r))


def _bootstrap_dw_se(z: np.ndarray, seed: int) -> float:
    """Resampling standard error of the Wasserstein statistic.

    The bootstrap stream uses spawn key (R, 1), disjoint from every
    replicate's (rep,) key, so it neither disturbs nor depends on the
    replicate draws.
    """
    r = len(z)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(r, 1))
    rng = np.random.Generator(np.random.PCG64(ss))
    levels, zc = _dw_level_curves(r)
    values = np.empty(_BOOTSTRAP_RESAMPLES)
    for b in range(_BOOTSTRAP_RESAMPLES):
        resample = np.sort(z[rng.integers(0, r, size=r)])
        values[b] = _dw_sorted(resample, levels, zc)
    return float(np.std(values, ddof=1))


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

    dk = empirical_dk(z)
    levels, zc = _dw_level_curves(len(z))
    dw = _dw_sorted(np.sort(z), levels, zc)
    band = dkw_band(config.replicates)
    dw_se = _bootstrap_dw_se(z, config.seed)

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
        verdict_dw=_verdict(dw, upper_dw.total, lower_dw.total, 3.0 * dw_se, n),
    )


def run_experiment(config: ExperimentConfig, include_sandwich: bool = True) -> ExperimentResult:
    """One full run: moment estimates plus (optionally) the sandwich check,
    both computed from a single pass of replicates."""
    data = run_replicates(config)
    estimates = estimate_moment_summary(config, data)
    sandwich = None
    if include_sandwich and config.schedule.kind != "per_event":
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
