"""Self-verification suite: algebraic identities, brute-force oracles, Monte
Carlo cross-checks and the determinism contract.

Each criterion function returns a CriterionResult with one line per check so
callers (the CLI verify command and the acceptance tests) can render and gate
them uniformly. The suites are lists of criteria not yet called, so a caller
can time each one. Nothing here prints or exits.

Two checks in `criterion_4_critical` are expected to fail on a correct build;
see the README section on the critical-regime limit check. They are reported
honestly rather than loosened.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import analytic, cli, harness, special, stein, trees
from .analytic import JumpSchedule, YouParams, MODEL_YOU, MODEL_YOUJ
from .harness import ExperimentConfig

_SEED = 20260819


@dataclass
class CheckLine:
    ok: bool
    text: str

    def render(self) -> str:
        return ("PASS " if self.ok else "FAIL ") + self.text


@dataclass
class CriterionResult:
    label: str
    title: str
    checks: list[CheckLine] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, ok: bool, text: str) -> None:
        self.checks.append(CheckLine(bool(ok), text))

    def render(self, elapsed: float | None = None) -> str:
        """The header line, with the elapsed seconds if given, then one line
        per check."""
        head = f"[criterion {self.label}] {self.title}"
        if elapsed is not None:
            head += f" ({elapsed:.2f} s)"
        return "\n".join([head] + ["  " + c.render() for c in self.checks])


# worker count of `verify` when neither --workers nor YOUBOUNDS_WORKERS is set
DEFAULT_WORKERS = max(1, min(4, os.cpu_count() or 1))


# ---------------------------------------------------------------------------
# criterion 1: closed-form consistency

def criterion_1() -> CriterionResult:
    res = CriterionResult("1", "closed-form consistency")
    worst = 0.0
    for x in (0.5, 1.0, 2.0, 3.0):
        running = 1.0
        for n in range(1, 10_001):
            running *= n / (n + x)
            gamma_form = math.exp(
                math.lgamma(n + 1.0) + math.lgamma(x + 1.0) - math.lgamma(n + x + 1.0))
            shipped = special.pochhammer_ratio(n, x)
            worst = max(worst, abs(shipped - running) / running,
                        abs(shipped - gamma_form) / gamma_form)
    res.add(worst <= 1e-10,
            f"shipped factor vs independent product and log-gamma routes agree "
            f"to 1e-10 relative over n <= 1e4, x in {{0.5,1,2,3}} (worst {worst:.3e})")
    worst_pair = 0.0
    for y in (1.5, 2.0, 3.0):
        worst_pair = max(worst_pair, abs(analytic.laplace_pair_time(2, y) - 2.0 / (2.0 + y)))
    res.add(worst_pair <= 1e-12,
            f"two-tip pair transform equals 2/(2+y) for y in {{1.5,2,3}} "
            f"(worst abs dev {worst_pair:.3e})")
    n, y = 10**7, 1.0 + 1e-11
    big = max(abs(special.pochhammer_ratio(n, x) * math.comb(n + x, x) - 1.0) for x in (1, 2))
    res.add(big <= 1e-14, f"factor at n = 1e7 equals 1/C(n+x, x) for x in {{1,2}} "
                          f"to 1e-14 relative (worst {big:.3e})")
    near = abs(analytic.laplace_pair_time(2, y) * (2.0 + y) / 2.0 - 1.0)
    res.add(near <= 1e-14, f"two-tip pair transform at y = 1 + 1e-11 equals 2/(2+y) "
                           f"to 1e-14 relative (rel dev {near:.3e})")
    return res


# ---------------------------------------------------------------------------
# criterion 2: brute-force oracles (independent set-based tree replay)

def _replay_daughter_tip_sets(splits: np.ndarray) -> list[tuple[set[int], set[int]]]:
    """Per-event daughter tip-index sets, rebuilt from the raw split list
    with an explicit set union pass (independent of the count-based path)."""
    n = len(splits) + 1
    alive = [0] * n
    parent = [0] * (n - 1)
    for k in range(1, n):
        j = int(splits[k - 1])
        parent[k - 1] = alive[j]
        alive[j] = 2 * k - 1
        alive[k] = 2 * k
    sets: dict[int, set[int]] = {lineage: {t} for t, lineage in enumerate(alive)}
    for k in range(n - 1, 0, -1):
        sets[parent[k - 1]] = sets[2 * k - 1] | sets[2 * k]
    return [(sets[2 * k - 1], sets[2 * k]) for k in range(1, n)]


def brute_pair_ages(block: trees.TreeBlock) -> np.ndarray:
    """Dense matrix of pairwise coalescence ages of the block's first tree,
    filled pair by pair."""
    n = block.n
    ages = np.full((n, n), np.nan)
    np.fill_diagonal(ages, 0.0)
    for k, (left, right) in enumerate(_replay_daughter_tip_sets(block.splits[0])):
        for a in left:
            for b in right:
                ages[a, b] = ages[b, a] = block.coalescence_ages[0, k]
    if np.isnan(ages).any():
        raise AssertionError("some tip pair was never assigned a coalescence age")
    return ages


def brute_pair_mean_exp(block: trees.TreeBlock, y: float) -> float:
    ages = brute_pair_ages(block)
    ix = np.triu_indices(block.n, k=1)
    return float(np.mean(np.exp(-y * ages[ix])))


def brute_cond_var(block: trees.TreeBlock, params: YouParams,
                   flags: np.ndarray | None = None,
                   variances: np.ndarray | None = None) -> float:
    """Conditional variance of the block's first tree via the full
    covariance matrix of the normalized tips: exp(-2 alpha age) -
    exp(-2 alpha height) off the diagonal, 1 - exp(-2 alpha height) on it,
    plus a block constant per jumping slot (flags (1, n-1, 2))."""
    n = block.n
    a = params.alpha
    tip_term = math.exp(-2.0 * a * float(block.times[0].sum()))
    cov = np.exp(-2.0 * a * brute_pair_ages(block)) - tip_term
    np.fill_diagonal(cov, 1.0 - tip_term)
    if flags is not None:
        daughters = _replay_daughter_tip_sets(block.splits[0])
        for k, (left, right) in enumerate(daughters):
            decayed = (2.0 * a / params.sigma_a2) * variances[k] \
                * math.exp(-2.0 * a * block.coalescence_ages[0, k])
            for slot, tips in enumerate((left, right)):
                if flags[0, k, slot]:
                    idx = np.fromiter(tips, dtype=np.int64)
                    cov[np.ix_(idx, idx)] += decayed
    return float(cov.sum()) / (n * n)


def criterion_2() -> CriterionResult:
    res = CriterionResult("2", "brute-force tree oracles")
    rng = np.random.default_rng(_SEED)

    worst = 0.0
    for n in (2, 3, 5, 8, 16, 33, 64):
        block = trees.sample_tree(n, rng)
        for y in (0.7, 1.0, 2.0):
            got = float(trees.pair_mean_exp(block, y)[0])
            worst = max(worst, abs(got - brute_pair_mean_exp(block, y)))
    res.add(worst <= 1e-12,
            f"pair average, event-count form vs all-pairs matrix form, n <= 64 "
            f"(worst abs dev {worst:.3e})")

    worst_you = 0.0
    worst_jump = 0.0
    alphas = (0.5, 1.0, 2.0)
    schedule = JumpSchedule.constant(0.5, 1.3)
    for i in range(100):
        n = int(rng.integers(2, 33))
        block = trees.sample_tree(n, rng)
        params = YouParams(alpha=alphas[i % 3], sigma_a2=1.0, x0=1.0)
        got = float(trees.conditional_moments_you(block, params)[1][0])
        worst_you = max(worst_you, abs(got - brute_cond_var(block, params)))
        ps, variances = trees.jump_event_arrays(schedule, n)
        flags = trees.sample_jumps(ps, rng)
        got_j = float(trees.conditional_moments_youj(block, flags, variances, params)[1][0])
        worst_jump = max(worst_jump, abs(got_j - brute_cond_var(block, params, flags, variances)))
    res.add(worst_you <= 1e-10,
            f"conditional variance vs covariance-matrix aggregation, 100 trees "
            f"n <= 32 (worst abs dev {worst_you:.3e})")
    res.add(worst_jump <= 1e-10,
            f"same with jump placements folded in (worst abs dev {worst_jump:.3e})")
    return res


# ---------------------------------------------------------------------------
# criterion 3: Monte Carlo vs closed forms, |z| <= 4 at R = 1e5

def _oracle_lines(res: CriterionResult, tag: str, config: ExperimentConfig,
                  names: set[str] | None = None) -> None:
    for check in harness.oracle_checks(config):
        if names is not None and check.name not in names:
            continue
        res.add(check.passed,
                f"{tag} {check.name}: closed {check.closed_form:.6g}, "
                f"mc {check.estimate:.6g}, z {check.z:+.2f}")


def criterion_3(workers: int = 1) -> CriterionResult:
    res = CriterionResult("3", "Monte Carlo vs analytic closed forms (R = 1e5, |z| <= 4)")
    r = 100_000
    half = 1.0 / math.sqrt(2.0)
    runs = [
        ("YOU n=50 a=1",
         ExperimentConfig(MODEL_YOU, 50, YouParams(1.0, 1.0, half), JumpSchedule.none(),
                          r, _SEED + 1, workers),
         {"height_laplace[x=1]", "pair_laplace[y=1]", "pair_laplace[y=2a]",
          "cond_var_mean", "cond_mean_var"}),
        ("YOU n=100 a=1",
         ExperimentConfig(MODEL_YOU, 100, YouParams(1.0, 1.0, half), JumpSchedule.none(),
                          r, _SEED + 2, workers),
         {"height_laplace[x=2a]"}),
        ("YOU n=200 a=1/2",
         ExperimentConfig(MODEL_YOU, 200, YouParams(0.5, 1.0, 1.0), JumpSchedule.none(),
                          r, _SEED + 3, workers),
         {"cond_var_mean"}),
        ("YOUj n=50 a=1 p=1/2",
         ExperimentConfig(MODEL_YOUJ, 50, YouParams(1.0, 1.0, half),
                          JumpSchedule.constant(0.5, 1.0), r, _SEED + 4, workers),
         {"jump_single_mean", "jump_pair_mean", "cond_var_mean"}),
    ]
    for tag, config, names in runs:
        _oracle_lines(res, tag, config, names)
    return res


# ---------------------------------------------------------------------------
# criterion 4: limit reproduction (analytic evaluation only)

def _limit_check(res: CriterionResult, text: str, value: float, target: float,
                 rel_tol: float, note: str = "") -> None:
    gap = abs(value - target) / target
    suffix = f" [{note}]" if note else ""
    res.add(gap <= rel_tol,
            f"{text}: value {value:.6f}, target {target:.6f}, gap {100 * gap:.2f}% "
            f"(tolerance {100 * rel_tol:.0f}%){suffix}")


def criterion_4_fast() -> CriterionResult:
    res = CriterionResult("4a", "limit variance reproduction, fast regime")
    n = 100_000
    for alpha, target in ((1.0, 3.0), (2.0, 5.0 / 3.0)):
        value = n * analytic.var_ybar_you(n, YouParams(alpha))
        _limit_check(res, f"n*var at n=1e5, a={alpha}", value, target, 0.02)
    schedule = JumpSchedule.constant(0.5, 1.0)
    value = n * analytic.var_ybar_youj(n, YouParams(1.0), schedule)
    target = 3.0 * (1.0 + 2.0 * 0.5 * 1.0)
    _limit_check(res, "jump model n*var at n=1e5, a=1 p=1/2 sc2=1", value, target, 0.05)
    return res


def criterion_4_critical() -> CriterionResult:
    res = CriterionResult("4b", "limit variance reproduction, critical regime")
    n = 1_000_000
    preface = ("the approach is O(1/ln n), so this check fails at n = 1e6 by "
               "construction of the formula, not by implementation error; ")
    value = n / math.log(n) * analytic.var_ybar_you(n, YouParams(0.5))
    _limit_check(res, "(n/ln n)*var at n=1e6, a=1/2", value, 2.0, 0.05,
                 preface + "the relative gap is about 0.92/ln n and enters "
                 "the 5% band only near n = 1e8")
    schedule = JumpSchedule.constant(0.5, 1.0)
    value = n / math.log(n) * analytic.var_ybar_youj(n, YouParams(0.5), schedule)
    _limit_check(res, "jump model (n/ln n)*var at n=1e6, a=1/2 p=1/2 sc2=1",
                 value, 4.0, 0.05,
                 preface + "the relative gap is about 1.17/ln n and enters "
                 "the 5% band only near n = 2e10")
    return res


def criterion_4_second_order() -> CriterionResult:
    """4b's gaps times ln n. At alpha = 1/2, n var = 2 H_n - 3 + 3/(n+1), and with
    jumps (p = 1/2, sigma_c2 = 1) 4 H_n - 7 + 7/(n+1); H_n - ln n tends to gamma."""
    res = CriterionResult("4c", "second-order approach to the critical limits")
    n, log_n, gamma = 1_000_000, math.log(1_000_000), float(np.euler_gamma)
    for text, schedule, lead, limit in (
            ("(2 - (n/ln n)*var)*ln n at n=1e6, a=1/2; limit 3 - 2 gamma", None, 2.0,
             3.0 - 2.0 * gamma),
            ("jump model (4 - (n/ln n)*var)*ln n at n=1e6, a=1/2 p=1/2 sc2=1; limit 7 - 4 gamma",
             JumpSchedule.constant(0.5, 1.0), 4.0, 7.0 - 4.0 * gamma)):
        value = (lead - n / log_n * analytic.var_ybar_youj(n, YouParams(0.5), schedule)) * log_n
        res.add(abs(value - limit) <= 1e-4, f"{text}: value {value:.7f}, limit {limit:.7f}, "
                                            f"gap {abs(value - limit):.1e} (tolerance 1e-4)")
    return res


# ---------------------------------------------------------------------------
# criterion 5: rate checks on the bound curves

def _loglog_slope(grid: list[int], totals: list[float]) -> float:
    x = np.log(np.asarray(grid, dtype=np.float64))
    y = np.log(np.asarray(totals))
    x = x - x.mean()
    return float(np.dot(x, y - y.mean()) / np.dot(x, x))


def criterion_5() -> CriterionResult:
    res = CriterionResult("5", "bound-curve decay rates")
    grid = [10_000, 100_000, 1_000_000, 10_000_000]

    curves = {a: analytic.bound_curve(YouParams(a, 1.0, 1.0 / math.sqrt(2.0 * a)), None, grid)
              for a in (0.5, 0.6, 1.0)}
    for alpha, distance, target in ((0.6, stein.KOLMOGOROV, -0.2),
                                    (1.0, stein.KOLMOGOROV, -0.5),
                                    (1.0, stein.WASSERSTEIN, -0.75)):
        slope = _loglog_slope(grid, [point[distance].total for point in curves[alpha]])
        res.add(abs(slope - target) <= 0.05,
                f"{distance} log-log slope at a={alpha} over n in [1e4, 1e7]: "
                f"{slope:+.4f} vs {target:+.2f} (window 0.05)")

    crit = [point[stein.KOLMOGOROV].total for point in curves[0.5]]
    v1 = crit[1] * math.log(grid[1])
    v3 = crit[3] * math.log(grid[3])
    spread = abs(v1 - v3) / min(v1, v3)
    res.add(spread <= 0.03,
            f"kolmogorov total * ln n at a=1/2: {v1:.4f} (n=1e5) vs {v3:.4f} (n=1e7), "
            f"spread {100 * spread:.2f}% (window 3%)")
    return res


# ---------------------------------------------------------------------------
# criterion 6: sandwich runs

def criterion_6(workers: int = 1) -> CriterionResult:
    res = CriterionResult("6", "empirical distances inside the analytic sandwich (R = 2e5)")
    r = 200_000
    half = 1.0 / math.sqrt(2.0)
    runs = [
        ("YOU a=1 n=200",
         ExperimentConfig(MODEL_YOU, 200, YouParams(1.0, 1.0, half), JumpSchedule.none(),
                          r, _SEED + 11, workers)),
        ("YOU a=1/2 n=200",
         ExperimentConfig(MODEL_YOU, 200, YouParams(0.5, 1.0, 1.0), JumpSchedule.none(),
                          r, _SEED + 12, workers)),
        ("YOUj a=1 p=1 n=200",
         ExperimentConfig(MODEL_YOUJ, 200, YouParams(1.0, 1.0, half),
                          JumpSchedule.constant(1.0, 1.0), r, _SEED + 13, workers)),
    ]
    for tag, config in runs:
        report = harness.run_sandwich(config)
        res.add(report.empirical_dk <= report.upper_dk.total + report.dkw_band,
                f"{tag}: empirical dk {report.empirical_dk:.5f} <= upper "
                f"{report.upper_dk.total:.5f} + band {report.dkw_band:.5f}")
        res.add(report.empirical_dw <= report.upper_dw.total + 3.0 * report.dw_bootstrap_se,
                f"{tag}: empirical dw {report.empirical_dw:.5f} <= upper "
                f"{report.upper_dw.total:.5f} + 3*se {3.0 * report.dw_bootstrap_se:.5f}")
        res.add(report.lower_dk.total <= report.upper_dk.total
                and report.lower_dw.total <= report.upper_dw.total,
                f"{tag}: lower bounds ({report.lower_dk.total:.5f}, "
                f"{report.lower_dw.total:.5f}) below upper bounds")
    return res


# ---------------------------------------------------------------------------
# criterion 7: variance penalty and lower-bound constant

def criterion_7() -> CriterionResult:
    res = CriterionResult("7", "variance penalty and lower-bound constant")
    exact_zero = all(stein.variance_penalty(s, s) == 0.0 for s in (0.5, 1.0, 3.0))
    res.add(exact_zero, "penalty vanishes exactly at x = sigma2 for sigma2 in {0.5, 1, 3}")

    ok_envelopes = True
    worst_text = ""
    for s in (0.5, 1.0, 2.5):
        x = np.linspace(0.0, 20.0 * s, 1000)
        k = stein.variance_penalty(x, s)
        quad = (s - x) ** 2 / s
        low = 3.0 / 2.0 ** 3.5 * quad
        high = 27.0 / 8.0 * quad
        below = x <= s
        if not (np.all(k[below] >= low[below] - 1e-12) and np.all(k <= high + 1e-12)
                and np.all(k <= np.abs(s - x) + 1e-12)):
            ok_envelopes = False
            worst_text = f" (violated at sigma2 = {s})"
    res.add(ok_envelopes,
            "quadratic envelopes and the |sigma2 - x| cap hold on 1000-point "
            "grids over [0, 20 sigma2]" + worst_text)

    closed = stein.lower_bound_constant(stein.KOLMOGOROV)

    # 40 Gauss-Legendre nodes on each piece between the integrand's kinks
    nodes, weights = np.polynomial.legendre.leggauss(40)
    edges = (-12.0, -math.sqrt(2.5), 0.0, math.sqrt(2.5), 12.0)
    quadrature = 0.0
    for a, b in zip(edges, edges[1:]):
        t = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        integrand = np.abs(2.0 * t ** 3 - 5.0 * t) * np.exp(-0.5 * t * t)
        quadrature += 0.5 * (b - a) * float(np.dot(weights, integrand))
    res.add(abs(closed - quadrature) <= 1e-9,
            f"kolmogorov constant: antiderivative {closed:.12f} vs Gauss-Legendre "
            f"quadrature {quadrature:.12f} (|diff| {abs(closed - quadrature):.2e})")
    return res


# ---------------------------------------------------------------------------
# criterion 8: byte-identical output across worker counts, and the split
# stream of the documented Generator.integers call

def criterion_8() -> CriterionResult:
    res = CriterionResult("8", "determinism: worker counts and the split stream")
    # sample_tree draws its splits from raw PCG64 words by NumPy's own rule;
    # at n = 1e5 this seed's one row meets a rejected draw, which hands the
    # whole row to Generator.integers
    for n, rows in ((3, harness._block_size(3)), (200, harness._block_size(200)),
                    (5000, harness._block_size(5000)), (100_000, 1)):
        rng, replay = np.random.default_rng(_SEED), np.random.default_rng(_SEED)
        splits = trees.sample_tree(n, rng, rows).splits
        replay.random((rows, n))  # the period uniforms; none is 0 at this seed
        want = replay.integers(0, np.arange(1, n), size=(rows, n - 1), dtype=np.int64)
        res.add(np.array_equal(splits, want)
                and rng.bit_generator.state == replay.bit_generator.state,
                f"n={n}, {rows} rows: sample_tree splits and end state equal "
                f"Generator.integers")
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        for workers in (1, 4, 8):
            path = os.path.join(tmp, f"w{workers}.json")
            code = cli.main([
                "simulate", "--model", "YOU", "--n", "100", "--alpha", "1.0",
                "--x0", "0.7", "--replicates", "4000", "--seed", "777",
                "--workers", str(workers), "--json", path,
            ])
            if code != 0:
                res.add(False, f"simulate exited {code} at workers={workers}")
                return res
            with open(path, "rb") as fh:
                outputs.append(fh.read())
    identical = outputs[0] == outputs[1] == outputs[2]
    res.add(identical,
            f"simulate JSON is byte-identical across workers 1/4/8 "
            f"({len(outputs[0])} bytes)")
    return res


# ---------------------------------------------------------------------------
# order-only spot check of the conditional-variance-spread asymptotics

def vv_order_check(workers: int = 1) -> CriterionResult:
    res = CriterionResult("3x", "conditional-variance spread: order-only rate stability")
    r = 20_000
    for alpha, n_power in ((1.0, 3.0), (0.6, 2.4)):
        ratios = []
        for i, n in enumerate((50, 100, 200)):
            config = ExperimentConfig(MODEL_YOU, n, YouParams(alpha, 1.0, 1.0),
                                      JumpSchedule.none(), r, _SEED + 21 + i, workers)
            est = harness.estimate_moment_summary(config)
            ratios.append(est.vv.value * float(n) ** n_power)
        spread = max(ratios) / min(ratios)
        res.add(0.0 < min(ratios) and spread <= 3.0,
                f"a={alpha}: vv_mc * n^{n_power:.1f} over n in {{50,100,200}} = "
                f"[{ratios[0]:.3f}, {ratios[1]:.3f}, {ratios[2]:.3f}], "
                f"max/min {spread:.2f} (order-only gate <= 3)")
    return res


# ---------------------------------------------------------------------------
# suites

def quick_suite(workers: int = 1) -> list[Callable[[], CriterionResult]]:
    del workers
    return [criterion_1, criterion_2, criterion_7]


def full_suite(workers: int = 1) -> list[Callable[[], CriterionResult]]:
    return [
        criterion_1,
        criterion_2,
        partial(criterion_3, workers),
        criterion_4_fast,
        criterion_4_critical,
        criterion_4_second_order,
        criterion_5,
        partial(criterion_6, workers),
        criterion_7,
        criterion_8,
        partial(vv_order_check, workers),
    ]
