"""Closed forms and rate constants for OU traits on Yule trees.

The model: a linear mean-reverting diffusion with rate alpha and diffusion
variance sigma_a2 runs along a pure-birth tree, splitting into independent
copies at every speciation; an optional variant adds independent mean-zero
normal jumps on each daughter lineage right after a split, and the jump
schedule alone selects it (an absent or inactive schedule means no jumps).
The quantity of interest is the normalized tip average, whose conditional
law given the tree (and jump locations) is normal. This module supplies the
exact mean and mean-conditional-variance of that average, the exact
variance of its conditional mean, one rate table (the only source for the
variance of its conditional variance, the limit variance and the plateau
rule: above alpha = 3/4 its vv is the limit of n^3 vv, which lies above the
exact vv, and leading-order at and below), and assembled distance-bound
curves.

One gate, `_closed_form_schedule`, decides where closed forms exist: not
for active per-event jump schedules, and not below the critical rate
alpha = 1/2, where no normal limit is expected. Every closed form that needs
it asks it, so they all refuse the same configurations the same way.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
from dataclasses import dataclass

from . import special
from . import stein
from .stein import BoundReport, MomentSummary

MODEL_YOU = "YOU"
MODEL_YOUJ = "YOUj"

UNSUPPORTED_REGIME_MSG = "unsupported regime (no normal limit expected)"

# width of the exact-branch windows around the special rates
_CRITICAL_WINDOW = 1e-12          # around alpha = 1/2
_THREE_QUARTERS_WINDOW = 0.75e-9  # relative 1e-9 window around alpha = 3/4
_ONE_WINDOW = 1e-12


class UnsupportedRegimeError(ValueError):
    """Raised for rate parameters outside the normal-limit regime."""

    reason = "no normal limit expected below the critical rate"


class PerEventScheduleError(ValueError):
    """Raised where a closed form would need an active per-event schedule."""

    reason = "per-event schedules have no closed-form bounds"


@dataclass(frozen=True)
class YouParams:
    """Trait-process parameters.

    alpha is the mean-reversion rate, sigma_a2 the diffusion variance, x0 the
    ancestral state. 2 alpha / sigma_a2 must be finite, and all normalized
    formulas depend on the dimensionless offset delta = x0 sqrt(2 alpha /
    sigma_a2), whose square must be finite.
    """

    alpha: float
    sigma_a2: float = 1.0
    x0: float = 0.0

    def __post_init__(self) -> None:
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        if not (self.sigma_a2 > 0.0 and math.isfinite(self.sigma_a2)):
            raise ValueError(f"sigma_a2 must be finite and > 0, got {self.sigma_a2}")
        if not math.isfinite(2.0 * self.alpha / self.sigma_a2):
            raise ValueError(f"2 alpha / sigma_a2 is not finite at alpha = {self.alpha!r}, "
                             f"sigma_a2 = {self.sigma_a2!r}")
        if not math.isfinite(self.x0):
            raise ValueError(f"x0 must be finite, got {self.x0}")
        if not math.isfinite(self.delta * self.delta):
            raise ValueError(f"offset x0 sqrt(2 alpha / sigma_a2) has no finite square at x0 = "
                             f"{self.x0!r}, alpha = {self.alpha!r}, sigma_a2 = {self.sigma_a2!r}")

    @property
    def delta(self) -> float:
        return self.x0 * math.sqrt(2.0 * self.alpha / self.sigma_a2)


@dataclass(frozen=True)
class JumpSchedule:
    """Jump placement plan: none, one (p, sigma_c2) pair for every speciation
    event, or an explicit per-event list of pairs."""

    kind: str
    p: float = 0.0
    sigma_c2: float = 0.0
    pairs: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("none", "constant", "per_event"):
            raise ValueError(f"unknown schedule kind: {self.kind!r}")
        entries = self.pairs if self.kind == "per_event" else ((self.p, self.sigma_c2),)
        for p, s in entries:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"jump probability must be in [0, 1], got {p}")
            if s < 0.0 or not math.isfinite(s):
                raise ValueError(f"jump variance must be finite and >= 0, got {s}")

    @staticmethod
    def none() -> "JumpSchedule":
        return JumpSchedule("none")

    @staticmethod
    def constant(p: float, sigma_c2: float) -> "JumpSchedule":
        return JumpSchedule("constant", p=p, sigma_c2=sigma_c2)

    @staticmethod
    def per_event(pairs) -> "JumpSchedule":
        return JumpSchedule("per_event", pairs=tuple((float(p), float(s)) for p, s in pairs))

    @property
    def is_inactive(self) -> bool:
        """True when the schedule cannot produce any variance contribution."""
        if self.kind == "none":
            return True
        if self.kind == "constant":
            return self.p * self.sigma_c2 == 0.0
        return all(p * s == 0.0 for p, s in self.pairs)


def check_jump_scale(params: YouParams, schedule: JumpSchedule | None) -> None:
    """Refuses a schedule whose largest jump scale L = (2 alpha / sigma_a2)
    sigma_c2, over the entries that can jump, has no finite square, naming
    sigma_c2, alpha and sigma_a2: the vv and the variance estimates square
    it."""
    if schedule is None:
        return
    entries = schedule.pairs if schedule.kind == "per_event" else ((schedule.p, schedule.sigma_c2),)
    sigma_c2 = max((s for p, s in entries if p > 0.0 and s > 0.0), default=0.0)
    scale = (2.0 * params.alpha / params.sigma_a2) * sigma_c2
    if not math.isfinite(scale * scale):
        raise ValueError(f"jump scale (2 alpha / sigma_a2) sigma_c2 has no finite square at "
                         f"sigma_c2 = {sigma_c2!r}, alpha = {params.alpha!r}, "
                         f"sigma_a2 = {params.sigma_a2!r}")


@dataclass(frozen=True)
class Regime:
    """Rate classification: kind in {slow, critical, fast} plus the finer
    band that selects the conditional-variance-spread asymptotics."""

    kind: str
    band: str


def classify_regime(alpha: float) -> Regime:
    if alpha <= 0.0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if abs(alpha - 0.5) <= _CRITICAL_WINDOW:
        return Regime("critical", "half")
    if alpha < 0.5:
        return Regime("slow", "below_half")
    if abs(alpha - 0.75) <= _THREE_QUARTERS_WINDOW:
        return Regime("fast", "three_quarters")
    if alpha < 0.75:
        return Regime("fast", "half_to_three_quarters")
    if abs(alpha - 1.0) <= _ONE_WINDOW:
        return Regime("fast", "one")
    if alpha < 1.0:
        return Regime("fast", "three_quarters_to_one")
    return Regime("fast", "above_one")


def laplace_height(n: int, x: float) -> float:
    """Laplace transform of the n-tip tree height at argument x."""
    return special.pochhammer_ratio(n, x)


def laplace_height_variance(n: int, x: float) -> float:
    """Variance of exp(-x * height) over trees."""
    b1 = special.pochhammer_ratio(n, x)
    return special.pochhammer_ratio(n, 2.0 * x) - b1 * b1


def laplace_pair_time(n: int, y: float) -> float:
    """Laplace transform of the coalescence time of a uniform tip pair at
    y = 2 alpha, alpha any rate with closed forms: with eps = y - 1,
    2 (1 - prod_{k=3..n+1} k/(k+eps)) / ((n-1) eps), the product taken as
    exp of a log1p sum so no digits cancel near y = 1, and at eps = 0 its
    limit 2 (H_n - 1) / (n - 1) - 1 / (n + 1)."""
    if n < 2 or int(n) != n:
        raise ValueError(f"laplace_pair_time requires an integer n >= 2, got {n}")
    _refuse_below_critical(0.5 * y)
    n = int(n)
    if y == 1.0:
        return 2.0 / (n - 1.0) * (special.harmonic(n) - 1.0) - 1.0 / (n + 1.0)
    return -2.0 * math.expm1(-special._log1p_sum(n + 1, y - 1.0, 3)) / ((n - 1.0) * (y - 1.0))


def mean_ybar(n: int, params: YouParams) -> float:
    """Mean of the normalized tip average: delta times the height transform
    at alpha. Jumps are mean zero, so this covers both models."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return params.delta * special.pochhammer_ratio(n, params.alpha)


def var_ybar_you(n: int, params: YouParams) -> float:
    """Mean conditional variance of the tip average for the jump-free model.

    1/n + (1 - 1/n) * pair-time transform at 2 alpha - height transform at
    2 alpha; strictly positive for every n >= 2.
    """
    if n < 2:
        raise ValueError(f"var_ybar_you requires n >= 2, got {n}")
    _closed_form_schedule(params, None)
    two_alpha = 2.0 * params.alpha
    pair = laplace_pair_time(n, two_alpha)
    height = special.pochhammer_ratio(n, two_alpha)
    return 1.0 / n + (1.0 - 1.0 / n) * pair - height


def var_cond_mean_exact(n: int, params: YouParams) -> float:
    """Exact variance of the conditional mean: delta^2 times the variance of
    the height transform at alpha."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    d = params.delta
    return d * d * laplace_height_variance(n, params.alpha)


def jump_single_lineage_mean(n: int, alpha: float, p: float) -> float:
    """Mean total single-lineage jump exposure.

    Expectation (over trees and jump placements) of the sum, across jumping
    daughter slots, of the decayed per-tip weight e^(-2 alpha age) d / n.
    Exact: (2p / 2 alpha)(1 - (1 + 2 alpha) * height transform at 2 alpha).
    """
    _check_jump_args(n, alpha, p)
    two_alpha = 2.0 * alpha
    b = special.pochhammer_ratio(n, two_alpha)
    return (2.0 * p / two_alpha) * (1.0 - (1.0 + two_alpha) * b)


def jump_pair_shared_mean(n: int, alpha: float, p: float) -> float:
    """Mean total shared-pair jump exposure.

    Expectation of the sum, across jumping slots, of e^(-2 alpha age)
    d(d-1)/(n(n-1)). Exact: with eps = 2 alpha - 1, p / alpha times the form
    of laplace_pair_time with the factor 1 + eps (n-1)/(n+1) on its product,
    and at eps = 0 the limit (4p / (n-1)) (H_n - (5n - 1) / (2(n + 1))).
    """
    _check_jump_args(n, alpha, p)
    eps = 2.0 * alpha - 1.0
    if eps == 0.0:
        return (4.0 * p / (n - 1.0)) * (special.harmonic(n) - (5.0 * n - 1.0) / (2.0 * (n + 1.0)))
    log_ratio = math.log1p(eps * (n - 1.0) / (n + 1.0)) - special._log1p_sum(int(n) + 1, eps, 3)
    # 0 - keeps the n = 2 value, where log_ratio is 0, at +0.0
    return (p / alpha) * (0.0 - 2.0 * math.expm1(log_ratio)) / ((n - 1.0) * eps)


def _check_jump_args(n: int, alpha: float, p: float) -> None:
    if n < 2 or int(n) != n:
        raise ValueError(f"jump sums require an integer n >= 2, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"jump probability must be in [0, 1], got {p}")
    _refuse_below_critical(alpha)


def _refuse_below_critical(alpha: float) -> None:
    """Refuses the rates without closed forms, those below the critical
    window, naming the rate."""
    if alpha <= 0.0 or classify_regime(alpha).kind == "slow":
        raise UnsupportedRegimeError(f"{UNSUPPORTED_REGIME_MSG} at alpha = {alpha!r}")


def _closed_form_schedule(params: YouParams, schedule: JumpSchedule | None) -> JumpSchedule:
    """The gate of the closed forms: the schedule they read, an absent or
    inactive one being no jumps. Refuses an active per-event schedule first,
    then a rate below the critical one; each error's `reason` says why."""
    if schedule is None or schedule.is_inactive:
        schedule = JumpSchedule.none()
    elif schedule.kind == "per_event":
        raise PerEventScheduleError(
            "per-event jump schedules have no closed form; run them through "
            "the Monte Carlo harness instead"
        )
    _refuse_below_critical(params.alpha)
    return schedule


def var_ybar_youj(n: int, params: YouParams, schedule: JumpSchedule | None) -> float:
    """Mean conditional variance for any schedule with a closed form; an
    absent or inactive schedule gives the jump-free value.

    Jump-free value plus (1/n) scale jsm_single + (1 - 1/n) scale jsm_pair,
    where scale = (2 alpha / sigma_a2) sigma_c2.
    """
    schedule = _closed_form_schedule(params, schedule)
    base = var_ybar_you(n, params)
    if schedule.kind == "none":
        return base
    scale = (2.0 * params.alpha / params.sigma_a2) * schedule.sigma_c2
    single = jump_single_lineage_mean(n, params.alpha, schedule.p)
    pair = jump_pair_shared_mean(n, params.alpha, schedule.p)
    return base + scale * (single / n + (1.0 - 1.0 / n) * pair)


@dataclass(frozen=True)
class RatedConstant:
    """A leading coefficient with its rate: value * n^n_power * (ln n)^log_power."""

    value: float
    n_power: float
    log_power: int

    def at(self, n: int) -> float:
        return self.value * float(n) ** self.n_power * math.log(n) ** self.log_power


# The bands above alpha = 3/4, where the vv entry is the limit of n^3 vv.
_LIMIT_BANDS = ("three_quarters_to_one", "one", "above_one")
VV_TOO_SMALL_NOTE = "vv below Monte Carlo: upper bound may be too small"


@dataclass(frozen=True)
class AsymptoticConstants:
    """Leading coefficients of ev and vv, with their rates; vv_too_small
    records that the vv entry falls below the truth at finite n (jumps with
    p = 1, alpha <= 3/4)."""

    ev: RatedConstant
    vv: RatedConstant
    regime: Regime
    vv_too_small: bool

    @property
    def nonconvergent(self) -> bool:
        """True when the leading upper-bound term sqrt(vv)/ev does not vanish:
        vv decays no faster than ev^2."""
        return ((self.vv.n_power, self.vv.log_power)
                >= (2.0 * self.ev.n_power, 2 * self.ev.log_power))


def _vv_limit(alpha: float, p: float, scale: float) -> float:
    """The limit of n^3 vv above alpha = 3/4 under a constant schedule,
    c0 + L p C1 + L^2 (A p + B p^2) with the jump scale L (0 without jumps),
    in u = 1/alpha so that it stays finite. With D = (2 - u)^2 (4 - 3u)(4 - u),
    c0 = 16u (4 + u - u^2) / D, C1 = 4u (32 + 40u - 4u^2 - 7u^3) / D,
    A = u (2 + 3u)(4 + u)^2 (2 - u) / (2D), B = 2u (16 + 52u + 52u^2 - 17u^3 -
    6u^4) / D; C1, A and B were fitted to the exact O(n) sum, not derived.
    Each factor of D is (alpha - c) u, exact next to the rate c."""
    u = 1.0 / alpha
    g2, g3, g1 = (alpha - 0.5) * u, (alpha - 0.75) * u, (alpha - 0.25) * u
    d = 64.0 * g2 * g2 * g3 * g1
    c0 = 16.0 * u * (4.0 + u - u * u) / d
    c1 = 4.0 * u * (32.0 + u * (40.0 - u * (4.0 + 7.0 * u))) / d
    a = u * (2.0 + 3.0 * u) * (4.0 + u) ** 2 * g2 / d
    b = 2.0 * u * (16.0 + u * (52.0 + u * (52.0 - u * (17.0 + 6.0 * u)))) / d
    return c0 + scale * p * c1 + scale * scale * (a * p + b * p * p)


@functools.lru_cache(maxsize=1)
def asymptotic_constants(params: YouParams,
                         schedule: JumpSchedule | None = None) -> AsymptoticConstants:
    """The rate table: leading constants and rates of ev and vv.

    ev is the mean conditional variance: (2a+1)/(2a-1) n^-1 above the
    critical rate and 2 n^-1 ln n at it, times the jump lift
    1 + 2 p sigma_c2 / sigma_a2. ve, the variance of the conditional mean,
    has no entry: the bounds take it exactly from `var_cond_mean_exact`.

    vv, the variance of the conditional variance: above a = 3/4, for every
    constant schedule, the limit of n^3 vv (`_vv_limit`) times n^-3, which
    lies above the exact vv at every n checked. At and below 3/4 it is
    leading-order: without jumps a constant * n^-2 at a = 1/2, a
    zeta-weighted constant * n^(-4a) below 3/4 and 36 n^-3 ln n at 3/4. With
    jumps of partial probability 0 < p < 1 it is the upper bound 4 L^2, with
    the jump scale L = (2a / sigma_a2) sigma_c2, times 16 p(1-p) n^-2 ln n at
    a = 1/2 and 32 p(1-p) / ((4a)(4a-1)(4a-2)) n^-2 above it, which does not
    fall faster than ev^2 (`nonconvergent`). At p = 1 the jump-free entry
    understates the truth (`vv_too_small`).

    The table depends only on the rate and the schedule, so the last one
    built is kept: a bound curve builds it once. A vv constant that
    overflows is inf; `bound_point` refuses it, while ev stays usable.
    """
    schedule = _closed_form_schedule(params, schedule)
    regime = classify_regime(params.alpha)
    alpha = params.alpha
    jump_lift = 1.0 + 2.0 * schedule.p * schedule.sigma_c2 / params.sigma_a2
    if regime.band == "half":
        ev = RatedConstant(2.0 * jump_lift, -1.0, 1)
    else:
        ev = RatedConstant((2.0 * alpha + 1.0) / (2.0 * alpha - 1.0) * jump_lift, -1.0, 0)
    p, s = schedule.p, schedule.sigma_c2
    scale = (2.0 * alpha / params.sigma_a2) * s
    limit = regime.band in _LIMIT_BANDS
    if limit:
        vv = RatedConstant(_vv_limit(alpha, p, scale), -3.0, 0)
    elif p * (1.0 - p) * s > 0.0:
        lead = 4.0 * scale * scale
        if regime.band == "half":
            vv = RatedConstant(lead * 16.0 * p * (1.0 - p), -2.0, 1)
        else:
            a4 = 4.0 * alpha
            vv = RatedConstant(lead * 32.0 * p * (1.0 - p) / (a4 * (a4 - 1.0) * (a4 - 2.0)), -2.0, 0)
    elif regime.band == "half":
        c = 8.0 * special.zeta(2.0) + (math.gamma(3.0) - math.gamma(2.0)) ** 2
        vv = RatedConstant(c, -2.0, 0)
    elif regime.band == "three_quarters":
        vv = RatedConstant(36.0, -3.0, 1)
    else:
        c = 32.0 * alpha * alpha
        zeta_term = (c / (2.0 - 2.0 * alpha)) * special.zeta(4.0 - 4.0 * alpha)
        gamma_term = (math.gamma(4.0 * alpha + 1.0) - math.gamma(2.0 * alpha + 1.0)) ** 2
        vv = RatedConstant(zeta_term + gamma_term, -4.0 * alpha, 0)
    return AsymptoticConstants(ev=ev, vv=vv, regime=regime, vv_too_small=p == 1.0 and not limit)


def bound_point(params: YouParams, schedule: JumpSchedule | None,
                n: int) -> dict[str, BoundReport]:
    """Upper bounds at a single tip count, hybrid assembly: the Kolmogorov
    and Wasserstein reports, keyed by distance, from one set of ingredients.

    ev and ve enter exactly, vv from the rate table. The notes of both
    reports record the regime, which ingredients are exact, how vv was
    taken, a warning where it falls below the truth, and a plateau warning
    in the non-convergent jump regime. A jump scale without a finite square
    and a vv that is no finite normal double are refused by name.
    """
    if n < 2:
        raise ValueError(f"bounds need at least 2 tips, got n = {n}")
    check_jump_scale(params, schedule)
    table = asymptotic_constants(params, schedule)
    vv = table.vv.at(n)
    if not sys.float_info.min <= vv < math.inf:
        jumps = "" if schedule is None or schedule.is_inactive else \
            f", sigma_c2 = {schedule.sigma_c2!r}"
        raise ValueError(f"the rate table cannot hold vv at alpha = {params.alpha!r} "
                         f"(sigma_a2 = {params.sigma_a2!r}{jumps}): at n = {n} it is "
                         f"{vv!r} in double precision")
    ms = MomentSummary(ev=var_ybar_youj(n, params, schedule), vv=vv,
                       ve=var_cond_mean_exact(n, params))
    notes = (f"regime={table.regime.kind}/{table.regime.band}", "ev exact", "ve exact",
             "vv limit, above exact" if table.regime.band in _LIMIT_BANDS else "vv leading-order")
    if table.vv_too_small:
        notes += (VV_TOO_SMALL_NOTE,)
    if table.nonconvergent:
        notes += ("non-convergent regime",)
    reports = (stein.kolmogorov_upper(ms), stein.wasserstein_upper(ms))
    return {r.distance: dataclasses.replace(r, notes=r.notes + notes) for r in reports}


def bound_curve(params: YouParams, schedule: JumpSchedule | None,
                n_grid) -> list[dict[str, BoundReport]]:
    """`bound_point` along an ascending grid of tip counts."""
    grid = [int(n) for n in n_grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("n_grid must be strictly ascending")
    return [bound_point(params, schedule, n) for n in grid]


@dataclass(frozen=True)
class LimitDistribution:
    """Limit statement for the normalized tip average: the scaling sequence
    applied to it and the variance of the resulting normal limit."""

    scaling: str
    variance: float


def limit_distribution(params: YouParams,
                       schedule: JumpSchedule | None = None) -> LimitDistribution:
    """Scaling and limit variance in the regimes where a normal limit holds,
    read off the ev entry of the rate table.

    Critical rate: sqrt(n / ln n) scaling. Fast rates: sqrt(n) scaling,
    except with a partial jump probability 0 < p < 1 on (1/2, 3/4], where
    the leading-order vv puts the bound in the non-convergent regime and no
    normal limit statement is given.
    """
    table = asymptotic_constants(params, schedule)
    if table.nonconvergent:
        raise ValueError(
            "no normal limit statement is available for a partial jump "
            "probability between the critical rate and 3/4 (non-convergent regime)"
        )
    scaling = "sqrt(n/log n)" if table.ev.log_power == 1 else "sqrt(n)"
    return LimitDistribution(scaling, table.ev.value)
