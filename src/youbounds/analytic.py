"""Closed forms and leading-order asymptotics for OU traits on Yule trees.

The model: a linear mean-reverting diffusion with rate alpha and diffusion
variance sigma_a2 runs along a pure-birth tree, splitting into independent
copies at every speciation; an optional variant adds independent mean-zero
normal jumps on each daughter lineage right after a split. The quantity of
interest is the normalized tip average, whose conditional law given the tree
(and jump locations) is normal. This module supplies the exact mean and
mean-conditional-variance of that average, the exact variance of its
conditional mean, one rate table of the leading-order constants (the only
source for the variance of its conditional variance, the limit variance and
the plateau rule), and assembled distance-bound curves.

Everything below the critical rate alpha = 1/2 is rejected: no normal limit
is expected there, so emitting bounds would be misleading.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from . import special
from . import stein
from .stein import BoundReport, MomentSummary

MODEL_YOU = "YOU"
MODEL_YOUJ = "YOUj"

UNSUPPORTED_REGIME_MSG = "unsupported regime (no normal limit expected)"

# width of the exact-branch windows around the special rates
_CRITICAL_WINDOW = 1e-12          # around alpha = 1/2 (and y = 1 for pair times)
_THREE_QUARTERS_WINDOW = 0.75e-9  # relative 1e-9 window around alpha = 3/4
_ONE_WINDOW = 1e-12


class UnsupportedRegimeError(ValueError):
    """Raised for rate parameters outside the normal-limit regime."""


@dataclass(frozen=True)
class YouParams:
    """Trait-process parameters.

    alpha is the mean-reversion rate, sigma_a2 the diffusion variance, x0 the
    ancestral state. The derived dimensionless offset delta = x0 *
    sqrt(2 alpha / sigma_a2) is what all normalized formulas depend on.
    """

    alpha: float
    sigma_a2: float = 1.0
    x0: float = 0.0

    def __post_init__(self) -> None:
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        if not (self.sigma_a2 > 0.0 and math.isfinite(self.sigma_a2)):
            raise ValueError(f"sigma_a2 must be finite and > 0, got {self.sigma_a2}")
        if not math.isfinite(self.x0):
            raise ValueError(f"x0 must be finite, got {self.x0}")

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

    def event_params(self, n: int) -> tuple[tuple[float, float], ...]:
        """(p_k, sigma_c2_k) for speciation events k = 1..n-1."""
        if self.kind == "none":
            return ((0.0, 0.0),) * (n - 1)
        if self.kind == "constant":
            return ((self.p, self.sigma_c2),) * (n - 1)
        if len(self.pairs) < n - 1:
            raise ValueError(
                f"per-event schedule has {len(self.pairs)} entries but an "
                f"{n}-tip tree has {n - 1} speciation events"
            )
        return self.pairs[: n - 1]

    @property
    def is_inactive(self) -> bool:
        """True when the schedule cannot produce any variance contribution."""
        if self.kind == "none":
            return True
        if self.kind == "constant":
            return self.p * self.sigma_c2 == 0.0
        return all(p * s == 0.0 for p, s in self.pairs)


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


def _require_supported(alpha: float) -> Regime:
    regime = classify_regime(alpha)
    if regime.kind == "slow":
        raise UnsupportedRegimeError(UNSUPPORTED_REGIME_MSG)
    return regime


def laplace_height(n: int, x: float) -> float:
    """Laplace transform of the n-tip tree height at argument x."""
    return special.pochhammer_ratio(n, x)


def laplace_height_variance(n: int, x: float) -> float:
    """Variance of exp(-x * height) over trees."""
    b1 = special.pochhammer_ratio(n, x)
    return special.pochhammer_ratio(n, 2.0 * x) - b1 * b1


def laplace_pair_time(n: int, y: float) -> float:
    """Laplace transform of the coalescence time of a uniform tip pair.

    Exact for y >= 1 with two branches: a harmonic-number form at y = 1 and a
    rational form for y > 1. Arguments within 1e-12 of 1 take the y = 1
    branch; the rational form is continuous across the switch but loses
    precision to cancellation in a microscopic neighborhood of 1, which is
    why the window exists. Arguments below 1 are outside the supported
    regime.
    """
    if n < 2 or int(n) != n:
        raise ValueError(f"laplace_pair_time requires an integer n >= 2, got {n}")
    if y < 1.0 - _CRITICAL_WINDOW:
        raise UnsupportedRegimeError(UNSUPPORTED_REGIME_MSG)
    n = int(n)
    if abs(y - 1.0) <= _CRITICAL_WINDOW:
        return 2.0 / (n - 1.0) * (special.harmonic(n) - 1.0) - 1.0 / (n + 1.0)
    b = special.pochhammer_ratio(n, y)
    return (2.0 - (n + 1.0) * (y + 1.0) * b) / ((n - 1.0) * (y - 1.0))


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
    regime = _require_supported(params.alpha)
    # inside the critical window, route the pair transform through its exact
    # y = 1 branch rather than the cancellation-prone rational form
    two_alpha = 1.0 if regime.kind == "critical" else 2.0 * params.alpha
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
    d(d-1)/(n(n-1)). Exact, with a harmonic-number branch at the critical
    rate and a rational branch above it.
    """
    _check_jump_args(n, alpha, p)
    if abs(alpha - 0.5) <= _CRITICAL_WINDOW:
        return (4.0 * p / (n - 1.0)) * (special.harmonic(n) - (5.0 * n - 1.0) / (2.0 * (n + 1.0)))
    two_alpha = 2.0 * alpha
    b = special.pochhammer_ratio(n, two_alpha)
    numerator = 2.0 - (two_alpha + 1.0) * (two_alpha * n - two_alpha + 2.0) * b
    return (2.0 * p / two_alpha) * numerator / ((n - 1.0) * (two_alpha - 1.0))


def _check_jump_args(n: int, alpha: float, p: float) -> None:
    if n < 2:
        raise ValueError(f"jump sums require n >= 2, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"jump probability must be in [0, 1], got {p}")
    if alpha < 0.5 - _CRITICAL_WINDOW:
        raise UnsupportedRegimeError(UNSUPPORTED_REGIME_MSG)


def _require_closed_form_schedule(schedule: JumpSchedule) -> None:
    if schedule.kind == "per_event":
        raise ValueError(
            "per-event jump schedules have no closed form; run them through "
            "the Monte Carlo harness instead"
        )


def var_ybar_youj(n: int, params: YouParams, schedule: JumpSchedule) -> float:
    """Mean conditional variance for the jump model, constant schedules only.

    Jump-free value plus (1/n) scale jsm_single + (1 - 1/n) scale jsm_pair,
    where scale = (2 alpha / sigma_a2) sigma_c2.
    """
    _require_closed_form_schedule(schedule)
    base = var_ybar_you(n, params)
    if schedule.is_inactive:
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


# Where the leading-order vv is known to be too small at finite n (Monte
# Carlo vv over the table's one, n = 200 to 5000): 1.15-1.30 for the
# jump-free model above alpha = 3/4, about 30 for jumps with p = 1 (alpha = 1).
_VV_BELOW_MONTE_CARLO_BANDS = ("three_quarters_to_one", "one", "above_one")
VV_TOO_SMALL_NOTE = "vv below Monte Carlo: upper bound may be too small"


@dataclass(frozen=True)
class AsymptoticConstants:
    """Leading coefficients of the three bound ingredients, with rates.

    vv_too_small records that Monte Carlo shows the vv entry to fall below
    the true variance of the conditional variance at finite n.
    """

    ev: RatedConstant
    ve: RatedConstant
    vv: RatedConstant
    regime: Regime
    vv_too_small: bool

    @property
    def nonconvergent(self) -> bool:
        """True when the leading upper-bound term sqrt(vv)/ev does not vanish:
        vv decays no faster than ev^2."""
        return ((self.vv.n_power, self.vv.log_power)
                >= (2.0 * self.ev.n_power, 2 * self.ev.log_power))


def asymptotic_constants(model: str, params: YouParams,
                         schedule: JumpSchedule | None = None) -> AsymptoticConstants:
    """The rate table: leading constants and rates of ev, ve and vv.

    ev is the mean conditional variance: (2a+1)/(2a-1) n^-1 above the
    critical rate and 2 n^-1 ln n at it, times the jump lift
    1 + 2 p sigma_c2 / sigma_a2. ve is the variance of the conditional mean,
    delta^2 (Gamma(2a+1) - Gamma(a+1)^2) n^(-2a).

    vv, the variance of the conditional variance, for the jump-free model
    has six rate bands: a constant * n^-2 at a = 1/2, a zeta-weighted
    constant * n^(-4a) for 1/2 < a < 3/4, 36 n^-3 ln n exactly at 3/4, and a
    single rational constant * n^-3 everywhere above 3/4 (16 at a = 1).
    With jumps of partial probability 0 < p < 1 it is the upper bound
    4 (2a / sigma_a2)^2 sigma_c2^2 times 16 p(1-p) n^-2 ln n at the critical
    rate and 32 p(1-p) / ((4a)(4a-1)(4a-2)) n^-2 above it. At p = 1 the
    jump-free entry is used: order-correct, but its constant understates
    the truth, which carries an extra same-order contribution from the
    jump-count fluctuations.
    """
    schedule = _normalize_schedule(model, schedule)
    _require_closed_form_schedule(schedule)
    regime = _require_supported(params.alpha)
    alpha = params.alpha
    jump_lift = 1.0 + 2.0 * schedule.p * schedule.sigma_c2 / params.sigma_a2
    if regime.band == "half":
        ev = RatedConstant(2.0 * jump_lift, -1.0, 1)
    else:
        ev = RatedConstant((2.0 * alpha + 1.0) / (2.0 * alpha - 1.0) * jump_lift, -1.0, 0)
    ve_gamma = math.gamma(2.0 * alpha + 1.0) - math.gamma(alpha + 1.0) ** 2
    ve = RatedConstant(params.delta ** 2 * ve_gamma, -2.0 * alpha, 0)
    p, s = schedule.p, schedule.sigma_c2
    if p * (1.0 - p) * s > 0.0:
        vv_too_small = False
        lead = 4.0 * (2.0 * alpha / params.sigma_a2) ** 2 * s * s
        if regime.band == "half":
            vv = RatedConstant(lead * 16.0 * p * (1.0 - p), -2.0, 1)
        else:
            a4 = 4.0 * alpha
            vv = RatedConstant(lead * 32.0 * p * (1.0 - p) / (a4 * (a4 - 1.0) * (a4 - 2.0)), -2.0, 0)
    else:
        vv_too_small = p == 1.0 or regime.band in _VV_BELOW_MONTE_CARLO_BANDS
        if regime.band == "half":
            c = 8.0 * special.zeta(2.0) + (math.gamma(3.0) - math.gamma(2.0)) ** 2
            vv = RatedConstant(c, -2.0, 0)
        elif regime.band == "three_quarters":
            vv = RatedConstant(36.0, -3.0, 1)
        else:
            c = 32.0 * alpha * alpha
            if regime.band == "half_to_three_quarters":
                zeta_term = (c / (2.0 - 2.0 * alpha)) * special.zeta(4.0 - 4.0 * alpha)
                gamma_term = (math.gamma(4.0 * alpha + 1.0) - math.gamma(2.0 * alpha + 1.0)) ** 2
                vv = RatedConstant(zeta_term + gamma_term, -4.0 * alpha, 0)
            else:
                rational = (2.0 * alpha - 1.0) * (4.0 * alpha - 3.0) * (4.0 * alpha - 2.0)
                vv = RatedConstant(c / rational, -3.0, 0)
    return AsymptoticConstants(ev=ev, ve=ve, vv=vv, regime=regime, vv_too_small=vv_too_small)


def _normalize_schedule(model: str, schedule: JumpSchedule | None) -> JumpSchedule:
    """Validate the model and its schedule; an inactive schedule becomes none."""
    if model not in (MODEL_YOU, MODEL_YOUJ):
        raise ValueError(f"unknown model: {model!r}")
    if schedule is None or schedule.is_inactive:
        return JumpSchedule.none()
    if model == MODEL_YOU:
        raise ValueError("the jump-free model takes no jump schedule")
    return schedule


def is_nonconvergent(model: str, params: YouParams, schedule: JumpSchedule | None) -> bool:
    """True when the upper-bound curve provably plateaus instead of vanishing,
    read off the rate table (jumps with partial probability and positive
    variance above the critical rate). False where there is no table: per-event
    schedules and rates below the critical one."""
    schedule = _normalize_schedule(model, schedule)
    if schedule.kind == "per_event" or classify_regime(params.alpha).kind == "slow":
        return False
    return asymptotic_constants(model, params, schedule).nonconvergent


def bound_point(model: str, params: YouParams, schedule: JumpSchedule | None,
                distance: str, n: int) -> BoundReport:
    """Upper bound at a single tip count, hybrid assembly.

    ev and ve enter exactly; vv enters at leading order from the rate table
    (no exact closed form exists for it). The report notes record the
    regime, which ingredients are exact, a warning where that vv is known to
    fall below its Monte Carlo value, and a plateau warning in the
    non-convergent jump regime.
    """
    table = asymptotic_constants(model, params, schedule)
    schedule = _normalize_schedule(model, schedule)
    if schedule.is_inactive:
        ev = var_ybar_you(n, params)
    else:
        ev = var_ybar_youj(n, params, schedule)
    ms = MomentSummary(mean=mean_ybar(n, params), ev=ev, vv=table.vv.at(n),
                       ve=var_cond_mean_exact(n, params))
    if distance == stein.KOLMOGOROV:
        report = stein.kolmogorov_upper(ms)
    elif distance == stein.WASSERSTEIN:
        report = stein.wasserstein_upper(ms)
    else:
        raise ValueError(f"unknown distance kind: {distance!r}")
    notes = (
        f"regime={table.regime.kind}/{table.regime.band}",
        "ev exact",
        "ve exact",
        "vv leading-order",
    )
    if table.vv_too_small:
        notes = notes + (VV_TOO_SMALL_NOTE,)
    if table.nonconvergent:
        notes = notes + ("non-convergent regime",)
    return dataclasses.replace(report, notes=report.notes + notes)


def bound_curve(model: str, params: YouParams, schedule: JumpSchedule | None,
                distance: str, n_grid) -> list[BoundReport]:
    """Upper-bound reports along an ascending grid of tip counts."""
    grid = [int(n) for n in n_grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("n_grid must be strictly ascending")
    if grid and grid[0] < 2:
        raise ValueError("tip counts must be >= 2")
    return [bound_point(model, params, schedule, distance, n) for n in grid]


@dataclass(frozen=True)
class LimitDistribution:
    """Limit statement for the normalized tip average: the scaling sequence
    applied to it and the variance of the resulting normal limit."""

    scaling: str
    variance: float


def limit_distribution(model: str, params: YouParams,
                       schedule: JumpSchedule | None = None) -> LimitDistribution:
    """Scaling and limit variance in the regimes where a normal limit holds,
    read off the ev entry of the rate table.

    Critical rate: sqrt(n / ln n) scaling. Fast rates: sqrt(n) scaling; with
    jumps this requires an all-or-nothing jump probability (partial
    probability puts the bound in the non-convergent regime, where no normal
    limit statement is available).
    """
    table = asymptotic_constants(model, params, schedule)
    if table.nonconvergent:
        raise ValueError(
            "no normal limit statement is available for a partial jump "
            "probability above the critical rate (non-convergent regime)"
        )
    scaling = "sqrt(n/log n)" if table.ev.log_power == 1 else "sqrt(n)"
    return LimitDistribution(scaling, table.ev.value)
