"""Distance bounds for mixtures of normals against a matched normal.

A random variable whose conditional law given some sigma-algebra is normal
(with random mean and variance) is a mixture of normals. Four scalars drive
every bound here:

    mean  expectation of the variable
    ev    mean of the conditional variance
    vv    variance of the conditional variance
    ve    variance of the conditional mean

The upper bounds compare the standardized mixture with N(0,1) in Kolmogorov
or Wasserstein distance. The lower-bound machinery runs through a variance
penalty function and two explicit absolute constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

KOLMOGOROV = "kolmogorov"
WASSERSTEIN = "wasserstein"

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _check_distance(distance: str) -> str:
    if distance not in (KOLMOGOROV, WASSERSTEIN):
        raise ValueError(f"unknown distance kind: {distance!r}")
    return distance


@dataclass(frozen=True)
class MomentSummary:
    """The four conditional-moment scalars of a normal mixture."""

    mean: float
    ev: float
    vv: float
    ve: float

    def __post_init__(self) -> None:
        if not (self.ev > 0.0 and math.isfinite(self.ev)):
            raise ValueError(f"ev must be finite and > 0, got {self.ev}")
        if self.vv < 0.0 or not math.isfinite(self.vv):
            raise ValueError(f"vv must be finite and >= 0, got {self.vv}")
        if self.ve < 0.0 or not math.isfinite(self.ve):
            raise ValueError(f"ve must be finite and >= 0, got {self.ve}")


@dataclass(frozen=True)
class BoundReport:
    """One distance bound, broken into labeled terms.

    For kind "upper" the total is the plain sum of the terms. For kind
    "lower" the terms record the ingredients (numerator pieces and the
    constant) and the total is the assembled quotient.
    """

    distance: str
    kind: str
    terms: tuple[tuple[str, float], ...]
    total: float
    notes: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        _check_distance(self.distance)
        if self.kind not in ("upper", "lower"):
            raise ValueError(f"kind must be 'upper' or 'lower', got {self.kind!r}")
        for label, value in self.terms:
            if value < 0.0 or not math.isfinite(value):
                raise ValueError(f"term {label!r} must be finite and >= 0, got {value}")
        if self.total < 0.0:
            raise ValueError(f"total must be >= 0, got {self.total}")

    def term_values(self) -> tuple[float, ...]:
        return tuple(value for _, value in self.terms)


@dataclass(frozen=True)
class LowerBoundInputs:
    """Ingredients of the lower bound.

    t1 is the centered-mean contribution (asymptotically the variance of the
    conditional mean), t2 the variance-penalty contribution (asymptotically
    the mean of the penalty applied to the conditional variance), sigma2 the
    mean conditional variance itself.
    """

    t1: float
    t2: float
    sigma2: float

    def __post_init__(self) -> None:
        if self.sigma2 <= 0.0:
            raise ValueError(f"sigma2 must be > 0, got {self.sigma2}")
        if self.t1 < 0.0 or self.t2 < 0.0:
            raise ValueError("t1 and t2 must be >= 0")


def kolmogorov_upper(ms: MomentSummary) -> BoundReport:
    """Kolmogorov upper bound: sqrt(vv)/ev + ve/ev + sqrt(2/pi) sqrt(ve) vv^(1/4) / ev."""
    t1 = math.sqrt(ms.vv) / ms.ev
    t2 = ms.ve / ms.ev
    t3 = _SQRT_2_OVER_PI * math.sqrt(ms.ve) * ms.vv ** 0.25 / ms.ev
    terms = (
        ("sqrt(vv)/ev", t1),
        ("ve/ev", t2),
        ("sqrt(2/pi) sqrt(ve) vv^1/4 / ev", t3),
    )
    return BoundReport(KOLMOGOROV, "upper", terms, t1 + t2 + t3)


def wasserstein_upper(ms: MomentSummary) -> BoundReport:
    """Wasserstein upper bound, four terms.

    sqrt(2/pi) vv^(3/4)/ev^(3/2) + sqrt(ve) sqrt(vv)/ev^(3/2) + ve/ev
    + sqrt(2/pi) sqrt(ve) vv^(1/4)/ev.
    """
    ev32 = ms.ev ** 1.5
    t1 = _SQRT_2_OVER_PI * ms.vv ** 0.75 / ev32
    t2 = math.sqrt(ms.ve) * math.sqrt(ms.vv) / ev32
    t3 = ms.ve / ms.ev
    t4 = _SQRT_2_OVER_PI * math.sqrt(ms.ve) * ms.vv ** 0.25 / ms.ev
    terms = (
        ("sqrt(2/pi) vv^3/4 / ev^3/2", t1),
        ("sqrt(ve) sqrt(vv) / ev^3/2", t2),
        ("ve/ev", t3),
        ("sqrt(2/pi) sqrt(ve) vv^1/4 / ev", t4),
    )
    return BoundReport(WASSERSTEIN, "upper", terms, t1 + t2 + t3 + t4)


def variance_penalty(x, sigma2):
    """Penalty kappa(x) = (sigma2 - x) ((sigma2/(sigma2+x))^(3/2) - 2^(-3/2)).

    Vanishes exactly at x = sigma2 and is nonnegative everywhere on x >= 0,
    squeezed between two quadratics in (sigma2 - x) near the center (tested on
    a grid). Accepts a float or a numpy array for x; sigma2 must be a positive
    scalar. Its expectation at a random conditional variance is the second
    ingredient of the lower bound.
    """
    if sigma2 <= 0.0:
        raise ValueError(f"sigma2 must be > 0, got {sigma2}")
    return (sigma2 - x) * ((sigma2 / (sigma2 + x)) ** 1.5 - 2.0 ** -1.5)


def lower_bound_constant(distance: str) -> float:
    """Absolute constant of the lower bound for the given distance kind.

    Kolmogorov: the integral of |2x^3 - 5x| exp(-x^2/2) over the real line,
    evaluated through the closed-form antiderivative (1 - 2x^2) exp(-x^2/2)
    of (2x^3 - 5x) exp(-x^2/2), whose integrand changes sign at sqrt(5/2).
    Wasserstein: the maximum of |2x^3 - 5x| exp(-x^2/2), located by solving
    the quartic critical-point equation 2x^4 - 11x^2 + 5 = 0.
    """
    _check_distance(distance)
    if distance == KOLMOGOROV:
        def antiderivative(t: float) -> float:
            return (1.0 - 2.0 * t * t) * math.exp(-0.5 * t * t)

        sign_change = math.sqrt(2.5)
        half_line = antiderivative(0.0) - 2.0 * antiderivative(sign_change)
        return 2.0 * half_line

    def objective(t: float) -> float:
        return abs(2.0 * t ** 3 - 5.0 * t) * math.exp(-0.5 * t * t)

    # critical points of the signed objective: 2 u^2 - 11 u + 5 = 0, u = x^2
    disc = math.sqrt(11.0 ** 2 - 4.0 * 2.0 * 5.0)
    roots = [math.sqrt((11.0 - disc) / 4.0), math.sqrt((11.0 + disc) / 4.0)]
    return max(objective(r) for r in roots)


def stein_lower_bound(inputs: LowerBoundInputs, distance: str) -> BoundReport:
    """Asymptotic lower bound |t1 - t2| / (C sigma2).

    The terms record both ingredients and the constant; the bound is
    asymptotic because t1 and t2 are proxies that match the exact
    quantities only in the large-sample limit.
    """
    constant = lower_bound_constant(distance)
    total = abs(inputs.t1 - inputs.t2) / (constant * inputs.sigma2)
    terms = (
        ("t1 (cond-mean spread proxy)", inputs.t1),
        ("t2 (variance-penalty proxy)", inputs.t2),
        ("constant", constant),
    )
    return BoundReport(distance, "lower", terms, total, notes=("asymptotic lower bound",))
