"""Explicit normal-approximation bounds for trait averages on Yule trees.

The package computes Stein-type upper and lower bounds on the Kolmogorov and
Wasserstein distances between the average of an Ornstein-Uhlenbeck trait over
the tips of a random Yule tree (with or without speciation jumps) and its
matching normal, and cross-checks them against exact per-tree Monte Carlo.

Each public name loads from its defining module on first use (PEP 562), so
importing the package, or using only the closed forms, does not load the
Monte Carlo layer (`harness`, `trees`, `multiprocessing`).
"""

import importlib

# every public name, once, by the module that defines it; __all__ is read from here
_PUBLIC = {
    "analytic": (
        "MODEL_YOU", "MODEL_YOUJ", "AsymptoticConstants", "JumpSchedule",
        "LimitDistribution", "Regime", "UnsupportedRegimeError", "YouParams",
        "asymptotic_constants", "bound_curve", "bound_point", "classify_regime",
        "laplace_height", "laplace_height_variance", "laplace_pair_time",
        "limit_distribution", "mean_ybar", "var_cond_mean_exact", "var_ybar_you",
        "var_ybar_youj",
    ),
    "harness": (
        "ExperimentConfig", "ExperimentResult", "MomentEstimates", "OracleCheck",
        "SandwichReport", "dkw_band", "empirical_dk", "empirical_dw",
        "estimate_moment_summary", "oracle_checks", "run_experiment",
        "run_replicates", "run_sandwich",
    ),
    "stein": (
        "KOLMOGOROV", "WASSERSTEIN", "BoundReport", "LowerBoundInputs", "MomentSummary",
        "kolmogorov_upper", "lower_bound_constant", "stein_lower_bound",
        "variance_penalty", "wasserstein_upper",
    ),
    "trees": (
        "TreeBlock", "conditional_moments_you", "conditional_moments_youj", "dump_tree",
        "jump_exposure_sums", "pair_mean_exp", "sample_jumps", "sample_tree",
    ),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}
# the submodules a bare `import youbounds` exposes as attributes
_SUBMODULES = frozenset({*_PUBLIC, "special"})

__version__ = "0.1.0"

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
