"""Command-line surface: bound evaluation, bound curves as CSV, Monte Carlo
experiments with JSON/CSV emission, and the verification suite.

All output is data. The only plotting aid is an optional gnuplot command file
emitted next to the curves CSV.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import analytic, harness, stein, trees, verify
from .analytic import (
    MODEL_YOU,
    MODEL_YOUJ,
    JumpSchedule,
    YouParams,
)
from .harness import ExperimentConfig

# every simulate flag has a config-file equivalent under the same name
_CONFIG_CONVERTERS = {
    "model": str,
    "n": int,
    "alpha": float,
    "sigma_a2": float,
    "x0": float,
    "p": float,
    "sigma_c2": float,
    "schedule_file": str,
    "replicates": int,
    "seed": int,
    "workers": int,
    "json": str,
    "csv": str,
    "dump_tree": str,
}


def _fmt(value: float) -> str:
    """IEEE round-trippable decimal rendering (17 significant digits)."""
    return f"{float(value):.17g}"


# ---------------------------------------------------------------------------
# config plumbing

def parse_config_file(path: str) -> dict[str, str]:
    """Line-oriented `key = value` settings with `#` comments."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(
                    f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, _, text = line.partition("=")
            key, text = key.strip(), text.strip()
            if key not in _CONFIG_CONVERTERS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            if not text:
                raise ValueError(f"{path}:{lineno}: empty value for key {key!r}")
            values[key] = text
    return values


def _resolve_settings(args: argparse.Namespace) -> dict:
    """Config-file values with command-line flags overriding on conflict."""
    settings: dict = {}
    if args.config:
        for key, text in parse_config_file(args.config).items():
            try:
                settings[key] = _CONFIG_CONVERTERS[key](text)
            except ValueError:
                raise ValueError(f"config key {key!r}: cannot parse value {text!r}")
    for key in _CONFIG_CONVERTERS:
        flag_value = getattr(args, key)
        if flag_value is not None:
            settings[key] = flag_value
    return settings


def parse_schedule_file(path: str, n: int) -> JumpSchedule:
    """Per-event jump settings, one `p sigma_c2` pair per line, n-1 lines."""
    pairs: list[tuple[float, float]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected 'p sigma_c2', got {raw.strip()!r}")
            pairs.append((float(parts[0]), float(parts[1])))
    if len(pairs) != n - 1:
        raise ValueError(
            f"{path}: has {len(pairs)} schedule rows, expected n-1 = {n - 1}")
    return JumpSchedule.per_event(tuple(pairs))


def _build_schedule(model: str, settings: dict, n: int) -> JumpSchedule:
    jump_keys = [k for k in ("p", "sigma_c2", "schedule_file") if k in settings]
    if model == MODEL_YOU:
        if jump_keys:
            raise ValueError(
                f"jump settings {jump_keys} require model YOUj, not YOU")
        return JumpSchedule.none()
    if "schedule_file" in settings:
        if "p" in settings or "sigma_c2" in settings:
            raise ValueError("schedule_file replaces the p / sigma_c2 settings")
        return parse_schedule_file(settings["schedule_file"], n)
    if "p" not in settings or "sigma_c2" not in settings:
        raise ValueError("model YOUj requires p and sigma_c2 (or schedule_file)")
    return JumpSchedule.constant(settings["p"], settings["sigma_c2"])


# ---------------------------------------------------------------------------
# bounds

def _regime_cell(model: str, params: YouParams, schedule: JumpSchedule | None) -> str:
    regime = analytic.classify_regime(params.alpha)
    cell = f"{regime.kind}/{regime.band}"
    if analytic.is_nonconvergent(model, params, schedule):
        cell += ";non-convergent"
    return cell


def _print_report(report: stein.BoundReport) -> None:
    print(f"{report.distance} upper bound")
    width = max(len(label) for label, _ in report.terms) + 2
    for label, value in report.terms:
        print(f"  {label:<{width}}{_fmt(value)}")
    print(f"  {'total':<{width}}{_fmt(report.total)}")
    print(f"  notes: {'; '.join(report.notes)}")


def cmd_bounds(args: argparse.Namespace) -> int:
    params = YouParams(alpha=args.alpha, sigma_a2=args.sigma_a2, x0=args.x0)
    settings = {k: getattr(args, k) for k in ("p", "sigma_c2") if getattr(args, k) is not None}
    schedule = _build_schedule(args.model, settings, args.n)
    distances = ([stein.KOLMOGOROV, stein.WASSERSTEIN]
                 if args.distance == "both" else [args.distance])
    reports = [analytic.bound_point(args.model, params, schedule, distance, args.n)
               for distance in distances]
    print(f"model {args.model}  n {args.n}  alpha {_fmt(args.alpha)}  "
          f"sigma_a2 {_fmt(args.sigma_a2)}  x0 {_fmt(args.x0)}  "
          f"regime {_regime_cell(args.model, params, schedule)}")
    for report in reports:
        _print_report(report)
    return 0


# ---------------------------------------------------------------------------
# curves

CURVES_HEADER = "model,alpha,n,distance,term1,term2,term3,term4,total,regime"


def _curve_rows(model: str, alphas: list[float], distances: list[str],
                grid: list[int], sigma_a2: float, x0: float | None,
                p: float, sigma_c2: float) -> list[str]:
    rows = []
    for alpha in alphas:
        params = YouParams(alpha=alpha, sigma_a2=sigma_a2,
                           x0=(2.0 * alpha) ** -0.5 if x0 is None else x0)
        schedule = (JumpSchedule.constant(p, sigma_c2)
                    if model == MODEL_YOUJ else JumpSchedule.none())
        cell = _regime_cell(model, params, schedule)
        for distance in distances:
            for n, report in zip(grid, analytic.bound_curve(model, params, schedule,
                                                            distance, grid)):
                terms = list(report.term_values()) + [math.nan] * (4 - len(report.terms))
                rows.append(",".join(
                    [model, _fmt(alpha), str(n), distance]
                    + [_fmt(t) for t in terms]
                    + [_fmt(report.total), cell]))
    return rows


def _gnuplot_text(csv_rows: list[str]) -> str:
    """Self-contained gnuplot command file with inline data blocks."""
    curves: dict[tuple[str, str, str], list[tuple[str, str]]] = {}
    for row in csv_rows:
        parts = row.split(",")
        key = (parts[0], parts[1], parts[3])
        curves.setdefault(key, []).append((parts[2], parts[8]))
    lines = [
        "# generated by: youbounds curves --gnuplot",
        "set logscale xy",
        "set xlabel 'number of tips n'",
        "set ylabel 'upper bound'",
        "set key top right",
    ]
    plot_parts = []
    for i, (key, points) in enumerate(curves.items()):
        model, alpha, distance = key
        lines.append(f"$curve_{i} << EOD")
        lines.extend(f"{n} {total}" for n, total in points)
        lines.append("EOD")
        plot_parts.append(
            f"$curve_{i} using 1:2 with lines title '{model} alpha={alpha} {distance}'")
    lines.append("plot \\")
    lines.append(", \\\n".join("    " + part for part in plot_parts))
    return "\n".join(lines) + "\n"


def cmd_curves(args: argparse.Namespace) -> int:
    alphas = [float(a) for a in args.alphas.split(",") if a.strip()]
    if not alphas:
        raise ValueError("--alphas must name at least one rate")
    distances = ([stein.KOLMOGOROV, stein.WASSERSTEIN]
                 if args.distance == "both" else [args.distance])
    if args.n_min < 2 or args.n_max <= args.n_min or args.points < 2:
        raise ValueError("need 2 <= n-min < n-max and points >= 2")
    grid = sorted({int(round(v)) for v in np.geomspace(args.n_min, args.n_max, args.points)})
    rows = _curve_rows(args.model, alphas, distances, grid, args.sigma_a2,
                       args.x0, args.p, args.sigma_c2)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(CURVES_HEADER + "\n")
        fh.write("\n".join(rows) + "\n")
    print(f"wrote {len(rows)} rows to {args.out}")
    if args.gnuplot:
        with open(args.gnuplot, "w", encoding="utf-8") as fh:
            fh.write(_gnuplot_text(rows))
        print(f"wrote gnuplot commands to {args.gnuplot}")
    return 0


# ---------------------------------------------------------------------------
# simulate

def _estimate_doc(est: harness.EstimateWithSE) -> dict:
    return {"value": est.value, "se": est.se, "r_used": est.r_used}


def _bound_doc(report: stein.BoundReport) -> dict:
    return {
        "total": report.total,
        "terms": [[label, value] for label, value in report.terms],
        "notes": list(report.notes),
    }


def render_result_json(result: harness.ExperimentResult, note: str | None = None) -> str:
    """Deterministic JSON for an experiment; never includes the worker count."""
    config = result.config
    doc: dict = {
        "model": config.model,
        "n": config.n,
        "alpha": config.params.alpha,
        "sigma_a2": config.params.sigma_a2,
        "x0": config.params.x0,
    }
    if config.schedule.kind == "constant":
        doc["jump_p"] = config.schedule.p
        doc["jump_sigma_c2"] = config.schedule.sigma_c2
    elif config.schedule.kind == "per_event":
        doc["jump_schedule"] = f"per-event ({len(config.schedule.pairs)} entries)"
    doc["replicates"] = config.replicates
    doc["seed"] = config.seed
    est = result.estimates
    doc["estimates"] = {
        "mean": _estimate_doc(est.mean),
        "ev": _estimate_doc(est.ev),
        "vv": _estimate_doc(est.vv),
        "ve": _estimate_doc(est.ve),
    }
    if note:
        doc["note"] = note
    sandwich = result.sandwich
    if sandwich is not None:
        doc["empirical"] = {
            "dk": sandwich.empirical_dk,
            "dw": sandwich.empirical_dw,
            "dkw_band": sandwich.dkw_band,
            "dw_bootstrap_se": sandwich.dw_bootstrap_se,
            "kappa_mean": sandwich.kappa_mean,
        }
        doc["bounds"] = {
            "upper_dk": _bound_doc(sandwich.upper_dk),
            "upper_dw": _bound_doc(sandwich.upper_dw),
            "lower_dk": _bound_doc(sandwich.lower_dk),
            "lower_dw": _bound_doc(sandwich.lower_dw),
        }
        doc["verdicts"] = {"dk": sandwich.verdict_dk, "dw": sandwich.verdict_dw}
    return json.dumps(doc, indent=2) + "\n"


ESTIMATES_HEADER = "quantity,value,se,r_used"


def render_estimates_csv(result: harness.ExperimentResult) -> str:
    r = result.config.replicates
    est = result.estimates
    rows = [ESTIMATES_HEADER]
    for name, e in (("mean", est.mean), ("ev", est.ev), ("vv", est.vv), ("ve", est.ve)):
        rows.append(f"{name},{_fmt(e.value)},{_fmt(e.se)},{e.r_used}")
    sandwich = result.sandwich
    if sandwich is not None:
        rows.append(f"kappa_mean,{_fmt(sandwich.kappa_mean)},nan,{r}")
        rows.append(f"empirical_dk,{_fmt(sandwich.empirical_dk)},nan,{r}")
        rows.append(f"empirical_dw,{_fmt(sandwich.empirical_dw)},"
                    f"{_fmt(sandwich.dw_bootstrap_se)},{r}")
    return "\n".join(rows) + "\n"


def cmd_simulate(args: argparse.Namespace) -> int:
    settings = _resolve_settings(args)
    for key in ("n", "alpha", "replicates", "seed"):
        if key not in settings:
            raise ValueError(
                f"missing required setting {key!r} (flag --{key.replace('_', '-')} "
                f"or config key {key})")
    model = settings.get("model", MODEL_YOU)
    n = settings["n"]
    params = YouParams(alpha=settings["alpha"],
                       sigma_a2=settings.get("sigma_a2", 1.0),
                       x0=settings.get("x0", 0.0))
    schedule = _build_schedule(model, settings, n)
    config = ExperimentConfig(model=model, n=n, params=params, schedule=schedule,
                              replicates=settings["replicates"], seed=settings["seed"],
                              workers=harness.resolve_workers(settings.get("workers"), 1))

    if "dump_tree" in settings:
        rng = harness.replicate_rng(config.seed, 0)
        tree = trees.sample_tree(n, rng)
        jumps = trees.sample_jumps(tree, schedule, rng) if model == MODEL_YOUJ else None
        with open(settings["dump_tree"], "w", encoding="utf-8") as fh:
            fh.write(trees.dump_tree(tree, jumps))

    note = None
    if schedule.kind == "per_event":
        include_sandwich = False
        note = "sandwich omitted: per-event schedules have no closed-form bounds"
    elif analytic.classify_regime(params.alpha).kind == "slow":
        include_sandwich = False
        note = "sandwich omitted: no normal limit expected below the critical rate"
    else:
        include_sandwich = True

    result = harness.run_experiment(config, include_sandwich=include_sandwich)
    text = render_result_json(result, note)
    if "json" in settings:
        with open(settings["json"], "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if "csv" in settings:
        with open(settings["csv"], "w", encoding="utf-8") as fh:
            fh.write(render_estimates_csv(result))
    return 0


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args: argparse.Namespace) -> int:
    workers = harness.resolve_workers(args.workers, verify.DEFAULT_WORKERS)
    suite = verify.quick_suite if args.level == "quick" else verify.full_suite
    results = suite(workers)
    for result in results:
        print(result.render())
    failed = [r.label for r in results if not r.passed]
    print(f"verify {args.level}: {len(results)} criteria, {len(failed)} failed"
          + (f" ({', '.join(failed)})" if failed else ""))
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="youbounds",
        description="Normal-approximation bounds for trait averages on Yule trees")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="evaluate the upper bound at one point")
    p_bounds.add_argument("--model", choices=[MODEL_YOU, MODEL_YOUJ], default=MODEL_YOU)
    p_bounds.add_argument("--n", type=int, required=True)
    p_bounds.add_argument("--alpha", type=float, required=True)
    p_bounds.add_argument("--sigma-a2", type=float, default=1.0)
    p_bounds.add_argument("--x0", type=float, default=0.0)
    p_bounds.add_argument("--p", type=float, default=None)
    p_bounds.add_argument("--sigma-c2", type=float, default=None)
    p_bounds.add_argument("--distance",
                          choices=[stein.KOLMOGOROV, stein.WASSERSTEIN, "both"],
                          default="both")
    p_bounds.set_defaults(func=cmd_bounds)

    p_curves = sub.add_parser("curves", help="emit bound curves over n as CSV")
    p_curves.add_argument("--model", choices=[MODEL_YOU, MODEL_YOUJ], default=MODEL_YOU)
    p_curves.add_argument("--alphas", default="0.5,0.75,1,2",
                          help="comma-separated adaptation rates")
    p_curves.add_argument("--distance",
                          choices=[stein.KOLMOGOROV, stein.WASSERSTEIN, "both"],
                          default=stein.KOLMOGOROV)
    p_curves.add_argument("--n-min", type=int, default=100)
    p_curves.add_argument("--n-max", type=int, default=1_000_000)
    p_curves.add_argument("--points", type=int, default=25)
    p_curves.add_argument("--sigma-a2", type=float, default=1.0)
    p_curves.add_argument("--x0", type=float, default=None,
                          help="ancestral offset; default (2 alpha)^{-1/2} per alpha")
    p_curves.add_argument("--p", type=float, default=0.5,
                          help="jump probability (jump model only)")
    p_curves.add_argument("--sigma-c2", type=float, default=1.0,
                          help="jump variance (jump model only)")
    p_curves.add_argument("--out", required=True)
    p_curves.add_argument("--gnuplot", default=None,
                          help="also write a gnuplot command file here")
    p_curves.set_defaults(func=cmd_curves)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo experiment")
    p_sim.add_argument("--config", default=None, help="key = value settings file")
    p_sim.add_argument("--model", choices=[MODEL_YOU, MODEL_YOUJ], default=None)
    p_sim.add_argument("--n", type=int, default=None)
    p_sim.add_argument("--alpha", type=float, default=None)
    p_sim.add_argument("--sigma-a2", type=float, default=None)
    p_sim.add_argument("--x0", type=float, default=None)
    p_sim.add_argument("--p", type=float, default=None)
    p_sim.add_argument("--sigma-c2", type=float, default=None)
    p_sim.add_argument("--schedule-file", default=None,
                       help="per-event jump file: n-1 lines of 'p sigma_c2'")
    p_sim.add_argument("--replicates", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=None,
                       help="required; no silent nondeterminism")
    p_sim.add_argument("--workers", type=int, default=None)
    p_sim.add_argument("--json", default=None, help="write the JSON summary here")
    p_sim.add_argument("--csv", default=None, help="write the estimates CSV here")
    p_sim.add_argument("--dump-tree", default=None,
                       help="write the first replicate's tree as a debug dump")
    p_sim.set_defaults(func=cmd_simulate)

    p_verify = sub.add_parser("verify", help="run the self-verification suite")
    p_verify.add_argument("--level", choices=["quick", "full"], default="quick")
    p_verify.add_argument("--workers", type=int, default=None)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
