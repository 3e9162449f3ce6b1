"""Command-line surface: bound evaluation, bound curves as CSV, Monte Carlo
experiments with JSON/CSV emission, and the verification suite.

All output is data. The only plotting aid is an optional gnuplot command file
emitted next to the curves CSV.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time

import numpy as np

from . import analytic, stein
from .analytic import (
    MODEL_YOU,
    MODEL_YOUJ,
    JumpSchedule,
    YouParams,
)

# simulate's settings in --help order, flag and config key: add_argument keywords
_SETTINGS = {
    "model": {"type": str, "choices": [MODEL_YOU, MODEL_YOUJ]},
    "n": {"type": int},
    "alpha": {"type": float},
    "sigma_a2": {"type": float},
    "x0": {"type": float},
    "p": {"type": float},
    "sigma_c2": {"type": float},
    "schedule_file": {"type": str, "help": "per-event jump file: n-1 lines of 'p sigma_c2'"},
    "replicates": {"type": int},
    "seed": {"type": int, "help": "required; no silent nondeterminism"},
    "workers": {"type": int},
    "json": {"type": str, "help": "write the JSON summary here"},
    "csv": {"type": str, "help": "write the estimates CSV here"},
    "dump_tree": {"type": str, "help": "write the first replicate's tree as a debug dump"},
}


def _fmt(value: float) -> str:
    """IEEE round-trippable decimal rendering (17 significant digits)."""
    return f"{float(value):.17g}"


# ---------------------------------------------------------------------------
# config plumbing

def _content_lines(path: str):
    """(line number, the line stripped, its text before any `#` stripped) for
    each line of a text file that is neither blank nor only a comment. A `#`
    right after other text is refused: it would cut a value short."""
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line, comment, _ = raw.partition("#")
            if comment and line[-1:].strip():
                raise ValueError(f"{path}:{lineno}: a '#' comment must follow a blank, "
                                 f"got {raw.strip()!r}")
            if line.strip():
                yield lineno, raw.strip(), line.strip()


def parse_config_file(path: str) -> dict[str, str]:
    """Line-oriented `key = value` settings with `#` comments."""
    values: dict[str, str] = {}
    for lineno, raw, line in _content_lines(path):
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, text = line.partition("=")
        key, text = key.strip(), text.strip()
        if key not in _SETTINGS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if not text:
            raise ValueError(f"{path}:{lineno}: empty value for key {key!r}")
        values[key] = text
    return values


def _resolve_settings(args: argparse.Namespace) -> dict:
    """The command's settings: the model YOU, then config-file values (for
    commands that take --config), then the flags given, each overriding the
    ones before it key by key."""
    settings: dict = {"model": MODEL_YOU}
    if getattr(args, "config", None):
        for key, text in parse_config_file(args.config).items():
            try:
                settings[key] = _SETTINGS[key]["type"](text)
            except ValueError:
                raise ValueError(f"config key {key!r}: cannot parse value {text!r}")
            choices = _SETTINGS[key].get("choices")
            if choices and settings[key] not in choices:
                raise ValueError(f"config key {key!r}: {text!r} is not one of {choices}")
    settings.update((key, value) for key, value in vars(args).items()
                    if key in _SETTINGS and value is not None)
    return settings


def _you_params(settings: dict) -> YouParams:
    """YouParams from the settings' alpha, sigma_a2 and x0; YouParams
    supplies the defaults of those not set."""
    return YouParams(**{k: settings[k] for k in ("alpha", "sigma_a2", "x0") if k in settings})


def parse_schedule_file(path: str, n: int) -> JumpSchedule:
    """Per-event jump settings, one `p sigma_c2` pair per line, n-1 lines."""
    pairs: list[tuple[float, float]] = []
    for lineno, raw, line in _content_lines(path):
        try:
            p, sigma_c2 = map(float, line.split())
        except ValueError:  # not two fields, or not two numbers
            raise ValueError(f"{path}:{lineno}: expected 'p sigma_c2', got {raw!r}")
        pairs.append((p, sigma_c2))
    if len(pairs) != n - 1:
        raise ValueError(
            f"{path}: has {len(pairs)} schedule rows, expected n-1 = {n - 1}")
    return JumpSchedule.per_event(tuple(pairs))


def _build_schedule(settings: dict, n: int, file_flag: bool) -> JumpSchedule:
    """The settings' jump schedule; file_flag: the command takes --schedule-file."""
    jump_flags = [f"--{k.replace('_', '-')}" for k in ("p", "sigma_c2", "schedule_file")
                  if k in settings]
    if settings["model"] == MODEL_YOU:
        if jump_flags:
            raise ValueError(
                f"jump settings {', '.join(jump_flags)} require model YOUj, not YOU")
        return JumpSchedule.none()
    if "schedule_file" in settings:
        if "p" in settings or "sigma_c2" in settings:
            raise ValueError("--schedule-file replaces --p and --sigma-c2")
        return parse_schedule_file(settings["schedule_file"], n)
    if "p" not in settings or "sigma_c2" not in settings:
        raise ValueError("model YOUj requires --p and --sigma-c2"
                         + (" (or --schedule-file)" if file_flag else ""))
    return JumpSchedule.constant(settings["p"], settings["sigma_c2"])


# ---------------------------------------------------------------------------
# bounds

def _regime_cell(params: YouParams, schedule: JumpSchedule) -> str:
    table = analytic.asymptotic_constants(params, schedule)
    suffix = ";non-convergent" if table.nonconvergent else ""
    return f"{table.regime.kind}/{table.regime.band}{suffix}"


def _print_report(report: stein.BoundReport) -> None:
    print(f"{report.distance} upper bound")
    width = max(len(label) for label, _ in report.terms) + 2
    for label, value in report.terms:
        print(f"  {label:<{width}}{_fmt(value)}")
    print(f"  {'total':<{width}}{_fmt(report.total)}")
    print(f"  notes: {'; '.join(report.notes)}")


def cmd_bounds(args: argparse.Namespace) -> int:
    settings = _resolve_settings(args)
    params = _you_params(settings)
    schedule = _build_schedule(settings, args.n, file_flag=False)
    point = analytic.bound_point(params, schedule, args.n)
    reports = point.values() if args.distance == "both" else [point[args.distance]]
    print(f"model {settings['model']}  n {args.n}  alpha {_fmt(params.alpha)}  "
          f"sigma_a2 {_fmt(params.sigma_a2)}  x0 {_fmt(params.x0)}  "
          f"regime {_regime_cell(params, schedule)}")
    for report in reports:
        _print_report(report)
    return 0


# ---------------------------------------------------------------------------
# curves

CURVES_HEADER = "model,alpha,n,distance,term1,term2,term3,term4,total,regime"


def _curve_rows(settings: dict, alphas: list[float], distances: list[str],
                grid: list[int], schedule: JumpSchedule) -> tuple[list[str], dict]:
    """The CSV rows, and each curve's (n, total) points keyed by (model,
    alpha, distance), both in row order and with the CSV's text."""
    model, rows, curves = settings["model"], [], {}
    for alpha in alphas:
        params = _you_params({**settings, "alpha": alpha})
        if "x0" not in settings:  # the default offset, once YouParams accepted the rate
            params = dataclasses.replace(params, x0=(2.0 * alpha) ** -0.5)
        cell = _regime_cell(params, schedule)
        curve = analytic.bound_curve(params, schedule, grid)
        for distance in distances:
            points = curves.setdefault((model, _fmt(alpha), distance), [])
            for n, point in zip(grid, curve):
                report = point[distance]
                values = [*report.term_values(), *[math.nan] * (4 - len(report.terms)), report.total]
                row = [model, _fmt(alpha), str(n), distance] + [_fmt(v) for v in values]
                rows.append(",".join(row + [cell]))
                points.append((n, row[-1]))
    return rows, curves


def _gnuplot_text(curves: dict) -> str:
    """Self-contained gnuplot command file, one inline data block per curve."""
    lines = [
        "# generated by: youbounds curves --gnuplot",
        "set logscale xy",
        "set xlabel 'number of tips n'",
        "set ylabel 'upper bound'",
        "set key top right",
    ]
    plot_parts = []
    for i, ((model, alpha, distance), points) in enumerate(curves.items()):
        lines.append(f"$curve_{i} << EOD")
        lines.extend(f"{n} {total}" for n, total in points)
        lines.append("EOD")
        plot_parts.append(
            f"$curve_{i} using 1:2 with lines title '{model} alpha={alpha} {distance}'")
    lines.append("plot \\")
    lines.append(", \\\n".join("    " + part for part in plot_parts))
    return "\n".join(lines) + "\n"


def cmd_curves(args: argparse.Namespace) -> int:
    try:
        alphas = [float(a) for a in args.alphas.split(",") if a.strip()]
    except ValueError:
        raise ValueError(f"--alphas must be comma-separated numbers, got {args.alphas!r}")
    if not alphas:
        raise ValueError("--alphas must name at least one rate")
    for i, alpha in enumerate(alphas):
        if alpha in alphas[:i]:
            raise ValueError(f"--alphas names the rate {_fmt(alpha)} more than once")
    distances = ([stein.KOLMOGOROV, stein.WASSERSTEIN]
                 if args.distance == "both" else [args.distance])
    if args.n_min < 2 or args.n_max <= args.n_min or args.points < 2:
        raise ValueError("need 2 <= n-min < n-max and points >= 2")
    grid = sorted({int(round(v)) for v in np.geomspace(args.n_min, args.n_max, args.points)})
    settings = _resolve_settings(args)
    if settings["model"] == MODEL_YOUJ:
        settings = {"p": 0.5, "sigma_c2": 1.0, **settings}
    schedule = _build_schedule(settings, args.n_max, file_flag=False)
    rows, curves = _curve_rows(settings, alphas, distances, grid, schedule)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(CURVES_HEADER + "\n")
        fh.write("\n".join(rows) + "\n")
    print(f"wrote {len(rows)} rows to {args.out}")
    if args.gnuplot:
        with open(args.gnuplot, "w", encoding="utf-8") as fh:
            fh.write(_gnuplot_text(curves))
        print(f"wrote gnuplot commands to {args.gnuplot}")
    return 0


# ---------------------------------------------------------------------------
# simulate

def _bound_doc(report: stein.BoundReport) -> dict:
    return {
        "total": report.total,
        "terms": [[label, value] for label, value in report.terms],
        "notes": list(report.notes),
    }


def render_result_json(result: harness.ExperimentResult) -> str:
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
    doc["estimates"] = dataclasses.asdict(result.estimates)
    if result.sandwich_omitted:
        doc["note"] = f"sandwich omitted: {result.sandwich_omitted}"
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
    rows = [ESTIMATES_HEADER]
    for name, e in dataclasses.asdict(result.estimates).items():
        rows.append(f"{name},{_fmt(e['value'])},{_fmt(e['se'])},{e['r_used']}")
    sandwich = result.sandwich
    if sandwich is not None:
        rows.append(f"kappa_mean,{_fmt(sandwich.kappa_mean)},nan,{r}")
        rows.append(f"empirical_dk,{_fmt(sandwich.empirical_dk)},nan,{r}")
        rows.append(f"empirical_dw,{_fmt(sandwich.empirical_dw)},"
                    f"{_fmt(sandwich.dw_bootstrap_se)},{r}")
    return "\n".join(rows) + "\n"


def cmd_simulate(args: argparse.Namespace) -> int:
    from . import harness, trees  # the Monte Carlo layer, loaded only by simulate and verify

    settings = _resolve_settings(args)
    for key in ("n", "alpha", "replicates", "seed"):
        if key not in settings:
            raise ValueError(
                f"missing required setting {key!r} (flag --{key.replace('_', '-')} "
                f"or config key {key})")
    n = settings["n"]
    config = harness.ExperimentConfig(
        model=settings["model"], n=n, params=_you_params(settings),
        schedule=_build_schedule(settings, n, file_flag=True),
        replicates=settings["replicates"], seed=settings["seed"],
        workers=harness.resolve_workers(settings.get("workers"), 1))

    if "dump_tree" in settings:
        # replicate 0 of the run: row 0 of block 0's draws
        tree, flags, _ = harness.draw_block(config, 0)
        with open(settings["dump_tree"], "w", encoding="utf-8") as fh:
            fh.write(trees.dump_tree(tree, flags))

    result = harness.run_experiment(config)
    text = render_result_json(result)
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
    from . import harness, verify  # verify is loaded only by this command

    workers = harness.resolve_workers(args.workers, verify.DEFAULT_WORKERS)
    suite = verify.quick_suite if args.level == "quick" else verify.full_suite
    results = []
    for criterion in suite(workers):
        start = time.perf_counter()
        result = criterion()
        print(result.render(time.perf_counter() - start), flush=True)
        results.append(result)
    failed = [r.label for r in results if not r.passed]
    print(f"verify {args.level}: {len(results)} criteria, {len(failed)} failed"
          + (f" ({', '.join(failed)})" if failed else ""))
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser

def _add_flags(parser: argparse.ArgumentParser, keys, **extra: dict) -> None:
    """A flag with no default for each named setting of _SETTINGS; extra:
    add_argument keywords for a key, added to or replacing the table's."""
    for key in keys:
        spec = {**_SETTINGS[key], **extra.get(key, {})}
        parser.add_argument("--" + key.replace("_", "-"), **spec)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="youbounds",
        description="Normal-approximation bounds for trait averages on Yule trees")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="evaluate the upper bound at one point")
    _add_flags(p_bounds, ["model", "n", "alpha", "sigma_a2", "x0", "p", "sigma_c2"],
               n={"required": True}, alpha={"required": True})
    p_bounds.add_argument("--distance",
                          choices=[stein.KOLMOGOROV, stein.WASSERSTEIN, "both"],
                          default="both")
    p_bounds.set_defaults(func=cmd_bounds)

    p_curves = sub.add_parser("curves", help="emit bound curves over n as CSV")
    _add_flags(p_curves, ["model"])
    p_curves.add_argument("--alphas", default="0.5,0.75,1,2",
                          help="comma-separated adaptation rates")
    p_curves.add_argument("--distance",
                          choices=[stein.KOLMOGOROV, stein.WASSERSTEIN, "both"],
                          default=stein.KOLMOGOROV)
    p_curves.add_argument("--n-min", type=int, default=100)
    p_curves.add_argument("--n-max", type=int, default=1_000_000)
    p_curves.add_argument("--points", type=int, default=25)
    _add_flags(p_curves, ["sigma_a2", "x0", "p", "sigma_c2"],
               x0={"help": "ancestral offset; default (2 alpha)^{-1/2} per alpha"},
               p={"help": "jump probability (jump model only; default 0.5)"},
               sigma_c2={"help": "jump variance (jump model only; default 1)"})
    p_curves.add_argument("--out", required=True)
    p_curves.add_argument("--gnuplot", default=None,
                          help="also write a gnuplot command file here")
    p_curves.set_defaults(func=cmd_curves)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo experiment")
    p_sim.add_argument("--config", default=None, help="key = value settings file")
    _add_flags(p_sim, _SETTINGS)
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
