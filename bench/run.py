"""Benchmark of the youbounds package, run from the root of a source tree.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

It imports the package from `src/` beside this directory, sets up the named
workload several times (fresh-interpreter import, inputs, warm-up), then
runs its operation closed loop for about S seconds and checks every output.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (items per second,
set-up time, peak memory). With --trace 1 operations alternate untraced and
traced; the metrics are the per-layer span totals of a traced operation and
the tracing overhead. A copy of the result, and with --trace 1 the spans of
the first traced operation, are written under bench/out/.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _fresh_import() -> None:
    """Import the package's command line in a fresh interpreter, as a
    user's first command pays it."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import youbounds.cli"
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)


def _set_up(workload, seed: int) -> float:
    """Median over repeats of one full set-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        _fresh_import()
        workload.prepare(seed, OUT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _run_loop(workload, seconds: float, tracer) -> dict:
    """Rounds of one operation (untraced) or, with a tracer, one untraced
    and one traced operation, until the next round's expected midpoint
    falls past the deadline."""
    modes = (False, True) if tracer else (False,)
    ops = {False: [], True: []}      # traced -> [(wall, items)]
    outputs, summaries, spans, failed, rounds = [], [], None, 0, []
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        for traced in modes:
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                items, output = workload.operation()
            except Exception:
                traceback.print_exc(file=sys.stderr)
                failed += 1
                continue
            finally:
                wall = time.perf_counter() - t0
                if traced:
                    tracer.remove()
            ops[traced].append((wall, items))
            outputs.append(output)
            if traced:
                summaries.append(tracer.summary())
                if spans is None:
                    spans = tracer.spans()
        rounds.append(time.perf_counter() - r0)
        if time.perf_counter() - start + 0.5 * statistics.median(rounds) >= seconds:
            break
    return {"ops": ops, "outputs": outputs, "summaries": summaries, "spans": spans,
            "failed": failed, "attempted": len(rounds) * len(modes)}


def _peak_rss_mb(with_workers: bool) -> float:
    """Peak resident set of this process, plus that of its largest reaped
    child when the workload fans out to worker processes."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_workers:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "youbounds" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'youbounds'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)

    setup_s = _set_up(workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    run = _run_loop(workload, args.seconds, tracer)
    peak_rss = _peak_rss_mb(getattr(workload, "workers", 1) > 1)

    problems = workload.check(run["outputs"]) if run["outputs"] else []
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)

    untraced = run["ops"][False]
    if args.trace:
        names = tracing.metric_names()
        metrics = {name: {"value": statistics.median(s[name] for s in run["summaries"]),
                          "unit": unit}
                   for name, unit in names} if run["summaries"] else {}
        traced = run["ops"][True]
        if untraced and traced:
            overhead = (statistics.median(w for w, _ in traced)
                        - statistics.median(w for w, _ in untraced))
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        rate = statistics.median(items / wall for wall, items in untraced) if untraced else 0.0
        metrics = {
            "items_per_s": {"value": rate, "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
        }
    result = {"correct": not problems, "attempted": run["attempted"],
              "failed": run["failed"], "metrics": metrics}

    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(result, op_seconds={"untraced": [w for w, _ in untraced],
                                      "traced": [w for w, _ in run["ops"][True]]},
                  checks=problems)
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=2) + "\n", encoding="utf-8")
    if run["spans"] is not None:
        import numpy as np
        np.savez(stem.with_suffix(".spans.npz"),
                 names=np.array(tracer.names), **run["spans"])

    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
