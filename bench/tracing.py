"""Spans around the package's public functions, recorded from outside.

Each traced function is replaced by module attribute with a wrapper that
records one span per call: function, parent span, start and end. Calls made
through the module attribute, including calls between functions of the same
module, go through the wrapper; worker processes keep their own copy of the
recorder, so only the calling process's spans are seen.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

# (module, function, work counter name or None); the counter reads the work
# a call asks for from its first argument
TRACED = (
    ("trees", "sample_tree", "tips"),
    ("trees", "sample_jumps", None),
    ("trees", "conditional_moments_you", None),
    ("trees", "conditional_moments_youj", None),
    ("trees", "pair_mean_exp", None),
    ("harness", "replicate_rng", None),
    ("harness", "run_replicates", None),
    ("harness", "estimate_moment_summary", None),
    ("harness", "run_sandwich", None),
    ("harness", "empirical_dk", None),
    ("special", "std_normal_cdf_array", "elements"),
    ("special", "std_normal_quantile", None),
    ("special", "harmonic", "n_sum"),
    ("special", "pochhammer_ratio", None),
    ("special", "zeta", None),
    ("analytic", "bound_point", None),
    ("analytic", "var_ybar_you", None),
    ("analytic", "var_ybar_youj", None),
    ("stein", "variance_penalty", None),
    ("stein", "kolmogorov_upper", None),
    ("stein", "wasserstein_upper", None),
    ("cli", "main", None),
    ("cli", "render_result_json", None),
)

_COUNTERS = {
    "tips": lambda arg: int(arg),
    "elements": lambda arg: int(np.size(arg)),
    "n_sum": lambda arg: int(arg),
}


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for module, func, counter in TRACED:
        key = f"{module}.{func}"
        out += [(f"{key}.calls", "count"), (f"{key}.s", "s"), (f"{key}.self_s", "s")]
        if counter:
            out.append((f"{key}.{counter}", "count"))
    return out


class Tracer:
    """Span recorder; install() patches the package, remove() restores it."""

    def __init__(self):
        self.names = [f"{m}.{f}" for m, f, _ in TRACED]
        self._modules = [importlib.import_module(f"youbounds.{m}") for m, _, _ in TRACED]
        self._originals = [getattr(mod, f) for mod, (_, f, _) in zip(self._modules, TRACED)]
        self.reset()

    def reset(self) -> None:
        self.func = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.work = [0] * len(TRACED)
        self._stack: list[int] = []

    def _wrap(self, fid: int, original, counter):
        func, parent, start, end, stack = self.func, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter
        count = _COUNTERS[counter] if counter else None
        work = self.work

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if count is not None:
                work[fid] += count(args[0])
            index = len(func)
            func.append(fid)
            parent.append(stack[-1] if stack else -1)
            start.append(clock())
            end.append(0.0)
            stack.append(index)
            try:
                return original(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        self.reset()
        for fid, (mod, original, (_, name, counter)) in enumerate(
                zip(self._modules, self._originals, TRACED)):
            setattr(mod, name, self._wrap(fid, original, counter))

    def remove(self) -> None:
        for mod, original, (_, name, _) in zip(self._modules, self._originals, TRACED):
            setattr(mod, name, original)

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "func": np.frombuffer(self.func, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict[str, float]:
        """Per-function calls, total time and self time (total minus the
        time covered by direct child spans), plus the work counters."""
        s = self.spans()
        k = len(TRACED)
        duration = s["end"] - s["start"]
        has_parent = s["parent"] >= 0
        child = np.zeros(len(duration))
        np.add.at(child, s["parent"][has_parent], duration[has_parent])
        calls = np.bincount(s["func"], minlength=k)
        total = np.bincount(s["func"], weights=duration, minlength=k)
        own = np.bincount(s["func"], weights=duration - child, minlength=k)
        out: dict[str, float] = {}
        for fid, (module, name, counter) in enumerate(TRACED):
            key = f"{module}.{name}"
            out[f"{key}.calls"] = int(calls[fid])
            out[f"{key}.s"] = float(total[fid])
            out[f"{key}.self_s"] = float(own[fid])
            if counter:
                out[f"{key}.{counter}"] = self.work[fid]
        return out
