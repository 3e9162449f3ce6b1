"""The benchmark's per-layer tracer against the engine.

`bench/tracing.py` wraps package functions by module attribute and name, so
a rename in the package would break every traced benchmark run. This loads
the tracer from its file, as the benchmark does, and checks that it sees the
replicate engine's tree calls.
"""

import importlib.util
from pathlib import Path

import numpy as np

from youbounds import harness, trees
from youbounds.analytic import JumpSchedule, YouParams
from youbounds.harness import ExperimentConfig

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_the_engines_tree_calls():
    n = 200
    blocks = 3
    config = ExperimentConfig(model="YOUj", n=n, params=YouParams(alpha=1.0, x0=0.7),
                              schedule=JumpSchedule.constant(0.5, 1.0),
                              replicates=(blocks - 1) * harness._block_size(n) + 5, seed=3)
    original = trees.sample_tree
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        traced = harness.run_replicates(config)
    finally:
        tracer.remove()
    assert trees.sample_tree is original
    summary = tracer.summary()
    for name in ("sample_tree", "sample_jumps", "conditional_moments_youj"):
        assert summary[f"trees.{name}.calls"] == blocks, name
    assert summary["trees.sample_tree.tips"] == blocks * n
    assert summary["harness.run_replicates.calls"] == 1
    untraced = harness.run_replicates(config)
    assert np.array_equal(traced.ybar, untraced.ybar)
