"""The benchmark's workloads: inputs, one operation, and output checks.

Every workload runs closed loop with one client: an operation starts when
the previous one has returned. The program is driven only through its
public entry points (`cli.main`, `harness.run_sandwich`). Checks compare
against `reference`, which does not use the package, or against properties
the method must have.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import zlib
from pathlib import Path

import numpy as np

import reference as ref
from youbounds import cli, harness
from youbounds.analytic import MODEL_YOU, JumpSchedule, YouParams

ALPHA = 1.0
X0 = 1.0 / math.sqrt(2.0)
DELTA = X0 * math.sqrt(2.0 * ALPHA)   # the offset the normalized formulas use; 1 here
Z_LIMIT = 5.0                      # two-sided false alarm 5.7e-7 per check
DKW_DELTA = 1e-4
WARMUP_REPLICATES = 200


def derived_seed(seed: int, name: str) -> int:
    """A 63-bit seed of the workload's own, from the benchmark seed."""
    state = np.random.SeedSequence([seed, zlib.crc32(name.encode())]).generate_state(2, np.uint32)
    return (int(state[0]) << 31) ^ int(state[1])


def run_cli(argv: list[str]) -> None:
    """One `youbounds` command; its progress lines are not part of the
    benchmark's output. A nonzero exit fails the operation."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"youbounds {' '.join(argv)} exited with {code}")


class MonteCarlo:
    """`youbounds simulate` on one configuration; items are replicates."""

    def __init__(self, name: str, n: int, replicates: int, workers: int,
                 jumps: bool, check_ve: bool):
        self.name = name
        self.n, self.replicates, self.workers = n, replicates, workers
        self.jumps, self.check_ve = jumps, check_ve

    def _argv(self, replicates: int, workers: int, path: Path) -> list[str]:
        argv = ["simulate", "--n", str(self.n), "--alpha", repr(ALPHA), "--x0", repr(X0)]
        if self.jumps:
            argv += ["--model", "YOUj", "--p", "0.5", "--sigma-c2", "1"]
        return argv + ["--replicates", str(replicates), "--seed", str(self.seed),
                       "--workers", str(workers), "--json", str(path)]

    def prepare(self, seed: int, out: Path) -> None:
        self.seed = derived_seed(seed, self.name)
        self.out = out
        self.path = out / f"{self.name}.json"
        run_cli(self._argv(WARMUP_REPLICATES, self.workers, out / f"{self.name}-warmup.json"))

    def operation(self) -> tuple[int, bytes]:
        run_cli(self._argv(self.replicates, self.workers, self.path))
        return self.replicates, self.path.read_bytes()

    def check(self, outputs: list[bytes]) -> list[str]:
        bad = []
        if any(o != outputs[0] for o in outputs):
            bad.append("repeated operations wrote different JSON")
        if self.workers > 1:
            single = self.out / f"{self.name}-workers1.json"
            run_cli(self._argv(self.replicates, 1, single))
            if single.read_bytes() != outputs[0]:
                bad.append("--workers 1 wrote different JSON")
        doc = json.loads(outputs[0])
        if (doc["n"], doc["replicates"], doc["seed"]) != (self.n, self.replicates, self.seed):
            bad.append("JSON echoes another configuration")
        p, sigma_c2 = (0.5, 1.0) if self.jumps else (0.0, 0.0)
        exact = ref.you_moments(self.n, ALPHA, DELTA, p, sigma_c2)
        # the program's ve error is a 32-batch jackknife, itself too noisy to
        # gate on, so ve is scored by its exact standard error
        errors = {key: doc["estimates"][key]["se"] for key in ("mean", "ev")}
        if self.check_ve:
            errors["ve"] = ref.variance_estimate_se(self.n, ALPHA, DELTA, self.replicates)
        for key, se in errors.items():
            value = doc["estimates"][key]["value"]
            z = (value - exact[key]) / se
            if not abs(z) <= Z_LIMIT:
                bad.append(f"{key} {value!r} vs exact {exact[key]!r}: z = {z:.2f}")
        emp, bounds = doc["empirical"], doc["bounds"]
        band = ref.dkw_band(self.replicates, DKW_DELTA)
        if not emp["dk"] <= bounds["upper_dk"]["total"] + band:
            bad.append(f"dk {emp['dk']!r} above upper {bounds['upper_dk']['total']!r} + {band!r}")
        for d in ("dk", "dw"):
            if not bounds[f"lower_{d}"]["total"] <= bounds[f"upper_{d}"]["total"]:
                bad.append(f"lower_{d} above upper_{d}")
        return bad


class Sandwich:
    """`harness.run_sandwich` on exact two-tip replicates drawn here; items
    are scored samples."""

    name = "sandwich_R2e5"
    replicates = 200_000
    program_resamples = 32         # the resample count run_sandwich documents
    reference_resamples = 100
    false_alarm = 1e-4

    def prepare(self, seed: int, out: Path) -> None:
        self.seed = derived_seed(seed, self.name)
        rng = np.random.Generator(np.random.PCG64(self.seed))
        self.columns = ref.sample_you_n2(self.replicates, ALPHA, DELTA, rng)
        self.config = self._config(self.replicates)
        self.data = harness.ReplicateData(*self.columns)
        warm = 2000
        harness.run_sandwich(self._config(warm),
                             harness.ReplicateData(*(c[:warm] for c in self.columns)))

    def _config(self, r: int) -> harness.ExperimentConfig:
        return harness.ExperimentConfig(MODEL_YOU, 2, YouParams(ALPHA, 1.0, X0),
                                        JumpSchedule.none(), r, self.seed)

    def operation(self) -> tuple[int, harness.SandwichReport]:
        return self.replicates, harness.run_sandwich(self.config, self.data)

    def check(self, outputs: list) -> list[str]:
        bad = []
        if any(o != outputs[0] for o in outputs):
            bad.append("repeated operations gave different reports")
        report = outputs[0]
        exact = ref.you_moments(2, ALPHA, DELTA)
        z = (self.columns[2] - exact["mean"]) / math.sqrt(exact["ev"])
        dk = ref.empirical_dk(z)
        if not abs(report.empirical_dk - dk) <= 1e-12:
            bad.append(f"dk {report.empirical_dk!r} vs reference {dk!r}")
        dw = ref.QuantileW1(len(z))(np.sort(z))
        if not abs(report.empirical_dw - dw) <= 1e-10 * dw:
            bad.append(f"dw {report.empirical_dw!r} vs reference {dw!r}")
        se = report.dw_bootstrap_se
        if not (math.isfinite(se) and se > 0.0):
            bad.append(f"dw_bootstrap_se {se!r} is not finite and positive")
            return bad
        rng = np.random.Generator(np.random.PCG64(derived_seed(self.seed, "bootstrap")))
        ref_se, kurtosis = ref.bootstrap_dw_se(z, rng, self.reference_resamples)
        lo, hi = ref.sd_ratio_interval(self.program_resamples, self.reference_resamples,
                                       kurtosis, self.false_alarm)
        if not lo <= se / ref_se <= hi:
            bad.append(f"dw_bootstrap_se {se!r} vs reference {ref_se!r}: "
                       f"ratio outside [{lo:.3f}, {hi:.3f}]")
        return bad


class Curves:
    """`youbounds curves` for YOU then YOUj; items are CSV rows written."""

    name = "curves_sweep"
    alphas = "0.5,0.6,0.75,1,2"

    def _argv(self, model: str, path: Path, n_max: int, points: int) -> list[str]:
        return ["curves", "--model", model, "--alphas", self.alphas, "--distance", "both",
                "--n-min", "100", "--n-max", str(n_max), "--points", str(points),
                "--out", str(path)]

    def prepare(self, seed: int, out: Path) -> None:
        # the grid and rates are fixed by the workload; the seed selects nothing
        self.paths = {m: out / f"{self.name}-{m}.csv" for m in ("YOU", "YOUj")}
        for model in self.paths:
            run_cli(self._argv(model, out / f"{self.name}-warmup.csv", 1000, 2))

    def operation(self) -> tuple[int, tuple[str, ...]]:
        texts = []
        for model, path in self.paths.items():
            run_cli(self._argv(model, path, 10_000_000, 200))
            texts.append(path.read_text(encoding="utf-8"))
        return sum(t.count("\n") - 1 for t in texts), tuple(texts)

    def check(self, outputs: list) -> list[str]:
        bad = []
        if any(o != outputs[0] for o in outputs):
            bad.append("repeated operations wrote different CSV")
        curves: dict[tuple[str, float, str], list[tuple[int, float]]] = {}
        for text in outputs[0]:
            lines = text.splitlines()
            if lines[0] != "model,alpha,n,distance,term1,term2,term3,term4,total,regime":
                bad.append(f"unexpected CSV header {lines[0]!r}")
            for line in lines[1:]:
                cells = line.split(",")
                terms = [float(c) for c in cells[4:8] if c != "nan"]
                total = float(cells[8])
                if not (math.isfinite(total) and total > 0.0):
                    bad.append(f"total {total!r} in row {line!r}")
                elif abs(math.fsum(terms) - total) > 8.0 * sys.float_info.epsilon * total:
                    bad.append(f"terms do not sum to the total in row {line!r}")
                key = (cells[0], float(cells[1]), cells[3])
                curves.setdefault(key, []).append((int(cells[2]), total))
        if len(curves) != 2 * 5 * 2 or any(len(v) != 200 for v in curves.values()):
            bad.append("expected 20 curves of 200 points")
            return bad
        for alpha, distance, target in ((0.6, "kolmogorov", -0.2), (1.0, "kolmogorov", -0.5),
                                        (1.0, "wasserstein", -0.75)):
            pts = [(n, t) for n, t in curves[("YOU", alpha, distance)] if 1e4 <= n <= 1e7]
            slope = ref.loglog_slope(*zip(*pts))
            if not abs(slope - target) <= 0.05:
                bad.append(f"{distance} slope at alpha {alpha}: {slope:.4f} vs {target}")
        scaled = [t * math.log(n) for n, t in curves[("YOU", 0.5, "kolmogorov")] if 1e5 <= n <= 1e7]
        if not (max(scaled) - min(scaled)) <= 0.03 * min(scaled):
            bad.append(f"kolmogorov total * ln n at alpha 1/2 spans {min(scaled)}..{max(scaled)}")
        return bad


# why each workload is here: bench/README.md and BENCHMARK.json
WORKLOADS = {
    w.name: w for w in (
        MonteCarlo("mc_youj_n200", n=200, replicates=20_000, workers=1, jumps=True, check_ve=True),
        MonteCarlo("mc_you_n5000_w2", n=5000, replicates=2000, workers=2, jumps=False, check_ve=False),
        Sandwich(),
        Curves(),
    )
}
