"""The benchmark's workloads: the csvgd command each one runs, the config it
generates from the workload seed, the spans that must fire on it, and the
checks its outputs must pass.

Every config sets ``tol = 0`` so no stage stops early: each command does a
fixed number of Stein iterations, and ``run_s`` measures a fixed amount of
work on every seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

# Settings shared by the two hyperelastic workloads: the desk defaults of
# `csvgd hyperelastic`, written out so a change of defaults does not change
# the benchmark.
_HYPER_DESK = {
    "experiment": "hyperelastic",
    "n_particles": 10,
    "alpha": 0.5,
    "prior_lambda": 0.05,
    "beta": 2,
    "bandwidth_rule": "median",
    "step_size": 0.02,
    "adagrad": True,
    "schedule": "fixed",
    "metrics_every": 50,
    "widths": [3, 30, 30, 1],
    "n_train": 80,
    "n_test": 1001,
    "tol": 0.0,
}

# Spans that must record calls: the core ones on every workload, the network
# ones on the hyperelastic workloads only (mvn has no network).
_CORE_SPANS = ("likelihoods.score", "priors.prior_score", "engine.stein_gradient",
               "condense.distance_matrix", "engine.svgd_step", "engine.run_stage",
               "engine.run_csvgd")
_NET_SPANS = ("network.forward", "network.grad_input",
              "network.grad_params_dirderiv", "network.with_values",
              "mechanics.invariants", "mechanics.stress", "mechanics.generate_data",
              "engine.condense_ensemble", "condense.dump_graph",
              "engine.save_checkpoint", "metrics.pushforward_w1",
              "experiments.pushforward_samples")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                 # csvgd sub-command
    settings: dict               # RunConfig fields besides the seed
    must_fire: tuple
    # Tolerance of the quality value: [min - range, max + range] of its values
    # over seeds 0-19, rounded outward; a reordered float sum acts like a new seed.
    quality_key: str
    quality_range: tuple

    def config(self, seed: int) -> dict:
        return {**self.settings, "seed": int(seed)}

    def argv(self, config_path, out_dir) -> list[str]:
        return [self.command, "--config", str(config_path), "--out", str(out_dir)]

    @property
    def initial_dim(self) -> int:
        if self.command == "mvn":
            return 3
        w = self.settings["widths"]                 # bias-free chain
        return sum(a * b for a, b in zip(w[:-1], w[1:]))

    def check(self, out_dir) -> tuple[dict, list[str]]:
        """Quality values of one finished command and the checks they fail."""
        summary = json.loads((Path(out_dir) / "summary.json").read_text())
        problems = []
        value = summary.get(self.quality_key)
        quality = {self.quality_key: value}
        lo, hi = self.quality_range
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{self.quality_key} is not finite: {value!r}")
        elif not lo <= value <= hi:
            problems.append(f"{self.quality_key}={value:.6g} outside [{lo}, {hi}]")
        if self.command == "hyperelastic":
            active = summary.get("active_params")
            quality["active_params"] = active
            if not isinstance(active, int) or not 0 < active <= self.initial_dim:
                problems.append(f"active_params={active!r} not in "
                                f"(0, {self.initial_dim}]")
        iterations = summary.get("total_iterations", summary.get("iterations"))
        quality["iterations"] = iterations
        if not isinstance(iterations, int) or iterations < 1:
            problems.append(f"no Stein iteration count in summary.json: {iterations!r}")
        return quality, problems


WORKLOADS = {w.name: w for w in (
    Workload(
        name="hyper_desk",
        command="hyperelastic",
        settings={**_HYPER_DESK, "num_stages": 3, "max_iters": 40},
        must_fire=_CORE_SPANS + _NET_SPANS,
        quality_key="w1_sum",
        quality_range=(20.0, 100.0),
    ),
    Workload(
        name="mvn_large_n",
        command="mvn",
        settings={"experiment": "mvn", "n_particles": 512, "alpha": 1.0,
                  "prior_lambda": 0.1, "beta": 2, "bandwidth_rule": "median",
                  "step_size": 0.01, "num_stages": 1, "max_iters": 50,
                  "metrics_every": 25, "tol": 0.0},
        must_fire=_CORE_SPANS,
        quality_key="bhattacharyya",
        quality_range=(1.75, 2.2),
    ),
    Workload(
        name="hyper_wide",
        command="hyperelastic",
        settings={**_HYPER_DESK, "n_particles": 64, "schedule": "adaptive",
                  "num_stages": 2, "max_iters": 10, "polish_iters": 10},
        must_fire=_CORE_SPANS + _NET_SPANS,
        quality_key="w1_sum",
        quality_range=(30.0, 185.0),
    ),
)}
