"""Acceptance criteria 7-10 as functions of the seed.

Each of these criteria rests on staged hyperelastic runs from one seed.  The
acceptance suite checks them at seed 0; ``criteria_seeds.py`` runs the same
functions over many seeds.  Each function returns a ``Verdict``: whether the
criterion holds, the slack of each of its conditions (positive where a strict
condition holds, zero or more where a non-strict one does), and a one-line
description.
"""

import time
from dataclasses import dataclass

import numpy as np

from csvgd.engine import run_csvgd
from csvgd.experiments import _test_path_samples, default_config, hyperelastic_setup
from csvgd.metrics import pushforward_w1

# The runs behind criteria 7-10, keyed by their settings; runs shared by
# several criteria are made once per process.
_HYPER_CACHE = {}


def hyper_run(alpha=0.5, noise=0.1, lam=0.05, schedule="fixed", num_stages=8,
              seed=0):
    key = (alpha, noise, lam, schedule, num_stages, seed)
    if key in _HYPER_CACHE:
        return _HYPER_CACHE[key]
    cfg = default_config("hyperelastic")
    cfg.alpha = alpha
    cfg.noise = noise
    cfg.prior_lambda = lam
    cfg.schedule = schedule
    cfg.num_stages = num_stages
    cfg.seed = seed
    data, target, ensemble, ref, features, econf = hyperelastic_setup(cfg)
    stage_w1 = []

    def on_stage(s, ens, rep):
        _, total = pushforward_w1(_test_path_samples(ens, features), ref)
        stage_w1.append(total)

    ensemble, run_report = run_csvgd(ensemble, target, econf, on_stage=on_stage)
    per_point, w1_sum = pushforward_w1(_test_path_samples(ensemble, features), ref)
    result = {
        "active": run_report.final_active_params,
        "w1_sum": w1_sum,
        "stage_w1": stage_w1,
        "per_point": per_point,
        "delta": data.test_delta,
        "lambda_trajectory": run_report.lambda_trajectory,
    }
    _HYPER_CACHE[key] = result
    return result


@dataclass
class Verdict:
    passed: bool
    margins: dict
    detail: str


def criterion_07(seed=0) -> Verdict:
    """Desk-scale run: N_r=10, 1020 parameters, alpha=0.5, lambda=0.05, noise 0.1."""
    t0 = time.time()
    res = hyper_run(alpha=0.5, noise=0.1, lam=0.05, num_stages=5, seed=seed)
    elapsed = time.time() - t0
    w1 = res["stage_w1"]
    decreasing = np.isfinite(res["w1_sum"]) and w1[-1] < w1[-2]
    ok = res["active"] < 60 and decreasing and elapsed < 1800.0
    return Verdict(bool(ok),
                   {"60 - active": 60 - res["active"],
                    "stage W1 drop": w1[-2] - w1[-1],
                    "1800 s - elapsed": 1800.0 - elapsed},
                   f"active {res['active']} < 60, stage W1 {w1[-2]:.2f} -> "
                   f"{w1[-1]:.2f} decreasing, {elapsed:.0f}s < 1800s")


def criterion_08(seed=0) -> Verdict:
    """Final active counts ordered by the prior's alpha."""
    c = {a: hyper_run(alpha=a, seed=seed)["active"] for a in (0.25, 1.0, 2.0)}
    ok = c[0.25] <= c[1.0] < c[2.0]
    return Verdict(bool(ok),
                   {"active(1) - active(0.25)": c[1.0] - c[0.25],
                    "active(2) - active(1)": c[2.0] - c[1.0]},
                   f"active counts {c[0.25]} <= {c[1.0]} < {c[2.0]} "
                   f"for alpha 0.25/1/2")


def criterion_09(seed=0) -> Verdict:
    """Test-path W1 grows with the data noise; the reference point stays exact."""
    runs = {nz: hyper_run(noise=nz, seed=seed) for nz in (0.0, 0.1, 0.2)}
    w1s = [runs[nz]["w1_sum"] for nz in (0.0, 0.1, 0.2)]
    increasing = w1s[0] < w1s[1] < w1s[2]
    ref_idx = int(np.flatnonzero(runs[0.1]["delta"] == 0.0)[0])
    ref_w1 = max(runs[nz]["per_point"][ref_idx] for nz in (0.0, 0.1, 0.2))
    ok = increasing and ref_w1 < 1e-8
    return Verdict(bool(ok),
                   {"W1(0.1) - W1(0)": w1s[1] - w1s[0],
                    "W1(0.2) - W1(0.1)": w1s[2] - w1s[1],
                    "1e-8 - reference W1": 1e-8 - ref_w1},
                   f"W1 {w1s[0]:.2f} < {w1s[1]:.2f} < {w1s[2]:.2f} across noise "
                   f"0/0.1/0.2, reference-point W1 {ref_w1:.1e} < 1e-8")


def criterion_10(seed=0) -> Verdict:
    """The adaptive penalty matches the best fixed W1 within 1.5x, and is as
    sparse as the least sparse fixed penalty."""
    fixed = {lam: hyper_run(lam=lam, seed=seed) for lam in (0.01, 0.05, 0.1)}
    adaptive = hyper_run(lam=0.01, schedule="adaptive", seed=seed)
    best_w1 = min(r["w1_sum"] for r in fixed.values())
    worst_active = max(r["active"] for r in fixed.values())
    ok = (adaptive["w1_sum"] <= 1.5 * best_w1
          and adaptive["active"] <= worst_active)
    return Verdict(bool(ok),
                   {"1.5 best W1 - adaptive W1": 1.5 * best_w1 - adaptive["w1_sum"],
                    "worst active - adaptive active": worst_active - adaptive["active"]},
                   f"adaptive W1 {adaptive['w1_sum']:.2f} <= 1.5 x {best_w1:.2f}, "
                   f"active {adaptive['active']} <= {worst_active}; lambda trajectory "
                   f"{[round(lam, 3) for lam in adaptive['lambda_trajectory']]}")


CRITERIA = {7: criterion_07, 8: criterion_08, 9: criterion_09, 10: criterion_10}
