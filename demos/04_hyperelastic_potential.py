#!/usr/bin/env python3
"""End-to-end hyperelastic run at demo scale.

Generates noisy stress-strain pairs from the Gent-type reference material,
trains an ensemble of convex potential networks with the staged Stein flow,
and reports accuracy (summed Wasserstein-1 on the uniaxial test path) and
sparsity (active weights out of the initial 1020).

Roughly a two-minute run; shrink num_stages for a quicker look.
"""

import numpy as np

from csvgd.engine import run_csvgd
from csvgd.experiments import (_test_path_samples, default_config,
                               hyperelastic_setup)
from csvgd.metrics import pushforward_w1

cfg = default_config("hyperelastic")
cfg.seed = 0
cfg.num_stages = 5
data, target, ensemble, ref, features, econf = hyperelastic_setup(cfg)
print(f"{len(data.train)} training pairs, noise {cfg.noise:.0%}, "
      f"{ensemble.particles.shape[1]} initial weights, "
      f"{cfg.n_particles} particles")


def on_stage(s, ens, rep):
    _, w1 = pushforward_w1(_test_path_samples(ens, features), ref)
    print(f"  stage {s}: {rep.iterations} iterations, mse {rep.final_mse:.4f}, "
          f"{rep.active_params} active weights, test W1 {w1:.1f}")


ensemble, report = run_csvgd(ensemble, target, econf, on_stage=on_stage)

per_point, w1_sum = pushforward_w1(_test_path_samples(ensemble, features), ref)
mid = int(np.flatnonzero(data.test_delta == 0.0)[0])
print(f"\nfinal: {report.final_active_params} active weights, "
      f"summed test W1 {w1_sum:.1f}")
print(f"per-point W1 at the reference state: {per_point[mid]:.1e} "
      f"(zero by construction: multiplicative noise + pinned reference stress)")
print(f"largest per-point W1 on the path:    {per_point.max():.3f} "
      f"at F11 = {data.test_f11[np.argmax(per_point)]:.2f}")
