#!/usr/bin/env python3
"""Graph condensation on a hand-made ensemble.

Each member network gets half of its weights pushed below the prune
threshold.  Condensation zeroes those edges, drops dead nodes, sorts the
survivors by importance, and pads everyone onto a common template.  Sorting
and padding preserve outputs exactly; the pruning itself moves them, and a
softplus node whose inputs all died contributes its resting level
softplus(0) times its outgoing weights, so dropping it can shift the raw
output visibly (the zero-at-reference stress normalization is what makes
such constants harmless in the mechanics pipeline).
"""

import numpy as np

from csvgd import network as nw
from csvgd.engine import (active_param_count, condense_ensemble,
                          ensemble_distances, init_net_ensemble)
from csvgd.mechanics import icnn_template

rng = np.random.default_rng(7)
template = icnn_template((3, 16, 16, 1))
ens = init_net_ensemble(template, 6, seed=3)
ens.particles[rng.random(ens.particles.shape) < 0.5] *= 1e-5

X = rng.uniform(-1, 1, size=(5, 3))
before_outputs = [nw.forward_pass(net, X).output() for net in ens.nets()]
print(f"before: template widths {template.layer_widths}, "
      f"{ens.particles.shape[1]} stored weights, "
      f"{active_param_count(ens, 1e-3)} active")

condensed, _ = condense_ensemble(ens, 1e-3)
print(f"after:  template widths {condensed.template.layer_widths}, "
      f"{condensed.particles.shape[1]} stored weights, "
      f"{active_param_count(condensed, 1e-3)} active")

shift = max(np.max(np.abs(b - nw.forward_pass(net, X).output()))
            for b, net in zip(before_outputs, condensed.nets()))
print(f"worst raw-output shift from pruning: {shift:.2e} "
      f"(mostly dropped resting-level emissions of dead nodes)")

lossless, _ = condense_ensemble(ens, 0.0)
shift0 = max(np.max(np.abs(b - nw.forward_pass(net, X).output()))
             for b, net in zip(before_outputs, lossless.nets()))
print(f"with epsilon = 0 (sort and pad only): {shift0:.2e}")

print("\npairwise distances before:")
print(np.array2string(ensemble_distances(ens), precision=2))
print("after condensation (aligned layouts, same metric):")
print(np.array2string(ensemble_distances(condensed), precision=2))

again, _ = condense_ensemble(condensed, 1e-3)
print(f"\nidempotent: {np.array_equal(again.particles, condensed.particles)}")
