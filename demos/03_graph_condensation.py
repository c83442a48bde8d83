#!/usr/bin/env python3
"""Graph condensation on a hand-made ensemble.

Each member network gets half of its weights pushed below the prune
threshold.  Condensation zeroes those edges, drops dead nodes, sorts the
survivors by importance, and pads everyone onto a common template.  Sorting
and padding preserve outputs up to the rounding of reordered sums (about
1e-15 here); the pruning itself moves them, and a softplus node whose
inputs all died contributes its resting level softplus(0) times its
outgoing weights, so dropping it can shift the raw output visibly (the zero-at-reference stress normalization is what makes
such constants harmless in the mechanics pipeline).
"""

import numpy as np

from csvgd import network as nw
from csvgd.condense import distance_matrix
from csvgd.engine import active_param_count, condense_ensemble, init_net_ensemble
from csvgd.mechanics import icnn_template


def outputs(ensemble, X):
    """Every member's outputs on X, (members, rows, 1): softplus hidden
    links, then the identity output link."""
    *hidden, last = nw.stack_weights(ensemble.template, ensemble.particles)
    h = X
    for W in hidden:
        h = np.logaddexp(0.0, h @ W.swapaxes(-1, -2))
    return h @ last.swapaxes(-1, -2)


rng = np.random.default_rng(7)
template = icnn_template((3, 16, 16, 1))
ens = init_net_ensemble(template, 6, seed=3)
ens.particles[rng.random(ens.particles.shape) < 0.5] *= 1e-5

X = rng.uniform(-1, 1, size=(5, 3))
before_outputs = outputs(ens, X)
print(f"before: template widths {template.layer_widths}, "
      f"{ens.particles.shape[1]} stored weights, "
      f"{active_param_count(ens, 1e-3)} active")

condensed, _ = condense_ensemble(ens, 1e-3)
print(f"after:  template widths {condensed.template.layer_widths}, "
      f"{condensed.particles.shape[1]} stored weights, "
      f"{active_param_count(condensed, 1e-3)} active")

shift = np.max(np.abs(before_outputs - outputs(condensed, X)))
print(f"worst raw-output shift from pruning: {shift:.2e} "
      f"(mostly dropped resting-level emissions of dead nodes)")

lossless, _ = condense_ensemble(ens, 0.0)
shift0 = np.max(np.abs(before_outputs - outputs(lossless, X)))
print(f"with epsilon = 0 (sort and pad only): {shift0:.2e}")

print("\npairwise distances before:")
print(np.array2string(distance_matrix(ens.particles), precision=2))
print("after condensation (aligned layouts, same metric):")
print(np.array2string(distance_matrix(condensed.particles), precision=2))

again, _ = condense_ensemble(condensed, 1e-3)
print(f"\nidempotent: {np.array_equal(again.particles, condensed.particles)}")
