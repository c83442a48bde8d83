import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from csvgd.engine import condense_ensemble, init_net_ensemble
from csvgd.mechanics import icnn_template
from csvgd.network import LayeredNet


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_net(rng, widths=(3, 4, 1), nonneg=None, low=0.05, high=0.6):
    """Softplus chain with weights bounded away from zero so FD probes stay
    inside the nonnegativity domain."""
    n_links = len(widths) - 1
    nonneg = nonneg if nonneg is not None else (False,) * n_links
    weights = []
    for k in range(n_links):
        w = rng.uniform(low, high, size=(widths[k + 1], widths[k]))
        if not nonneg[k]:
            w *= rng.choice([-1.0, 1.0], size=w.shape)
        weights.append(w)
    acts = ("softplus",) * (n_links - 1) + ("identity",)
    return LayeredNet(tuple(widths), tuple(weights), (), acts, tuple(nonneg))


def bias_net(rng, widths=(3, 5, 2)):
    """Softplus chain with normal weights and biases."""
    n_links = len(widths) - 1
    return LayeredNet(
        tuple(widths),
        tuple(rng.normal(size=(widths[k + 1], widths[k])) for k in range(n_links)),
        tuple(rng.normal(size=widths[k + 1]) for k in range(n_links)),
        ("softplus",) * (n_links - 1) + ("identity",), (False,) * n_links)


def condensed_icnn_ensemble(n_particles=5):
    """Template and particle rows of a condensed (3, 12, 12, 1) ICNN ensemble."""
    ens = init_net_ensemble(icnn_template((3, 12, 12, 1)), n_particles, seed=13)
    ens.particles[np.random.default_rng(5).random(ens.particles.shape) < 0.4] *= 1e-5
    condensed, _ = condense_ensemble(ens, 1e-3)
    assert condensed.template.layer_widths != (3, 12, 12, 1)
    return condensed.template, condensed.particles
