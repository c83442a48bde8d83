import contextlib
import errno
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from csvgd.engine import condense_ensemble, init_net_ensemble
from csvgd.mechanics import icnn_template

from _oracles import Net


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


class _FullDisk:
    """A text file that takes ``budget`` characters, then fails like a full disk."""

    def __init__(self, fh, budget):
        self.fh, self.room = fh, budget

    def write(self, text):
        self.fh.write(text[:self.room])
        self.room -= len(text)
        if self.room < 0:
            raise OSError(errno.ENOSPC, "no space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)


@pytest.fixture
def full_disk(monkeypatch):
    """``with full_disk(path, budget):`` makes the atomic writer's write to
    ``path`` fail once ``budget`` characters of it have landed."""
    import csvgd.files

    @contextlib.contextmanager
    def arm(path, budget):
        tmp_name = Path(path).name + ".tmp"

        def opener(file, *args, **kwargs):
            fh = open(file, *args, **kwargs)
            return _FullDisk(fh, budget) if Path(file).name == tmp_name else fh

        with monkeypatch.context() as m:
            m.setattr(csvgd.files, "open", opener, raising=False)
            yield

    return arm


def random_net(rng, widths=(3, 4, 1), nonneg=None, low=0.05, high=0.6):
    """A `Net` of the softplus chain with weights bounded away from zero so
    FD probes stay inside the nonnegativity domain."""
    n_links = len(widths) - 1
    nonneg = nonneg if nonneg is not None else (False,) * n_links
    weights = []
    for k in range(n_links):
        w = rng.uniform(low, high, size=(widths[k + 1], widths[k]))
        if not nonneg[k]:
            w *= rng.choice([-1.0, 1.0], size=w.shape)
        weights.append(w)
    return Net.of(weights, tuple(nonneg))


def one_row(net):
    """The flat weights of ``net`` as a one-particle stack, shape (1, D)."""
    return net.row[None]


def condensed_icnn_ensemble(n_particles=5):
    """Template and particle rows of a condensed (3, 12, 12, 1) ICNN ensemble."""
    ens = init_net_ensemble(icnn_template((3, 12, 12, 1)), n_particles, seed=13)
    ens.particles[np.random.default_rng(5).random(ens.particles.shape) < 0.4] *= 1e-5
    condensed, _ = condense_ensemble(ens, 1e-3)
    assert condensed.template.layer_widths != (3, 12, 12, 1)
    return condensed.template, condensed.particles
