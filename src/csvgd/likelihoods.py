"""Likelihood scores for the two experiment targets.

Every target scores the whole particle stack in the one call the engine makes,
``score_and_mse_batch(template, particles) -> (S (N, D), mse (N,))``, where
``particles`` holds flat parameter rows and ``template`` is the network graph
they share (None for raw vectors, as in MvnTarget).  The scores are the
gradients of the log-likelihoods each class docstring states.  The stress
target evaluates its potential networks on the stack in the particle blocks
of ``network.particle_blocks``, inside that one call; a stack that fits one
block is evaluated whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import network
from .errors import ShapeError
from .mechanics import Dataset, potential_stress, strain_features

__all__ = [
    "MvnTarget",
    "RegressionTarget",
]


@dataclass(frozen=True)
class MvnTarget:
    """Multivariate normal log-likelihood with mean and precision matrix,
    -(1/2) (theta - mu)' P (theta - mu)."""

    mean: np.ndarray
    precision: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mean, dtype=float)
        p = np.asarray(self.precision, dtype=float)
        if p.shape != (m.size, m.size):
            raise ShapeError(f"precision shape {p.shape} does not match mean size {m.size}")
        if not np.allclose(p, p.T, atol=1e-12):
            raise ShapeError("precision matrix must be symmetric")
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "precision", p)

    def score_and_mse_batch(self, template, particles) -> tuple[np.ndarray, np.ndarray]:
        """Scores -P (theta - mu) and the quadratic forms (theta-mu)' P (theta-mu),
        the fit error the engine tracks, for particle rows."""
        P = np.asarray(particles, dtype=float)
        if P.ndim != 2 or P.shape[1] != self.mean.size:
            raise ShapeError(f"particles shape {P.shape} is not a particle stack "
                             f"(N, {self.mean.size})")
        D = P - self.mean
        return -D @ self.precision, np.einsum("ni,ij,nj->n", D, self.precision, D)


@dataclass(frozen=True)
class RegressionTarget:
    """Gaussian-noise regression of the stress of reference-pinned potential
    networks (``mechanics.potential_stress``) against a strain-stress dataset.

    log-likelihood (up to theta-independent constants):
        -(1/(2 sigma^2)) * sum_i |S_i - S(E_i; theta)|^2

    The strain features, invariants and dI/dE, are prepared once, here.
    """

    dataset: Dataset
    noise_var: float
    _features: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.noise_var <= 0.0:
            raise ShapeError(f"noise_var must be > 0, got {self.noise_var}")
        if self.dataset.outputs.shape[1] != 6:
            raise ShapeError(f"outputs {self.dataset.outputs.shape} are not Voigt "
                             f"stress rows (n, 6)")
        object.__setattr__(self, "_features", strain_features(self.dataset.inputs))

    def _block_score_and_mse(self, template, P):
        """Scores and per-particle MSEs of one particle block, from the
        forward passes that its stress prediction shares with its score."""
        pred, score_of = potential_stress(template, P, self._features)
        R = self.dataset.outputs - pred
        S = score_of(R)
        S /= self.noise_var
        return S, np.mean((R * R).reshape(len(R), -1), axis=1)

    def score_and_mse_batch(self, template, particles) -> tuple[np.ndarray, np.ndarray]:
        """Scores and MSEs per particle block of the stack
        (``network.particle_blocks`` at ``network.PASS_ELEMENTS``), joined
        along the particle axis; a one-block stack is scored whole, with
        nothing to join."""
        if not isinstance(template, network.LayeredNet):
            raise ShapeError(f"a particle stack of networks needs its template "
                             f"graph, got {template!r}")
        P = np.asarray(particles, dtype=float)
        blocks = network.particle_blocks(template, len(P), len(self.dataset),
                                         network.PASS_ELEMENTS)
        if len(blocks) == 1:
            return self._block_score_and_mse(template, P)
        parts = [self._block_score_and_mse(template, P[block]) for block in blocks]
        return tuple(np.concatenate(p) for p in zip(*parts))
