"""Likelihood scores for the two experiment targets, and the dataset they fit.

Every target scores the whole particle stack in the one call the engine makes,
``score_and_mse_batch(template, particles) -> (S (N, D), mse (N,))``, where
``particles`` holds flat parameter rows and ``template`` is the network graph
they share (None for raw vectors, as in MvnTarget).  The scores are the
gradients of the log-likelihoods each class docstring states.  A regression
target evaluates its model on the stack in the particle blocks of
``network.particle_blocks``, inside that one call; a stack that fits one
block is evaluated whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import network
from .errors import ShapeError
from .files import write_csv_atomically

__all__ = [
    "MvnTarget",
    "Dataset",
    "RegressionTarget",
    "DirectNetModel",
    "save_dataset",
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
        D = np.asarray(particles, dtype=float) - self.mean
        return -D @ self.precision, np.einsum("ni,ij,nj->n", D, self.precision, D)


@dataclass(frozen=True)
class Dataset:
    """Input-output sample pairs with their column names."""

    inputs: np.ndarray          # (n, d_in)
    outputs: np.ndarray         # (n, d_out)
    input_names: tuple[str, ...] = ()
    output_names: tuple[str, ...] = ()

    def __post_init__(self):
        X = np.asarray(self.inputs, dtype=float)
        Y = np.asarray(self.outputs, dtype=float)
        if X.ndim != 2 or Y.ndim != 2:
            raise ShapeError(f"inputs {X.shape} and outputs {Y.shape} must be sample "
                             f"rows (n, width)")
        if len(X) != len(Y):
            raise ShapeError(f"{len(X)} inputs vs {len(Y)} outputs")
        if len(X) == 0:
            raise ShapeError("dataset must be non-empty")
        object.__setattr__(self, "inputs", X)
        object.__setattr__(self, "outputs", Y)
        if not self.input_names:
            object.__setattr__(self, "input_names",
                               tuple(f"x{i}" for i in range(X.shape[1])))
        if not self.output_names:
            object.__setattr__(self, "output_names",
                               tuple(f"y{i}" for i in range(Y.shape[1])))

    def __len__(self):
        return len(self.inputs)


def save_dataset(data: Dataset, path) -> None:
    """Delimited text, one row per sample: input columns then output columns."""
    header = list(data.input_names) + list(data.output_names)
    write_csv_atomically(path, [header] + [
        [repr(float(v)) for v in x] + [repr(float(v)) for v in y]
        for x, y in zip(data.inputs, data.outputs)])


class DirectNetModel:
    """Pushforward map that is just the network output itself, for a particle
    stack: ``template`` is the shared graph, ``particles`` (N, D) its flat rows."""

    def prepare(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ShapeError(f"inputs {X.shape} must be sample rows (n, width)")
        return X

    def predict_and_score(self, template, particles, X):
        """Outputs (N, n, out) and ``score_of``: residuals -> flat gradients
        (N, D) of sum_b residuals[a, b] . net_a(X[b]), from one forward pass."""
        rows = network.forward_pass(template, X, particles)
        return rows.output(), rows.grad_params


@dataclass(frozen=True)
class RegressionTarget:
    """Gaussian-noise regression of a model pushforward against a dataset.

    log-likelihood (up to theta-independent constants):
        -(1/(2 sigma^2)) * sum_i |y_i - yhat(x_i; theta)|^2

    The model's data-only preparation of the inputs is done once, here.  A
    model gives its predictions and its score as a function of the residuals
    from one call, ``predict_and_score(template, particles, features) ->
    (pred, score_of)``, so both share one forward pass.
    """

    dataset: Dataset
    noise_var: float
    model: object = field(default_factory=DirectNetModel)
    _inputs: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.noise_var <= 0.0:
            raise ShapeError(f"noise_var must be > 0, got {self.noise_var}")
        object.__setattr__(self, "_inputs", self.model.prepare(self.dataset.inputs))

    def _block_score_and_mse(self, template, P):
        """Scores and per-particle MSEs of one particle block, from one call
        of the model."""
        pred, score_of = self.model.predict_and_score(template, P, self._inputs)
        if pred.shape[1:] != self.dataset.outputs.shape:
            raise ShapeError(f"model output shape {pred.shape[1:]} does not match "
                             f"data {self.dataset.outputs.shape}")
        R = self.dataset.outputs - pred
        S = score_of(R)
        S /= self.noise_var
        return S, np.mean((R * R).reshape(len(R), -1), axis=1)

    def score_and_mse_batch(self, template, particles) -> tuple[np.ndarray, np.ndarray]:
        """Scores and MSEs per particle block of the stack
        (``network.particle_blocks``), joined along the particle axis; a
        one-block stack is scored whole, with nothing to join."""
        P = np.asarray(particles, dtype=float)
        blocks = network.particle_blocks(template, len(P), len(self.dataset))
        if len(blocks) == 1:
            return self._block_score_and_mse(template, P)
        parts = [self._block_score_and_mse(template, P[block]) for block in blocks]
        return tuple(np.concatenate(p) for p in zip(*parts))
