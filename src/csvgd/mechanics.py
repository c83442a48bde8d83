"""Hyperelastic physics: strain invariants, potentials, stress, data generation.

Strain lives in Lagrange form E = (F'F - I)/2; invariants are taken of
C = 2E + I.  Stress is the potential derivative S = dPhi/dE expanded through
the invariant chain rule.  Stress tensors travel as 6-component Voigt rows
in the order (11, 22, 33, 23, 13, 12).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import network
from .errors import DomainError, ShapeError
from .likelihoods import Dataset

__all__ = [
    "VOIGT_PAIRS",
    "VOIGT_NAMES",
    "sym_to_voigt",
    "voigt_to_sym",
    "invariants",
    "invariants_batch",
    "invariant_derivatives",
    "invariant_derivatives_batch",
    "TruthParams",
    "truth_potential",
    "TruthPotential",
    "NetPotential",
    "reference_normalize",
    "stress_from_potential",
    "stress_batch",
    "generate_data",
    "HyperelasticData",
    "StressRegressionModel",
    "icnn_template",
]

VOIGT_PAIRS = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))
VOIGT_NAMES = ("11", "22", "33", "23", "13", "12")
REFERENCE_INVARIANTS = (3.0, 3.0, 1.0)


def sym_to_voigt(M) -> np.ndarray:
    """Symmetric 3x3 (or batch (..., 3, 3)) to Voigt rows (..., 6)."""
    M = np.asarray(M, dtype=float)
    return np.stack([M[..., i, j] for i, j in VOIGT_PAIRS], axis=-1)


def voigt_to_sym(v) -> np.ndarray:
    """Voigt rows (..., 6) back to symmetric matrices (..., 3, 3)."""
    v = np.asarray(v, dtype=float)
    M = np.zeros(v.shape[:-1] + (3, 3))
    for k, (i, j) in enumerate(VOIGT_PAIRS):
        M[..., i, j] = v[..., k]
        M[..., j, i] = v[..., k]
    return M


def _check_sym(E):
    E = np.asarray(E, dtype=float)
    if E.shape != (3, 3):
        raise ShapeError(f"expected a 3x3 strain tensor, got {E.shape}")
    if not np.allclose(E, E.T, atol=1e-10):
        raise ShapeError("strain tensor must be symmetric")
    return 0.5 * (E + E.T)


def invariants(E) -> tuple[float, float, float]:
    """Principal invariants (I1, I2, I3) of C = 2E + I."""
    E = _check_sym(E)
    C = 2.0 * E + np.eye(3)
    i1 = float(np.trace(C))
    i2 = float(0.5 * (i1 * i1 - np.trace(C @ C)))
    i3 = float(np.linalg.det(C))
    return i1, i2, i3


def invariants_batch(E_voigt) -> np.ndarray:
    """Invariants for Voigt strain rows, shape (n, 6) -> (n, 3)."""
    E = np.asarray(E_voigt, dtype=float)
    C = 2.0 * E.copy()
    C[..., :3] += 1.0
    c11, c22, c33, c23, c13, c12 = (C[..., k] for k in range(6))
    i1 = c11 + c22 + c33
    tr_c2 = (c11 * c11 + c22 * c22 + c33 * c33
             + 2.0 * (c23 * c23 + c13 * c13 + c12 * c12))
    i2 = 0.5 * (i1 * i1 - tr_c2)
    i3 = (c11 * (c22 * c33 - c23 * c23)
          - c12 * (c12 * c33 - c23 * c13)
          + c13 * (c12 * c23 - c22 * c13))
    return np.stack([i1, i2, i3], axis=-1)


def _adjugate_sym(C) -> np.ndarray:
    """Adjugate of symmetric (..., 3, 3); equals det(C) * inv(C) without inverting."""
    a = np.empty_like(C)
    a[..., 0, 0] = C[..., 1, 1] * C[..., 2, 2] - C[..., 1, 2] * C[..., 1, 2]
    a[..., 1, 1] = C[..., 0, 0] * C[..., 2, 2] - C[..., 0, 2] * C[..., 0, 2]
    a[..., 2, 2] = C[..., 0, 0] * C[..., 1, 1] - C[..., 0, 1] * C[..., 0, 1]
    a[..., 0, 1] = a[..., 1, 0] = C[..., 0, 2] * C[..., 1, 2] - C[..., 0, 1] * C[..., 2, 2]
    a[..., 0, 2] = a[..., 2, 0] = C[..., 0, 1] * C[..., 1, 2] - C[..., 0, 2] * C[..., 1, 1]
    a[..., 1, 2] = a[..., 2, 1] = C[..., 0, 1] * C[..., 0, 2] - C[..., 0, 0] * C[..., 1, 2]
    return a


def invariant_derivatives(E) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """dI1/dE = 2I, dI2/dE = 2(I1 I - C), dI3/dE = 2 adj(C) = 2 I3 C^-1."""
    E = _check_sym(E)
    C = 2.0 * E + np.eye(3)
    i1, _, i3 = invariants(E)
    if i3 <= 0.0:
        raise DomainError(f"I3 = {i3} must be > 0")
    d1 = 2.0 * np.eye(3)
    d2 = 2.0 * (i1 * np.eye(3) - C)
    d3 = 2.0 * _adjugate_sym(C)
    return d1, d2, d3


def invariant_derivatives_batch(E_voigt) -> np.ndarray:
    """Voigt rows of (dI1/dE, dI2/dE, dI3/dE), shape (n, 6) -> (n, 3, 6)."""
    E = np.asarray(E_voigt, dtype=float)
    C = voigt_to_sym(E) * 2.0 + np.eye(3)
    inv = invariants_batch(E)
    eye_v = sym_to_voigt(np.eye(3))
    d1 = np.broadcast_to(2.0 * eye_v, E.shape).copy()
    d2 = 2.0 * (inv[..., 0:1] * eye_v - sym_to_voigt(C))
    d3 = 2.0 * sym_to_voigt(_adjugate_sym(C))
    return np.stack([d1, d2, d3], axis=-2)


@dataclass(frozen=True)
class TruthParams:
    """Constants of the Gent-type reference material."""

    j_m: float = 77.931
    t1: float = 2.4195
    t2: float = -0.75
    t3: float = 1.20975

    def __post_init__(self):
        if self.j_m <= 0.0:
            raise DomainError(f"j_m must be > 0, got {self.j_m}")


def truth_potential(params: TruthParams, i1: float, i2: float, i3: float) -> float:
    """Reference strain-energy density.

    Psi = -(t1/2) J_m log(1 - (I1-3)/J_m) - t2 log(I2/J) + t3 ((J^2-1)/2 - log J)
    with J = sqrt(I3).  Raises DomainError when any log argument is <= 0
    (Gent lock-up at I1 -> 3 + J_m).
    """
    gent = 1.0 - (i1 - 3.0) / params.j_m
    if gent <= 0.0:
        raise DomainError(f"I1 = {i1} at or beyond the lock-up stretch")
    if i2 <= 0.0 or i3 <= 0.0:
        raise DomainError(f"invariants must be positive, got I2={i2}, I3={i3}")
    j = np.sqrt(i3)
    return float(-0.5 * params.t1 * params.j_m * np.log(gent)
                 - params.t2 * np.log(i2 / j)
                 + params.t3 * (0.5 * (j * j - 1.0) - np.log(j)))


class TruthPotential:
    """Truth model as a potential-with-gradient object in invariant space."""

    def __init__(self, params: TruthParams | None = None):
        self.params = params or TruthParams()

    def value(self, inv) -> np.ndarray:
        inv = np.atleast_2d(np.asarray(inv, dtype=float))
        return np.array([truth_potential(self.params, *row) for row in inv])

    def gradient(self, inv) -> np.ndarray:
        """(dPsi/dI1, dPsi/dI2, dPsi/dI3) rows for invariant rows."""
        inv = np.atleast_2d(np.asarray(inv, dtype=float))
        i1, i2, i3 = inv[..., 0], inv[..., 1], inv[..., 2]
        p = self.params
        g1 = 0.5 * p.t1 / (1.0 - (i1 - 3.0) / p.j_m)
        g2 = -p.t2 / i2
        g3 = 0.5 * p.t2 / i3 + 0.5 * p.t3 * (1.0 - 1.0 / i3)
        return np.stack([g1, g2, g3], axis=-1)


class NetPotential:
    """A scalar-output network evaluated on invariant triples; with flat
    parameter rows ``params`` (N, D), the stack of N such networks."""

    def __init__(self, net: network.LayeredNet, params=None):
        if net.layer_widths[0] != 3 or net.layer_widths[-1] != 1:
            raise ShapeError("potential network must map 3 invariants to 1 value")
        self.net = net
        self.params = params

    def value(self, inv) -> np.ndarray:
        return network.forward_batch(self.net, np.atleast_2d(inv), self.params)[..., 0]

    def gradient(self, inv) -> np.ndarray:
        return network.grad_input_batch(self.net, np.atleast_2d(inv),
                                        self.params)[..., 0, :]


def _reference_slope(g_ref) -> np.ndarray:
    """n = 2 d1 + 4 d2 + 2 d3 from the potential's gradient at the reference."""
    return 2.0 * g_ref[..., 0] + 4.0 * g_ref[..., 1] + 2.0 * g_ref[..., 2]


def _pin_reference(g, slope, inv) -> np.ndarray:
    """Gradient rows of Phi_hat from those of Phi and the reference slope n."""
    g = np.array(g, dtype=float)
    g[..., 2] -= 0.5 * slope[..., None] / np.sqrt(inv[:, 2])
    return g


class _ReferenceNormalized:
    """Potential wrapper that pins value and stress to zero at the reference.

    Phi_hat(I) = Phi(I) - Phi(3,3,1) - n (sqrt(I3) - 1), with
    n = 2 d1 + 4 d2 + 2 d3 evaluated at the reference; (2, 4, 2) are the
    diagonal scales of dI_i/dE at E = 0, so S(E=0) = 0 by construction.
    The reference is evaluated as its own one-row batch: inside the batch of
    the other rows it would round differently.
    """

    def __init__(self, base):
        self.base = base

    def _slope(self):
        g = self.base.gradient(np.array([REFERENCE_INVARIANTS]))[..., 0, :]
        return _reference_slope(g)

    def value(self, inv) -> np.ndarray:
        inv = np.atleast_2d(np.asarray(inv, dtype=float))
        v0 = self.base.value(np.array([REFERENCE_INVARIANTS]))
        return (self.base.value(inv) - v0
                - self._slope()[..., None] * (np.sqrt(inv[:, 2]) - 1.0))

    def gradient(self, inv) -> np.ndarray:
        inv = np.atleast_2d(np.asarray(inv, dtype=float))
        return _pin_reference(self.base.gradient(inv), self._slope(), inv)


def reference_normalize(potential) -> _ReferenceNormalized:
    """Wrap any potential-with-gradient so its stress vanishes at E = 0."""
    return _ReferenceNormalized(potential)


def stress_from_potential(potential, E) -> np.ndarray:
    """Second Piola-Kirchhoff stress S = sum_i dPhi/dI_i * dI_i/dE at strain E."""
    E = _check_sym(E)
    inv = np.array([invariants(E)])
    g = np.asarray(potential.gradient(inv))[0]
    d1, d2, d3 = invariant_derivatives(E)
    return g[0] * d1 + g[1] * d2 + g[2] * d3


def _stress_rows(g, dI) -> np.ndarray:
    """S = sum_i dPhi/dI_i * dI_i/dE per row; g may carry a particle axis."""
    return np.einsum("...ni,nik->...nk", g, dI)


def stress_batch(potential, E_voigt) -> np.ndarray:
    """Voigt stress rows for Voigt strain rows."""
    E = np.atleast_2d(np.asarray(E_voigt, dtype=float))
    g = np.asarray(potential.gradient(invariants_batch(E)))
    return _stress_rows(g, invariant_derivatives_batch(E))


@dataclass(frozen=True)
class HyperelasticData:
    """Training and test sets plus the test-path parameterization."""

    train: Dataset
    test: Dataset
    test_delta: np.ndarray    # path parameter, F = diag(1+d, sqrt(1+d), sqrt(1+d))
    noise_level: float
    seed: int

    @property
    def test_f11(self) -> np.ndarray:
        return 1.0 + self.test_delta


def generate_data(params: TruthParams | None = None, n_train: int = 80,
                  delta: float = 0.2, noise_level: float = 0.1, seed: int = 0,
                  n_test: int = 1001, test_range: float = 0.4,
                  max_retries: int = 100) -> HyperelasticData:
    """Sample strain-stress pairs from the reference-normalized truth model.

    Training inputs come from F = I + H with H_ij ~ U[-delta, delta]
    (resampled while det F <= 0); outputs carry multiplicative noise
    S * (1 + noise_level * eta) per Voigt component. The test path is the
    uniaxial family F = diag(1+d, sqrt(1+d), sqrt(1+d)) on a uniform d-grid;
    test targets are noiseless.
    """
    params = params or TruthParams()
    truth = reference_normalize(TruthPotential(params))
    rng = np.random.default_rng(seed)

    E_rows = np.empty((n_train, 6))
    for i in range(n_train):
        for attempt in range(max_retries + 1):
            F = np.eye(3) + rng.uniform(-delta, delta, size=(3, 3))
            if np.linalg.det(F) > 0.0:
                break
        else:
            raise DomainError(f"no positive-determinant F after {max_retries} retries")
        E_rows[i] = sym_to_voigt(0.5 * (F.T @ F - np.eye(3)))
    S_rows = stress_batch(truth, E_rows)
    S_noisy = S_rows * (1.0 + noise_level * rng.standard_normal(S_rows.shape))

    d_grid = np.linspace(-test_range, test_range, n_test)
    stretch = 1.0 + d_grid
    E_test = np.zeros((n_test, 6))
    E_test[:, 0] = 0.5 * (stretch**2 - 1.0)
    E_test[:, 1] = 0.5 * (stretch - 1.0)   # (sqrt(1+d))^2 = 1+d
    E_test[:, 2] = E_test[:, 1]
    S_test = stress_batch(truth, E_test)

    names_e = tuple(f"E{n}" for n in VOIGT_NAMES)
    names_s = tuple(f"S{n}" for n in VOIGT_NAMES)
    return HyperelasticData(
        train=Dataset(E_rows, S_noisy, names_e, names_s, noise_level),
        test=Dataset(E_test, S_test, names_e, names_s, 0.0),
        test_delta=d_grid,
        noise_level=noise_level,
        seed=seed,
    )


class StressRegressionModel:
    """Pushforward map from Voigt strain rows to Voigt stress rows through a
    reference-normalized network potential, with its exact parameter score.

    Both act on a particle stack: ``template`` is the shared graph and
    ``particles`` (N, D) its flat parameter rows.  The strain-only inputs,
    invariants and dI/dE, come from ``prepare`` once per strain set.
    """

    def prepare(self, E_voigt) -> tuple[np.ndarray, np.ndarray]:
        E = np.atleast_2d(np.asarray(E_voigt, dtype=float))
        return invariants_batch(E), invariant_derivatives_batch(E)

    def predict_and_score(self, template, particles, features):
        """Voigt stress rows of every particle, shape (N, n, 6), and
        ``score_of``: residuals (N, n, 6) -> flat gradients (N, D) of
        sum_b residuals[a, b] . S(E[b]; theta_a).

        Both read one forward pass over the strain rows and one over the
        reference row.  With u_i = r . voigt(dI_i/dE) the score reduces to the
        parameter gradient of the input-directional derivative u . grad_I NN,
        minus the residual-weighted gradient of the normalization constant
        n(theta) = (2, 4, 2) . grad_I NN(3, 3, 1).
        """
        inv, dI = features
        rows = network.forward_pass(template, inv, particles)
        ref = network.forward_pass(template, np.array([REFERENCE_INVARIANTS]), particles)
        slope = _reference_slope(ref.grad_input()[..., 0, 0, :])
        pred = _stress_rows(_pin_reference(rows.grad_input()[..., 0, :], slope, inv), dI)

        def score_of(residuals) -> np.ndarray:
            u = np.einsum("...nk,nik->...ni", residuals, dI)
            g = rows.grad_params_dirderiv(u, np.ones((len(inv), 1)))
            # d/dtheta of the n(theta) * (sqrt(I3) - 1) correction
            w_ref = np.sum(u[..., 2] / (2.0 * np.sqrt(inv[:, 2])), axis=-1)
            g_ref = ref.grad_params_dirderiv([[2.0, 4.0, 2.0]], [[1.0]])
            return g - w_ref[..., None] * g_ref

        return pred, score_of

    def predict(self, template, particles, features) -> np.ndarray:
        """Voigt stress rows of every particle, shape (N, n, 6)."""
        return self.predict_and_score(template, particles, features)[0]


def icnn_template(widths=(3, 30, 30, 1)) -> network.LayeredNet:
    """Zero-weight convex-potential chain: softplus hidden layers, identity
    output, all matrices except the input one constrained nonnegative."""
    widths = tuple(int(w) for w in widths)
    n_links = len(widths) - 1
    weights = tuple(np.zeros((widths[k + 1], widths[k])) for k in range(n_links))
    activations = tuple(["softplus"] * (n_links - 1) + ["identity"])
    nonneg = tuple([False] + [True] * (n_links - 1))
    return network.LayeredNet(widths, weights, (), activations, nonneg)
