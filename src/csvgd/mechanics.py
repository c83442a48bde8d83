"""Hyperelastic physics: strain invariants, the truth model, stress, the
strain-stress dataset and its generation, and the stress of a particle stack
of potential networks.

Strain lives in Lagrange form E = (F'F - I)/2; invariants are taken of
C = 2E + I.  Stress is the potential derivative S = dPhi/dE expanded through
the invariant chain rule.  Stress tensors travel as 6-component Voigt rows
in the order (11, 22, 33, 23, 13, 12).

Every stress goes through one function, ``_pinned_stress``: from a
potential's invariant gradient at the strain rows and at the reference
invariants (3, 3, 1) it forms the stress of that potential pinned to zero
stress at E = 0.  ``truth_stress`` feeds it the Gent-type truth model's
gradient (the data ``generate_data`` samples), and ``potential_stress`` the
input gradients of a particle stack of potential networks, from the strain
rows' ``strain_features``; ``potential_stress_blocks`` gives the same stress
rows of a stack, block by block, where no score is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import network
from .errors import DomainError, ShapeError
from .files import write_csv_atomically

__all__ = [
    "VOIGT_PAIRS",
    "VOIGT_NAMES",
    "sym_to_voigt",
    "voigt_to_sym",
    "invariants_batch",
    "invariant_derivatives_batch",
    "TruthParams",
    "truth_stress",
    "strain_features",
    "potential_stress",
    "potential_stress_blocks",
    "Dataset",
    "save_dataset",
    "generate_data",
    "HyperelasticData",
    "icnn_template",
]

VOIGT_PAIRS = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))
VOIGT_NAMES = ("11", "22", "33", "23", "13", "12")
REFERENCE_INVARIANTS = (3.0, 3.0, 1.0)
_REFERENCE_ROW = np.array([REFERENCE_INVARIANTS])
_REFERENCE_ROW.flags.writeable = False
# (2, 4, 2): the diagonal scales of dI_i/dE at E = 0, the direction of n(theta)
_REFERENCE_SLOPE = np.array([[2.0, 4.0, 2.0]])
_REFERENCE_SLOPE.flags.writeable = False
# draws of a training deformation F before generate_data gives up on det F > 0
MAX_RETRIES = 100


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


def _truth_gradient(params: TruthParams, inv) -> np.ndarray:
    """(dPsi/dI1, dPsi/dI2, dPsi/dI3) rows of the reference material's
    strain-energy density at invariant rows (n, 3),

        Psi = -(t1/2) J_m log(1 - (I1-3)/J_m) - t2 log(I2/J)
              + t3 ((J^2-1)/2 - log J),   J = sqrt(I3).

    Raises DomainError where Psi is undefined: at or beyond the Gent lock-up
    I1 = 3 + J_m, or where I2 or I3 is not positive.
    """
    i1, i2, i3 = inv[..., 0], inv[..., 1], inv[..., 2]
    p = params
    gent = 1.0 - (i1 - 3.0) / p.j_m
    if np.any(gent <= 0.0):
        raise DomainError(f"I1 = {i1.max()} at or beyond the lock-up stretch")
    if np.any(i2 <= 0.0) or np.any(i3 <= 0.0):
        raise DomainError(f"invariants must be positive, got min I2={i2.min()}, "
                          f"I3={i3.min()}")
    g1 = 0.5 * p.t1 / gent
    g2 = -p.t2 / i2
    g3 = 0.5 * p.t2 / i3 + 0.5 * p.t3 * (1.0 - 1.0 / i3)
    return np.stack([g1, g2, g3], axis=-1)


def _pinned_stress(g, g_ref, inv, dI) -> np.ndarray:
    """Voigt stress rows S = sum_i dPhi_hat/dI_i * dI_i/dE of a potential
    pinned to zero stress at the reference state,

        Phi_hat(I) = Phi(I) - Phi(3,3,1) - n (sqrt(I3) - 1),
        n = 2 d1 + 4 d2 + 2 d3,

    where (d1, d2, d3) = ``g_ref`` is Phi's invariant gradient at (3,3,1) and
    (2, 4, 2) are the diagonal scales of dI_i/dE at E = 0, so S(E=0) = 0 by
    construction.  ``g`` (..., rows, 3) is Phi's gradient at the invariant
    rows ``inv`` and ``dI`` (rows, 3, 6) their dI/dE; ``g`` and ``g_ref``
    (..., 3) may carry a particle axis.  The reference gradient comes from its own
    one-row evaluation: inside the batch of the other rows it would round
    differently.

    The sum over i runs in order of i from +0.0, the order of the einsum
    ``"...ni,nik->...nk"``, whose bits the trajectories rest on.  It is
    formed as (..., 6, rows), so that each product runs along the rows
    rather than along the 6 components.
    """
    slope = 2.0 * g_ref[..., 0] + 4.0 * g_ref[..., 1] + 2.0 * g_ref[..., 2]
    g = np.asarray(g, dtype=float).swapaxes(-1, -2)        # (..., 3, rows)
    dI = np.ascontiguousarray(np.moveaxis(dI, 0, -1))      # (3, 6, rows)
    g3 = g[..., 2, :] - 0.5 * slope[..., None] / np.sqrt(inv[:, 2])
    S = g[..., 0, None, :] * dI[0]
    S += 0.0
    S += g[..., 1, None, :] * dI[1]
    S += g3[..., None, :] * dI[2]
    return np.ascontiguousarray(S.swapaxes(-1, -2))


def _strain_rows(E_voigt) -> np.ndarray:
    """Voigt strain rows (n, 6) as a float array; one strain is a one-row
    stack, and anything else is a ShapeError."""
    E = np.asarray(E_voigt, dtype=float)
    if E.ndim != 2 or E.shape[1] != 6:
        raise ShapeError(f"strain shape {E.shape} is not Voigt rows (n, 6)")
    return E


def truth_stress(E_voigt, params: TruthParams | None = None) -> np.ndarray:
    """Voigt stress rows of the reference-pinned truth model at Voigt strain
    rows, shape (n, 6) -> (n, 6)."""
    params = params or TruthParams()
    E = _strain_rows(E_voigt)
    inv = invariants_batch(E)
    g_ref = _truth_gradient(params, _REFERENCE_ROW)[0]
    return _pinned_stress(_truth_gradient(params, inv), g_ref, inv,
                          invariant_derivatives_batch(E))


def strain_features(E_voigt) -> tuple[np.ndarray, np.ndarray]:
    """The strain-only inputs of ``potential_stress`` at Voigt strain rows
    (n, 6): the invariant rows (n, 3) and their dI/dE, (n, 3, 6)."""
    E = _strain_rows(E_voigt)
    return invariants_batch(E), invariant_derivatives_batch(E)


def potential_stress(template, particles, features):
    """Voigt stress rows of every potential network of a particle stack at
    the strain rows of ``features``, shape (N, n, 6), and ``score_of``:
    residuals (N, n, 6) -> flat gradients (N, D) of
    sum_b residuals[a, b] . S(E[b]; theta_a).

    ``template`` is the shared graph and ``particles`` (N, D) its flat
    parameter rows.  Both read one forward pass over the strain rows and one
    over the reference row.  With u_i = r . voigt(dI_i/dE) the score reduces
    to the parameter gradient of the input-directional derivative
    u . grad_I NN, minus the residual-weighted gradient of the normalization
    constant n(theta) = (2, 4, 2) . grad_I NN(3, 3, 1).
    """
    inv, dI = features
    rows = network.forward_pass(template, inv, particles)
    ref = network.forward_pass(template, _REFERENCE_ROW, particles)
    pred = _pinned_stress(rows.grad_input()[..., 0, :],
                          ref.grad_input()[..., 0, 0, :], inv, dI)

    def score_of(residuals) -> np.ndarray:
        u = np.einsum("...nk,nik->...ni", residuals, dI)
        g = rows.grad_params_dirderiv(u)  # the potential's unit upstream
        # d/dtheta of the n(theta) * (sqrt(I3) - 1) correction
        w_ref = np.sum(u[..., 2] / (2.0 * np.sqrt(inv[:, 2])), axis=-1)
        g_ref = ref.grad_params_dirderiv(_REFERENCE_SLOPE)
        g_ref *= w_ref[..., None]
        g -= g_ref
        return g

    return pred, score_of


def potential_stress_blocks(template, particles, features, budget):
    """The stress rows of ``potential_stress``, without its score, for each
    particle block of the stack (``network.particle_blocks`` at ``budget``):
    pairs (block, stress rows (b, n, 6)), bit for bit the rows
    ``potential_stress`` gives.

    The one-row reference pass is made once for the whole stack (its arrays
    hold one row per particle), not once per block: about 55 us of a 450 us
    one-particle block over 1001 rows at 3-4-4-1, which small blocks would
    pay again and again.
    """
    inv, dI = features
    g_ref = network.forward_pass(template, _REFERENCE_ROW, particles).grad_input()
    for block in network.particle_blocks(template, len(particles), len(inv), budget):
        # the block's forward pass is freed before its rows are yielded, so no
        # two blocks' passes are alive at once
        J = network.forward_pass(template, inv, particles[block]).grad_input()
        yield block, _pinned_stress(J[..., 0, :], g_ref[block, 0, 0], inv, dI)


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
    rows = np.concatenate((data.inputs, data.outputs), axis=1).tolist()
    write_csv_atomically(path, [header] + [map(repr, row) for row in rows])


@dataclass(frozen=True)
class HyperelasticData:
    """Training and test sets plus the test-path parameterization."""

    train: Dataset
    test: Dataset
    test_delta: np.ndarray    # path parameter, F = diag(1+d, sqrt(1+d), sqrt(1+d))

    @property
    def test_f11(self) -> np.ndarray:
        return 1.0 + self.test_delta


def generate_data(params: TruthParams | None = None, n_train: int = 80,
                  delta: float = 0.2, noise_level: float = 0.1, seed: int = 0,
                  n_test: int = 1001, test_range: float = 0.4) -> HyperelasticData:
    """Sample strain-stress pairs from the reference-normalized truth model.

    Training inputs come from F = I + H with H_ij ~ U[-delta, delta]
    (resampled while det F <= 0, MAX_RETRIES times at most); outputs carry
    multiplicative noise S * (1 + noise_level * eta) per Voigt component. The test path is the
    uniaxial family F = diag(1+d, sqrt(1+d), sqrt(1+d)) on a uniform d-grid;
    test targets are noiseless.
    """
    params = params or TruthParams()
    rng = np.random.default_rng(seed)

    E_rows = np.empty((n_train, 6))
    for i in range(n_train):
        for attempt in range(MAX_RETRIES + 1):
            F = np.eye(3) + rng.uniform(-delta, delta, size=(3, 3))
            if np.linalg.det(F) > 0.0:
                break
        else:
            raise DomainError(f"no positive-determinant F after {MAX_RETRIES} retries")
        E_rows[i] = sym_to_voigt(0.5 * (F.T @ F - np.eye(3)))
    S_rows = truth_stress(E_rows, params)
    S_noisy = S_rows * (1.0 + noise_level * rng.standard_normal(S_rows.shape))

    d_grid = np.linspace(-test_range, test_range, n_test)
    stretch = 1.0 + d_grid
    E_test = np.zeros((n_test, 6))
    E_test[:, 0] = 0.5 * (stretch**2 - 1.0)
    E_test[:, 1] = 0.5 * (stretch - 1.0)   # (sqrt(1+d))^2 = 1+d
    E_test[:, 2] = E_test[:, 1]
    S_test = truth_stress(E_test, params)

    names_e = tuple(f"E{n}" for n in VOIGT_NAMES)
    names_s = tuple(f"S{n}" for n in VOIGT_NAMES)
    return HyperelasticData(
        train=Dataset(E_rows, S_noisy, names_e, names_s),
        test=Dataset(E_test, S_test, names_e, names_s),
        test_delta=d_grid,
    )


def icnn_template(widths=(3, 30, 30, 1)) -> network.LayeredNet:
    """Zero-weight convex-potential chain: softplus hidden layers, identity
    output, all matrices except the input one constrained nonnegative."""
    widths = tuple(int(w) for w in widths)
    n_links = len(widths) - 1
    weights = tuple(np.zeros((widths[k + 1], widths[k])) for k in range(n_links))
    nonneg = tuple([False] + [True] * (n_links - 1))
    return network.LayeredNet(widths, weights, nonneg)
