"""Repulsive exponential-family kernels and bandwidth selection.

kappa(a, b) = exp(-(1/(gamma*beta)) * sum_i |a_i - b_i|^beta),  beta in {1, 2}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError

__all__ = [
    "KernelSpec",
    "kernel_eval",
    "kernel_grad",
    "kernel_matrix",
    "median_bandwidth",
    "silverman_bandwidth",
    "BANDWIDTH_FLOOR",
]

# prevents division blow-ups when all particles coincide
BANDWIDTH_FLOOR = 1e-6


@dataclass(frozen=True)
class KernelSpec:
    """Kernel hyperparameters: exponent beta in {1, 2}, bandwidth gamma > 0.

    bandwidth_rule selects how the engine resolves gamma each iteration:
    "fixed" uses the stored value, "median" re-derives it from the current
    median inter-particle distance.
    """

    beta: int
    gamma: float
    bandwidth_rule: str = "fixed"

    def __post_init__(self):
        if self.beta not in (1, 2):
            raise DomainError(f"beta must be 1 or 2, got {self.beta}")
        if self.gamma <= 0.0:
            raise DomainError(f"gamma must be > 0, got {self.gamma}")
        if self.bandwidth_rule not in ("fixed", "median"):
            raise DomainError(f"unknown bandwidth rule {self.bandwidth_rule!r}")


def _pair(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ShapeError(f"vector shapes differ: {a.shape} vs {b.shape}")
    return a, b


def kernel_eval(spec: KernelSpec, a, b) -> float:
    """Kernel value in (0, 1]; equals 1 iff a == b."""
    a, b = _pair(a, b)
    return float(np.exp(-np.sum(np.abs(a - b) ** spec.beta) / (spec.gamma * spec.beta)))


def kernel_grad(spec: KernelSpec, a, b) -> np.ndarray:
    """Gradient of kernel_eval with respect to its first argument.

    (1/gamma) * |b - a|^(beta-1) * sign(b - a) * kappa(a, b) per coordinate;
    identically zero where a and b coincide (sign(0) = 0 covers beta = 1).
    """
    a, b = _pair(a, b)
    d = b - a
    k = kernel_eval(spec, a, b)
    if spec.beta == 2:
        return d * (k / spec.gamma)
    return np.sign(d) * (k / spec.gamma)


def kernel_matrix(spec: KernelSpec, particles, gamma: float | None = None) -> np.ndarray:
    """Symmetric kernel Gram matrix over particle rows."""
    P = np.asarray(particles, dtype=float)
    g = spec.gamma if gamma is None else gamma
    diff = P[:, None, :] - P[None, :, :]
    return np.exp(-(np.abs(diff) ** spec.beta).sum(axis=-1) / (g * spec.beta))


def median_bandwidth(median_distance: float, n_particles: int,
                     floor: float = BANDWIDTH_FLOOR) -> float:
    """Adaptive bandwidth sqrt(0.5 * median_distance / log(n+1)), clamped below.

    ``median_distance`` is the median pairwise inter-particle distance; an
    undefined summary (NaN, e.g. a single particle with no pairs) falls back
    to the floor.  Scaling the particles by c scales gamma by sqrt(c), not by
    c^2 as a scale-equivariant rule for the beta=2 kernel would; the rule is
    kept because the acceptance results were calibrated with it.
    """
    if n_particles < 1:
        raise DomainError("need at least one particle")
    if median_distance is None or not np.isfinite(median_distance):
        return floor
    g = float(np.sqrt(0.5 * max(median_distance, 0.0) / np.log(n_particles + 1.0)))
    return max(g, floor)


def silverman_bandwidth(particles) -> float:
    """Silverman's rule-of-thumb bandwidth for a particle cloud.

    (4/(d+2))^(1/(d+4)) * n^(-1/(d+4)) * sigma_hat, where sigma_hat is the
    mean per-coordinate sample standard deviation.  Offered as a fixed-gamma
    helper; not used by default.
    """
    P = np.asarray(particles, dtype=float)
    n, d = P.shape
    if n < 2:
        return BANDWIDTH_FLOOR
    sigma = float(P.std(axis=0, ddof=1).mean())
    g = (4.0 / (d + 2.0)) ** (1.0 / (d + 4.0)) * n ** (-1.0 / (d + 4.0)) * sigma
    return max(g, BANDWIDTH_FLOOR)
