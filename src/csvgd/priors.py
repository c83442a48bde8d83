"""Sparsifying exponential-family priors.

The per-coordinate density is  lam * c1(alpha) * exp(-lam^alpha * c2(alpha) * |t|^alpha)
with closed-form constants c1, c2 built from Gamma-function ratios.  alpha=2
reproduces a Gaussian, alpha<=1 concentrates mass on the axes and drives
coordinates to zero through its score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["PriorSpec", "prior_constants", "prior_score"]


@dataclass(frozen=True)
class PriorSpec:
    """Prior hyperparameters: exponent alpha in (0, 2], penalty multiplier lam > 0."""

    alpha: float
    lam: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise DomainError(f"alpha must be in (0, 2], got {self.alpha}")
        if not self.lam > 0.0:
            raise DomainError(f"lam must be > 0, got {self.lam}")


def prior_constants(alpha: float) -> tuple[float, float]:
    """Normalization constants (c1, c2) of the alpha-exponential family.

    c1 = alpha * Gamma(3/alpha)^(1/2) / (2 * Gamma(1/alpha)^(3/2)),
    c2 = [Gamma(3/alpha) / Gamma(1/alpha)]^(alpha/2).

    Evaluated through lgamma so small alpha does not overflow.
    """
    if alpha <= 0.0:
        raise DomainError(f"alpha must be > 0, got {alpha}")
    lg3 = math.lgamma(3.0 / alpha)
    lg1 = math.lgamma(1.0 / alpha)
    c1 = math.exp(math.log(alpha) - math.log(2.0) + 0.5 * lg3 - 1.5 * lg1)
    c2 = math.exp(0.5 * alpha * (lg3 - lg1))
    return c1, c2


def prior_score(spec: PriorSpec, theta, dead_zone: float = 0.0) -> np.ndarray:
    """Gradient of the log prior density, elementwise.

    score_i = -lam^alpha * c2 * alpha * |t_i|^(alpha-1) * sign(t_i).

    Coordinates with |t_i| <= dead_zone get the subgradient 0; the default
    dead zone is exactly {0}, which keeps already-sparsified coordinates at
    rest while alpha <= 1 makes the score singular there.
    """
    theta = np.asarray(theta, dtype=float)
    _, c2 = prior_constants(spec.alpha)
    scale = spec.lam ** spec.alpha * c2 * spec.alpha
    a = np.abs(theta)
    live = a > dead_zone
    # every coordinate is scored, the dead ones at |t| = 1 (so alpha < 1
    # never divides by zero) and then dropped: no gather, no scatter
    a = np.where(live, a, 1.0)
    a **= spec.alpha - 1.0
    a *= -scale
    a *= np.sign(theta)
    return np.where(live, a, 0.0)
