"""Evaluation metrics: Bhattacharyya distance, empirical Wasserstein-1,
pushforward comparisons, and ensemble sparsity.

The 1-D Wasserstein-1 distance is the L1 distance between the two empirical
quantile functions, summed over the fixed grid {k/n} | {j/m} of their
breakpoints; see ``wasserstein1_sorted``.  Its samples come sorted: a run's
reference cloud is sorted once and checked once, as a
``PushforwardReference``, and its model cloud is sorted in place where it is
formed, so ``pushforward_w1`` sorts neither and checks only the model cloud.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, ShapeError
from .network import PASS_ELEMENTS

__all__ = [
    "GaussianSummary",
    "bhattacharyya",
    "wasserstein1_sorted",
    "PushforwardReference",
    "pushforward_w1",
    "sparsity_l1",
    "moving_average",
]

COV_REGULARIZATION = 1e-10


@dataclass(frozen=True)
class GaussianSummary:
    """Mean vector and covariance matrix, exact or sampled."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mean, dtype=float)
        c = np.asarray(self.cov, dtype=float)
        if c.shape != (m.size, m.size):
            raise ShapeError(f"cov shape {c.shape} does not match mean size {m.size}")
        if not np.allclose(c, c.T, atol=1e-9):
            raise ShapeError("covariance must be symmetric")
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "cov", 0.5 * (c + c.T))

    @classmethod
    def from_samples(cls, samples) -> "GaussianSummary":
        S = np.asarray(samples, dtype=float)
        if S.ndim != 2:
            raise ShapeError(f"samples shape {S.shape} is not sample rows (n, dim)")
        # one column gives a 0-d covariance
        cov = np.atleast_2d(np.cov(S, rowvar=False, ddof=1))
        return cls(S.mean(axis=0), cov)


def bhattacharyya(g1: GaussianSummary, g2: GaussianSummary) -> float:
    """Bhattacharyya distance between two Gaussian summaries.

    (1/8) dm' Sbar^-1 dm + (1/2) log(det Sbar / sqrt(det S1 det S2)) with
    Sbar = (S1 + S2)/2.  All three covariances get +COV_REGULARIZATION * I
    before determinants and the inversion.
    """
    if g1.mean.size != g2.mean.size:
        raise ShapeError("summaries have different dimensions")
    eye = np.eye(g1.mean.size)
    s1 = g1.cov + COV_REGULARIZATION * eye
    s2 = g2.cov + COV_REGULARIZATION * eye
    sbar = 0.5 * (s1 + s2)
    sign, logdet_bar = np.linalg.slogdet(sbar)
    if sign <= 0:
        raise DomainError("averaged covariance is singular after regularization")
    sign1, logdet1 = np.linalg.slogdet(s1)
    sign2, logdet2 = np.linalg.slogdet(s2)
    if sign1 <= 0 or sign2 <= 0:
        raise DomainError("covariance is singular after regularization")
    dm = g1.mean - g2.mean
    quad = float(dm @ np.linalg.solve(sbar, dm))
    return 0.125 * quad + 0.5 * (logdet_bar - 0.5 * (logdet1 + logdet2))


def _quantile_grid(n: int, m: int) -> np.ndarray:
    """The sorted integers {k m} | {j n}, k <= n, j <= m, without duplicates.

    ``np.union1d`` gives the same integers, but it imports ``numpy.ma`` on
    first use (about 14 ms), inside the first logged iteration of a run.
    """
    g = np.sort(np.concatenate((np.arange(n + 1) * m, np.arange(m + 1) * n)))
    return g[np.concatenate(([True], g[1:] != g[:-1]))]


def wasserstein1_sorted(A, B) -> np.ndarray:
    """Row-wise empirical Wasserstein-1 along the last axis of samples sorted
    along it: (..., n) vs (..., m).

    In 1-D, W1 is the L1 distance between the two quantile functions.  With n
    and m samples both are step functions whose breakpoints lie on the grid
    {k/n} | {j/m}, written in units of 1/(n m) as the integers g.  On the cell
    [g_i, g_(i+1)) the quantiles are the order statistics a_(g_i // m) and
    b_(g_i // n) (0-based), so W1 is the sum of their absolute gaps weighted
    by the cell widths.  Unequal counts need no merge; for equal counts this
    is the mean absolute gap of the order statistics.  The gaps are weighted
    by the integer widths and the sum divided by n m once: a gap times a
    fractional width would underflow for subnormal gaps, and W1 of two
    different laws could read 0.

    With two or more lead axes, (points..., rows, n), the gaps are formed one
    block of points at a time in one reused buffer of about PASS_ELEMENTS
    values, where the grid gathers of whole clouds would take (points, rows,
    cells) copies each: 8 MB apiece for a (1001, 6, 64) pushforward.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim == 0 or B.ndim == 0:
        raise ShapeError("samples need a sample axis")
    if A.shape[:-1] != B.shape[:-1]:
        raise ShapeError(f"batch shapes differ: {A.shape[:-1]} vs {B.shape[:-1]}")
    if A.shape[-1] == 0 or B.shape[-1] == 0:
        raise ShapeError("samples must be non-empty")
    n, m = A.shape[-1], B.shape[-1]
    g = _quantile_grid(n, m)
    ia, ib, w = g[:-1] // m, g[:-1] // n, np.diff(g).astype(float)
    # The gap layout carries the bits.  ``A[..., ia]`` puts the grid axis
    # outermost, so each point's (rows, cells) @ (cells,) product is one BLAS
    # gemv (a dot for one row) on a strided operand; a block keeps that call
    # by building its gaps as (cells, points, rows).  A C-contiguous block
    # rounds differently, and so does a gemv over a different row count, so
    # only the lead axes before the rows are blocked: an input with fewer than
    # two lead axes keeps the one product, and so does an empty one.
    if A.ndim < 3 or A.size == 0:
        return np.abs(A[..., ia] - B[..., ib]) @ w / (n * m)
    lead, rows = A.shape[:-1], A.shape[-2]
    A, B = A.reshape(-1, rows, n), B.reshape(-1, rows, m)
    points = len(A)
    step = max(2, PASS_ELEMENTS // (len(w) * rows))
    buf = np.empty(len(w) * min(step, points) * rows)
    out = np.empty((points, rows))
    for start in range(0, points, step):
        # a block holds two points at least: a lone point's gaps are
        # contiguous, which numpy and OpenBLAS also round differently, so a
        # last block of one point starts a point early and recomputes its bits
        block = slice(max(0, min(start, points - 2)), start + step)
        a, b = np.moveaxis(A[block], -1, 0), np.moveaxis(B[block], -1, 0)
        gaps = buf[:len(w) * a.shape[1] * rows].reshape(len(w), -1, rows)
        # the indices are in range, so "clip" changes none of them; unlike
        # "raise" it writes into ``out`` without a temporary copy
        np.take(a, ia, axis=0, out=gaps, mode="clip")
        gaps -= b[ib]
        np.abs(gaps, out=gaps)
        np.matmul(np.moveaxis(gaps, 0, -1), w, out=out[block])
    out /= n * m
    return out.reshape(lead)


@dataclass(frozen=True, eq=False)
class PushforwardReference:
    """The fixed reference cloud of ``pushforward_w1``: samples (points,
    components, n_reference), sorted along the last axis.

    A run compares every logged model cloud with the one reference, so its
    shape and sort order are checked here, once, and not on every call.  The
    samples are held as a read-only view of the given array, not a copy.
    """

    samples: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.samples, dtype=float).view()
        if R.ndim != 3 or R.shape[-1] == 0:
            raise ShapeError(f"reference_samples shape {R.shape} is not a cloud "
                             f"(points, components, n_reference > 0)")
        if np.any(R[..., 1:] < R[..., :-1]):
            raise DomainError("reference_samples must be sorted along the last axis")
        R.flags.writeable = False
        object.__setattr__(self, "samples", R)


def pushforward_w1(model_samples, reference: PushforwardReference
                   ) -> tuple[np.ndarray, float]:
    """Componentwise W1 between pushforward clouds at each evaluation point.

    model_samples: (points, components, n_model), sorted along the last axis
    (a run's model cloud is sorted where it is formed); ``reference`` was
    checked when it was made.  Per point, the component W1 values are
    averaged; the scalar score is the sum over points.
    """
    if not isinstance(reference, PushforwardReference):
        raise TypeError(f"reference must be a PushforwardReference, got "
                        f"{type(reference).__name__}")
    M = np.asarray(model_samples, dtype=float)
    R = reference.samples
    if M.ndim != 3 or M.shape[:2] != R.shape[:2] or M.shape[-1] == 0:
        raise ShapeError(f"incompatible pushforward shapes {M.shape} vs {R.shape}")
    if np.any(M[..., 1:] < M[..., :-1]):
        raise DomainError("model_samples must be sorted along the last axis")
    per_point = wasserstein1_sorted(M, R).mean(axis=-1)
    return per_point, float(per_point.sum())


def sparsity_l1(particles, coords) -> float:
    """Mean over particles of sum over the selected coordinates of |theta|."""
    P = np.asarray(particles, dtype=float)
    coords = np.asarray(coords, dtype=int)
    if coords.size and (coords.min() < 0 or coords.max() >= P.shape[1]):
        raise ShapeError(f"coordinate index out of range for dim {P.shape[1]}")
    return float(np.abs(P[:, coords]).sum(axis=1).mean())


def moving_average(x, window: int = 11) -> np.ndarray:
    """Centered moving average over an odd ``window``, shrinking at the edges.

    Each window is summed on its own (zero padding fills the edges, then the
    sum is divided by the true count), so rounding scales with the window and
    not with a running total: a window of small values after large ones
    keeps full relative accuracy.
    """
    x = np.asarray(x, dtype=float)
    if window < 1 or window % 2 == 0:
        raise DomainError(f"window must be odd and >= 1, got {window}")
    if not x.size:
        return x.copy()
    half = window // 2
    sums = sliding_window_view(np.pad(x, half), window).sum(axis=-1)
    idx = np.arange(x.size)
    counts = np.minimum(idx + half + 1, x.size) - np.maximum(idx - half, 0)
    return sums / counts
