"""Repulsive exponential-family kernels, pairwise distances, the Stein
direction, and bandwidth selection.

kappa(a, b) = exp(-(1/(gamma*beta)) * sum_i |a_i - b_i|^beta),  beta in {1, 2}.

This module owns every pairwise pass over particles: the one distance pass,
``pairwise_square_sums``, and the Stein direction, the one place the kernel
matrix is formed.  Pairwise differences are only ever formed in row blocks
of at most ``BLOCK_ELEMENTS`` values, so memory stays bounded for any N and
D.

The distance pass runs over the pairs a <= b.  It gives the squared
distances both as the n(n-1)/2 pairs packed in a 1-D array (the median
bandwidth's) and as a symmetric (n, n) matrix (the beta=2 kernel's, and the
square of ``condense.distance_matrix``) in a buffer the caller may recycle;
the two hold the same sums.  ``median_pair_distance`` selects the median
from the packed pairs with one single-point partition in place, and the
beta=2 direction forms its kernel matrix in place over the matrix.

The pass takes one of two layouts, by row width, and both take
``BLOCK_ELEMENTS // (N * D)`` rows per block against N rows of D
coordinates.  Rows of ``PAIRWISE_SUM_MIN`` coordinates or more form (rows,
cols, D) differences and sum their squares along the row.  Narrower rows
(the MVN example's D=3) form one (rows, cols) coordinate plane at a time
from a coordinate-major copy and add the squared planes from the left, so
no numpy inner loop runs over a handful of coordinates per pair.  Both give
the same bits: numpy sums fewer than 8 contiguous values from the left too.

beta=1 needs absolute differences, so it forms its kernel rows inside the
sign pass of its repulsion, in the row-major layout at every width: its
repulsion sums over the particles, not the coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError

__all__ = [
    "KernelSpec",
    "pairwise_square_sums",
    "stein_direction",
    "median_bandwidth",
    "median_pair_distance",
    "BANDWIDTH_FLOOR",
]

# prevents division blow-ups when all particles coincide
BANDWIDTH_FLOOR = 1e-6

# Most differences held at once by a pairwise pass: 2**18 float64 values,
# 2 MiB, which fits a core's 2 MiB L2 share on a 2-core Xeon.  There, with
# one BLAS thread, the N=200, D=1020 distance pass took 60 ms per call at
# 2**18, 65 ms at 2**20 and 140 ms unblocked.  Narrow rows take as many
# rows per block, so a coordinate plane holds BLOCK_ELEMENTS / D values: the
# N=512, D=3 pass with its median took 1.7-2.0 ms per call at 64-170 rows
# per block (170 is this rule's), 2.3 ms at 256, 2.7-2.8 ms at 384 and
# 4.4-4.7 ms at 512, where the block's own square is the whole matrix.
BLOCK_ELEMENTS = 2**18

# numpy's add.reduce adds fewer than 8 contiguous values one by one from the
# left and switches to an 8-way pairwise order at 8.  Below this width, a
# row's coordinates summed in place and its coordinate planes added from the
# left give the same bits, so narrow rows take the plane pass.
PAIRWISE_SUM_MIN = 8


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
        if not self.gamma > 0.0:
            raise DomainError(f"gamma must be > 0, got {self.gamma}")
        if self.bandwidth_rule not in ("fixed", "median"):
            raise DomainError(f"unknown bandwidth rule {self.bandwidth_rule!r}")


def _block_rows(P) -> int:
    """Rows per block of a pairwise pass over the particle rows P: as many as
    keep a block's values against every row of P within BLOCK_ELEMENTS, one
    at least.  The same rule for both layouts."""
    return max(1, BLOCK_ELEMENTS // max(1, P.size))


def _difference_blocks(P, upper: bool = False):
    """(rows, P[rows, None, :] - P[None, :, :]) over row blocks of P; with
    ``upper``, only against the rows from the block's first row on.

    Each block is a C-contiguous view of one buffer of at most BLOCK_ELEMENTS
    values (one row at least), which the next block overwrites and the
    caller may overwrite too.  Differences, not the Gram identity
    |a|^2 + |b|^2 - 2 a.b: the identity's cancellation moved the median
    bandwidth by 1e-9 relative, enough to break its pinned sqrt-scaling
    property in a 3000-example run that the differences pass.
    """
    step = _block_rows(P)
    buf = np.empty(min(step, len(P)) * P.size)
    for start in range(0, len(P), step):
        rows = slice(start, min(start + step, len(P)))
        a, b = P[rows], (P[start:] if upper else P)
        diff = buf[:a.shape[0] * b.size].reshape(a.shape[0], *b.shape)
        np.subtract(a[:, None, :], b[None, :, :], out=diff)
        yield rows, diff


def _plane_blocks(P):
    """The narrow rows' counterpart of ``_difference_blocks`` with ``upper``:
    (rows, a, b, plane) over row blocks of P, where a and b hold the
    coordinates of the block's rows and of the rows from its first row on as
    C-contiguous coordinate rows, and plane is a (rows, cols) buffer of at
    most BLOCK_ELEMENTS / D values (one row at least) that the next block
    reuses."""
    PT = np.ascontiguousarray(P.T)
    step = _block_rows(P)
    buf = np.empty(min(step, len(P)) * len(P))
    for start in range(0, len(P), step):
        rows = slice(start, min(start + step, len(P)))
        a, b = PT[:, rows], PT[:, start:]
        yield rows, a, b, buf[:a.shape[1] * b.shape[1]].reshape(a.shape[1], -1)


def _plane_square_sum(a, b, out, plane):
    """out[i, j] = sum_k (a[k, i] - b[k, j])^2, the coordinate planes added
    from the left: bit for bit what add.reduce gives along rows narrower
    than PAIRWISE_SUM_MIN.  ``plane`` is scratch shaped like ``out``."""
    if not len(a):
        out.fill(0.0)
    for k in range(len(a)):
        term = plane if k else out
        np.subtract(a[k, :, None], b[k, None, :], out=term)
        np.square(term, out=term)
        if k:
            out += term
    return out


def _upper_square_sums(P):
    """Over row blocks of P: (rows, square_sum), where square_sum(span, out)
    writes the squared distances from the block's rows to the rows ``span``
    of those from its first row on into ``out`` and returns it."""
    if P.shape[1] < PAIRWISE_SUM_MIN:
        for rows, a, b, plane in _plane_blocks(P):
            def square_sum(span, out):
                scratch = plane.reshape(-1)[:out.size].reshape(out.shape)
                return _plane_square_sum(a, b[:, span], out, scratch)
            yield rows, square_sum
        return
    for rows, diff in _difference_blocks(P, upper=True):
        np.square(diff, out=diff)
        yield rows, lambda span, out: diff[:, span].sum(axis=-1, out=out)


def pairwise_square_sums(P, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Squared distances between particle rows: (pairs, all_sq).  ``pairs``
    is a fresh 1-D array of the n(n-1)/2 particle pairs, packed block by
    block (the caller may reorder it); ``all_sq`` is the symmetric (n, n)
    matrix, written into ``out`` when one is given.

    One difference pass over the pairs a <= b, in either layout (see the
    module docstring).  A row block against the rows from its first row on
    splits in two: the block's own square, computed whole, whose strict
    upper triangle gives its pairs, and the rectangle of the rows past the
    block, all of them pairs, which is formed in ``pairs`` and copied into
    ``all_sq`` and its mirror (a - b and b - a square to the same values).
    Sorted, ``pairs`` equals the sorted upper triangle of ``all_sq`` bit for
    bit, and ``all_sq`` equals the sums of the whole (n, n, D) squared
    difference tensor along its rows.
    """
    P = np.asarray(P, dtype=float)
    n = len(P)
    if out is not None and out.shape != (n, n):
        raise ShapeError(f"out has shape {out.shape}, need {(n, n)}")
    all_sq = np.empty((n, n)) if out is None else out
    pairs = np.empty(n * (n - 1) // 2)
    upper = None
    at = 0
    for rows, square_sum in _upper_square_sums(P):
        r, past = rows.stop - rows.start, slice(rows.stop, None)
        if upper is None:  # the first block is the largest
            upper = np.less.outer(np.arange(r), np.arange(r))  # i < j
        square = square_sum(slice(0, r), all_sq[rows, rows])
        tri = r * (r - 1) // 2
        pairs[at:at + tri] = square[upper[:r, :r]]
        at += tri
        rect = pairs[at:at + r * (n - rows.stop)].reshape(r, -1)
        at += rect.size
        all_sq[rows, past] = square_sum(slice(r, None), rect)
        all_sq[past, rows] = rect.T
    return pairs, all_sq


def _kernel(power_sum, gamma: float, beta: int) -> np.ndarray:
    """exp(-power_sum / (gamma*beta)), formed in place over ``power_sum``.
    IEEE division is sign-symmetric: dividing by the negated scale gives the
    bits of dividing the negated sum, without a negated copy."""
    K = np.divide(power_sum, -(gamma * beta), out=power_sum)
    return np.exp(K, out=K)


def stein_direction(spec: KernelSpec, particles, scores, gamma: float,
                    near, sq_dists) -> np.ndarray:
    """Stein update direction for every particle row, shape (n, dim).

    g_a = (1/n) sum_b [kappa(t_b, t_a) s_b + grad_{t_b} kappa(t_b, t_a)],
    where the repulsion grad_{t_b} kappa(t_b, t_a) = (1/gamma) kappa(t_a, t_b)
    * |t_a - t_b|^(beta-1) * sign(t_a - t_b) is dropped per coordinate for
    every pair whose two particles are both ``near`` (a boolean mask shaped
    like the particles) on that coordinate.

    beta=2 forms its kernel matrix in place over ``sq_dists``, the pairwise
    squared distances, which it overwrites.  It uses matrix products with
    K0, that matrix without its diagonal (a particle does not repel itself),
    and far = 1 - near: a near coordinate is repelled only by the particles
    that are far on it, a far one by all.  Coordinates near for every
    particle get exactly zero.  beta=1 ignores ``sq_dists``: each row block
    of its one difference pass gives the kernel rows (from |diff|) and then
    the signed repulsion of those rows.
    """
    P = np.asarray(particles, dtype=float)
    S = np.asarray(scores, dtype=float)
    n = len(P)
    if spec.beta == 2:
        K = _kernel(sq_dists, gamma, 2)
        drive = K @ S / n
        K0 = K  # the drive has used the diagonal; zero it in place
        np.fill_diagonal(K0, 0.0)
        far = 1.0 - near
        rep = np.where(near, P * (K0 @ far) - K0 @ (far * P),
                       P * K0.sum(1)[:, None] - K0 @ P)
    else:
        K = np.empty((n, n))
        rep = np.empty_like(P)
        far = ~near
        for rows, diff in _difference_blocks(P):
            K[rows] = _kernel(np.abs(diff).sum(axis=-1), gamma, 1)
            # sign(diff) * K without the slow np.sign: +-K, then 0 where diff
            # is 0 or both particles are near.  A masked -K gives -0.0, not
            # 0.0, but each row's own +0.0 term makes the sums bit-identical.
            keep = (diff != 0.0) & (far[rows, None, :] | far[None, :, :])
            np.copysign(K[rows, :, None], diff, out=diff)
            diff *= keep
            rep[rows] = diff.sum(axis=1)
        drive = K @ S / n
    return drive + rep / (n * gamma)


def median_bandwidth(median_distance: float, n_particles: int) -> float:
    """Adaptive bandwidth sqrt(0.5 * median_distance / log(n+1)), clamped below.

    ``median_distance`` is the median pairwise inter-particle distance; an
    undefined summary (NaN, e.g. a single particle with no pairs) falls back
    to the floor.  Scaling the particles by c scales gamma by sqrt(c), not by
    c^2 as a scale-equivariant rule for the beta=2 kernel would; the rule is
    kept because the acceptance results were calibrated with it.
    """
    if n_particles < 1:
        raise DomainError("need at least one particle")
    if not np.isfinite(median_distance):
        return BANDWIDTH_FLOOR
    g = float(np.sqrt(0.5 * max(median_distance, 0.0) / np.log(n_particles + 1.0)))
    return max(g, BANDWIDTH_FLOOR)


def median_pair_distance(pairs) -> float:
    """The median pairwise distance from the 1-D array of squared pair
    distances ``pairs`` (in any order), which it reorders in place:
    ``np.median(np.sqrt(pairs))`` bit for bit.  NaN without pairs or with
    any NaN.

    One single-point partition at k = m // 2 of the m pairs finds the upper
    middle pair; for even m the lower one is the largest value below it.
    sqrt is monotone, so their roots are the middle distances, averaged as
    ``np.median`` averages them.
    """
    pairs = np.asarray(pairs, dtype=float)
    if pairs.ndim != 1:
        raise ShapeError(f"pairs must be 1-D, got shape {pairs.shape}")
    m = len(pairs)
    if not m:
        return float("nan")
    k = m // 2
    pairs.partition(k)
    if np.isnan(pairs[k:].max()):
        return float("nan")
    upper = np.sqrt(pairs[k])
    if m % 2:
        return float(upper)
    return float((np.sqrt(pairs[:k].max()) + upper) / 2)
