"""Layered feed-forward networks with closed-form forward and reverse passes.

A network is a chain of weight matrices, each followed by its link's
activation: softplus on every hidden link and identity on the output link,
the chain of ``mechanics.icnn_template`` that every run builds.
Everything here is a pure function of immutable value objects, so results
are reproducible bit-for-bit and safe to evaluate from multiple threads.
Besides the usual parameter/input gradients, the module provides the
parameter gradient of an input-directional derivative (reverse-over-forward),
which is what stress-style models built on input gradients need.

Every pass builds on one forward pass, ``forward_pass``: it evaluates each
hidden link's softplus once, its value and first derivative from one
evaluation, and keeps them in a ``ForwardPass``.  The input Jacobian and the
reverse-over-forward gradient are methods that read that pass, so the
stress of a potential and its score make one forward pass for both:
``forward_pass(net, X, params).grad_input()`` and
``.grad_params_dirderiv(u)`` (with the unit upstream of a scalar-output net)
read the same pass.

A value is formed only by a pass that reads it.  The forward pass keeps
each hidden link's first derivative, and the values of every hidden link
but the last, which neither pass reads; nor do they read the output link's
product, the potential's value.  The second derivative is formed from
the first by ``grad_params_dirderiv``, the one pass that reads it.  The
passes also skip work whose result is known exactly (zero adjoints and the
unit derivative of the identity output link, products over an inner
dimension of 1) and keep the bits of the full formulas.  The parameter
gradients are written link by link into one flat output row per particle.

Each pass evaluates a particle stack: ``params`` (N, D) holds the flat
parameter rows of N networks laid out like the template ``net``, and every
result carries a leading particle axis.  The input rows X (batch, in) are
shared by all particles; one network is a one-row stack.

Callers pass a stack in the particle blocks of ``particle_blocks``, which
keep each per-link array of a pass within the caller's budget of values.  At
the block size they stay small enough for the allocator to reuse their memory
from call to call, where a whole N=64 stack gets fresh pages, and faults them
in, on every call.  Blocking changes no bit: the stacked products run one
matrix product per particle and the elementwise steps and reductions are
per particle too.  There are two budgets.  The score passes
``PASS_ELEMENTS``, the size measured fastest for it.  The test-path
prediction of a logged iteration passes half of it
(``experiments.TEST_PATH_ELEMENTS``): over its 1001 strain rows a
``PASS_ELEMENTS`` block of a wide net grew past the score's working set and
so set the run's peak heap.

A pass holds only the arrays it reads again.  The running products of the
backward passes are scaled in place, each adjoint is formed in its own
array, and the reverse-over-forward pass drops each tangent and adjoint
after its last read.  An in-place step applies the same ufunc to the same
operands (IEEE + and x commute bit for bit), so it keeps every bit, and no
pass writes into the forward pass's arrays or the caller's.  One stress
score of a 27-particle block over 80 strain rows at 3-30-30-1 peaks at
about 9 per-link arrays (4.5 MiB traced).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import ShapeError

__all__ = [
    "LayeredNet",
    "Layout",
    "ForwardPass",
    "forward_pass",
    "particle_blocks",
    "stack_weights",
    "permute_hidden",
    "net_to_dict",
    "net_from_dict",
]

# Values per per-link array of a score pass over a particle block (512 KiB of
# float64).  In a seed-0 `hyper_wide` command (N=64, 80 strain rows,
# 3-30-30-1; 2-core Xeon, one BLAS thread) the 30 score calls took 0.51-0.59 s
# with 53,000 minor page faults as one stack, and a median 0.47 s with 2,300
# faults at this budget (27 particles per block).  2**14 and 2**15 took a
# median 0.55 and 0.51 s; 2**17 took 0.71 s with 92,000 faults.
PASS_ELEMENTS = 2**16


def _softplus_terms(z, value=True):
    """softplus(z) and its derivative sigmoid(z), from one e = exp(-|z|);
    the value is None when ``value`` is false.

    The value is the overflow-safe max(z, 0) + log1p(e); the sigmoid is
    1 / (1 + e) for z >= 0 and e / (1 + e) otherwise.  Since 0 <= e <= 1, its
    numerator is max(e, [z >= 0]) without a branch (a NaN e stays NaN).  The
    three temporaries are reused in place.
    """
    e = np.empty_like(z)
    np.abs(z, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    s = np.greater_equal(z, 0.0, out=np.empty_like(z))
    np.maximum(e, s, out=s)
    t = np.add(1.0, e, out=np.empty_like(z))
    np.divide(s, t, out=s)
    if not value:
        return None, s
    np.log1p(e, out=t)
    np.maximum(z, 0.0, out=e)
    np.add(e, t, out=e)
    return e, s


def _sigmoid_slope(s):
    """softplus'' = s * (1 - s) from softplus' = s."""
    d2 = np.subtract(1.0, s)
    np.multiply(s, d2, out=d2)
    return d2


def _frozen(a):
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Layout:
    """Ordered flattening map: tuple of (array name, shape)."""

    entries: tuple[tuple[str, tuple[int, ...]], ...]

    @cached_property
    def size(self) -> int:
        return sum(math.prod(shape) for _, shape in self.entries)

    @cached_property
    def bounds(self) -> tuple[tuple[int, int], ...]:
        """(start, stop) of each entry in the flat vector."""
        out, off = [], 0
        for _, shape in self.entries:
            out.append((off, off + math.prod(shape)))
            off = out[-1][1]
        return tuple(out)

    def flatten(self, arrays) -> np.ndarray:
        """One flat vector, or one flat row per particle for stacked arrays."""
        if len(arrays) != len(self.entries):
            raise ShapeError(f"layout has {len(self.entries)} entries, got {len(arrays)} arrays")
        parts, lead = [], None
        for (name, shape), a in zip(self.entries, arrays):
            a = np.asarray(a, dtype=float)
            k = a.ndim - len(shape)
            if k < 0 or a.shape[k:] != shape or lead not in (None, a.shape[:k]):
                raise ShapeError(f"{name}: expected shape {shape}, got {a.shape}")
            lead = a.shape[:k]
            parts.append(a.reshape(lead + (math.prod(shape),)))
        return np.concatenate(parts, axis=-1) if parts else np.zeros(0)

    def unflatten(self, flat) -> list[np.ndarray]:
        """Array views of a flat vector, or of flat rows (N, size) with a particle axis."""
        flat = np.asarray(flat, dtype=float)
        if flat.ndim not in (1, 2) or flat.shape[-1] != self.size:
            raise ShapeError(f"flat vector has shape {flat.shape}, layout needs "
                             f"({self.size},) or (N, {self.size})")
        return self.views(flat)

    def views(self, flat) -> list[np.ndarray]:
        """``unflatten`` without its checks: views of the flat rows of a float
        array whose last axis has ``size`` entries, any leading axes kept."""
        lead = flat.shape[:-1]
        return [flat[..., a:b].reshape(lead + shape)
                for (a, b), (_, shape) in zip(self.bounds, self.entries)]


@dataclass(frozen=True)
class LayeredNet:
    """Immutable chain network: softplus hidden links, an identity output link.

    weights[k] maps layer k to layer k+1 and has shape
    (layer_widths[k+1], layer_widths[k]).  The weights are the only
    parameters: condensation reconciles networks through their edges, so a
    flat parameter row is every edge weight and nothing else.
    ``nonneg_mask[k]`` marks weight matrices constrained to be elementwise
    >= 0.
    """

    layer_widths: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    nonneg_mask: tuple[bool, ...]

    def __post_init__(self):
        widths = tuple(int(w) for w in self.layer_widths)
        object.__setattr__(self, "layer_widths", widths)
        if len(widths) < 2:
            raise ShapeError("need at least an input and an output layer")
        n_links = len(widths) - 1
        if len(self.weights) != n_links:
            raise ShapeError(f"expected {n_links} weight matrices, got {len(self.weights)}")
        if len(self.nonneg_mask) != n_links:
            raise ShapeError("nonneg_mask must have one entry per link")
        ws = []
        for k, w in enumerate(self.weights):
            w = _frozen(w)
            if w.shape != (widths[k + 1], widths[k]):
                raise ShapeError(
                    f"W{k}: expected shape {(widths[k + 1], widths[k])}, got {w.shape}")
            if self.nonneg_mask[k] and w.size and w.min() < 0.0:
                raise ShapeError(f"W{k} is flagged nonnegative but has negative entries")
            ws.append(w)
        object.__setattr__(self, "weights", tuple(ws))
        object.__setattr__(self, "nonneg_mask", tuple(bool(m) for m in self.nonneg_mask))

    @property
    def n_links(self) -> int:
        return len(self.weights)

    # The template's constants are computed once per (frozen) network.
    @cached_property
    def layout(self) -> Layout:
        return Layout(tuple((f"W{k}", w.shape) for k, w in enumerate(self.weights)))

    def with_values(self, flat) -> "LayeredNet":
        return replace(self, weights=tuple(self.layout.unflatten(flat)))

    @cached_property
    def _nonneg_flat(self) -> np.ndarray:
        mask = np.concatenate([np.full(w.size, m, dtype=bool)
                               for w, m in zip(self.weights, self.nonneg_mask)])
        mask.flags.writeable = False
        return mask

    def nonneg_flat_mask(self) -> np.ndarray:
        """Boolean mask over the flat vector marking nonneg-constrained coords
        (read-only)."""
        return self._nonneg_flat


def _check_input(net, X):
    """Input rows (batch, in) as a float array."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != net.layer_widths[0]:
        raise ShapeError(f"input shape {X.shape} is not rows (batch, "
                         f"{net.layer_widths[0]}) of the input layer")
    return X


def _check_rows(name, A, shape):
    """Per-sample rows (..., batch, width)."""
    A = np.asarray(A, dtype=float)
    if A.shape[-2:] != shape:
        raise ShapeError(f"{name} shape {A.shape} does not match {shape}")
    return A


def stack_weights(net: LayeredNet, params) -> list[np.ndarray]:
    """Views (N, out, in) per link of the flat particle rows ``params`` (N, D)
    laid out like ``net``."""
    if np.ndim(params) != 2:
        raise ShapeError(f"params shape {np.shape(params)} is not a particle stack "
                         f"(N, {net.layout.size})")
    return net.layout.unflatten(params)


def _matmul(a, b, out=None):
    """a @ b bit for bit, written into ``out`` when given; over an inner
    dimension of 1 as a broadcast product.

    The matrix product sums from +0.0, so the broadcast product adds 0.0 once:
    that turns -0.0 into +0.0 and changes no other value.
    """
    if a.shape[-1] != 1:
        return np.matmul(a, b, out=out)
    c = np.multiply(a, b, out=out)
    c += 0.0
    return c


@lru_cache(maxsize=16)
def _unit_upstream(rows: int) -> np.ndarray:
    """The (1, rows) transpose of a ones column, read-only: the unit upstream
    laid out as the swapped (rows, 1) upstream of a scalar-output net."""
    ones = np.ones((rows, 1))
    ones.flags.writeable = False
    return ones.T


@dataclass(frozen=True, eq=False)
class ForwardPass:
    """One evaluation of a network on the rows of X, kept for every pass that
    reads it, so each softplus is evaluated once per link.

    ``W`` are the weights of the particle stack, (N, out, in) per link.
    ``H[k]`` is the input of hidden link k (``H[0]`` is X).  The input of
    the output link (the last hidden link's value) and the output link's
    product are not formed: no pass reads them.  ``D1[k]`` holds the first
    derivative of hidden link k's softplus at its pre-activations; the
    identity output link's is one.  The second derivative is formed from
    ``D1[k]`` by the one pass that reads it, ``grad_params_dirderiv``.

    The passes skip work whose result is known exactly: the identity output
    link has a unit first and a zero second derivative.  Where a
    skipped term is an exact zero of a sum (which numpy starts from +0.0),
    the pass adds 0.0 once instead, so every result has the bits of the full
    formulas, signed zeros included.
    """

    net: LayeredNet
    W: tuple
    H: list
    D1: list

    @property
    def _lead(self) -> tuple:
        """The particle axis, (N,)."""
        return self.W[0].shape[:-2]

    @property
    def _out_shape(self) -> tuple:
        return self._lead + (len(self.H[0]), self.net.layer_widths[-1])

    @cached_property
    def _top(self) -> np.ndarray:
        """(W_out + 0.0) * act'(z) of the last hidden link, (..., rows, out,
        width): the input Jacobian's first step, and with a unit upstream the
        last hidden link's bar_tz in ``grad_params_dirderiv``."""
        return (self.W[-1] + 0.0)[..., None, :, :] * self.D1[-1][..., None, :]

    def block(self, particles: slice) -> "ForwardPass":
        """The pass of a block of the stack's particles, viewing this pass's
        arrays, with the bits of a pass made for the block."""
        return ForwardPass(self.net, tuple(w[particles] for w in self.W),
                           self.H[:1] + [h[particles] for h in self.H[1:]],
                           [d1[particles] for d1 in self.D1])

    def _gradient_rows(self):
        """Flat gradient rows (N, size) and each link's view into them."""
        flat = np.empty(self._lead + (self.net.layout.size,))
        return flat, self.net.layout.views(flat)

    def grad_input(self) -> np.ndarray:
        """Jacobian d net(X[b]) / d X[b] for every row, shape (N, batch, out, in).

        The chain starts from the output weights (+ 0.0, the bits of
        eye(out) @ W), since the output link is identity.
        """
        if self.net.n_links == 1:
            J = (self.W[-1] + 0.0)[..., None, :, :]
            J = np.broadcast_to(J, self._out_shape + J.shape[-1:]).copy()
        else:
            J = _matmul(self._top, self.W[-2][..., None, :, :])
            for k in range(self.net.n_links - 3, -1, -1):
                J *= self.D1[k][..., None, :]
                J = _matmul(J, self.W[k][..., None, :, :])
        return J

    def _tangents(self, u):
        """Forward tangent pass along input directions u over the hidden
        links: per link the tangent pre-activations TZ[k] = T[k] W_k' and
        T[k + 1] = softplus'(z) * TZ[k]."""
        T = [_check_rows("direction", u, self.H[0].shape)]
        TZ = []
        for k, d1 in enumerate(self.D1):
            tz = _matmul(T[-1], self.W[k].swapaxes(-1, -2))
            TZ.append(tz)
            T.append(d1 * tz)
        return T, TZ

    def grad_params_dirderiv(self, u) -> np.ndarray:
        """Flat parameter gradient of sum_b J(X[b]) @ u[b], the unit upstream
        of a scalar-output net.

        Reverse pass over the tangent-augmented forward computation.  For each
        link k with z = W h, tz = W t, h' = act(z), t' = act'(z) * tz, the
        adjoints are

            bar_z  = act'(z) * bar_h' + act''(z) * tz * bar_t'
            bar_tz = act'(z) * bar_t'
            dW    += outer(bar_z, h) + outer(bar_tz, t)

        which yields the exact mixed second derivative d/dtheta of the
        input-directional derivative.  ``u`` may carry the particle axis.

        On the identity output link bar_h' = 0 and act'' = 0, so its bar_z is
        zero and its bar_tz is the upstream, laid out as the swapped ones
        column; the link below it starts from bar_h' = 0.  So the tangent
        pass stops before the output link.  That link's bar_t is W_out + 0.0
        and its bar_tz the product ``grad_input`` starts from, which the two
        share.
        """
        if self.net.layer_widths[-1] != 1:
            raise ShapeError("the unit upstream needs a scalar-output net")
        n_links = self.net.n_links
        T, TZ = self._tangents(u)
        flat, gW = self._gradient_rows()
        k = n_links - 1
        _matmul(_unit_upstream(len(self.H[0])), T[k], out=gW[k])
        gW[k] += 0.0  # the skipped outer(0, h)
        if k == 0:
            return flat
        T[k] = None
        bar_t = self.W[k] + 0.0
        bar_h = None  # zero below the output link
        for k in range(n_links - 2, -1, -1):
            d1 = self.D1[k]
            bar_z = _sigmoid_slope(d1)
            bar_z *= TZ[k]
            bar_z *= bar_t
            TZ[k] = None
            if bar_h is None:
                bar_z += 0.0  # the skipped act'(z) * 0
            else:
                bar_h *= d1
                bar_z += bar_h
                bar_h = None
            if k == n_links - 2:
                bar_tz = self._top[..., 0, :]
            else:
                bar_t *= d1
                bar_tz = bar_t
            _matmul(bar_z.swapaxes(-1, -2), self.H[k], out=gW[k])
            gW[k] += _matmul(bar_tz.swapaxes(-1, -2), T[k])
            T[k] = None
            if k > 0:
                bar_h = _matmul(bar_z, self.W[k])
                del bar_z
                bar_t = _matmul(bar_tz, self.W[k])
                del bar_tz
        return flat


def forward_pass(net: LayeredNet, X, params) -> ForwardPass:
    """The forward pass every other pass builds on: the particle stack of flat
    ``params`` rows (N, D), laid out like ``net``, on the input rows X (batch,
    in).  It evaluates the hidden links only, and forms no value of the last."""
    X = _check_input(net, X)
    W = stack_weights(net, params)
    H, D1 = [X], []
    last = net.n_links - 2
    for k in range(last + 1):
        z = _matmul(H[-1], W[k].swapaxes(-1, -2))
        h, d1 = _softplus_terms(z, value=k < last)
        if k < last:
            H.append(h)
        D1.append(d1)
    return ForwardPass(net, W, H, D1)


def particle_blocks(net: LayeredNet, n_particles: int, rows: int,
                    budget: int) -> list[slice]:
    """Slices of a stack of ``n_particles`` that keep each per-link array of a
    pass of ``net`` over ``rows`` input rows within ``budget`` values, one
    particle at least.

    Each caller passes its own budget: the score ``PASS_ELEMENTS``, the
    test-path prediction half of it (see the module docstring)."""
    step = max(1, budget // (rows * max(net.layer_widths)))
    return [slice(a, a + step) for a in range(0, n_particles, step)]


def permute_hidden(net: LayeredNet, layer: int, perm) -> LayeredNet:
    """Reorder the nodes of a hidden layer; the network output is unchanged.

    Permutes the rows of the incoming matrix and the columns of the outgoing
    matrix by the same permutation.
    """
    if not 0 < layer < len(net.layer_widths) - 1:
        raise ShapeError("only hidden layers can be permuted")
    perm = np.asarray(perm, dtype=int)
    if sorted(perm.tolist()) != list(range(net.layer_widths[layer])):
        raise ShapeError("perm is not a permutation of the layer's node indices")
    ws = list(net.weights)
    ws[layer - 1] = ws[layer - 1][perm, :]
    ws[layer] = ws[layer][:, perm]
    return replace(net, weights=tuple(ws))


def _link_tags(net: LayeredNet) -> list[str]:
    """The v1 format's per-link activation list, which the chain fixes."""
    return ["softplus"] * (net.n_links - 1) + ["identity"]


def net_to_dict(net: LayeredNet) -> dict:
    """Plain JSON-ready form of a network; floats round-trip exactly.  The
    v1 format's ``biases`` key is always the empty list, and its
    ``activations`` list names the softplus hidden links and the identity
    output link."""
    return {
        "layer_widths": list(net.layer_widths),
        "weights": [w.tolist() for w in net.weights],
        "biases": [],
        "activations": _link_tags(net),
        "nonneg_mask": list(net.nonneg_mask),
    }


def net_from_dict(d: dict) -> LayeredNet:
    """Inverse of net_to_dict; keys other than the network's are ignored."""
    if d["biases"]:
        raise ShapeError("networks are bias-free: the biases must be the empty list")
    net = LayeredNet(
        layer_widths=tuple(d["layer_widths"]),
        weights=tuple(np.asarray(w, dtype=float) for w in d["weights"]),
        nonneg_mask=tuple(d["nonneg_mask"]),
    )
    if list(d["activations"]) != _link_tags(net):
        raise ShapeError(f"activations {d['activations']!r} are not {_link_tags(net)!r}: "
                         f"hidden links are softplus, the output link identity")
    return net
