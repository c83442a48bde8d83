"""Graph condensation: prune insignificant edges and dead nodes, sort nodes by
importance, and embed every ensemble member into a shared padded template.
A node's importance does not depend on the order of the next layer's nodes,
so sorting one layer never reorders another, and one prune -> sort ->
template -> reconcile pass is final: condensing its result again returns it
bit for bit.

Node sorting permutes rows of the incoming weight matrix and columns of the
outgoing one, so each member's input-output map is preserved; pruning changes
it by at most the threshold times the local fan-in.  Input and output layers
are never pruned or permuted.  Networks carry weights only, so every
parameter is an edge, and every network is the one chain ``network`` defines:
softplus hidden links and an identity output link.  A softplus layer cannot
be composed away, so a hidden layer that dies in every particle ends
condensation with a named ``CondenseError``; otherwise the layer count never
changes.

A ``NetGraph`` is, like the particle stack ``network`` passes take, the
whole ensemble at once: its arrays carry a leading particle axis, weights
(N, out, in) and active flags and provenance (N, width).  Every step below
acts on each particle on its own, so one call condenses or dumps the whole
stack; reductions run over the last two axes.

``distance_matrix`` is the graph metric over flat particle rows, which hold
every edge weight and nothing else: the square root of the run's one
distance pass, ``kernels.pairwise_square_sums``, whose squared distances
also set the median bandwidth and the beta=2 kernel.  That pass, with its
bounded memory, belongs to ``kernels``, which owns distances, the kernel
matrix and the Stein direction.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import CondenseError, DomainError, ShapeError
from .files import write_text_atomically
from .kernels import pairwise_square_sums
from .network import LayeredNet

__all__ = [
    "NetGraph",
    "prune",
    "importance",
    "sort_nodes",
    "common_template",
    "reconcile",
    "condense_graphs",
    "distance_matrix",
    "dump_graph",
]

@dataclass
class NetGraph:
    """Directed-graph view of a particle stack of networks: weights plus
    activity/provenance, each with a leading particle axis."""

    widths: tuple[int, ...]
    weights: list[np.ndarray]       # (N, out, in) per link
    active: list[np.ndarray]        # bool (N, width); ends are always fully active
    provenance: list[np.ndarray]    # original node index per slot, -1 for padding
    nonneg_mask: tuple[bool, ...]

    @classmethod
    def from_net(cls, net: LayeredNet, params) -> "NetGraph":
        """The stacked graph of the N networks whose flat rows ``params`` (N, D)
        are laid out like ``net``."""
        weights = net.layout.unflatten(params)
        lead = weights[0].shape[:-2]
        return cls(
            widths=net.layer_widths,
            weights=[np.array(w) for w in weights],
            active=[np.ones(lead + (w,), dtype=bool) for w in net.layer_widths],
            provenance=[np.broadcast_to(np.arange(w), lead + (w,)).copy()
                        for w in net.layer_widths],
            nonneg_mask=net.nonneg_mask,
        )

    def copy(self) -> "NetGraph":
        return NetGraph(self.widths, [w.copy() for w in self.weights],
                        [a.copy() for a in self.active],
                        [p.copy() for p in self.provenance], self.nonneg_mask)

    @property
    def n_layers(self) -> int:
        return len(self.widths)


def prune(graph: NetGraph, epsilon: float) -> NetGraph:
    """Zero edges with |w| < epsilon, then deactivate hidden nodes lacking a
    nonzero incoming or outgoing edge, cascading until stable."""
    if not epsilon >= 0:
        raise DomainError(f"epsilon must be >= 0, got {epsilon!r}")
    g = graph.copy()
    for w in g.weights:
        w[np.abs(w) < epsilon] = 0.0
    changed = True
    while changed:
        changed = False
        for layer in range(1, g.n_layers - 1):
            # Zeroing node j's row and column leaves the other nodes of the
            # layer as they were, so a whole layer's dead nodes go at once; a
            # particle that is already stable sees no dead node here.
            w_in, w_out = g.weights[layer - 1], g.weights[layer]
            alive = (w_in != 0.0).any(axis=-1) & (w_out != 0.0).any(axis=-2)
            dead = g.active[layer] & ~alive
            if dead.any():
                g.active[layer][dead] = False
                np.copyto(w_in, 0.0, where=dead[..., :, None])
                np.copyto(w_out, 0.0, where=dead[..., None, :])
                changed = True
    return g


def importance(graph: NetGraph, layer: int) -> np.ndarray:
    """Per-node influence on the next layer: column sums of the outgoing matrix.

    Signed sums follow the definition on nonnegativity-constrained matrices;
    on sign-unconstrained matrices absolute values are summed instead, since
    signed weights can cancel and make the ordering arbitrary.  Each column
    is summed in ascending order of its values, so the sum, to the last bit,
    does not depend on the order of the next layer's nodes.  Inactive nodes
    score zero.
    """
    if not 0 < layer < graph.n_layers - 1:
        raise DomainError("importance is defined for hidden layers only")
    w = graph.weights[layer]
    v = w if graph.nonneg_mask[layer] else np.abs(w)
    return np.where(graph.active[layer], np.sort(v, axis=-2).sum(axis=-2), 0.0)


def sort_nodes(graph: NetGraph) -> NetGraph:
    """Reorder every hidden layer by descending importance (active first,
    ties broken by current position), remapping adjacent weight matrices."""
    g = graph.copy()
    for layer in range(1, g.n_layers - 1):
        s = importance(g, layer)
        perm = np.lexsort((-s, ~g.active[layer]), axis=-1)   # stable
        g.weights[layer - 1] = np.take_along_axis(g.weights[layer - 1],
                                                  perm[..., :, None], axis=-2)
        g.weights[layer] = np.take_along_axis(g.weights[layer], perm[..., None, :],
                                              axis=-1)
        g.active[layer] = np.take_along_axis(g.active[layer], perm, axis=-1)
        g.provenance[layer] = np.take_along_axis(g.provenance[layer], perm, axis=-1)
    return g


def common_template(graph: NetGraph) -> tuple[int, ...]:
    """Template widths: per hidden layer, the max active-node count across
    the ensemble; input and output widths are fixed."""
    hidden = [int(graph.active[layer].sum(axis=-1).max())
              for layer in range(1, graph.n_layers - 1)]
    return (graph.widths[0], *hidden, graph.widths[-1])


def reconcile(graph: NetGraph, template_widths: tuple[int, ...]) -> NetGraph:
    """Embed a pruned, sorted graph into the template, padding with inert
    zero-weight nodes; the member's input-output map is unchanged.

    Each hidden layer keeps its active nodes, in their order, in the leading
    slots; the rest is padding.
    """
    lead = graph.active[0].shape[:-1]
    last = graph.n_layers - 1
    order, live = [], []
    for layer, (width, w_t) in enumerate(zip(graph.widths, template_widths)):
        if layer in (0, last):
            order.append(np.broadcast_to(np.arange(width), lead + (width,)))
            live.append(np.ones(lead + (width,), dtype=bool))
            continue
        act = graph.active[layer]
        n_act = act.sum(axis=-1)
        if (n_act > w_t).any():
            raise ShapeError(f"layer {layer}: {n_act.max()} active nodes overflow "
                             f"template width {w_t}")
        o = np.zeros(lead + (w_t,), dtype=int)
        o[..., :min(width, w_t)] = np.argsort(~act, axis=-1, kind="stable")[..., :w_t]
        order.append(o)
        live.append(np.arange(w_t) < n_act[..., None])
    weights = []
    for layer in range(1, graph.n_layers):
        w = np.take_along_axis(graph.weights[layer - 1], order[layer][..., :, None],
                               axis=-2)
        w = np.take_along_axis(w, order[layer - 1][..., None, :], axis=-1)
        weights.append(np.where(live[layer][..., :, None] & live[layer - 1][..., None, :],
                                w, 0.0))
    prov = [np.where(a, np.take_along_axis(p, o, axis=-1), -1)
            for p, o, a in zip(graph.provenance, order, live)]
    return NetGraph(tuple(template_widths), weights, live, prov, graph.nonneg_mask)


def condense_graphs(graph: NetGraph, epsilon: float) -> tuple[NetGraph, tuple[int, ...]]:
    """One prune -> sort -> template -> reconcile pass on a stacked graph;
    its result is a fixpoint of the pass.

    Raises ``CondenseError`` naming the first hidden layer that died in every
    particle: its softplus cannot be composed through."""
    graph = sort_nodes(prune(graph, epsilon))
    widths = common_template(graph)
    if 0 in widths[1:-1]:
        raise CondenseError(f"hidden layer {widths.index(0, 1)} died in every "
                            f"particle; a softplus layer cannot be composed through")
    return reconcile(graph, widths), widths


def distance_matrix(particle_weights) -> np.ndarray:
    """Pairwise distances sqrt(sum_l ||W_la - W_lb||_F^2) from flat weight rows:
    the square root of the squared distances that ``kernels`` forms for the
    median bandwidth, bit for bit."""
    return np.sqrt(pairwise_square_sums(particle_weights)[1])


def dump_graph(graph: NetGraph, paths) -> None:
    """Delimited node and edge lists for external plotting, one file per
    particle of a stacked graph.

    A ``nodes`` section (layer, index, importance, active) followed by an
    ``edges`` section (from_layer, from_index, to_index, weight); zero-weight
    edges are omitted.  ``paths`` holds one path per particle.
    """
    if isinstance(paths, (str, os.PathLike)):
        raise ShapeError(f"paths must hold one path per particle, got the one path {paths!r}")
    n = len(graph.active[0])
    if len(paths) != n:
        raise ShapeError(f"{len(paths)} paths for a stack of {n} graphs")
    # Line prefixes are shared by every particle; edges follow the flat
    # (link, row, column) order, which is that of np.nonzero per matrix.
    node_prefix = [f"{layer},{j}," for layer, w in enumerate(graph.widths)
                   for j in range(w)]
    edge_prefix = [f"{k},{j},{i}," for k, w in enumerate(graph.weights)
                   for i in range(w.shape[-2]) for j in range(w.shape[-1])]
    imp = [importance(graph, layer) if 0 < layer < graph.n_layers - 1
           else np.zeros((n, width)) for layer, width in enumerate(graph.widths)]
    values = np.concatenate(imp + [w.reshape(n, -1) for w in graph.weights], axis=1)
    active = np.concatenate(graph.active, axis=1).tolist()
    n_nodes = len(node_prefix)
    for path, row, act in zip(paths, values, active):
        row = row.tolist()
        lines = ["nodes", "layer,index,importance,active"]
        lines += [f"{p}{v!r},{int(a)}" for p, v, a in zip(node_prefix, row[:n_nodes], act)]
        lines += ["edges", "from_layer,from_index,to_index,weight"]
        lines += [p + repr(v) for p, v in zip(edge_prefix, row[n_nodes:]) if v != 0.0]
        # the csv module's line terminator
        write_text_atomically(path, "\r\n".join(lines) + "\r\n")
