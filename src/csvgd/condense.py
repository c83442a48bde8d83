"""Graph condensation: prune insignificant edges and dead nodes, sort nodes by
importance, and embed every ensemble member into a shared padded template.

Node sorting permutes rows of the incoming weight matrix and columns of the
outgoing one, so each member's input-output map is preserved; pruning changes
it by at most the threshold times the local fan-in.  Input and output layers
are never pruned or permuted.  Bias-carrying networks are out of scope here.

``distance_matrix`` is the graph metric over flat weight rows; the pairwise
pass behind it, with its bounded memory, belongs to ``kernels``, which owns
distances, the kernel matrix and the Stein direction.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import CondenseError, DomainError, ShapeError
from .kernels import pairwise_power_sum
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
    """Directed-graph view of one network: weights plus activity/provenance."""

    widths: tuple[int, ...]
    weights: list[np.ndarray]
    active: list[np.ndarray]        # bool per layer; ends are always fully active
    provenance: list[np.ndarray]    # original node index per slot, -1 for padding
    activations: tuple[str, ...]
    nonneg_mask: tuple[bool, ...]

    @classmethod
    def from_net(cls, net: LayeredNet) -> "NetGraph":
        if net.biases:
            raise CondenseError("condensation supports bias-free networks only")
        return cls(
            widths=net.layer_widths,
            weights=[np.array(w) for w in net.weights],
            active=[np.ones(w, dtype=bool) for w in net.layer_widths],
            provenance=[np.arange(w) for w in net.layer_widths],
            activations=net.activations,
            nonneg_mask=net.nonneg_mask,
        )

    def to_net(self) -> LayeredNet:
        return LayeredNet(self.widths, tuple(np.array(w) for w in self.weights), (),
                          self.activations, self.nonneg_mask)

    def copy(self) -> "NetGraph":
        return NetGraph(self.widths, [w.copy() for w in self.weights],
                        [a.copy() for a in self.active],
                        [p.copy() for p in self.provenance],
                        self.activations, self.nonneg_mask)

    @property
    def n_layers(self) -> int:
        return len(self.widths)

    def active_counts(self) -> tuple[int, ...]:
        return tuple(int(a.sum()) for a in self.active)


def prune(graph: NetGraph, epsilon: float) -> NetGraph:
    """Zero edges with |w| < epsilon, then deactivate hidden nodes lacking a
    nonzero incoming or outgoing edge, cascading until stable."""
    if epsilon < 0:
        raise DomainError("epsilon must be >= 0")
    g = graph.copy()
    for w in g.weights:
        w[np.abs(w) < epsilon] = 0.0
    changed = True
    while changed:
        changed = False
        for layer in range(1, g.n_layers - 1):
            # Zeroing node j's row and column leaves the other nodes of the
            # layer as they were, so a whole layer's dead nodes go at once.
            w_in, w_out = g.weights[layer - 1], g.weights[layer]
            alive = (w_in != 0.0).any(axis=1) & (w_out != 0.0).any(axis=0)
            dead = g.active[layer] & ~alive
            if dead.any():
                g.active[layer][dead] = False
                w_in[dead, :] = 0.0
                w_out[:, dead] = 0.0
                changed = True
    return g


def importance(graph: NetGraph, layer: int) -> np.ndarray:
    """Per-node influence on the next layer: column sums of the outgoing matrix.

    Signed sums follow the definition on nonnegativity-constrained matrices;
    on sign-unconstrained matrices absolute values are summed instead, since
    signed weights can cancel and make the ordering arbitrary.  Inactive
    nodes score zero.
    """
    if not 0 < layer < graph.n_layers - 1:
        raise DomainError("importance is defined for hidden layers only")
    w = graph.weights[layer]
    s = w.sum(axis=0) if graph.nonneg_mask[layer] else np.abs(w).sum(axis=0)
    return np.where(graph.active[layer], s, 0.0)


def sort_nodes(graph: NetGraph) -> NetGraph:
    """Reorder every hidden layer by descending importance (active first,
    ties broken by current position), remapping adjacent weight matrices."""
    g = graph.copy()
    for layer in range(1, g.n_layers - 1):
        s = importance(g, layer)
        order = sorted(range(g.widths[layer]),
                       key=lambda j: (not g.active[layer][j], -s[j], j))
        perm = np.asarray(order, dtype=int)
        if np.array_equal(perm, np.arange(perm.size)):
            continue
        g.weights[layer - 1] = g.weights[layer - 1][perm, :]
        g.weights[layer] = g.weights[layer][:, perm]
        g.active[layer] = g.active[layer][perm]
        g.provenance[layer] = g.provenance[layer][perm]
    return g


def common_template(graphs: list[NetGraph]) -> tuple[int, ...]:
    """Template widths: per hidden layer, the max active-node count across
    the ensemble; input and output widths are fixed."""
    first = graphs[0]
    for g in graphs[1:]:
        if (g.n_layers != first.n_layers
                or g.widths[0] != first.widths[0]
                or g.widths[-1] != first.widths[-1]):
            raise ShapeError("graphs disagree on layer count or end widths")
    widths = [first.widths[0]]
    for layer in range(1, first.n_layers - 1):
        widths.append(max(int(g.active[layer].sum()) for g in graphs))
    widths.append(first.widths[-1])
    return tuple(widths)


def reconcile(graph: NetGraph, template_widths: tuple[int, ...]) -> NetGraph:
    """Embed a pruned, sorted graph into the template, padding with inert
    zero-weight nodes; the member's input-output map is unchanged."""
    idx = []
    for layer in range(graph.n_layers):
        if layer == 0 or layer == graph.n_layers - 1:
            idx.append(np.arange(graph.widths[layer]))
            continue
        act = np.flatnonzero(graph.active[layer])
        if act.size > template_widths[layer]:
            raise ShapeError(f"layer {layer}: {act.size} active nodes overflow "
                             f"template width {template_widths[layer]}")
        idx.append(act)
    weights, active, prov = [], [], []
    for layer in range(graph.n_layers):
        w_t = template_widths[layer]
        n_act = idx[layer].size
        a = np.zeros(w_t, dtype=bool)
        a[:n_act] = True
        p = np.full(w_t, -1, dtype=int)
        p[:n_act] = graph.provenance[layer][idx[layer]]
        active.append(a)
        prov.append(p)
        if layer > 0:
            w = np.zeros((w_t, template_widths[layer - 1]))
            w[:n_act, :idx[layer - 1].size] = \
                graph.weights[layer - 1][np.ix_(idx[layer], idx[layer - 1])]
            weights.append(w)
    return NetGraph(tuple(template_widths), weights, active, prov,
                    graph.activations, graph.nonneg_mask)


def _collapse_dead_layers(graphs: list[NetGraph],
                          widths: tuple[int, ...]) -> tuple[list[NetGraph], tuple[int, ...]]:
    """Remove zero-width hidden layers by composing the adjacent affine maps.

    Only defined when the dead layer's activation is the identity; softplus
    cannot be composed through and aborts with a diagnostic.
    """
    while 0 in widths[1:-1]:
        layer = next(i for i in range(1, len(widths) - 1) if widths[i] == 0)
        if graphs[0].activations[layer - 1] != "identity":
            raise CondenseError(
                f"hidden layer {layer} died in every particle and its activation "
                f"is {graphs[0].activations[layer - 1]!r}; cannot compose through it")
        new = []
        for g in graphs:
            w_merged = g.weights[layer] @ g.weights[layer - 1]
            weights = g.weights[:layer - 1] + [w_merged] + g.weights[layer + 1:]
            acts = g.activations[:layer - 1] + g.activations[layer:]
            mask = (g.nonneg_mask[:layer - 1]
                    + (g.nonneg_mask[layer - 1] and g.nonneg_mask[layer],)
                    + g.nonneg_mask[layer + 1:])
            new.append(NetGraph(g.widths[:layer] + g.widths[layer + 1:], weights,
                                g.active[:layer] + g.active[layer + 1:],
                                g.provenance[:layer] + g.provenance[layer + 1:],
                                acts, mask))
        graphs = new
        widths = widths[:layer] + widths[layer + 1:]
    return graphs, widths


def condense_graphs(graphs: list[NetGraph], epsilon: float,
                    max_passes: int = 20) -> tuple[list[NetGraph], tuple[int, ...]]:
    """Iterate prune -> sort -> template -> reconcile until the template and
    every member's active edge set stop changing."""
    signature = None
    widths = graphs[0].widths
    for _ in range(max_passes):
        graphs = [sort_nodes(prune(g, epsilon)) for g in graphs]
        widths = common_template(graphs)
        if 0 in widths[1:-1]:
            graphs, widths = _collapse_dead_layers(graphs, widths)
        graphs = [reconcile(g, widths) for g in graphs]
        sig = (widths, tuple((w != 0.0).tobytes() for g in graphs for w in g.weights))
        if sig == signature:
            break
        signature = sig
    return graphs, widths


def distance_matrix(particle_weights) -> np.ndarray:
    """Pairwise distances sqrt(sum_l ||W_la - W_lb||_F^2) from flat weight rows.

    The square root of ``kernels.pairwise_power_sum`` at beta=2, which bounds
    the working memory; see that module.
    """
    P = np.atleast_2d(np.asarray(particle_weights, dtype=float))
    return np.sqrt(pairwise_power_sum(P, P, 2))


def dump_graph(graph: NetGraph, path) -> None:
    """Delimited node and edge lists for external plotting.

    A ``nodes`` section (layer, index, importance, active) followed by an
    ``edges`` section (from_layer, from_index, to_index, weight); zero-weight
    edges are omitted.
    """
    lines = ["nodes", "layer,index,importance,active"]
    for layer in range(graph.n_layers):
        if 0 < layer < graph.n_layers - 1:
            imp = importance(graph, layer)
        else:
            imp = np.zeros(graph.widths[layer])
        active = graph.active[layer].tolist()
        lines += [f"{layer},{j},{v!r},{int(a)}"
                  for j, (v, a) in enumerate(zip(imp.tolist(), active))]
    lines += ["edges", "from_layer,from_index,to_index,weight"]
    for k, mat in enumerate(graph.weights):
        rows, cols = np.nonzero(mat)
        values = mat[rows, cols].tolist()
        lines += [f"{k},{j},{i},{v!r}"
                  for i, j, v in zip(rows.tolist(), cols.tolist(), values)]
    # the csv module's line terminator, which load_graph_dump reads back
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def load_graph_dump(path) -> tuple[list[tuple], list[tuple]]:
    """Parse a dump_graph file back into (node rows, edge rows)."""
    nodes, edges, section = [], [], None
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if row == ["nodes"]:
                section, skip = "nodes", True
                continue
            if row == ["edges"]:
                section, skip = "edges", True
                continue
            if skip:
                skip = False
                continue
            if section == "nodes":
                nodes.append((int(row[0]), int(row[1]), float(row[2]), bool(int(row[3]))))
            else:
                edges.append((int(row[0]), int(row[1]), int(row[2]), float(row[3])))
    return nodes, edges
