import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csvgd import condense as gc
from csvgd import network as nw
from csvgd.engine import (Ensemble, _remap_opt_state, active_param_count,
                          condense_ensemble, init_net_ensemble)
from csvgd.errors import CondenseError, DomainError, ShapeError
from csvgd.mechanics import icnn_template

from _oracles import (condense_ensemble_per_particle, condense_graphs_per_graph,
                      dump_graph_csv, dump_graph_per_graph, dump_graphs_per_particle,
                      graph_of_net, load_graph_dump, net_stack_of_graph, nets_of,
                      prune_per_graph, prune_per_node, reconcile_per_graph,
                      pass_output, remap_opt_state_per_particle, softplus_formula,
                      sort_nodes_per_graph)
from conftest import one_row, random_net


def graph_of(net):
    """The one-particle stacked graph of ``net``."""
    return gc.NetGraph.from_net(net, one_row(net))


def outputs_of(graph, X):
    """Network outputs (N, batch, out) of every particle of a stacked graph."""
    template, P = net_stack_of_graph(graph)
    return pass_output(nw.forward_pass(template, X, P))


def chain(weights, nonneg=None):
    weights = [np.atleast_2d(np.asarray(w, dtype=float)) for w in weights]
    widths = [weights[0].shape[1]] + [w.shape[0] for w in weights]
    nonneg = nonneg or (False,) * len(weights)
    return nw.LayeredNet(tuple(widths), tuple(weights), tuple(nonneg))


class TestPrune:
    def test_zero_epsilon_is_identity(self, rng):
        g = graph_of(random_net(rng, (3, 5, 2)))
        pruned = gc.prune(g, 0.0)
        for a, b in zip(pruned.weights, g.weights):
            assert a.tolist() == b.tolist()
        assert all(x.all() for x in pruned.active)

    def test_small_edge_removed(self):
        net = chain([[[5e-4, 0.5]], [[1.0]]])
        pruned = gc.prune(graph_of(net), 1e-3)
        assert pruned.weights[0].tolist() == [[[0.0, 0.5]]]

    def test_orphan_cascade_on_1_2_1(self):
        # kill one hidden node's outgoing edge: the node and its incoming edge go
        net = chain([[[0.4], [0.3]], [[5e-4, 0.8]]])
        pruned = gc.prune(graph_of(net), 1e-3)
        assert pruned.active[1].tolist() == [[False, True]]
        assert pruned.weights[0][0, 0, 0] == 0.0       # incoming edge removed
        assert pruned.weights[1][0, 0, 0] == 0.0

    def test_negative_epsilon_rejected(self, rng):
        with pytest.raises(DomainError):
            gc.prune(graph_of(random_net(rng)), -1.0)

    def test_nan_epsilon_rejected(self, rng):
        with pytest.raises(DomainError):
            gc.prune(graph_of(random_net(rng)), float("nan"))

    def test_nan_epsilon_does_not_turn_pruning_off(self):
        ens = init_net_ensemble(icnn_template((3, 8, 8, 1)), 3, seed=2)
        with pytest.raises(DomainError):
            condense_ensemble(ens, float("nan"))

    @settings(max_examples=200, deadline=None)
    @given(widths=st.lists(st.integers(1, 5), min_size=3, max_size=6),
           seed=st.integers(0, 2**32 - 1), zero_share=st.floats(0.0, 0.9),
           epsilon=st.floats(0.0, 1.0))
    def test_layerwise_equals_per_node(self, widths, seed, zero_share, epsilon):
        rng = np.random.default_rng(seed)
        weights = []
        for a, b in zip(widths[:-1], widths[1:]):
            w = rng.uniform(-1.0, 1.0, size=(b, a))
            w[rng.random(w.shape) < zero_share] = 0.0
            weights.append(w)
        net = chain(weights)
        g, single = graph_of(net), graph_of_net(net)
        for layer in range(1, len(widths) - 1):       # padding-like inactive slots
            single.active[layer] &= rng.random(widths[layer]) < 0.8
            g.active[layer][0] = single.active[layer]
        got, want = gc.prune(g, epsilon), prune_per_node(single, epsilon)
        for a, b in zip(got.weights + got.active, want.weights + want.active):
            np.testing.assert_array_equal(a[0], b)


class TestImportance:
    def test_column_sums(self):
        # outgoing matrix [[1,2],[3,4]] of the hidden layer: column sums (4, 6)
        net = chain([[[1.0, 1.0], [1.0, 1.0]], [[1.0, 2.0], [3.0, 4.0]]],
                    nonneg=(True, True))
        g = graph_of(net)
        assert gc.importance(g, 1).tolist() == [[4.0, 6.0]]

    def test_zero_outgoing(self):
        net = chain([[[1.0], [1.0]], [[0.0, 0.0]]])
        g = graph_of(net)
        assert gc.importance(g, 1).tolist() == [[0.0, 0.0]]

    def test_unconstrained_uses_absolute_values(self):
        net = chain([[[1.0], [1.0]], [[-3.0, 2.0]]], nonneg=(False, False))
        g = graph_of(net)
        assert gc.importance(g, 1).tolist() == [[3.0, 2.0]]

    def test_nonneg_matches_l1_ordering(self, rng):
        net = random_net(rng, (3, 6, 2), nonneg=(True, True))
        g = graph_of(net)
        s = gc.importance(g, 1)[0]
        l1 = np.abs(net.weights[1]).sum(axis=0)
        assert np.argsort(-s).tolist() == np.argsort(-l1).tolist()

    def test_end_layers_rejected(self, rng):
        g = graph_of(random_net(rng))
        with pytest.raises(DomainError):
            gc.importance(g, 0)

    @settings(max_examples=200, deadline=None)
    @given(widths=st.lists(st.integers(1, 9), min_size=3, max_size=5),
           n_particles=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           zero_share=st.sampled_from([0.0, 0.3]))
    def test_independent_of_next_layer_order(self, widths, n_particles, seed, zero_share):
        """Bit for bit, whatever order the next layer's nodes are in, on
        tie-prone signed and nonneg links."""
        template, P = random_stack(widths, n_particles, seed, True, zero_share)
        g = gc.NetGraph.from_net(template, P)
        rng = np.random.default_rng(seed)
        for layer in range(1, g.n_layers - 1):
            perm = np.argsort(rng.random((n_particles, widths[layer + 1])), axis=-1)
            shuffled = g.copy()
            shuffled.weights[layer] = np.take_along_axis(g.weights[layer],
                                                         perm[..., :, None], axis=-2)
            assert same_bits(gc.importance(shuffled, layer), gc.importance(g, layer))


class TestSortNodes:
    def test_sorted_graph_unchanged(self):
        net = chain([[[1.0], [1.0]], [[5.0, 1.0]]], nonneg=(True, True))
        g = gc.sort_nodes(graph_of(net))
        assert g.provenance[1].tolist() == [[0, 1]]

    def test_swap_by_importance_preserves_forward(self, rng):
        net = chain([[[0.9], [0.7]], [[1.0, 5.0]]], nonneg=(True, True))
        g = gc.sort_nodes(graph_of(net))
        assert g.provenance[1].tolist() == [[1, 0]]
        x = rng.normal(size=(10, 1))
        before = pass_output(nw.forward_pass(net, x, one_row(net)))
        assert np.max(np.abs(before - outputs_of(g, x))) <= 1e-12

    def test_ties_keep_original_order(self):
        net = chain([[[1.0], [1.0], [1.0]], [[2.0, 2.0, 2.0]]], nonneg=(True, True))
        g = gc.sort_nodes(graph_of(net))
        assert g.provenance[1].tolist() == [[0, 1, 2]]

    def test_weight_multiset_preserved(self, rng):
        net = random_net(rng, (3, 7, 2), nonneg=(True, True))
        g = gc.sort_nodes(graph_of(net))
        for a, b in zip(g.weights, net.weights):
            assert sorted(a.ravel().tolist()) == sorted(b.ravel().tolist())


class TestTemplateAndReconcile:
    def _ensemble(self, rng, n=3, widths=(2, 5, 1)):
        nets = [random_net(rng, widths, nonneg=(True,) * (len(widths) - 1))
                for _ in range(n)]
        return gc.NetGraph.from_net(nets[0], np.concatenate([one_row(n) for n in nets]))

    def test_identical_graphs_template(self, rng):
        net = random_net(rng, (2, 4, 1))
        g = gc.NetGraph.from_net(net, np.repeat(one_row(net), 3, axis=0))
        assert gc.common_template(g) == (2, 4, 1)

    def test_max_active_rule(self, rng):
        g = self._ensemble(rng)
        for a, keep in enumerate((3, 5, 4)):
            g.active[1][a, keep:] = False
        assert gc.common_template(g) == (2, 5, 1)

    def test_heterogeneous_layers_rejected(self, rng):
        # rows laid out for another architecture do not make a stack
        deeper = random_net(rng, (2, 4, 4, 1))
        with pytest.raises(ShapeError):
            gc.NetGraph.from_net(random_net(rng, (2, 4, 1)), one_row(deeper))

    def test_reconcile_pads_inert_nodes(self, rng):
        net = chain([[[0.9], [0.7]], [[1.0, 5.0]]], nonneg=(True, True))
        g = gc.sort_nodes(gc.prune(graph_of(net), 0.0))
        padded = gc.reconcile(g, (1, 3, 1))
        assert padded.widths == (1, 3, 1)
        assert padded.provenance[1].tolist()[0][-1] == -1
        x = rng.normal(size=(10, 1))
        assert np.max(np.abs(pass_output(nw.forward_pass(net, x, one_row(net)))
                             - outputs_of(padded, x))) <= 1e-12

    def test_reconcile_on_own_template_is_identity(self, rng):
        net = random_net(rng, (2, 3, 1))
        g = gc.sort_nodes(gc.prune(graph_of(net), 0.0))
        r = gc.reconcile(g, (2, 3, 1))
        for a, b in zip(r.weights, g.weights):
            assert a.tolist() == b.tolist()

    def test_width_overflow_rejected(self, rng):
        g = graph_of(random_net(rng, (2, 4, 1)))
        with pytest.raises(ShapeError):
            gc.reconcile(g, (2, 2, 1))


class TestCondense:
    def _noisy_ensemble(self, rng, n=4):
        template = icnn_template((3, 8, 8, 1))
        ens = init_net_ensemble(template, n, seed=int(rng.integers(1 << 16)))
        # push a random third of the weights under the prune threshold
        P = ens.particles
        kill = rng.random(P.shape) < 0.33
        P[kill] *= 1e-5
        return ens

    def test_outputs_preserved_at_zero_epsilon(self, rng):
        ens = self._noisy_ensemble(rng)
        X = rng.normal(size=(100, 3))
        before = pass_output(nw.forward_pass(ens.template, X, ens.particles))
        out, _ = condense_ensemble(ens, 0.0)
        after = pass_output(nw.forward_pass(out.template, X, out.particles))
        for b, a in zip(before, after):
            assert np.max(np.abs(b - a)) <= 1e-12

    def test_idempotent(self, rng):
        ens = self._noisy_ensemble(rng)
        once, _ = condense_ensemble(ens, 1e-3)
        twice, _ = condense_ensemble(once, 1e-3)
        assert once.template.layer_widths == twice.template.layer_widths
        assert once.particles.tolist() == twice.particles.tolist()

    def test_active_count_never_increases(self, rng):
        ens = self._noisy_ensemble(rng)
        before = active_param_count(ens, 1e-3)
        out, _ = condense_ensemble(ens, 1e-3)
        assert active_param_count(out, 1e-3) <= before

    def test_strictly_reduces_on_noisy_ensemble(self, rng):
        ens = self._noisy_ensemble(rng)
        before = ens.particles.shape[1]
        out, _ = condense_ensemble(ens, 1e-3)
        assert out.particles.shape[1] < before

    def test_bounded_perturbation(self, rng):
        """Output shift from pruning respects a computed fan-in bound.

        Sorting and padding preserve outputs exactly, so condensation's whole
        effect is the edge/node pruning.  With |z' - z| <= |dW| |h| + |W'| |dh|
        and 1-Lipschitz activations, cascading the removed-weight magnitudes
        against the original activation levels bounds the final shift.
        """
        eps = 1e-3
        ens = self._noisy_ensemble(rng)
        X = rng.uniform(-1.0, 1.0, size=(50, 3))
        before = pass_output(nw.forward_pass(ens.template, X, ens.particles))
        bounds = []
        pruned = gc.prune(gc.NetGraph.from_net(ens.template, ens.particles), eps)
        for a, net in enumerate(nets_of(ens)):
            h = X
            dh = np.zeros(X.shape[1])
            for k in range(net.n_links):
                level = np.abs(h).max(axis=0)
                dW = np.abs(net.weights[k] - pruned.weights[k][a])
                dz = dW @ level + np.abs(pruned.weights[k][a]) @ dh
                z = h @ net.weights[k].T
                h = z if k == net.n_links - 1 else softplus_formula(z)
                dh = dz
            bounds.append(dh.max())
        out, _ = condense_ensemble(ens, eps)
        after = pass_output(nw.forward_pass(out.template, X, out.particles))
        for b, a, bound in zip(before, after, bounds):
            assert np.max(np.abs(b - a)) <= bound + 1e-9

    def test_dead_softplus_layer_aborts(self):
        net = chain([[[0.0], [0.0]], [[0.0, 0.0]]])
        with pytest.raises(CondenseError, match="hidden layer 1 died in every particle"):
            gc.condense_graphs(graph_of(net), 1e-3)

    @settings(max_examples=300, deadline=None)
    @given(widths=st.lists(st.integers(1, 6), min_size=3, max_size=9),
           n_graphs=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           tie_values=st.booleans(), zero_share=st.floats(0.0, 0.9),
           epsilon=st.sampled_from([0.0, 0.15, 0.25]) | st.floats(0.0, 1.0))
    def test_one_pass_is_a_fixpoint(self, widths, n_graphs, seed, tie_values,
                                    zero_share, epsilon):
        """One pass per call, and condensing its result again returns it bit
        for bit, on tie-prone weights too.

        Pruning is final after the pass, and a layer dead in every particle
        ends it.  Importance does not depend on the next layer's order, so
        sorting one layer never reorders another.
        """
        rng = np.random.default_rng(seed)
        n_links = len(widths) - 1
        nonneg = tuple(bool(x) for x in rng.random(n_links) < 0.5)
        pool = np.array([0.1, 0.2, 0.3, 1 / 3, 0.6, 0.7])   # sums that tie in the last bit
        rows = []
        for _ in range(n_graphs):
            weights = []
            for k, (a, b) in enumerate(zip(widths[:-1], widths[1:])):
                w = (rng.choice(pool, size=(b, a)) if tie_values
                     else rng.uniform(0.0, 1.0, size=(b, a)))
                if not nonneg[k]:
                    w *= rng.choice([-1.0, 1.0], size=w.shape)
                w[rng.random(w.shape) < zero_share] = 0.0
                weights.append(w)
            net = chain(weights, nonneg=nonneg)
            rows.append(one_row(net))
        graph = gc.NetGraph.from_net(net, np.concatenate(rows))
        with mock.patch.object(gc, "common_template", wraps=gc.common_template) as passes:
            try:
                once, widths_once = gc.condense_graphs(graph, epsilon)
            except CondenseError:
                assert passes.call_count == 1
                return                      # a dead softplus layer, named
            assert passes.call_count == 1
            twice, widths_twice = gc.condense_graphs(once, epsilon)
            assert passes.call_count == 2
        assert widths_twice == widths_once == once.widths
        for name in ("weights", "active", "provenance"):
            for a, b in zip(getattr(twice, name), getattr(once, name)):
                assert same_bits(a, b), name

    def test_bias_networks_rejected(self, rng):
        # condensation reconciles edges only, and a LayeredNet has no biases;
        # a network document that carries some is refused where it is read
        doc = nw.net_to_dict(random_net(rng, (2, 3, 1)))
        assert doc["biases"] == []
        doc["biases"] = [rng.normal(size=3).tolist(), rng.normal(size=1).tolist()]
        with pytest.raises(ShapeError, match="bias-free"):
            nw.net_from_dict(doc)


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_stack_equals(stacked, singles):
    """A stacked graph holds, particle by particle, the given single graphs."""
    assert stacked.widths == singles[0].widths
    assert stacked.nonneg_mask == singles[0].nonneg_mask
    for name in ("weights", "active", "provenance"):
        got = getattr(stacked, name)
        want = [np.stack(arrays) for arrays in zip(*(getattr(g, name) for g in singles))]
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a, b) and same_bits(a, b), name


def random_stack(widths, n_particles, seed, tie_values, zero_share):
    """A bias-free template and flat particle rows: random nonneg masks,
    tie-prone or uniform weights, a share of exact zeros."""
    rng = np.random.default_rng(seed)
    n_links = len(widths) - 1
    nonneg = tuple(bool(x) for x in rng.random(n_links) < 0.5)
    template = nw.LayeredNet(tuple(widths),
                             tuple(np.zeros((b, a)) for a, b in zip(widths[:-1], widths[1:])),
                             nonneg)
    pool = np.array([0.1, 0.2, 0.3, 1 / 3, 0.6, 0.7])   # sums that tie in the last bit
    P = (rng.choice(pool, size=(n_particles, template.layout.size)) if tie_values
         else rng.uniform(0.0, 1.0, size=(n_particles, template.layout.size)))
    signed = ~template.nonneg_flat_mask()
    P[:, signed] *= rng.choice([-1.0, 1.0], size=(n_particles, int(signed.sum())))
    P[rng.random(P.shape) < zero_share] = 0.0
    return template, P


class TestStackEquivalence:
    """The stacked graph path against the one-graph-at-a-time path it
    replaced (`tests/_oracles.py`), bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(widths=st.lists(st.integers(1, 9), min_size=3, max_size=6),
           n_particles=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           tie_values=st.booleans(), zero_share=st.floats(0.0, 0.9),
           epsilon=st.sampled_from([0.0, 0.15, 0.25]) | st.floats(0.0, 1.0))
    def test_stack_equals_per_graph(self, widths, n_particles, seed, tie_values,
                                    zero_share, epsilon):
        template, P = random_stack(widths, n_particles, seed, tie_values, zero_share)
        stacked = gc.NetGraph.from_net(template, P)
        singles = [graph_of_net(template.with_values(p)) for p in P]
        assert_stack_equals(stacked, singles)

        pruned = gc.prune(stacked, epsilon)
        singles = [prune_per_graph(g, epsilon) for g in singles]
        assert_stack_equals(pruned, singles)
        ordered = gc.sort_nodes(pruned)
        singles = [sort_nodes_per_graph(g) for g in singles]
        assert_stack_equals(ordered, singles)
        # one spare slot past the widest particle: padding beyond the graph
        padded = tuple(w + (0 < k < len(widths) - 1)
                       for k, w in enumerate(gc.common_template(ordered)))
        assert_stack_equals(gc.reconcile(ordered, padded),
                            [reconcile_per_graph(g, padded) for g in singles])

        singles = [graph_of_net(template.with_values(p)) for p in P]
        try:
            want, want_widths = condense_graphs_per_graph(singles, epsilon)
        except CondenseError as err:
            with pytest.raises(CondenseError, match=re.escape(str(err))):
                gc.condense_graphs(gc.NetGraph.from_net(template, P), epsilon)
            with pytest.raises(CondenseError, match=re.escape(str(err))):
                condense_ensemble(Ensemble(P, template, np.random.default_rng(0)), epsilon)
            return
        with mock.patch.object(gc, "common_template", wraps=gc.common_template) as passes:
            got, got_widths = gc.condense_graphs(gc.NetGraph.from_net(template, P), epsilon)
        assert got_widths == want_widths
        assert passes.call_count == 1
        assert_stack_equals(got, want)

        ens, index_map = condense_ensemble(Ensemble(P, template, np.random.default_rng(0)),
                                           epsilon)
        rows, widths_pp, index_maps = condense_ensemble_per_particle(template, P, epsilon)
        assert ens.template.layer_widths == widths_pp
        assert same_bits(ens.particles, rows)
        opt = np.random.default_rng(seed).random(P.shape)
        assert same_bits(index_map, np.stack(index_maps))
        assert same_bits(_remap_opt_state(opt, index_map),
                         remap_opt_state_per_particle(opt, index_maps))

        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            n = len(P)
            gc.dump_graph(gc.prune(gc.NetGraph.from_net(template, P), 0.0),
                          [d / f"stack_{a}.txt" for a in range(n)])
            dump_graphs_per_particle(template, P, [d / f"single_{a}.txt" for a in range(n)])
            gc.dump_graph(got, [d / f"stack_condensed_{a}.txt" for a in range(n)])
            for a, g in enumerate(want):
                dump_graph_per_graph(g, d / f"single_condensed_{a}.txt")
            for a in range(n):
                for kind in ("", "condensed_"):
                    assert ((d / f"stack_{kind}{a}.txt").read_bytes()
                            == (d / f"single_{kind}{a}.txt").read_bytes())


class TestPermutationInvariance:
    @settings(max_examples=200, deadline=None)
    @given(widths=st.lists(st.integers(1, 9), min_size=3, max_size=6),
           n_particles=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           epsilon=st.sampled_from([0.0, 0.15, 0.25]) | st.floats(0.0, 1.0))
    def test_condensation_forgets_hidden_node_order(self, widths, n_particles, seed,
                                                    epsilon):
        """Permuting every hidden layer of every particle leaves the condensed
        particles and template bit for bit; only the index map, which every
        live slot's provenance feeds, follows the permutation.  Weights are
        tie-free, so importance alone orders the nodes."""
        template, P = random_stack(widths, n_particles, seed, False, 0.0)
        rng = np.random.default_rng(seed)
        positions = template.with_values(np.arange(template.layout.size, dtype=float))
        rows, origins = [], []
        for p in P:
            net, where = template.with_values(p), positions
            for layer in range(1, len(widths) - 1):
                perm = rng.permutation(widths[layer])
                net = nw.permute_hidden(net, layer, perm)
                where = nw.permute_hidden(where, layer, perm)
            rows.append(one_row(net)[0])
            origins.append(one_row(where)[0].astype(int))
        shuffled = np.stack(rows)

        def condense(particles):
            return condense_ensemble(Ensemble(particles, template, np.random.default_rng(0)),
                                     epsilon)

        try:
            want, want_map = condense(P)
        except CondenseError as err:
            with pytest.raises(CondenseError, match=re.escape(str(err))):
                condense(shuffled)
            return
        got, got_map = condense(shuffled)
        assert got.template.layer_widths == want.template.layer_widths
        assert same_bits(got.particles, want.particles)
        # the index map points into the permuted rows: map it back
        origins = np.stack(origins)
        unpermuted = np.take_along_axis(origins, np.maximum(got_map, 0), axis=1)
        assert same_bits(np.where(got_map >= 0, unpermuted, -1), want_map)


class TestDistanceMatrix:
    def test_zero_diagonal_and_symmetry(self, rng):
        P = rng.normal(size=(6, 10))
        D = gc.distance_matrix(P)
        assert np.all(np.diag(D) == 0.0)
        assert D == pytest.approx(D.T, abs=0)

    def test_single_weight_distance(self):
        D = gc.distance_matrix(np.array([[1.0], [4.0]]))
        assert D[0, 1] == pytest.approx(3.0)

    def test_matches_frobenius_sum(self, rng):
        template = icnn_template((3, 4, 1))
        ens = init_net_ensemble(template, 3, seed=9)
        D = gc.distance_matrix(ens.particles)
        nets = nets_of(ens)
        for a in range(3):
            for b in range(3):
                expected = np.sqrt(sum(np.sum((wa - wb) ** 2) for wa, wb in
                                       zip(nets[a].weights, nets[b].weights)))
                assert D[a, b] == pytest.approx(expected, abs=1e-12)


class TestGraphDump:
    @pytest.mark.parametrize("text", [
        "", "layer,index,importance,active\r\n0,0,0.0,1\r\n",
        "edges\r\nfrom_layer,from_index,to_index,weight\r\n"],
        ids=["empty", "no_section_line", "edges_first"])
    def test_file_without_nodes_section_rejected(self, tmp_path, text):
        path = tmp_path / "not_a_dump.txt"
        path.write_bytes(text.encode())
        with pytest.raises(ShapeError, match="not_a_dump.txt"):
            load_graph_dump(path)

    def test_round_trip_sections(self, rng, tmp_path):
        net = random_net(rng, (2, 3, 1))
        g = gc.prune(graph_of(net), 0.0)
        path = tmp_path / "graph.txt"
        gc.dump_graph(g, [path])
        nodes, edges = load_graph_dump(path)
        assert len(nodes) == sum(net.layer_widths)
        assert len(edges) == sum(int(np.count_nonzero(w)) for w in net.weights)
        # edge weights survive exactly
        k, j, i, w = edges[0]
        assert net.weights[k][i, j] == w

    def test_one_path_per_particle(self, rng, tmp_path):
        net = random_net(rng, (2, 3, 1))
        g = gc.NetGraph.from_net(net, np.repeat(one_row(net), 3, axis=0))
        with pytest.raises(ShapeError, match="2 paths for a stack of 3 graphs"):
            gc.dump_graph(g, [tmp_path / "a.txt", tmp_path / "b.txt"])
        # one path is not a list of paths: a 3-character name would have
        # written one file per character
        for path in (tmp_path / "abc", str(tmp_path / "abc"), "abc"):
            with pytest.raises(ShapeError, match="one path per particle"):
                gc.dump_graph(g, path)
        assert list(tmp_path.iterdir()) == []

    def test_from_net_takes_a_required_particle_stack(self, rng):
        net = random_net(rng, (2, 3, 1))
        with pytest.raises(TypeError, match="params"):
            gc.NetGraph.from_net(net)
        with pytest.raises(ShapeError, match=r"\(9,\) is not a particle stack \(N, 9\)"):
            gc.NetGraph.from_net(net, one_row(net)[0])

    def test_bytes_equal_csv_writer_rows(self, rng, tmp_path):
        net = random_net(rng, (3, 6, 5, 1), nonneg=(False, True, True))
        g = graph_of(net)
        g.weights[1][0, 2, :] = 0.0
        g = gc.reconcile(gc.sort_nodes(gc.prune(g, 0.1)), (3, 7, 5, 1))
        gc.dump_graph(g, [tmp_path / "one_write.txt"])
        dump_graph_csv(g, [tmp_path / "rows.txt"])
        one_write = (tmp_path / "one_write.txt").read_bytes()
        assert one_write == (tmp_path / "rows.txt").read_bytes()
