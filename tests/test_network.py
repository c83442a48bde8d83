import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from csvgd import network as nw
from csvgd.engine import (Ensemble, KernelSpec, SvgdConfig, active_param_count,
                          init_net_ensemble, svgd_step)
from csvgd.errors import NonFiniteGradientError, ShapeError
from csvgd.likelihoods import RegressionTarget
from csvgd.mechanics import generate_data, icnn_template

from _oracles import (FormulaPass, fd_gradient, pass_grad_params, pass_output,
                      sigmoid_deriv_formula, sigmoid_formula, softplus_formula)
from conftest import one_row, random_net


def single_layer(w, hidden=False):
    """The one-link (identity) net of ``w``; with ``hidden``, ``w`` feeds a
    softplus layer summed by a ones row."""
    w = np.atleast_2d(np.asarray(w, dtype=float))
    if hidden:
        return nw.LayeredNet((w.shape[1], w.shape[0], 1),
                             (w, np.ones((1, w.shape[0]))), (False, False))
    return nw.LayeredNet((w.shape[1], w.shape[0]), (w,), (False,))


class TestForward:
    def test_identity_single_layer(self):
        net = single_layer([[1.0]])
        out = pass_output(nw.forward_pass(net, [[2.0]], one_row(net)))
        assert out.ravel() == pytest.approx([2.0])

    def test_softplus_at_zero(self):
        net = single_layer([[1.0]], hidden=True)
        out = pass_output(nw.forward_pass(net, [[0.0]], one_row(net)))
        assert out.ravel() == pytest.approx([np.log(2.0)], abs=1e-15)

    def test_zero_weights_give_zero_output(self):
        widths = (3, 30, 30, 1)
        net = nw.LayeredNet(widths,
                            tuple(np.zeros((widths[k + 1], widths[k])) for k in range(3)),
                            (False, True, True))
        out = pass_output(nw.forward_pass(net, [[0.3, -1.0, 2.0]], one_row(net)))
        assert out.ravel() == pytest.approx([0.0])

    def test_dimension_mismatch(self):
        net = single_layer([[1.0]])
        with pytest.raises(ShapeError):
            nw.forward_pass(net, [[1.0, 2.0]], one_row(net))

    def test_one_sample_input_is_named(self):
        net = single_layer([[1.0, 2.0, 3.0]])
        with pytest.raises(ShapeError, match=r"input shape \(3,\) is not rows"):
            nw.forward_pass(net, [1.0, 2.0, 3.0], one_row(net))

    def test_params_are_a_required_particle_stack(self, rng):
        net = random_net(rng, (3, 4, 1))
        X = rng.normal(size=(5, 3))
        with pytest.raises(TypeError, match="params"):
            nw.forward_pass(net, X)
        with pytest.raises(ShapeError, match=r"\(16,\) is not a particle stack \(N, 16\)"):
            nw.forward_pass(net, X, one_row(net)[0])

    def test_batch_matches_single(self, rng):
        net = random_net(rng, (3, 5, 2))
        X = rng.normal(size=(7, 3))
        batch = pass_output(nw.forward_pass(net, X, one_row(net)))
        for b in range(7):
            assert batch[0, b] == pytest.approx(
                pass_output(nw.forward_pass(net, X[b:b + 1], one_row(net)))[0, 0], abs=1e-14)


class TestActivationTerms:
    """One evaluation gives softplus and its first derivative, and the second
    derivative follows from the first, bit for bit the separate formulas."""

    # at -800, exp(-|z|) underflows to 0
    Z = np.array([0.0, -0.0, 1e-300, -1e-300, 37.0, -37.0, 700.0, -700.0, -800.0, np.nan])

    @staticmethod
    def bits(a):
        return np.asarray(a, dtype=float).view(np.uint64)

    def test_softplus_terms_equal_separate_formulas(self):
        # value, first and second derivative, as the network passes form them
        value, d1 = nw._softplus_terms(self.Z)
        d2 = nw._sigmoid_slope(d1)
        for got, want in ((value, softplus_formula(self.Z)), (d1, sigmoid_formula(self.Z)),
                          (d2, sigmoid_deriv_formula(self.Z))):
            np.testing.assert_array_equal(self.bits(got), self.bits(want))


class TestGradParams:
    def test_linear_map(self):
        net = single_layer([[0.7]])
        g = pass_grad_params(nw.forward_pass(net, [[3.0]], one_row(net)), [[1.0]])
        assert g.ravel() == pytest.approx([3.0])

    def test_zero_upstream(self, rng):
        net = random_net(rng, (3, 4, 2))
        g = pass_grad_params(nw.forward_pass(net, rng.normal(size=(1, 3)), one_row(net)),
                             np.zeros((1, 2)))
        assert np.all(g == 0.0)

    def test_matches_finite_differences(self, rng):
        net = random_net(rng, (3, 4, 1))
        x = rng.normal(size=(1, 3))
        g = pass_grad_params(nw.forward_pass(net, x, one_row(net)), [[1.0]])[0]
        oracle = fd_gradient(
            lambda t: float(pass_output(nw.forward_pass(net, x, t[None]))[0, 0, 0]),
            net.layout.flatten(net.weights))
        rel = np.abs(g - oracle) / np.maximum(np.abs(oracle), 1e-10)
        assert rel.max() < 1e-5

    def test_batch_sums_samples(self, rng):
        net = random_net(rng, (2, 3, 2))
        X = rng.normal(size=(4, 2))
        U = rng.normal(size=(4, 2))
        P = one_row(net)
        total = pass_grad_params(nw.forward_pass(net, X, P), U)
        parts = sum(pass_grad_params(nw.forward_pass(net, X[b:b + 1], P), U[b:b + 1])
                    for b in range(4))
        assert total == pytest.approx(parts, abs=1e-12)


class TestGradInput:
    def test_identity_single_layer(self):
        net = single_layer([[2.0]])
        J = nw.forward_pass(net, [[1.0]], one_row(net)).grad_input()
        assert J.ravel() == pytest.approx([2.0])

    def test_softplus_slope_at_zero(self):
        net = single_layer([[1.0]], hidden=True)
        # softplus' = logistic, logistic(0) = 1/2
        J = nw.forward_pass(net, [[0.0]], one_row(net)).grad_input()
        assert J.ravel() == pytest.approx([0.5])

    def test_matches_finite_differences(self, rng):
        net = random_net(rng, (3, 5, 1))
        P = one_row(net)
        x = rng.normal(size=3)
        J = nw.forward_pass(net, x[None], P).grad_input()[0, 0, 0]
        oracle = fd_gradient(
            lambda xv: float(pass_output(nw.forward_pass(net, xv[None], P))[0, 0, 0]), x)
        rel = np.abs(J - oracle) / np.maximum(np.abs(oracle), 1e-10)
        assert rel.max() < 1e-5


class TestDirectionalSecondOrder:
    def test_dirderiv_is_jacobian_product(self, rng):
        # the reference the reverse-over-forward gradient is checked through
        net = random_net(rng, (3, 6, 2))
        P = one_row(net)
        x = rng.normal(size=(1, 3))
        u = rng.normal(size=(1, 3))
        J = nw.forward_pass(net, x, P).grad_input()
        assert FormulaPass(net, x, P).dirderiv(u) == pytest.approx(J @ u[0], abs=1e-12)

    def test_grad_params_dirderiv_matches_fd(self, rng):
        net = random_net(rng, (3, 4, 1))
        x = rng.normal(size=(1, 3))
        u = rng.normal(size=(1, 3))
        g = nw.forward_pass(net, x, one_row(net)).grad_params_dirderiv(u)[0]

        def phi(t):
            return float(FormulaPass(net, x, t[None]).dirderiv(u)[0, 0, 0])

        oracle = fd_gradient(phi, net.layout.flatten(net.weights))
        rel = np.abs(g - oracle) / np.maximum(np.abs(oracle), 1e-8)
        assert rel.max() < 1e-4


class TestParticleStack:
    """Every pass on a stack of flat parameter rows equals, row by row, the
    pass on a one-row stack of that row."""

    @staticmethod
    def _stack(rng, widths):
        nets = [random_net(rng, widths) for _ in range(4)]
        return nets[0], np.stack([n.layout.flatten(n.weights) for n in nets])

    @pytest.fixture
    def stack(self, rng):
        return self._stack(rng, (3, 5, 2))

    def test_forward(self, stack, rng):
        template, P = stack
        X = rng.normal(size=(6, 3))
        out = pass_output(nw.forward_pass(template, X, P))
        assert out.shape == (4, 6, 2)
        for a in range(4):
            assert out[a] == pytest.approx(
                pass_output(nw.forward_pass(template, X, P[a:a + 1]))[0], rel=1e-14, abs=1e-15)

    def test_grad_params_per_particle_upstream(self, stack, rng):
        template, P = stack
        X = rng.normal(size=(6, 3))
        U = rng.normal(size=(4, 6, 2))
        g = pass_grad_params(nw.forward_pass(template, X, P), U)
        assert g.shape == P.shape
        for a in range(4):
            assert g[a] == pytest.approx(
                pass_grad_params(nw.forward_pass(template, X, P[a:a + 1]), U[a])[0],
                rel=1e-13, abs=1e-14)

    def test_grad_params_shared_upstream(self, stack, rng):
        template, P = stack
        X = rng.normal(size=(6, 3))
        U = rng.normal(size=(6, 2))
        g = pass_grad_params(nw.forward_pass(template, X, P), U)
        for a in range(4):
            assert g[a] == pytest.approx(
                pass_grad_params(nw.forward_pass(template, X, P[a:a + 1]), U)[0],
                rel=1e-13, abs=1e-14)

    def test_grad_input(self, stack, rng):
        template, P = stack
        X = rng.normal(size=(6, 3))
        J = nw.forward_pass(template, X, P).grad_input()
        assert J.shape == (4, 6, 2, 3)
        for a in range(4):
            assert J[a] == pytest.approx(
                nw.forward_pass(template, X, P[a:a + 1]).grad_input()[0], rel=1e-14, abs=1e-15)

    def test_grad_params_dirderiv(self, rng):
        # the unit upstream, so the nets have one output
        template, P = self._stack(rng, (3, 5, 1))
        X = rng.normal(size=(6, 3))
        u = rng.normal(size=(4, 6, 3))
        g = nw.forward_pass(template, X, P).grad_params_dirderiv(u)
        assert g.shape == P.shape
        for a in range(4):
            assert g[a] == pytest.approx(
                nw.forward_pass(template, X, P[a:a + 1]).grad_params_dirderiv(u[a])[0],
                rel=1e-13, abs=1e-14)

    def test_wrong_row_width_rejected(self, stack, rng):
        template, P = stack
        with pytest.raises(ShapeError):
            nw.forward_pass(template, rng.normal(size=(6, 3)), P[:, :-1])


# finite values, -0.0 drawn on its own so that signed zeros show up often
_values = st.one_of(st.just(-0.0), st.just(0.0), st.floats(-4.0, 4.0))


@st.composite
def lean_pass_cases(draw, min_links=1, outputs=(1, 2)):
    """A net (-0.0 weights allowed) with an output width from ``outputs``, a
    particle stack of one or three flat rows, one or four input rows, and
    tangent directions and upstreams shared or per particle."""
    n_links = draw(st.integers(min_links, 3))
    widths = (tuple(draw(st.lists(st.integers(1, 4), min_size=n_links, max_size=n_links)))
              + (draw(st.sampled_from(outputs)),))
    weights = tuple(draw(arrays(float, (widths[k + 1], widths[k]), elements=_values))
                    for k in range(n_links))
    net = nw.LayeredNet(widths, weights, (False,) * n_links)
    stack = draw(st.sampled_from([1, 3]))
    params = draw(arrays(float, (stack, net.layout.size), elements=_values))
    rows = draw(st.sampled_from([1, 4]))
    X = draw(arrays(float, (rows, widths[0]), elements=_values))
    u = draw(arrays(float, draw(st.sampled_from([(), (stack,)])) + (rows, widths[0]),
                    elements=_values))
    up = draw(arrays(float, draw(st.sampled_from([(), (stack,)])) + (rows, widths[-1]),
                     elements=_values))
    return net, params, X, u, up


class TestLeanPasses:
    """The passes skip exactly known work (zero adjoints, the unit Jacobian of
    the output link, unread second derivatives) and still give the replaced
    formulas' bits, signed zeros included."""

    @staticmethod
    def bits(a):
        return np.ascontiguousarray(a, dtype=float).view(np.uint64)

    @settings(max_examples=400, deadline=None)
    @given(case=lean_pass_cases())
    def test_every_pass_equals_the_replaced_formulas_bit_for_bit(self, case):
        net, params, X, u, up = case
        lean, formulas = nw.forward_pass(net, X, params), FormulaPass(net, X, params)
        # the passes scale their running products in place, but never what
        # they read: the weights, the kept arrays of the forward pass, its
        # cached first product and the caller's arrays are read-only here
        for a in (list(lean.W) + lean.H + lean.D1 + [u, up]
                  + ([lean._top] if net.n_links > 1 else [])):
            a.flags.writeable = False
        for got, want in ((pass_output(lean), formulas.output()),
                          (lean.grad_input(), formulas.grad_input()),
                          (pass_grad_params(lean, up), formulas.grad_params(up))):
            assert got.shape == want.shape
            np.testing.assert_array_equal(self.bits(got), self.bits(want))
        if net.layer_widths[-1] == 1:
            # the unit upstream, after grad_input (sharing its first product)
            # and on a pass that has not formed it yet
            ones = np.ones(np.shape(X)[:-1] + (1,))
            want = formulas.grad_params_dirderiv(u, ones)
            for got in (lean.grad_params_dirderiv(u),
                        nw.forward_pass(net, X, params).grad_params_dirderiv(u)):
                assert got.shape == want.shape
                np.testing.assert_array_equal(self.bits(got), self.bits(want))

    @settings(max_examples=300, deadline=None)
    @given(case=lean_pass_cases(min_links=2, outputs=(1,)), data=st.data())
    def test_a_non_finite_weight_or_input_still_stops_the_step(self, case, data):
        # No dropped term hides a non-finite value: where the replaced
        # formulas give a non-finite gradient, so does the lean pass.  (A
        # one-link net is left out: its gradient, outer(upstream, u), reads
        # neither W nor X, and only the replaced zero adjoint times W u
        # turned a NaN there into a NaN gradient.)
        net, P, X, u, _ = case
        P = P.copy()
        bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        if data.draw(st.booleans()):
            X = X.copy()
            X.flat[data.draw(st.integers(0, X.size - 1))] = bad
        else:
            P[data.draw(st.integers(0, len(P) - 1)),
              data.draw(st.integers(0, P.shape[1] - 1))] = bad
        ones = np.ones(np.shape(X)[:-1] + (1,))
        with np.errstate(invalid="ignore", over="ignore"):
            g = nw.forward_pass(net, X, P).grad_params_dirderiv(u)
            want = FormulaPass(net, X, P).grad_params_dirderiv(u, ones)
        assert np.isfinite(g).all() == np.isfinite(want).all()
        if not np.isfinite(want).all():
            config = SvgdConfig(step_size=0.1, max_iters=1, kernel=KernelSpec(2, 1.0))
            with pytest.raises(NonFiniteGradientError):
                svgd_step(Ensemble(P, net, np.random.default_rng(0)), g, config)


    def test_a_score_call_forms_no_last_hidden_value(self, monkeypatch):
        # softplus values come from log1p: a stress score reads the first
        # hidden link's values (width 5) and never forms the last one's (7)
        template = icnn_template((3, 5, 7, 1))
        P = init_net_ensemble(template, 3, seed=1).particles
        data = generate_data(n_train=6, seed=0, n_test=5)
        target = RegressionTarget(data.train, 1.0)
        widths, log1p = [], np.log1p

        def spy(x, *args, **kwargs):
            widths.append(np.shape(x)[-1])
            return log1p(x, *args, **kwargs)

        monkeypatch.setattr(np, "log1p", spy)
        target.score_and_mse_batch(template, P)
        assert widths == [5, 5]         # the data rows and the reference row
        widths.clear()
        pass_output(nw.forward_pass(template, data.train.inputs[:, :3], P))
        assert widths == [5, 7]         # an output forms it on demand

    def test_the_unit_upstream_needs_a_scalar_output(self, rng):
        net = random_net(rng, (3, 4, 2))
        with pytest.raises(ShapeError, match="scalar-output"):
            nw.forward_pass(net, rng.normal(size=(5, 3)), one_row(net)).grad_params_dirderiv(
                rng.normal(size=(5, 3)))


class TestParticleBlocks:
    @staticmethod
    def _sizes(widths, n_particles, rows, budget=nw.PASS_ELEMENTS):
        net = random_net(np.random.default_rng(0), widths)
        return [len(range(n_particles)[b])
                for b in nw.particle_blocks(net, n_particles, rows, budget)]

    def test_block_holds_pass_elements_over_rows_times_widest_layer(self):
        assert self._sizes((3, 30, 30, 1), 64, 80) == [27, 27, 10]
        assert self._sizes((3, 30, 30, 1), 10, 80) == [10]      # the desk N: one block
        assert self._sizes((3, 30, 30, 1), 5, 1001) == [2, 2, 1]

    def test_the_test_path_budget_on_the_path(self):
        half = nw.PASS_ELEMENTS // 2
        assert self._sizes((3, 30, 30, 1), 3, 1001, half) == [1, 1, 1]
        assert self._sizes((3, 17, 12, 1), 2, 1001, half) == [1, 1]
        assert self._sizes((3, 16, 9, 1), 5, 1001, half) == [2, 2, 1]
        assert self._sizes((3, 4, 4, 1), 10, 1001, half) == [8, 2]

    def test_rows_wider_than_the_budget_take_one_particle(self):
        assert self._sizes((3, 30, 1), 3, nw.PASS_ELEMENTS) == [1, 1, 1]


def param_count(net, threshold):
    """The engine's active-parameter count of a one-particle ensemble of ``net``."""
    return active_param_count(Ensemble(net.layout.flatten(net.weights)[None], net,
                                       np.random.default_rng(0)), threshold)


class TestParamCount:
    def test_initial_wide_architecture(self):
        widths = (3, 30, 30, 1)
        net = nw.LayeredNet(widths,
                            tuple(np.ones((widths[k + 1], widths[k])) for k in range(3)),
                            (False, True, True))
        assert param_count(net, 0.0) == 1020

    def test_zero_net(self):
        net = single_layer([[0.0]])
        assert param_count(net, 0.0) == 0

    def test_threshold_is_strict(self):
        net = nw.LayeredNet((3, 1), (np.array([[0.5, 5e-4, -2e-3]]),), (False,))
        assert param_count(net, 1e-3) == 2


class TestPermutationSymmetry:
    def test_hidden_permutation_preserves_output(self, rng):
        net = random_net(rng, (3, 8, 8, 1))
        x = rng.normal(size=(20, 3))
        base = pass_output(nw.forward_pass(net, x, one_row(net)))
        for layer in (1, 2):
            perm = rng.permutation(8)
            permuted = nw.permute_hidden(net, layer, perm)
            out = pass_output(nw.forward_pass(permuted, x, one_row(permuted)))
            assert np.max(np.abs(out - base)) <= 1e-12

    def test_input_output_layers_rejected(self, rng):
        net = random_net(rng, (3, 4, 1))
        with pytest.raises(ShapeError):
            nw.permute_hidden(net, 0, [0, 1, 2])
        with pytest.raises(ShapeError):
            nw.permute_hidden(net, 2, [0])


class TestLayoutAndSerialization:
    def test_flatten_round_trip_exact(self, rng):
        net = random_net(rng, (4, 6, 3))
        flat = net.layout.flatten(net.weights)
        assert net.layout.flatten(net.with_values(flat).weights).tolist() == flat.tolist()
        assert flat.size == net.layout.size

    def test_stacked_round_trip_exact(self, rng):
        nets = [random_net(rng, (2, 3, 1)) for _ in range(3)]
        P = np.stack([n.layout.flatten(n.weights) for n in nets])
        arrays = nets[0].layout.unflatten(P)
        assert [a.shape for a in arrays] == [(3, 3, 2), (3, 1, 3)]
        for a, net in enumerate(nets):
            assert arrays[0][a].tolist() == net.weights[0].tolist()
            assert arrays[1][a].tolist() == net.weights[1].tolist()
        assert nets[0].layout.flatten(arrays).tolist() == P.tolist()

    def test_stacked_leading_axes_must_agree(self, rng):
        layout = random_net(rng, (2, 3, 1)).layout
        arrays = layout.unflatten(np.zeros((3, layout.size)))
        arrays[1] = arrays[1][:2]
        with pytest.raises(ShapeError):
            layout.flatten(arrays)

    def test_dict_round_trip_exact(self, rng):
        net = random_net(rng, (2, 3, 1))
        again = nw.net_from_dict(json.loads(json.dumps(nw.net_to_dict(net))))
        assert [w.tolist() for w in again.weights] == [w.tolist() for w in net.weights]
        assert (again.layer_widths, again.nonneg_mask) == (net.layer_widths, net.nonneg_mask)

    def test_nonneg_invariant_enforced(self):
        with pytest.raises(ShapeError):
            nw.LayeredNet((1, 1), (np.array([[-0.1]]),), (True,))

    def test_output_activation_must_be_identity(self):
        doc = nw.net_to_dict(nw.LayeredNet((1, 1), (np.array([[1.0]]),), (False,)))
        assert doc["activations"] == ["identity"]
        doc["activations"] = ["softplus"]
        with pytest.raises(ShapeError, match=r"\['softplus'\] are not \['identity'\]"):
            nw.net_from_dict(doc)
