import dataclasses
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from csvgd import engine, kernels
from csvgd.condense import distance_matrix
from csvgd.engine import (Ensemble, SvgdConfig, active_param_count,
                          condense_ensemble, init_net_ensemble,
                          init_vector_ensemble, load_checkpoint,
                          median_distance, resume_csvgd, run_csvgd, run_stage,
                          save_checkpoint, stein_gradient, svgd_step)
from csvgd.errors import NonFiniteGradientError, ShapeError
from csvgd.kernels import KernelSpec, median_bandwidth
from csvgd.likelihoods import MvnTarget
from csvgd.mechanics import icnn_template
from csvgd.network import LayeredNet
from csvgd.priors import PriorSpec, prior_score

from _oracles import (broadcast_distance_matrix, broadcast_power_sum,
                      broadcast_stein_direction, gradient_ascent,
                      svgd_step_out_of_place)
from conftest import condensed_icnn_ensemble, random_net


def vector_config(**kw):
    base = dict(step_size=0.1, max_iters=50, kernel=KernelSpec(2, 1.0),
                prior=None, condense_enabled=False, prior_dead_zone=0.0)
    base.update(kw)
    return SvgdConfig(**base)


class FlatTarget:
    """Zero likelihood score everywhere; isolates prior and repulsion terms."""

    def score_and_mse_batch(self, template, P):
        return np.zeros_like(P), np.zeros(len(P))


class QuadraticTarget:
    """log-likelihood -|theta|^2/2."""

    def score_and_mse_batch(self, template, P):
        return -P, np.sum(P * P, axis=1)


class PullDown:
    """log-likelihood -rate |theta|^2 / 2; fit error is the mean square."""

    def __init__(self, rate):
        self.rate = rate

    def score_and_mse_batch(self, template, P):
        return -self.rate * P, np.mean(P ** 2, axis=1)


def make_ensemble(particles, template=None, seed=0):
    return Ensemble(np.array(particles, dtype=float), template,
                    np.random.default_rng(seed))


class TestSteinGradient:
    def test_single_particle_is_plain_score(self):
        ens = make_ensemble([[2.0, -1.0]])
        cfg = vector_config(prior=PriorSpec(2.0, 1.0))
        scores = np.array([[1.0, 3.0]])
        g = stein_gradient(ens, scores, cfg)
        expected = scores[0] + prior_score(cfg.prior, ens.particles[0])
        assert g[0] == pytest.approx(expected, abs=1e-15)

    def test_coincident_particles_flat_target(self):
        ens = make_ensemble([[0.0], [0.0]])
        g = stein_gradient(ens, np.zeros((2, 1)), vector_config())
        assert np.all(g == 0.0)

    def test_two_particle_repulsion_hand_value(self):
        # flat likelihood, no prior, beta=2, gamma=1, particles 0 and 1
        ens = make_ensemble([[0.0], [1.0]])
        cfg = vector_config(axis_mask_threshold=0.0)
        g = stein_gradient(ens, np.zeros((2, 1)), cfg)
        expect = 0.5 * np.exp(-0.5)
        assert g[0, 0] == pytest.approx(-expect, rel=1e-12)
        assert g[1, 0] == pytest.approx(+expect, rel=1e-12)

    def test_axis_mask_zeroes_near_axis_repulsion(self):
        ens = make_ensemble([[0.001, 5.0], [0.002, 6.0]])
        cfg = vector_config(axis_mask_threshold=1e-2)
        g = stein_gradient(ens, np.zeros((2, 2)), cfg)
        assert g[0, 0] == 0.0 and g[1, 0] == 0.0   # masked coordinate
        assert g[0, 1] != 0.0 and g[1, 1] != 0.0   # distant coordinate repels

    def test_shape_mismatch(self):
        ens = make_ensemble([[0.0], [1.0]])
        with pytest.raises(ShapeError):
            stein_gradient(ens, np.zeros((3, 1)), vector_config())


class TestSharedPairwisePass:
    """One pairwise pass per iteration feeds both the median bandwidth and
    the beta=2 kernel."""

    def test_weight_rows_sum_like_the_particle_rows(self):
        # the graph metric is the square root of the run's pass, which sums
        # each pair's coordinates in the broadcast's order in either layout
        # (rows of 96 and of 4 weights)
        for widths in ((3, 8, 8, 1), (1, 2, 1)):
            ens = init_net_ensemble(icnn_template(widths), 6, seed=1)
            D = distance_matrix(ens.particles)
            assert np.array_equal(D, np.sqrt(engine._distance_pass(ens)[1]))
            assert np.array_equal(D, broadcast_distance_matrix(ens.particles))

    @pytest.mark.parametrize("beta", [1, 2])
    def test_icnn_template_matches_broadcast(self, rng, beta):
        ens = init_net_ensemble(icnn_template((3, 5, 4, 1)), 7, seed=4)
        P = ens.particles
        D_old = broadcast_distance_matrix(P)
        med_old = float(np.median(D_old[np.triu_indices(len(P), k=1)]))
        assert distance_matrix(P) == pytest.approx(D_old, rel=0,
                                                   abs=1e-12 * D_old.max())
        assert abs(median_distance(ens) - med_old) <= 1e-12 * med_old
        S = rng.normal(size=P.shape)
        cfg = vector_config(kernel=KernelSpec(beta, 1.0, "median"))
        old = broadcast_stein_direction(P, S, beta, median_bandwidth(med_old, len(P)),
                                        cfg.axis_mask_threshold)
        new = stein_gradient(ens, S, cfg)
        assert np.abs(new - old).max() <= 1e-12 * np.abs(old).max()

    @pytest.mark.parametrize("widths", [(3, 5, 2), (1, 2, 1)], ids=["wide", "narrow"])
    def test_net_median_equals_the_pairwise_median(self, rng, widths):
        # bit for bit, on rows of 25 and of 4 weights: both layouts
        template = random_net(rng, widths)
        P = rng.normal(size=(9, template.layout.size))
        ens = Ensemble(P, template, np.random.default_rng(0))
        sq = broadcast_power_sum(P, 2)
        assert median_distance(ens) == np.median(np.sqrt(sq[np.triu_indices(9, 1)]))

    @pytest.mark.parametrize("d", [3, 12])
    def test_given_sq_dists_equal_the_internal_pass_and_are_overwritten(self, rng,
                                                                        d):
        ens = Ensemble(rng.normal(size=(11, d)), None, np.random.default_rng(0))
        S = rng.normal(size=ens.particles.shape)
        cfg = vector_config(kernel=KernelSpec(2, 1.0, "median"))
        med, X = engine._distance_pass(ens)
        given = X.copy()
        gamma = median_bandwidth(med, 11)
        assert np.array_equal(stein_gradient(ens, S, cfg, gamma=gamma, sq_dists=given),
                              stein_gradient(ens, S, cfg))
        # the beta=2 direction forms its kernel matrix over the buffer
        assert not np.array_equal(given, X)

    def test_run_stage_recycles_one_distance_buffer(self, rng, monkeypatch):
        calls = []
        distance_pass = engine._distance_pass

        def recorded(ensemble, out=None):
            result = distance_pass(ensemble, out=out)
            calls.append((out, result[1]))
            return result

        monkeypatch.setattr(engine, "_distance_pass", recorded)
        ens = Ensemble(rng.normal(size=(9, 3)), None, np.random.default_rng(0))
        cfg = vector_config(step_size=0.01, max_iters=4, tol=0.0, grad_norm_tol=0.0,
                            kernel=KernelSpec(2, 1.0, "median"))
        _, report = run_stage(ens, PullDown(1.0), cfg)
        assert report.iterations == len(calls) == 4
        assert calls[0][0] is None
        for (_, previous), (out, _) in zip(calls, calls[1:]):
            assert np.shares_memory(out, previous)

    def _count_passes(self, monkeypatch, ens):
        """Run k beta=2 median-bandwidth iterations, check their median trace
        against ``median_distance``, and return k and the pairwise passes the
        iterations made, by layout."""
        passes = {"rows": 0, "planes": 0}

        def counted(blocks, layout):
            def wrapped(*args, **kw):
                passes[layout] += 1
                return blocks(*args, **kw)
            return wrapped

        monkeypatch.setattr(kernels, "_difference_blocks",
                            counted(kernels._difference_blocks, "rows"))
        monkeypatch.setattr(kernels, "_plane_blocks",
                            counted(kernels._plane_blocks, "planes"))
        seen = [ens]
        k = 6
        cfg = vector_config(step_size=0.01, max_iters=k, tol=0.0, grad_norm_tol=0.0,
                            kernel=KernelSpec(2, 1.0, "median"))
        _, report = run_stage(ens, PullDown(1.0), cfg,
                              on_iteration=lambda e, info: seen.append(e))
        assert report.iterations == k
        made = dict(passes)
        assert report.median_distance_trace == [median_distance(e) for e in seen[:k]]
        return k, made

    @pytest.mark.parametrize("condensed", [False, True])
    def test_beta2_iteration_makes_one_difference_pass(self, monkeypatch,
                                                       condensed):
        if condensed:
            template, P = condensed_icnn_ensemble()
            ens = Ensemble(P, template, np.random.default_rng(0))
        else:
            ens = init_net_ensemble(icnn_template((2, 4, 1)), 5, seed=3)
        assert ens.particles.shape[1] >= kernels.PAIRWISE_SUM_MIN
        k, passes = self._count_passes(monkeypatch, ens)
        assert passes == {"rows": k, "planes": 0}

    def test_beta2_iteration_makes_one_plane_pass_on_narrow_rows(self, rng,
                                                                 monkeypatch):
        ens = Ensemble(rng.normal(size=(9, 3)), None, np.random.default_rng(0))
        k, passes = self._count_passes(monkeypatch, ens)
        assert passes == {"rows": 0, "planes": k}


class TestSvgdStep:
    def test_zero_gradient_only_bumps_counter(self):
        ens = make_ensemble([[1.0, 2.0]])
        out = svgd_step(ens, np.zeros((1, 2)), vector_config())
        assert out.particles.tolist() == ens.particles.tolist()
        assert out.iteration == ens.iteration + 1

    def test_quadratic_hand_step(self):
        # theta' = 1 + 0.1 * (-1) = 0.9
        ens = make_ensemble([[1.0]])
        g = stein_gradient(ens, np.array([[-1.0]]), vector_config())
        out = svgd_step(ens, g, vector_config())
        assert out.particles[0, 0] == pytest.approx(0.9, abs=1e-15)

    def test_nonneg_projection(self):
        template = icnn_template((1, 2, 1))
        flat = np.full(template.layout.size, 0.05)
        ens = Ensemble(np.array([flat]), template, np.random.default_rng(0))
        g = -np.ones((1, template.layout.size))
        out = svgd_step(ens, g, vector_config(step_size=1.0))
        mask = template.nonneg_flat_mask()
        assert np.all(out.particles[0, mask] == 0.0)
        assert np.all(out.particles[0, ~mask] == pytest.approx(-0.95))

    def test_nonfinite_gradient_names_entry(self):
        ens = make_ensemble([[0.0, 0.0], [0.0, 0.0]])
        g = np.zeros((2, 2))
        g[1, 0] = np.nan
        with pytest.raises(NonFiniteGradientError, match="particle 1, coordinate 0"):
            svgd_step(ens, g, vector_config())


class TestRunStage:
    def test_zero_budget_reports_zero_iterations(self):
        ens = make_ensemble([[1.0]])
        out, rep = run_stage(ens, QuadraticTarget(), vector_config(max_iters=0))
        assert rep.iterations == 0
        assert out.particles.tolist() == ens.particles.tolist()
        assert np.isfinite(rep.final_mse)

    def test_single_particle_reaches_quadratic_mode(self):
        ens = make_ensemble([[3.0]])
        out, rep = run_stage(ens, QuadraticTarget(),
                             vector_config(max_iters=500, tol=1e-12))
        assert abs(out.particles[0, 0]) < 1e-3

    def test_single_particle_equals_gradient_ascent_oracle(self):
        theta0 = np.array([2.5, -1.0])
        ens = make_ensemble([theta0])
        cfg = vector_config(step_size=0.05, max_iters=40, tol=0.0,
                            grad_norm_tol=0.0)
        out, _ = run_stage(ens, QuadraticTarget(), cfg)
        path = gradient_ascent(lambda t: -t, theta0, 0.05, 40)
        assert out.particles[0].tolist() == path[-1].tolist()

    def test_mean_approaches_target_mean(self):
        mean = np.array([1.0, 2.0, 3.0])
        prec = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 0.0025]])
        ens = init_vector_ensemble(3, 128, seed=0)
        cfg = vector_config(step_size=1e-2, max_iters=2500, kernel=KernelSpec(2, 1.0, "median"))
        out, _ = run_stage(ens, MvnTarget(mean, prec), cfg)
        assert np.abs(out.particles[:, :2].mean(axis=0) - mean[:2]).max() < 0.2

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        P = rng.normal(size=(6, 2))
        perm = rng.permutation(6)
        cfg = vector_config(step_size=0.05, max_iters=30, tol=0.0,
                            grad_norm_tol=0.0, prior=PriorSpec(1.0, 0.5))
        out1, _ = run_stage(make_ensemble(P), QuadraticTarget(), cfg)
        out2, _ = run_stage(make_ensemble(P[perm]), QuadraticTarget(), cfg)
        assert out2.particles == pytest.approx(out1.particles[perm], abs=1e-10)

    def test_flat_kernel_keeps_common_init_coincident(self):
        P = np.tile([[0.7, -0.3]], (5, 1))
        cfg = vector_config(step_size=0.05, max_iters=25,
                            kernel=KernelSpec(2, 1e12), tol=0.0, grad_norm_tol=0.0)
        out, _ = run_stage(make_ensemble(P), QuadraticTarget(), cfg)
        spread = out.particles.max(axis=0) - out.particles.min(axis=0)
        assert np.max(spread) < 1e-9

    def test_projection_safety_throughout(self):
        template = icnn_template((2, 3, 1))
        ens = init_net_ensemble(template, 4, seed=2)

        class PushNegative:
            def score_and_mse_batch(self, template, P):
                return -np.ones_like(P), np.zeros(len(P))

        cfg = vector_config(step_size=0.05, max_iters=20, tol=0.0,
                            grad_norm_tol=0.0)
        out, _ = run_stage(ens, PushNegative(), cfg)
        mask = template.nonneg_flat_mask()
        assert np.all(out.particles[:, mask] >= 0.0)

    def test_convergence_stops_early(self):
        # halving steps drive the mean gradient norm under its tolerance fast
        ens = make_ensemble([[0.001]])
        cfg = vector_config(step_size=0.5, max_iters=5000, tol=1e-3, tol_window=50)
        out, rep = run_stage(ens, QuadraticTarget(), cfg)
        assert rep.converged
        assert rep.iterations < 100


class TestAdagrad:
    def test_accumulator_scales_step(self):
        ens = make_ensemble([[1.0]])
        cfg = vector_config(adagrad=True, step_size=0.5)
        opt = np.zeros((1, 1))
        g = np.array([[2.0]])
        out = svgd_step(ens, g, cfg, opt)
        # first step ~ step_size * sign(g)
        assert out.particles[0, 0] == pytest.approx(1.0 + 0.5, rel=1e-4)
        assert opt[0, 0] == pytest.approx(4.0)

    def test_requires_state(self):
        ens = make_ensemble([[1.0]])
        with pytest.raises(ShapeError):
            svgd_step(ens, np.ones((1, 1)), vector_config(adagrad=True))


def coordinate_net(mask):
    """A chain of 1 x 1 links, one flat coordinate each, flagged nonnegative
    by ``mask``: a template for any projection mask."""
    n = len(mask)
    return LayeredNet((1,) * (n + 1), tuple(np.zeros((1, 1)) for _ in range(n)), tuple(mask))


# signed zeros drawn on their own so that -0.0 coordinates show up often
_step_values = st.one_of(st.just(-0.0), st.just(0.0), st.floats(-10.0, 10.0))


class TestStepFormulas:
    """The in-place step gives the bits of the out-of-place AdaGrad step and
    projection it replaced (``_oracles.svgd_step_out_of_place``)."""

    @staticmethod
    def bits(a):
        return np.ascontiguousarray(a).view(np.uint64)

    def _check(self, P, g, mask, adagrad, opt0=None):
        template = None if mask is None else coordinate_net(mask)
        cfg = vector_config(step_size=0.3, adagrad=adagrad)
        ens = Ensemble(P.copy(), template, np.random.default_rng(0))
        opt = None if opt0 is None else opt0.copy()
        opt_want = None if opt0 is None else opt0.copy()
        out = svgd_step(ens, g, cfg, opt)
        want = svgd_step_out_of_place(P, g, 0.3, None if mask is None else np.array(mask),
                                      opt_want, cfg.adagrad_offset)
        np.testing.assert_array_equal(self.bits(out.particles), self.bits(want))
        if opt0 is not None:
            np.testing.assert_array_equal(self.bits(opt), self.bits(opt_want))
        np.testing.assert_array_equal(self.bits(ens.particles), self.bits(P))

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 3), mask=st.one_of(st.none(), st.lists(st.booleans(),
                                                                     min_size=1, max_size=6)),
           adagrad=st.booleans(), data=st.data())
    def test_equals_the_out_of_place_formulas_bit_for_bit(self, n, mask, adagrad, data):
        d = len(mask) if mask is not None else data.draw(st.integers(1, 6))
        P = data.draw(arrays(float, (n, d), elements=_step_values))
        g = data.draw(arrays(float, (n, d), elements=_step_values))
        opt = (data.draw(arrays(float, (n, d), elements=st.floats(0.0, 10.0)))
               if adagrad else None)
        self._check(P, g, mask, adagrad, opt)

    @pytest.mark.parametrize("adagrad", [False, True])
    @pytest.mark.parametrize("mask", [[False] * 4, [True] * 4, [False, True, True, False]])
    def test_negative_zero_coordinates(self, mask, adagrad):
        # -0.0 + -0.0 stays -0.0 where nothing projects it
        P = np.array([[-0.0, -0.0, 0.0, -1.0], [-0.0, 2.0, -0.0, -0.0]])
        g = np.array([[-0.0, 0.0, -0.0, -0.0], [-0.0, -1.0, -0.0, 3.0]])
        self._check(P, g, mask, adagrad, np.zeros_like(P) if adagrad else None)


class TestConfigChecks:
    @pytest.mark.parametrize("epsilon", [-1.0, float("nan")])
    def test_bad_prune_epsilon_rejected_at_construction(self, epsilon):
        # before any stage runs: -1 used to fail only in prune after a
        # whole stage, and NaN used to turn pruning off
        with pytest.raises(ShapeError, match="prune_epsilon"):
            vector_config(prune_epsilon=epsilon)

    def test_zero_prune_epsilon_accepted(self):
        assert vector_config(prune_epsilon=0.0).prune_epsilon == 0.0

    @pytest.mark.parametrize("field", ["max_iters", "num_stages", "polish_iters"])
    def test_negative_counts_rejected(self, field):
        # a negative count used to run nothing without a word
        with pytest.raises(ShapeError, match=field):
            vector_config(**{field: -1})

    @pytest.mark.parametrize("field", ["max_iters", "num_stages", "polish_iters"])
    def test_zero_counts_accepted(self, field):
        assert getattr(vector_config(**{field: 0}), field) == 0

    def test_nan_step_size_rejected(self):
        # NaN used to turn every particle NaN, reported one iteration later
        # as a non-finite gradient
        with pytest.raises(ShapeError, match="step_size"):
            vector_config(step_size=float("nan"))

    def test_nan_axis_mask_threshold_rejected(self):
        # NaN used to turn the axis mask off: |theta| < NaN is False everywhere
        with pytest.raises(ShapeError, match="thresholds"):
            vector_config(axis_mask_threshold=float("nan"))

    def test_nan_prior_dead_zone_rejected(self):
        with pytest.raises(ShapeError, match="thresholds"):
            vector_config(prior_dead_zone=float("nan"))


class TestStagedRun:
    def _net_setup(self, n=3, seed=4):
        template = icnn_template((2, 4, 1))
        ens = init_net_ensemble(template, n, seed=seed)
        return ens, PullDown(4.0)

    def test_fixed_single_stage_equals_stage_plus_condense(self):
        ens1, target = self._net_setup()
        ens2 = init_net_ensemble(icnn_template((2, 4, 1)), 3, seed=4)
        cfg = vector_config(step_size=0.01, max_iters=30, tol=0.0,
                            grad_norm_tol=0.0, condense_enabled=True,
                            num_stages=1, prune_epsilon=1e-3)
        out1, rep = run_csvgd(ens1, target, cfg)
        mid, _ = run_stage(ens2, target, cfg)
        out2, _ = condense_ensemble(mid, 1e-3)
        assert out1.particles.tolist() == out2.particles.tolist()
        assert out1.template.layer_widths == out2.template.layer_widths

    def test_adaptive_lambda_trajectory_doubles(self):
        ens, target = self._net_setup()
        cfg = vector_config(step_size=1e-3, max_iters=10, tol=0.0,
                            grad_norm_tol=0.0, condense_enabled=True,
                            prior=PriorSpec(1.0, 0.01), schedule="adaptive",
                            num_stages=4, polish_iters=0, mse_band=1e9)
        _, rep = run_csvgd(ens, target, cfg)
        assert rep.lambda_trajectory[:4] == pytest.approx([0.01, 0.02, 0.04, 0.08])
        assert rep.lambda_trajectory[-1] == 0.01   # reverted at termination

    def test_adaptive_reverts_and_polishes_on_degradation(self):
        ens, _ = self._net_setup()

        class WorseEveryStage:
            def __init__(self):
                self.calls = 0

            def score_and_mse_batch(self, template, P):
                self.calls += 1
                # fit error grows with time: triggers the degradation branch
                return np.zeros_like(P), np.full(len(P), float(self.calls))

        cfg = vector_config(step_size=1e-3, max_iters=5, tol=0.0,
                            grad_norm_tol=0.0, condense_enabled=True,
                            prior=PriorSpec(1.0, 0.01), schedule="adaptive",
                            num_stages=6, polish_iters=7, mse_band=0.1)
        _, rep = run_csvgd(ens, WorseEveryStage(), cfg)
        assert len(rep.stages) < 6 + 1          # stopped growing early
        assert rep.stages[-1].iterations == 7   # polish ran
        assert rep.stages[-1].lam == 0.01
        assert rep.lambda_trajectory[-1] == 0.01

    def test_deterministic_runs_bit_identical(self):
        mean = np.zeros(2)
        prec = np.eye(2)
        cfg = vector_config(step_size=0.05, max_iters=60,
                            prior=PriorSpec(1.0, 0.2), num_stages=2)
        outs = []
        for _ in range(2):
            ens = init_vector_ensemble(2, 16, seed=11)
            out, rep = run_csvgd(ens, MvnTarget(mean, prec), cfg)
            outs.append((out.particles.tolist(),
                         [r.mse_trace for r in rep.stages],
                         rep.lambda_trajectory))
        assert outs[0] == outs[1]


# a csvgd-checkpoint-v1 file as earlier versions wrote it: it must still load
# and save back to the same bytes
LEGACY_CHECKPOINT = {
    "format": "csvgd-checkpoint-v1",
    "config": {"step_size": 0.1, "max_iters": 5,
               "kernel": {"beta": 2, "gamma": 1.0, "bandwidth_rule": "fixed"},
               "prior": None, "tol": 0.0001, "tol_window": 50,
               "grad_norm_tol": 1e-08, "axis_mask_threshold": 0.01,
               "prior_dead_zone": 0.001, "adagrad": False, "adagrad_offset": 1e-08,
               "schedule": "fixed", "lambda_growth": 2.0, "mse_band": 0.1,
               "num_stages": 1, "prune_epsilon": 0.001, "condense_enabled": True,
               "polish_iters": None},
    "lam": 0.0, "lam0": 0.0, "best_mse": float("inf"), "next_stage": 0,
    "polished": False, "degraded": False, "lambda_trajectory": [], "stages": [],
    "opt_state": None,
    "ensemble": {
        "particles": [[0.38738615147100774, -0.651141503267228,
                       0.05794531324878517, 0.023373606318405262],
                      [0.886062041929778, 1.1674490706625804,
                       0.8579125415106695, 1.0316639302481023]],
        "template": {"layer_widths": [1, 2, 1], "weights": [[[0.0], [0.0]], [[0.0, 0.0]]],
                     "biases": [], "activations": ["softplus", "identity"],
                     "nonneg_mask": [False, True]},
        "iteration": 0, "stage": 0,
        "rng_state": {"bit_generator": "PCG64",
                      "state": {"state": 309019961079606187284900980202903920827,
                                "inc": 87136372517582989555478159403783844777},
                      "has_uint32": 0, "uinteger": 0}},
}


class TestCheckpointing:
    def _three_stage_config(self):
        return vector_config(step_size=0.01, max_iters=20, tol=0.0,
                             grad_norm_tol=0.0, condense_enabled=True,
                             prior=PriorSpec(1.0, 0.05), num_stages=3)

    def test_round_trip_and_resume_match_uninterrupted(self, tmp_path):
        template = icnn_template((2, 4, 1))
        cfg = self._three_stage_config()
        full, _ = run_csvgd(init_net_ensemble(template, 3, seed=7), PullDown(2.0), cfg)

        ens = init_net_ensemble(template, 3, seed=7)
        _, _ = run_csvgd(ens, PullDown(2.0), cfg, checkpoint_dir=tmp_path)
        resumed, _ = resume_csvgd(tmp_path / "stage_00.json", PullDown(2.0))
        assert resumed.particles.tolist() == full.particles.tolist()

    def test_resumed_run_can_be_resumed_again(self, tmp_path):
        template = icnn_template((2, 4, 1))
        cfg = self._three_stage_config()
        full, full_rep = run_csvgd(init_net_ensemble(template, 3, seed=7),
                                   PullDown(2.0), cfg)
        first, second = tmp_path / "first", tmp_path / "second"
        run_csvgd(init_net_ensemble(template, 3, seed=7), PullDown(2.0), cfg,
                  checkpoint_dir=first)
        second.mkdir()
        shutil.copy(first / "stage_00.json", second / "stage_00.json")
        resume_csvgd(second / "stage_00.json", PullDown(2.0))
        # the resumed run wrote its checkpoints next to the one it came from
        assert (second / "stage_01.json").read_bytes() == \
            (first / "stage_01.json").read_bytes()
        resumed, rep = resume_csvgd(second / "stage_01.json", PullDown(2.0))
        assert resumed.particles.tolist() == full.particles.tolist()
        assert [r.mse_trace for r in rep.stages] == \
            [r.mse_trace for r in full_rep.stages]

    def test_adaptive_resume_after_degradation(self, tmp_path):
        template = icnn_template((2, 4, 1))

        class WorsensTowardZero:
            # pull to zero; reported fit error grows as the particles shrink,
            # so the adaptive schedule degrades deterministically
            def score_and_mse_batch(self, template, P):
                return -P, 1.0 / (np.abs(P).mean(axis=1) + 0.1)

        cfg = vector_config(step_size=0.05, max_iters=15, tol=0.0,
                            grad_norm_tol=0.0, condense_enabled=True,
                            prior=PriorSpec(1.0, 0.01), schedule="adaptive",
                            num_stages=4, polish_iters=5, mse_band=0.01)
        full, full_rep = run_csvgd(init_net_ensemble(template, 3, seed=8),
                                   WorsensTowardZero(), cfg)
        run_csvgd(init_net_ensemble(template, 3, seed=8), WorsensTowardZero(),
                  cfg, checkpoint_dir=tmp_path)
        resumed, resumed_rep = resume_csvgd(tmp_path / "stage_00.json",
                                            WorsensTowardZero())
        assert resumed.particles.tolist() == full.particles.tolist()
        assert resumed_rep.lambda_trajectory == full_rep.lambda_trajectory

    def test_corrupt_checkpoint_raises(self, tmp_path):
        from csvgd.errors import CheckpointError
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(CheckpointError):
            load_checkpoint(p)
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "missing.json")

    @pytest.mark.parametrize("text", ["[1, 2]", "3", '"stage_00"', "null"])
    def test_json_that_is_not_an_object_is_named(self, tmp_path, text):
        from csvgd.errors import CheckpointError
        p = tmp_path / "stage_00.json"
        p.write_text(text)
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(p)

    @pytest.mark.parametrize("field,value", [("ensemble", "missing"),
                                             ("config", "missing"),
                                             ("lam", "missing"),
                                             ("ensemble", None)])
    def test_tagged_document_with_a_bad_field_is_named(self, tmp_path, field, value):
        from csvgd.engine import _RunState
        from csvgd.errors import CheckpointError
        path = tmp_path / "stage_00.json"
        save_checkpoint(path, _RunState(init_vector_ensemble(2, 4, seed=3),
                                        vector_config(), 0.0, 0.0, float("inf"),
                                        0, [], [], None))
        doc = json.loads(path.read_text())
        if value == "missing":
            del doc[field]
        else:
            doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="malformed checkpoint"):
            load_checkpoint(path)

    @pytest.mark.parametrize("mutation", [
        "template_biases", "template_weight_shape", "unknown_activation",
        "identity_hidden_link", "particle_row_width", "negative_step_size", "beta_3",
        "ragged_rows"])
    def test_malformed_field_values_are_named(self, tmp_path, mutation):
        from csvgd.errors import CheckpointError
        doc = json.loads(json.dumps(LEGACY_CHECKPOINT))
        template, ens = doc["ensemble"]["template"], doc["ensemble"]
        if mutation == "template_biases":
            template["biases"] = [[0.5, -0.5], [1.0]]
        elif mutation == "template_weight_shape":
            template["weights"][0] = [[0.0, 0.0], [0.0, 0.0]]
        elif mutation == "unknown_activation":
            template["activations"][0] = "tanh"
        elif mutation == "identity_hidden_link":
            template["activations"][0] = "identity"
        elif mutation == "particle_row_width":
            ens["particles"] = [row + [0.0] for row in ens["particles"]]
        elif mutation == "negative_step_size":
            doc["config"]["step_size"] = -0.1
        elif mutation == "beta_3":
            doc["config"]["kernel"]["beta"] = 3
        else:
            ens["particles"][1] = ens["particles"][1][:3]
        path = tmp_path / "stage_00.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError,
                           match=r"malformed checkpoint .*stage_00\.json"):
            load_checkpoint(path)

    @pytest.mark.parametrize("mutation", ["row_dropped", "one_row_kept",
                                          "short_rows", "null_with_adagrad"])
    def test_opt_state_that_does_not_fit_the_particles_is_named(self, tmp_path,
                                                                mutation):
        from csvgd.errors import CheckpointError
        cfg = dataclasses.replace(self._three_stage_config(), adagrad=True,
                                  num_stages=1)
        run_csvgd(init_net_ensemble(icnn_template((2, 4, 1)), 4, seed=7),
                  PullDown(2.0), cfg, checkpoint_dir=tmp_path)
        path = tmp_path / "stage_00.json"
        assert load_checkpoint(path).opt_state.shape[0] == 4
        doc = json.loads(path.read_text())
        opt = doc["opt_state"]
        bad = {"row_dropped": opt[:-1], "one_row_kept": opt[:1],
               "short_rows": [row[:-1] for row in opt], "null_with_adagrad": None}[mutation]
        doc["opt_state"] = bad
        path.write_text(json.dumps(doc))
        named = ("adagrad is on but opt_state is null" if bad is None else re.escape(
            f"opt_state has shape {np.shape(bad)}, the particles {np.shape(opt)}"))
        # resuming used to fail inside the first step, on a numpy broadcast
        with pytest.raises(CheckpointError,
                           match=r"malformed checkpoint .*stage_00\.json: " + named):
            resume_csvgd(path, PullDown(2.0))

    def test_interrupted_write_keeps_previous_checkpoint(self, tmp_path, full_disk):
        from csvgd.engine import _RunState
        path = tmp_path / "stage_00.json"
        state = _RunState(init_vector_ensemble(2, 4, seed=3), vector_config(),
                          0.0, 0.0, float("inf"), 0, [], [], None)
        save_checkpoint(path, state)
        before = path.read_bytes()

        state.next_stage = 1
        # a full disk: half of the streamed bytes land, then the write fails
        with full_disk(path, len(before) // 2):
            with pytest.raises(OSError):
                save_checkpoint(path, state)
        assert path.read_bytes() == before
        assert load_checkpoint(path).next_stage == 0
        assert [p.name for p in tmp_path.iterdir()] == ["stage_00.json"]

    def test_checkpoint_format_unchanged(self, tmp_path):
        path = tmp_path / "stage_00.json"
        path.write_text(json.dumps(LEGACY_CHECKPOINT))
        state = load_checkpoint(path)
        assert state.ensemble.template.layer_widths == (1, 2, 1)
        assert state.ensemble.particles.tolist() == \
            LEGACY_CHECKPOINT["ensemble"]["particles"]
        save_checkpoint(tmp_path / "again.json", state)
        assert (tmp_path / "again.json").read_text() == path.read_text()

    def test_rng_state_survives(self, tmp_path):
        ens = init_vector_ensemble(2, 4, seed=3)
        draw_direct = ens.rng.normal()
        ens2 = init_vector_ensemble(2, 4, seed=3)
        cfg = vector_config()
        state = dataclasses.replace  # noqa: F841  (kept simple: build state via run)
        from csvgd.engine import _RunState
        st = _RunState(ens2, cfg, 0.0, 0.0, float("inf"), 0, [], [], None)
        save_checkpoint(tmp_path / "c.json", st)
        loaded = load_checkpoint(tmp_path / "c.json")
        assert loaded.ensemble.rng.normal() == draw_direct


class TestEnsembleInit:
    def test_net_init_respects_masks_and_ranges(self):
        template = icnn_template((3, 30, 30, 1))
        ens = init_net_ensemble(template, 5, seed=0)
        mask = template.nonneg_flat_mask()
        assert np.all(ens.particles[:, mask] >= 0.0)
        r0 = np.sqrt(6.0 / 33.0)
        w0 = ens.particles[:, :90]
        assert w0.min() < 0 < w0.max()
        assert np.abs(w0).max() <= r0

    def test_active_param_union_count(self):
        template = icnn_template((1, 2, 1))
        P = np.zeros((2, template.layout.size))
        P[0, 0] = 0.5
        P[1, 1] = 0.5
        ens = Ensemble(P, template, np.random.default_rng(0))
        assert active_param_count(ens, 1e-3) == 2

    @pytest.mark.parametrize("template", [None, icnn_template((3, 4, 1))],
                             ids=["vectors", "networks"])
    @pytest.mark.parametrize("shape", [(16,), (), (1, 2, 16)])
    def test_particles_that_are_not_a_stack_are_named(self, template, shape):
        # a 1-D vector used to become a one-particle stack
        with pytest.raises(ShapeError, match=r"is not a particle stack \(N, D\)"):
            Ensemble(np.zeros(shape), template, np.random.default_rng(0))
