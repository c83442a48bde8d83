import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from csvgd.engine import Ensemble, SvgdConfig, _resolve_gamma
from csvgd.errors import DomainError, ShapeError
from csvgd.kernels import (BANDWIDTH_FLOOR, KernelSpec, kernel_eval, kernel_grad,
                           kernel_matrix, median_bandwidth, silverman_bandwidth)

from _oracles import fd_gradient


class TestEval:
    def test_self_similarity_is_one(self, rng):
        spec = KernelSpec(2, 0.7)
        a = rng.normal(size=6)
        assert kernel_eval(spec, a, a) == 1.0

    def test_gaussian_hand_value(self):
        spec = KernelSpec(2, 1.0)
        assert kernel_eval(spec, np.array([1.0, 0.0]), np.zeros(2)) == \
            pytest.approx(np.exp(-0.5), rel=1e-12)

    def test_exponential_hand_value(self):
        spec = KernelSpec(1, 2.0)
        assert kernel_eval(spec, np.array([1.0, -1.0]), np.zeros(2)) == \
            pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_symmetric_and_bounded(self, rng):
        for beta in (1, 2):
            spec = KernelSpec(beta, 0.3)
            for _ in range(20):
                a, b = rng.normal(size=(2, 4))
                k1, k2 = kernel_eval(spec, a, b), kernel_eval(spec, b, a)
                assert k1 == k2
                assert 0.0 < k1 <= 1.0
                assert (k1 == 1.0) == bool(np.all(a == b))

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            kernel_eval(KernelSpec(2, 1.0), np.zeros(2), np.zeros(3))

    def test_matrix_agrees_with_pairwise(self, rng):
        P = rng.normal(size=(5, 3))
        for beta in (1, 2):
            spec = KernelSpec(beta, 0.9)
            K = kernel_matrix(spec, P)
            for a in range(5):
                for b in range(5):
                    assert K[a, b] == pytest.approx(kernel_eval(spec, P[a], P[b]),
                                                    rel=1e-12)


class TestGrad:
    def test_zero_at_coincident_points(self, rng):
        a = rng.normal(size=4)
        for beta in (1, 2):
            g = kernel_grad(KernelSpec(beta, 0.5), a, a.copy())
            assert np.all(g == 0.0)

    def test_gaussian_hand_value(self):
        spec = KernelSpec(2, 1.0)
        g = kernel_grad(spec, np.zeros(2), np.array([1.0, 0.0]))
        assert g == pytest.approx([np.exp(-0.5), 0.0], rel=1e-12)

    def test_exponential_hand_value(self):
        spec = KernelSpec(1, 1.0)
        g = kernel_grad(spec, np.zeros(1), np.array([0.5]))
        assert g == pytest.approx([np.exp(-0.5)], rel=1e-12)

    def test_antisymmetry_under_swap(self, rng):
        for beta in (1, 2):
            spec = KernelSpec(beta, 0.8)
            a, b = rng.normal(size=(2, 5))
            assert kernel_grad(spec, a, b) == pytest.approx(-kernel_grad(spec, b, a),
                                                            abs=1e-14)

    def test_matches_finite_differences_beta2(self, rng):
        spec = KernelSpec(2, 0.6)
        a, b = rng.normal(size=(2, 4))
        g = kernel_grad(spec, a, b)
        oracle = fd_gradient(lambda av: kernel_eval(spec, av, b), a)
        rel = np.abs(g - oracle) / np.maximum(np.abs(oracle), 1e-12)
        assert rel.max() < 1e-6

    def test_matches_finite_differences_beta1_separated(self, rng):
        spec = KernelSpec(1, 0.9)
        a = rng.uniform(1.0, 2.0, size=4)
        b = -rng.uniform(1.0, 2.0, size=4)
        g = kernel_grad(spec, a, b)
        oracle = fd_gradient(lambda av: kernel_eval(spec, av, b), a)
        rel = np.abs(g - oracle) / np.maximum(np.abs(oracle), 1e-12)
        assert rel.max() < 1e-6


class TestBandwidth:
    def test_median_rule_inverts(self):
        assert median_bandwidth(2.0 * np.log(11.0), 10) == pytest.approx(1.0, rel=1e-12)

    def test_coincident_particles_hit_floor(self):
        assert median_bandwidth(0.0, 16) == BANDWIDTH_FLOOR

    def test_single_particle_formula(self):
        assert median_bandwidth(8.0, 1) == pytest.approx(np.sqrt(4.0 / np.log(2.0)),
                                                         rel=1e-4)

    def test_undefined_summary_falls_back_to_floor(self):
        assert median_bandwidth(float("nan"), 1) == BANDWIDTH_FLOOR

    @settings(max_examples=60, deadline=None)
    @given(P=st.integers(2, 12).flatmap(lambda n: st.integers(1, 5).flatmap(
               lambda d: arrays(float, (n, d), elements=st.floats(-10.0, 10.0)))),
           c=st.floats(0.01, 100.0))
    def test_engine_gamma_scales_as_sqrt_of_particle_scale(self, P, c):
        # the documented rule: gamma grows as sqrt(distance), not distance^2
        config = SvgdConfig(step_size=0.1, max_iters=1,
                            kernel=KernelSpec(2, 1.0, "median"))

        def gamma(particles):
            return _resolve_gamma(config, Ensemble(particles, None,
                                                   np.random.default_rng(0)))

        g = gamma(P)
        assume(g > 1e-3)
        assert gamma(c * P) == pytest.approx(np.sqrt(c) * g, rel=1e-9)

    def test_silverman_positive_and_scales(self, rng):
        P = rng.normal(size=(50, 4))
        g1 = silverman_bandwidth(P)
        g2 = silverman_bandwidth(3.0 * P)
        assert g1 > 0
        assert g2 == pytest.approx(3.0 * g1, rel=1e-12)


class TestSpecValidation:
    def test_beta_restricted(self):
        with pytest.raises(DomainError):
            KernelSpec(3, 1.0)

    def test_gamma_positive(self):
        with pytest.raises(DomainError):
            KernelSpec(2, 0.0)

    def test_bandwidth_rule_names(self):
        with pytest.raises(DomainError):
            KernelSpec(2, 1.0, "adaptive-ish")
