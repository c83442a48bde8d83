import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from csvgd.errors import DomainError
from csvgd.priors import PriorSpec, prior_constants, prior_score

from _oracles import (fd_gradient, log_prior_density, prior_score_gathered,
                      trapezoid_integral)


class TestConstants:
    def test_gaussian_case(self):
        # Gamma(1/2) = sqrt(pi), Gamma(3/2) = sqrt(pi)/2
        c1, c2 = prior_constants(2.0)
        assert c1 == pytest.approx(1.0 / np.sqrt(2.0 * np.pi), rel=1e-12)
        assert c2 == pytest.approx(0.5, rel=1e-12)

    def test_laplace_case(self):
        # Gamma(1) = 1, Gamma(3) = 2
        c1, c2 = prior_constants(1.0)
        assert c1 == pytest.approx(np.sqrt(2.0) / 2.0, rel=1e-12)
        assert c2 == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(DomainError):
            prior_constants(0.0)
        with pytest.raises(DomainError):
            prior_constants(-1.0)

    def test_small_alpha_does_not_overflow(self):
        c1, c2 = prior_constants(0.05)
        assert np.isfinite(c1) and np.isfinite(c2)

    @pytest.mark.parametrize("alpha,lam,tol", [(2.0, 1.0, 1e-6), (1.0, 1.0, 1e-6),
                                               (1.5, 2.0, 1e-6), (0.5, 0.7, 1e-4)])
    def test_density_normalized(self, alpha, lam, tol):
        # alpha < 1 has a cusp at zero that limits trapezoid accuracy
        spec = PriorSpec(alpha, lam)

        def density(x):
            return np.exp([log_prior_density(spec, np.array([v])) for v in x])

        total = trapezoid_integral(density, -60.0 / lam, 60.0 / lam)
        assert total == pytest.approx(1.0, abs=tol)


class TestScore:
    def test_gaussian_reduction(self):
        spec = PriorSpec(2.0, 1.0)
        assert prior_score(spec, np.array([3.0])) == pytest.approx([-3.0], abs=1e-12)

    def test_gaussian_scaling_any_lambda(self, rng):
        lam = 1.7
        spec = PriorSpec(2.0, lam)
        theta = rng.normal(size=20)
        assert np.max(np.abs(prior_score(spec, theta) + lam**2 * theta)) < 1e-12

    def test_zero_stays_zero(self):
        for alpha in (0.25, 0.5, 1.0, 2.0):
            s = prior_score(PriorSpec(alpha, 1.0), np.zeros(3))
            assert np.all(s == 0.0)

    def test_laplace_hand_value(self):
        # alpha=1, lam=2, theta=-1: -lam * c2(1) * sign(-1) = +2 sqrt(2)
        s = prior_score(PriorSpec(1.0, 2.0), np.array([-1.0]))
        assert s == pytest.approx([2.0 * np.sqrt(2.0)], rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_matches_log_density_gradient(self, rng, alpha):
        spec = PriorSpec(alpha, 0.8)
        theta = rng.uniform(0.3, 2.0, size=5) * rng.choice([-1, 1], size=5)
        s = prior_score(spec, theta)
        oracle = fd_gradient(lambda t: log_prior_density(spec, t), theta)
        rel = np.abs(s - oracle) / np.maximum(np.abs(oracle), 1e-12)
        assert rel.max() < 1e-6

    def test_dead_zone_parks_small_coordinates(self):
        spec = PriorSpec(0.5, 1.0)
        theta = np.array([5e-4, -5e-4, 0.1])
        s = prior_score(spec, theta, dead_zone=1e-3)
        assert s[0] == 0.0 and s[1] == 0.0 and s[2] != 0.0

    def test_matrix_input_elementwise(self, rng):
        spec = PriorSpec(1.0, 0.5)
        P = rng.normal(size=(4, 3))
        S = prior_score(spec, P)
        for a in range(4):
            assert S[a] == pytest.approx(prior_score(spec, P[a]), abs=1e-15)


class TestScoreForm:
    """Scoring every coordinate and keeping the live ones gives the bits of
    gathering the live ones (``_oracles.prior_score_gathered``)."""

    @settings(max_examples=300, deadline=None)
    @given(alpha=st.one_of(st.sampled_from([0.5, 1.0, 1.5, 2.0]),
                           st.floats(0.01, 2.0)),
           lam=st.floats(1e-3, 1e3),
           dead_zone=st.sampled_from([0.0, 1e-3]),
           theta=arrays(float, st.sampled_from([(3,), (2, 5), (4, 1)]),
                        elements=st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, -1e-3,
                                                            np.inf, -np.inf, np.nan]),
                                           st.floats(-1e3, 1e3))))
    def test_equals_the_gathered_score_bit_for_bit(self, alpha, lam, dead_zone, theta):
        with np.errstate(all="ignore"):
            got = prior_score(PriorSpec(alpha, lam), theta, dead_zone)
            want = prior_score_gathered(alpha, lam, theta, dead_zone)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestSpecValidation:
    def test_alpha_range(self):
        with pytest.raises(DomainError):
            PriorSpec(2.5, 1.0)
        with pytest.raises(DomainError):
            PriorSpec(0.0, 1.0)

    def test_lambda_positive(self):
        with pytest.raises(DomainError):
            PriorSpec(1.0, 0.0)

    def test_nan_lambda_rejected(self):
        with pytest.raises(DomainError, match="lam must be > 0, got nan"):
            PriorSpec(1.0, float("nan"))
