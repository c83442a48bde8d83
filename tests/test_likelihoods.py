import tracemalloc
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csvgd import mechanics as mech
from csvgd import network as nw
from csvgd.errors import ShapeError, StaleBlockError
from csvgd.engine import init_net_ensemble
from csvgd.likelihoods import MvnTarget, RegressionTarget
from csvgd.mechanics import Dataset, generate_data, icnn_template, save_dataset

from _oracles import (Net, fd_gradient, load_dataset, mvn_log_likelihood,
                      per_particle_score_and_mse, regression_log_likelihood,
                      stack_stress, two_call_score_and_mse)
from conftest import condensed_icnn_ensemble, one_row, random_net

MEAN = np.array([1.0, 2.0, 3.0])
PRECISION = np.array([[2.0, 1.0, 0.0],
                      [1.0, 2.0, 0.0],
                      [0.0, 0.0, 0.0025]])


def mvn_score(theta):
    """The score of one particle, scored as a one-row stack."""
    S, _ = MvnTarget(MEAN, PRECISION).score_and_mse_batch(None, np.asarray(theta)[None])
    return S[0]


class TestMvn:
    def test_score_vanishes_at_mode(self):
        assert np.all(mvn_score(MEAN) == 0.0)

    def test_first_column_value(self):
        assert mvn_score(np.array([2.0, 2.0, 3.0])) == pytest.approx([-2.0, -1.0, 0.0])

    def test_weak_coordinate_value(self):
        assert mvn_score(np.array([1.0, 2.0, 4.0])) == \
            pytest.approx([0.0, 0.0, -0.0025], abs=1e-15)

    def test_affine_in_theta(self, rng):
        for _ in range(10):
            a, b = rng.normal(size=(2, 3))
            lam = rng.uniform(-2, 2)
            lhs = mvn_score(lam * a + (1 - lam) * b)
            rhs = lam * mvn_score(a) + (1 - lam) * mvn_score(b)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_score_is_log_density_gradient(self, rng):
        t = MvnTarget(MEAN, PRECISION)
        theta = rng.normal(size=3)
        oracle = fd_gradient(lambda v: mvn_log_likelihood(t, v)[0], theta)
        assert mvn_score(theta) == pytest.approx(oracle, rel=1e-6, abs=1e-9)

    def test_batch_matches_loop(self, rng):
        t = MvnTarget(MEAN, PRECISION)
        P = rng.normal(size=(6, 3))
        S, m = t.score_and_mse_batch(None, P)
        ll = mvn_log_likelihood(t, P)
        for a in range(6):
            d = P[a] - MEAN
            assert S[a] == pytest.approx(-PRECISION @ d, abs=1e-14)
            assert m[a] == pytest.approx(d @ PRECISION @ d, abs=1e-12)
            assert ll[a] == pytest.approx(-0.5 * m[a], abs=1e-12)

    def test_asymmetric_precision_rejected(self):
        with pytest.raises(ShapeError):
            MvnTarget(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_a_one_dimensional_stack_is_named(self):
        # one particle as a bare vector, not a one-row stack
        with pytest.raises(ShapeError, match=r"is not a particle stack \(N, 3\)"):
            MvnTarget(MEAN, PRECISION).score_and_mse_batch(None, MEAN)

    def test_a_stack_of_the_wrong_width_is_named(self):
        # rows of 4 coordinates against a 3-D mean
        with pytest.raises(ShapeError, match=r"is not a particle stack \(N, 3\)"):
            MvnTarget(MEAN, PRECISION).score_and_mse_batch(None, np.zeros((2, 4)))


def score_of(target, net):
    S, _ = target.score_and_mse_batch(net.template, one_row(net))
    return S[0]


def log_lik(target, net, theta=None):
    theta = net.row if theta is None else theta
    return float(regression_log_likelihood(target, net.template, theta[None])[0])


def stress_of(net, E):
    """Voigt stress rows of one potential network at Voigt strain rows E."""
    return stack_stress(net.template, one_row(net), mech.strain_features(E))[0]


class TestRegression:
    def _target(self, rng, noise_var=1.0, n=5, widths=(3, 4, 1)):
        net = random_net(rng, widths)
        E = 0.05 * rng.normal(size=(n, 6))
        Y = stress_of(net, E) + 0.1 * rng.normal(size=(n, 6))
        return net, RegressionTarget(Dataset(E, Y), noise_var)

    def test_perfect_fit_is_zero(self, rng):
        net = random_net(rng, (3, 3, 1))
        E = 0.05 * rng.normal(size=(4, 6))
        target = RegressionTarget(Dataset(E, stress_of(net, E)), 1.0)
        assert log_lik(target, net) == 0.0
        assert np.all(score_of(target, net) == 0.0)

    def test_single_residual_value(self):
        # a zero-weight potential has zero stress: one strain datum with
        # residual 2 in one component and unit variance -> -2
        template = icnn_template((3, 4, 1))
        net = Net(template, np.zeros(template.layout.size))
        target = RegressionTarget(Dataset([[0.01, 0.0, 0.0, 0.0, 0.0, 0.0]],
                                          [[0.0, 2.0, 0.0, 0.0, 0.0, 0.0]]), 1.0)
        assert log_lik(target, net) == pytest.approx(-2.0)

    def test_doubling_variance_halves_magnitude(self, rng):
        net, t1 = self._target(rng)
        t2 = RegressionTarget(t1.dataset, 2.0)
        assert log_lik(t2, net) == pytest.approx(0.5 * log_lik(t1, net))

    def test_linear_model_score(self):
        # the potential w . I on one strain row has a stress linear in w,
        # dS/dw_i = dI_i/dE - c_i dI_3/dE / (2 sqrt(I3)) with c = (2, 4, 2),
        # so score = J r / sigma^2 for J = dS/dw (3, 6) and residual r
        w = np.array([[0.4, -0.2, 0.3]])
        net = Net.of((w,))
        E = np.array([[0.02, -0.01, 0.03, 0.005, 0.0, -0.01]])
        inv, dI = mech.strain_features(E)[:2]
        J = dI[0] - np.outer([2.0, 4.0, 2.0], dI[0, 2]) / (2.0 * np.sqrt(inv[0, 2]))
        Y = np.array([[1.0, 0.5, -0.3, 0.2, 0.1, 0.0]])
        target = RegressionTarget(Dataset(E, Y), 0.5)
        residual = Y[0] - w[0] @ J
        assert score_of(target, net) == pytest.approx(J @ residual / 0.5, rel=1e-12)

    def test_score_matches_finite_differences(self, rng):
        net, target = self._target(rng, noise_var=0.3)
        oracle = fd_gradient(lambda t: log_lik(target, net, t), net.row)
        score = score_of(target, net)
        rel = np.abs(score - oracle) / np.maximum(np.abs(oracle), 1e-8)
        assert rel.max() < 1e-5

    def test_score_and_mse_consistent(self, rng):
        net, target = self._target(rng)
        _, m = target.score_and_mse_batch(net.template, one_row(net))
        r = target.dataset.outputs - stress_of(net, target.dataset.inputs)
        assert m[0] == pytest.approx(np.mean(r * r), rel=1e-14)
        assert log_lik(target, net) == pytest.approx(
            -np.sum(r * r) / (2.0 * target.noise_var), rel=1e-14)

    def test_wrong_output_width_rejected(self, rng):
        with pytest.raises(ShapeError, match=r"are not Voigt stress rows \(n, 6\)"):
            RegressionTarget(Dataset(0.05 * rng.normal(size=(4, 6)), np.zeros((4, 2))), 1.0)

    def test_noise_var_must_be_positive(self, rng):
        net, target = self._target(rng)
        with pytest.raises(ShapeError):
            RegressionTarget(target.dataset, 0.0)

    def test_a_stack_without_its_template_is_named(self, rng):
        # a network stack scored as raw vectors, as MvnTarget takes them
        net, target = self._target(rng)
        with pytest.raises(ShapeError, match="needs its template graph"):
            target.score_and_mse_batch(None, one_row(net))


def _stress_target(n_train=12, seed=3):
    data = generate_data(n_train=n_train, seed=seed, n_test=11)
    return RegressionTarget(data.train, 0.7)


class TestBatchedScoreEquivalence:
    """The particle-stacked stress score equals the per-particle formula, and
    bit for bit the two-call score (predict, then param_score) it replaced."""

    def _check(self, target, template, particles):
        S, m = target.score_and_mse_batch(template, particles)
        S_ref, m_ref = per_particle_score_and_mse(target, template, particles)
        assert S.shape == S_ref.shape and m.shape == m_ref.shape
        np.testing.assert_allclose(S, S_ref, rtol=1e-12, atol=1e-12 * np.abs(S_ref).max())
        np.testing.assert_allclose(m, m_ref, rtol=1e-12)
        S_two, m_two = two_call_score_and_mse(target, template, particles)
        np.testing.assert_array_equal(S, S_two)
        np.testing.assert_array_equal(m, m_two)

    @pytest.mark.parametrize("n_particles", [1, 6])
    def test_stress_model_full_template(self, n_particles):
        template = icnn_template((3, 8, 8, 1))
        ens = init_net_ensemble(template, n_particles, seed=2)
        self._check(_stress_target(), template, ens.particles)

    @pytest.mark.parametrize("n_particles", [1, 5])
    def test_stress_model_condensed_template(self, n_particles):
        template, P = condensed_icnn_ensemble()
        self._check(_stress_target(), template, P[:n_particles])


def _block_budget(target, template, per_block):
    """A PASS_ELEMENTS that gives ``target`` particle blocks of ``per_block``."""
    return per_block * len(target.dataset) * max(template.layer_widths)


class TestOnePassScore:
    """A score call makes one forward pass over the reference row for the
    stack and one over the strain rows per particle block."""

    @staticmethod
    def _count_passes(monkeypatch):
        rows = []
        forward_pass = nw.forward_pass

        def counted(net, X, params):
            rows.append(len(np.atleast_2d(X)))
            return forward_pass(net, X, params)

        monkeypatch.setattr(nw, "forward_pass", counted)
        return rows

    def test_stress_score_makes_one_pass_per_row_set(self, monkeypatch):
        target = _stress_target(n_train=12)
        ens = init_net_ensemble(icnn_template((3, 8, 8, 1)), 3, seed=2)
        rows = self._count_passes(monkeypatch)
        target.score_and_mse_batch(ens.template, ens.particles)
        assert sorted(rows) == [1, 12]      # the reference row and the data rows

    def test_stress_score_makes_one_pass_per_row_set_per_block(self, monkeypatch):
        target = _stress_target(n_train=12)
        ens = init_net_ensemble(icnn_template((3, 8, 8, 1)), 5, seed=2)
        monkeypatch.setattr(nw, "PASS_ELEMENTS", _block_budget(target, ens.template, 2))
        rows = self._count_passes(monkeypatch)
        S, mse = target.score_and_mse_batch(ens.template, ens.particles)
        # one reference-row pass for the stack, then blocks of 2, 2 and 1
        assert rows == [1, 12, 12, 12]
        assert S.shape == ens.particles.shape and mse.shape == (5,)

    def test_a_score_kept_past_its_block_is_named(self):
        # the generator drops each block's pass before forming the next, so a
        # kept score must not read another block's pass
        target = _stress_target(n_train=12)
        ens = init_net_ensemble(icnn_template((3, 8, 8, 1)), 5, seed=2)
        blocks = mech.potential_stress(ens.template, ens.particles,
                                       mech.strain_features(target.dataset.inputs),
                                       _block_budget(target, ens.template, 2))
        block, pred, score_of = next(blocks)
        R = target.dataset.outputs - pred
        assert score_of(R).shape == ens.particles[block].shape
        next(blocks)
        with pytest.raises(StaleBlockError, match="block 0"):
            score_of(R)


@lru_cache(maxsize=None)
def _block_case(condensed):
    """Target, template and 12 particle rows for the particle-block checks."""
    if condensed:
        template, P = condensed_icnn_ensemble(12)
    else:
        ens = init_net_ensemble(icnn_template((3, 8, 8, 1)), 12, seed=2)
        template, P = ens.template, ens.particles
    return _stress_target(n_train=12), template, P


@lru_cache(maxsize=None)
def _wide_case():
    """Target, template and 60 particle rows at the block size of a
    hyper_wide score: 80 strain rows at 3-30-30-1, 27 particles a block."""
    template = icnn_template((3, 30, 30, 1))
    return _stress_target(n_train=80), template, init_net_ensemble(template, 60, seed=1).particles


class TestParticleBlocks:
    """The score in particle blocks equals the one-block score bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 12), per_block=st.integers(1, 12), condensed=st.booleans())
    @example(n=12, per_block=12, condensed=False)    # 1 block
    @example(n=12, per_block=6, condensed=True)      # 2 blocks
    @example(n=12, per_block=1, condensed=True)      # 12 blocks
    @example(n=11, per_block=3, condensed=False)     # 4, short last
    def test_blocks_equal_one_block(self, n, per_block, condensed):
        target, template, P = _block_case(condensed)
        with mock.patch.object(nw, "PASS_ELEMENTS", 2**62):
            S_one, m_one = target.score_and_mse_batch(template, P[:n])
        budget = _block_budget(target, template, per_block)
        with mock.patch.object(nw, "PASS_ELEMENTS", budget):
            blocks = nw.particle_blocks(template, n, len(target.dataset), nw.PASS_ELEMENTS)
            S, m = target.score_and_mse_batch(template, P[:n])
        assert len(blocks) == -(-n // per_block)
        np.testing.assert_array_equal(S, S_one)
        np.testing.assert_array_equal(m, m_one)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
    @example(n=40, seed=0)      # 27 + 13
    @example(n=60, seed=1)      # 27 + 27 + 6
    def test_a_permuted_stack_gives_permuted_scores(self, n, seed):
        # a particle's score depends on its own row, whatever its place and
        # block in the stack
        target, template, P = _wide_case()
        perm = np.random.default_rng(seed).permutation(n)
        blocks = nw.particle_blocks(template, n, len(target.dataset), nw.PASS_ELEMENTS)
        assert len(blocks) == -(-n // 27)
        S, m = target.score_and_mse_batch(template, P[:n])
        S_perm, m_perm = target.score_and_mse_batch(template, P[:n][perm])
        np.testing.assert_array_equal(S_perm, S[perm])
        np.testing.assert_array_equal(m_perm, m[perm])

    def test_a_score_block_holds_under_eleven_block_arrays(self):
        # one hyper_wide block: 27 particles x 80 strain rows at 3-30-30-1.
        # The score held about 13 per-link arrays (6.5-6.7 MiB) when its
        # reverse pass kept each adjoint and tangent past its last read.
        template = icnn_template((3, 30, 30, 1))
        target = _stress_target(n_train=80)
        P = init_net_ensemble(template, 27, seed=1).particles
        assert len(nw.particle_blocks(template, len(P), len(target.dataset),
                                      nw.PASS_ELEMENTS)) == 1
        target.score_and_mse_batch(template, P)      # the template's caches
        tracemalloc.start()
        try:
            target.score_and_mse_batch(template, P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block_array = 27 * 80 * 30 * 8                # one per-link array, bytes
        assert peak < 11 * block_array


class TestDatasetIO:
    def test_round_trip(self, rng, tmp_path):
        data = Dataset(rng.normal(size=(6, 3)), rng.normal(size=(6, 2)),
                       ("a", "b", "c"), ("u", "v"))
        path = tmp_path / "data.csv"
        save_dataset(data, path)
        loaded = load_dataset(path, n_inputs=3)
        assert loaded.input_names == data.input_names
        assert loaded.output_names == data.output_names
        assert loaded.inputs.tolist() == data.inputs.tolist()
        assert loaded.outputs.tolist() == data.outputs.tolist()

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            Dataset(np.zeros((0, 2)), np.zeros((0, 1)))

    @pytest.mark.parametrize("inputs, outputs", [
        (np.arange(5.0), 2.0 * np.arange(5.0)),
        (np.arange(5.0)[:, None], 2.0 * np.arange(5.0)),
        (np.arange(5.0), 2.0 * np.arange(5.0)[:, None])],
        ids=["both_1d", "outputs_1d", "inputs_1d"])
    def test_one_dimensional_samples_are_named(self, inputs, outputs):
        # five 1-D samples used to become one sample of five features
        with pytest.raises(ShapeError, match=r"must be sample rows \(n, width\)"):
            Dataset(inputs, outputs)

    @pytest.mark.parametrize("shape", [(6,), (2, 4, 6)], ids=["one_sample", "three_axes"])
    def test_model_inputs_that_are_not_rows_are_named(self, shape):
        # the strain features the stress target prepares from its inputs
        with pytest.raises(ShapeError, match=r"is not Voigt rows \(n, 6\)"):
            mech.strain_features(np.zeros(shape))
