import numpy as np
import pytest

from csvgd import mechanics as mech
from csvgd.errors import DomainError
from csvgd.likelihoods import RegressionTarget

from _oracles import fd_gradient, fd_strain_gradient
from conftest import random_net


def random_strain(rng, scale=0.05):
    E = scale * rng.normal(size=(3, 3))
    return 0.5 * (E + E.T)


def random_icnn(rng, widths=(3, 4, 1)):
    return random_net(rng, widths, nonneg=(False,) + (True,) * (len(widths) - 2))


class TestInvariants:
    def test_reference_state(self):
        assert mech.invariants(np.zeros((3, 3))) == pytest.approx((3.0, 3.0, 1.0))

    def test_uniaxial_stretch(self):
        # C = diag(4, 1, 1): I1 = 6, I2 = (36 - 18)/2 = 9, I3 = 4
        E = np.diag([1.5, 0.0, 0.0])
        assert mech.invariants(E) == pytest.approx((6.0, 9.0, 4.0))

    def test_rotation_invariance(self, rng):
        for _ in range(10):
            E = random_strain(rng)
            C = 2.0 * E + np.eye(3)
            Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            E_rot = 0.5 * (Q.T @ C @ Q - np.eye(3))
            assert mech.invariants(E_rot) == pytest.approx(mech.invariants(E),
                                                           abs=1e-12)

    def test_batch_matches_single(self, rng):
        E_rows = np.stack([mech.sym_to_voigt(random_strain(rng)) for _ in range(8)])
        batch = mech.invariants_batch(E_rows)
        for i, row in enumerate(E_rows):
            assert batch[i] == pytest.approx(mech.invariants(mech.voigt_to_sym(row)),
                                             abs=1e-12)

    def test_asymmetric_rejected(self):
        E = np.zeros((3, 3))
        E[0, 1] = 0.2
        with pytest.raises(Exception):
            mech.invariants(E)


class TestInvariantDerivatives:
    def test_reference_values(self):
        d1, d2, d3 = mech.invariant_derivatives(np.zeros((3, 3)))
        assert d1 == pytest.approx(2.0 * np.eye(3))
        assert d2 == pytest.approx(4.0 * np.eye(3))
        assert d3 == pytest.approx(2.0 * np.eye(3))

    def test_match_finite_differences(self, rng):
        for _ in range(10):
            E = random_strain(rng)
            ds = mech.invariant_derivatives(E)
            for i, d in enumerate(ds):
                oracle = fd_strain_gradient(lambda Em: mech.invariants(Em)[i], E)
                rel = np.abs(d - oracle) / np.maximum(np.abs(oracle), 1e-8)
                assert rel.max() < 1e-6

    def test_derivatives_symmetric(self, rng):
        for d in mech.invariant_derivatives(random_strain(rng)):
            assert d == pytest.approx(d.T, abs=1e-14)

    def test_batch_matches_single(self, rng):
        E = random_strain(rng)
        row = mech.sym_to_voigt(E)[None]
        batch = mech.invariant_derivatives_batch(row)[0]
        for i, d in enumerate(mech.invariant_derivatives(E)):
            assert batch[i] == pytest.approx(mech.sym_to_voigt(d), abs=1e-12)


class TestTruthModel:
    def test_reference_value(self):
        p = mech.TruthParams()
        # only the -t2 log(I2/J) term survives at (3, 3, 1)
        assert mech.truth_potential(p, 3.0, 3.0, 1.0) == \
            pytest.approx(0.75 * np.log(3.0), rel=1e-12)

    def test_lockup_raises(self):
        p = mech.TruthParams()
        with pytest.raises(DomainError):
            mech.truth_potential(p, 3.0 + p.j_m, 3.0, 1.0)

    def test_gradient_matches_fd(self, rng):
        truth = mech.TruthPotential()
        inv = np.array([[3.4, 3.2, 1.1]])
        g = truth.gradient(inv)[0]
        oracle = fd_gradient(lambda v: float(truth.value(v[None])[0]), inv[0])
        assert g == pytest.approx(oracle, rel=1e-6)

    def test_stress_matches_potential_fd(self, rng):
        p = mech.TruthParams()
        truth = mech.TruthPotential(p)
        for _ in range(5):
            E = random_strain(rng)
            S = mech.stress_from_potential(truth, E)
            oracle = fd_strain_gradient(
                lambda Em: mech.truth_potential(p, *mech.invariants(Em)), E)
            rel = np.abs(S - oracle) / np.maximum(np.abs(oracle), 1e-8)
            assert rel.max() < 1e-6


class TestStressFromPotential:
    class _Const:
        def gradient(self, inv):
            return np.zeros_like(np.atleast_2d(inv))

        def value(self, inv):
            return np.full(len(np.atleast_2d(inv)), 7.0)

    class _I1:
        def gradient(self, inv):
            g = np.zeros_like(np.atleast_2d(inv))
            g[..., 0] = 1.0
            return g

        def value(self, inv):
            return np.atleast_2d(inv)[..., 0]

    def test_constant_potential_gives_zero(self, rng):
        S = mech.stress_from_potential(self._Const(), random_strain(rng))
        assert np.all(S == 0.0)

    def test_first_invariant_potential(self, rng):
        S = mech.stress_from_potential(self._I1(), random_strain(rng))
        assert S == pytest.approx(2.0 * np.eye(3))

    def test_energy_conservation_on_cycle(self, rng):
        """Stress power integrates to ~0 around a closed strain loop for both
        the truth potential and a network potential."""
        from _oracles import stress_cycle_integral
        A = 0.04 * np.array([[1.0, 0.3, 0.0], [0.3, -0.5, 0.1], [0.0, 0.1, 0.2]])
        B = 0.04 * np.array([[0.2, -0.1, 0.4], [-0.1, 0.8, 0.0], [0.4, 0.0, -0.3]])
        truth = mech.reference_normalize(mech.TruthPotential())
        net_pot = mech.reference_normalize(mech.NetPotential(random_icnn(rng)))
        for pot in (truth, net_pot):
            total = stress_cycle_integral(
                lambda E: mech.stress_batch(pot, E), A, B)
            assert abs(total) < 1e-6

    def test_stress_batch_matches_single(self, rng):
        truth = mech.TruthPotential()
        rows = np.stack([mech.sym_to_voigt(random_strain(rng)) for _ in range(6)])
        batch = mech.stress_batch(truth, rows)
        for row_e, row_s in zip(rows, batch):
            S = mech.stress_from_potential(truth, mech.voigt_to_sym(row_e))
            assert row_s == pytest.approx(mech.sym_to_voigt(S), abs=1e-12)


class TestNormalization:
    def test_value_zero_at_reference(self, rng):
        net = random_icnn(rng)
        pot = mech.reference_normalize(mech.NetPotential(net))
        assert pot.value([[3.0, 3.0, 1.0]])[0] == pytest.approx(0.0, abs=1e-14)

    def test_stress_zero_at_reference(self, rng):
        for _ in range(20):
            net = random_icnn(rng)
            pot = mech.reference_normalize(mech.NetPotential(net))
            S0 = mech.stress_from_potential(pot, np.zeros((3, 3)))
            assert np.linalg.norm(S0) < 1e-8

    def test_correction_only_depends_on_i3(self, rng):
        net = random_icnn(rng)
        raw = mech.NetPotential(net)
        normed = mech.reference_normalize(raw)
        inv = np.array([[3.7, 2.9, 1.2]])
        # the I3-only shift leaves the I1 sensitivity untouched
        assert normed.gradient(inv)[0][0] == pytest.approx(raw.gradient(inv)[0][0],
                                                           rel=1e-12)

    def test_normalized_stress_matches_value_fd(self, rng):
        net = random_icnn(rng)
        pot = mech.reference_normalize(mech.NetPotential(net))
        E = random_strain(rng)
        S = mech.stress_from_potential(pot, E)

        def value_at(Em):
            return float(pot.value(np.array([mech.invariants(Em)]))[0])

        oracle = fd_strain_gradient(value_at, E)
        assert S == pytest.approx(oracle, rel=1e-5, abs=1e-9)


class TestDataGeneration:
    def test_zero_noise_reproduces_truth(self):
        data = mech.generate_data(noise_level=0.0, n_train=10, seed=4, n_test=21)
        truth = mech.reference_normalize(mech.TruthPotential())
        for row_e, row_s in zip(data.train.inputs, data.train.outputs):
            S = mech.stress_from_potential(truth, mech.voigt_to_sym(row_e))
            assert row_s == pytest.approx(mech.sym_to_voigt(S), abs=1e-12)

    def test_reference_point_on_test_path(self):
        data = mech.generate_data(n_train=4, seed=0, n_test=21)
        mid = 10
        assert data.test_delta[mid] == 0.0
        assert np.all(data.test.inputs[mid] == 0.0)
        assert data.test.outputs[mid] == pytest.approx(np.zeros(6), abs=1e-12)

    def test_deterministic_under_seed(self):
        d1 = mech.generate_data(n_train=8, seed=11, n_test=13)
        d2 = mech.generate_data(n_train=8, seed=11, n_test=13)
        assert d1.train.inputs.tolist() == d2.train.inputs.tolist()
        assert d1.train.outputs.tolist() == d2.train.outputs.tolist()

    def test_same_seed_same_strains_across_noise(self):
        a = mech.generate_data(n_train=8, seed=5, noise_level=0.0, n_test=13)
        b = mech.generate_data(n_train=8, seed=5, noise_level=0.2, n_test=13)
        assert a.train.inputs.tolist() == b.train.inputs.tolist()

    def test_deformations_admissible(self):
        data = mech.generate_data(n_train=30, seed=2, n_test=13)
        for row in data.train.inputs:
            i3 = mech.invariants(mech.voigt_to_sym(row))[2]
            assert i3 > 0.0


class TestStressModelScore:
    def test_score_matches_finite_differences(self, rng):
        net = random_icnn(rng, (3, 4, 1))
        data = mech.generate_data(n_train=6, seed=3, n_test=11)
        target = RegressionTarget(data.train, 0.5, mech.StressRegressionModel())
        S, _ = target.score_and_mse_batch(net, net.flatten()[None])
        oracle = fd_gradient(lambda t: target.log_likelihood(net, t[None])[0],
                             net.flatten())
        rel = np.abs(S[0] - oracle) / np.maximum(np.abs(oracle), 1e-6)
        assert rel.max() < 1e-5

    def test_predict_zero_at_reference(self, rng):
        net = random_icnn(rng)
        model = mech.StressRegressionModel()
        S = model.predict(net, net.flatten()[None], model.prepare(np.zeros((1, 6))))
        assert np.linalg.norm(S) < 1e-8

    def test_predict_matches_stress_batch(self, rng):
        nets = [random_icnn(rng) for _ in range(3)]
        E = 0.05 * rng.normal(size=(7, 6))
        model = mech.StressRegressionModel()
        S = model.predict(nets[0], np.stack([n.flatten() for n in nets]),
                          model.prepare(E))
        for a, net in enumerate(nets):
            expect = mech.stress_batch(mech.reference_normalize(mech.NetPotential(net)), E)
            assert S[a] == pytest.approx(expect, rel=1e-13, abs=1e-15)


class TestVoigt:
    def test_round_trip(self, rng):
        M = random_strain(rng)
        assert mech.voigt_to_sym(mech.sym_to_voigt(M)) == pytest.approx(M, abs=0)

    def test_component_order(self):
        M = np.array([[1.0, 6.0, 5.0], [6.0, 2.0, 4.0], [5.0, 4.0, 3.0]])
        assert mech.sym_to_voigt(M).tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
