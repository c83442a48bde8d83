import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from csvgd import mechanics as mech
from csvgd import network as nw
from csvgd.errors import DomainError, ShapeError
from csvgd.likelihoods import RegressionTarget

from _oracles import (Net, fd_gradient, fd_strain_gradient, invariants_3x3, net_potential,
                      pinned_stress_einsum, reference_normalized,
                      regression_log_likelihood, stack_stress, strain_energy,
                      truth_potential)
from conftest import random_net


def random_strain(rng, scale=0.05):
    E = scale * rng.normal(size=(3, 3))
    return 0.5 * (E + E.T)


def random_icnn(rng, widths=(3, 4, 1)):
    return random_net(rng, widths, nonneg=(False,) + (True,) * (len(widths) - 2))


def predict_one(net, E_voigt):
    """Voigt stress rows of one potential network at Voigt strain rows."""
    return stack_stress(net.template, net.row[None], mech.strain_features(E_voigt))[0]


def voigt_fd_stress(potential, E):
    """Voigt row of the FD strain gradient of a potential of invariants."""
    return mech.sym_to_voigt(fd_strain_gradient(strain_energy(potential), E))


class TestInvariants:
    def test_reference_state(self):
        assert mech.invariants_batch(np.zeros((1, 6)))[0] == pytest.approx((3.0, 3.0, 1.0))

    def test_uniaxial_stretch(self):
        # C = diag(4, 1, 1): I1 = 6, I2 = (36 - 18)/2 = 9, I3 = 4
        E = np.array([[1.5, 0.0, 0.0, 0.0, 0.0, 0.0]])
        assert mech.invariants_batch(E)[0] == pytest.approx((6.0, 9.0, 4.0))

    def test_rotation_invariance(self, rng):
        for _ in range(10):
            E = random_strain(rng)
            C = 2.0 * E + np.eye(3)
            Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            E_rot = 0.5 * (Q.T @ C @ Q - np.eye(3))
            rows = mech.sym_to_voigt(np.stack([E, E_rot]))
            inv = mech.invariants_batch(rows)
            assert inv[1] == pytest.approx(inv[0], abs=1e-12)

    def test_batch_matches_single(self, rng):
        """The Voigt-row closed forms against trace and determinant of C."""
        E = np.stack([random_strain(rng) for _ in range(8)])
        batch = mech.invariants_batch(mech.sym_to_voigt(E))
        for i in range(8):
            assert batch[i] == pytest.approx(invariants_3x3(E[i]), abs=1e-12)


class TestInvariantDerivatives:
    def test_reference_values(self):
        d1, d2, d3 = mech.invariant_derivatives_batch(np.zeros((1, 6)))[0]
        assert d1 == pytest.approx(mech.sym_to_voigt(2.0 * np.eye(3)))
        assert d2 == pytest.approx(mech.sym_to_voigt(4.0 * np.eye(3)))
        assert d3 == pytest.approx(mech.sym_to_voigt(2.0 * np.eye(3)))

    def test_match_finite_differences(self, rng):
        for _ in range(10):
            E = random_strain(rng)
            ds = mech.invariant_derivatives_batch(mech.sym_to_voigt(E)[None])[0]
            for i, d in enumerate(ds):
                oracle = mech.sym_to_voigt(
                    fd_strain_gradient(lambda Em: invariants_3x3(Em)[i], E))
                rel = np.abs(d - oracle) / np.maximum(np.abs(oracle), 1e-8)
                assert rel.max() < 1e-6

    def test_batch_matches_single(self, rng):
        """Each row against 2I, 2(I1 I - C) and 2 det(C) C^-1 of its own C."""
        E = np.stack([random_strain(rng) for _ in range(6)])
        batch = mech.invariant_derivatives_batch(mech.sym_to_voigt(E))
        for row, Ei in zip(batch, E):
            C = 2.0 * Ei + np.eye(3)
            expect = (2.0 * np.eye(3), 2.0 * (np.trace(C) * np.eye(3) - C),
                      2.0 * np.linalg.det(C) * np.linalg.inv(C))
            for got, want in zip(row, expect):
                assert got == pytest.approx(mech.sym_to_voigt(want), abs=1e-12)


class TestTruthModel:
    def test_reference_value(self):
        # at (3, 3, 1): dPsi/dI = (t1/2, -t2/I2, t2/(2 I3) + 0)
        p = mech.TruthParams()
        g = mech._truth_gradient(p, np.array([[3.0, 3.0, 1.0]]))[0]
        assert g == pytest.approx([0.5 * p.t1, -p.t2 / 3.0, 0.5 * p.t2], rel=1e-12)

    def test_lockup_raises(self):
        p = mech.TruthParams()
        # E11 = J_m gives I1 = 3 + 2 J_m, beyond the lock-up at 3 + J_m
        with pytest.raises(DomainError):
            mech.truth_stress([[p.j_m, 0.0, 0.0, 0.0, 0.0, 0.0]], p)

    @pytest.mark.parametrize("shape", [(6,), (2, 1, 6), (3, 5)],
                             ids=["one_strain", "three_axes", "five_components"])
    def test_strain_that_is_not_voigt_rows_is_named(self, shape):
        # a 1-D strain used to become one row
        for rows_of in (mech.truth_stress, mech.strain_features):
            with pytest.raises(ShapeError, match=r"is not Voigt rows \(n, 6\)"):
                rows_of(np.zeros(shape))

    def test_gradient_matches_fd(self, rng):
        p = mech.TruthParams()
        inv = np.array([[3.4, 3.2, 1.1]])
        g = mech._truth_gradient(p, inv)[0]
        oracle = fd_gradient(lambda v: truth_potential(p, v), inv[0])
        assert g == pytest.approx(oracle, rel=1e-6)

    def test_stress_matches_potential_fd(self, rng):
        p = mech.TruthParams()
        pinned = reference_normalized(lambda inv: truth_potential(p, inv))
        for _ in range(5):
            E = random_strain(rng)
            S = mech.truth_stress(mech.sym_to_voigt(E)[None], p)[0]
            oracle = voigt_fd_stress(pinned, E)
            rel = np.abs(S - oracle) / np.maximum(np.abs(oracle), 1e-8)
            assert rel.max() < 1e-6


class TestStressFromPotential:
    """The pinned stress of potentials with known closed forms."""

    def test_constant_potential_gives_zero(self, rng):
        net = random_icnn(rng)
        W0, W1 = net.weights
        constant = Net.of((W0, np.zeros_like(W1)), net.template.nonneg_mask)
        S = predict_one(constant, mech.sym_to_voigt(random_strain(rng))[None])
        assert np.all(S == 0.0)

    def test_first_invariant_potential(self, rng):
        # Phi = I1 has n = 2, so S = 2I - (1/sqrt(I3)) dI3/dE = 2I - 2 sqrt(I3) C^-1
        net = Net.of((np.array([[1.0, 0.0, 0.0]]),))
        E = random_strain(rng)
        C = 2.0 * E + np.eye(3)
        S = predict_one(net, mech.sym_to_voigt(E)[None])[0]
        expect = 2.0 * np.eye(3) - 2.0 * np.sqrt(np.linalg.det(C)) * np.linalg.inv(C)
        assert S == pytest.approx(mech.sym_to_voigt(expect), abs=1e-12)

    def test_energy_conservation_on_cycle(self, rng):
        """Stress power integrates to ~0 around a closed strain loop for both
        the truth model and a network potential."""
        from _oracles import stress_cycle_integral
        A = 0.04 * np.array([[1.0, 0.3, 0.0], [0.3, -0.5, 0.1], [0.0, 0.1, 0.2]])
        B = 0.04 * np.array([[0.2, -0.1, 0.4], [-0.1, 0.8, 0.0], [0.4, 0.0, -0.3]])
        net = random_icnn(rng)
        for stress in (mech.truth_stress, lambda E: predict_one(net, E)):
            assert abs(stress_cycle_integral(stress, A, B)) < 1e-6


class TestNormalization:
    def test_stress_zero_at_reference(self, rng):
        for _ in range(20):
            S0 = predict_one(random_icnn(rng), np.zeros((1, 6)))
            assert np.linalg.norm(S0) < 1e-8

    def test_correction_only_depends_on_i3(self, rng):
        """Pinning shifts only dPhi/dI3, by -n / (2 sqrt(I3)) with one n for
        every row: the stress moves along dI3/dE alone."""
        net = random_icnn(rng)
        E = np.stack([mech.sym_to_voigt(random_strain(rng)) for _ in range(5)])
        inv, dI = mech.strain_features(E)[:2]
        raw = np.einsum("ni,nik->nk",
                        nw.forward_pass(net.template, inv, net.row[None])
                        .grad_input()[0, :, 0, :], dI)
        shift = predict_one(net, E) - raw
        c = np.sum(shift * dI[:, 2], axis=1) / np.sum(dI[:, 2] ** 2, axis=1)
        assert shift == pytest.approx(c[:, None] * dI[:, 2], rel=1e-9, abs=1e-15)
        assert c * np.sqrt(inv[:, 2]) == pytest.approx(np.full(5, c[0] * np.sqrt(inv[0, 2])),
                                                       rel=1e-9)

    def test_normalized_stress_matches_value_fd(self, rng):
        net = random_icnn(rng)
        E = random_strain(rng)
        S = predict_one(net, mech.sym_to_voigt(E)[None])[0]
        oracle = voigt_fd_stress(reference_normalized(net_potential(net)), E)
        assert S == pytest.approx(oracle, rel=1e-5, abs=1e-9)


class TestDataGeneration:
    def test_zero_noise_reproduces_truth(self):
        data = mech.generate_data(noise_level=0.0, n_train=10, seed=4, n_test=21)
        assert np.array_equal(data.train.outputs, mech.truth_stress(data.train.inputs))
        assert np.array_equal(data.test.outputs, mech.truth_stress(data.test.inputs))

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
        assert np.all(mech.invariants_batch(data.train.inputs)[:, 2] > 0.0)


class TestStressModelScore:
    def test_score_matches_finite_differences(self, rng):
        net = random_icnn(rng, (3, 4, 1))
        data = mech.generate_data(n_train=6, seed=3, n_test=11)
        target = RegressionTarget(data.train, 0.5)
        S, _ = target.score_and_mse_batch(net.template, net.row[None])
        oracle = fd_gradient(
            lambda t: regression_log_likelihood(target, net.template, t[None])[0], net.row)
        rel = np.abs(S[0] - oracle) / np.maximum(np.abs(oracle), 1e-6)
        assert rel.max() < 1e-5

    def test_predict_zero_at_reference(self, rng):
        net = random_icnn(rng)
        S = stack_stress(net.template, net.row[None], mech.strain_features(np.zeros((1, 6))))
        assert np.linalg.norm(S) < 1e-8

    def test_predict_matches_stress_batch(self, rng):
        """Each particle of a stack against the FD stress of its own
        reference-normalized potential."""
        nets = [random_icnn(rng) for _ in range(3)]
        E = 0.05 * rng.normal(size=(7, 6))
        S = stack_stress(nets[0].template, np.stack([n.row for n in nets]),
                         mech.strain_features(E))
        for a, net in enumerate(nets):
            pinned = reference_normalized(net_potential(net))
            expect = [voigt_fd_stress(pinned, mech.voigt_to_sym(row)) for row in E]
            assert S[a] == pytest.approx(np.array(expect), rel=1e-5, abs=1e-9)


class TestVoigt:
    def test_round_trip(self, rng):
        M = random_strain(rng)
        assert mech.voigt_to_sym(mech.sym_to_voigt(M)) == pytest.approx(M, abs=0)

    def test_component_order(self):
        M = np.array([[1.0, 6.0, 5.0], [6.0, 2.0, 4.0], [5.0, 4.0, 3.0]])
        assert mech.sym_to_voigt(M).tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]


# signed zeros and NaN drawn on their own so that they show up often
_pinned_values = st.one_of(st.just(-0.0), st.just(0.0), st.just(np.nan),
                           st.floats(-1e3, 1e3))


@st.composite
def pinned_cases(draw):
    """Gradients at the rows and at the reference (with or without a particle
    axis), invariant rows and dI/dE, with signed zeros and NaN anywhere."""
    rows = draw(st.integers(1, 5))
    lead = draw(st.sampled_from([(), (1,), (3,)]))
    g = draw(arrays(float, lead + (rows, 3), elements=_pinned_values))
    g_ref = draw(arrays(float, lead + (3,), elements=_pinned_values))
    inv = draw(arrays(float, (rows, 3),
                      elements=st.one_of(_pinned_values, st.floats(1e-3, 10.0))))
    dI = draw(arrays(float, (rows, 3, 6), elements=_pinned_values))
    return g, g_ref, inv, dI


def features_of(inv, dI):
    """The ``strain_features`` operands of given invariant rows and dI/dE."""
    return inv, dI, np.ascontiguousarray(np.moveaxis(dI, 0, -1)), np.sqrt(inv[:, 2])


def pinned_stress(g, g_ref, inv, dI):
    return mech._pinned_stress(g, g_ref, features_of(inv, dI))


class TestPinnedStressForm:
    """The broadcast multiply-add gives the einsum's bits, signed zeros
    included, and its NaNs at the same places.  (Which of two NaNs meeting
    in a sum carries on, and so the sign of a NaN, rests on the operand order
    the compiler picked for the einsum's loop; every NaN reads as one here.)"""

    @staticmethod
    def bits(a):
        return np.where(np.isnan(a), np.nan, a).view(np.uint64)

    @settings(max_examples=300, deadline=None)
    @given(case=pinned_cases())
    def test_equals_the_einsum_bit_for_bit(self, case):
        with np.errstate(all="ignore"):
            got, want = pinned_stress(*case), pinned_stress_einsum(*case)
        assert got.shape == want.shape
        np.testing.assert_array_equal(self.bits(got), self.bits(want))

    def test_strain_features_form_the_operands_it_reads(self, rng):
        # the component-major dI/dE and sqrt(I3), formed once per strain rows
        E = rng.normal(scale=0.05, size=(9, 6))
        got = mech.strain_features(E)
        want = features_of(mech.invariants_batch(E), mech.invariant_derivatives_batch(E))
        for a, b in zip(got, want, strict=True):
            np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))
        assert got[2].flags.c_contiguous

    @pytest.mark.parametrize("n, rows", [(10, 80), (2, 1001), (27, 80)])
    def test_equals_the_einsum_at_the_run_shapes(self, n, rows):
        # the score's stack at desk and wide N, and a test-path block
        rng = np.random.default_rng(n * rows)
        g, g_ref = rng.normal(size=(n, rows, 3)), rng.normal(size=(n, 3))
        E = rng.normal(scale=0.05, size=(rows, 6))
        inv, dI = mech.invariants_batch(E), mech.invariant_derivatives_batch(E)
        g.flat[::7] = -0.0
        dI = dI.copy()
        dI.flat[::5] = -0.0
        np.testing.assert_array_equal(self.bits(pinned_stress(g, g_ref, inv, dI)),
                                      self.bits(pinned_stress_einsum(g, g_ref, inv, dI)))
