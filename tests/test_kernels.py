import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from csvgd import kernels
from csvgd.condense import distance_matrix
from csvgd.engine import (Ensemble, SvgdConfig, _resolve_gamma, median_distance,
                          stein_gradient)
from csvgd.errors import DomainError, ShapeError
from csvgd.kernels import (BANDWIDTH_FLOOR, BLOCK_ELEMENTS, PAIRWISE_SUM_MIN,
                           KernelSpec, _kernel, median_bandwidth,
                           median_pair_distance, pairwise_square_sums,
                           stein_direction)

from _oracles import (broadcast_distance_matrix, broadcast_kernel_matrix,
                      broadcast_power_sum, broadcast_stein_direction, fd_gradient)


def kappa(spec, a, b):
    """The library's kernel formula, as the Stein direction forms it, over
    the pairwise power sum of a and b."""
    power_sum = broadcast_power_sum(np.stack([a, b]), spec.beta)[:1, 1:]
    return float(_kernel(power_sum, spec.gamma, spec.beta)[0, 0])


def stein(spec, P, S, near):
    """``stein_direction`` at the spec's gamma, given the distances it needs."""
    P = np.asarray(P, dtype=float)
    sq = pairwise_square_sums(P)[1] if spec.beta == 2 else None
    return stein_direction(spec, P, S, spec.gamma, near, sq)


def repulsion(spec, a, b):
    """grad_a kappa(a, b) read off the Stein direction: for the particles
    (a, b) with zero scores and no coordinate near, b's direction is
    (1/2) grad_{t_a} kappa(t_a, t_b)."""
    P = np.stack([np.asarray(a, dtype=float), np.asarray(b, dtype=float)])
    return 2.0 * stein(spec, P, np.zeros_like(P), np.zeros(P.shape, dtype=bool))[1]


def oracle_kappa(spec, a, b):
    return broadcast_kernel_matrix(np.stack([a, b]), spec.beta, spec.gamma)[0, 1]


class TestEval:
    def test_self_similarity_is_one(self, rng):
        spec = KernelSpec(2, 0.7)
        a = rng.normal(size=6)
        assert kappa(spec, a, a) == 1.0

    def test_gaussian_hand_value(self):
        spec = KernelSpec(2, 1.0)
        assert kappa(spec, np.array([1.0, 0.0]), np.zeros(2)) == \
            pytest.approx(np.exp(-0.5), rel=1e-12)

    def test_exponential_hand_value(self):
        spec = KernelSpec(1, 2.0)
        assert kappa(spec, np.array([1.0, -1.0]), np.zeros(2)) == \
            pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_symmetric_and_bounded(self, rng):
        for beta in (1, 2):
            spec = KernelSpec(beta, 0.3)
            for _ in range(20):
                a, b = rng.normal(size=(2, 4))
                k1, k2 = kappa(spec, a, b), kappa(spec, b, a)
                assert k1 == k2
                assert 0.0 < k1 <= 1.0
                assert (k1 == 1.0) == bool(np.all(a == b))

    def test_matrix_agrees_with_pairwise(self, rng):
        # every coordinate near: no repulsion, so unit scores give the drive K / n
        P = rng.normal(size=(5, 5))
        for beta in (1, 2):
            spec = KernelSpec(beta, 0.9)
            K = 5.0 * stein(spec, P, np.eye(5), np.ones(P.shape, dtype=bool))
            for a in range(5):
                for b in range(5):
                    assert K[a, b] == pytest.approx(kappa(spec, P[a], P[b]), rel=1e-12)


class TestGrad:
    """The repulsion of the Stein direction is the kernel gradient."""

    def test_zero_at_coincident_points(self, rng):
        a = rng.normal(size=4)
        for beta in (1, 2):
            g = repulsion(KernelSpec(beta, 0.5), a, a.copy())
            assert np.all(g == 0.0)

    def test_gaussian_hand_value(self):
        spec = KernelSpec(2, 1.0)
        g = repulsion(spec, np.zeros(2), np.array([1.0, 0.0]))
        assert g == pytest.approx([np.exp(-0.5), 0.0], rel=1e-12)

    def test_exponential_hand_value(self):
        spec = KernelSpec(1, 1.0)
        g = repulsion(spec, np.zeros(1), np.array([0.5]))
        assert g == pytest.approx([np.exp(-0.5)], rel=1e-12)

    def test_antisymmetry_under_swap(self, rng):
        for beta in (1, 2):
            spec = KernelSpec(beta, 0.8)
            a, b = rng.normal(size=(2, 5))
            assert repulsion(spec, a, b) == pytest.approx(-repulsion(spec, b, a),
                                                          abs=1e-14)

    def test_matches_finite_differences_beta2(self, rng):
        spec = KernelSpec(2, 0.6)
        a, b = rng.normal(size=(2, 4))
        g = repulsion(spec, a, b)
        oracle = fd_gradient(lambda av: oracle_kappa(spec, av, b), a)
        rel = np.abs(g - oracle) / np.maximum(np.abs(oracle), 1e-12)
        assert rel.max() < 1e-6

    def test_matches_finite_differences_beta1_separated(self, rng):
        spec = KernelSpec(1, 0.9)
        a = rng.uniform(1.0, 2.0, size=4)
        b = -rng.uniform(1.0, 2.0, size=4)
        g = repulsion(spec, a, b)
        oracle = fd_gradient(lambda av: oracle_kappa(spec, av, b), a)
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
            ens = Ensemble(particles, None, np.random.default_rng(0))
            return _resolve_gamma(config, ens, median_distance(ens))

        g = gamma(P)
        assume(g > 1e-3)
        assert gamma(c * P) == pytest.approx(np.sqrt(c) * g, rel=1e-9)


# Squared distances that tie, underflow and overflow: zero, subnormals, the
# smallest normal number, ordinary values and inf.
SQ_POOL = [0.0, 5e-324, 1e-323, 2.2250738585072014e-308, 1e-300, 0.25, 1.0,
           2.0, 3.0, 1e300, float("inf")]


@st.composite
def pair_arrays(draw, n=st.integers(0, 40)):
    """The n(n-1)/2 squared pair distances of n particles, each from SQ_POOL
    or any non-negative float, one of them NaN now and then."""
    n = draw(n)
    pairs = draw(arrays(float, n * (n - 1) // 2, elements=st.one_of(
        st.sampled_from(SQ_POOL), st.floats(0.0, 1e6))))
    if len(pairs) and draw(st.integers(0, 9)) == 0:
        pairs[draw(st.integers(0, len(pairs) - 1))] = np.nan
    return pairs


def _median_of_pairs(pairs):
    return np.median(np.sqrt(pairs))


def _same_float(got, expect):
    return np.float64(got).tobytes() == np.float64(expect).tobytes()


class TestMedianPairDistance:
    @settings(max_examples=300, deadline=None)
    @given(pairs=pair_arrays())
    def test_equals_median_of_the_pairs_bit_for_bit(self, pairs):
        expect = _median_of_pairs(pairs) if len(pairs) else np.nan
        got = median_pair_distance(pairs.copy())
        assert isinstance(got, float)
        if np.isnan(expect):
            assert np.isnan(got)
        else:
            assert _same_float(got, expect)

    @pytest.mark.parametrize("n", [50, 101, 200, 512])
    def test_equals_median_of_the_pairs_on_particle_clouds(self, rng, n):
        # large enough that the partition leaves the part below its index
        # unordered, so the lower middle is not simply the entry next to it
        for _ in range(5):
            P = rng.normal(size=(n, 3))
            expect = _median_of_pairs(broadcast_power_sum(P, 2)[np.triu_indices(n, 1)])
            assert median_pair_distance(pairwise_square_sums(P)[0]) == expect

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_odd_and_even_pair_counts_with_ties(self, n):
        # 1, 3, 6 and 10 pairs; every pair value repeats
        pairs = np.resize([4.0, 1.0, 1.0, 9.0], n * (n - 1) // 2)
        assert median_pair_distance(pairs.copy()) == _median_of_pairs(pairs)

    def test_reorders_the_pairs_in_place(self):
        pairs = np.array([9.0, 1.0, 4.0, 16.0, 0.25])
        assert median_pair_distance(pairs) == 2.0
        assert pairs[2] == 4.0 and sorted(pairs) == [0.25, 1.0, 4.0, 9.0, 16.0]

    @pytest.mark.parametrize("where", [(0, 1), (2, 3)])
    def test_nan_pair_gives_nan(self, where):
        sq = np.array([[0.0, 1.0, 4.0, 9.0], [1.0, 0.0, 1.0, 4.0],
                       [4.0, 1.0, 0.0, 1.0], [9.0, 4.0, 1.0, 0.0]])
        sq[where] = sq[where[::-1]] = np.nan
        pairs = sq[np.triu_indices(4, 1)]
        assert np.isnan(_median_of_pairs(pairs))
        assert np.isnan(median_pair_distance(pairs))

    def test_a_matrix_is_rejected(self):
        with pytest.raises(ShapeError):
            median_pair_distance(np.zeros((3, 3)))

    def test_infinite_coordinate_leaves_the_pairs_finite_median(self):
        # the particle at inf is inf away from the others (4 of 10 pairs);
        # only its distance to itself, inf - inf, is NaN, and it is no pair
        P = np.array([[0.0, 0, 0], [1, 0, 0], [3, 0, 0], [np.inf, 0, 0], [5, 0, 0]])
        with np.errstate(invalid="ignore"):
            pairs, _ = pairwise_square_sums(P)
            oracle = broadcast_power_sum(P, 2)[np.triu_indices(5, 1)]
            ens = Ensemble(P, None, np.random.default_rng(0))
            assert median_distance(ens) == 4.5
        assert np.array_equal(np.sort(pairs), np.sort(oracle))
        assert _median_of_pairs(oracle) == median_pair_distance(pairs) == 4.5


class TestSpecValidation:
    def test_beta_restricted(self):
        with pytest.raises(DomainError):
            KernelSpec(3, 1.0)

    def test_gamma_positive(self):
        with pytest.raises(DomainError):
            KernelSpec(2, 0.0)

    def test_nan_gamma_rejected(self):
        with pytest.raises(DomainError, match="gamma must be > 0, got nan"):
            KernelSpec(2, float("nan"))

    def test_bandwidth_rule_names(self):
        with pytest.raises(DomainError):
            KernelSpec(2, 1.0, "adaptive-ish")


def _direction(P, S, beta, gamma, threshold):
    config = SvgdConfig(step_size=0.1, max_iters=1, kernel=KernelSpec(beta, gamma),
                        axis_mask_threshold=threshold)
    return stein_gradient(Ensemble(P, None, np.random.default_rng(0)), S, config,
                          gamma=gamma)


class TestPairwiseLayer:
    """The blocked pairwise passes against the (N, N, D) broadcast formulas."""

    # 53 rows of 1000 coordinates come in blocks of 4 rows and 600 rows of 3
    # in coordinate planes of 145 rows, the last block of each short
    SHAPES = [(53, 1000), (1, 4), (6, 3), (600, 3)]

    def _cloud(self, rng, n, d):
        # a third of the coordinates inside the 1e-2 axis band
        P = rng.normal(scale=0.5, size=(n, d))
        P[rng.random(size=(n, d)) < 1 / 3] *= 1e-3
        return P, rng.normal(size=(n, d))

    def test_shapes_cover_a_short_last_block(self):
        n, d = self.SHAPES[0]
        rows = BLOCK_ELEMENTS // (n * d)
        assert 1 < rows < n and n % rows

    def test_narrow_shape_covers_a_short_last_plane_block(self):
        n, d = self.SHAPES[-1]
        rows = BLOCK_ELEMENTS // (n * d)
        assert d < PAIRWISE_SUM_MIN and 1 < rows < n and n % rows

    @pytest.mark.parametrize("n,d", SHAPES)
    def test_distances_and_kernel_matrix_equal_broadcast(self, rng, n, d):
        # the beta=1 kernel is formed inside its direction, which
        # test_beta1_direction_equals_broadcast holds to the broadcast bits
        P, _ = self._cloud(rng, n, d)
        assert np.array_equal(distance_matrix(P), broadcast_distance_matrix(P))
        gamma = 0.3 * d
        assert np.array_equal(_kernel(pairwise_square_sums(P)[1], gamma, 2),
                              broadcast_kernel_matrix(P, 2, gamma))

    @pytest.mark.parametrize("n,d", SHAPES)
    def test_split_square_sums(self, rng, n, d):
        # each row block splits into its own square and the rectangle past
        # it; the packed pairs and the matrix hold the same sums
        P, _ = self._cloud(rng, n, d)
        pairs, all_sq = pairwise_square_sums(P)
        assert pairs.shape == (n * (n - 1) // 2,)
        assert np.array_equal(all_sq, all_sq.T)
        assert np.all(np.diag(all_sq) == 0.0)
        _check_square_sums(P)

    @pytest.mark.parametrize("n,d", SHAPES)
    def test_square_sums_write_into_out(self, rng, n, d):
        P, _ = self._cloud(rng, n, d)
        expect = pairwise_square_sums(P)
        out = np.full((n, n), np.nan)
        got = pairwise_square_sums(P, out=out)
        assert got[1] is out
        assert all(np.array_equal(g, e) for g, e in zip(got, expect))
        assert np.array_equal(np.sort(got[0]), np.sort(out[np.triu_indices(n, 1)]))
        with pytest.raises(ShapeError):
            pairwise_square_sums(P, out=np.empty((n + 1, n + 1)))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(0, 30),
           d=st.sampled_from([0, 1, 2, 3, 5, PAIRWISE_SUM_MIN, 11]),
           block=st.integers(1, 400))
    def test_square_sums_equal_broadcast_over_any_blocks(self, data, n, d, block):
        # a small BLOCK_ELEMENTS splits a few rows into many blocks, down to
        # one row each, the last one mostly short
        P = data.draw(arrays(float, (n, d), elements=st.floats(-1e6, 1e6)))
        with mock.patch.object(kernels, "BLOCK_ELEMENTS", block):
            pairs = _check_square_sums(P)
        expect = (_median_of_pairs(broadcast_power_sum(P, 2)[np.triu_indices(n, 1)])
                  if len(pairs) else np.nan)
        got = median_pair_distance(pairs)
        assert np.isnan(got) if np.isnan(expect) else _same_float(got, expect)

    def test_narrow_pass_forms_little_more_than_the_upper_triangle(self, rng,
                                                                   monkeypatch):
        # a single full (n, n) block forms n^2 plane values per coordinate
        n, d = 512, 3
        rows = BLOCK_ELEMENTS // (n * d)
        formed = []
        plane_square_sum = kernels._plane_square_sum

        def spy(a, b, out, plane):
            formed.append(out.size)
            return plane_square_sum(a, b, out, plane)

        monkeypatch.setattr(kernels, "_plane_square_sum", spy)
        pairwise_square_sums(rng.normal(size=(n, d)))
        assert sum(formed) <= n * (n + 1) // 2 + rows * n < n * n

    @pytest.mark.parametrize("threshold", [0.0, 1e-2])
    def test_beta1_direction_equals_broadcast_at_coincident_particles(self, rng,
                                                                      threshold):
        # zero differences off the diagonal and exact zero coordinates
        P, S = self._cloud(rng, 8, 5)
        P[:3] = P[3]
        P[5, 1:3] = 0.0
        P[6, 1:3] = -0.0
        assert np.array_equal(_direction(P, S, 1, 1.5, threshold),
                              broadcast_stein_direction(P, S, 1, 1.5, threshold))

    @pytest.mark.parametrize("n,d", SHAPES)
    @pytest.mark.parametrize("threshold", [0.0, 1e-2])
    def test_beta1_direction_equals_broadcast(self, rng, n, d, threshold):
        P, S = self._cloud(rng, n, d)
        gamma = 0.3 * d
        assert np.array_equal(_direction(P, S, 1, gamma, threshold),
                              broadcast_stein_direction(P, S, 1, gamma, threshold))

    @pytest.mark.parametrize("n,d", SHAPES)
    @pytest.mark.parametrize("threshold", [0.0, 1e-2])
    def test_beta2_direction_matches_broadcast(self, rng, n, d, threshold):
        P, S = self._cloud(rng, n, d)
        # near-diagonal K at the smaller gammas; zero scores leave the
        # repulsion alone, where a kernel diagonal left in would show
        for gamma in (0.3 * d, 0.03 * d, 1e-3 * d):
            for scores in (S, np.zeros_like(S)):
                old = broadcast_stein_direction(P, scores, 2, gamma, threshold)
                new = _direction(P, scores, 2, gamma, threshold)
                assert np.abs(new - old).max() <= 1e-12 * np.abs(old).max()

    @pytest.mark.parametrize("beta", [1, 2])
    def test_band_coordinates_get_exactly_zero_repulsion(self, rng, beta):
        P = rng.normal(size=(9, 4))
        P[:, 1] = rng.uniform(-9e-3, 9e-3, size=9)   # every particle in the band
        g = _direction(P, np.zeros_like(P), beta, 0.7, 1e-2)
        assert np.all(g[:, 1] == 0.0)
        assert np.all(g[:, [0, 2, 3]] != 0.0)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), beta=st.sampled_from([1, 2]),
           n=st.integers(1, 8), d=st.integers(1, 5))
    def test_permuting_particles_permutes_the_direction(self, data, beta, n, d):
        P = data.draw(arrays(float, (n, d), elements=st.floats(-3.0, 3.0)))
        S = data.draw(arrays(float, (n, d), elements=st.floats(-3.0, 3.0)))
        perm = np.array(data.draw(st.permutations(range(n))), dtype=int)
        g = _direction(P, S, beta, 0.8, 1e-2)
        gp = _direction(P[perm], S[perm], beta, 0.8, 1e-2)
        assert gp == pytest.approx(g[perm], rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("call", ["stein_b1", "stein_b2", "distance"])
    def test_peak_memory_bounded_at_wide_particles(self, rng, call):
        # the broadcast formulas peak at 975 MiB (Stein) and 312 MiB (distances)
        P = rng.standard_normal((200, 1020))
        if call == "distance":
            def run():
                distance_matrix(P)
        else:
            S = np.zeros_like(P)

            def run():
                _direction(P, S, int(call[-1]), 1020.0, 1e-2)
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


def _check_square_sums(P):
    """``pairwise_square_sums`` against the broadcast sums, the matrix whole,
    and the sorted pairs against the sorted upper triangle of both: the median
    and the kernel read the same sums.  Returns the pairs."""
    pairs, all_sq = pairwise_square_sums(P)
    expect = broadcast_power_sum(P, 2)
    assert np.array_equal(all_sq, expect)
    upper = np.triu_indices(len(P), 1)
    assert np.array_equal(np.sort(pairs), np.sort(expect[upper]))
    assert np.array_equal(np.sort(pairs), np.sort(all_sq[upper]))
    return pairs


def _sequential_sum(values):
    total = 0.0
    for v in values:
        total += v
    return total


class TestNarrowRows:
    """Rows narrower than PAIRWISE_SUM_MIN add coordinate planes from the
    left; they must equal the broadcast sums along the rows bit for bit."""

    def test_threshold_is_where_numpy_stops_summing_from_the_left(self):
        # 1 then tiny values: from the left each tiny one rounds away against
        # the 1; the pairwise order adds tiny ones together first
        for d in (PAIRWISE_SUM_MIN - 1, PAIRWISE_SUM_MIN):
            x = np.array([1.0] + [1e-16] * (d - 1))
            row_major = np.tile(x, (3, 4, 1)).sum(axis=-1)
            assert np.all(row_major == _sequential_sum(x)) == (d < PAIRWISE_SUM_MIN)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 40),
           d=st.integers(0, PAIRWISE_SUM_MIN - 1))
    def test_sums_equal_broadcast_bit_for_bit(self, data, n, d):
        P = data.draw(arrays(float, (n, d), elements=st.floats(-1e6, 1e6)))
        _check_square_sums(P)

    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_square_sums_over_several_blocks(self, rng, d):
        # 1100 rows of 3, 2 and 1 coordinates come in planes of 79, 119 and
        # 238 rows, the last block short; rows of none take one block
        P = rng.normal(size=(1100, 3)) * rng.lognormal(0.0, 3.0, size=(1100, 3))
        assert BLOCK_ELEMENTS // (1100 * 3) == 79 and 1100 % 79 == 73
        _check_square_sums(np.ascontiguousarray(P[:, :d]))

    @pytest.mark.parametrize("call", ["square_sums_all", "square_sums_out"])
    def test_peak_memory_is_the_output_plus_a_few_blocks(self, rng, call):
        # an (N, N, D) difference tensor would take 96 MB on its own
        n, d = 2000, 3
        P = rng.standard_normal((n, d))
        if call == "square_sums_out":
            # a recycled output: no new (n, n) memory, only the packed pairs
            out_bytes = n * (n - 1) // 2 * 8
            out = np.empty((n, n))

            def run():
                pairwise_square_sums(P, out=out)
        else:
            # one (n, n) matrix and the packed pairs
            out_bytes = n * n * 8 + n * (n - 1) // 2 * 8

            def run():
                pairwise_square_sums(P)
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # blocks: the coordinate-major copies and one plane
        assert peak <= out_bytes + 5 * BLOCK_ELEMENTS * 8
