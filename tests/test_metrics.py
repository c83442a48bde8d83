import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from csvgd.errors import DomainError, ShapeError
from csvgd.metrics import (GaussianSummary, PushforwardReference, _quantile_grid,
                           bhattacharyya, moving_average, pushforward_w1,
                           sparsity_l1, wasserstein1_sorted)
from csvgd.network import PASS_ELEMENTS

from _oracles import (w1_dense_grid, w1_merged_cdf_batch, w1_sorted_one_product,
                      wasserstein1_batch)

SRC = Path(__file__).resolve().parents[1] / "src"


class TestBhattacharyya:
    def test_identical_is_zero(self, rng):
        m = rng.normal(size=3)
        c = np.eye(3) * rng.uniform(0.5, 2.0)
        g = GaussianSummary(m, c)
        assert bhattacharyya(g, g) == pytest.approx(0.0, abs=1e-9)

    def test_unit_mean_shift(self):
        g1 = GaussianSummary([0.0], [[1.0]])
        g2 = GaussianSummary([1.0], [[1.0]])
        assert bhattacharyya(g1, g2) == pytest.approx(0.125, rel=1e-6)

    def test_variance_mismatch(self):
        g1 = GaussianSummary([0.0], [[1.0]])
        g2 = GaussianSummary([0.0], [[4.0]])
        assert bhattacharyya(g1, g2) == pytest.approx(0.5 * np.log(2.5 / 2.0), rel=1e-6)

    def test_symmetry(self, rng):
        for _ in range(5):
            A = rng.normal(size=(4, 2))
            B = rng.normal(size=(6, 2))
            g1 = GaussianSummary.from_samples(A)
            g2 = GaussianSummary.from_samples(B)
            assert bhattacharyya(g1, g2) == pytest.approx(bhattacharyya(g2, g1),
                                                          rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            bhattacharyya(GaussianSummary([0.0], [[1.0]]),
                          GaussianSummary([0.0, 0.0], np.eye(2)))

    def test_sample_covariance_uses_n_minus_one(self):
        S = np.array([[0.0], [2.0]])
        g = GaussianSummary.from_samples(S)
        assert g.cov[0, 0] == pytest.approx(2.0)

    @pytest.mark.parametrize("samples", [np.arange(5.0), 3.0, np.zeros((2, 2, 2))],
                             ids=["1d", "scalar", "3d"])
    def test_samples_that_are_not_rows_are_named(self, samples):
        # a 1-D array used to end in "covariance must be symmetric", from a
        # NaN covariance of one sample
        with pytest.raises(ShapeError, match=r"is not sample rows \(n, dim\)"):
            GaussianSummary.from_samples(samples)


def wasserstein1(a, b):
    """W1 of two samples, each flattened."""
    return float(wasserstein1_batch(np.ravel(a), np.ravel(b)))


class TestWasserstein1:
    def test_identical_samples(self, rng):
        a = rng.normal(size=40)
        assert wasserstein1(a, a.copy()) == pytest.approx(0.0, abs=1e-15)

    def test_point_masses(self):
        assert wasserstein1([0.0], [1.0]) == pytest.approx(1.0)

    def test_order_statistics_pairing(self):
        assert wasserstein1([0.0, 1.0], [0.0, 3.0]) == pytest.approx(1.0)

    def test_equal_size_formula(self, rng):
        a, b = rng.normal(size=(2, 25))
        expected = np.mean(np.abs(np.sort(a) - np.sort(b)))
        assert wasserstein1(a, b) == pytest.approx(expected, rel=1e-12)

    def test_positive_homogeneity(self, rng):
        a = rng.normal(size=15)
        b = rng.normal(size=9)
        assert wasserstein1(2.0 * a, 2.0 * b) == pytest.approx(2.0 * wasserstein1(a, b),
                                                               rel=1e-12)

    def test_triangle_inequality(self, rng):
        for _ in range(20):
            a = rng.normal(size=12)
            b = rng.normal(size=7) + rng.uniform(-1, 1)
            c = rng.normal(size=9) * rng.uniform(0.5, 2)
            ab, bc, ac = wasserstein1(a, b), wasserstein1(b, c), wasserstein1(a, c)
            assert ac <= ab + bc + 1e-12

    def test_against_dense_grid_oracle(self, rng):
        for _ in range(5):
            a = rng.normal(size=18)
            b = rng.normal(size=11) + 1.5
            got = wasserstein1(a, b)
            oracle = w1_dense_grid(a, b)
            assert got == pytest.approx(oracle, rel=1e-4)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            wasserstein1([], [1.0])

    def test_batch_matches_scalar(self, rng):
        A = rng.normal(size=(4, 3, 10))
        B = rng.normal(size=(4, 3, 6))
        W = wasserstein1_batch(A, B)
        for i in range(4):
            for j in range(3):
                assert W[i, j] == pytest.approx(wasserstein1(A[i, j], B[i, j]),
                                                rel=1e-12)


def assert_matches_merged_cdf(A, B):
    """Agreement with the merged-CDF oracle within rtol 1e-12, and exactly 0
    wherever the oracle is 0."""
    got, want = wasserstein1_batch(A, B), w1_merged_cdf_batch(A, B)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got[want == 0.0], 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


# Small pools of repeated values force ties within and across the samples.
TIE_POOL = [-0.0, 0.0, 0.5, -1.5, 2.0, 1e-300, -7.25]


@st.composite
def w1_pairs(draw, values=st.one_of(st.sampled_from(TIE_POOL),
                                    st.floats(-1e3, 1e3))):
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    n, m = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    return (draw(arrays(float, lead + (n,), elements=values)),
            draw(arrays(float, lead + (m,), elements=values)))


def stays_normal(A, B, scale):
    """Whether every nonzero sample and every nonzero gap between a sample of
    A and one of B in the same row, divided by the largest cell count n m,
    is a normal number before and after multiplying by ``scale``.  Then so
    is every gap, weighted gap, partial sum and W1 value the quantile form
    computes, and a power-of-two scale changes none of their roundings."""
    gaps = np.abs(A[..., :, None] - B[..., None, :])
    values = np.concatenate([np.abs(A).ravel(), np.abs(B).ravel(), gaps.ravel()])
    values = values[values != 0.0] * min(1.0, scale) / (A.shape[-1] * B.shape[-1])
    return bool(np.all(values >= np.finfo(float).tiny))


class TestW1QuantileForm:
    """`wasserstein1_batch` against the merged-CDF form it replaced."""

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 7), (7, 1), (3, 6), (5, 10),
                                     (4, 6), (10, 100), (7, 11)])
    def test_random_rows_3d(self, rng, n, m):
        assert_matches_merged_cdf(rng.normal(size=(4, 3, n)),
                                  rng.normal(size=(4, 3, m)) + 0.3)

    def test_ties_within_and_across(self):
        A = np.array([[1.0, 1.0, 2.0, 2.0], [0.0, 3.0, 3.0, 3.0],
                      [-1.0, -1.0, -1.0, -1.0]])
        B = np.array([[2.0, 1.0, 5.0], [3.0, 3.0, 0.0], [-1.0, 4.0, -1.0]])
        assert_matches_merged_cdf(A, B)
        assert_matches_merged_cdf(B, A)

    def test_signed_zeros_are_equal_samples(self):
        A = np.array([[-0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        B = np.array([[0.0, -0.0, 1.0], [-0.0, -0.0, -0.0]])
        assert_matches_merged_cdf(A, B)
        np.testing.assert_array_equal(wasserstein1_batch(A, B), 0.0)

    def test_equal_laws_with_divisible_counts_are_exactly_zero(self, rng):
        # n | m: B repeats each of A's values m / n times, so the laws agree
        A = rng.normal(size=(5, 4))
        B = np.repeat(A, 3, axis=-1)[:, rng.permutation(12)]
        assert_matches_merged_cdf(A, B)
        np.testing.assert_array_equal(wasserstein1_batch(A, B), 0.0)

    def test_subnormal_gaps_do_not_round_to_zero(self):
        # gaps of one or two 5e-324 units over half-width cells: a gap times
        # a fractional width underflows to 0 for two different laws
        assert wasserstein1([-0.0], [5e-324, 5e-324]) == 5e-324
        assert wasserstein1([5e-324], [-0.0, 1e-323]) == 5e-324
        assert_matches_merged_cdf(np.array([5e-324]), np.array([-0.0, 1e-323]))

    @settings(max_examples=300, deadline=None)
    @given(pair=w1_pairs())
    def test_matches_merged_cdf(self, pair):
        assert_matches_merged_cdf(*pair)


class TestW1Properties:
    @settings(max_examples=200, deadline=None)
    @given(pair=w1_pairs())
    def test_exact_symmetry(self, pair):
        A, B = pair
        np.testing.assert_array_equal(wasserstein1_batch(A, B),
                                      wasserstein1_batch(B, A))

    @settings(max_examples=200, deadline=None)
    @given(pair=w1_pairs(), seed=st.integers(0, 2**32 - 1))
    def test_exact_permutation_invariance(self, pair, seed):
        A, B = pair
        rng = np.random.default_rng(seed)
        shuffled = rng.permuted(A, axis=-1), rng.permuted(B, axis=-1)
        np.testing.assert_array_equal(wasserstein1_batch(*shuffled),
                                      wasserstein1_batch(A, B))

    @settings(max_examples=200, deadline=None)
    @given(pair=w1_pairs(), k=st.integers(-8, 8), c=st.floats(1e-3, 1e3))
    @example(pair=(np.array([5e-324, -0.0]), np.array([-0.0])), k=0, c=2.0)
    def test_positive_homogeneity(self, pair, k, c):
        A, B = pair
        w = wasserstein1_batch(A, B)
        # a power of two scales every sample and gap exactly while they stay
        # normal numbers; below the normal range 2**k * x itself rounds
        if stays_normal(A, B, 2.0**k):
            np.testing.assert_array_equal(wasserstein1_batch(2.0**k * A, 2.0**k * B),
                                          2.0**k * w)
        # otherwise rounding c * x moves each gap by up to eps * c * |x|, and
        # below the normal range by up to one subnormal step s whatever c is:
        # half a step for each of the two scaled samples of a gap, half for
        # rounding each W1 value into the subnormals, times c for w's own
        scale = c * max(np.abs(A).max(), np.abs(B).max())
        step = np.nextafter(0.0, 1.0)
        np.testing.assert_allclose(wasserstein1_batch(c * A, c * B), c * w, rtol=1e-12,
                                   atol=4e-16 * scale + (c + 2.0) * step)

    @settings(max_examples=200, deadline=None)
    @given(pair=w1_pairs(), data=st.data())
    def test_nan_sample_spoils_only_its_row(self, pair, data):
        A, B = pair
        rows_a, rows_b = A.reshape(-1, A.shape[-1]), B.reshape(-1, B.shape[-1])
        row = data.draw(st.integers(0, len(rows_a) - 1))
        side = data.draw(st.sampled_from(["a", "b"]))
        target = rows_a if side == "a" else rows_b
        spoiled = target.copy()
        spoiled[row, data.draw(st.integers(0, target.shape[1] - 1))] = np.nan
        args = (spoiled, rows_b) if side == "a" else (rows_a, spoiled)
        got, clean = wasserstein1_batch(*args), wasserstein1_batch(rows_a, rows_b)
        assert np.isnan(got[row])
        keep = np.arange(len(got)) != row
        np.testing.assert_array_equal(got[keep], clean[keep])


class TestQuantileGrid:
    def test_grid_is_the_union_of_both_grids(self):
        for n in range(1, 41):
            for m in range(1, 41):
                expected = np.union1d(np.arange(n + 1) * m, np.arange(m + 1) * n)
                np.testing.assert_array_equal(_quantile_grid(n, m), expected)

    def test_w1_does_not_import_numpy_ma(self):
        # numpy.ma costs ~14 ms to import, inside a run's first logged W1
        code = ("import sys, numpy as np\n"
                "from csvgd.metrics import wasserstein1_sorted\n"
                "wasserstein1_sorted(np.ones((2, 5)), np.zeros((2, 7)))\n"
                "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestW1EmptySamples:
    @pytest.mark.parametrize("shape_a,shape_b", [((3, 0), (3, 4)), ((3, 4), (3, 0)),
                                                 ((2, 0), (2, 0))])
    def test_batch_rejects_empty_sample_axis(self, shape_a, shape_b):
        with pytest.raises(ShapeError):
            wasserstein1_sorted(np.zeros(shape_a), np.zeros(shape_b))

    def test_pushforward_rejects_zero_model_samples(self, rng):
        with pytest.raises(ShapeError):
            pushforward_w1(np.zeros((5, 6, 0)),
                           PushforwardReference(np.sort(rng.normal(size=(5, 6, 10)))))

    @pytest.mark.parametrize("shape", [(5, 6, 0), (5, 6), (6, 10)])
    def test_reference_rejects_a_shape_that_is_no_cloud(self, shape):
        with pytest.raises(ShapeError, match="reference_samples"):
            PushforwardReference(np.zeros(shape))

    def test_scalar_samples_rejected(self):
        with pytest.raises(ShapeError):
            wasserstein1_sorted(1.0, [1.0, 2.0])


class TestPushforward:
    def test_identical_clouds_zero(self, rng):
        M = np.sort(rng.normal(size=(5, 2, 8)), axis=-1)
        per_point, total = pushforward_w1(M, PushforwardReference(M))
        assert np.all(per_point == pytest.approx(0.0, abs=1e-15))
        assert total == pytest.approx(0.0, abs=1e-14)

    def test_scaling(self, rng):
        M = np.sort(rng.normal(size=(4, 3, 6)), axis=-1)
        R = np.sort(rng.normal(size=(4, 3, 9)), axis=-1)
        _, t1 = pushforward_w1(M, PushforwardReference(R))
        _, t2 = pushforward_w1(2.0 * M, PushforwardReference(2.0 * R))
        assert t2 == pytest.approx(2.0 * t1, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            pushforward_w1(np.zeros((4, 3, 6)), PushforwardReference(np.zeros((4, 2, 6))))

    def test_a_bare_reference_array_is_refused(self):
        # the reference is checked once, when a PushforwardReference is made
        with pytest.raises(TypeError, match="PushforwardReference"):
            pushforward_w1(np.zeros((2, 3, 5)), np.zeros((2, 3, 4)))

    def test_unsorted_reference_rejected_by_name(self):
        R = np.zeros((2, 3, 4))
        R[1, 2, 1] = -1.0                  # one descent in one row
        with pytest.raises(DomainError, match="reference_samples"):
            PushforwardReference(R)

    def test_reference_holds_its_samples_read_only_without_a_copy(self, rng):
        R = np.sort(rng.normal(size=(3, 2, 5)), axis=-1)
        ref = PushforwardReference(R)
        assert np.shares_memory(ref.samples, R) and R.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            ref.samples[0, 0, 0] = 1.0
        np.testing.assert_array_equal(ref.samples, R)

    def test_unsorted_model_rejected_by_name(self):
        M = np.zeros((2, 3, 5))
        M[0, 1, 3] = -1.0                  # one descent in one row
        with pytest.raises(DomainError, match="model_samples"):
            pushforward_w1(M, PushforwardReference(np.zeros((2, 3, 4))))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), points=st.integers(1, 3), comps=st.integers(1, 3),
           n=st.integers(1, 9), m=st.integers(1, 9))
    def test_sorted_reference_equals_batch_w1_bit_for_bit(self, data, points, comps,
                                                          n, m):
        values = st.one_of(st.sampled_from(TIE_POOL), st.floats(-1e3, 1e3))
        M = data.draw(arrays(float, (points, comps, n), elements=values))
        R = data.draw(arrays(float, (points, comps, m), elements=values))
        per_point, total = pushforward_w1(np.sort(M, axis=-1),
                                          PushforwardReference(np.sort(R, axis=-1)))
        want = wasserstein1_batch(M, R).mean(axis=-1)
        np.testing.assert_array_equal(per_point, want)
        assert total == float(want.sum())


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


# ties, signed zeros, and gaps of one or two subnormal steps
BITS_POOL = np.array([-0.0, 0.0, 0.5, -1.5, 2.0, -7.25, 5e-324, -5e-324, 1e-323,
                      np.finfo(float).tiny])


def sample_cloud(rng, shape, nan_rows):
    """Normal draws, about half of them replaced by BITS_POOL values, with one
    NaN sample in each of ``nan_rows`` rows."""
    x = rng.standard_normal(shape)
    pick = rng.random(shape) < 0.5
    x[pick] = rng.choice(BITS_POOL, size=int(pick.sum()))
    rows = x.reshape(-1, shape[-1])
    for r in rng.choice(len(rows), size=min(nan_rows, len(rows)), replace=False):
        rows[r, rng.integers(shape[-1])] = np.nan
    return x


def assert_blocks_match_one_product(A, B):
    """`wasserstein1_batch` and, for 3-D clouds, `pushforward_w1` give the
    one-product gap sum's bits."""
    want = w1_sorted_one_product(np.sort(A, axis=-1), np.sort(B, axis=-1))
    assert_same_bits(wasserstein1_batch(A, B), want)
    if A.ndim == 3:
        per_point, total = pushforward_w1(np.sort(A, axis=-1),
                                          PushforwardReference(np.sort(B, axis=-1)))
        assert_same_bits(per_point, want.mean(axis=-1))
        assert_same_bits(total, float(want.mean(axis=-1).sum()))


class TestW1PointBlocks:
    """Clouds with two or more lead axes are walked in blocks of points; the
    gaps must keep the one-product form's bits, NaN rows included."""

    @settings(max_examples=60, deadline=None)
    @given(rows=st.sampled_from([1, 2, 6]), n=st.integers(1, 12), m=st.integers(1, 12),
           blocks=st.integers(1, 2), offset=st.integers(-1, 1),
           nan_rows=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
    def test_point_counts_at_the_block_edges(self, rows, n, m, blocks, offset,
                                             nan_rows, seed):
        cells = len(_quantile_grid(n, m)) - 1
        per_block = max(2, PASS_ELEMENTS // (cells * rows))
        points = max(1, blocks * per_block + offset)
        rng = np.random.default_rng(seed)
        assert_blocks_match_one_product(sample_cloud(rng, (points, rows, n), nan_rows),
                                        sample_cloud(rng, (points, rows, m), nan_rows))

    @settings(max_examples=12, deadline=None)
    @given(rows=st.sampled_from([1, 2, 6]), points=st.integers(1, 5),
           extra=st.integers(1, 50), counts=st.sampled_from(["1m", "n1", "nn", "n(n+1)"]),
           seed=st.integers(0, 2**32 - 1))
    def test_points_that_fill_a_block_alone(self, rows, points, extra, counts, seed):
        # one point's gaps take over half a block: a lone point's gaps are
        # contiguous and round differently, so blocks hold two points at least
        big = PASS_ELEMENTS // (2 * rows) + extra
        n, m = {"1m": (1, big), "n1": (big, 1), "nn": (big, big),
                "n(n+1)": (big, big + 1)}[counts]
        rng = np.random.default_rng(seed)
        assert_blocks_match_one_product(sample_cloud(rng, (points, rows, n), 1),
                                        sample_cloud(rng, (points, rows, m), 1))

    @settings(max_examples=40, deadline=None)
    @given(rows=st.one_of(st.none(), st.integers(1, 20), st.integers(1001, 1500)),
           n=st.integers(1, 12), m=st.integers(1, 110), nan_rows=st.integers(0, 2),
           seed=st.integers(0, 2**32 - 1))
    def test_one_and_two_dimensional_inputs(self, rows, n, m, nan_rows, seed):
        # one gemv over all rows: blocking the rows changes its row count,
        # which moved the last bit of 2-356 rows per call at 1001 rows and up
        lead = () if rows is None else (rows,)
        rng = np.random.default_rng(seed)
        assert_blocks_match_one_product(sample_cloud(rng, lead + (n,), nan_rows),
                                        sample_cloud(rng, lead + (m,), nan_rows))

    @pytest.mark.parametrize("shape", [(0, 6), (4, 0), (3, 4, 5), (2, 0, 3)])
    def test_empty_and_deeper_lead_shapes(self, rng, shape):
        A = np.sort(rng.standard_normal(shape + (7,)), axis=-1)
        B = np.sort(rng.standard_normal(shape + (10,)), axis=-1)
        assert_same_bits(wasserstein1_batch(A, B), w1_sorted_one_product(A, B))

    def test_pushforward_peak_memory_bounded(self, rng):
        # the whole-cloud grid gathers peaked at 24.9 MiB
        M = np.sort(rng.standard_normal((1001, 6, 64)), axis=-1)
        R = PushforwardReference(np.sort(rng.standard_normal((1001, 6, 100)), axis=-1))
        tracemalloc.start()
        try:
            pushforward_w1(M, R)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestSparsity:
    def test_zero_coordinate(self):
        P = np.array([[0.0, 1.0], [0.0, -2.0]])
        assert sparsity_l1(P, [0]) == 0.0

    def test_mean_absolute(self):
        P = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -3.0]])
        assert sparsity_l1(P, [2]) == pytest.approx(2.0)

    def test_sign_invariance(self, rng):
        P = rng.normal(size=(6, 4))
        flips = rng.choice([-1.0, 1.0], size=4)
        assert sparsity_l1(P * flips, [1, 3]) == pytest.approx(sparsity_l1(P, [1, 3]))

    def test_bad_index(self, rng):
        with pytest.raises(ShapeError):
            sparsity_l1(rng.normal(size=(3, 2)), [5])


class TestMovingAverage:
    def test_constant_unchanged(self):
        x = np.full(20, 3.7)
        assert moving_average(x, 11) == pytest.approx(x)

    def test_window_one_is_identity(self, rng):
        x = rng.normal(size=9)
        assert moving_average(x, 1) == pytest.approx(x)

    def test_interior_value(self):
        x = np.arange(30.0)
        assert moving_average(x, 11)[15] == pytest.approx(15.0)

    @pytest.mark.parametrize("window", [1, 3, 11])
    def test_each_window_summed_on_its_own(self, rng, window):
        # small values after large ones: a running total's rounding would
        # swamp them (it read 9.9945e-4 for 1e-3)
        x = np.concatenate([np.full(500, 1e8), np.full(20, 1e-3),
                            rng.lognormal(0.0, 6.0, size=200)])
        got = moving_average(x, window)
        half = window // 2
        for i, value in enumerate(got):
            w = x[max(i - half, 0):i + half + 1]
            exact = math.fsum(w) / len(w)
            assert abs(value - exact) <= 1e-15 * abs(exact)

    @pytest.mark.parametrize("window", [0, 2, 4])
    def test_even_or_empty_window_rejected(self, window):
        with pytest.raises(DomainError):
            moving_average(np.arange(9.0), window)
