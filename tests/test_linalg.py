import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sminlab.linalg as la
from sminlab.errors import InvalidInputError
from sminlab.suites import invert_by_elimination

RNG = np.random.default_rng(20260810)


def gram_schmidt_distance(x, rows):
    """Modified Gram-Schmidt oracle with re-orthogonalization.

    Deliberately avoids SVD/QR so it shares no code path with the
    implementation under test.
    """
    basis = []
    for r in rows:
        v = np.array(r, dtype=float)
        for _ in range(2):
            for b in basis:
                v -= (b @ v) * b
        norm = np.linalg.norm(v)
        if norm > 1e-10 * max(np.linalg.norm(r), 1.0):
            basis.append(v / norm)
    v = np.array(x, dtype=float)
    for _ in range(2):
        for b in basis:
            v -= (b @ v) * b
    return float(np.linalg.norm(v))


class TestDistToSpan:
    def test_empty_span_is_norm(self):
        assert la.dist_to_span([3.0, 4.0], []) == pytest.approx(5.0)

    def test_orthogonal_axes(self):
        assert la.dist_to_span([1.0, 0.0], [[0.0, 1.0]]) == pytest.approx(1.0)

    def test_projection_on_third_axis(self):
        d = la.dist_to_span([1.0, 2.0, 2.0], [[0.0, 0.0, 1.0]])
        assert d == pytest.approx(math.sqrt(5.0), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            la.dist_to_span([1.0, 2.0], [[1.0, 2.0, 3.0]])

    def test_vector_in_span_is_zero(self):
        rows = RNG.standard_normal((3, 6))
        x = 0.3 * rows[0] - 1.7 * rows[2]
        assert la.dist_to_span(x, rows) == pytest.approx(0.0, abs=1e-9)

    def test_matches_gram_schmidt_oracle(self):
        for trial in range(25):
            rng = np.random.default_rng(trial)
            m, n = rng.integers(1, 6), rng.integers(3, 9)
            rows = rng.standard_normal((m, n))
            x = rng.standard_normal(n)
            assert la.dist_to_span(x, rows) == pytest.approx(
                gram_schmidt_distance(x, rows), rel=1e-8, abs=1e-10
            )

    @settings(max_examples=50, deadline=None)
    @given(c=st.floats(min_value=-100, max_value=100, allow_nan=False))
    def test_scaling_homogeneity(self, c):
        rows = np.array([[1.0, 2.0, 0.5], [0.0, -1.0, 3.0]])
        x = np.array([0.7, -0.2, 1.4])
        assert la.dist_to_span(c * x, rows) == pytest.approx(
            abs(c) * la.dist_to_span(x, rows), rel=1e-9, abs=1e-12
        )

    def test_appending_linear_combination_keeps_distance(self):
        rows = RNG.standard_normal((3, 7))
        x = RNG.standard_normal(7)
        combo = 2.0 * rows[0] - rows[1] + 0.25 * rows[2]
        augmented = np.vstack([rows, combo])
        assert la.dist_to_span(x, augmented) == pytest.approx(
            la.dist_to_span(x, rows), rel=1e-9
        )


class TestRowDistances:
    def test_identity(self):
        np.testing.assert_allclose(la.row_distances(np.eye(3)), np.ones(3))

    def test_diagonal(self):
        np.testing.assert_allclose(la.row_distances(np.diag([2.0, 3.0, 4.0])), [2, 3, 4])

    def test_matches_inverse_column_norms(self):
        # duality with the explicit inverse from an independent elimination routine
        B = np.random.default_rng(7).standard_normal((5, 5))
        inv = invert_by_elimination(B)
        expected = 1.0 / np.linalg.norm(inv, axis=0)
        np.testing.assert_allclose(la.row_distances(B), expected, rtol=1e-8)

    def test_singular_matrix_has_zero_entries(self):
        B = RNG.standard_normal((4, 4))
        B[2] = B[0]
        d = la.row_distances(B)
        assert d[0] == pytest.approx(0.0, abs=1e-9)
        assert d[2] == pytest.approx(0.0, abs=1e-9)
        assert d[1] > 0.1 or d[1] >= 0  # other rows unaffected in general

    def test_agrees_with_primitive_on_singular_input(self):
        B = RNG.standard_normal((6, 6))
        B[3] = B[1]
        B[5] = 0.0
        idx = np.arange(6)
        ref = [la.dist_to_span(B[i], B[idx != i]) for i in range(6)]
        np.testing.assert_allclose(la.row_distances(B), ref, atol=1e-10)

    def test_one_by_one(self):
        np.testing.assert_allclose(la.row_distances([[-2.5]]), [2.5])

    def test_rejects_non_square(self):
        with pytest.raises(InvalidInputError):
            la.row_distances(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            la.row_distances([[1.0, np.nan], [0.0, 1.0]])


def svd_profile(B):
    """Per-row oracle: the SVD primitive applied to each row in turn."""
    B = np.asarray(B, dtype=float)
    idx = np.arange(B.shape[0])
    return np.array([la.dist_to_span(B[i], B[idx != i]) for i in range(B.shape[0])])


@contextmanager
def counting_fallback():
    """Collect one entry per SVD-primitive call made by ``row_distances``."""
    calls = []
    primitive = la.dist_to_span

    def counting(x, rows):
        calls.append(1)
        return primitive(x, rows)

    la.dist_to_span = counting
    try:
        yield calls
    finally:
        la.dist_to_span = primitive


def near_singular(delta, n=5):
    """Identity whose last row is ``e_0 + delta e_{n-1}``: the smallest
    diagonal entry of ``R`` in ``B.T = QR`` is ``delta``, and the exact
    distances are ``delta / sqrt(1 + delta^2)``, 1, ..., 1, ``delta``."""
    B = np.eye(n)
    B[-1, 0] = 1.0
    B[-1, -1] = delta
    exact = np.ones(n)
    exact[0] = delta / math.sqrt(1.0 + delta**2)
    exact[-1] = delta
    return B, exact


class TestRowDistancesOracle:
    """The QR + triangular-inverse kernel against the per-row SVD primitive."""

    @pytest.mark.parametrize("n", [2, 3, 7, 30])
    def test_generic_matrices_take_the_triangular_path(self, n):
        B = np.random.default_rng(300 + n).standard_normal((n, n))
        with counting_fallback() as calls:
            d = la.row_distances(B)
        assert not calls
        np.testing.assert_allclose(d, svd_profile(B), rtol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=2, max_value=8),
        spread=st.floats(min_value=0.0, max_value=3.0),
    )
    def test_graded_row_scales(self, seed, n, spread):
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((n, n)) * np.logspace(-spread, spread, n)[:, None]
        np.testing.assert_allclose(la.row_distances(B), svd_profile(B), rtol=1e-7)

    def test_graded_rows_beyond_the_tolerance_fall_back(self):
        # norms 1e-6 .. 1e6: the smallest row is below RANK_RTOL * 1e6
        B = RNG.standard_normal((6, 6)) * np.logspace(-6, 6, 6)[:, None]
        with counting_fallback() as calls:
            d = la.row_distances(B)
        assert len(calls) == 6
        np.testing.assert_array_equal(d, svd_profile(B))

    def test_repeated_row(self):
        B = RNG.standard_normal((6, 6))
        B[4] = B[1]
        with counting_fallback() as calls:
            d = la.row_distances(B)
        assert len(calls) == 6
        np.testing.assert_array_equal(d, svd_profile(B))
        assert d[1] <= 1e-12 and d[4] <= 1e-12

    def test_rank_n_minus_two(self):
        rng = np.random.default_rng(5)
        B = rng.standard_normal((7, 5)) @ rng.standard_normal((5, 7))
        with counting_fallback() as calls:
            d = la.row_distances(B)
        assert len(calls) == 7
        np.testing.assert_array_equal(d, svd_profile(B))
        assert np.all(d <= 1e-10 * np.max(np.linalg.norm(B, axis=1)))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_small_sign_matrices(self, data):
        n = data.draw(st.integers(min_value=2, max_value=6))
        entries = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n * n, max_size=n * n))
        B = np.array(entries).reshape(n, n)
        with counting_fallback() as calls:
            d = la.row_distances(B)
        # a nonsingular integer matrix has |det| >= 1, so every |R_jj| is far
        # above the tolerance: the fallback runs exactly on the singular ones
        assert bool(calls) == (np.linalg.matrix_rank(B) < n)
        np.testing.assert_allclose(d, svd_profile(B), rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("factor", [1.001, 0.999])
    def test_near_singular_at_the_tolerance(self, factor):
        # max row norm is 1 to double precision, so the tolerance is RANK_RTOL
        B, exact = near_singular(factor * la.RANK_RTOL)
        with counting_fallback() as calls:
            d = la.row_distances(B)
        assert bool(calls) == (factor < 1.0)
        np.testing.assert_allclose(d, exact, rtol=1e-8)
        np.testing.assert_allclose(d, svd_profile(B), rtol=1e-8)

    def test_one_by_one_and_zero_matrix(self):
        with counting_fallback() as calls:
            np.testing.assert_array_equal(la.row_distances([[0.0]]), [0.0])
            np.testing.assert_array_equal(la.row_distances([[3.0]]), [3.0])
            np.testing.assert_array_equal(la.row_distances(np.zeros((4, 4))), np.zeros(4))
        assert not calls


class TestDistToComplement:
    def test_identity(self):
        assert la.dist_to_complement(np.eye(4), 0, {0, 1}) == pytest.approx(1.0)

    def test_diagonal(self):
        B = np.diag([1.5, 2.5, 3.5, 4.5])
        assert la.dist_to_complement(B, 1, {1, 2}) == pytest.approx(2.5)

    def test_requires_membership(self):
        with pytest.raises(InvalidInputError):
            la.dist_to_complement(np.eye(4), 0, {1, 2})

    def test_matches_gram_schmidt_oracle(self):
        B = np.random.default_rng(11).standard_normal((6, 6))
        for S in ({0, 2, 4}, {1, 3, 5}, {0, 1, 2}):
            keep = [j for j in range(6) if j not in S]
            for i in S:
                assert la.dist_to_complement(B, i, S) == pytest.approx(
                    gram_schmidt_distance(B[i], B[keep]), rel=1e-8
                )

    def test_singleton_equals_row_distance(self):
        B = RNG.standard_normal((5, 5))
        d = la.row_distances(B)
        for i in range(5):
            assert la.dist_to_complement(B, i, {i}) == pytest.approx(d[i], rel=1e-9)

    def test_monotone_in_subset(self):
        B = RNG.standard_normal((7, 7))
        for i in range(7):
            chain = [{i}, {i, (i + 1) % 7}, {i, (i + 1) % 7, (i + 3) % 7}]
            dists = [la.dist_to_complement(B, i, S) for S in chain]
            assert dists[0] <= dists[1] + 1e-12
            assert dists[1] <= dists[2] + 1e-12


class TestSingularData:
    def test_identity(self):
        sd = la.singular_data(np.eye(7))
        assert sd.s_min == pytest.approx(1.0)
        assert sd.s_max == pytest.approx(1.0)
        assert sd.hs_inverse == pytest.approx(math.sqrt(7))

    def test_diagonal(self):
        sd = la.singular_data(np.diag([3.0, 0.5]))
        assert sd.s_min == pytest.approx(0.5)
        assert sd.s_max == pytest.approx(3.0)
        assert sd.hs_inverse == pytest.approx(math.sqrt(1.0 / 9.0 + 4.0), rel=1e-12)

    def test_shear(self):
        # eigenvalues of [[1,1],[1,2]] are (3 +/- sqrt 5)/2
        sd = la.singular_data(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert sd.s_min == pytest.approx(math.sqrt((3 - math.sqrt(5)) / 2), rel=1e-12)
        assert sd.s_max == pytest.approx(math.sqrt((3 + math.sqrt(5)) / 2), rel=1e-12)

    def test_singular_encoding(self):
        B = np.ones((3, 3))
        sd = la.singular_data(B)
        assert sd.s_min == 0.0
        assert sd.hs_inverse == math.inf

    def test_zero_matrix(self):
        sd = la.singular_data(np.zeros((2, 2)))
        assert sd.s_min == 0.0 and sd.s_max == 0.0
        assert sd.hs_inverse == math.inf
        np.testing.assert_allclose(sd.row_distances, 0.0)

    def test_scaling_identity(self):
        B = RNG.standard_normal((6, 6))
        for c in (0.5, 3.0):
            assert la.singular_data(c * B).s_min == pytest.approx(
                c * la.singular_data(B).s_min, rel=1e-10
            )


class TestInvariants:
    @pytest.mark.parametrize("n", [2, 5, 12, 25])
    def test_biorthogonality(self, n):
        B = np.random.default_rng(n).standard_normal((n, n))
        inv = invert_by_elimination(B)
        products = np.linalg.norm(inv, axis=0) * la.row_distances(B)
        np.testing.assert_allclose(products, 1.0, rtol=1e-8)

    @pytest.mark.parametrize("n", [3, 8, 20])
    def test_hs_identity_and_ordering(self, n):
        B = np.random.default_rng(100 + n).standard_normal((n, n))
        sd = la.singular_data(B)
        assert sd.hs_inverse**2 == pytest.approx(
            float(np.sum(sd.row_distances**-2.0)), rel=1e-8
        )
        assert sd.hs_inverse >= 1.0 / sd.s_min - 1e-12
        assert 1.0 / sd.s_min >= 1.0 / sd.s_max

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(17)
        B = rng.standard_normal((6, 6))
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        BQ = B @ Q
        np.testing.assert_allclose(la.row_distances(BQ), la.row_distances(B), rtol=1e-8)
        a, b = la.singular_data(B), la.singular_data(BQ)
        assert b.s_min == pytest.approx(a.s_min, rel=1e-8)
        assert b.s_max == pytest.approx(a.s_max, rel=1e-8)
        assert b.hs_inverse == pytest.approx(a.hs_inverse, rel=1e-8)
