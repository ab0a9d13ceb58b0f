import itertools
import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sminlab.linalg as la
from sminlab.errors import InvalidInputError
from sminlab.samplers import RowDistribution, SeedSpec, sample_matrix
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
    """Collect one entry per SVD made by ``row_distances``: one per row on
    the SVD path, where the rows outside it are not all zero."""
    calls = []
    primitive = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return primitive(*args, **kwargs)

    np.linalg.svd = counting
    try:
        yield calls
    finally:
        np.linalg.svd = primitive


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


def near_tolerance(B, factor):
    """``diag(1, ..., 1, delta) Q`` with ``Q`` the orthogonal factor of
    ``B``: every row norm is 1 up to ``delta``, and the singular values are
    those of the diagonal, the smallest ``delta = factor * RANK_RTOL``."""
    d = np.ones(B.shape[0])
    d[-1] = factor * la.RANK_RTOL
    return d[:, None] * np.linalg.qr(B)[0]


# scales whose squares overflow or underflow a double
EXTREME_SCALES = (1e200, 1e-200, 2.0**600, 2.0**-600)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestExtremeScales:
    B = np.random.default_rng(20).standard_normal((20, 20))

    @pytest.mark.parametrize("c", EXTREME_SCALES)
    def test_row_distances_are_homogeneous(self, c):
        np.testing.assert_allclose(
            la.row_distances(c * self.B), c * la.row_distances(self.B), rtol=1e-12
        )

    @pytest.mark.parametrize("c", EXTREME_SCALES)
    def test_fallback_is_homogeneous(self, c):
        B = self.B.copy()
        B[3] = B[7]
        scale = float(np.max(np.linalg.norm(B, axis=1)))
        with counting_fallback() as calls:
            d = la.row_distances(c * B)
        assert calls
        np.testing.assert_allclose(d / c, la.row_distances(B), rtol=1e-12, atol=1e-12 * scale)

    @pytest.mark.parametrize("c", EXTREME_SCALES)
    def test_dist_to_span_is_homogeneous(self, c):
        x, rows = self.B[0], self.B[1:12]
        expected = la.dist_to_span(x, rows)
        assert la.dist_to_span(c * x, c * rows) == pytest.approx(c * expected, rel=1e-12, abs=0)
        assert la.dist_to_span(c * x, rows) == pytest.approx(c * expected, rel=1e-12, abs=0)
        assert la.dist_to_span(c * x, []) == pytest.approx(
            c * np.linalg.norm(x), rel=1e-12, abs=0
        )

    @pytest.mark.parametrize("c", EXTREME_SCALES)
    def test_rank_tolerance_is_homogeneous(self, c):
        for factor in (0.99, 1.01):
            assert (la._extremes(c * near_tolerance(self.B, factor))[0] == 0.0) == (factor < 1.0)
        assert la.span_basis(c * self.B[:5]).shape == (5, 20)

    @pytest.mark.parametrize("c", EXTREME_SCALES)
    def test_hs_inverse_is_homogeneous(self, c):
        assert la.hs_inverse(c * self.B) == pytest.approx(
            la.hs_inverse(self.B) / c, rel=1e-12, abs=0.0
        )

    @pytest.mark.parametrize("c", EXTREME_SCALES)
    def test_extremes_are_homogeneous(self, c):
        s_min, s_max, hs = la._extremes(c * self.B)
        ref_min, ref_max, ref_hs = la._extremes(self.B)
        assert s_min == pytest.approx(c * ref_min, rel=1e-12, abs=0.0)
        assert s_max == pytest.approx(c * ref_max, rel=1e-12, abs=0.0)
        assert hs == pytest.approx(ref_hs / c, rel=1e-12, abs=0.0)

    def test_zero_matrix(self):
        np.testing.assert_array_equal(la.row_distances(np.zeros((5, 5))), np.zeros(5))
        assert la.span_basis(np.zeros((3, 4))).shape == (0, 4)
        assert la.dist_to_span(np.zeros(4), np.zeros((3, 4))) == 0.0
        assert la._extremes(np.zeros((3, 3))) == (0.0, 0.0, math.inf)

    def test_ordinary_scale_is_used_as_computed(self):
        A, e, scale = la._scaled(self.B)
        assert A is self.B and e == 0
        assert scale == float(np.max(np.linalg.norm(self.B, axis=1)))


def scipy_inverse_r(B):
    """``R^-1`` of ``B.T = Q R`` from scipy's LAPACK wrappers, with their
    default workspace: the oracle of ``_factor``, which calls the same
    routines in numpy's OpenBLAS."""
    from scipy.linalg.lapack import dgeqrf, dtrtri

    R = np.triu(dgeqrf(B.T)[0])
    return dtrtri(R, overwrite_c=1)[0]


def old_row_distances(B):
    """The triangular path of ``row_distances`` as first written, kept to pin
    its arithmetic: the profile of a square matrix must not change bits."""
    return 1.0 / np.linalg.norm(scipy_inverse_r(B), axis=1)


@pytest.mark.parametrize("n", [2, 5, 12, 100])
def test_row_distances_bits_are_pinned(n):
    for seed in range(5):
        B = np.random.default_rng(1000 * n + seed).standard_normal((n, n))
        np.testing.assert_array_equal(la.row_distances(B), old_row_distances(B))


@pytest.mark.parametrize("kind", ["gaussian", "signs", "near_singular"])
@pytest.mark.parametrize("n", [150, 200])
def test_factor_matches_scipy_lapack(n, kind):
    # Above n = 128 dgeqrf works in blocks whose width follows the workspace,
    # which _factor sizes as LAPACK asks and scipy's wrapper to 3n, so the
    # bits may differ: W = R^-1 must agree to within n * eps * cond(B) in
    # the Frobenius norm (seen at most 0.17 eps * cond(B) on these inputs)
    rng = np.random.default_rng(n)
    for _ in range(3):
        if kind == "signs":
            B = rng.choice([-1.0, 1.0], size=(n, n))
        else:
            B = rng.standard_normal((n, n))
        if kind == "near_singular":
            B[-1] = B[0] + 1e-6 * rng.standard_normal(n)  # cond(B) about 1e7 to 1e9
        f = la._factor(B[None])
        assert f.ok[0]
        ref = scipy_inverse_r(B)
        deviation = np.linalg.norm(f.W[0] - ref) / np.linalg.norm(ref)
        assert deviation <= n * la._EPS * np.linalg.cond(B)


def test_lapack_failures_raise():
    Rt = np.tril(np.ones((2, 3, 3)))
    Rt[1, 1, 1] = 0.0
    with pytest.raises(RuntimeError, match="dtrtri failed on member 1: info 2"):
        la._trtri(Rt, [0, 1])
    with pytest.raises(ValueError, match="C-ordered float64"):
        la._trtri(Rt.transpose(0, 2, 1), [0])


def test_import_fails_without_numpys_openblas():
    with pytest.raises(ImportError, match=r"no no-such-library-\*\.so in .*numpy\.libs"):
        la._load_openblas("no-such-library-*.so")


def test_import_fails_without_a_lapack_symbol(monkeypatch):
    symbols = list(la._OPENBLAS_SYMBOLS)
    symbols[1] = ("no_such_dtrtri_64_",) + symbols[1][1:]
    monkeypatch.setattr(la, "_OPENBLAS_SYMBOLS", tuple(symbols))
    with pytest.raises(ImportError, match=r"no_such_dtrtri_64_ in numpy's OpenBLAS .*libscipy_openblas64_"):
        la._load_openblas(la._OPENBLAS_PATTERN)


def fallback_families():
    """Families that fail the rank tolerance of ``_factor``: a repeated row,
    low rank, a row 1e-12 of the others, more rows than columns, zero."""
    rng = np.random.default_rng(77)
    repeated = rng.standard_normal((5, 5))
    repeated[3] = repeated[0]
    tiny_row = rng.standard_normal((5, 5))
    tiny_row[2] *= 1e-12
    return {
        "repeated": repeated,
        "low_rank": rng.standard_normal((6, 3)) @ rng.standard_normal((3, 6)),
        "tiny_row": tiny_row,
        "wide": rng.standard_normal((6, 4)),
        "zero": np.zeros((4, 4)),
    }


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("c", (1.0,) + EXTREME_SCALES)
@pytest.mark.parametrize("family", sorted(fallback_families()))
def test_row_profile_fallback_is_dist_to_span(family, c):
    X = c * fallback_families()[family]
    assert not la._factor(X[None]).ok[0]
    ref = [la.dist_to_span(X[i], np.delete(X, i, axis=0)) for i in range(X.shape[0])]
    np.testing.assert_array_equal(la._row_profile(X[None])[0], ref)


def set_distances(B, sets):
    """``_set_distances`` of one matrix, a stack of one."""
    return la._set_distances(np.asarray(B)[None], sets)[0]


def mixed_stack(n, seed=0):
    """Members of one size the stacked kernels must treat one by one: a
    repeated row, zero, +-1 (one of them singular for n >= 2), Gaussian
    members at every ``EXTREME_SCALES`` value and a graded one."""
    rng = np.random.default_rng(seed)
    repeated = rng.standard_normal((n, n))
    repeated[-1] = repeated[0]
    signs = rng.choice([-1.0, 1.0], size=(n, n))
    singular_signs = signs.copy()
    singular_signs[1] = -singular_signs[0]
    members = [repeated, np.zeros((n, n)), signs, singular_signs, rng.standard_normal((n, n))]
    members += [c * rng.standard_normal((n, n)) for c in EXTREME_SCALES]
    members.append(rng.standard_normal((n, n)) * np.logspace(-4, 4, n)[:, None])
    return np.array(members)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestStackedKernels:
    """A stack gives every member the bits a stack of one gives it."""

    @pytest.mark.parametrize("n", [2, 3, 6, 9, 12])
    def test_row_profile(self, n):
        stack = mixed_stack(n, n)
        got = la._row_profile(stack)
        assert not la._factor(stack).ok[[0, 1, 3]].any()
        for member, d in zip(stack, got):
            np.testing.assert_array_equal(d, la._row_profile(member[None])[0])
            np.testing.assert_array_equal(d, la.row_distances(member))

    def test_empty_stack(self):
        # LAPACK is not called, so no address of an empty array is taken
        assert la._row_profile(np.empty((0, 3, 3))).shape == (0, 3)
        assert la._qr_certified(np.empty((0, 3, 3)), True, (0.1,), 1.0) == []

    def test_wide_families(self):
        stack = np.random.default_rng(4).standard_normal((5, 6, 4))
        stack[2] *= 1e-200
        assert not la._factor(stack).ok.any()
        for member, d in zip(stack, la._row_profile(stack)):
            np.testing.assert_array_equal(d, la._row_profile(member[None])[0])

    @pytest.mark.parametrize("n, k", [(3, 3), (6, 2), (9, 3), (12, 3)])
    def test_set_distances(self, n, k):
        stack = mixed_stack(n, 10 * n + k)
        sets = all_sets(n, k)
        for member, got in zip(stack, la._set_distances(stack, sets)):
            np.testing.assert_array_equal(got, set_distances(member, sets))

    @pytest.mark.parametrize("n", [2, 3, 6, 9, 12, 50])
    def test_extremes(self, n):
        stack = mixed_stack(n, 20 * n)
        got = np.array(la._stack_extremes(stack)).T
        assert (got[:, 0] == 0.0).sum() >= 3  # the repeated row, zero and the singular signs
        for member, values in zip(stack, got):
            assert tuple(values) == la._extremes(member) == one_matrix_extremes(member)

    def test_members_keep_their_own_scale(self):
        stack = mixed_stack(5)
        f = la._factor(stack)
        for k, member in enumerate(stack):
            A, e, scale = la._scaled(member)
            assert (f.e[k], f.scale[k]) == (e, scale)
            np.testing.assert_array_equal(f.A[k], A)


def one_matrix_extremes(A):
    """``_extremes`` as it was written for one matrix before the stacked
    kernel: the oracle of its bits."""
    A, e, scale = la._scaled(A)
    s = np.linalg.svd(A, compute_uv=False)
    s_max = float(np.ldexp(s[0], e))
    if s[-1] <= la.RANK_RTOL * scale:
        return 0.0, s_max, math.inf
    return float(np.ldexp(s[-1], e)), s_max, float(np.ldexp(np.sqrt(np.sum(s**-2.0)), -e))


def per_set_oracle(A, sets):
    """Complement distances set by set, each from its own SVD of the rows
    outside the set: the path every set took before the batched kernel,
    written with the public primitives only."""
    A = np.asarray(A, dtype=float)
    bases = [la.span_basis(np.delete(A, S, axis=0)) for S in sets]
    return np.array([[la.residual_norm(A[m], basis) for m in S] for S, basis in zip(sets, bases)])


@contextmanager
def counting_set_fallback():
    """Collect one entry per set that ``_set_distances`` hands to the
    per-set SVD path."""
    calls = []
    primitive = la._svd_distances

    def counting(A, sets):
        calls.extend(1 for _ in sets)
        return primitive(A, sets)

    la._svd_distances = counting
    try:
        yield calls
    finally:
        la._svd_distances = primitive


def all_sets(n, k, limit=60):
    return np.array(list(itertools.combinations(range(n), k))[:limit])


class TestSetDistancesOracle:
    """The one-factorization complement kernel against the per-set SVD path."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=2, max_value=10),
        data=st.data(),
    )
    def test_gaussian(self, seed, n, data):
        k = data.draw(st.integers(min_value=1, max_value=n))
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((n, n))
        sets = all_sets(n, k)
        with counting_set_fallback() as calls:
            d = set_distances(B, sets)
        assert not calls
        np.testing.assert_allclose(d, per_set_oracle(B, sets), rtol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), n=st.integers(3, 10))
    def test_graded_rows(self, seed, n):
        # row norms 1e-4 .. 1e4, in a random order; the per-set SVD loses up
        # to about 2e-8 of relative accuracy here (measured against 60-digit
        # arithmetic), the one-factorization kernel about 1e-14
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((n, n)) * np.logspace(-4, 4, n)[rng.permutation(n)][:, None]
        sets = all_sets(n, 3)
        with counting_set_fallback() as calls:
            d = set_distances(B, sets)
        # a condition number past 1 / RANK_RTOL, possible at this grading,
        # sends every set to the per-set path
        assert len(calls) in (0, len(sets))
        np.testing.assert_allclose(d, per_set_oracle(B, sets), rtol=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_small_sign_matrices(self, data):
        n = data.draw(st.integers(min_value=3, max_value=6))
        entries = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n * n, max_size=n * n))
        B = np.array(entries).reshape(n, n)
        sets = all_sets(n, 3)
        with counting_set_fallback() as calls:
            d = set_distances(B, sets)
        # |det| >= 1 keeps every |R_jj| far above the tolerance
        assert bool(calls) == (np.linalg.matrix_rank(B) < n)
        np.testing.assert_allclose(d, per_set_oracle(B, sets), rtol=1e-9, atol=1e-12)

    def test_rank_deficient_matrices_fall_back_set_by_set(self):
        rng = np.random.default_rng(8)
        repeated = rng.standard_normal((6, 6))
        repeated[4] = repeated[1]
        low_rank = rng.standard_normal((7, 5)) @ rng.standard_normal((5, 7))
        for B in (repeated, low_rank, np.zeros((4, 4))):
            sets = all_sets(B.shape[0], 3)
            with counting_set_fallback() as calls:
                d = set_distances(B, sets)
            assert len(calls) == len(sets)
            np.testing.assert_array_equal(d, per_set_oracle(B, sets))

    @pytest.mark.parametrize("factor", [1.001, 0.999])
    def test_near_singular_at_the_tolerance(self, factor):
        B, _ = near_singular(factor * la.RANK_RTOL, n=6)
        sets = all_sets(6, 2)
        with counting_set_fallback() as calls:
            d = set_distances(B, sets)
        assert bool(calls) == (factor < 1.0)
        # rows 0 and 5 are parallel up to delta: the columns of B^-1 that span
        # the complement of {0, 5} are too, and the kernel's relative error,
        # about eps * cond(B), reaches a few 1e-7 at cond(B) ~ 1 / RANK_RTOL;
        # the per-set SVD only sees the orthonormal rows outside the set
        np.testing.assert_allclose(d, per_set_oracle(B, sets), rtol=1e-5)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("c", EXTREME_SCALES)
    def test_homogeneous(self, c):
        B = TestExtremeScales.B[:9, :9]
        sets = all_sets(9, 3)
        got = set_distances(c * B, sets)
        np.testing.assert_allclose(got, c * set_distances(B, sets), rtol=1e-12, atol=0)
        singular = B.copy()
        singular[3] = singular[7]
        with counting_set_fallback() as calls:
            got = set_distances(c * singular, sets)
        assert calls
        scale = float(np.max(np.linalg.norm(singular, axis=1)))
        np.testing.assert_allclose(
            got / c, set_distances(singular, sets), rtol=1e-12, atol=1e-12 * scale
        )

    def test_whole_index_set_gives_row_norms(self):
        B = RNG.standard_normal((5, 5))
        d = [la.dist_to_complement(B, i, range(5)) for i in range(5)]
        np.testing.assert_allclose(d, np.linalg.norm(B, axis=1), rtol=1e-12)


class TestDistToComplement:
    def test_identity(self):
        assert la.dist_to_complement(np.eye(4), 0, {0, 1}) == pytest.approx(1.0)

    def test_diagonal(self):
        B = np.diag([1.5, 2.5, 3.5, 4.5])
        assert la.dist_to_complement(B, 1, {1, 2}) == pytest.approx(2.5)

    def test_requires_membership(self):
        with pytest.raises(InvalidInputError):
            la.dist_to_complement(np.eye(4), 0, {1, 2})

    @pytest.mark.parametrize("i, S", [(0, [0, 1.5]), (1.0, [1, 2]), (True, [1]), (0, [False, 0]),
                                      ("0", [0]), (0, ["0", 1]), (0, np.array([0.0, 1.0]))])
    def test_rejects_non_integer_indices(self, i, S):
        # int() would read S=[0, 1.5] as [0, 1] and True as 1
        with pytest.raises(InvalidInputError, match="expected an integer"):
            la.dist_to_complement(np.eye(4), i, S)

    def test_numpy_integers_are_indices(self):
        B = np.diag([1.5, 2.5, 3.5, 4.5])
        got = la.dist_to_complement(B, np.int64(1), np.array([1, 2], dtype=np.int32))
        assert got == la.dist_to_complement(B, 1, {1, 2})

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


class TestExtremes:
    def test_identity(self):
        s_min, s_max, hs = la._extremes(np.eye(7))
        assert s_min == pytest.approx(1.0)
        assert s_max == pytest.approx(1.0)
        assert hs == pytest.approx(math.sqrt(7))

    def test_diagonal(self):
        s_min, s_max, hs = la._extremes(np.diag([3.0, 0.5]))
        assert s_min == pytest.approx(0.5)
        assert s_max == pytest.approx(3.0)
        assert hs == pytest.approx(math.sqrt(1.0 / 9.0 + 4.0), rel=1e-12)

    def test_shear(self):
        # eigenvalues of [[1,1],[1,2]] are (3 +/- sqrt 5)/2
        s_min, s_max, _ = la._extremes(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert s_min == pytest.approx(math.sqrt((3 - math.sqrt(5)) / 2), rel=1e-12)
        assert s_max == pytest.approx(math.sqrt((3 + math.sqrt(5)) / 2), rel=1e-12)

    def test_singular_encoding(self):
        B = np.ones((3, 3))
        s_min, _, hs = la._extremes(B)
        assert s_min == 0.0
        assert hs == math.inf

    def test_zero_matrix(self):
        s_min, s_max, hs = la._extremes(np.zeros((2, 2)))
        assert s_min == 0.0 and s_max == 0.0
        assert hs == math.inf
        np.testing.assert_allclose(la.row_distances(np.zeros((2, 2))), 0.0)

    def test_scaling_identity(self):
        B = RNG.standard_normal((6, 6))
        for c in (0.5, 3.0):
            assert la._extremes(c * B)[0] == pytest.approx(la._extremes(B)[0] * c, rel=1e-10)


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
        s_min, s_max, hs = la._extremes(B)
        assert hs**2 == pytest.approx(float(np.sum(la.row_distances(B) ** -2.0)), rel=1e-8)
        assert hs >= 1.0 / s_min - 1e-12
        assert 1.0 / s_min >= 1.0 / s_max

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(17)
        B = rng.standard_normal((6, 6))
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        BQ = B @ Q
        np.testing.assert_allclose(la.row_distances(BQ), la.row_distances(B), rtol=1e-8)
        a, b = la._extremes(B), la._extremes(BQ)
        assert b == pytest.approx(a, rel=1e-8)


def svd_statistics(B):
    """``(s_min, hs_inverse)`` straight from ``np.linalg.svd``, singular at
    the rank tolerance: the oracle of the certified QR kernel."""
    s = np.linalg.svd(B, compute_uv=False)
    if s[-1] <= la.RANK_RTOL * float(np.max(np.linalg.norm(B, axis=1))):
        return 0.0, math.inf
    return float(s[-1]), float(np.sqrt(np.sum(s**-2.0)))


def certified(A, smin, cuts, unit=1.0):
    """``la._stack_certified`` of the stack of one ``A``, looked up at each
    call, so that a mutant patched into the module serves it too."""
    return la._stack_certified(A[None], smin, cuts, unit)[0]


def rounding_margin(B):
    """The margin on ``s_min`` that ``_stack_certified`` documents: c n eps sqrt(n)
    times the largest row norm, c = 8."""
    n = B.shape[0]
    return 8.0 * n * np.finfo(float).eps * math.sqrt(n) * float(np.max(np.linalg.norm(B, axis=1)))


def planted(s, seed=0):
    """``U diag(s) V^T`` with Haar-distributed orthogonal ``U`` and ``V``."""
    rng = np.random.default_rng(seed)
    n = len(s)
    U, V = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    return (U * np.asarray(s, dtype=float)) @ V.T


# relative distances of the cuts placed on either side of the SVD value
CUT_OFFSETS = (0.0, 1e-14, 1e-12, 1e-10, 1e-6, 1e-2)

# the criterion-02 grid of s_min * sqrt(n) and the criterion-04 grid of
# hs_inverse / n
CRITERION_GRIDS = (tuple(np.linspace(0.05, 0.5, 10)), (1.0, 2.0, 4.0))


def svd_hits(B, smin, cuts):
    """Cuts hit by the SVD value: ``s_min <= c`` or ``hs_inverse >= c``."""
    s_min, hs = svd_statistics(B)
    return sum(s_min <= c for c in cuts) if smin else sum(hs >= c for c in cuts)


def assert_certified_matches_svd(B):
    """Both statistics of ``_stack_certified`` against the SVD: the same hit count
    on no cuts, on cuts on either side of the SVD value and on the
    criterion-02 and criterion-04 grids.  A cut at the ``_extremes`` value
    itself can only be decided by a fallback, which must count that value
    bit for bit."""
    B = np.asarray(B, dtype=float)
    n = B.shape[0]
    for pos, smin in ((0, True), (2, False)):
        ref = la._extremes(B)[pos]
        assert certified(B, smin, ()).hits == 0
        got = certified(B, smin, (ref,))
        assert got.fallback and got.hits == 1
        unit = 1.0 / math.sqrt(n) if smin else n
        cut_sets = [(ref * (1.0 - offset), ref * (1.0 + offset)) for offset in CUT_OFFSETS]
        cut_sets += [tuple(t * unit for t in grid) for grid in CRITERION_GRIDS]
        for cuts in cut_sets:
            assert certified(B, smin, cuts).hits == svd_hits(B, smin, cuts)


def uniform_plus_shift(rng, n):
    """The clustered shape of criteria 03 and 04: uniform entries plus 10 sqrt(n) I."""
    return rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), (n, n)) + 10.0 * math.sqrt(n) * np.eye(n)


class TestCertifiedOracle:
    """The QR kernel of the Monte Carlo statistics against the SVD."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), n=st.integers(1, 40))
    def test_gaussian(self, seed, n):
        assert_certified_matches_svd(np.random.default_rng(seed).standard_normal((n, n)))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_sign_matrices(self, data):
        n = data.draw(st.integers(min_value=2, max_value=8))
        entries = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n * n, max_size=n * n))
        assert_certified_matches_svd(np.array(entries).reshape(n, n))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(3, 10),
        factor=st.sampled_from([0.999, 1.001]),
    )
    def test_either_side_of_the_rank_tolerance(self, seed, n, factor):
        s = np.ones(n)
        s[-1] = 0.0
        B0 = planted(s, seed)
        s[-1] = factor * la.RANK_RTOL * float(np.max(np.linalg.norm(B0, axis=1)))
        B = planted(s, seed)
        assert (svd_statistics(B)[0] == 0.0) == (factor < 1.0)
        assert_certified_matches_svd(B)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(2, 20),
        spread=st.floats(min_value=0.0, max_value=4.0),
    )
    def test_graded_rows(self, seed, n, spread):
        B = np.random.default_rng(seed).standard_normal((n, n)) * np.logspace(-spread, spread, n)[:, None]
        assert_certified_matches_svd(B)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), n=st.integers(2, 60))
    def test_clustered_shift(self, seed, n):
        assert_certified_matches_svd(uniform_plus_shift(np.random.default_rng(seed), n))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("c", EXTREME_SCALES)
    def test_extreme_scales(self, c):
        # _scaled moves c * B by a power of two; the cuts must move with it.
        # Cuts on either side of the value decide as at B, the Gaussian
        # matrix without a fallback; a cut at the value itself falls back
        rng = np.random.default_rng(21)
        gaussian = rng.standard_normal((20, 20))
        for B in (gaussian, uniform_plus_shift(rng, 20)):
            for smin, pos, power in ((True, 0, 1), (False, 2, -1)):
                value = la._extremes(c * B)[pos]
                assert value == pytest.approx(la._extremes(B)[pos] * c**power, rel=1e-12, abs=0.0)
                for offset in (1e-6, 1e-2, 0.5):
                    cuts = (value * (1.0 - offset), value * (1.0 + offset))
                    got = certified(c * B, smin, cuts)
                    ref = certified(B, smin, tuple(cut / c**power for cut in cuts))
                    assert got.hits == ref.hits == 1
                    assert got.fallback == ref.fallback
                    if B is gaussian:
                        assert got.fallback == ""
                got = certified(c * B, smin, (value,))
                assert got.fallback and got.hits == 1

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_stack_matches_one_matrix(self):
        # members decided before the first step (the clustered shift), after
        # power steps (values 1e-8 off a grid point), by the SVD (a value on
        # a grid point, dependent rows, zero) and at extreme scales, in the
        # grid's units as the Monte Carlo trials use them
        n, t = 20, 0.3
        root = math.sqrt(n)
        rng = np.random.default_rng(5)
        gaussian = rng.standard_normal((n, n))
        signs = rng.choice([-1.0, 1.0], (n, n))
        signs[1] = -signs[0]
        members = [uniform_plus_shift(rng, n), gaussian, signs, np.zeros((n, n))]
        for offset in (0.0, -1e-8, 1e-8):
            s = np.concatenate([[t / root * (1.0 + offset)], np.linspace(1.0, 2.0, n - 1)])
            members.append(planted(s, 4))
        members += [c * gaussian for c in EXTREME_SCALES]
        stack = np.array(members)
        for smin, grid, unit in ((True, CRITERION_GRIDS[0], root), (False, CRITERION_GRIDS[1], n)):
            got = la._stack_certified(stack, smin, grid, unit)
            assert got == [certified(member, smin, grid, unit) for member in stack]
            for member, one in zip(stack, got):
                s_min, _, hs = la._extremes(member)
                hits = sum(s_min * unit <= c for c in grid) if smin else sum(hs / unit >= c for c in grid)
                assert one.hits == hits
        got = la._stack_certified(stack, True, CRITERION_GRIDS[0], root)
        assert [g.fallback for g in got[2:5]] == ["rank", "rank", "cut"]
        assert got[0] == (0, 0, "") and got[5].steps > 0 and got[6].steps > 0
        assert not any(g.fallback for g in got[5:])

    def test_nearly_coincident_top_takes_the_svd_at_the_cap(self):
        # criterion 02 trial 1665: the two smallest singular values lie within
        # 1.4% of each other, so rho rises by about 1 in 2700 per step and
        # stays below trace / 2, where no Kato-Temple bound forms, until the
        # cap; the trial then takes the SVD
        n = 200
        grid = CRITERION_GRIDS[0]
        B = sample_matrix(RowDistribution("gaussian"), n, SeedSpec(20260810, 1665))
        got = certified(B, True, grid, math.sqrt(n))
        assert got.fallback == "cap" and got.steps == la._POWER_STEPS
        assert got.hits == svd_hits(B, True, [t / math.sqrt(n) for t in grid]) == 5

    @pytest.mark.parametrize("offset", [0.0, 1e-12, -1e-12, 2e-12])
    def test_planted_value_at_a_grid_threshold_falls_back(self, offset):
        # s_min * sqrt(n) on the grid point t = 0.3 of the criterion-02 grid,
        # or closer to it than the rounding margin (4e-12 relative here)
        n, t = 20, 0.3
        s = np.concatenate([[t / math.sqrt(n) * (1.0 + offset)], np.linspace(1.0, 2.0, n - 1)])
        B = planted(s, 4)
        assert rounding_margin(B) > 3e-12 * s[0]
        cuts = [g / math.sqrt(n) for g in np.linspace(0.05, 0.5, 10)]
        got = certified(B, True, cuts)
        assert got.fallback == "cut"
        assert got.hits == svd_hits(B, True, cuts)
        hs = la._extremes(B)[2]
        got = certified(B, False, [hs * (1.0 + offset)])
        assert got.fallback == "cut"
        assert got.hits == (offset <= 0.0)

    def test_planted_value_off_the_grid_is_certified(self):
        n, t = 20, 0.3
        for offset in (-1e-8, 1e-8):
            s = np.concatenate([[t / math.sqrt(n) * (1.0 + offset)], np.linspace(1.0, 2.0, n - 1)])
            got = certified(planted(s, 4), True, [t / math.sqrt(n)])
            assert got.fallback == "" and got.steps > 0
            assert got.hits == (offset < 0)

    def test_fallback_counts_in_the_units_of_the_grid(self):
        # a fallback compares s_min * unit or hs_inverse / unit with the cut,
        # as the SVD replay of a Monte Carlo run does; against the cut moved
        # to the units of the matrix, a value on a grid point can land on
        # the other side by a rounding
        n, t = 6, 0.35
        root = math.sqrt(n)
        B = np.diag([t / root, 1.0, 1.25, 1.5, 1.75, 2.0])
        s_min = la._extremes(B)[0]
        assert (s_min * root <= t) != (s_min <= t / root)
        assert certified(B, True, (t,), root) == (int(s_min * root <= t), 0, "cut")
        split = 0
        for a in np.linspace(0.05, 0.3, 40):
            B = np.diag([a, 1.0, 1.25, 1.5, 1.75, 2.0])
            hs = la._extremes(B)[2]
            for t in (hs / root, math.nextafter(hs / root, math.inf)):
                assert certified(B, False, (t,), root) == (int(hs / root >= t), 0, "cut")
                split += (hs / root >= t) != (hs >= t * root)
        assert split

    @pytest.mark.parametrize("seed", range(5))
    def test_just_below_the_tolerance_is_singular_whatever_r_says(self, seed):
        # every |R_jj| clears the tolerance, s_min is 0.1% below it
        n = 6
        s = np.ones(n)
        s[-1] = 0.0
        scale = float(np.max(np.linalg.norm(planted(s, seed), axis=1)))
        s[-1] = 0.999 * la.RANK_RTOL * scale
        B = planted(s, seed)
        R = np.linalg.qr(B.T, mode="r")
        assert np.min(np.abs(np.diagonal(R))) > la.RANK_RTOL * scale
        # the SVD calls B singular: s_min = 0 and hs_inverse = inf hit cuts
        # on either side of the values it would have above the tolerance
        assert svd_statistics(B) == (0.0, math.inf)
        hs = math.sqrt(float(np.sum(s**-2.0)))
        for smin, value in ((True, s[-1]), (False, hs)):
            cuts = (0.5 * value, 2.0 * value)
            got = certified(B, smin, cuts)
            assert got.hits == 2 and got.fallback == "tolerance"

    def test_just_above_the_tolerance_is_certified(self):
        check_just_above_the_tolerance()

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_identity(self, n):
        # W = I: the row norms and norm(W, 1) * norm(W, inf) bracket
        # lambda_1 = 1 exactly before any step, though lambda_1 = lambda_2
        # (n >= 2) leaves no Kato-Temple bound
        assert certified(np.eye(n), True, (0.5, 1.0 - 1e-6, 1.0 + 1e-6, 2.0)) == (2, 0, "")
        got = certified(np.eye(n), True, (1.0,))
        assert got == (svd_hits(np.eye(n), True, (1.0,)), 0, "cut")
        hs = math.sqrt(n)
        cuts = (0.5 * hs, (1.0 - 1e-6) * hs, 2.0 * hs)
        assert certified(np.eye(n), False, cuts) == (2, 0, "")

    @pytest.mark.parametrize("n", [10, 100])
    def test_clustered_shift_exits_before_iterating(self, n):
        # s_min * sqrt(n) is close to 10 n, far above the criterion-03 grid: the
        # bracket before the first step decides every grid point
        B = uniform_plus_shift(np.random.default_rng(n), n)
        cuts = [t / math.sqrt(n) for t in np.linspace(0.05, 0.5, 10)]
        assert certified(B, True, cuts) == (svd_hits(B, True, cuts), 0, "")
        s_min = svd_statistics(B)[0]
        cuts = (0.5 * s_min, 0.9 * s_min, 1.1 * s_min, 2.0 * s_min)
        got = certified(B, True, cuts)
        assert got.hits == svd_hits(B, True, cuts) == 2
        assert certified(B, False, (n, 2.0 * n, 4.0 * n)).fallback == ""

    @pytest.mark.parametrize("d", [(1.0, 1.1), (1.0, 1.5), (2.0, 3.0, 5.0), (0.5, 0.9, 4.0, 4.0)])
    def test_diagonal_with_a_dominant_direction_is_certified(self, d):
        # W = diag(1 / d): norm(W, 1) * norm(W, inf) and the largest squared
        # row norm are both lambda_1, so the bracket is exact before any step
        B = np.diag(d)
        s_min = min(d)
        below = (1.0 - 1e-9) * s_min
        for cuts in ((0.9 * s_min, 1.1 * s_min), (0.5 * s_min, below), (2.0 * s_min,)):
            assert certified(B, True, cuts) == (svd_hits(B, True, cuts), 0, "")

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(2, 30),
        shape=st.sampled_from(["gaussian", "sign", "clustered", "diagonal"]),
        offset=st.sampled_from([1e-6, 1e-2, 0.5]),
    )
    def test_cuts_close_to_the_value_match_the_svd(self, seed, n, shape, offset):
        rng = np.random.default_rng(seed)
        if shape == "gaussian":
            B = rng.standard_normal((n, n))
        elif shape == "sign":
            B = rng.choice([-1.0, 1.0], (n, n))
        elif shape == "clustered":
            B = uniform_plus_shift(rng, n)
        else:
            B = np.diag(rng.uniform(1.0, 3.0, n))
        s_min = la._extremes(B)[0]
        cuts = (s_min * (1.0 - offset), s_min * (1.0 + offset))
        assert certified(B, True, cuts).hits == svd_hits(B, True, cuts)


def eager_qr_certified(X, smin, cuts, unit=1.0):
    """``la._qr_certified`` with the bracket of ``lambda_1`` before the first
    power step formed for every member at once: the trace, the largest
    squared row or column norm and ``norm(W, 1) * norm(W, inf)``, from the
    ``np.square(W)`` and ``np.abs(W)`` of the whole stack.  Each member is
    then placed by ``la._smin_position`` or ``la._hs_position`` from that
    bracket, and a fallback counts the SVD value."""
    f = la._factor(X)
    n = f.W.shape[1]
    squares = np.square(f.W)
    rows = squares.sum(axis=2)
    traces = rows.sum(axis=1)
    absW = np.abs(f.W)
    products = absW.sum(axis=2).max(axis=1) * absW.sum(axis=1).max(axis=1)
    lam_lows = np.maximum(rows.max(axis=1), squares.sum(axis=1).max(axis=1))
    root = 8.0 * n * la._EPS * math.sqrt(n)
    out = []
    for k in range(len(X)):
        margin, tolerance = root * f.scale[k], la.RANK_RTOL * f.scale[k]
        if not f.ok[k]:
            got = la._Certified(0, 0, "rank")
        elif smin:
            scaled = [math.ldexp(c / unit, -int(f.e[k])) for c in cuts]
            got = la._smin_position(f.W[k], rows[k], float(traces[k]), float(min(traces[k], products[k])),
                                    float(lam_lows[k]), scaled, margin, tolerance)
        else:
            scaled = [math.ldexp(c * unit, int(f.e[k])) for c in cuts]
            got = la._hs_position(float(traces[k]), scaled, margin, tolerance)
        if got.fallback:
            s_min, hs = svd_statistics(X[k])
            got = got._replace(hits=sum(s_min * unit <= c for c in cuts) if smin
                               else sum(hs / unit >= c for c in cuts))
        out.append(got)
    return out


def eager_bracket_stacks():
    """Stacks of every shape the QR bracket meets: Gaussian, +-1, the
    clustered shift, diagonal and identity, each at a few sizes."""
    rng = np.random.default_rng(2026)
    for n in (1, 2, 5, 12, 40):
        yield "gaussian", rng.standard_normal((6, n, n))
        yield "signs", rng.choice([-1.0, 1.0], (6, n, n))
        yield "clustered", np.array([uniform_plus_shift(rng, n) for _ in range(4)])
        yield "diagonal", np.array([np.diag(rng.uniform(0.5, 3.0, n)) for _ in range(4)])
        yield "identity", np.broadcast_to(np.eye(n), (2, n, n)).copy()


def check_lazy_bracket_matches_the_eager_one():
    """``la._qr_certified``, which forms the column norms and the norm
    product only for members the trace and the row norms leave undecided,
    gives every member of every :func:`eager_bracket_stacks` stack the
    ``(hits, steps, fallback)`` of :func:`eager_qr_certified`, on the
    criterion grids and on cuts close to each member's value."""
    for shape, X in eager_bracket_stacks():
        n = X.shape[1]
        root = math.sqrt(n)
        values = [svd_statistics(B) for B in X]
        s_cuts = sorted(v * f for v, _ in values for f in (0.999, 1.0, 1.001, 1.5))
        h_cuts = sorted(v * f for _, v in values for f in (0.999, 1.0, 1.001))
        for smin, cuts, unit in ((True, CRITERION_GRIDS[0], root), (True, s_cuts, 1.0),
                                 (False, CRITERION_GRIDS[1], n), (False, h_cuts, 1.0)):
            want = eager_qr_certified(X, smin, cuts, unit)
            assert la._qr_certified(X, smin, cuts, unit) == want, (shape, n, smin, cuts)


def test_lazy_bracket_matches_the_eager_one():
    check_lazy_bracket_matches_the_eager_one()


def exact_johnson_bound(B):
    """``min_i (|a_ii| - (R_i + C_i) / 2)`` of the float entries of ``B`` in
    rational arithmetic, without rounding."""
    F = [[Fraction(float(x)) for x in row] for row in np.asarray(B)]
    n = len(F)
    return min(abs(F[i][i]) - sum(abs(F[i][j]) + abs(F[j][i]) for j in range(n) if j != i) / 2
               for i in range(n))


def dominance_bound(B):
    """``(low, scale)`` of :func:`linalg._dominance_bound` for one matrix."""
    low, scale = la._dominance_bound(np.asarray(B, dtype=float)[None])
    return float(low[0]), float(scale[0])


def smallest_singular_value(B):
    """The SVD's smallest singular value, not set to 0 below the tolerance."""
    return float(np.linalg.svd(B, compute_uv=False)[-1])


def screened(B, smin, cuts, unit=1.0):
    return bool(la._screened(np.asarray(B, dtype=float)[None], smin, cuts, unit)[0])


def shifted(rng, n, shape):
    """A diagonally dominant trial: uniform, Gaussian or +-1 entries plus
    ``10 sqrt(n) I``."""
    if shape == "uniform":
        return uniform_plus_shift(rng, n)
    entries = rng.standard_normal((n, n)) if shape == "gaussian" else rng.choice([-1.0, 1.0], (n, n))
    return entries + 10.0 * math.sqrt(n) * np.eye(n)


def dense_column(n=101):
    """``I`` plus a column of 0.5s: every row sum but one is 0.5, column 0
    sums to 50, and s_min is about 0.29, below the 0.5 of row sums alone."""
    B = np.eye(n)
    B[:, 0] += 0.5
    return B


def check_bound_below_exact_johnson(seed):
    """The computed bound never exceeds Johnson's bound in exact arithmetic;
    without its slack it does for about half of these matrices."""
    B = uniform_plus_shift(np.random.default_rng(seed), 8)
    low, _ = dominance_bound(B)
    assert Fraction(low) <= exact_johnson_bound(B)


def check_dense_column():
    """Johnson's bound gives nothing on ``dense_column``; a bound from row
    sums alone would call it above 0.5 and drop a hit."""
    B = dense_column()
    s_min = svd_statistics(B)[0]
    assert 0.25 < s_min < 0.35
    assert dominance_bound(B)[0] <= s_min
    for cuts in ((0.4,), (0.3, 0.4, 0.45)):
        assert certified(B, True, cuts).hits == svd_hits(B, True, cuts) == len(cuts)


def check_just_above_the_tolerance():
    """``s_min`` 1% above the rank tolerance, a gap far wider than the
    rounding margin: the screen decides the diagonal matrix and the QR
    bracket the dense one, each without the SVD, which calls both regular.
    A tolerance stricter than the SVD's would send them to the SVD."""
    d = np.ones(6)
    d[-1] = 1.01 * la.RANK_RTOL
    dense = near_tolerance(np.random.default_rng(8).standard_normal((6, 6)), 1.01)
    for B, smin_cuts in ((np.diag(d), (0.5,)), (dense, (0.5, 2.0))):
        s_min, hs = svd_statistics(B)
        assert s_min > 0.0
        for smin, cuts in ((True, tuple(c * s_min for c in smin_cuts)), (False, (0.5 * hs, 2.0 * hs))):
            got = certified(B, smin, cuts)
            assert got.fallback == "" and got.hits == svd_hits(B, smin, cuts)


class TestDominanceScreen:
    """The diagonal dominance screen of ``_stack_certified`` against exact
    arithmetic and the SVD."""

    @pytest.mark.parametrize("seed", range(12))
    def test_bound_never_exceeds_the_exact_bound(self, seed):
        check_bound_below_exact_johnson(seed)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(1, 9),
        shape=st.sampled_from(["uniform", "gaussian", "sign"]),
    )
    def test_bound_and_scale_against_exact_arithmetic(self, seed, n, shape):
        B = shifted(np.random.default_rng(seed), n, shape)
        low, scale = dominance_bound(B)
        assert Fraction(low) <= exact_johnson_bound(B)
        assert scale >= float(np.max(np.linalg.norm(B, axis=1)))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(1, 60),
        shape=st.sampled_from(["uniform", "gaussian", "sign", "unshifted"]),
    )
    def test_bound_never_exceeds_the_svd(self, seed, n, shape):
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((n, n)) if shape == "unshifted" else shifted(rng, n, shape)
        low, _ = dominance_bound(B)
        assert low <= smallest_singular_value(B)

    def test_row_sums_alone_are_not_a_bound(self):
        check_dense_column()

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(2, 10),
        factor=st.sampled_from([0.999, 1.001]),
    )
    def test_near_the_rank_tolerance(self, seed, n, factor):
        # planted spectra around the tolerance (no bound), and diagonal ones,
        # where the bound is within a few ulps of s_min and the screen
        # decides the regular side only
        assert dominance_bound(near_tolerance(np.random.default_rng(seed).standard_normal((n, n)),
                                              factor))[0] <= 0.0
        d = np.ones(n)
        d[np.random.default_rng(seed).integers(n)] = factor * la.RANK_RTOL
        B = np.diag(d)
        assert dominance_bound(B)[0] <= smallest_singular_value(B)
        cuts = (0.5 * la.RANK_RTOL,)
        for smin in (True, False):
            assert screened(B, smin, cuts if smin else (1e12,)) == (factor > 1.0)
            assert certified(B, smin, cuts).hits == svd_hits(B, smin, cuts)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), n=st.integers(1, 30))
    def test_diagonal_bound_is_tight(self, seed, n):
        rng = np.random.default_rng(seed)
        B = np.diag(rng.uniform(1.0, 3.0, n) * rng.choice([-1.0, 1.0], n))
        s_min = svd_statistics(B)[0]
        low, scale = dominance_bound(B)
        assert s_min - 4.0 * n * la._EPS * 3.0 <= low <= s_min
        # a cut just below s_min is decided; one planted between the bound
        # less the margin and s_min is left to the QR path, which counts
        # it as the SVD does
        margin = la._MARGIN * n * la._EPS * math.sqrt(n) * scale
        assert margin < 1e-9 * s_min
        assert screened(B, True, ((1.0 - 1e-9) * s_min,))
        inside = 0.5 * (low - margin + s_min)
        assert low - margin < inside < s_min
        assert not screened(B, True, (inside,))
        assert certified(B, True, (inside,)).hits == svd_hits(B, True, (inside,)) == 0
        # all entries of one size: sqrt(n) / s_min is hs_inverse itself
        c = float(abs(B[0, 0]))
        E = c * np.diag(rng.choice([-1.0, 1.0], n))
        hs = svd_statistics(E)[1]
        assert screened(E, False, ((1.0 + 1e-9) * hs,))
        assert not screened(E, False, (hs,))
        assert certified(E, False, (hs,)).hits == svd_hits(E, False, (hs,)) == 1

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(1, 60),
        shape=st.sampled_from(["uniform", "gaussian", "sign"]),
    )
    def test_screened_members_hit_no_cut(self, seed, n, shape):
        B = shifted(np.random.default_rng(seed), n, shape)
        s_min, hs = svd_statistics(B)
        for smin, grid, unit in ((True, CRITERION_GRIDS[0], math.sqrt(n)), (False, CRITERION_GRIDS[1], n),
                                 (True, (0.5 * s_min, 0.99 * s_min), 1.0), (False, (1.01 * hs,), 1.0)):
            hits = sum(s_min * unit <= c for c in grid) if smin else sum(hs / unit >= c for c in grid)
            assert certified(B, smin, grid, unit).hits == hits
            assert hits == 0 or not screened(B, smin, grid, unit)

    def test_criterion_shapes_are_screened(self):
        # the grids of criteria 03 and 04, which decide nearly every trial
        rng = np.random.default_rng(3)
        X = np.array([uniform_plus_shift(rng, 100) for _ in range(8)])
        assert la._screened(X, True, CRITERION_GRIDS[0], 10.0).sum() >= 7
        assert la._screened(X, False, CRITERION_GRIDS[1], 100.0).sum() >= 7

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("c", EXTREME_SCALES + (1e300,))
    def test_extreme_scales_go_to_the_qr_path(self, c):
        B = uniform_plus_shift(np.random.default_rng(8), 20)
        cuts = (0.05, 0.5)
        assert screened(B, True, cuts) and screened(B, False, (1e3,))
        assert not screened(c * B, True, [t * c for t in cuts])
        assert not screened(c * B, False, (1e3 / c,))
        assert certified(c * B, True, [t * c for t in cuts]) == (0, 0, "")

    def test_empty_cuts_go_to_the_qr_path(self, monkeypatch):
        X = np.array([uniform_plus_shift(np.random.default_rng(k), 10) for k in range(3)])
        for smin in (True, False):
            assert not la._screened(X, smin, (), 1.0).any()
        monkeypatch.setattr(la, "_dominance_bound", forbidden)
        for smin in (True, False):
            assert la._stack_certified(X, smin, ()) == [(0, 0, "")] * 3

    def test_gaussian_trials_pass_no_entry_through_the_screen(self, monkeypatch):
        # the O(n) gate on the diagonal turns the criterion-02 shape away
        n = 200
        X = np.array([sample_matrix(RowDistribution("gaussian"), n, SeedSpec(20260810, k)) for k in range(3)])
        want = la._stack_certified(X, True, CRITERION_GRIDS[0], math.sqrt(n))
        monkeypatch.setattr(la, "_dominance_bound", forbidden)
        assert la._stack_certified(X, True, CRITERION_GRIDS[0], math.sqrt(n)) == want

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_stack_of_screened_and_open_members(self):
        n = 20
        rng = np.random.default_rng(12)
        members = [uniform_plus_shift(rng, n), rng.standard_normal((n, n)), uniform_plus_shift(rng, n),
                   1e200 * uniform_plus_shift(rng, n), np.zeros((n, n)), np.diag(np.linspace(1.0, 2.0, n))]
        stack = np.array(members)
        for smin, grid, unit in ((True, CRITERION_GRIDS[0], math.sqrt(n)), (False, CRITERION_GRIDS[1], n)):
            mask = la._screened(stack, smin, grid, unit)
            assert mask.tolist() == [True, False, True, False, False, True]
            assert mask.tolist() == [screened(B, smin, grid, unit) for B in members]
            got = la._stack_certified(stack, smin, grid, unit)
            assert got == [certified(B, smin, grid, unit) for B in members]


def forbidden(*args):
    raise AssertionError("the screen read every entry")
