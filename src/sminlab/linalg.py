"""Dense linear-algebra kernels built around row-to-span distances.

The central quantity is the Euclidean distance from a row of a square
matrix to the span of (a subset of) the remaining rows.  For an
invertible matrix these distances are the reciprocals of the column
norms of the inverse, which ties them to the smallest singular value
and to the Hilbert-Schmidt norm of the inverse:

    hs_inverse(B)**2 == sum(row_distances(B) ** -2)

Distances to a general spanning set (:func:`dist_to_span`) come from
orthogonalizing that set with the rank-revealing SVD.  The full profile
``row_distances`` uses the duality instead: one QR factorization and a
triangular inverse give every row at once.  Distances to the span of the
rows outside an index set use it too, for a whole stack of sets from one
factorization (:func:`_set_distances`).  Both take that factorization
from :func:`_factor`, which factors a stack of matrices of one shape, one
LAPACK call and one rank test per member, a single matrix being a stack
of one; the lemma suites hand it every instance of one shape at once.
A family that is rank deficient at the tolerance falls back to the SVD
primitive set by set, a row being the singleton set
(:func:`_svd_distances`), so every operation stays well defined for
singular inputs.  ``s_min``, ``s_max`` and the inverse's HS norm come
from one SVD of the power-of-two-scaled matrix in :func:`_extremes`.
The Monte Carlo statistics read ``s_min`` or the HS norm from the same
QR factorization and triangular inverse instead (:func:`_certified`),
with a certificate that every threshold comparison and singularity
decision comes out as for the SVD, and take the SVD for any trial the
certificate does not cover.  Every kernel takes its rank scale from
:func:`_scaled`, which also rescales a matrix whose row norms would
overflow or underflow by an exact power of two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.blas import dtrmv
from scipy.linalg.lapack import dgeqrf, dormqr, dtrtri

from .errors import InvalidInputError

# A direction of the spanning set is kept iff its singular value exceeds
# RANK_RTOL times the largest row norm of the spanning set; a matrix is
# declared singular iff its smallest singular value falls below the same
# scale-aware threshold.
RANK_RTOL = 1e-10

# The certified s_min of _certified: power steps allowed before the trial
# falls back to the SVD (Gaussian matrices at n = 200 certify in 6 steps at
# the median and 25 at the 99th percentile), and the relative width of the
# bracket at which the iteration stops.
_POWER_STEPS = 32
_BRACKET_RTOL = 1e-13

# c in the rounding margin c * n * eps * norm(A) of _certified: it covers the
# backward errors of the QR factorization, the triangular inverse and the
# SVD it stands in for, and the rounding of the sums it forms.
_MARGIN = 8.0
_EPS = float(np.finfo(float).eps)

# Row scales and norms inside this range are used as computed: their
# squares neither overflow nor underflow, nor do those of the distances
# and inverse entries derived from them.  Outside it the input is first
# multiplied by a power of two, which is exact, and the result divided
# by it again.
_SAFE_RANGE = (2.0**-300, 2.0**300)


def as_matrix(B) -> np.ndarray:
    """Validate and return a square matrix of finite floats."""
    A = np.asarray(B, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {A.shape}")
    if A.shape[0] == 0:
        raise InvalidInputError("matrix must have at least one row")
    if not np.isfinite(A).all():
        raise InvalidInputError("matrix entries must be finite")
    return A


def _scaled(A: np.ndarray) -> tuple[np.ndarray, int, float]:
    """``(A * 2**-e, e, scale)``, ``scale`` being the largest row norm of
    ``A * 2**-e``.

    ``e`` is 0 and ``A`` is returned as is when its largest row norm
    lies in ``_SAFE_RANGE``; otherwise (the norm overflowed, or
    underflowed on a nonzero matrix) ``e`` brings the largest entry into
    ``[1/2, 1)``, and is 0 for the zero matrix.
    """
    scale = float(np.max(np.linalg.norm(A, axis=1)))
    if _SAFE_RANGE[0] <= scale <= _SAFE_RANGE[1]:
        return A, 0, scale
    e = math.frexp(float(np.max(np.abs(A))))[1]
    A = np.ldexp(A, -e)
    return A, e, float(np.max(np.linalg.norm(A, axis=1)))


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a vector, rescaled like :func:`_scaled` when it
    falls outside ``_SAFE_RANGE``."""
    d = float(np.linalg.norm(v))
    if _SAFE_RANGE[0] <= d <= _SAFE_RANGE[1]:
        return d
    e = math.frexp(float(np.max(np.abs(v))))[1]
    return math.ldexp(float(np.linalg.norm(np.ldexp(v, -e))), e)


def span_basis(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis (as rows) of the span of the given row vectors.

    Rank is decided by the documented tolerance: singular values at or
    below ``RANK_RTOL * max(row norms)`` are treated as zero.
    """
    R = np.atleast_2d(np.asarray(rows, dtype=float))
    if R.shape[0] == 0 or R.size == 0:
        return np.zeros((0, R.shape[1] if R.ndim == 2 else 0))
    R, _, scale = _scaled(R)
    if scale == 0.0:
        return np.zeros((0, R.shape[1]))
    _, s, Vt = np.linalg.svd(R, full_matrices=False)
    return Vt[s > RANK_RTOL * scale]


def residual_norm(x: np.ndarray, basis: np.ndarray) -> float:
    """Norm of ``x`` minus its projection onto the span of ``basis`` rows."""
    if basis.shape[0] == 0:
        return _norm(x)
    return _norm(x - basis.T @ (basis @ x))


def dist_to_span(x, rows) -> float:
    """Euclidean distance from ``x`` to the linear span of ``rows``.

    ``rows`` may be empty, in which case the span is the zero subspace
    and the distance is ``norm(x)``.
    """
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise InvalidInputError(f"expected a vector, got shape {v.shape}")
    R = np.asarray(rows, dtype=float)
    if R.size == 0:
        return _norm(v)
    R = np.atleast_2d(R)
    if R.shape[1] != v.shape[0]:
        raise InvalidInputError(
            f"dimension mismatch: vector has length {v.shape[0]}, rows have length {R.shape[1]}"
        )
    return residual_norm(v, span_basis(R))


def row_distances(B) -> np.ndarray:
    """Distance of each row to the span of all the other rows.

    Entry ``i`` is ``dist_to_span(B[i], B without row i)``.  Entries may
    be zero when the matrix is singular.

    Implementation: one QR factorization ``B.T = Q R``, of which only
    ``R`` is kept.  Column ``i`` of ``B^-1`` is ``Q`` times row ``i`` of
    ``R^-1``, and the distance of row ``i`` is the reciprocal of that
    column's norm, so when every ``|R_jj|`` exceeds the rank tolerance
    (``RANK_RTOL`` times the largest row norm) the whole profile is
    ``1 / norm(row i of R^-1)`` from one triangular inverse (LAPACK
    ``trtri``), at cubic cost.  Otherwise the rows are linearly dependent
    at the tolerance and every entry falls back to the rank-revealing SVD
    primitive, so singular matrices are handled exactly as
    :func:`dist_to_span` would.
    """
    A = as_matrix(B)
    if A.shape[0] == 1:
        return np.array([_norm(A[0])])
    return _row_profile(A[None])[0]


class _Factored(NamedTuple):
    """Result of :func:`_factor` for a stack of ``N`` families of ``m``
    rows in ``d`` dimensions."""

    A: np.ndarray  # (N, m, d): each family times its own 2**-e
    e: np.ndarray  # (N,) exponents of :func:`_scaled`
    scale: np.ndarray  # (N,) largest row norm of each member of A
    qr: list  # geqrf output of A[k].T per member, None when m > d
    tau: list
    W: np.ndarray  # (N, m, m): R^-1 where ok[k], else the identity; members Fortran-ordered
    ok: np.ndarray  # (N,) whether the rows of the member are independent


def _factor(X: np.ndarray) -> _Factored:
    """Factor every family of a stack ``X`` of shape ``(N, m, d)``; a single
    family is a stack of one.

    Each member gets its own :func:`_scaled` exponent, its own LAPACK
    ``geqrf`` of ``A[k].T = Q R`` and, when every ``|R_jj|`` exceeds
    ``RANK_RTOL`` times its scale, its own ``W[k] = R^-1`` from ``trtri``.
    ``ok[k]`` is false, and ``W[k]`` is the identity, when ``m > d`` (then
    ``qr[k]`` and ``tau[k]`` are ``None``) or some ``|R_jj|`` is at or
    below the tolerance, that is when the rows are linearly dependent at
    the tolerance.  The members of ``W`` are Fortran-ordered, as the
    ``trtri`` output for one family is, so row norms taken along its last
    axis add in the same order as for one family.
    """
    N, m, d = X.shape
    scale = np.linalg.norm(X, axis=2).max(axis=1)
    e = np.zeros(N, dtype=int)
    wild = [k for k, s in enumerate(scale.tolist()) if not _SAFE_RANGE[0] <= s <= _SAFE_RANGE[1]]
    if wild:
        X = X.copy()
        for k in wild:
            X[k], e[k], scale[k] = _scaled(X[k])
    if m > d:
        W = np.broadcast_to(np.eye(m), (N, m, m)).copy().transpose(0, 2, 1)
        return _Factored(X, e, scale, [None] * N, [None] * N, W, np.zeros(N, dtype=bool))
    qr, tau = [], []
    Rt = np.empty((N, m, m))
    for k in range(N):
        q, t = dgeqrf(X[k].T)[:2]
        qr.append(q)
        tau.append(t)
        Rt[k] = q[:m].T
    # R^T is lower triangular, and the transpose of a C-ordered stack has
    # Fortran-ordered members, which trtri inverts in place
    W = np.tril(Rt).transpose(0, 2, 1)
    ok = np.abs(np.diagonal(W, axis1=1, axis2=2)).min(axis=1) > RANK_RTOL * scale
    for k, independent in enumerate(ok.tolist()):
        if independent:
            dtrtri(W[k], overwrite_c=1)  # in place: W[k] is Fortran-ordered
        else:
            W[k] = np.eye(m)
    return _Factored(X, e, scale, qr, tau, W, ok)


def _row_profile(X: np.ndarray) -> np.ndarray:
    """Distance of each row of every family of a stack ``X`` of shape ``(N,
    m, d)`` (``m >= 2``) to the span of the other rows of its family, as an
    ``(N, m)`` array: the :func:`row_distances` arithmetic for the members
    whose rows are independent at the rank tolerance,
    :func:`_svd_distances` with one singleton set per row for the others.
    Inputs are not checked.
    """
    A, e, _, _, _, W, ok = _factor(X)
    d = 1.0 / np.linalg.norm(W, axis=2)
    for k, independent in enumerate(ok.tolist()):
        if not independent:
            d[k] = _svd_distances(A[k], np.arange(d.shape[1])[:, None])[0][:, 0]
    return np.ldexp(d, e[:, None]) if e.any() else d


def _set_distances(A: np.ndarray, sets: np.ndarray, x: np.ndarray | None = None):
    """Complement distances of a stack of index sets, one factorization per
    matrix of a stack.

    ``A`` has shape ``(N, n, n)``, a single matrix being a stack of one.
    ``sets`` is an integer array of shape ``(S, k)`` whose rows are
    strictly ascending row indices; entry ``[j, s, p]`` of the result is
    the distance of row ``sets[s, p]`` of ``A[j]`` to the span of the rows
    of ``A[j]`` outside ``sets[s]``.  With vectors ``x`` of shape ``(N,
    n)``, the ``(N, S)`` distances of ``x[j]`` to the same spans are
    returned as well.

    By duality the orthogonal complement of that span is spanned by
    columns ``S`` of ``A^-1 = Q R^-T`` (``A.T = Q R``), that is by ``Q``
    times ``P_S = (R^-1)[S, :].T``.  One batched QR ``P_S = U_S T_S`` then
    gives the distance of row ``m`` as the norm of its row of ``T_S^-1``,
    and that of ``x`` as ``norm(U_S.T Q.T x)``.  Every set of a matrix that
    is rank deficient at the tolerance falls back to
    :func:`_svd_distances`.  Inputs are not checked.
    """
    f = _factor(A)
    N, n = f.W.shape[:2]
    d = np.empty((N,) + sets.shape)
    d_x = None if x is None else np.empty((N, sets.shape[0]))
    independent = f.ok.nonzero()[0]
    if independent.size:
        P = f.W[independent][:, sets].swapaxes(-1, -2)
        if x is None:
            T = np.linalg.qr(P, mode="r")
        else:
            U, T = np.linalg.qr(P)
            for j, k in enumerate(independent):
                xv, ex, _ = _scaled(x[k][None, :])
                y = dormqr("L", "T", f.qr[k], f.tau[k], xv.T, n)[0][:, 0]
                d_x[k] = np.ldexp(np.linalg.norm(U[j].transpose(0, 2, 1) @ y, axis=1), ex)
        d[independent] = np.linalg.norm(np.linalg.inv(T), axis=-1)
    for k in (~f.ok).nonzero()[0]:
        d[k], dx = _svd_distances(f.A[k], sets, None if x is None else x[k])
        if x is not None:
            d_x[k] = dx
    d = np.ldexp(d, f.e[:, None, None])
    return d if x is None else (d, d_x)


def _svd_distances(A: np.ndarray, sets, x: np.ndarray | None = None):
    """``(d, d_x)``, the complement distances of :func:`_set_distances`
    set by set: one :func:`span_basis` of the rows of ``A`` outside each
    set, those rows taken in ascending order, against which the rows of
    the set and ``x`` are measured with :func:`residual_norm`.  ``d_x`` is
    ``None`` without ``x``.  The SVD path of the rank-deficient families of
    :func:`_row_profile` and :func:`_set_distances`; inputs are not
    checked.
    """
    everything = np.arange(A.shape[0])
    bases = [span_basis(A[np.setdiff1d(everything, S)]) for S in sets]
    d = np.array([[residual_norm(A[m], basis) for m in S] for S, basis in zip(sets, bases)])
    return d, None if x is None else np.array([residual_norm(x, basis) for basis in bases])


def dist_to_complement(B, i: int, S) -> float:
    """Distance from row ``i`` to the span of the rows outside ``S``.

    Requires ``i in S``; with ``S == {i}`` this is ``row_distances(B)[i]``.
    """
    sel = sorted(set(int(j) for j in S))
    if int(i) not in sel:
        raise InvalidInputError(f"index i={i} must belong to S={sel}")
    A = as_matrix(B)
    if sel[0] < 0 or sel[-1] >= A.shape[0]:
        raise InvalidInputError(f"S={sel} out of range for n={A.shape[0]}")
    return float(_set_distances(A[None], np.array([sel]))[0, 0, sel.index(int(i))])


def singular_values(B) -> np.ndarray:
    """Singular values of ``B`` in descending order."""
    return np.linalg.svd(as_matrix(B), compute_uv=False)


def _extremes(A: np.ndarray) -> tuple[float, float, float]:
    """``(s_min, s_max, hs_inverse)`` of a square matrix from one SVD.

    The SVD is taken of the matrix :func:`_scaled` returns and the
    results are scaled back by the same power of two, so ``sigma ** -2``
    neither overflows nor underflows at extreme scales; at ordinary
    scales the matrix is used as given.  A matrix whose smallest singular
    value is at or below the rank tolerance is singular: ``s_min`` is
    then 0 and ``hs_inverse`` is ``+inf``.  Inputs are not checked.
    """
    A, e, scale = _scaled(A)
    s = np.linalg.svd(A, compute_uv=False)
    s_max = float(np.ldexp(s[0], e))
    if s[-1] <= RANK_RTOL * scale:
        return 0.0, s_max, math.inf
    return float(np.ldexp(s[-1], e)), s_max, float(np.ldexp(np.sqrt(np.sum(s**-2.0)), -e))


class _Certified(NamedTuple):
    """Result of :func:`_certified`: the statistic, the power steps taken,
    and why the trial fell back to :func:`_extremes` (``""`` when it did
    not)."""

    value: float
    steps: int
    fallback: str


def _certified(A: np.ndarray, smin: bool, cuts) -> _Certified:
    """``s_min(A)`` when ``smin``, else ``hs_inverse(A)``, from the
    ``A.T = Q R`` and ``W = R^-1`` of :func:`_factor`, on the same side of
    every value in ``cuts`` and of the rank tolerance as :func:`_extremes`.

    ``hs_inverse`` is ``norm(W, 'fro')``, the negative second moment
    identity.  ``s_min`` is ``1 / sqrt(lambda_1)``, ``lambda_1`` the top
    eigenvalue of ``W.T W``, found by power iteration.  With ``rho`` the
    Rayleigh quotient of a unit vector and ``r`` its residual,
    ``1 / sqrt(rho)`` bounds ``s_min`` from above; since the trace of
    ``W.T W`` is ``norm(W, 'fro')**2``, ``alpha = trace - rho`` bounds
    ``lambda_2``, and when ``alpha < rho`` the Kato-Temple inequality
    ``lambda_1 <= rho + norm(r)**2 / (rho - alpha)`` bounds it from
    below.  The iteration stops once that bracket is ``_BRACKET_RTOL``
    tight and returns its upper end.  The bound needs ``rho > trace / 2``,
    and ``rho <= lambda_1 <= norm(W, 1) * norm(W, inf)``: when that
    product is at most half the trace no bracket can be certified, and
    the SVD is taken at once.

    The bracket, or for ``hs_inverse`` the interval that ``s_min >= 1 /
    norm(W, 'fro')`` gives, is widened by the rounding margin
    ``_MARGIN * n * eps * sqrt(n) * scale`` on ``s_min``, ``sqrt(n) *
    scale`` bounding ``norm(A, 2)``.  The trial falls back to
    :func:`_extremes`, and returns its value, when the rows are dependent
    at the tolerance (``"rank"``), when certification is impossible
    (``"early"``) or needs more than ``_POWER_STEPS`` steps (``"cap"``),
    when the widened interval contains a cut (``"cut"``), or when its
    lower end of ``s_min`` is at or below the rank tolerance
    (``"tolerance"``).  Every comparison of the returned value with a cut
    or with the tolerance therefore comes out as for the SVD value.
    ``cuts`` are in the units of the statistic.  Inputs are not checked.
    """
    _, e, scale, _, _, W, ok = _factor(A[None])
    if not ok[0]:
        return _fallback(A, smin, 0, "rank")
    W, e, scale = W[0], int(e[0]), float(scale[0])
    n = W.shape[0]
    w = W.ravel(order="K")
    trace = float(w @ w)
    margin = _MARGIN * n * _EPS * math.sqrt(n) * scale
    steps = 0
    if smin:
        absW = np.abs(W)
        row_sums = absW.sum(axis=1)
        top = int(np.argmax(row_sums))
        if float(row_sums[top]) * float(absW.sum(axis=0).max()) <= trace / 2.0:
            return _fallback(A, smin, 0, "early")
        x = W[top] / np.linalg.norm(W[top])
        for steps in range(1, _POWER_STEPS + 1):
            y = dtrmv(W, x)
            z = dtrmv(W, y, trans=1)
            rho = float(y @ y)
            alpha = trace - rho
            if alpha < rho:
                r = z - rho * x
                high = 1.0 / math.sqrt(rho)
                low = 1.0 / math.sqrt(rho + float(r @ r) / (rho - alpha))
                if high - low <= _BRACKET_RTOL * low:
                    break
            x = z / math.sqrt(float(z @ z))
        else:
            return _fallback(A, smin, steps, "cap")
        value, s_low = high, low - margin
    else:
        value = math.sqrt(trace)
        s_low = 1.0 / value - margin
    if s_low <= RANK_RTOL * scale:
        return _fallback(A, smin, steps, "tolerance")
    if smin:
        low, high, exponent = s_low, value + margin, -e
    else:
        # s_min >= 1 / value > margin: moving every singular value by at most
        # margin moves each sigma_i^-1, so hs_inverse, by a factor within
        # 1 -+ margin * value
        spread = margin * value
        low, high, exponent = value / (1.0 + spread), value / (1.0 - spread), e
    if any(low <= math.ldexp(c, exponent) <= high for c in cuts):
        return _fallback(A, smin, steps, "cut")
    return _Certified(math.ldexp(value, -exponent), steps, "")


def _fallback(A: np.ndarray, smin: bool, steps: int, reason: str) -> _Certified:
    s_min, _, hs = _extremes(A)
    return _Certified(s_min if smin else hs, steps, reason)


def hs_inverse(B) -> float:
    """Hilbert-Schmidt norm of the inverse, ``+inf`` when singular.

    Computed as ``sqrt(sum(sigma_i ** -2))`` from the singular values;
    singularity is decided at the rank tolerance.
    """
    return _extremes(as_matrix(B))[2]


@dataclass
class SingularData:
    """Extreme singular values, inverse HS norm, and row-to-span distances.

    ``s_min`` is reported as exactly 0 and ``hs_inverse`` as ``+inf``
    when the matrix is singular at the rank tolerance, which keeps
    Monte Carlo counting total on singular realizations.
    """

    s_min: float
    s_max: float
    hs_inverse: float
    row_distances: np.ndarray


def singular_data(B) -> SingularData:
    """Compute :class:`SingularData` for a square matrix."""
    A = as_matrix(B)
    s_min, s_max, hs = _extremes(A)
    return SingularData(s_min=s_min, s_max=s_max, hs_inverse=hs, row_distances=row_distances(A))
