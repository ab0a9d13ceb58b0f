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
factorization (:func:`_set_distances`); the span leaves out the rows of
the set, so another vector is measured against it by putting the vector
in place of a row of the set.  Both take that factorization from
:func:`_factor`, which factors a stack of matrices of one shape, one
LAPACK call and one rank test per member, a single matrix being a stack
of one; the lemma suites hand it every instance of one shape at once.
A family that is rank deficient at the tolerance falls back to the SVD
primitive set by set, a row being the singleton set
(:func:`_svd_distances`), so every operation stays well defined for
singular inputs.  ``s_min``, ``s_max`` and the inverse's HS norm come
from one SVD of the power-of-two-scaled matrix, for a whole stack in one
call (:func:`_stack_extremes`, :func:`_extremes` for one matrix).  The
Monte Carlo statistics place ``s_min`` or the HS norm among their grid
thresholds instead (:func:`_stack_certified`, a single matrix being a
stack of one), with a certificate that every threshold comparison and
singularity decision comes out as for the SVD.  A diagonal dominance
screen (:func:`_screened`) decides in ``O(n**2)`` the trials that
Johnson's lower bound on ``s_min`` (C. R. Johnson, "A Gersgorin-type
lower bound for the smallest singular value", Linear Algebra Appl. 112,
1989), less its rounding slacks, places above every threshold
(:func:`_dominance_bound`).  The others get a bracket from the same QR
factorization and triangular inverse as the distances
(:func:`_qr_certified`), and take the SVD when the certificate does not
cover them: their rows are dependent at the tolerance, the tolerance or
a threshold lies within the rounding margin of every value the bracket
allows, or ``_POWER_STEPS`` (8) power steps do not decide.
Every stacked kernel gives a member the bits a stack of one gives it, so
stacking trials changes no count.  Every kernel takes its rank scale
from :func:`_scaled`, which also rescales a matrix whose row norms would
overflow or underflow by an exact power of two.

Every BLAS and LAPACK call goes to the one OpenBLAS that numpy bundles
and loads (``numpy.libs/libscipy_openblas64_*.so``, numpy >= 2.0): numpy
itself for the SVDs and products, and, through ``ctypes``, its LAPACK
``dgeqrf`` and ``dtrtri`` for :func:`_factor`.  Importing this module
fails with an ``ImportError`` naming the library or the symbol when they
are missing.  BLAS thread counts are process-wide, and
``_single_thread_blas`` runs that OpenBLAS on one thread, then restores
its count.  It serves the Monte Carlo trials only:
``experiments.map_trials`` runs under it so that trial workers do not
compete with BLAS threads.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
import os
import threading
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, decoding, integer

# A direction of the spanning set is kept iff its singular value exceeds
# RANK_RTOL times the largest row norm of the spanning set; a matrix is
# declared singular iff its smallest singular value falls below the same
# scale-aware threshold.
RANK_RTOL = 1e-10

# Power steps _stack_certified may take on s_min before the trial falls back
# to the SVD.  On 20 000 Gaussian n = 200 trials on the criterion-02 grid
# (seeds 20260810, 7, 11 and 12345), the kernel decided 15538, 4141 and 304
# trials after 0, 1 and 2 steps and 13 after 3 to 8; 4 reach the cap.  A step
# costs about 1% of a trial's QR and triangular inverse at n = 200 (12 us
# against 1.4 ms on a 2-vCPU Xeon), so running to the cap costs little.
_POWER_STEPS = 8

# c in the rounding margin c * n * eps * norm(A) of _stack_certified: it covers the
# backward errors of the QR factorization, the triangular inverse and the
# SVD it stands in for, and the rounding of the sums it forms.
_MARGIN = 8.0
_EPS = float(np.finfo(float).eps)

# c in the slack c * n * eps * max_i T_i of _dominance_bound: it covers the
# rounding of the absolute row and column sums T_i and of the subtractions
# that follow.
_SUM_SLACK = 2.0

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


def _stack_scaled(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_scaled` of every member of a stack ``X`` of shape ``(N, m,
    d)``: ``(X, e, scale)`` with ``(N,)`` arrays ``e`` and ``scale``.  The
    scales are taken for the whole stack at once, in the order
    :func:`_scaled` takes them for one member, and only the members outside
    ``_SAFE_RANGE`` are rescaled, on a copy of ``X``.
    """
    # the bits of np.linalg.norm(X, axis=2), with one temporary where it makes two
    scale = np.sqrt(np.add.reduce(X * X, axis=2)).max(axis=1)
    e = np.zeros(len(X), dtype=int)
    wild = [k for k, s in enumerate(scale.tolist()) if not _SAFE_RANGE[0] <= s <= _SAFE_RANGE[1]]
    if wild:
        X = X.copy()
        for k in wild:
            X[k], e[k], scale[k] = _scaled(X[k])
    return X, e, scale


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
    W: np.ndarray  # (N, m, m): R^-1 where ok[k], else the identity; members Fortran-ordered
    ok: np.ndarray  # (N,) whether the rows of the member are independent


def _factor(X: np.ndarray) -> _Factored:
    """Factor every family of a stack ``X`` of shape ``(N, m, d)``; a single
    family is a stack of one.

    Each member gets its own :func:`_scaled` exponent, its own LAPACK
    ``geqrf`` of ``A[k].T = Q R``, of which only ``R`` is kept, and, when
    every ``|R_jj|`` exceeds ``RANK_RTOL`` times its scale, its own ``W[k]
    = R^-1`` from ``trtri``.  ``ok[k]`` is false, and ``W[k]`` is the
    identity, when ``m > d`` or some ``|R_jj|`` is at or below the
    tolerance, that is when the rows are linearly dependent at the
    tolerance.  The members of ``W`` are Fortran-ordered, as the ``trtri``
    output for one family is, so row norms taken along its last axis add
    in the same order as for one family.
    """
    N, m, d = X.shape
    X, e, scale = _stack_scaled(X)
    if m > d:
        W = np.broadcast_to(np.eye(m), (N, m, m)).copy().transpose(0, 2, 1)
        return _Factored(X, e, scale, W, np.zeros(N, dtype=bool))
    Rt = _geqrf(X)
    # R^T is lower triangular, and the transpose of a C-ordered stack has
    # Fortran-ordered members, which trtri inverts in place
    np.copyto(Rt, 0.0, where=_above_diagonal(m))
    W = Rt.transpose(0, 2, 1)
    ok = np.abs(np.diagonal(W, axis1=1, axis2=2)).min(axis=1) > RANK_RTOL * scale
    for k in (~ok).nonzero()[0].tolist():
        W[k] = np.eye(m)
    _trtri(Rt, ok.nonzero()[0].tolist())
    return _Factored(X, e, scale, W, ok)


@functools.cache
def _above_diagonal(m: int) -> np.ndarray:
    """The read-only ``(m, m)`` mask of the entries above the diagonal."""
    mask = ~np.tri(m, dtype=bool)
    mask.flags.writeable = False
    return mask


def _row_profile(X: np.ndarray) -> np.ndarray:
    """Distance of each row of every family of a stack ``X`` of shape ``(N,
    m, d)`` (``m >= 2``) to the span of the other rows of its family, as an
    ``(N, m)`` array: the :func:`row_distances` arithmetic for the members
    whose rows are independent at the rank tolerance,
    :func:`_svd_distances` with one singleton set per row for the others.
    Inputs are not checked.
    """
    A, e, _, W, ok = _factor(X)
    # the row norms of W as np.linalg.norm takes them, squared in place
    d = 1.0 / np.sqrt(np.square(W, out=W).sum(axis=2))
    for k, independent in enumerate(ok.tolist()):
        if not independent:
            d[k] = _svd_distances(A[k], np.arange(d.shape[1])[:, None])[:, 0]
    return np.ldexp(d, e[:, None]) if e.any() else d


def _set_distances(A: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """Complement distances of a stack of index sets, one factorization per
    matrix of a stack.

    ``A`` has shape ``(N, n, n)``, a single matrix being a stack of one.
    ``sets`` is an integer array of shape ``(S, k)`` whose rows are
    strictly ascending row indices; entry ``[j, s, p]`` of the result is
    the distance of row ``sets[s, p]`` of ``A[j]`` to the span of the rows
    of ``A[j]`` outside ``sets[s]``.  That span does not depend on the rows
    of the set, so the distance of another vector to it is that of a row
    of the set replaced by the vector.

    By duality the orthogonal complement of that span is spanned by
    columns ``S`` of ``A^-1 = Q R^-T`` (``A.T = Q R``), that is by ``Q``
    times ``P_S = (R^-1)[S, :].T``.  One batched QR ``P_S = U_S T_S``, of
    which only ``T_S`` is formed, then gives the distance of row ``m`` as
    the norm of its row of ``T_S^-1``.  Every set of a matrix that is rank
    deficient at the tolerance falls back to :func:`_svd_distances`.
    Inputs are not checked.
    """
    f = _factor(A)
    d = np.empty((len(A),) + sets.shape)
    independent = f.ok.nonzero()[0]
    if independent.size:
        P = f.W[independent][:, sets].swapaxes(-1, -2)
        d[independent] = np.linalg.norm(np.linalg.inv(np.linalg.qr(P, mode="r")), axis=-1)
    for k in (~f.ok).nonzero()[0]:
        d[k] = _svd_distances(f.A[k], sets)
    return np.ldexp(d, f.e[:, None, None])


def _svd_distances(A: np.ndarray, sets) -> np.ndarray:
    """The complement distances of :func:`_set_distances` set by set: one
    :func:`span_basis` of the rows of ``A`` outside each set, those rows
    taken in ascending order, against which the rows of the set are
    measured with :func:`residual_norm`.  The SVD path of the
    rank-deficient families of :func:`_row_profile` and
    :func:`_set_distances`; inputs are not checked.
    """
    everything = np.arange(A.shape[0])
    bases = [span_basis(A[np.setdiff1d(everything, S)]) for S in sets]
    return np.array([[residual_norm(A[m], basis) for m in S] for S, basis in zip(sets, bases)])


def dist_to_complement(B, i: int, S) -> float:
    """Distance from row ``i`` to the span of the rows outside ``S``.

    Requires ``i in S``; with ``S == {i}`` this is ``row_distances(B)[i]``.
    ``i`` and the entries of ``S`` must be integers.
    """
    with decoding("i"):
        i = integer(i)
    with decoding("S"):
        sel = sorted(set(integer(j) for j in S))
    if i not in sel:
        raise InvalidInputError(f"index i={i} must belong to S={sel}")
    A = as_matrix(B)
    if sel[0] < 0 or sel[-1] >= A.shape[0]:
        raise InvalidInputError(f"S={sel} out of range for n={A.shape[0]}")
    return float(_set_distances(A[None], np.array([sel]))[0, 0, sel.index(i)])


def singular_values(B) -> np.ndarray:
    """Singular values of ``B`` in descending order."""
    return np.linalg.svd(as_matrix(B), compute_uv=False)


def _extremes(A: np.ndarray) -> tuple[float, float, float]:
    """``(s_min, s_max, hs_inverse)`` of a square matrix:
    :func:`_stack_extremes` of a stack of one.  Inputs are not checked."""
    s_min, s_max, hs = _stack_extremes(A[None])
    return float(s_min[0]), float(s_max[0]), float(hs[0])


def _stack_extremes(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(s_min, s_max, hs_inverse)`` of every member of a stack ``X`` of
    square matrices, as three ``(N,)`` arrays, from one SVD call.

    The SVD of each member is taken of the matrix :func:`_stack_scaled`
    returns for it and the results are scaled back by the same power of
    two, so ``sigma ** -2`` neither overflows nor underflows at extreme
    scales; at ordinary scales the member is used as given.  A member
    whose smallest singular value is at or below the rank tolerance is
    singular: its ``s_min`` is then 0 and its ``hs_inverse`` is ``+inf``.
    A member gets the bits a stack of one gives it.  Inputs are not
    checked.
    """
    X, e, scale = _stack_scaled(X)
    s = np.linalg.svd(X, compute_uv=False)
    regular = s[:, -1] > RANK_RTOL * scale
    with np.errstate(divide="ignore", over="ignore"):  # singular members are set to inf
        hs = np.ldexp(np.sqrt(np.sum(s**-2.0, axis=1)), -e)
    return (np.where(regular, np.ldexp(s[:, -1], e), 0.0), np.ldexp(s[:, 0], e),
            np.where(regular, hs, math.inf))


class _Certified(NamedTuple):
    """Result of :func:`_stack_certified` for one trial: how many cuts it
    hits, the power steps taken, and why it fell back to the SVD (``""``
    when it did not)."""

    hits: int
    steps: int
    fallback: str


def _stack_certified(X: np.ndarray, smin: bool, cuts, unit: float = 1.0) -> list[_Certified]:
    """How many values in ``cuts`` each trial of a stack ``X`` of square
    matrices hits, ``s_min(A) * unit <= c`` when ``smin``, else
    ``hs_inverse(A) / unit >= c``, counted as for the value
    :func:`_extremes` gives.

    The diagonal dominance screen :func:`_screened` goes first and gives
    each member it decides ``_Certified(0, 0, "")`` without a
    factorization.  The other members go on, as one stack, to
    :func:`_qr_certified`.  A member gets the result a stack of one gives
    it.  Inputs are not checked.
    """
    out = [_Certified(0, 0, "")] * len(X)
    rest = (~_screened(X, smin, cuts, unit)).nonzero()[0]
    if rest.size:
        stack = X if rest.size == len(X) else X[rest]
        for k, got in zip(rest.tolist(), _qr_certified(stack, smin, cuts, unit)):
            out[k] = got
    return out


def _dominance_bound(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(low, scale)`` of every member ``A`` of a stack ``X`` of square
    matrices, as two ``(N,)`` arrays: a lower bound ``low`` on ``s_min(A)``
    and an upper bound ``scale`` on the largest row norm of ``A`` as
    :func:`_scaled` computes it, both from absolute row and column sums.

    ``low`` is Johnson's bound (C. R. Johnson, "A Gersgorin-type lower
    bound for the smallest singular value", Linear Algebra Appl. 112,
    1989), ``s_min(A) >= min_i (|a_ii| - (R_i + C_i) / 2)`` with ``R_i``
    and ``C_i`` the off-diagonal absolute sums of row ``i`` and of column
    ``i``.  It is taken as ``min_i (2 |a_ii| - T_i / 2)``, ``T_i`` the sum
    of the absolute sums of row ``i`` and of column ``i``.  A computed sum
    of ``n`` nonnegative terms lies within a relative ``(n - 1) eps / 2``
    (to first order) of the exact sum, in any order of summation, so
    ``low`` subtracts the slack ``_SUM_SLACK * n * eps * max_i T_i``, which
    covers that error, the roundings of the subtractions here and that of
    the margin :func:`_screened` subtracts next.  ``scale`` is the largest
    absolute row sum ``max_i (|a_ii| + R_i)`` times ``1 + 2 n eps``: a 2-norm
    is at most the 1-norm, and the factor covers the rounding of both.
    Each member is reduced on its own, so it gets the bits a stack of one
    gives it.  Inputs are not checked.
    """
    N, n, _ = X.shape
    rows, sums = np.empty((N, n)), np.empty((N, n))
    # one member at a time: a fresh stack-sized temporary costs more in page
    # faults than the sums themselves
    absA = np.empty((n, n))
    for k in range(N):
        np.abs(X[k], out=absA)
        absA.sum(axis=1, out=rows[k])
        absA.sum(axis=0, out=sums[k])
    sums += rows
    bound = (2.0 * np.abs(np.diagonal(X, axis1=1, axis2=2)) - 0.5 * sums).min(axis=1)
    return bound - _SUM_SLACK * n * _EPS * sums.max(axis=1), rows.max(axis=1) * (1.0 + 2.0 * n * _EPS)


def _screened(X: np.ndarray, smin: bool, cuts, unit: float) -> np.ndarray:
    """Which members of a stack ``X`` hit none of ``cuts`` for certain, as an
    ``(N,)`` boolean array, from :func:`_dominance_bound` in ``O(n**2)``
    per member and without a factorization.

    With ``low`` the bound less the rounding margin ``_MARGIN * n * eps *
    sqrt(n) * scale`` of the QR bracket, every singular value the SVD of
    :func:`_extremes` computes is at least ``low``.  A member is decided
    when ``low`` clears the rank tolerance ``RANK_RTOL * scale``, so the
    SVD calls it regular, and, for ``s_min``, when ``low * unit`` exceeds
    every cut; for ``hs_inverse``, when ``sqrt(n) / low``, an upper bound
    on ``hs_inverse`` once widened by ``1 + 4 n eps`` for the rounding of
    the sum of ``n`` inverse squares and its square root, is below every
    cut after division by ``unit``.  Both compare in the units of the
    cuts, as the SVD fallback does, and rounding is monotone, so every
    member decided here has 0 hits as for the SVD value.

    An ``O(n)`` gate on ``min_i |a_ii|``, an upper bound on ``low``, runs
    first, so a member without a dominant diagonal, such as a Gaussian
    trial without a shift, costs no pass over its entries.  Members with
    ``scale`` above ``_SAFE_RANGE`` or a diagonal entry below twice its
    lower end, which :func:`_scaled` might rescale, are left undecided, as
    is every member when ``cuts`` is empty or, for ``hs_inverse``, holds a
    cut at or below 0.
    """
    N, n, _ = X.shape
    decided = np.zeros(N, dtype=bool)
    if not len(cuts):
        return decided
    if smin:
        floor = max(cuts) / unit
    elif min(cuts) > 0:
        floor = math.sqrt(n) / (min(cuts) * unit)
    else:
        return decided
    diagonal = np.abs(np.diagonal(X, axis1=1, axis2=2)).min(axis=1)
    gated = (diagonal > max(floor, 2.0 * _SAFE_RANGE[0])).nonzero()[0]
    if not gated.size:
        return decided
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        low, scale = _dominance_bound(X if gated.size == N else X[gated])
        low -= _MARGIN * n * _EPS * math.sqrt(n) * scale
        ok = (scale <= _SAFE_RANGE[1]) & (low > RANK_RTOL * scale)
        if smin:
            ok &= low * unit > max(cuts)
        else:
            ok &= math.sqrt(n) / low * (1.0 + 4.0 * n * _EPS) / unit < min(cuts)
    decided[gated[ok]] = True
    return decided


def _qr_certified(X: np.ndarray, smin: bool, cuts, unit: float) -> list[_Certified]:
    """:func:`_stack_certified` of the members the screen leaves, from the
    ``A.T = Q R`` and ``W = R^-1`` of :func:`_factor`.

    Only the position of the statistic among the cuts and the rank
    tolerance is certified, not its value.  ``hs_inverse`` is ``norm(W,
    'fro')``, the negative second moment identity.  ``s_min`` is ``1 /
    sqrt(lambda_1)``, ``lambda_1`` the top eigenvalue of ``W.T W``, which
    is bracketed by bounds at hand.  From above by the trace ``norm(W,
    'fro')**2``, by ``norm(W, 1) * norm(W, inf)`` and, once power
    iteration gives a unit vector whose Rayleigh quotient ``rho`` exceeds
    ``alpha = trace - rho`` (a bound on ``lambda_2``), by the Kato-Temple
    bound ``rho + norm(r)**2 / (rho - alpha)``, ``r`` the residual.  From
    below by the largest squared row or column norm of ``W`` and by every
    ``rho``.  The iteration starts at the row of largest norm and stops as
    soon as the bracket of ``s_min``, widened by the rounding margin
    ``_MARGIN * n * eps * sqrt(n) * scale`` (``sqrt(n) * scale`` bounds
    ``norm(A, 2)``), contains no cut and its lower end is above the rank
    tolerance; on the clustered spectra of a large shift that is before
    the first step.  The norm product and the column norms are formed
    lazily, for a member that the trace and the row norms leave undecided
    before the first step: a narrower bracket decides every member that a
    wider one decides, with the same hits, so this changes no result.

    The trial falls back to :func:`_extremes` and counts its value, for
    the first of these reasons that applies: the rows are dependent at the
    tolerance (``"rank"``), the bracket shows that its lower end can never
    clear the tolerance (``"tolerance"``) or that a cut lies within the
    margin of every value in it (``"cut"``), or ``_POWER_STEPS`` steps do
    not decide (``"cap"``), as when ``lambda_1`` is about half the trace,
    so that ``rho`` passes ``trace / 2`` late or never.
    ``hs_inverse`` falls back with ``"tolerance"`` when ``1 / norm(W,
    'fro')``, widened likewise, does not clear the tolerance, and with
    ``"cut"`` when its widened interval contains a cut.  Every hit
    therefore comes out as for the SVD value: the cuts are moved to the
    units of ``A`` for the bracket, whose margin covers the rounding of
    that move, and a fallback compares the scaled SVD value with the cuts
    as given.  Ascending cuts are hit in a suffix for ``s_min`` and in a
    prefix for ``hs_inverse``.

    One :func:`_factor` call gives the trace and the row norms of every
    member at once.  Power steps run member by member, only for the members
    the bracket before the first step does not decide, and the members that
    fall back share one :func:`_stack_extremes` call.  A member gets the
    result a stack of one gives it.  Inputs are not checked.
    """
    f = _factor(X)
    n = f.W.shape[1]
    # the squared row norms in the order np.square(W).sum(axis=2) adds them,
    # without a stack-sized temporary
    rows = np.einsum("kij,kij->ki", f.W, f.W)
    traces = rows.sum(axis=1).tolist()
    if smin:
        lam_lows = rows.max(axis=1).tolist()
    root = _MARGIN * n * _EPS * math.sqrt(n)
    out = []
    for k, (independent, e, scale) in enumerate(zip(f.ok.tolist(), f.e.tolist(), f.scale.tolist())):
        if not independent:
            out.append(_Certified(0, 0, "rank"))
        elif smin:
            scaled = [math.ldexp(c / unit, -e) for c in cuts]
            out.append(_smin_position(f.W[k], rows[k], traces[k], traces[k], lam_lows[k], scaled,
                                      root * scale, RANK_RTOL * scale))
        else:
            scaled = [math.ldexp(c * unit, e) for c in cuts]
            out.append(_hs_position(traces[k], scaled, root * scale, RANK_RTOL * scale))
    fallen = [k for k, got in enumerate(out) if got.fallback]
    if fallen:
        s_min, _, hs = _stack_extremes(X[fallen])
        for k, s, h in zip(fallen, s_min.tolist(), hs.tolist()):
            hits = sum(s * unit <= c for c in cuts) if smin else sum(h / unit >= c for c in cuts)
            out[k] = out[k]._replace(hits=int(hits))
    return out


def _hs_position(trace: float, scaled, margin: float, tolerance: float) -> _Certified:
    """The ``hs_inverse`` position of :func:`_stack_certified` for one
    member, ``scaled`` its cuts in the units of the member; a fallback
    counts 0 hits."""
    value = math.sqrt(trace)
    if 1.0 / value - margin <= tolerance:
        return _Certified(0, 0, "tolerance")
    # s_min >= 1 / value > margin: moving every singular value by at most
    # margin moves each sigma_i^-1, so hs_inverse, by a factor within
    # 1 -+ margin * value
    spread = margin * value
    low, high = value / (1.0 + spread), value / (1.0 - spread)
    if any(low <= c <= high for c in scaled):
        return _Certified(0, 0, "cut")
    return _Certified(sum(c < low for c in scaled), 0, "")


def _smin_position(W: np.ndarray, rows: np.ndarray, trace: float, lam_high: float, lam_low: float,
                   scaled, margin: float, tolerance: float) -> _Certified:
    """The ``s_min`` position of :func:`_stack_certified` for one member
    with ``W = R^-1``, the squared row norms ``rows`` of ``W`` and the
    bracket ``[lam_low, lam_high]`` of ``lambda_1`` before the first step;
    ``scaled`` are its cuts in the units of the member.  When that bracket
    does not decide, it is narrowed by the largest squared column norm of
    ``W`` and by ``norm(W, 1) * norm(W, inf)`` before the first step.  A
    fallback counts 0 hits."""
    hits = _smin_decided(lam_high, lam_low, scaled, margin, tolerance)
    if hits is not None:
        return _Certified(hits, 0, "")
    absW = np.abs(W)
    lam_high = min(lam_high, float(absW.sum(axis=1).max() * absW.sum(axis=0).max()))
    lam_low = max(lam_low, float(np.square(absW, out=absW).sum(axis=0).max()))
    for steps in range(_POWER_STEPS + 1):
        if steps == 1:  # the bracket before the first step did not decide
            top = int(np.argmax(rows))
            x = W[top] / math.sqrt(float(rows[top]))
        if steps:
            y = W @ x
            z = y @ W
            rho = float(y @ y)
            lam_low = max(lam_low, rho)
            if trace - rho < rho:
                r = z - rho * x
                lam_high = min(lam_high, rho + float(r @ r) / (2.0 * rho - trace))
            x = z / math.sqrt(float(z @ z))
        hits = _smin_decided(lam_high, lam_low, scaled, margin, tolerance)
        if hits is not None:
            return _Certified(hits, steps, "")
        low, high = 1.0 / math.sqrt(lam_high), 1.0 / math.sqrt(lam_low)
        # s_min of the computed W lies in [low, high], and the bracket can
        # shrink to no less than that value -+ margin
        if high - margin <= tolerance:
            return _Certified(0, steps, "tolerance")
        if any(high - margin <= c <= low + margin for c in scaled):
            return _Certified(0, steps, "cut")
    return _Certified(0, _POWER_STEPS, "cap")


def _smin_decided(lam_high: float, lam_low: float, scaled, margin: float, tolerance: float) -> int | None:
    """The cuts hit when the bracket ``[lam_low, lam_high]`` of ``lambda_1``
    decides them, ``None`` when it does not: the ``s_min`` bracket it gives,
    widened by ``margin``, must hold no cut and lie above ``tolerance``."""
    low, high = 1.0 / math.sqrt(lam_high), 1.0 / math.sqrt(lam_low)
    if low - margin > tolerance and not any(low - margin <= c <= high + margin for c in scaled):
        return sum(c > high for c in scaled)
    return None


def hs_inverse(B) -> float:
    """Hilbert-Schmidt norm of the inverse, ``+inf`` when singular.

    Computed as ``sqrt(sum(sigma_i ** -2))`` from the singular values;
    singularity is decided at the rank tolerance.
    """
    return _extremes(as_matrix(B))[2]


def _geqrf(X: np.ndarray) -> np.ndarray:
    """``R^T`` of ``X[k].T = Q R`` for every member of a stack ``X`` of shape
    ``(N, m, d)``, ``m <= d``, as a C-ordered ``(N, m, m)`` stack whose
    strictly upper triangles are left over from LAPACK ``dgeqrf``.

    A member of a C-ordered copy of ``X`` is its transpose in Fortran
    order, which ``dgeqrf`` overwrites in place with ``R`` in its upper
    triangle, that is ``R^T`` in the lower triangle of the first ``m``
    columns of the member.  The workspace has the size
    :func:`_geqrf_work` gives.
    """
    F = np.array(X, dtype=np.float64, order="C")
    N, m, d = F.shape
    if not F.size:
        return F[:, :, :m]
    rows, cols, lwork, info = (ctypes.c_int64(v) for v in (d, m, _geqrf_work(d, m), 0))
    # a workspace of this call's own, so that trial threads never share one
    tau, work = np.empty(m), np.empty(lwork.value)
    base, step, tau_at, work_at = _address(F), F.strides[0], _address(tau), _address(work)
    for k in range(N):
        _BLAS.dgeqrf(rows, cols, base + k * step, rows, tau_at, work_at, lwork, info)
    if info.value:  # an illegal argument, the same for every member
        raise RuntimeError(f"LAPACK dgeqrf failed on a ({d}, {m}) matrix: info {info.value}")
    return np.ascontiguousarray(F[:, :, :m])


def _address(a: np.ndarray) -> int:
    """The address of the first byte of a contiguous, writable, nonempty
    array: about a third of the cost of ``a.ctypes.data``, which costs more
    than a small LAPACK call."""
    return ctypes.addressof(ctypes.c_char.from_buffer(a))


@functools.cache
def _geqrf_work(d: int, m: int) -> int:
    """The workspace size LAPACK ``dgeqrf`` asks for on a ``(d, m)`` matrix,
    from a workspace query, which reads no matrix."""
    rows, cols, lwork, info = (ctypes.c_int64(v) for v in (d, m, -1, 0))
    size = np.empty(1)
    _BLAS.dgeqrf(rows, cols, None, rows, None, size.ctypes.data, lwork, info)
    return max(int(size[0]), 1)


def _trtri(Rt: np.ndarray, members: list[int]) -> None:
    """LAPACK ``dtrtri`` in place on ``R = Rt[k].T``, upper triangular, for
    each listed member ``k`` of a C-ordered stack ``Rt`` of shape ``(N, m,
    m)``: ``Rt[k]`` is ``R`` in Fortran order."""
    if Rt.dtype != np.float64 or not Rt.flags.c_contiguous or Rt.shape[1] != Rt.shape[2]:
        raise ValueError(f"dtrtri needs a C-ordered float64 stack of square matrices, got "
                         f"{Rt.dtype} of shape {Rt.shape}")
    if not members:
        return
    n, info = ctypes.c_int64(Rt.shape[1]), ctypes.c_int64()
    base, step = _address(Rt), Rt.strides[0]
    for k in members:
        # the trailing 1s are the lengths of the two character arguments
        _BLAS.dtrtri(b"U", b"N", n, base + k * step, n, info, 1, 1)
        if info.value:
            raise RuntimeError(f"LAPACK dtrtri failed on member {k}: info {info.value}")


class _OpenBlas(NamedTuple):
    """The functions of numpy's bundled OpenBLAS that this module calls."""

    dgeqrf: Callable[..., None]
    dtrtri: Callable[..., None]
    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]


# numpy's bundled OpenBLAS: the file pattern in the numpy.libs directory beside
# the numpy package, and for each _OpenBlas field its symbol, return type and
# argument types.  The build is ILP64: LAPACK integers are 64 bits, passed by
# reference as Fortran passes them.
_OPENBLAS_PATTERN = "libscipy_openblas64_*.so"
_INT = ctypes.POINTER(ctypes.c_int64)
_PTR = ctypes.c_void_p
_OPENBLAS_SYMBOLS = (
    ("scipy_dgeqrf_64_", None, [_INT, _INT, _PTR, _INT, _PTR, _PTR, _INT, _INT]),
    ("scipy_dtrtri_64_", None,
     [ctypes.c_char_p, ctypes.c_char_p, _INT, _PTR, _INT, _INT, ctypes.c_size_t, ctypes.c_size_t]),
    ("scipy_openblas_get_num_threads64_", ctypes.c_int, []),
    ("scipy_openblas_set_num_threads64_", None, [ctypes.c_int]),
)


def _load_openblas(pattern: str) -> _OpenBlas:
    """The :class:`_OpenBlas` functions of the library matching ``pattern``
    in numpy's ``numpy.libs`` directory, which numpy has already loaded, so
    this binds the same copy; ``ImportError`` naming the library or the
    symbol when either is missing."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    paths = sorted(glob.glob(os.path.join(libdir, pattern)))
    if not paths:
        raise ImportError(f"sminlab needs the OpenBLAS bundled with numpy >= 2.0: "
                          f"no {pattern} in {libdir}")
    try:
        lib = ctypes.CDLL(paths[0])
    except OSError as exc:
        raise ImportError(f"sminlab cannot load numpy's OpenBLAS {paths[0]}: {exc}") from exc
    functions = []
    for symbol, restype, argtypes in _OPENBLAS_SYMBOLS:
        try:
            function = getattr(lib, symbol)
        except AttributeError:
            raise ImportError(f"sminlab needs {symbol} in numpy's OpenBLAS {paths[0]}") from None
        function.restype, function.argtypes = restype, argtypes
        functions.append(function)
    return _OpenBlas(*functions)


_BLAS = _load_openblas(_OPENBLAS_PATTERN)


class _SingleThreadBlas:
    """Context manager that runs numpy's OpenBLAS on one thread, for the
    Monte Carlo trials of ``experiments.map_trials``, its only user.

    Trial workers already use every core, and a BLAS that starts threads
    of its own inside each of them oversubscribes the machine.  BLAS
    thread counts are process-wide, so this state is too: overlapping
    uses (maps on several Python threads) are counted under a lock, the
    first to enter saves the count and the last to leave restores it.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._active = 0
        self._saved = 0

    def __enter__(self):
        with self._lock:
            if self._active == 0:
                self._saved = _BLAS.get_num_threads()
                _BLAS.set_num_threads(1)
            self._active += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._active -= 1
            if self._active == 0:
                _BLAS.set_num_threads(self._saved)


_single_thread_blas = _SingleThreadBlas()
