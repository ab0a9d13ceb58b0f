"""Dense linear-algebra kernels built around row-to-span distances.

The central quantity is the Euclidean distance from a row of a square
matrix to the span of (a subset of) the remaining rows.  For an
invertible matrix these distances are the reciprocals of the column
norms of the inverse, which ties them to the smallest singular value
and to the Hilbert-Schmidt norm of the inverse:

    hs_inverse(B)**2 == sum(row_distances(B) ** -2)

Distances to a general spanning set come from orthogonalizing that set
with the rank-revealing SVD.  The full profile ``row_distances`` uses
the duality instead: one QR factorization and a triangular inverse give
every row at once, and the matrix falls back to the SVD primitive row by
row when it is rank deficient at the tolerance, so every operation stays
well defined for singular inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgeqrf, dtrtri

from .errors import InvalidInputError

# A direction of the spanning set is kept iff its singular value exceeds
# RANK_RTOL times the largest row norm of the spanning set; a matrix is
# declared singular iff its smallest singular value falls below the same
# scale-aware threshold.
RANK_RTOL = 1e-10


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


def span_basis(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis (as rows) of the span of the given row vectors.

    Rank is decided by the documented tolerance: singular values at or
    below ``RANK_RTOL * max(row norms)`` are treated as zero.
    """
    R = np.atleast_2d(np.asarray(rows, dtype=float))
    if R.shape[0] == 0 or R.size == 0:
        return np.zeros((0, R.shape[1] if R.ndim == 2 else 0))
    scale = float(np.max(np.linalg.norm(R, axis=1)))
    if scale == 0.0:
        return np.zeros((0, R.shape[1]))
    _, s, Vt = np.linalg.svd(R, full_matrices=False)
    return Vt[s > RANK_RTOL * scale]


def residual_norm(x: np.ndarray, basis: np.ndarray) -> float:
    """Norm of ``x`` minus its projection onto the span of ``basis`` rows."""
    if basis.shape[0] == 0:
        return float(np.linalg.norm(x))
    return float(np.linalg.norm(x - basis.T @ (basis @ x)))


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
        return float(np.linalg.norm(v))
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
    n = A.shape[0]
    if n == 1:
        return np.array([float(np.linalg.norm(A[0]))])
    scale = float(np.max(np.linalg.norm(A, axis=1)))
    if scale == 0.0:
        return np.zeros(n)
    R = np.triu(dgeqrf(A.T)[0])
    if np.min(np.abs(np.diagonal(R))) > RANK_RTOL * scale:
        return 1.0 / np.linalg.norm(dtrtri(R, overwrite_c=1)[0], axis=1)
    idx = np.arange(n)
    return np.array([dist_to_span(A[i], A[idx != i]) for i in range(n)])


def complement_distances(B, S) -> dict[int, float]:
    """Distances of the rows indexed by ``S`` to the span of the rows outside ``S``.

    One orthogonalization of the complement serves every row of ``S``.
    """
    A = as_matrix(B)
    n = A.shape[0]
    sel = sorted(set(int(i) for i in S))
    if not sel:
        raise InvalidInputError("S must be non-empty")
    if sel[0] < 0 or sel[-1] >= n:
        raise InvalidInputError(f"S={sel} out of range for n={n}")
    keep = np.setdiff1d(np.arange(n), sel)
    basis = span_basis(A[keep]) if keep.size else np.zeros((0, n))
    return {i: residual_norm(A[i], basis) for i in sel}


def dist_to_complement(B, i: int, S) -> float:
    """Distance from row ``i`` to the span of the rows outside ``S``.

    Requires ``i in S``; with ``S == {i}`` this is ``row_distances(B)[i]``.
    """
    sel = set(int(j) for j in S)
    if int(i) not in sel:
        raise InvalidInputError(f"index i={i} must belong to S={sorted(sel)}")
    return complement_distances(B, sel)[int(i)]


def singular_values(B) -> np.ndarray:
    """Singular values of ``B`` in descending order."""
    return np.linalg.svd(as_matrix(B), compute_uv=False)


def _rank_tol(A: np.ndarray) -> float:
    return RANK_RTOL * float(np.max(np.linalg.norm(A, axis=1)))


def hs_inverse(B) -> float:
    """Hilbert-Schmidt norm of the inverse, ``+inf`` when singular.

    Computed as ``sqrt(sum(sigma_i ** -2))`` from the singular values;
    singularity is decided at the rank tolerance.
    """
    A = as_matrix(B)
    s = np.linalg.svd(A, compute_uv=False)
    if s[-1] <= _rank_tol(A):
        return float("inf")
    return float(np.sqrt(np.sum(s**-2.0)))


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
    s = np.linalg.svd(A, compute_uv=False)
    tol = _rank_tol(A)
    singular = s[-1] <= tol
    return SingularData(
        s_min=0.0 if singular else float(s[-1]),
        s_max=float(s[0]),
        hs_inverse=float("inf") if singular else float(np.sqrt(np.sum(s**-2.0))),
        row_distances=row_distances(A),
    )
