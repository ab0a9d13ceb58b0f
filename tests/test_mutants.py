"""Mutation table for the certified Monte Carlo kernel.

Each entry names a mutant of ``linalg``, the way to apply it with
``monkeypatch``, and the checks that must fail under it.  A check calls
oracle tests of ``test_linalg``, which pass on the kernel as it is; the
table fails when a mutant survives one of its checks, so a weakened
oracle shows here as well as the kernel change it should catch.
"""

import numpy as np
import pytest

import sminlab.linalg as la
import test_linalg as oracle


def row_sums_only(X):
    """``_dominance_bound`` with ``min_i (|a_ii| - R_i)``, row sums alone, in
    place of Johnson's bound: a bound on the eigenvalues, not on s_min."""
    n = X.shape[1]
    absX = np.abs(X)
    rows = absX.sum(axis=2)
    diagonal = np.abs(np.diagonal(X, axis1=1, axis2=2))
    low = (2.0 * diagonal - rows).min(axis=1) - la._SUM_SLACK * n * la._EPS * (2.0 * rows).max(axis=1)
    return low, rows.max(axis=1) * (1.0 + 2.0 * n * la._EPS)


def exact_bound_seeds():
    for seed in range(12):
        oracle.check_bound_below_exact_johnson(seed)


def planted_values_at_a_threshold():
    for offset in (0.0, 1e-12, -1e-12, 2e-12):
        oracle.TestCertifiedOracle().test_planted_value_at_a_grid_threshold_falls_back(offset)


# name -> (apply(monkeypatch), checks); each check must raise AssertionError
MUTANTS = {
    "screen without its rounding slack": (
        lambda mp: mp.setattr(la, "_SUM_SLACK", 0.0),
        [exact_bound_seeds],
    ),
    "screen on row sums only": (
        lambda mp: mp.setattr(la, "_dominance_bound", row_sums_only),
        [oracle.check_dense_column],
    ),
    "no rounding margin on the QR bracket": (
        lambda mp: mp.setattr(la, "_MARGIN", 0.0),
        [planted_values_at_a_threshold],
    ),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_killed(monkeypatch, name):
    apply, checks = MUTANTS[name]
    apply(monkeypatch)
    for check in checks:
        with pytest.raises(AssertionError):
            check()
