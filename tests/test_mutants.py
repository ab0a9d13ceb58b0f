"""Mutation table for the certified Monte Carlo kernel.

Each entry names a mutant of ``linalg``, the way to apply it with
``monkeypatch``, and the checks that must fail under it.  A check calls
oracle tests of ``test_linalg``, which pass on the kernel as it is; the
table fails when a mutant survives one of its checks, so a weakened
oracle shows here as well as the kernel change it should catch.  Each
mutant changes the certified path alone: the SVD that the oracles and
the kernel's fallback call keeps the true rank tolerance.
"""

import inspect
import textwrap

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


def certified_tolerance_times(factor):
    """Apply ``RANK_RTOL * factor`` inside ``_stack_certified`` (the screen,
    the factorization and the QR bracket) and the true tolerance inside
    ``_stack_extremes``, the SVD."""
    certified, extremes, true = la._stack_certified, la._stack_extremes, la.RANK_RTOL

    def with_tolerance(tolerance, kernel):
        def run(*args):
            saved, la.RANK_RTOL = la.RANK_RTOL, tolerance
            try:
                return kernel(*args)
            finally:
                la.RANK_RTOL = saved

        return run

    def apply(mp):
        mp.setattr(la, "_stack_certified", with_tolerance(factor * true, certified))
        mp.setattr(la, "_stack_extremes", with_tolerance(true, extremes))

    return apply


def rewritten(function, old, new):
    """``function`` compiled again in its module with the source text ``old``
    replaced by ``new``, which must occur in it exactly once."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, old
    namespace = {}
    exec(compile(source.replace(old, new), inspect.getsourcefile(function), "exec"),
         vars(inspect.getmodule(function)), namespace)
    return namespace[function.__name__]


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
    # hits stay the SVD's, since every trial the stricter tolerance leaves
    # undecided falls back to it; the trials just above the tolerance lose
    # their certificate
    "rank tolerance x1.02 on the certified path": (
        certified_tolerance_times(1.02),
        [oracle.check_just_above_the_tolerance],
    ),
    # lambda_lo above lambda_1 puts the upper end of the s_min bracket below
    # s_min: a cut between them counts as hit
    "unsound lambda_lo: every Rayleigh quotient x1.01": (
        lambda mp: mp.setattr(la, "_smin_position", rewritten(
            la._smin_position, "lam_low = max(lam_low, rho)", "lam_low = max(lam_low, 1.01 * rho)")),
        [oracle.TestCertifiedOracle().test_planted_value_off_the_grid_is_certified],
    ),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_killed(monkeypatch, name):
    apply, checks = MUTANTS[name]
    apply(monkeypatch)
    for check in checks:
        with pytest.raises(AssertionError):
            check()
