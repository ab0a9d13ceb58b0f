"""Mutation table for the certified Monte Carlo kernel, the stacked
trial draws, the batched alpha-eta verification, the re-keyed suite
streams, the exact half-cover search and the suites' Gauss-Jordan
elimination.

Each entry names a mutant of ``linalg``, ``experiments``, ``alphaeta``,
``samplers``, ``combinatorics`` or ``suites``, the way to apply it with
``monkeypatch``, and the checks that must fail under it.  A check calls
oracle tests of ``test_linalg``, ``test_experiments``, ``test_cli``,
``test_alphaeta``, ``test_samplers``, ``test_combinatorics``,
``test_suites`` or ``test_suite_draws``, which pass on the code as it is,
or runs a lemma suite; the table fails when a mutant
survives one of its checks, so a weakened oracle shows here as well as the
change it should catch.  Each ``linalg`` mutant changes the certified path
alone: the SVD that the oracles and the kernel's fallback call keeps the
true rank tolerance.  The ``experiments`` mutant changes the stacked draw
alone: its oracle, ``sample_matrix`` of one trial, is left as it is.  Each
``alphaeta`` mutant changes the one verification kernel, which the batch
and ``verify_alpharho`` share: its oracle, ``full_space_report`` of
``test_alphaeta``, evaluates a structure on the full space and is left as
it is.  The ``samplers`` mutant changes the re-keyed streams alone: their
oracle is a fresh ``SeedSpec.rng()`` per key.  The ``combinatorics``
mutant changes the bit-mask search: its oracle is the search that counts
the edges of each candidate set with a sum, kept in ``test_combinatorics``.
Each ``suites`` mutant changes ``_gauss_jordan``: its oracles are the
earlier form of the elimination, kept in ``test_suites``, and the
biorthogonality suite, whose row distances come from a QR factorization.
"""

import inspect
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings

import sminlab.alphaeta as ae
import sminlab.combinatorics as comb
import sminlab.experiments as ex
import sminlab.linalg as la
import sminlab.samplers as smp
import test_alphaeta as batch_oracle
import test_cli as golden
import test_combinatorics as cover_oracle
import test_experiments as stream_oracle
import test_linalg as oracle
import test_samplers as rekey_oracle
import test_suite_draws as suite_golden
import test_suites as elimination_oracle
from sminlab import suites
from sminlab.errors import InvalidInputError


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


def batch_verifies_the_suite():
    """The batch's oracle check on the suite structures; all of them are
    valid, so a refusal fails it as a wrong report does."""
    try:
        batch_oracle.check_batch_on_the_suite()
    except InvalidInputError as exc:
        raise AssertionError(f"a valid structure was refused: {exc}") from None


def alpharho_suite_passes():
    for seed in (1111, 7, 2901):
        result = suites.run_alpharho_suite(500, seed)
        assert result.passed, result.messages


def identities():
    for n in (1, 2, 3, 5):
        oracle.TestCertifiedOracle().test_identity(n)


def dominant_diagonals():
    for d in ((1.0, 1.1), (1.0, 1.5), (2.0, 3.0, 5.0), (0.5, 0.9, 4.0, 4.0)):
        oracle.TestCertifiedOracle().test_diagonal_with_a_dominant_direction_is_certified(d)


def counterexample_report_matches_its_golden_bytes():
    with tempfile.TemporaryDirectory() as tmp:
        golden.check_counterexample_report_matches_its_golden_bytes(Path(tmp))


def cube_report_matches_its_golden_bytes():
    with tempfile.TemporaryDirectory() as tmp:
        golden.check_alphaeta_demo_report_matches_its_golden_bytes(Path(tmp))


def verify_matches_full_space():
    """The full-space oracle on drawn structures, every one valid, so a
    refusal fails it as a wrong report does.  It runs with the oracle's
    own settings but stops at the first failing example: shrinking it
    would only make the kill slower."""
    own = batch_oracle.FULL_SPACE_SETTINGS
    first_failure = settings(own, phases=[phase for phase in own.phases if phase is not Phase.shrink])
    check = batch_oracle.check_verify_matches_full_space.hypothesis.inner_test
    try:
        first_failure(given(batch_oracle.structure_inputs())(check))()
    except InvalidInputError as exc:
        raise AssertionError(f"a valid structure was refused: {exc}") from None


def biorthogonality_suite_passes():
    result = suites.run_biorthogonality_suite(instances=60, seed=26)
    assert result.passed, result.messages


def singular_member_rejected():
    # pytest.raises reports a missing exception as pytest's Failed, not as an AssertionError
    try:
        elimination_oracle.test_gauss_jordan_rejects_a_singular_member_as_its_earlier_form()
    except pytest.fail.Exception as exc:
        raise AssertionError(str(exc)) from None


def elimination_rewritten(old, new):
    return lambda mp: mp.setattr(suites, "_gauss_jordan", rewritten(suites._gauss_jordan, old, new))


def batch_rewritten(old, new):
    return lambda mp: mp.setattr(ae, "_verify_group", rewritten(ae._verify_group, old, new))


def group_rewritten(method, old, new):
    return lambda mp: mp.setattr(ae._Group, method, rewritten(getattr(ae._Group, method), old, new))


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
    # without it the trace bounds lambda_1 from above: the identity's bracket
    # (n >= 2) then closes at no power step, its top eigenvalue being
    # repeated, and a dominant diagonal's only after the first
    "norm-product bound never formed": (
        lambda mp: mp.setattr(la, "_smin_position", rewritten(
            la._smin_position,
            "lam_high = min(lam_high, float(absW.sum(axis=1).max() * absW.sum(axis=0).max()))",
            "pass")),
        [identities, dominant_diagonals],
    ),
    # a zero shift leaves the criterion-02 golden as it is; the counterexample
    # shift does not
    "stacked draw without the shift": (
        lambda mp: mp.setattr(ex, "_sample_stack", rewritten(ex._sample_stack, "X += shift_matrix", "pass")),
        [stream_oracle.check_stacked_draws_are_sample_matrix_plus_shift,
         counterexample_report_matches_its_golden_bytes],
    ),
    # the suite draws no ties: only the uniform factors of the special
    # structures tie
    "batch eta ties go to the earliest label": (
        group_rewritten("eta", "return P - 1 - np.argmax(table[:, ::-1], axis=1)", "return np.argmax(table, axis=1)"),
        [batch_oracle.check_batch_on_special_structures],
    ),
    "batch sharp over the whole group": (
        lambda mp: mp.setattr(ae, "_sharp_table", rewritten(
            ae._sharp_table, "sharp[:, p] += np.maximum.reduceat(count, g.start)", "sharp[:, p] += count.max()")),
        [batch_oracle.check_batch_on_the_suite],
    ),
    # the member's own line number: the members' lines share their numbers,
    # and an eta read at a line of another member may have sharp 0
    "batch lines numbered without the members before them": (
        group_rewritten("lines", "line += _starts(self.size // m)[b]", "pass"),
        [batch_verifies_the_suite],
    ),
    # the coordinate along a line is u - q mm: without the q (mm - 1) term
    # it passes mm, which the gather clips to the factor's last probability;
    # the cube's factors are uniform, so only unequal factors show it
    "lines' coordinate without its q (mm - 1) term": (
        group_rewritten("lines", "q *= mm - 1", "q *= 0"),
        [verify_matches_full_space],
    ),
    # the lines become t' % st, the atoms before coordinate i forgotten
    "lines without u -= q": (
        group_rewritten("lines", "u -= q", "pass"),
        [cube_report_matches_its_golden_bytes, verify_matches_full_space],
    ),
    # the first bounded integer of every stream after the first would read
    # the half word the stream before it left; the mutant writes a copy of the
    # state, so the generator that sample_matrix keeps per thread draws
    # truly again once the mutant is gone
    "re-key that keeps has_uint32 from the stream before": (
        lambda mp: mp.setattr(smp._Streams, "open", rewritten(
            smp._Streams.open,
            "self._bit_generator.state = self._state",
            "before = self._bit_generator.state; "
            "self._bit_generator.state = dict(self._state, has_uint32=before['has_uint32'], "
            "uinteger=before['uinteger'])")),
        [rekey_oracle.check_reopened_streams_draw_what_fresh_ones_draw,
         lambda: rekey_oracle.check_reopened_streams_draw_what_fresh_ones_draw(
             rekey_oracle.REOPENED["reopened after a buffered half word"]),
         rekey_oracle.test_a_helper_threads_matrix_stream_draws_what_a_fresh_generator_draws,
         suite_golden.test_every_suite_draws_what_the_golden_file_holds],
    ),
    # a set covering exactly half the edges is passed over for a larger one
    "bit-mask cover test > for >=": (
        lambda mp: mp.setattr(comb, "_exact_step", rewritten(
            comb._exact_step, ".bit_count() >= need", ".bit_count() > need")),
        [cover_oracle.check_exact_step_matches_the_edge_sum_search,
         suite_golden.test_every_suite_draws_what_the_golden_file_holds],
    ),
    # the suite draws structures with lhs == rhs, which the rounding puts
    # one ulp above rhs
    "alpharho verdict without its slack": (
        batch_rewritten("holds=lhs <= rhs + 1e-9", "holds=lhs <= rhs"),
        [alpharho_suite_passes],
    ),
    # the inverse column of the pivot row starts at p, not 1 / p
    "elimination's inverse slot gets the pivot": (
        elimination_rewritten("np.divide(1.0, p, out=aug[:, col, col])", "aug[:, col, col] = p"),
        [biorthogonality_suite_passes],
    ),
    # a singular member's pivots go unread: its inverse is inf and nan
    "elimination without its singular test": (
        elimination_rewritten("if (np.abs(pivots) < 1e-300).any():", "if False:"),
        [singular_member_rejected],
    ),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_killed(monkeypatch, name):
    apply, checks = MUTANTS[name]
    apply(monkeypatch)
    for check in checks:
        with pytest.raises(AssertionError):
            check()
