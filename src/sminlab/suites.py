"""Randomized verification suites behind the ``lemma-check`` command.

Each suite generates instances whose hypotheses hold by construction,
runs the corresponding library operation, and checks the guaranteed
conclusion; a single failure is a bug (in the generator or the
library), never sampling noise.  Generators draw from the same
counter-based streams as the samplers, so a suite run is reproducible
from ``(seed, instance_index)``.  Instance ``idx`` reads the stream
``SeedSpec(seed, idx)``; a stream an instance draws beyond its own (a
retried matrix, the separate triple matrices of the low-value suite) is
keyed apart from every instance stream (:func:`_derived`).  A suite
first draws every instance, then verifies the instances of one shape as
one stack (one stacked factorization, one stacked elimination; the
alpharho suite lays the structures of one coordinate count end to end).  Every
suite collects its failures as ``(instance, message)`` pairs in whatever
order it verifies and hands them to :func:`_result`, which records them
in instance order, so its result is that of verifying the instances one
at a time.  Each conclusion is checked once, by one implementation.

The biorthogonality suite keeps its matrix inverse deliberately
independent of the distance computations: it uses plain Gauss-Jordan
elimination with partial pivoting rather than any orthogonalization,
so the two sides of the identity come from different algorithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import alphaeta, combinatorics, linalg
from .errors import InvalidInputError, decoding, integer
from .samplers import KINDS, RowDistribution, SeedSpec, sample_matrix


@dataclass
class SuiteResult:
    """Outcome of one suite run.  ``failed_instances`` lists every failing
    instance index in ascending order (the triple matrices of the
    low-value suite numbered after its matrices); ``messages`` holds the
    first ``_MAX_MESSAGES`` failure messages in the same order."""

    name: str
    instances: int
    failures: int
    messages: list[str] = field(default_factory=list)
    failed_instances: list[int] = field(default_factory=list)

    def __post_init__(self):
        if self.instances < 0:
            raise InvalidInputError(f"instances must be non-negative, got {self.instances}")

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def summary(self) -> str:
        status = "ok" if self.passed else "FAILED"
        return f"{self.name}: {self.instances} instances, {self.failures} failures [{status}]"


_MAX_MESSAGES = 10


def _record(result: SuiteResult, idx: int, message: str) -> None:
    """Count one failure of instance ``idx``; failures are recorded in
    ascending instance order."""
    result.failures += 1
    if not result.failed_instances or result.failed_instances[-1] != idx:
        result.failed_instances.append(idx)
    if len(result.messages) < _MAX_MESSAGES:
        result.messages.append(message)


def _result(name: str, instances: int, failures) -> SuiteResult:
    """The result of a suite of ``instances`` instances whose failures are
    the ``(instance, message)`` pairs ``failures``, in any instance order;
    the messages of one instance keep their order."""
    result = SuiteResult(name, instances, 0)
    for idx, message in sorted(failures, key=lambda failure: failure[0]):
        _record(result, idx, message)
    return result


def _rng(seed: int, index: int) -> np.random.Generator:
    return SeedSpec(seed, index).rng()


def _derived(seed: int, idx: int, attempt: int = 0) -> SeedSpec:
    """Stream ``attempt`` (below 256) of instance ``idx`` (below 2**55),
    apart from every instance stream: the top bit of its 64-bit trial
    index is set, and no instance index of a run of fewer than 2**55
    instances reaches it."""
    if not (0 <= idx < 2**55 and 0 <= attempt < 256):
        raise InvalidInputError(f"derived stream ({idx}, {attempt}) outside [0, 2**55) x [0, 256)")
    return SeedSpec(seed, 1 << 63 | idx << 8 | attempt)


def _by_shape(keyed) -> dict:
    """Instance indices grouped by shape, from ``(index, shape)`` pairs in
    ascending index order."""
    groups: dict = {}
    for idx, shape in keyed:
        groups.setdefault(shape, []).append(idx)
    return groups


def _gauss_jordan(A: np.ndarray) -> np.ndarray:
    """Inverses of a stack ``A`` of shape ``(N, n, n)`` by Gauss-Jordan
    elimination with partial pivoting, every member in step with the
    others; raises when some member is numerically singular."""
    N, n, _ = A.shape
    aug = np.concatenate([A, np.broadcast_to(np.eye(n), A.shape)], axis=2)
    members = np.arange(N)
    update = np.empty_like(aug)
    for col in range(n):
        pivot = col + np.argmax(np.abs(aug[:, col:, col]), axis=1)
        top = aug[members, pivot]
        if (np.abs(top[:, col]) < 1e-300).any():
            raise InvalidInputError("matrix is numerically singular")
        aug[members, pivot] = aug[:, col]
        np.divide(top, top[:, col, None], out=aug[:, col])
        f = aug[:, :, col].copy()
        f[:, col] = 0.0
        np.multiply(f[:, :, None], aug[:, None, col], out=update)
        aug -= update
    return aug[:, :, n:]


def invert_by_elimination(B: np.ndarray) -> np.ndarray:
    """Matrix inverse by Gauss-Jordan elimination with partial pivoting.

    Reference routine, independent of every SVD/orthogonalization code
    path in :mod:`sminlab.linalg`; the suites run it on stacks of
    matrices of one size at a time.
    """
    return _gauss_jordan(np.asarray(B, dtype=float)[None])[0]


# -- individual suites ---------------------------------------------------


_ATTEMPTS = 200


def _conditioned(s_min: float, s_max: float) -> bool:
    # condition cutoff keeps float error well below the 1e-8 assertion
    return s_min > 1e-6 * s_max


def _invertible_draws(instances: int, seed: int) -> list:
    """``(kind, attempt, matrix, hs)`` of every biorthogonality instance
    ``idx``: the first of its draws ``_derived(seed, idx, attempt)``, with
    ``attempt`` below ``_ATTEMPTS``, that is well conditioned, and the HS
    norm of that matrix's inverse; ``(kind, None, None, None)`` when none
    is.  Attempt 0 of the instances of one size is checked as one stack,
    a retry one draw at a time."""
    kinds = [KINDS[idx % len(KINDS)] for idx in range(instances)]
    first = [
        sample_matrix(RowDistribution(kind), int(_rng(seed, idx).integers(2, 51)), _derived(seed, idx))
        for idx, kind in enumerate(kinds)
    ]
    draws = [None] * instances
    for group in _by_shape((idx, B.shape[0]) for idx, B in enumerate(first)).values():
        extremes = linalg._stack_extremes(np.array([first[idx] for idx in group]))
        for idx, s_min, s_max, hs in zip(group, *(a.tolist() for a in extremes)):
            if _conditioned(s_min, s_max):
                draws[idx] = (kinds[idx], 0, first[idx], hs)
            else:
                draws[idx] = (kinds[idx], *_redraw(kinds[idx], len(first[idx]), seed, idx))
    return draws


def _redraw(kind: str, n: int, seed: int, idx: int) -> tuple:
    """``(attempt, matrix, hs)`` of the first well-conditioned retry of
    instance ``idx``, ``(None, None, None)`` when every retry fails."""
    for attempt in range(1, _ATTEMPTS):
        B = sample_matrix(RowDistribution(kind), n, _derived(seed, idx, attempt))
        s_min, s_max, hs = linalg._extremes(B)
        if _conditioned(s_min, s_max):
            return attempt, B, hs
    return None, None, None


def run_biorthogonality_suite(instances: int = 1000, seed: int = 0) -> SuiteResult:
    """Column norms of the inverse against reciprocal row distances.

    For random invertible matrices of mixed kinds and sizes, checks
    ``norm(col_i(B^-1)) * dist(row_i, span of others) == 1`` for every
    ``i`` and the induced identity between the inverse's HS norm and
    the distance profile, both to relative error 1e-8.
    """
    failures = []
    accepted = {}  # instance -> (kind, matrix, HS norm of its inverse)
    for idx, (kind, attempt, B, hs) in enumerate(_invertible_draws(instances, seed)):
        if attempt is None:
            failures.append((idx, f"instance {idx}: could not draw an invertible {kind} matrix"))
        else:
            accepted[idx] = (kind, B, hs)
    # the matrices of one size checked as one stack
    for group in _by_shape((idx, B.shape[0]) for idx, (_, B, _) in accepted.items()).values():
        stack = np.array([accepted[idx][1] for idx in group])
        for idx, inv, distances in zip(group, _gauss_jordan(stack), linalg._row_profile(stack)):
            kind, _, hs = accepted[idx]
            where = f"instance {idx} (kind={kind}, n={len(inv)})"
            products = np.linalg.norm(inv, axis=0) * distances
            worst = float(np.max(np.abs(products - 1.0)))
            if worst > 1e-8:
                failures.append((idx, f"{where}: biorthogonality error {worst:g}"))
                continue
            hs_from_distances = math.sqrt(float(np.sum(distances**-2.0)))
            rel = abs(hs**2 - hs_from_distances**2) / hs**2
            if rel > 1e-8:
                failures.append((idx, f"{where}: HS identity error {rel:g}"))
    return _result("biorthogonality", instances, failures)


def run_pivot_suite(instances: int = 10_000, seed: int = 0) -> SuiteResult:
    """Construct vector families satisfying the pivot hypotheses and
    check that a valid pivot index is always produced."""
    drawn = []
    for idx in range(instances):
        rng = _rng(seed, idx)
        r = int(rng.integers(2, 7))
        xs = rng.standard_normal((r - 1, r))
        coeffs = rng.standard_normal(r - 1) * 2.0
        delta = 10.0 ** rng.uniform(-3, 0)
        drawn.append((r, xs, coeffs, delta, rng.standard_normal(r)))
    failures = []
    for r, group in _by_shape((idx, item[0]) for idx, item in enumerate(drawn)).items():
        _, xs, coeffs, delta, noise = map(np.array, zip(*(drawn[idx] for idx in group)))
        x1 = 0
        for j in range(r - 1):
            x1 = x1 + coeffs[:, j, None] * xs[:, j]
        X = np.concatenate([(x1 + delta[:, None] * noise)[:, None], xs], axis=1)
        # per family: the bounds a and b, the pivot index (0 for none) and
        # the two norms the lemma compares
        d = linalg._row_profile(X)
        a = np.where(d[:, 0] <= 0, 1e-12, d[:, 0])
        b = d[:, 1:].min(axis=1)
        i0 = combinatorics._pivot_indices(X, d, a, b)
        norms = combinatorics._row_norms(X)
        lhs = np.take_along_axis(norms, i0[:, None], axis=1)[:, 0]
        rhs = b / (2.0 * a * r) * norms[:, 0]
        # b <= 0 is a degenerate draw: the hypotheses require b > 0
        failing = (b > 0) & ((i0 == 0) | (lhs < rhs * (1 - 1e-9)))
        for row in np.flatnonzero(failing).tolist():
            if i0[row] == 0:
                message = f"no pivot index (r={r}, a={a[row]:g}, b={b[row]:g})"
            else:
                message = f"pivot {i0[row]} has norm {lhs[row]:g} < bound {rhs[row]:g}"
            failures.append((group[row], f"instance {group[row]}: {message}"))
    return _result("pivot", instances, failures)


def run_q_sets_suite(instances: int = 1000, seed: int = 0) -> SuiteResult:
    """Counting bound for the two families of r-subsets.

    Thresholds are taken from the realized distance profile so that the
    disjoint index sets and their distance bounds hold by construction;
    qualifying instances must satisfy
    ``|Q1 union Q2| >= |I| * C(ceil(n/2), r-1)``.
    """
    drawn = []
    for idx in range(instances):
        rng = _rng(seed, idx)
        n = int(rng.integers(4, 11))
        r = int(rng.integers(2, 4))
        B = rng.standard_normal((n, n))
        i_count = int(rng.integers(1, n - (n + 1) // 2 + 1))
        drawn.append((n, r, B, i_count, rng.uniform(0.1, 0.9), rng.uniform(0.5, 2.0)))
    profiles = [None] * instances
    for group in _by_shape((idx, item[0]) for idx, item in enumerate(drawn)).values():
        stack = np.array([drawn[idx][2] for idx in group])
        for idx, d in zip(group, linalg._row_profile(stack)):
            profiles[idx] = d
    # the instances whose distance profile has no tie: (I, tau, a, b) each
    qualifying = {}
    for idx, (n, r, B, i_count, quantile, factor) in enumerate(drawn):
        d = profiles[idx]
        order = np.argsort(d)
        J = order[n - (n + 1) // 2 :]
        b = float(d[J].min())
        I = order[:i_count]
        a = float(d[I].max())
        if a < b:
            qualifying[idx] = (I, float(np.quantile(d, quantile)) * factor, a, b)
    failures = []
    for (n, r), group in _by_shape((idx, drawn[idx][:2]) for idx in qualifying).items():
        sets = np.array(list(combinations(range(n), r)))
        in_I = np.zeros((len(group), n), dtype=bool)
        for row, idx in enumerate(group):
            in_I[row, qualifying[idx][0]] = True
        tau, a, b = (np.array([qualifying[idx][j] for idx in group]) for j in (1, 2, 3))
        stack = np.array([drawn[idx][2] for idx in group])
        q1, q2 = combinatorics._q_masks(stack, sets, in_I[:, sets], tau, tau * b / (2.0 * a * r))
        for idx, union in zip(group, (q1 | q2).sum(axis=1).tolist()):
            lower = drawn[idx][3] * math.comb((n + 1) // 2, r - 1)
            if union < lower:
                failures.append(
                    (idx, f"instance {idx}: |Q1 u Q2| = {union} < {lower} (n={n}, r={r})")
                )
    return _result("q-sets", instances, failures)


def _random_graph_with_isolated(rng: np.random.Generator, n: int, p: float, i: int):
    edges = set()
    for j, k in combinations(range(n), 2):
        if i in (j, k):
            continue
        if rng.random() < p:
            edges.add((j, k))
    return combinatorics.Graph(n, frozenset(edges))


def run_edge_interval_suite(instances: int = 200, seed: int = 0) -> SuiteResult:
    """Two-sided halving bounds along exact decompositions, all (k, l)."""
    failures = []
    depth = 8
    for idx in range(instances):
        rng = _rng(seed, idx)
        n = int(rng.integers(4, 13))
        i = int(rng.integers(0, n))
        G = _random_graph_with_isolated(rng, n, rng.uniform(0.1, 0.6), i)
        e_seq = combinatorics.greedy_decomposition(G, i, depth).e_seq
        for k in range(1, depth + 1):
            for ell in range(1, k + 1):
                if not combinatorics._edge_interval_holds(e_seq, n, k, ell):
                    failures.append((idx, f"instance {idx}: bound fails at (k={k}, l={ell})"))
    return _result("edge-interval", instances, failures)


def _graphs_by_size(matrices: list[np.ndarray]) -> list[list[combinatorics.Graph]]:
    """Every vertex's comparison graph of each matrix, one triple table per
    matrix, the matrices of one size in one stack."""
    graphs = [None] * len(matrices)
    for group in _by_shape((pos, B.shape[0]) for pos, B in enumerate(matrices)).values():
        stack = np.array([matrices[pos] for pos in group])
        for pos, per_vertex in zip(group, combinatorics._comparison_graphs(stack)):
            graphs[pos] = per_vertex
    return graphs


def run_low_value_suite(
    matrices: int = 100, seed: int = 0, triple_matrices: int = 50
) -> SuiteResult:
    """Vertex-value counting bound plus the deterministic triple property.

    Triple matrix ``idx`` is reported as instance ``matrices + idx``."""
    if min(matrices, triple_matrices) < 0:
        raise InvalidInputError(
            f"matrices={matrices} and triple_matrices={triple_matrices} must be non-negative"
        )
    failures = []
    drawn = []
    for idx in range(matrices):
        rng = _rng(seed, idx)
        n = int(rng.integers(4, 13))
        drawn.append(rng.standard_normal((n, n)))
    for idx, graphs in enumerate(_graphs_by_size(drawn)):
        n = len(graphs)
        # values[i][L - 1]: the vertex value of row i at L
        values = [combinatorics._vertex_values(G, i, 3) for i, G in enumerate(graphs)]
        for L in (1, 2, 3):
            for N in range(1, n + 1):
                count = sum(1 for v in values if v[L - 1] <= N)
                if count > 16 * N:
                    failures.append(
                        (idx, f"matrix {idx}: {count} low-value rows exceeds 16N={16 * N} (L={L}, N={N})")
                    )
    triples = []
    for idx in range(triple_matrices):
        rng = _derived(seed, idx).rng()
        n = int(rng.integers(4, 10))
        triples.append(rng.standard_normal((n, n)))
    for idx, graphs in enumerate(_graphs_by_size(triples)):
        for i, j, k in combinations(range(len(graphs)), 3):
            jk = (j, k) in graphs[i].edges
            ik = (min(i, k), max(i, k)) in graphs[j].edges
            ij = (min(i, j), max(i, j)) in graphs[k].edges
            if not (jk or ik or ij):
                failures.append(
                    (matrices + idx, f"triple matrix {idx}: no membership for triple ({i},{j},{k})")
                )
    return _result("low-value", matrices + triple_matrices, failures)


def run_dichotomy_suite(instances: int = 200, seed: int = 0) -> SuiteResult:
    """Graph pairs within the edge-difference hypothesis satisfy the dichotomy."""
    failures = []
    for idx in range(instances):
        rng = _rng(seed, idx)
        n = int(rng.integers(4, 13))
        L = int(rng.integers(1, 3))
        i = int(rng.integers(0, n))
        G_tilde = _random_graph_with_isolated(rng, n, rng.uniform(0.1, 0.6), i)
        allowed = int(16.0 ** (-L) * n * n)
        kept = frozenset(e for e in G_tilde.edges if rng.random() > 0.3)
        candidates = [
            (j, k)
            for j, k in combinations(range(n), 2)
            if i not in (j, k) and (j, k) not in G_tilde.edges
        ]
        rng.shuffle(candidates)
        extra = frozenset(tuple(e) for e in candidates[: int(rng.integers(0, allowed + 1))])
        G = combinatorics.Graph(n, kept | extra)
        report = combinatorics.two_graphs_dichotomy(G, G_tilde, i, L)
        if not report.holds:
            failures.append((
                idx,
                f"instance {idx}: both assertions fail (n={n}, L={L}, vl={report.vl:g}, "
                f"cover={report.min_half_cover})",
            ))
    return _result("dichotomy", instances, failures)


def _alpharho_inputs(seed: int, idx: int) -> alphaeta._Inputs:
    """The random structure of alpharho instance ``idx``."""
    rng = _rng(seed, idx)
    n = int(rng.integers(1, 5))
    factors = []
    for _ in range(n):
        m = int(rng.integers(1, 6))
        raw = rng.random(m) + 0.05
        factors.append(raw / raw.sum())
    size = math.prod(p.size for p in factors)
    psi = int(rng.integers(1, 4))
    lam = int(rng.integers(1, 4))
    classes = [rng.integers(1, psi + 1, size=size) for _ in range(n)]
    event = rng.random(size) < rng.uniform(0.2, 0.8)
    cells = [rng.integers(1, lam + 1, size=size) for _ in range(n)]
    return alphaeta._Inputs(factors, psi, lam, classes, event, cells)


def run_alpharho_suite(instances: int = 500, seed: int = 0) -> SuiteResult:
    """Random discrete structures satisfy the exhaustive structure inequality.

    Every instance is drawn first; the structures are then verified as one
    batch (``alphaeta._verify_batch``), which gives each the report of its
    own ``verify_alpharho``, bit for bit."""
    drawn = [_alpharho_inputs(seed, idx) for idx in range(instances)]
    failures = [
        (idx, f"instance {idx}: lhs {report.lhs:g} exceeds rhs {report.rhs:g} (n={len(inputs.factors)})")
        for idx, (inputs, report) in enumerate(zip(drawn, alphaeta._verify_batch(drawn)))
        if not report.holds
    ]
    return _result("alpharho", instances, failures)


SUITES = {
    "pivot": run_pivot_suite,
    "q-sets": run_q_sets_suite,
    "edge-interval": run_edge_interval_suite,
    "low-value": run_low_value_suite,
    "dichotomy": run_dichotomy_suite,
    "alpharho": run_alpharho_suite,
    "biorthogonality": run_biorthogonality_suite,
}


def run_suite(name: str, instances: int | None = None, seed: int = 0) -> SuiteResult:
    """Run one named suite, with its default instance count unless overridden."""
    if name not in SUITES:
        raise InvalidInputError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    runner = SUITES[name]
    SeedSpec(seed)  # rejects a seed outside [0, 2**64) before any instance
    if instances is None:
        return runner(seed=seed)
    with decoding("instances"):
        instances = integer(instances)
    if instances < 1:
        raise InvalidInputError(f"instances must be at least 1, got {instances}")
    return runner(instances, seed=seed)
