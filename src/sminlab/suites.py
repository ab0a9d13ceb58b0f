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
one stack (one stacked factorization, one stacked elimination), then
records the failures in instance order, so its result is that of
verifying the instances one at a time.

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
from .errors import InvalidInputError
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
    """Count one failure of instance ``idx``; suites record in ascending
    instance order."""
    result.failures += 1
    if not result.failed_instances or result.failed_instances[-1] != idx:
        result.failed_instances.append(idx)
    if len(result.messages) < _MAX_MESSAGES:
        result.messages.append(message)


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
    for col in range(n):
        pivot = col + np.argmax(np.abs(aug[:, col:, col]), axis=1)
        top = np.take_along_axis(aug, pivot[:, None, None], axis=1)[:, 0]
        if (np.abs(top[:, col]) < 1e-300).any():
            raise InvalidInputError("matrix is numerically singular")
        aug[members, pivot] = aug[:, col]
        aug[:, col] = top / top[:, col, None]
        f = aug[:, :, col].copy()
        f[:, col] = 0.0
        aug -= f[:, :, None] * aug[:, None, col]
    return aug[:, :, n:]


def invert_by_elimination(B: np.ndarray) -> np.ndarray:
    """Matrix inverse by Gauss-Jordan elimination with partial pivoting.

    Reference routine, independent of every SVD/orthogonalization code
    path in :mod:`sminlab.linalg`; the suites run it on stacks of
    matrices of one size at a time.
    """
    return _gauss_jordan(np.asarray(B, dtype=float)[None])[0]


# -- individual suites ---------------------------------------------------


def run_biorthogonality_suite(instances: int = 1000, seed: int = 0) -> SuiteResult:
    """Column norms of the inverse against reciprocal row distances.

    For random invertible matrices of mixed kinds and sizes, checks
    ``norm(col_i(B^-1)) * dist(row_i, span of others) == 1`` for every
    ``i`` and the induced identity between the inverse's HS norm and
    the distance profile, both to relative error 1e-8.
    """
    result = SuiteResult("biorthogonality", instances, 0)
    drawn = []
    for idx in range(instances):
        rng = _rng(seed, idx)
        n = int(rng.integers(2, 51))
        kind = KINDS[idx % len(KINDS)]
        dist = RowDistribution(kind)
        B = hs = None
        for attempt in range(200):
            candidate = sample_matrix(dist, n, _derived(seed, idx, attempt))
            s_min, s_max, hs = linalg._extremes(candidate)
            # condition cutoff keeps float error well below the 1e-8 assertion
            if s_min > 1e-6 * s_max:
                B = candidate
                break
        drawn.append((kind, n, B, hs))
    # the failure message of every instance that fails, checked one stack
    # of a size at a time and recorded in instance order
    failed = {}
    accepted = ((idx, n) for idx, (_, n, B, _) in enumerate(drawn) if B is not None)
    for group in _by_shape(accepted).values():
        stack = np.array([drawn[idx][2] for idx in group])
        for idx, inv, distances in zip(group, _gauss_jordan(stack), linalg._row_profile(stack)):
            hs = drawn[idx][3]
            products = np.linalg.norm(inv, axis=0) * distances
            worst = float(np.max(np.abs(products - 1.0)))
            if worst > 1e-8:
                failed[idx] = f"biorthogonality error {worst:g}"
                continue
            hs_from_distances = math.sqrt(float(np.sum(distances**-2.0)))
            rel = abs(hs**2 - hs_from_distances**2) / hs**2
            if rel > 1e-8:
                failed[idx] = f"HS identity error {rel:g}"
    for idx, (kind, n, B, _) in enumerate(drawn):
        if B is None:
            _record(result, idx, f"instance {idx}: could not draw an invertible {kind} matrix")
        elif idx in failed:
            _record(result, idx, f"instance {idx} (kind={kind}, n={n}): {failed[idx]}")
    return result


def run_pivot_suite(instances: int = 10_000, seed: int = 0) -> SuiteResult:
    """Construct vector families satisfying the pivot hypotheses and
    check that a valid pivot index is always produced."""
    result = SuiteResult("pivot", instances, 0)
    drawn = []
    for idx in range(instances):
        rng = _rng(seed, idx)
        r = int(rng.integers(2, 7))
        xs = rng.standard_normal((r - 1, r))
        coeffs = rng.standard_normal(r - 1) * 2.0
        delta = 10.0 ** rng.uniform(-3, 0)
        drawn.append((r, xs, coeffs, delta, rng.standard_normal(r)))
    # per instance: the bounds a and b, the pivot index (0 for none) and the
    # two norms the lemma compares
    a, b, lhs, rhs = (np.zeros(instances) for _ in range(4))
    i0 = np.zeros(instances, dtype=int)
    for r, group in _by_shape((idx, item[0]) for idx, item in enumerate(drawn)).items():
        _, xs, coeffs, delta, noise = map(np.array, zip(*(drawn[idx] for idx in group)))
        x1 = 0
        for j in range(r - 1):
            x1 = x1 + coeffs[:, j, None] * xs[:, j]
        X = np.concatenate([(x1 + delta[:, None] * noise)[:, None], xs], axis=1)
        d = linalg._row_profile(X)
        a[group] = np.where(d[:, 0] <= 0, 1e-12, d[:, 0])
        b[group] = d[:, 1:].min(axis=1)
        i0[group] = combinatorics._pivot_indices(X, d, a[group], b[group])
        norms = combinatorics._row_norms(X)
        lhs[group] = np.take_along_axis(norms, i0[group][:, None], axis=1)[:, 0]
        rhs[group] = b[group] / (2.0 * a[group] * r) * norms[:, 0]
    # b <= 0 is a degenerate draw: the hypotheses require b > 0
    failing = (b > 0) & ((i0 == 0) | (lhs < rhs * (1 - 1e-9)))
    for idx in np.flatnonzero(failing).tolist():
        if i0[idx] == 0:
            message = f"no pivot index (r={drawn[idx][0]}, a={a[idx]:g}, b={b[idx]:g})"
        else:
            message = f"pivot {i0[idx]} has norm {lhs[idx]:g} < bound {rhs[idx]:g}"
        _record(result, idx, f"instance {idx}: {message}")
    return result


def run_q_sets_suite(instances: int = 1000, seed: int = 0) -> SuiteResult:
    """Counting bound for the two families of r-subsets.

    Thresholds are taken from the realized distance profile so that the
    disjoint index sets and their distance bounds hold by construction;
    qualifying instances must satisfy
    ``|Q1 union Q2| >= |I| * C(ceil(n/2), r-1)``.
    """
    result = SuiteResult("q-sets", instances, 0)
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
    union = {}
    for (n, r), group in _by_shape((idx, drawn[idx][:2]) for idx in qualifying).items():
        sets = np.array(list(combinations(range(n), r)))
        in_I = np.zeros((len(group), n), dtype=bool)
        for row, idx in enumerate(group):
            in_I[row, qualifying[idx][0]] = True
        tau, a, b = (np.array([qualifying[idx][j] for idx in group]) for j in (1, 2, 3))
        stack = np.array([drawn[idx][2] for idx in group])
        q1, q2 = combinatorics._q_masks(stack, sets, in_I[:, sets], tau, tau * b / (2.0 * a * r))
        union.update(zip(group, (q1 | q2).sum(axis=1).tolist()))
    for idx in sorted(union):
        n, r, _, i_count = drawn[idx][:4]
        lower = i_count * math.comb((n + 1) // 2, r - 1)
        if union[idx] < lower:
            _record(
                result, idx, f"instance {idx}: |Q1 u Q2| = {union[idx]} < {lower} (n={n}, r={r})"
            )
    return result


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
    result = SuiteResult("edge-interval", instances, 0)
    depth = 8
    for idx in range(instances):
        rng = _rng(seed, idx)
        n = int(rng.integers(4, 13))
        i = int(rng.integers(0, n))
        G = _random_graph_with_isolated(rng, n, rng.uniform(0.1, 0.6), i)
        dec = combinatorics.greedy_decomposition(G, i, depth, mode="exact")
        for k in range(1, depth + 1):
            for ell in range(1, k + 1):
                lo = 2**ell * len(dec.e_seq[k])
                mid = len(dec.e_seq[k - ell])
                if not (lo <= mid <= lo + 2 ** (ell + 1) * n):
                    _record(result, idx, f"instance {idx}: bound fails at (k={k}, l={ell})")
        # exercise the public operation on one pair
        k = int(rng.integers(1, depth + 1))
        ell = int(rng.integers(1, k + 1))
        if not combinatorics.check_edge_interval(G, i, k, ell):
            _record(result, idx, f"instance {idx}: check_edge_interval false at (k={k}, l={ell})")
    return result


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
    result = SuiteResult("low-value", matrices + triple_matrices, 0)
    drawn = []
    for idx in range(matrices):
        rng = _rng(seed, idx)
        n = int(rng.integers(4, 13))
        B = rng.standard_normal((n, n))
        # the (L, N) at which the public counting operation is exercised
        drawn.append((B, (int(rng.integers(1, 4)), int(rng.integers(1, n + 1)))))
    for idx, ((B, spot), graphs) in enumerate(zip(drawn, _graphs_by_size([B for B, _ in drawn]))):
        n = B.shape[0]
        for L in (1, 2, 3):
            values = [
                combinatorics.vertex_value(graphs[i], i, L, mode="exact") for i in range(n)
            ]
            for N in range(1, n + 1):
                count = sum(1 for v in values if v <= N)
                if count > 16 * N:
                    _record(
                        result,
                        idx,
                        f"matrix {idx}: {count} low-value rows exceeds 16N={16 * N} (L={L}, N={N})",
                    )
        L, N = spot
        if combinatorics.low_value_count(B, L, N) > 16 * N:
            _record(result, idx, f"matrix {idx}: low_value_count exceeds 16N (L={L}, N={N})")
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
                _record(
                    result,
                    matrices + idx,
                    f"triple matrix {idx}: no membership for triple ({i},{j},{k})",
                )
    return result


def run_dichotomy_suite(instances: int = 200, seed: int = 0) -> SuiteResult:
    """Graph pairs within the edge-difference hypothesis satisfy the dichotomy."""
    result = SuiteResult("dichotomy", instances, 0)
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
            _record(
                result,
                idx,
                f"instance {idx}: both assertions fail (n={n}, L={L}, vl={report.vl:g}, "
                f"cover={report.min_half_cover})",
            )
    return result


def run_alpharho_suite(instances: int = 500, seed: int = 0) -> SuiteResult:
    """Random discrete structures satisfy the exhaustive structure inequality."""
    result = SuiteResult("alpharho", instances, 0)
    for idx in range(instances):
        rng = _rng(seed, idx)
        n = int(rng.integers(1, 5))
        factors = []
        for _ in range(n):
            m = int(rng.integers(1, 6))
            raw = rng.random(m) + 0.05
            factors.append(raw / raw.sum())
        space = alphaeta.DiscreteProductSpace(factors)
        psi = list(range(1, int(rng.integers(1, 4)) + 1))
        lam = list(range(1, int(rng.integers(1, 4)) + 1))
        size = space.size
        classes = [rng.integers(1, len(psi) + 1, size=size) for _ in range(n)]
        event = rng.random(size) < rng.uniform(0.2, 0.8)
        cells = [rng.integers(1, len(lam) + 1, size=size) for _ in range(n)]
        struct = alphaeta.AlphaEtaStructure(space, psi, lam, classes, event, cells)
        report = struct.verify_alpharho()
        if not report.holds:
            _record(
                result,
                idx,
                f"instance {idx}: lhs {report.lhs:g} exceeds rhs {report.rhs:g} (n={n})",
            )
    return result


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
    if instances < 1:
        raise InvalidInputError(f"instances must be at least 1, got {instances}")
    if name == "low-value":
        return runner(matrices=instances, seed=seed)
    return runner(instances, seed=seed)
