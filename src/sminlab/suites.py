"""Randomized verification suites behind the ``lemma-check`` command.

Each suite generates instances whose hypotheses hold by construction,
runs the corresponding library operation, and checks the guaranteed
conclusion; a single failure is a bug (in the generator or the
library), never sampling noise.  Generators draw from the same
counter-based streams as the samplers, so a suite run is reproducible
from ``(seed, instance_index)``.

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
    name: str
    instances: int
    failures: int
    messages: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def summary(self) -> str:
        status = "ok" if self.passed else "FAILED"
        return f"{self.name}: {self.instances} instances, {self.failures} failures [{status}]"


_MAX_MESSAGES = 10


def _record(result: SuiteResult, message: str) -> None:
    result.failures += 1
    if len(result.messages) < _MAX_MESSAGES:
        result.messages.append(message)


def _rng(seed: int, index: int) -> np.random.Generator:
    return SeedSpec(seed, index).rng()


def invert_by_elimination(B: np.ndarray) -> np.ndarray:
    """Matrix inverse by Gauss-Jordan elimination with partial pivoting.

    Reference routine, independent of every SVD/orthogonalization code
    path in :mod:`sminlab.linalg`.
    """
    A = np.asarray(B, dtype=float)
    n = A.shape[0]
    aug = np.hstack([A.copy(), np.eye(n)])
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[pivot, col]) < 1e-300:
            raise InvalidInputError("matrix is numerically singular")
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] /= aug[col, col]
        f = aug[:, col].copy()
        f[col] = 0.0
        aug -= np.outer(f, aug[col])
    return aug[:, n:]


# -- individual suites ---------------------------------------------------


def run_biorthogonality_suite(instances: int = 1000, seed: int = 0) -> SuiteResult:
    """Column norms of the inverse against reciprocal row distances.

    For random invertible matrices of mixed kinds and sizes, checks
    ``norm(col_i(B^-1)) * dist(row_i, span of others) == 1`` for every
    ``i`` and the induced identity between the inverse's HS norm and
    the distance profile, both to relative error 1e-8.
    """
    result = SuiteResult("biorthogonality", instances, 0)
    kinds = [k for k in KINDS]
    for idx in range(instances):
        rng = _rng(seed, idx)
        n = int(rng.integers(2, 51))
        kind = kinds[idx % len(kinds)]
        dist = RowDistribution(kind)
        B = None
        for attempt in range(200):
            candidate = sample_matrix(dist, n, SeedSpec(seed, idx * 1000 + attempt + 1))
            s_min, s_max, hs = linalg._extremes(candidate)
            # condition cutoff keeps float error well below the 1e-8 assertion
            if s_min > 1e-6 * s_max:
                B = candidate
                break
        if B is None:
            _record(result, f"instance {idx}: could not draw an invertible {kind} matrix")
            continue
        inv = invert_by_elimination(B)
        distances = linalg.row_distances(B)
        col_norms = np.linalg.norm(inv, axis=0)
        products = col_norms * distances
        worst = float(np.max(np.abs(products - 1.0)))
        if worst > 1e-8:
            _record(result, f"instance {idx} (kind={kind}, n={n}): biorthogonality error {worst:g}")
            continue
        hs_from_distances = math.sqrt(float(np.sum(distances**-2.0)))
        rel = abs(hs**2 - hs_from_distances**2) / hs**2
        if rel > 1e-8:
            _record(result, f"instance {idx} (kind={kind}, n={n}): HS identity error {rel:g}")
    return result


def run_pivot_suite(instances: int = 10_000, seed: int = 0) -> SuiteResult:
    """Construct vector families satisfying the pivot hypotheses and
    check that a valid pivot index is always produced."""
    result = SuiteResult("pivot", instances, 0)
    for idx in range(instances):
        rng = _rng(seed, idx)
        r = int(rng.integers(2, 7))
        xs = [rng.standard_normal(r) for _ in range(r - 1)]
        coeffs = rng.standard_normal(r - 1) * 2.0
        delta = 10.0 ** rng.uniform(-3, 0)
        x1 = sum(c * x for c, x in zip(coeffs, xs)) + delta * rng.standard_normal(r)
        vectors = [x1] + xs
        d = linalg.row_distances(np.array(vectors))
        a = float(d[0])
        if a <= 0:
            a = 1e-12
        b = float(min(d[1:]))
        if b <= 0:
            continue  # degenerate draw; hypotheses require b > 0
        i0 = combinatorics.pivot_index(vectors, a, b)
        if i0 is None:
            _record(result, f"instance {idx}: no pivot index (r={r}, a={a:g}, b={b:g})")
            continue
        lhs = np.linalg.norm(vectors[i0])
        rhs = b / (2.0 * a * r) * np.linalg.norm(x1)
        if lhs < rhs * (1 - 1e-9):
            _record(result, f"instance {idx}: pivot {i0} has norm {lhs:g} < bound {rhs:g}")
    return result


def run_q_sets_suite(instances: int = 1000, seed: int = 0) -> SuiteResult:
    """Counting bound for the two families of r-subsets.

    Thresholds are taken from the realized distance profile so that the
    disjoint index sets and their distance bounds hold by construction;
    qualifying instances must satisfy
    ``|Q1 union Q2| >= |I| * C(ceil(n/2), r-1)``.
    """
    result = SuiteResult("q-sets", instances, 0)
    for idx in range(instances):
        rng = _rng(seed, idx)
        n = int(rng.integers(4, 11))
        r = int(rng.integers(2, 4))
        B = rng.standard_normal((n, n))
        d = linalg.row_distances(B)
        order = np.argsort(d)
        j_count = (n + 1) // 2
        J = order[n - j_count :]
        b = float(d[J].min())
        i_max = n - j_count
        i_count = int(rng.integers(1, i_max + 1))
        I = order[:i_count]
        a = float(d[I].max())
        if not (a < b):
            continue  # tie in the distance profile; hypotheses need a < b
        tau = float(np.quantile(d, rng.uniform(0.1, 0.9))) * rng.uniform(0.5, 2.0)
        q1, q2 = combinatorics.q_sets(B, I, tau, a, b, r)
        lower = i_count * math.comb((n + 1) // 2, r - 1)
        if len(q1 | q2) < lower:
            _record(
                result,
                f"instance {idx}: |Q1 u Q2| = {len(q1 | q2)} < {lower} (n={n}, r={r})",
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
                    _record(result, f"instance {idx}: bound fails at (k={k}, l={ell})")
        # exercise the public operation on one pair
        k = int(rng.integers(1, depth + 1))
        ell = int(rng.integers(1, k + 1))
        if not combinatorics.check_edge_interval(G, i, k, ell):
            _record(result, f"instance {idx}: check_edge_interval false at (k={k}, l={ell})")
    return result


def run_low_value_suite(
    matrices: int = 100, seed: int = 0, triple_matrices: int = 50
) -> SuiteResult:
    """Vertex-value counting bound plus the deterministic triple property."""
    result = SuiteResult("low-value", matrices + triple_matrices, 0)
    for idx in range(matrices):
        rng = _rng(seed, idx)
        n = int(rng.integers(4, 13))
        B = rng.standard_normal((n, n))
        graphs = [combinatorics.build_graph_G(B, i) for i in range(n)]
        for L in (1, 2, 3):
            values = [
                combinatorics.vertex_value(graphs[i], i, L, mode="exact") for i in range(n)
            ]
            for N in range(1, n + 1):
                count = sum(1 for v in values if v <= N)
                if count > 16 * N:
                    _record(
                        result,
                        f"matrix {idx}: {count} low-value rows exceeds 16N={16 * N} (L={L}, N={N})",
                    )
        # exercise the public counting operation once per matrix
        L = int(rng.integers(1, 4))
        N = int(rng.integers(1, n + 1))
        if combinatorics.low_value_count(B, L, N) > 16 * N:
            _record(result, f"matrix {idx}: low_value_count exceeds 16N (L={L}, N={N})")
    for idx in range(triple_matrices):
        rng = _rng(seed, 10_000 + idx)
        n = int(rng.integers(4, 10))
        B = rng.standard_normal((n, n))
        graphs = [combinatorics.build_graph_G(B, i) for i in range(n)]
        for i, j, k in combinations(range(n), 3):
            jk = (j, k) in graphs[i].edges
            ik = (min(i, k), max(i, k)) in graphs[j].edges
            ij = (min(i, j), max(i, j)) in graphs[k].edges
            if not (jk or ik or ij):
                _record(result, f"triple matrix {idx}: no membership for triple ({i},{j},{k})")
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
    if instances is None:
        return runner(seed=seed)
    if name == "low-value":
        return runner(matrices=instances, seed=seed)
    return runner(instances, seed=seed)
