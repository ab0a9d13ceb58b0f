"""Randomized verification suites behind the ``lemma-check`` command.

Each suite generates instances whose hypotheses hold by construction,
runs the corresponding library operation, and checks the guaranteed
conclusion; a single failure is a bug (in the generator or the
library), never sampling noise.  Generators draw from the same
counter-based streams as the samplers, so a suite run is reproducible
from ``(seed, instance_index)``.  Instance ``idx`` reads the stream
``SeedSpec(seed, idx)``; a stream an instance draws beyond its own (a
retried matrix, the separate triple matrices of the low-value suite) is
keyed apart from every instance stream (:func:`_derived`).  A suite run
opens each stream by its two key words, ``(seed, trial index)``, on one
Philox re-keyed per stream (``samplers._Streams``), which draws what a
fresh ``SeedSpec.rng()`` draws; ``sample_matrix`` opens its streams the
same way, on the calling thread's own Philox.  Numbers of one kind that an
instance draws in a row (coins, label rows, normal vectors) come from one
generator call, which draws what the calls one at a time drew and leaves
the stream where they left it.  A suite first draws every instance, the
pivot and q-sets suites straight into the stack of the instance's shape
(the biorthogonality suite draws every size first, then the first matrices
of one size into their stack), then verifies the instances of one shape as
one stack (one stacked factorization; the alpharho suite lays the
structures of one coordinate count end to end, and the biorthogonality
suite eliminates the matrices of the sizes that share ``n // 4`` as one
stack, each padded with the identity, every inverse with the bytes that
the stack of its own size gives it).  Every
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
from .samplers import KINDS, RowDistribution, SeedSpec, _Streams, sample_matrix


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


def _derived(idx: int, attempt: int = 0) -> int:
    """The trial index of stream ``attempt`` (below 256) of instance ``idx``
    (below 2**55), apart from every instance stream: its top bit is set, and
    no instance index of a run of fewer than 2**55 instances reaches it."""
    if not (0 <= idx < 2**55 and 0 <= attempt < 256):
        raise InvalidInputError(f"derived stream ({idx}, {attempt}) outside [0, 2**55) x [0, 256)")
    return 1 << 63 | idx << 8 | attempt


def _streams(seed: int) -> _Streams:
    """The generator of a run's streams, once ``seed`` is checked as a
    :class:`SeedSpec` checks it."""
    SeedSpec(seed)
    return _Streams()


class _ShapeStacks:
    """The draws of a run's instances, written straight into one stack per
    shape.

    :meth:`row` hands instance ``idx`` the next row of the stack of its
    shape; the stacks keep the order in which their shapes first appear
    (``members``), and each stack the order of its instances.  A stack is
    allocated, uninitialized, for as many rows as the run has instances, so
    that no draw is copied into it later; the pages of the rows never handed
    out are never touched, so they hold no resident memory."""

    def __init__(self, capacity: int):
        self._capacity = capacity
        self._stacks: dict = {}
        self.members: dict = {}  # shape -> instance indices, in row order

    def row(self, shape: tuple, idx: int) -> np.ndarray:
        members = self.members.get(shape)
        if members is None:
            members = self.members[shape] = []
            self._stacks[shape] = np.empty((self._capacity, *shape))
        members.append(idx)
        return self._stacks[shape][len(members) - 1]

    def stack(self, shape: tuple) -> np.ndarray:
        return self._stacks[shape][: len(self.members[shape])]


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
    others; raises when some member is numerically singular.

    The elimination runs in place (Press et al., *Numerical Recipes*,
    section 2.1): once step ``col`` has reduced column ``col`` to a unit
    vector, that slot holds instead the inverse column of the row then at
    position ``col``, whose identity column became live at this step.  So a
    step updates ``n`` columns, not the ``2 n`` of ``[A | I]``; the columns
    it skips would only take ``x - f * 0``.  The loop records each step's
    pivot and pivot row and tests neither.  The singular test is taken once,
    after the last step, on the recorded pivots: a stack with a pivot below
    1e-300 in magnitude is refused, as an elimination that stops at that
    pivot refuses it (the steps before it are the same, and what the steps
    after it compute is never returned).  The row order is then replayed
    from the recorded pivot rows, and the slots are put back in the order
    of each member's rows."""
    N, n, _ = A.shape
    aug = A.copy()
    members = np.arange(N)
    pivot_rows = np.empty((n, N), dtype=np.intp)  # one row per step
    pivots = np.empty((n, N))
    f = np.empty((N, n))
    update = np.empty_like(aug)
    # a member's tiny pivot is divided by before the test after the loop refuses it
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for col in range(n):
            pivot = pivot_rows[col]
            np.argmax(np.abs(aug[:, col:, col]), axis=1, out=pivot)
            pivot += col
            top = aug[members, pivot]
            aug[members, pivot] = aug[:, col]
            p = pivots[col]
            p[:] = top[:, col]
            np.divide(top, p[:, None], out=aug[:, col])
            f[:] = aug[:, :, col]
            f[:, col] = 0.0
            # the identity column of the pivot row: 1 / pivot there, 0 elsewhere
            aug[:, :, col] = 0.0
            np.divide(1.0, p, out=aug[:, col, col])
            np.multiply(f[:, :, None], aug[:, None, col], out=update)
            aug -= update
    if (np.abs(pivots) < 1e-300).any():
        raise InvalidInputError("matrix is numerically singular")
    rows = np.broadcast_to(np.arange(n), (N, n)).copy()  # the row now at each position
    for col, pivot in enumerate(pivot_rows):
        row = rows[members, pivot]
        rows[members, pivot] = rows[:, col]
        rows[:, col] = row
    return np.take_along_axis(aug, np.argsort(rows, axis=1)[:, None, :], axis=2)


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


def _invertible_draws(instances: int, seed: int) -> tuple[list, list]:
    """The well-conditioned biorthogonality draws, as stacks of one size, and
    the instances that have none.  Instance ``idx`` draws its size from its
    own stream and its matrix from ``_derived(idx, attempt)``, taking the
    first ``attempt`` below ``_ATTEMPTS`` whose draw is well conditioned.
    Attempt 0 of the instances of one size is drawn straight into their
    stack and checked as one stack, a retry one draw at a time, into the
    retried instance's row.  A stack is ``(group, stack, hs)``: its
    instances, their matrices and the HS norms of their inverses; the stacks
    come in the order of their first instances."""
    kinds = [KINDS[idx % len(KINDS)] for idx in range(instances)]
    streams = _streams(seed)
    sizes = [(idx, int(streams.open(seed, idx).integers(2, 51))) for idx in range(instances)]
    stacks, failed = [], []
    for n, group in _by_shape(sizes).items():
        stack = np.empty((len(group), n, n))
        for idx, B in zip(group, stack):
            sample_matrix(RowDistribution(kinds[idx]), n, SeedSpec(seed, _derived(idx)), out=B)
        kept, norms = [], []
        extremes = linalg._stack_extremes(stack)
        for row, (idx, s_min, s_max, hs) in enumerate(zip(group, *(a.tolist() for a in extremes))):
            if not _conditioned(s_min, s_max):
                hs = _redraw(kinds[idx], seed, idx, stack[row])
                if hs is None:
                    failed.append(idx)
                    continue
            kept.append(row)
            norms.append(hs)
        if kept:
            members = [group[row] for row in kept]
            stacks.append((members, stack if len(kept) == len(group) else stack[kept], norms))
    stacks.sort(key=lambda item: item[0][0])
    return stacks, failed


def _redraw(kind: str, seed: int, idx: int, out: np.ndarray) -> float | None:
    """The HS norm of the inverse of the first well-conditioned retry of
    instance ``idx``, drawn into ``out``; ``None`` when every retry fails."""
    for attempt in range(1, _ATTEMPTS):
        B = sample_matrix(RowDistribution(kind), len(out), SeedSpec(seed, _derived(idx, attempt)), out=out)
        s_min, s_max, hs = linalg._extremes(B)
        if _conditioned(s_min, s_max):
            return hs
    return None


# Sizes n sharing n // _BAND are eliminated as one stack.  On the 360
# accepted matrices of seed 3001 (2-vCPU Xeon, medians of 21 calls), the
# elimination took 34-36 ms in bands of n // 4 (about the same at n // 3
# and n // 6, 38 ms at n // 8), 45-46 ms as one stack per size and 124 ms as
# one stack padded to the largest size.
_BAND = 4


def _inverses(stacks: list) -> list:
    """The inverses that ``_gauss_jordan`` gives the stacks ``stacks``, each
    of one size, bit for bit, the stacks of one band eliminated together.
    Each member is padded with the identity to the band's largest size, and
    its inverse is the leading block of the padded one.  A member's own
    steps leave +0.0 in its padded rows and columns (the step that subtracts
    +0.0 times the pivot row from itself turns the row's -0.0 into +0.0),
    so the steps after them subtract only +0.0 from its block and move none
    of its bytes."""
    inverses = [None] * len(stacks)
    bands = _by_shape((pos, stack.shape[1] // _BAND) for pos, stack in enumerate(stacks))
    for _, band in sorted(bands.items(), reverse=True):  # the largest while few inverses are held
        sizes = np.concatenate([np.full(len(stacks[pos]), stacks[pos].shape[1]) for pos in band])
        top = int(sizes.max())
        padded = np.zeros((len(sizes), top, top))
        diagonal = np.arange(top)
        padded[:, diagonal, diagonal] = diagonal >= sizes[:, None]
        ends = np.cumsum([len(stacks[pos]) for pos in band]).tolist()
        for pos, start, end in zip(band, [0, *ends], ends):
            n = stacks[pos].shape[1]
            padded[start:end, :n, :n] = stacks[pos]
        eliminated = _gauss_jordan(padded)
        for pos, start, end in zip(band, [0, *ends], ends):
            n = stacks[pos].shape[1]
            inverses[pos] = eliminated[start:end, :n, :n].copy()
    return inverses


def run_biorthogonality_suite(instances: int = 1000, seed: int = 0) -> SuiteResult:
    """Column norms of the inverse against reciprocal row distances.

    For random invertible matrices of mixed kinds and sizes, checks
    ``norm(col_i(B^-1)) * dist(row_i, span of others) == 1`` for every
    ``i`` and the induced identity between the inverse's HS norm and
    the distance profile, both to relative error 1e-8.
    """
    stacks, failed = _invertible_draws(instances, seed)
    failures = [
        (idx, f"instance {idx}: could not draw an invertible {KINDS[idx % len(KINDS)]} matrix")
        for idx in failed
    ]
    inverses = _inverses([stack for _, stack, _ in stacks])
    for (group, stack, norms), inverse in zip(stacks, inverses):
        distances = linalg._row_profile(stack)
        products = np.linalg.norm(inverse, axis=1) * distances
        worst_errors = np.max(np.abs(products - 1.0), axis=1).tolist()
        squares = np.sum(distances**-2.0, axis=1).tolist()
        for idx, hs, worst, square in zip(group, norms, worst_errors, squares):
            where = f"instance {idx} (kind={KINDS[idx % len(KINDS)]}, n={stack.shape[1]})"
            if worst > 1e-8:
                failures.append((idx, f"{where}: biorthogonality error {worst:g}"))
                continue
            hs_from_distances = math.sqrt(square)
            rel = abs(hs**2 - hs_from_distances**2) / hs**2
            if rel > 1e-8:
                failures.append((idx, f"{where}: HS identity error {rel:g}"))
    return _result("biorthogonality", instances, failures)


def _pivot_family(rng: np.random.Generator, stacks: _ShapeStacks, idx: int) -> None:
    """Draw the family of pivot instance ``idx`` from its stream ``rng`` into
    its row of ``stacks``, of shape ``(r + 1, r)``: the ``r - 1`` vectors
    ``xs`` in ``R^r``, then the normals whose doubles are their coefficients
    ``coeffs``, and ``delta``, then the noise.  The family is the vectors
    ``xs`` and ``x1 = coeffs . xs + delta noise``."""
    r = int(rng.integers(2, 7))
    family = stacks.row((r + 1, r), idx).reshape(-1)
    rng.standard_normal(out=family[: r * r - 1])  # the vectors, then their coefficients
    family[r * r - 1] = 10.0 ** rng.uniform(-3, 0)
    rng.standard_normal(out=family[r * r :])


def run_pivot_suite(instances: int = 10_000, seed: int = 0) -> SuiteResult:
    """Construct vector families satisfying the pivot hypotheses and
    check that a valid pivot index is always produced."""
    streams = _streams(seed)
    stacks = _ShapeStacks(instances)
    for idx in range(instances):
        _pivot_family(streams.open(seed, idx), stacks, idx)
    failures = []
    for shape, group in stacks.members.items():
        r = shape[1]
        families = stacks.stack(shape)
        xs, noise = families[:, : r - 1], families[:, r]
        coeffs = families[:, r - 1, : r - 1] * 2.0
        delta = families[:, r - 1, r - 1]
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


def _quantiles(ordered: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``np.quantile(d, q[m])`` for every row ``d`` of the stack ``ordered``
    of ascending rows, bit for bit.  numpy's default (``linear``) method
    interpolates between the order statistics at ``lo = floor(v)`` and
    ``lo + 1``, for ``v = (n - 1) q``, by ``g = v - lo``: as ``a + (b - a)
    g``, or as ``b - (b - a) (1 - g)`` from ``g = 0.5``.  From ``v = n - 1``
    on, both are the last, and ``lo`` is taken as -1."""
    n = ordered.shape[1]
    v = (n - 1) * q
    last = v >= n - 1
    lo = np.where(last, -1.0, np.floor(v))
    g = v - lo
    lo = lo.astype(np.intp)
    a = np.take_along_axis(ordered, lo[:, None], axis=1)[:, 0]
    b = np.take_along_axis(ordered, np.where(last, -1, lo + 1)[:, None], axis=1)[:, 0]
    diff = b - a
    return np.where(g >= 0.5, b - diff * (1 - g), a + diff * g)


def run_q_sets_suite(instances: int = 1000, seed: int = 0) -> SuiteResult:
    """Counting bound for the two families of r-subsets.

    Thresholds are taken from the realized distance profile so that the
    disjoint index sets and their distance bounds hold by construction;
    qualifying instances must satisfy
    ``|Q1 union Q2| >= |I| * C(ceil(n/2), r-1)``.
    """
    drawn = []
    streams = _streams(seed)
    stacks = _ShapeStacks(instances)
    for idx in range(instances):
        rng = streams.open(seed, idx)
        n = int(rng.integers(4, 11))
        r = int(rng.integers(2, 4))
        rng.standard_normal(out=stacks.row((n, n), idx))
        i_count = int(rng.integers(1, n - (n + 1) // 2 + 1))
        drawn.append((n, r, i_count, rng.uniform(0.1, 0.9), rng.uniform(0.5, 2.0)))
    # (row, I, tau, a, b) of each instance whose profile has a < b: its row
    # in the stack of its n, I the rows of the i_count smallest distances,
    # the largest of them a, and b the smallest of the ceil(n/2) largest;
    # kept in instance order
    found = [None] * instances
    for (n, _), group in stacks.members.items():
        d = linalg._row_profile(stacks.stack((n, n)))
        order = np.argsort(d, axis=1)
        ordered = np.take_along_axis(d, order, axis=1)
        taus = _quantiles(ordered, np.array([drawn[idx][3] for idx in group])).tolist()
        for row, (idx, b) in enumerate(zip(group, ordered[:, n - (n + 1) // 2].tolist())):
            _, _, i_count, _, factor = drawn[idx]
            a = float(ordered[row, i_count - 1])
            if a < b:
                found[idx] = (row, order[row, :i_count], taus[row] * factor, a, b)
    qualifying = {idx: item for idx, item in enumerate(found) if item is not None}
    failures = []
    for (n, r), group in _by_shape((idx, drawn[idx][:2]) for idx in qualifying).items():
        sets = np.array(list(combinations(range(n), r)))
        in_I = np.zeros((len(group), n), dtype=bool)
        for row, idx in enumerate(group):
            in_I[row, qualifying[idx][1]] = True
        rows, tau, a, b = (np.array([qualifying[idx][j] for idx in group]) for j in (0, 2, 3, 4))
        stack = stacks.stack((n, n))[rows]
        q1, q2 = combinatorics._q_masks(stack, sets, in_I[:, sets], tau, tau * b / (2.0 * a * r))
        for idx, union in zip(group, (q1 | q2).sum(axis=1).tolist()):
            lower = drawn[idx][2] * math.comb((n + 1) // 2, r - 1)
            if union < lower:
                failures.append(
                    (idx, f"instance {idx}: |Q1 u Q2| = {union} < {lower} (n={n}, r={r})")
                )
    return _result("q-sets", instances, failures)


def _random_graph_with_isolated(rng: np.random.Generator, n: int, p: float, i: int):
    """Each pair of vertices other than ``i`` an edge with probability
    ``p``, one coin per pair in lexicographic order."""
    pairs = [(j, k) for j, k in combinations(range(n), 2) if i not in (j, k)]
    coins = rng.random(len(pairs)).tolist()
    # a set frozen, as the edges were always collected: the dichotomy suite
    # draws one coin per edge in the frozen set's iteration order
    return combinatorics.Graph(n, frozenset({pair for pair, coin in zip(pairs, coins) if coin < p}))


def run_edge_interval_suite(instances: int = 200, seed: int = 0) -> SuiteResult:
    """Two-sided halving bounds along exact decompositions, all (k, l)."""
    failures = []
    depth = 8
    streams = _streams(seed)
    for idx in range(instances):
        rng = streams.open(seed, idx)
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
    streams = _streams(seed)
    for idx in range(matrices):
        rng = streams.open(seed, idx)
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
        rng = streams.open(seed, _derived(idx))
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


def _dichotomy_pair(rng: np.random.Generator) -> tuple:
    """``(n, L, i, G, G_tilde)`` of a dichotomy instance, drawn from its
    stream ``rng``: ``G`` keeps each edge of ``G_tilde`` with probability 0.7
    and adds at most ``16**-L n**2`` others, ``i`` isolated in both."""
    n = int(rng.integers(4, 13))
    L = int(rng.integers(1, 3))
    i = int(rng.integers(0, n))
    G_tilde = _random_graph_with_isolated(rng, n, rng.uniform(0.1, 0.6), i)
    allowed = int(16.0 ** (-L) * n * n)
    coins = rng.random(len(G_tilde.edges)).tolist()  # one per edge, in iteration order
    kept = frozenset(e for e, coin in zip(G_tilde.edges, coins) if coin > 0.3)
    candidates = [
        (j, k)
        for j, k in combinations(range(n), 2)
        if i not in (j, k) and (j, k) not in G_tilde.edges
    ]
    rng.shuffle(candidates)
    extra = frozenset(tuple(e) for e in candidates[: int(rng.integers(0, allowed + 1))])
    return n, L, i, combinatorics.Graph(n, kept | extra), G_tilde


def run_dichotomy_suite(instances: int = 200, seed: int = 0) -> SuiteResult:
    """Graph pairs within the edge-difference hypothesis satisfy the dichotomy."""
    failures = []
    streams = _streams(seed)
    for idx in range(instances):
        n, L, i, G, G_tilde = _dichotomy_pair(streams.open(seed, idx))
        report = combinatorics.two_graphs_dichotomy(G, G_tilde, i, L)
        if not report.holds:
            failures.append((
                idx,
                f"instance {idx}: both assertions fail (n={n}, L={L}, vl={report.vl:g}, "
                f"cover={report.min_half_cover})",
            ))
    return _result("dichotomy", instances, failures)


def _alpharho_inputs(rng: np.random.Generator) -> alphaeta._Inputs:
    """The random structure of an alpharho instance, drawn from its stream
    ``rng``."""
    n = int(rng.integers(1, 5))
    factors = []
    for _ in range(n):
        m = int(rng.integers(1, 6))
        raw = rng.random(m) + 0.05
        factors.append(raw / raw.sum())
    size = math.prod(p.size for p in factors)
    psi = int(rng.integers(1, 4))
    lam = int(rng.integers(1, 4))
    classes = list(rng.integers(1, psi + 1, size=(n, size)))
    event = rng.random(size) < rng.uniform(0.2, 0.8)
    cells = list(rng.integers(1, lam + 1, size=(n, size)))
    return alphaeta._Inputs(factors, psi, lam, classes, event, cells)


def run_alpharho_suite(instances: int = 500, seed: int = 0) -> SuiteResult:
    """Random discrete structures satisfy the exhaustive structure inequality.

    Every instance is drawn first; the structures are then verified as one
    batch (``alphaeta._verify_batch``), on the kernel that ``verify_alpharho``
    runs on a single structure, so each gets the report of its own
    ``verify_alpharho``, bit for bit."""
    streams = _streams(seed)
    drawn = [_alpharho_inputs(streams.open(seed, idx)) for idx in range(instances)]
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
    if instances is None:
        return runner(seed=seed)
    with decoding("instances"):
        instances = integer(instances)
    if instances < 1:
        raise InvalidInputError(f"instances must be at least 1, got {instances}")
    return runner(instances, seed=seed)
