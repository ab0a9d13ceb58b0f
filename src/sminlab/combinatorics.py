"""Graph and tuple machinery: half-cover decompositions, vertex values,
residual edge sets and matrix-derived comparison graphs.

Vertices and matrix row indices are 0-based throughout the Python API;
only the edge-list text format (:meth:`Graph.to_edge_text`) is 1-based.

The exact decomposition mode solves a sequence of minimum partial
vertex-cover problems by exhaustive search and is therefore restricted
to graphs on at most ``EXACT_MODE_MAX_N`` vertices; the same search,
written once, gives :func:`min_half_cover_size`.  The greedy mode
scales further but loses the minimality certificate, so the operations
that rely on minimality (:func:`check_edge_interval`,
:func:`low_value_count` and the dichotomy) take no mode and decompose
exactly.

Each kind of distance a call needs comes from one factorization of its
matrix: the complement distances of all the triples of a comparison
graph and of all the r-subsets of :func:`q_sets` from one batched
``sminlab.linalg._set_distances`` call, and the distances of a pivot
vector family from one QR profile.  The offset
graph takes its triples from one factorization of ``A + M`` with row
``i`` replaced by ``M[i]``.
The pivot check, :func:`q_sets` and the comparison graphs are thin
per-call wrappers over stacked cores (``_pivot_indices``, ``_q_masks``,
``_comparison_graphs``) that the verification suites call with every
instance of one shape at once; the graphs of all the vertices of a
matrix are read from one table of all its triples.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, PreconditionError, UnsupportedSizeError, decoding, integer, number
from .linalg import _row_profile, _set_distances, as_matrix

EXACT_MODE_MAX_N = 16
MODES = ("exact", "greedy")

Edge = tuple[int, int]


def _read(read, name: str, value):
    """``read(value)`` (:func:`~sminlab.errors.integer` or
    :func:`~sminlab.errors.number`), a bad value raising
    :class:`InvalidInputError` that names the argument ``name``."""
    with decoding(name):
        return read(value)


def _norm_edge(e) -> Edge:
    try:  # not decoding(f"edge {e!r}"), which would format every edge
        j, k = e
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"edge {e!r}: {exc}") from None
    if type(j) is not int or type(k) is not int:  # a graph reads every edge: ints take no extra step
        with decoding(f"edge {tuple(e)!r}"):
            j, k = integer(j), integer(k)
    if j == k:
        raise InvalidInputError(f"self-loop ({j},{k}) is not allowed")
    return (j, k) if j < k else (k, j)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on ``{0, ..., n-1}``.

    Edges are stored as a frozenset of ``(j, k)`` pairs with ``j < k``;
    construction normalizes orientation and rejects self-loops.
    """

    n: int
    edges: frozenset[Edge]

    def __post_init__(self):
        if type(self.n) is not int:
            object.__setattr__(self, "n", _read(integer, "vertex count", self.n))
        if self.n < 0:
            raise InvalidInputError("vertex count must be non-negative")
        normalized = frozenset(_norm_edge(e) for e in self.edges)
        for j, k in normalized:
            if not (0 <= j < self.n and 0 <= k < self.n):
                raise InvalidInputError(f"edge ({j},{k}) out of range for n={self.n}")
        object.__setattr__(self, "edges", normalized)

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, frozenset())

    @classmethod
    def complete(cls, n: int, exclude=()) -> "Graph":
        """Complete graph on the vertices of ``[0, n)`` not in ``exclude``."""
        keep = [v for v in range(n) if v not in set(exclude)]
        return cls(n, frozenset(itertools.combinations(keep, 2)))

    def is_isolated(self, v: int) -> bool:
        return all(v not in e for e in self.edges)

    def to_edge_text(self) -> str:
        """Serialize as one ``"j k"`` pair per line, 1-indexed."""
        lines = [f"{j + 1} {k + 1}" for j, k in sorted(self.edges)]
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_edge_text(cls, text: str, n: int | None = None) -> "Graph":
        """Parse the 1-indexed edge-list format written by :meth:`to_edge_text`.

        An edge outside ``1..n`` and a self-loop are refused by the
        endpoints as the text writes them, 1-indexed."""
        if n is not None:
            n = _read(integer, "vertex count", n)
        edges = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise InvalidInputError(f"malformed edge line: {line!r}")
            try:
                j, k = int(parts[0]), int(parts[1])
            except ValueError:
                raise InvalidInputError(f"edge line {line!r} does not hold two integers") from None
            if j < 1 or k < 1:
                raise InvalidInputError(f"edge line {line!r} is not 1-indexed")
            if j == k:
                raise InvalidInputError(f"self-loop ({j},{k}) is not allowed")
            if n is not None and max(j, k) > n:
                raise InvalidInputError(f"edge ({j},{k}) out of range 1..{n}")
            edges.append((j - 1, k - 1))
        if n is None:
            n = max((max(e) for e in edges), default=-1) + 1
        return cls(n, frozenset(edges))


@dataclass
class GreedyDecomposition:
    """Nested vertex sets halving the residual edge count at each step.

    ``s_seq[k]`` is the vertex set after ``k`` steps (``s_seq[0]`` is
    empty) and ``e_seq[k]`` is the set of original edges not incident to
    it; ``len(e_seq[k]) <= len(e_seq[k-1]) / 2`` for every computed step.
    In exact mode each ``s_seq[k]`` is a minimum-cardinality admissible
    superset of its predecessor, ties broken by lexicographically
    smallest sorted vertex list.
    """

    s_seq: list[frozenset[int]]
    e_seq: list[frozenset[Edge]]


def _surviving(edges: frozenset[Edge], vertices) -> frozenset[Edge]:
    vs = set(vertices)
    return frozenset(e for e in edges if e[0] not in vs and e[1] not in vs)


def _exact_step(base: frozenset[int], edges) -> frozenset[int]:
    """Minimum-cardinality superset of ``base`` incident to at least
    ``ceil(len(edges) / 2)`` of ``edges`` (repeated edges counted);
    lexicographic tie-break on the full set.  No edge may meet ``base``.

    Exhaustive search over subsets of the incident vertices in increasing
    cardinality, each cardinality in ``itertools.combinations`` order.
    Since no candidate lies in ``base``, the first admissible subset is
    also the lexicographic minimum of ``sorted(base | subset)``.  Each
    candidate carries a bit mask of the positions of its edges in
    ``edges``, so a subset covers the set bits of the union of its masks.
    """
    need = (len(edges) + 1) // 2
    if need == 0:
        return base
    masks: dict[int, int] = {}
    for position, (j, k) in enumerate(edges):
        bit = 1 << position
        masks[j] = masks.get(j, 0) | bit
        masks[k] = masks.get(k, 0) | bit
    candidates = sorted(masks)
    ordered = [masks[v] for v in candidates]
    for size in range(1, len(candidates) + 1):
        for combo, covered in zip(itertools.combinations(candidates, size), itertools.combinations(ordered, size)):
            if functools.reduce(operator.or_, covered).bit_count() >= need:
                return base.union(combo)
    raise AssertionError("unreachable: all incident vertices cover every edge")


def _greedy_step(base: frozenset[int], prev_edges: frozenset[Edge]) -> frozenset[int]:
    """Grow ``base`` by repeatedly taking the max-degree vertex of the
    residual graph (ties to the smallest index) until the count halves."""
    chosen = set(base)
    remaining = list(prev_edges)
    while 2 * len(remaining) > len(prev_edges):
        degrees: dict[int, int] = {}
        for j, k in remaining:
            degrees[j] = degrees.get(j, 0) + 1
            degrees[k] = degrees.get(k, 0) + 1
        v = min(degrees, key=lambda u: (-degrees[u], u))
        chosen.add(v)
        remaining = [e for e in remaining if v not in e]
    return frozenset(chosen)


def greedy_decomposition(G: Graph, i: int, depth: int, mode: str = "exact") -> GreedyDecomposition:
    """Compute the first ``depth`` steps of the half-cover decomposition
    rooted at the isolated vertex ``i``.

    Once the residual edge set is empty the sequences extend with
    ``s_seq[k] = s_seq[k-1]`` and empty edge sets.
    """
    if mode not in MODES:
        raise InvalidInputError(f"mode must be one of {MODES}")
    i = _read(integer, "i", i)
    depth = _read(integer, "depth", depth)
    if depth < 1:
        raise InvalidInputError("depth must be a positive integer")
    if not (0 <= i < G.n):
        raise InvalidInputError(f"vertex {i} out of range for n={G.n}")
    if not G.is_isolated(i):
        raise InvalidInputError(f"vertex {i} must be isolated")
    if mode == "exact" and G.n > EXACT_MODE_MAX_N:
        raise UnsupportedSizeError(
            f"exact mode is exhaustive search, limited to n <= {EXACT_MODE_MAX_N} (got n={G.n})"
        )
    step = _exact_step if mode == "exact" else _greedy_step
    s_seq = [frozenset()]
    e_seq = [G.edges]
    for _ in range(depth):
        s_next = step(s_seq[-1], e_seq[-1])
        s_seq.append(s_next)
        e_seq.append(_surviving(G.edges, s_next))
    return GreedyDecomposition(s_seq, e_seq)


def _vertex_values(G: Graph, i: int, depth: int, mode: str = "exact") -> list[float]:
    """:func:`vertex_value` at ``L = 1, ..., depth``, all read from one
    decomposition of depth ``depth``, of which each shallower one is a
    prefix."""
    s_seq = greedy_decomposition(G, i, depth, mode).s_seq
    root_e = math.sqrt(len(G.edges))
    return [
        min(max(2.0 ** (-L / 2.0) * root_e, float(len(s_seq[L]))), root_e)
        for L in range(1, depth + 1)
    ]


def vertex_value(G: Graph, i: int, L: int, mode: str = "exact") -> float:
    """Robust size proxy ``min(max(2**(-L/2) sqrt(|E|), |S_L|), sqrt(|E|))``."""
    L = _read(integer, "L", L)
    if L < 1:
        raise InvalidInputError("L must be a positive integer")
    return _vertex_values(G, i, L, mode)[-1]


def rho_set(G: Graph, i: int, L: int, mode: str = "exact") -> frozenset[Edge]:
    """Residual edge set just before the step of maximal vertex increment.

    Runs the decomposition to depth ``4 L`` and returns ``e_seq[k0 - 1]``
    where ``k0`` is the smallest step index achieving the largest
    ``|s_seq[k] - s_seq[k-1]|``; when all increments tie (for example on
    an empty graph) this is ``e_seq[0]``.
    """
    L = _read(integer, "L", L)
    dec = greedy_decomposition(G, i, 4 * L, mode)
    increments = [len(dec.s_seq[k]) - len(dec.s_seq[k - 1]) for k in range(1, 4 * L + 1)]
    k0 = 1 + max(range(len(increments)), key=lambda idx: (increments[idx], -idx))
    return dec.e_seq[k0 - 1]


def _edge_interval_holds(e_seq, n: int, k: int, ell: int) -> bool:
    """``2**l |E_k| <= |E_{k-l}| <= 2**l |E_k| + 2**(l+1) n`` for the
    residual edge sets ``e_seq`` of a decomposition of a graph on ``n``
    vertices."""
    lo = 2**ell * len(e_seq[k])
    return lo <= len(e_seq[k - ell]) <= lo + 2 ** (ell + 1) * n


def check_edge_interval(G: Graph, i: int, k: int, ell: int) -> bool:
    """Check ``2**l |E_k| <= |E_{k-l}| <= 2**l |E_k| + 2**(l+1) n`` along
    the exact decomposition rooted at ``i``, whose minimality the bound
    relies on."""
    k = _read(integer, "k", k)
    ell = _read(integer, "ell", ell)
    if not (0 < ell <= k):
        raise InvalidInputError(f"need 0 < ell <= k, got k={k}, ell={ell}")
    return _edge_interval_holds(greedy_decomposition(G, i, k).e_seq, G.n, k, ell)


def _triples(n: int, i: int) -> np.ndarray:
    """The sets ``{i, j, k}`` in ascending order, for the pairs ``j < k`` of
    vertices other than ``i`` in ``itertools.combinations`` order."""
    pairs = np.array(list(itertools.combinations([v for v in range(n) if v != i], 2)))
    return np.sort(np.column_stack([np.full(len(pairs), i), pairs]), axis=1)


def _compared(n: int, sets: np.ndarray, d: np.ndarray, i: int, offset: float = 0.0) -> Graph:
    """Comparison graph of vertex ``i`` from the distances ``d`` of the
    ascending triples ``sets`` (those without ``i`` are skipped): pair ``(j,
    k)`` is an edge iff the distance of row ``i`` of its triple plus
    ``offset`` is at least the distances of rows ``j`` and ``k``."""
    at_i = sets == i
    rows = at_i.any(axis=1)
    sets, d, at_i = sets[rows], d[rows], at_i[rows]
    keep = d[at_i] + offset >= np.where(at_i, -np.inf, d).max(axis=1)
    pairs = sets[~at_i].reshape(-1, 2)
    return Graph(n, frozenset(map(tuple, pairs[keep].tolist())))


def _comparison_graphs(A: np.ndarray) -> list[list[Graph]]:
    """Every vertex's comparison graph of every matrix of a stack ``A`` of
    shape ``(N, n, n)``, ``n >= 3``, read from one table of the
    complement distances of all the ``C(n, 3)`` triples per matrix."""
    n = A.shape[1]
    sets = np.array(list(itertools.combinations(range(n), 3)))
    table = _set_distances(A, sets)
    return [[_compared(n, sets, d, i) for i in range(n)] for d in table]


def _graph_input(B, i: int) -> tuple[np.ndarray, int]:
    """``(A, i)``: ``B`` as a checked square matrix of at least three rows,
    and ``i`` as the integer index of one of them."""
    i = _read(integer, "i", i)
    A = as_matrix(B)
    n = A.shape[0]
    if n < 3:
        raise InvalidInputError("comparison graph needs n >= 3")
    if not (0 <= i < n):
        raise InvalidInputError(f"row index {i} out of range for n={n}")
    return A, i


def build_graph_G(B, i: int) -> Graph:
    """Comparison graph of matrix ``B`` seen from row ``i``.

    Pair ``(j, k)`` is an edge iff the distance from row ``i`` to the
    span of the rows outside ``{i, j, k}`` is at least the larger of the
    corresponding distances for rows ``j`` and ``k``.  Comparisons use
    exact floating-point ``>=`` (ties produce an edge); vertex ``i`` is
    isolated by construction.

    All the distances come from one factorization of ``B``
    (:func:`sminlab.linalg._set_distances`), each triple taken in
    ascending order, so the graphs of ``i``, ``j`` and ``k`` compare the
    same three numbers and at least one of them has the edge opposite
    its vertex; the graphs of every vertex come from one table of all the
    triples (:func:`low_value_count`).  Which edge that is at an exact
    mathematical tie, as discrete (for example ±1) matrices often
    produce, depends on rounding: a different but equally accurate kernel
    may break the tie the other way.
    """
    A, i = _graph_input(B, i)
    sets = _triples(A.shape[0], i)
    return _compared(A.shape[0], sets, _set_distances(A[None], sets)[0], i)


def build_graph_G_tilde(A, M, i: int, offset: float) -> Graph:
    """Offset comparison graph in which row ``i`` of the random part does
    not participate.

    Pair ``(j, k)`` is an edge iff ``dist(M[i], H) + offset`` is at least
    the larger of the distances of rows ``j`` and ``k`` of ``A + M`` to
    ``H``, where ``H`` is the span of the rows of ``A + M`` outside
    ``{i, j, k}``.

    ``H`` leaves out row ``i``, so every distance comes from one
    factorization of ``A + M`` with row ``i`` replaced by ``M[i]``
    (:func:`sminlab.linalg._set_distances`).  When that matrix is rank
    deficient at the tolerance, as at ``M[i] = 0``, every triple takes its
    own SVD.
    """
    offset = _read(number, "offset", offset)
    if not math.isfinite(offset):
        raise InvalidInputError(f"offset must be finite, not {offset!r}")
    A2 = as_matrix(A)
    M2 = as_matrix(M)
    if A2.shape != M2.shape:
        raise InvalidInputError(f"shape mismatch: A is {A2.shape}, M is {M2.shape}")
    _, i = _graph_input(M2, i)
    B = A2 + M2
    B[i] = M2[i]
    sets = _triples(B.shape[0], i)
    return _compared(B.shape[0], sets, _set_distances(B[None], sets)[0], i, offset)


def low_value_count(B, L: int, N: int) -> int:
    """Number of rows whose comparison-graph vertex value (exact mode) is
    at most ``N``."""
    L = _read(integer, "L", L)
    N = _read(integer, "N", N)
    if N < 1:
        raise InvalidInputError("N must be a positive integer")
    A, _ = _graph_input(B, 0)
    graphs = _comparison_graphs(A[None])[0]
    return sum(1 for i, G in enumerate(graphs) if vertex_value(G, i, L) <= N)


def min_half_cover_size(edges) -> int:
    """Size of a smallest vertex set incident to at least half the edges.

    Repeated edges count with their multiplicity.  This is the search of
    one exact decomposition step, started from the empty set; an empty
    edge set is covered by the empty set.
    """
    return len(_exact_step(frozenset(), tuple(_norm_edge(e) for e in edges)))


@dataclass
class DichotomyReport:
    """Outcome of the two-graph dichotomy check.

    ``cover_assertion`` states that every vertex set covering at least
    half of the residual edge set has size at least ``vl / (4 L^2)``
    (certified through the minimum half-cover size);
    ``small_value_assertion`` states ``vl <= 4 * 2**(-L/2) * n``.  At
    least one must hold whenever the edge-difference hypothesis does.
    """

    vertex: int
    L: int
    vl: float
    min_half_cover: int
    cover_threshold: float
    value_threshold: float
    cover_assertion: bool
    small_value_assertion: bool

    @property
    def holds(self) -> bool:
        return self.cover_assertion or self.small_value_assertion


_FLOAT_SLACK = 1e-9


def two_graphs_dichotomy(G: Graph, G_tilde: Graph, i: int, L: int) -> DichotomyReport:
    """Evaluate the dichotomy for a graph pair sharing isolated vertex ``i``.

    Requires ``|E(G) \\ E(G_tilde)| <= 16**(-L) n**2``; a violated
    hypothesis raises :class:`PreconditionError`, which is distinct from
    a report whose assertions both fail.
    """
    i = _read(integer, "i", i)
    L = _read(integer, "L", L)
    if G.n != G_tilde.n:
        raise InvalidInputError("graphs must share the vertex set")
    if L < 1:
        raise InvalidInputError("L must be a positive integer")
    diff = len(G.edges - G_tilde.edges)
    bound = 16.0 ** (-L) * G.n**2
    if diff > bound:
        raise PreconditionError(
            f"|E \\ E_tilde| = {diff} exceeds 16**(-L) n^2 = {bound:g}"
        )
    vl = vertex_value(G, i, L, mode="exact")
    rho = rho_set(G_tilde, i, L, mode="exact")
    cover = min_half_cover_size(rho)
    cover_threshold = vl / (4.0 * L * L)
    value_threshold = 4.0 * 2.0 ** (-L / 2.0) * G.n
    return DichotomyReport(
        vertex=i,
        L=L,
        vl=vl,
        min_half_cover=cover,
        cover_threshold=cover_threshold,
        value_threshold=value_threshold,
        cover_assertion=cover >= cover_threshold - _FLOAT_SLACK,
        small_value_assertion=vl <= value_threshold + _FLOAT_SLACK,
    )


def _q_masks(A: np.ndarray, sets: np.ndarray, inside: np.ndarray, tau, high):
    """The stacked core of :func:`q_sets`: ``(q1, q2)``, boolean ``(N, S)``
    masks of the sets ``sets`` (``(S, r)``) that belong to ``Q1`` and
    ``Q2`` of each matrix of the stack ``A`` (``(N, n, n)``).  ``inside``
    (``(N, S, r)``) marks the members of each ``I``; ``tau`` and ``high``
    are ``(N,)``.  Only the sets meeting some ``I`` are factored, all of
    them from one factorization per matrix.
    """
    meets = inside.any(axis=2)
    q1 = np.zeros(meets.shape, dtype=bool)
    q2 = np.zeros(meets.shape, dtype=bool)
    used = meets.any(axis=0)
    if used.any():
        d = _set_distances(A, sets[used])
        inside = inside[:, used]
        q1[:, used] = ((d <= tau[:, None, None]) & inside).any(axis=2)
        q2[:, used] = ((d >= high[:, None, None]) & ~inside).any(axis=2)
    return q1 & meets, q2 & meets


def q_sets(B, I, tau: float, a: float, b: float, r: int):
    """Exhaustively classify all ``r``-subsets by their complement distances.

    Returns ``(Q1, Q2)`` as sets of frozensets: ``Q1`` holds the subsets
    ``S`` with some ``j in S & I`` at distance at most ``tau`` from the
    span of the rows outside ``S``; ``Q2`` holds the subsets meeting
    ``I`` with some ``j in S - I`` at distance at least
    ``tau * b / (2 a r)``.  The distances of every subset meeting ``I``
    come from one factorization of ``B``.
    """
    r = _read(integer, "r", r)
    tau = _read(number, "tau", tau)
    a = _read(number, "a", a)
    b = _read(number, "b", b)
    with decoding("I"):
        I_set = {integer(v) for v in I}
    A = as_matrix(B)
    n = A.shape[0]
    if r < 2:
        raise InvalidInputError("r must be at least 2")
    if r > n:
        raise InvalidInputError(f"r={r} exceeds n={n}")
    if not all(0 < v < math.inf for v in (tau, a, b)):
        raise InvalidInputError("tau, a, b must be positive and finite")
    if not all(0 <= v < n for v in I_set):
        raise InvalidInputError("I must be a subset of the row indices")
    sets = np.array(list(itertools.combinations(range(n), r)))
    inside = np.isin(sets, list(I_set))[None]
    q1, q2 = _q_masks(A[None], sets, inside, np.array([tau]), np.array([tau * b / (2.0 * a * r)]))
    return tuple({frozenset(S) for S in sets[q[0]].tolist()} for q in (q1, q2))


def _pivot_family(vectors, a: float, b: float) -> tuple[np.ndarray, float, float]:
    """``(X, a, b)``: the checked pivot family as an ``(r, dim)`` array and
    the bounds as floats."""
    a = _read(number, "a", a)
    b = _read(number, "b", b)
    xs = [np.asarray(v, dtype=float) for v in vectors]
    if len(xs) < 2:
        raise InvalidInputError("need at least two vectors")
    dim = xs[0].shape
    if any(x.shape != dim or x.ndim != 1 for x in xs):
        raise InvalidInputError("vectors must share a common dimension")
    if not (0 < a < math.inf and 0 < b < math.inf):
        raise InvalidInputError("a and b must be positive and finite")
    return np.array(xs), a, b


def _hypotheses(d: np.ndarray, a, b):
    """``(far, low)`` for a stack of distance profiles ``d`` (``(N, r)``)
    and bounds ``a``, ``b`` (``(N,)``): whether the first vector lies
    beyond ``a``, and which of the others (``(N, r - 1)``) lie below
    ``b``, each up to the relative tolerance of
    :func:`pivot_hypothesis_failure`."""
    far = d[:, 0] > a * (1 + _FLOAT_SLACK) + 1e-12
    low = d[:, 1:] < (b * (1 - _FLOAT_SLACK) - 1e-12)[:, None]
    return far, low


def _row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of a stack ``X``, each one a dot product
    as :func:`numpy.linalg.norm` takes it of one vector."""
    return np.sqrt((X[..., None, :] @ X[..., :, None])[..., 0, 0])


def _pivot_indices(X: np.ndarray, d: np.ndarray, a, b) -> np.ndarray:
    """The stacked core of :func:`pivot_index`: for vector families ``X``
    (``(N, r, dim)``) with distance profiles ``d`` (``(N, r)``, as
    :func:`sminlab.linalg._row_profile` gives them) and bounds ``a``, ``b``
    (``(N,)``), the pivot index of each family, 0 where a hypothesis fails
    or no vector qualifies."""
    far, low = _hypotheses(d, a, b)
    norms = _row_norms(X)
    threshold = b / (2.0 * a * X.shape[1]) * norms[:, 0]
    hit = norms[:, 1:] >= (threshold * (1 - 1e-12))[:, None]
    hit &= ~(far | low.any(axis=1))[:, None]
    return np.where(hit.any(axis=1), hit.argmax(axis=1) + 1, 0)


def pivot_hypothesis_failure(vectors, a: float, b: float) -> str | None:
    """Describe which pivot hypothesis fails, or ``None`` when both hold.

    Hypotheses (checked up to a relative tolerance of 1e-9): the first
    vector is within ``a`` of the span of the others, and every other
    vector is at distance at least ``b`` from the span of the rest.  All
    the distances come from one QR profile of the family, as in
    :func:`sminlab.linalg.row_distances`, when the vectors are no more
    than their dimension and independent at the rank tolerance, and from
    one SVD of the other vectors per vector otherwise
    (:func:`sminlab.linalg._svd_distances`).
    """
    X, a, b = _pivot_family(vectors, a, b)
    d = _row_profile(X[None])
    far, low = _hypotheses(d, np.array([a]), np.array([b]))
    d = d[0]
    if far[0]:
        return f"dist(x1, span rest) = {d[0]:g} exceeds a = {a:g}"
    if low.any():
        idx = int(np.argmax(low[0])) + 1
        return f"dist(x{idx + 1}, span others) = {d[idx]:g} is below b = {b:g}"
    return None


def pivot_index(vectors, a: float, b: float) -> int | None:
    """Index (0-based, >= 1) of a vector whose norm is at least
    ``b / (2 a r)`` times the norm of the first vector.

    The hypotheses of :func:`pivot_hypothesis_failure` are verified
    first; if they fail, returns ``None`` (the failure description is
    available from that helper).  When they hold such an index exists,
    and the smallest one is returned.
    """
    X, a, b = _pivot_family(vectors, a, b)
    X = X[None]
    return int(_pivot_indices(X, _row_profile(X), np.array([a]), np.array([b]))[0]) or None
