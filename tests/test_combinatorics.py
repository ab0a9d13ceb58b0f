import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sminlab.combinatorics as comb
import sminlab.experiments as ex
import sminlab.linalg as la
from sminlab.errors import InvalidInputError, PreconditionError, UnsupportedSizeError
from sminlab.linalg import dist_to_span

# star on 5 vertices: center 1, leaves 2..4, vertex 0 isolated
STAR = comb.Graph(5, frozenset({(1, 2), (1, 3), (1, 4)}))

# a well-conditioned 4 x 4 matrix for the argument checks
B4 = np.eye(4) + 0.1 * np.arange(16.0).reshape(4, 4) / 16


def brute_decomposition(G, i, depth):
    """Independent re-derivation of the exact decomposition.

    Enumerates every subset of [n] - {i} per step (no candidate pruning)
    by (cardinality, lexicographic full-set key) and keeps the first
    admissible one; shares no code with the implementation.
    """
    pool = [v for v in range(G.n) if v != i]
    s_seq = [frozenset()]
    e_seq = [set(G.edges)]
    for _ in range(depth):
        prev_s, prev_e = s_seq[-1], e_seq[-1]
        best = None
        for size in range(len(pool) + 1):
            for extra in itertools.combinations(pool, size):
                T = prev_s | set(extra)
                if not T >= prev_s:
                    continue
                surviving = {e for e in G.edges if e[0] not in T and e[1] not in T}
                if 2 * len(surviving) <= len(prev_e):
                    key = (len(T), tuple(sorted(T)))
                    if best is None or key < best[0]:
                        best = (key, T, surviving)
            if best is not None:
                break
        s_seq.append(frozenset(best[1]))
        e_seq.append(best[2])
    return s_seq, e_seq


def brute_half_cover_size(edges):
    """Size of the first vertex subset, by size, of all of [0, 9) incident
    to at least half of ``edges`` (listed with repeats and either
    orientation); shares no code with the implementation."""
    for size in range(10):
        for T in itertools.combinations(range(9), size):
            covered = sum(1 for j, k in edges if j in T or k in T)
            if 2 * covered >= len(edges):
                return size
    raise AssertionError("all nine vertices cover every edge")


def brute_rho(G, i, L):
    s_seq, e_seq = brute_decomposition(G, i, 4 * L)
    increments = [len(s_seq[k]) - len(s_seq[k - 1]) for k in range(1, 4 * L + 1)]
    best = max(increments)
    k0 = 1 + increments.index(best)
    return frozenset(e_seq[k0 - 1])


def random_graph(rng, n, p, isolated):
    edges = {
        (j, k)
        for j, k in itertools.combinations(range(n), 2)
        if isolated not in (j, k) and rng.random() < p
    }
    return comb.Graph(n, frozenset(edges))


class TestGraph:
    def test_normalizes_orientation(self):
        g = comb.Graph(4, frozenset({(3, 1)}))
        assert g.edges == frozenset({(1, 3)})

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidInputError):
            comb.Graph(4, frozenset({(2, 2)}))

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError):
            comb.Graph(3, frozenset({(0, 3)}))

    def test_edge_text_round_trip(self):
        text = STAR.to_edge_text()
        assert text.splitlines()[0] == "2 3"  # 1-indexed on disk
        back = comb.Graph.from_edge_text(text, n=5)
        assert back == STAR

    def test_from_edge_text_infers_n(self):
        g = comb.Graph.from_edge_text("1 2\n2 5\n")
        assert g.n == 5 and g.edges == frozenset({(0, 1), (1, 4)})

    @pytest.mark.parametrize("n", [2.5, 4.0, True, "4", None])
    def test_vertex_count_must_be_an_integer(self, n):
        with pytest.raises(InvalidInputError, match="vertex count: expected an integer"):
            comb.Graph(n, frozenset())

    @pytest.mark.parametrize("edge", [(0.5, 2), (0, 2.0), (True, 2), ("0", 2), (np.float64(1), 2)])
    def test_endpoints_must_be_integers(self, edge):
        # int() would truncate 0.5 to the vertex 0
        with pytest.raises(InvalidInputError, match=r"edge \(.*\): expected an integer"):
            comb.Graph(4, frozenset({edge}))
        with pytest.raises(InvalidInputError, match="expected an integer"):
            comb.min_half_cover_size([edge, (1, 3)])

    def test_numpy_integers_are_read_as_ints(self):
        g = comb.Graph(np.int64(4), frozenset({(np.int64(3), np.int32(1))}))
        assert (g.n, g.edges) == (4, frozenset({(1, 3)}))
        assert all(type(v) is int for v in (g.n, *next(iter(g.edges))))

    @pytest.mark.parametrize("line", ["1 x", "1 2.5", "x 2"])
    def test_edge_text_endpoints_must_be_integers(self, line):
        with pytest.raises(InvalidInputError) as raised:
            comb.Graph.from_edge_text(f"1 2\n{line}\n")
        assert str(raised.value) == f"edge line {line!r} does not hold two integers"

    @pytest.mark.parametrize(
        "edge, message",
        [((0, 1, 5), "too many values"), ((0,), "not enough values"), (5, "cannot unpack")],
    )
    def test_an_edge_must_be_a_pair(self, edge, message):
        # (0, 1, 5) was read as the edge (0, 1)
        with pytest.raises(InvalidInputError, match=rf"^edge {re.escape(repr(edge))}: {message}"):
            comb.Graph(4, frozenset({edge}))
        with pytest.raises(InvalidInputError, match=message):
            comb.min_half_cover_size([(1, 3), edge])

    @pytest.mark.parametrize(
        "text, n, message",
        [("2 3\n", 2, "edge (2,3) out of range 1..2"), ("1 2\n4 1\n", 3, "edge (4,1) out of range 1..3"),
         ("1 1\n", None, "self-loop (1,1) is not allowed"), ("2 3\n3 3\n", 5, "self-loop (3,3) is not allowed")],
    )
    def test_edge_text_names_bad_edges_as_written(self, text, n, message):
        with pytest.raises(InvalidInputError) as raised:
            comb.Graph.from_edge_text(text, n)
        assert str(raised.value) == message

    def test_complete_with_exclusion(self):
        g = comb.Graph.complete(4, exclude=(0,))
        assert g.edges == frozenset({(1, 2), (1, 3), (2, 3)})


class TestGreedyDecomposition:
    def test_star_exact(self):
        dec = comb.greedy_decomposition(STAR, 0, 1, "exact")
        assert dec.s_seq[1] == frozenset({1})
        assert dec.e_seq[1] == frozenset()

    def test_empty_graph(self):
        dec = comb.greedy_decomposition(comb.Graph.empty(6), 2, 3, "exact")
        assert all(s == frozenset() for s in dec.s_seq)
        assert all(e == frozenset() for e in dec.e_seq)

    def test_single_edge_tie_break(self):
        g = comb.Graph(3, frozenset({(1, 2)}))
        dec = comb.greedy_decomposition(g, 0, 1, "exact")
        assert dec.s_seq[1] == frozenset({1})  # lexicographically before {2}

    def test_requires_isolated_vertex(self):
        with pytest.raises(InvalidInputError):
            comb.greedy_decomposition(STAR, 1, 1, "exact")

    def test_exact_mode_size_bound(self):
        g = comb.Graph.empty(17)
        with pytest.raises(UnsupportedSizeError):
            comb.greedy_decomposition(g, 0, 1, "exact")
        comb.greedy_decomposition(g, 0, 1, "greedy")  # greedy scales past it

    def test_matches_brute_force(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 9))
            i = int(rng.integers(0, n))
            g = random_graph(rng, n, rng.uniform(0.2, 0.8), i)
            dec = comb.greedy_decomposition(g, i, 3, "exact")
            s_ref, e_ref = brute_decomposition(g, i, 3)
            assert dec.s_seq == s_ref
            assert [set(e) for e in dec.e_seq] == [set(e) for e in e_ref]

    @pytest.mark.parametrize("mode", comb.MODES)
    def test_halving_and_consistency_invariants(self, mode):
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            n = int(rng.integers(4, 13))
            i = int(rng.integers(0, n))
            g = random_graph(rng, n, rng.uniform(0.2, 0.7), i)
            dec = comb.greedy_decomposition(g, i, 4, mode)
            for k in range(1, 5):
                assert 2 * len(dec.e_seq[k]) <= len(dec.e_seq[k - 1])
                assert dec.s_seq[k] >= dec.s_seq[k - 1]
                expected = {
                    e
                    for e in g.edges
                    if e[0] not in dec.s_seq[k] and e[1] not in dec.s_seq[k]
                }
                assert set(dec.e_seq[k]) == expected

    def test_exact_minimality_certificate(self):
        # no strictly smaller addition to S_{k-1} achieves the halving
        for seed in range(12):
            rng = np.random.default_rng(400 + seed)
            n = int(rng.integers(6, 13))
            i = int(rng.integers(0, n))
            g = random_graph(rng, n, rng.uniform(0.2, 0.6), i)
            dec = comb.greedy_decomposition(g, i, 2, "exact")
            pool = [v for v in range(n) if v != i]
            for k in (1, 2):
                added = len(dec.s_seq[k]) - len(dec.s_seq[k - 1])
                budget = len(dec.e_seq[k - 1])
                for size in range(added):
                    for extra in itertools.combinations(pool, size):
                        T = dec.s_seq[k - 1] | set(extra)
                        surviving = sum(
                            1 for e in g.edges if e[0] not in T and e[1] not in T
                        )
                        assert 2 * surviving > budget

    def test_greedy_first_step_never_smaller_than_exact(self):
        # comparable only at step 1, where both grow from the empty set
        for seed in range(10):
            rng = np.random.default_rng(200 + seed)
            n = int(rng.integers(4, 10))
            i = int(rng.integers(0, n))
            g = random_graph(rng, n, 0.5, i)
            exact = comb.greedy_decomposition(g, i, 1, "exact")
            greedy = comb.greedy_decomposition(g, i, 1, "greedy")
            assert len(greedy.s_seq[1]) >= len(exact.s_seq[1])


    @pytest.mark.parametrize("i, depth", [(0.0, 1), (np.float64(0.0), 1), ("0", 1), (0, True), (0, 2.0), (0, "2")])
    def test_non_integer_vertex_or_depth_rejected(self, i, depth):
        # the vertex 0.0 and depth=True were accepted, depth=2.0 raised a bare TypeError
        name = "depth" if isinstance(i, int) else "i"
        with pytest.raises(InvalidInputError, match=f"{name}: expected an integer"):
            comb.greedy_decomposition(STAR, i, depth, "exact")

    def test_numpy_integer_vertex_and_depth_accepted(self):
        assert comb.greedy_decomposition(STAR, np.int64(0), np.int32(1)) == comb.greedy_decomposition(STAR, 0, 1)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: comb.vertex_value(STAR, 0.0, 1),
            lambda: comb.vertex_value(STAR, 0, 2.0),
            lambda: comb.rho_set(STAR, 0, 2.5),
            lambda: comb.check_edge_interval(STAR, 0, 2.0, 1),
            lambda: comb.two_graphs_dichotomy(STAR, STAR, 0, 2.0),
            lambda: comb.two_graphs_dichotomy(STAR, STAR, 0, True),
            lambda: comb.check_edge_interval(STAR, 0, 2, 1.0),
            lambda: comb.check_edge_interval(STAR, 0, 2, True),
            lambda: comb.rho_set(STAR, 0, True),
            lambda: comb.q_sets(B4, [0], 0.5, 1.0, 1.0, 2.0),
            lambda: comb.q_sets(B4, [0.5], 0.5, 1.0, 1.0, 2),
            lambda: comb.build_graph_G(B4, 1.0),
            lambda: comb.build_graph_G(B4, True),
            lambda: comb.build_graph_G_tilde(B4, B4, 1.0, 0.0),
            lambda: comb.low_value_count(B4, 1, 1.5),
            lambda: comb.low_value_count(B4, 1.0, 1),
            lambda: comb.two_graphs_dichotomy(STAR, STAR, 0, 1.5),
            lambda: ex.wilson_interval(1.5, 3),
            lambda: ex.wilson_interval(1, 3.0),
            lambda: comb.vertex_value(STAR, 0, True),
            lambda: comb.rho_set(STAR, 0.0, 1),
            lambda: comb.check_edge_interval(STAR, 0.0, 2, 1),
            lambda: comb.two_graphs_dichotomy(STAR, STAR, 0.0, 1),
            lambda: comb.build_graph_G_tilde(B4, B4, True, 0.0),
            lambda: comb.low_value_count(B4, True, 1),
            lambda: comb.q_sets(B4, [0], 0.5, 1.0, 1.0, True),
            lambda: comb.q_sets(B4, [True], 0.5, 1.0, 1.0, 2),
            lambda: ex.wilson_interval(True, 3),
        ],
        ids=[
            "vertex_value-i", "vertex_value-L", "rho_set", "check_edge_interval", "dichotomy",
            "dichotomy-bool", "check_edge_interval-ell", "check_edge_interval-ell-bool", "rho_set-bool",
            "q_sets-r", "q_sets-I", "build_graph_G", "build_graph_G-bool", "build_graph_G_tilde",
            "low_value_count-N", "low_value_count-L", "dichotomy-L", "wilson-hits", "wilson-trials",
            "vertex_value-L-bool", "rho_set-i", "check_edge_interval-i", "dichotomy-i",
            "build_graph_G_tilde-bool", "low_value_count-L-bool", "q_sets-r-bool", "q_sets-I-bool",
            "wilson-hits-bool",
        ],
    )
    def test_callers_reject_non_integer_arguments(self, call):
        with pytest.raises(InvalidInputError, match="expected an integer"):
            call()

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: comb.check_edge_interval(STAR, 0, 2.0, 1), "k"),
            (lambda: comb.check_edge_interval(STAR, 0, 2, 1.0), "ell"),
            (lambda: comb.check_edge_interval(STAR, 0, 2, True), "ell"),
            (lambda: comb.rho_set(STAR, 0, True), "L"),
            (lambda: comb.two_graphs_dichotomy(STAR, STAR, 0, 1.5), "L"),
            (lambda: comb.q_sets(B4, [0], 0.5, 1.0, 1.0, 2.0), "r"),
            (lambda: comb.q_sets(B4, [0.5], 0.5, 1.0, 1.0, 2), "I"),
            (lambda: comb.build_graph_G(B4, True), "i"),
            (lambda: comb.low_value_count(B4, 1, 1.5), "N"),
            (lambda: ex.wilson_interval(1.5, 3), "hits"),
            (lambda: comb.vertex_value(STAR, 0.0, 1), "i"),
            (lambda: comb.rho_set(STAR, 0.0, 1), "i"),
            (lambda: comb.check_edge_interval(STAR, 0.0, 2, 1), "i"),
            (lambda: comb.two_graphs_dichotomy(STAR, STAR, 0.0, 1), "i"),
            (lambda: comb.build_graph_G_tilde(B4, B4, 1.0, 0.0), "i"),
            (lambda: comb.low_value_count(B4, 1.0, 1), "L"),
            (lambda: ex.wilson_interval(1, 3.0), "trials"),
        ],
        ids=[
            "edge-interval-k", "edge-interval-ell", "edge-interval-ell-bool", "rho_set-L-bool",
            "dichotomy-L", "q_sets-r", "q_sets-I", "build_graph_G-i-bool", "low_value_count-N",
            "wilson-hits", "vertex_value-i", "rho_set-i", "edge-interval-i", "dichotomy-i",
            "build_graph_G_tilde-i", "low_value_count-L", "wilson-trials",
        ],
    )
    def test_integer_reads_name_the_argument(self, call, name):
        with pytest.raises(InvalidInputError, match=f"^{name}: expected an integer"):
            call()

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: comb.q_sets(B4, [0], "0.5", 1.0, 1.0, 2), "tau"),
            (lambda: comb.q_sets(B4, [0], 0.5, True, 1.0, 2), "a"),
            (lambda: comb.pivot_index([[1.0, 0.0], [0.0, 1.0]], 1.0, "1"), "b"),
            (lambda: comb.pivot_hypothesis_failure([[1.0, 0.0], [0.0, 1.0]], None, 1.0), "a"),
            (lambda: comb.build_graph_G_tilde(B4, B4, 1, "0"), "offset"),
            (lambda: comb.q_sets(B4, [0], 0.5, 1.0, None, 2), "b"),
            (lambda: comb.pivot_index([[1.0, 0.0], [0.0, 1.0]], "1", 1.0), "a"),
            (lambda: comb.pivot_hypothesis_failure([[1.0, 0.0], [0.0, 1.0]], 1.0, True), "b"),
            (lambda: comb.build_graph_G_tilde(B4, B4, 1, True), "offset"),
        ],
        ids=[
            "q_sets-tau", "q_sets-a", "pivot_index-b", "pivot_failure-a", "offset", "q_sets-b",
            "pivot_index-a", "pivot_failure-b", "offset-bool",
        ],
    )
    def test_threshold_reads_name_the_argument(self, call, name):
        with pytest.raises(InvalidInputError, match=f"^{name}: expected a number"):
            call()

    @pytest.mark.parametrize(
        "call",
        [
            lambda: comb.q_sets(B4, [0], float("nan"), 1.0, 1.0, 2),
            lambda: comb.pivot_index([[1.0, 0.0], [0.0, 1.0]], float("nan"), 1.0),
            lambda: comb.q_sets(B4, [0], 0.5, float("nan"), 1.0, 2),
            lambda: comb.q_sets(B4, [0], 0.5, 1.0, -float("inf"), 2),
            lambda: comb.pivot_index([[1.0, 0.0], [0.0, 1.0]], 1.0, float("nan")),
            lambda: comb.pivot_hypothesis_failure([[1.0, 0.0], [0.0, 1.0]], -float("inf"), 1.0),
        ],
        ids=[
            "q_sets-tau", "pivot_index-a", "q_sets-a", "q_sets-b-minus-inf", "pivot_index-b",
            "pivot_failure-a-minus-inf",
        ],
    )
    def test_nan_and_infinite_thresholds_rejected(self, call):
        with pytest.raises(InvalidInputError, match="must be positive"):
            call()


class TestVertexValue:
    def test_empty_graph_is_zero(self):
        assert comb.vertex_value(comb.Graph.empty(5), 0, 2) == 0.0

    def test_star_value(self):
        assert comb.vertex_value(STAR, 0, 1) == pytest.approx(math.sqrt(3.0 / 2.0))

    def test_complete_graph_value(self):
        g = comb.Graph.complete(6, exclude=(0,))
        assert comb.vertex_value(g, 0, 1) == pytest.approx(math.sqrt(5.0))

    @pytest.mark.parametrize("mode", comb.MODES)
    def test_every_depth_from_one_decomposition(self, mode):
        for seed in range(12):
            rng = np.random.default_rng(700 + seed)
            n = int(rng.integers(4, 12))
            i = int(rng.integers(0, n))
            g = random_graph(rng, n, rng.uniform(0.1, 0.7), i)
            expected = [comb.vertex_value(g, i, L, mode) for L in (1, 2, 3)]
            assert comb._vertex_values(g, i, 3, mode) == expected


class TestRhoSet:
    def test_empty_graph(self):
        assert comb.rho_set(comb.Graph.empty(4), 0, 2) == frozenset()

    def test_star_returns_initial_edges(self):
        assert comb.rho_set(STAR, 0, 1) == STAR.edges

    def test_matches_brute_force(self):
        for seed in range(15):
            rng = np.random.default_rng(300 + seed)
            n = int(rng.integers(4, 11))
            i = int(rng.integers(0, n))
            g = random_graph(rng, n, rng.uniform(0.2, 0.7), i)
            for L in (1, 2):
                assert comb.rho_set(g, i, L) == brute_rho(g, i, L)


class TestCheckEdgeInterval:
    def test_empty_graph(self):
        assert comb.check_edge_interval(comb.Graph.empty(5), 0, 2, 1)

    def test_star(self):
        assert comb.check_edge_interval(STAR, 0, 1, 1)

    def test_bad_indices(self):
        with pytest.raises(InvalidInputError):
            comb.check_edge_interval(STAR, 0, 1, 2)

    def test_predicate_checks_both_sides(self):
        # |E_0| = 10 against |E_1| = 1: 2 <= 10, and 10 <= 2 + 4 n holds
        # for n = 2 but not for n = 1
        e_seq = [frozenset((0, v) for v in range(1, 11)), frozenset({(1, 2)})]
        assert not comb._edge_interval_holds(e_seq, 1, 1, 1)
        assert comb._edge_interval_holds(e_seq, 2, 1, 1)
        # |E_0| = 1 against |E_1| = 1: 2 > 1
        assert not comb._edge_interval_holds([e_seq[1], e_seq[1]], 5, 1, 1)


class TestBuildGraphs:
    def test_identity_gives_complete_graph(self):
        for i in range(4):
            g = comb.build_graph_G(np.eye(4), i)
            assert g == comb.Graph.complete(4, exclude=(i,))

    def test_diagonal_rule(self):
        d = [0.5, 3.0, 1.0, 2.0, 4.0]
        B = np.diag(d)
        for i in range(5):
            g = comb.build_graph_G(B, i)
            for j, k in itertools.combinations([v for v in range(5) if v != i], 2):
                assert ((j, k) in g.edges) == (d[i] >= max(d[j], d[k]))

    def test_matches_distance_oracle(self):
        B = np.random.default_rng(13).standard_normal((6, 6))
        i = 2
        g = comb.build_graph_G(B, i)
        others = [v for v in range(6) if v != i]
        for j, k in itertools.combinations(others, 2):
            keep = [v for v in range(6) if v not in (i, j, k)]
            di = dist_to_span(B[i], B[keep])
            dj = dist_to_span(B[j], B[keep])
            dk = dist_to_span(B[k], B[keep])
            assert ((min(j, k), max(j, k)) in g.edges) == (di >= max(dj, dk))

    def test_isolated_by_construction(self):
        g = comb.build_graph_G(np.random.default_rng(1).standard_normal((5, 5)), 3)
        assert g.is_isolated(3)

    def test_needs_three_rows(self):
        with pytest.raises(InvalidInputError):
            comb.build_graph_G(np.eye(2), 0)

    def test_tilde_with_huge_offset_is_complete(self):
        A = np.random.default_rng(2).standard_normal((5, 5))
        M = np.zeros((5, 5))
        offset = 10.0 * float(np.max(np.linalg.norm(A, axis=1)))
        g = comb.build_graph_G_tilde(A, M, 0, offset)
        assert g == comb.Graph.complete(5, exclude=(0,))

    def test_tilde_identity_example(self):
        g = comb.build_graph_G_tilde(np.zeros((4, 4)), np.eye(4), 0, 0.5)
        assert g == comb.Graph.complete(4, exclude=(0,))

    def test_tilde_matches_distance_oracle(self):
        rng = np.random.default_rng(23)
        A = rng.standard_normal((6, 6))
        M = rng.standard_normal((6, 6))
        offset = 1.2
        i = 4
        B = A + M
        g = comb.build_graph_G_tilde(A, M, i, offset)
        others = [v for v in range(6) if v != i]
        for j, k in itertools.combinations(others, 2):
            keep = [v for v in range(6) if v not in (i, j, k)]
            lhs = dist_to_span(M[i], B[keep]) + offset
            rhs = max(dist_to_span(B[j], B[keep]), dist_to_span(B[k], B[keep]))
            assert ((j, k) in g.edges) == (lhs >= rhs)

    def test_tilde_offset_below_the_gap_has_no_edges(self):
        # B = A + M is diagonal (1, 40, 40, 40): row 0 of M sits at distance
        # 1 from every H, the other rows at 40, so an offset below 39 leaves
        # the offset graph, and with it rho_set, empty
        M = np.diag([1.0, 40.0, 40.0, 40.0])
        g = comb.build_graph_G_tilde(np.zeros((4, 4)), M, 0, 38.5)
        assert g == comb.Graph.empty(4)
        assert comb.rho_set(g, 0, 2) == frozenset()
        assert comb.build_graph_G_tilde(np.zeros((4, 4)), M, 0, 39.0) == comb.Graph.complete(4, exclude=(0,))

    def test_tilde_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            comb.build_graph_G_tilde(np.eye(4), np.eye(3), 0, 1.0)


class TestLowValueCount:
    def test_identity_counts(self):
        # every vertex value equals sqrt(5) ~ 2.236 on the 6x6 identity
        assert comb.low_value_count(np.eye(6), 1, 2) == 0
        assert comb.low_value_count(np.eye(6), 1, 3) == 6

    def test_trivial_bound(self):
        B = np.random.default_rng(3).standard_normal((5, 5))
        assert comb.low_value_count(B, 1, 5) == 5


class TestTwoGraphsDichotomy:
    def test_empty_graphs_small_value(self):
        g = comb.Graph.empty(5)
        report = comb.two_graphs_dichotomy(g, g, 0, 1)
        assert report.small_value_assertion
        assert report.holds

    def test_star_example(self):
        report = comb.two_graphs_dichotomy(STAR, STAR, 0, 1)
        assert report.vl == pytest.approx(math.sqrt(1.5))
        assert report.small_value_assertion  # 1.2247 <= 4 * 5 / sqrt(2)
        assert report.holds

    def test_hypothesis_violation(self):
        g = comb.Graph.complete(8, exclude=(0,))
        with pytest.raises(PreconditionError):
            comb.two_graphs_dichotomy(g, comb.Graph.empty(8), 0, 2)

    def test_min_half_cover(self):
        assert comb.min_half_cover_size([]) == 0
        assert comb.min_half_cover_size([(1, 2), (1, 3), (1, 4)]) == 1
        # a perfect matching of 4 edges needs 2 vertices for half
        matching = [(0, 1), (2, 3), (4, 5), (6, 7)]
        assert comb.min_half_cover_size(matching) == 2

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(lambda e: e[0] != e[1]),
            max_size=14,
        )
    )
    def test_min_half_cover_matches_brute_force(self, edges):
        assert comb.min_half_cover_size(edges) == brute_half_cover_size(edges)


def edge_sum_step(base, edges):
    """The exact step as it was written before its bit masks: every candidate
    subset counts the edges it meets with a sum over all of them.  The oracle
    of ``comb._exact_step``, which must return the same set."""
    need = (len(edges) + 1) // 2
    if need == 0:
        return base
    candidates = sorted({v for e in edges for v in e})
    for size in range(1, len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            if sum(1 for j, k in edges if j in combo or k in combo) >= need:
                return base.union(combo)
    raise AssertionError("unreachable: all incident vertices cover every edge")


def step_corpus(count, seed):
    """``(base, edges)`` pairs: graphs on 2 to 12 vertices, a third of them
    with repeated edges (as a tuple), the rest as a frozenset, and a base of
    vertices that no edge meets."""
    rng = np.random.default_rng(seed)
    corpus = []
    for idx in range(count):
        n = int(rng.integers(2, 13))
        base = frozenset(v for v in range(n) if rng.random() < 0.2)
        free = [v for v in range(n) if v not in base]
        density = rng.uniform(0.1, 0.7)
        edges = [pair for pair in itertools.combinations(free, 2) if rng.random() < density]
        if idx % 3 == 0 and edges:
            edges += [edges[int(p)] for p in rng.integers(0, len(edges), size=int(rng.integers(1, 6)))]
            corpus.append((base, tuple(edges[int(p)] for p in rng.permutation(len(edges)))))
        else:
            corpus.append((base, frozenset(edges)))
    return corpus


def check_exact_step_matches_the_edge_sum_search():
    for base, edges in step_corpus(4000, 2026):
        assert comb._exact_step(base, edges) == edge_sum_step(base, edges), (base, edges)


class TestExactStepOracle:
    def test_exact_step_matches_the_edge_sum_search(self):
        check_exact_step_matches_the_edge_sum_search()

    def test_repeated_edges_count_with_their_multiplicity(self):
        # (0, 1) three times: 5 edges, 3 to cover, and vertex 0 covers them
        assert comb.min_half_cover_size([(0, 1), (2, 3), (0, 1), (4, 5), (1, 0)]) == 1
        # (0, 1) twice: 4 edges, 2 to cover, and vertex 0 covers them; the 3
        # distinct edges take two vertices
        twice = [(2, 3), (0, 1), (4, 5), (0, 1)]
        assert comb._exact_step(frozenset({8}), tuple(twice)) == frozenset({0, 8})
        assert comb.min_half_cover_size(twice) == 1
        assert comb._exact_step(frozenset({8}), frozenset(twice)) == frozenset({0, 2, 8})

    def test_min_half_cover_on_repeated_edges_matches_the_oracle(self):
        for base, edges in step_corpus(300, 7):
            if isinstance(edges, tuple):
                assert comb.min_half_cover_size(edges) == len(edge_sum_step(frozenset(), edges))


class TestQSets:
    def test_empty_index_set(self):
        q1, q2 = comb.q_sets(np.eye(4), [], 2.0, 1.0, 1.0, 2)
        assert q1 == set() and q2 == set()

    def test_identity_pairs(self):
        q1, q2 = comb.q_sets(np.eye(4), [0], 2.0, 1.0, 1.0, 2)
        expected = {frozenset({0, j}) for j in (1, 2, 3)}
        assert q1 == expected

    def test_r_exceeds_n(self):
        with pytest.raises(InvalidInputError):
            comb.q_sets(np.eye(3), [0], 1.0, 1.0, 1.0, 4)


class TestPivotIndex:
    def test_two_dimensional_example(self):
        vectors = [np.array([1.0, 0.0]), np.array([10.0, 0.1])]
        assert comb.pivot_index(vectors, 0.01, 0.1) == 1

    def test_small_first_vector_picks_first_candidate(self):
        # norm(x1) <= 2 a r makes every candidate valid; smallest index wins
        vectors = [
            np.array([0.1, 0.0, 0.0]),
            np.array([0.0, 5.0, 0.0]),
            np.array([0.0, 0.0, 3.0]),
        ]
        a, b = 1.0, 2.0
        assert np.linalg.norm(vectors[0]) <= 2 * a * 3
        assert comb.pivot_index(vectors, a, b) == 1

    def test_hypothesis_failure_returns_none(self):
        vectors = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        assert comb.pivot_index(vectors, 1e-6, 0.5) is None
        assert comb.pivot_hypothesis_failure(vectors, 1e-6, 0.5) is not None

    def test_constructed_instances_always_admit_pivot(self):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            r = int(rng.integers(2, 6))
            xs = [rng.standard_normal(r) for _ in range(r - 1)]
            x1 = sum(rng.standard_normal() for _ in [0]) * xs[0]
            x1 = x1 + 0.05 * rng.standard_normal(r)
            vectors = [x1] + xs
            a = dist_to_span(x1, np.array(xs)) + 1e-12
            b = min(
                dist_to_span(v, np.array([w for p, w in enumerate(vectors) if p != pos]))
                for pos, v in enumerate(vectors)
                if pos >= 1
            )
            if b <= 0:
                continue
            i0 = comb.pivot_index(vectors, a, b)
            assert i0 is not None
            assert np.linalg.norm(vectors[i0]) >= b / (2 * a * len(vectors)) * np.linalg.norm(
                x1
            ) * (1 - 1e-9)


class TestErrorContract:
    def test_size_and_precondition_errors_are_invalid_input(self):
        with pytest.raises(InvalidInputError) as size:
            comb.greedy_decomposition(comb.Graph.empty(17), 0, 1, "exact")
        assert type(size.value) is UnsupportedSizeError
        with pytest.raises(InvalidInputError) as precondition:
            comb.two_graphs_dichotomy(
                comb.Graph.complete(8, exclude=(0,)), comb.Graph.empty(8), 0, 2
            )
        assert type(precondition.value) is PreconditionError


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=10),
    edge_bits=st.integers(min_value=0, max_value=2**45 - 1),
    mode=st.sampled_from(comb.MODES),
)
def test_halving_invariant_property(n, edge_bits, mode):
    # vertex n-1 stays isolated; remaining pairs toggled by the bit mask
    pairs = [(j, k) for j, k in itertools.combinations(range(n - 1), 2)]
    edges = frozenset(p for bit, p in enumerate(pairs) if edge_bits >> bit & 1)
    g = comb.Graph(n, edges)
    dec = comb.greedy_decomposition(g, n - 1, 3, mode)
    for k in (1, 2, 3):
        assert 2 * len(dec.e_seq[k]) <= len(dec.e_seq[k - 1])
        assert dec.s_seq[k - 1] <= dec.s_seq[k]


def test_deterministic_triple_property():
    for seed in range(10):
        B = np.random.default_rng(500 + seed).standard_normal((6, 6))
        graphs = [comb.build_graph_G(B, i) for i in range(6)]
        for i, j, k in itertools.combinations(range(6), 3):
            holds = (
                (j, k) in graphs[i].edges
                or (min(i, k), max(i, k)) in graphs[j].edges
                or (min(i, j), max(i, j)) in graphs[k].edges
            )
            assert holds


def oracle_graph_G(B, i):
    """``build_graph_G`` with one SVD per triple, the per-set path."""
    n = B.shape[0]
    edges = []
    for j, k in itertools.combinations([v for v in range(n) if v != i], 2):
        basis = la.span_basis(np.delete(B, (i, j, k), axis=0))
        d_i, d_j, d_k = (la.residual_norm(B[m], basis) for m in (i, j, k))
        if d_i >= max(d_j, d_k):
            edges.append((j, k))
    return comb.Graph(n, frozenset(edges))


def oracle_graph_G_tilde(A, M, i, offset):
    B = A + M
    n = B.shape[0]
    edges = []
    for j, k in itertools.combinations([v for v in range(n) if v != i], 2):
        basis = la.span_basis(np.delete(B, (i, j, k), axis=0))
        lhs = la.residual_norm(M[i], basis) + offset
        if lhs >= max(la.residual_norm(B[j], basis), la.residual_norm(B[k], basis)):
            edges.append((j, k))
    return comb.Graph(n, frozenset(edges))


def oracle_q_sets(B, I, tau, a, b, r):
    """``q_sets`` with one SVD per subset, the per-set path."""
    high = tau * b / (2.0 * a * r)
    q1, q2 = set(), set()
    for S in itertools.combinations(range(B.shape[0]), r):
        inside = set(I).intersection(S)
        if not inside:
            continue
        basis = la.span_basis(np.delete(B, S, axis=0))
        d = {m: la.residual_norm(B[m], basis) for m in S}
        if any(d[j] <= tau for j in inside):
            q1.add(frozenset(S))
        if any(d[j] >= high for j in S if j not in inside):
            q2.add(frozenset(S))
    return q1, q2


class TestOneFactorizationOracle:
    """Graphs and subset families from the one-factorization kernel against
    the per-set SVD path on continuous inputs, where exact ties have
    probability zero."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), n=st.integers(3, 9))
    def test_graphs_match(self, seed, n):
        rng = np.random.default_rng(seed)
        B, M = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        offset = float(rng.uniform(0.0, 1.0))
        for i in range(n):
            assert comb.build_graph_G(B, i) == oracle_graph_G(B, i)
            assert comb.build_graph_G_tilde(B, M, i, offset) == oracle_graph_G_tilde(B, M, i, offset)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), n=st.integers(4, 9))
    def test_q_sets_match(self, seed, n):
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((n, n))
        d = la.row_distances(B)
        I = [int(v) for v in np.argsort(d)[: int(rng.integers(1, n // 2 + 1))]]
        tau = float(np.quantile(d, rng.uniform(0.1, 0.9)))
        r = int(rng.integers(2, 4))
        args = (I, tau, float(d[I].max()), float(d.max()), r)
        assert comb.q_sets(B, *args) == oracle_q_sets(B, *args)


# as in test_linalg: scales whose row norms leave _SAFE_RANGE
EXTREME_SCALES = (1e200, 1e-200, 2.0**600, 2.0**-600)


def shifted_rows(A, M, i):
    """``A + M`` with row ``i`` replaced by ``M[i]``: the matrix whose
    triples ``build_graph_G_tilde`` measures."""
    B = A + M
    B[i] = M[i]
    return B


class TestGraphTildeOracle:
    """The offset graph, read from one factorization of ``A + M`` with row
    ``i`` replaced by ``M[i]``, against the per-triple SVD oracle where that
    matrix or ``A + M`` is singular or nearly so."""

    OFFSETS = (0.0, 0.3, 1.0)

    @pytest.mark.parametrize("n", [4, 7])
    def test_zero_row_of_the_shift(self, n):
        rng = np.random.default_rng(40 + n)
        A, M = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        for i in range(n):
            Mi = M.copy()
            Mi[i] = 0.0
            assert not la._factor(shifted_rows(A, Mi, i)[None]).ok[0]
            for offset in self.OFFSETS:
                assert comb.build_graph_G_tilde(A, Mi, i, offset) == oracle_graph_G_tilde(A, Mi, i, offset)

    @pytest.mark.parametrize("factor", [1.001, 0.999])
    @pytest.mark.parametrize("seed", range(4))
    def test_shift_row_at_the_rank_tolerance(self, factor, seed):
        # row 0 of the factored matrix comes first, so its |R_00| is norm(M[0])
        n, i = 6, 0
        rng = np.random.default_rng(seed)
        A, M = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        A[i] = -M[i]  # keeps the largest row norm of the factored matrix fixed
        scale = float(np.max(np.linalg.norm(A + M, axis=1)))
        M[i] *= factor * la.RANK_RTOL * scale / np.linalg.norm(M[i])
        A[i] = rng.standard_normal(n)
        assert la._factor(shifted_rows(A, M, i)[None]).ok[0] == (factor > 1.0)
        for offset in self.OFFSETS:
            assert comb.build_graph_G_tilde(A, M, i, offset) == oracle_graph_G_tilde(A, M, i, offset)

    @pytest.mark.parametrize("seed", range(4))
    def test_singular_sum_with_a_regular_factored_matrix(self, seed):
        n = 6
        rng = np.random.default_rng(50 + seed)
        A, M = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        for i in range(n):
            Ai = A.copy()
            Ai[i] = (A + M)[(i + 1) % n] - M[i]  # row i of A + M repeats the next row
            assert not la._factor((Ai + M)[None]).ok[0]
            assert la._factor(shifted_rows(Ai, M, i)[None]).ok[0]
            for offset in self.OFFSETS:
                assert comb.build_graph_G_tilde(Ai, M, i, offset) == oracle_graph_G_tilde(Ai, M, i, offset)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("c", EXTREME_SCALES)
    def test_extreme_scales(self, c):
        n = 7
        rng = np.random.default_rng(60)
        A, M = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        zero_row = M.copy()
        zero_row[2] = 0.0
        for shift in (M, zero_row):
            for i in range(n):
                for offset in self.OFFSETS:
                    g = comb.build_graph_G_tilde(A, shift, i, offset)
                    assert g == oracle_graph_G_tilde(A, shift, i, offset)
                    assert comb.build_graph_G_tilde(c * A, c * shift, i, c * offset) == g


def test_triple_property_on_sign_matrices():
    # exact ties are common here; each triple is measured in ascending order
    # by one kernel, so the three graphs still compare the same numbers
    rng = np.random.default_rng(174)
    checked = 0
    while checked < 60:
        n = int(rng.integers(4, 10))
        B = rng.choice([-1.0, 1.0], size=(n, n))
        if np.linalg.matrix_rank(B) < n:
            continue
        checked += 1
        graphs = [comb.build_graph_G(B, i) for i in range(n)]
        for i, j, k in itertools.combinations(range(n), 3):
            assert (j, k) in graphs[i].edges or (i, k) in graphs[j].edges or (i, j) in graphs[k].edges


def test_no_svd_per_subset(monkeypatch):
    """Generic inputs take one factorization per call: the per-set SVD
    (``span_basis``) is never reached."""
    calls = []
    primitive = la.span_basis

    def counting(rows):
        calls.append(1)
        return primitive(rows)

    monkeypatch.setattr(la, "span_basis", counting)
    rng = np.random.default_rng(31)
    B = rng.standard_normal((8, 8))
    comb.q_sets(B, [0, 3], 0.5, 0.2, 1.0, 3)
    for i in range(8):
        comb.build_graph_G(B, i)
        comb.build_graph_G_tilde(B, rng.standard_normal((8, 8)), i, 0.1)
    xs = [rng.standard_normal(5) for _ in range(4)]
    comb.pivot_index(xs, 10.0, 1e-3)
    assert calls == []


def reference_pivot_failure(vectors, a, b):
    """``pivot_hypothesis_failure`` with one ``dist_to_span`` per vector."""
    xs = [np.asarray(v, dtype=float) for v in vectors]
    d1 = dist_to_span(xs[0], np.array(xs[1:]))
    if d1 > a * (1 + comb._FLOAT_SLACK) + 1e-12:
        return "a"
    for idx in range(1, len(xs)):
        others = np.array([x for pos, x in enumerate(xs) if pos != idx])
        if dist_to_span(xs[idx], others) < b * (1 - comb._FLOAT_SLACK) - 1e-12:
            return f"b{idx}"
    return None


@pytest.mark.parametrize("m,dim", [(3, 6), (4, 4), (6, 3), (2, 2), (5, 2)])
def test_pivot_check_matches_dist_to_span(m, dim):
    for seed in range(40):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((m, dim))
        if seed % 4 == 0:
            X[0] = X[1:].T @ rng.standard_normal(m - 1) + 1e-3 * rng.standard_normal(dim)
        ref = np.array([dist_to_span(X[p], np.delete(X, p, axis=0)) for p in range(m)])
        np.testing.assert_allclose(la._row_profile(X[None])[0], ref, rtol=1e-9, atol=1e-12)
        # thresholds a relative 1e-6 either side of the distances
        for a_f, b_f in itertools.product((1 - 1e-6, 1 + 1e-6), repeat=2):
            a, b = max(ref[0], 1e-3) * a_f, max(ref[1:].min(), 1e-3) * b_f
            got = comb.pivot_hypothesis_failure(list(X), a, b)
            want = reference_pivot_failure(list(X), a, b)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.startswith("dist(x1") == (want == "a")


def test_stacked_row_norms_are_the_per_vector_norms():
    # the pivot suite compares these norms with the ones pivot_index takes,
    # so they must agree to the bit
    rng = np.random.default_rng(31)
    for dim in range(1, 14):
        X = rng.standard_normal((40, 5, dim)) * 10.0 ** rng.uniform(-150, 150, (40, 5, 1))
        ref = np.array([[np.linalg.norm(x) for x in family] for family in X])
        np.testing.assert_array_equal(comb._row_norms(X), ref)
