import math
import warnings
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from sminlab import alphaeta, combinatorics, linalg, suites
from sminlab.errors import InvalidInputError
from sminlab import samplers
from sminlab.samplers import KINDS, RowDistribution, SeedSpec


def test_invert_by_elimination_matches_numpy():
    for seed in range(10):
        B = np.random.default_rng(seed).standard_normal((8, 8))
        np.testing.assert_allclose(
            suites.invert_by_elimination(B), np.linalg.inv(B), rtol=1e-9, atol=1e-10
        )


def loop_elimination(B):
    """Gauss-Jordan with the row updates written as a loop, the original
    form of ``invert_by_elimination``."""
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
        for row in range(n):
            if row != col and aug[row, col] != 0.0:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, n:]


def test_invert_by_elimination_equals_row_loop():
    rng = np.random.default_rng(574)
    for n in range(2, 51, 3):
        for B in (rng.standard_normal((n, n)), rng.choice([-1.0, 1.0], size=(n, n))):
            try:
                expected = loop_elimination(B)
            except InvalidInputError:
                with pytest.raises(InvalidInputError):
                    suites.invert_by_elimination(B)
                continue
            np.testing.assert_array_equal(suites.invert_by_elimination(B), expected)


def test_invert_by_elimination_rejects_singular():
    with pytest.raises(InvalidInputError):
        suites.invert_by_elimination(np.ones((3, 3)))


def elimination_stack(n, count, rng):
    # Gaussian, +-1, graded and extreme-scale members of one size
    members = [
        rng.standard_normal((n, n)),
        rng.choice([-1.0, 1.0], size=(n, n)),
        rng.standard_normal((n, n)) * np.logspace(-6, 6, n)[:, None],
        1e-200 * rng.standard_normal((n, n)),
        2.0**600 * rng.standard_normal((n, n)),
    ]
    return np.array((members * count)[:count])


@pytest.mark.parametrize("n", [2, 3, 7, 12, 30])
def test_stacked_elimination_equals_row_loop(n):
    rng = np.random.default_rng(n)
    stack = elimination_stack(n, 9, rng)
    expected = []
    for B in stack:
        try:
            expected.append(loop_elimination(B))
        except InvalidInputError:
            stack = stack[: len(expected)]
            break
    got = suites._gauss_jordan(stack)
    assert got.shape == stack.shape
    for inv, ref in zip(got, expected):
        np.testing.assert_array_equal(inv, ref)


def test_stacked_elimination_rejects_a_singular_member():
    stack = elimination_stack(5, 6, np.random.default_rng(3))
    stack[4] = 0.0
    stack[4, :, 0] = 1.0  # rank one
    with pytest.raises(InvalidInputError, match="singular"):
        suites._gauss_jordan(stack)


def take_along_elimination(A):
    """The stacked elimination in its earlier form (the pivot rows read with
    ``take_along_axis``, a fresh array for every quotient and update): the
    oracle of the leaner ``_gauss_jordan``, which must match it bit for bit."""
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


def near_singular(n, rng):
    """A matrix whose last row is its first plus a perturbation of relative
    size 1e-12 (a tiny scalar at n = 1)."""
    B = rng.standard_normal((n, n))
    B[-1] = (B[0] if n > 1 else 0.0) + 1e-12 * rng.standard_normal(n)
    return B


@pytest.mark.parametrize("n", range(1, 51))
def test_gauss_jordan_equals_its_earlier_form(n):
    rng = np.random.default_rng(1000 + n)
    for stack in (
        rng.standard_normal((7, n, n)),
        rng.choice([-1.0, 1.0], size=(7, n, n)),
        np.array([near_singular(n, rng) for _ in range(7)]),
    ):
        try:
            want = take_along_elimination(stack.copy())
        except InvalidInputError:
            continue  # a singular +-1 member: the next test's case
        got = suites._gauss_jordan(stack)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_gauss_jordan_rejects_a_singular_member_as_its_earlier_form():
    rng = np.random.default_rng(8)
    for n in (2, 3, 4, 6, 30):
        stack = rng.standard_normal((9, n, n))
        stack[-1, :, n // 2] = 0.0  # a zero column stays zero under row operations
        errors = []
        for eliminate in (take_along_elimination, suites._gauss_jordan):
            with pytest.raises(InvalidInputError) as raised:
                eliminate(stack.copy())
            errors.append((type(raised.value), str(raised.value)))
        assert errors[0] == errors[1] == (InvalidInputError, "matrix is numerically singular")


def test_a_singular_member_is_refused_without_warnings():
    # the loop divides by a tiny or zero pivot before the singular test refuses it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for B in ([[1e-310]], [[1e-305, 0.0], [0.0, 1.0]], np.ones((3, 3)), [[0.0, 1.0], [0.0, 2.0]]):
            with pytest.raises(InvalidInputError, match="singular"):
                suites.invert_by_elimination(np.array(B))


def signed_zero_stack(rng, n):
    """Small integer matrices, most entries zero and many pivots negative, so
    that the elimination meets exact zeros and makes negative ones."""
    return rng.choice([-2.0, -1.0, -0.0, 0.0, 0.0, 1.0, 3.0], size=(3, n, n))


def test_sparse_integer_inverses_equal_the_earlier_form_and_hold_no_negative_zero():
    # the inputs hold zeros of both signs and negative pivots, and the
    # inverses many exact zeros; each inverse slot starts at +0.0 or 1 / pivot
    # and then only takes x - f * y, and the pivot row's -0.0 turns into +0.0
    # at its own step, so no zero of the output is -0.0 and its bytes compare
    # as its values do
    rng = np.random.default_rng(2026)
    compared = zeros = 0
    for _ in range(600):
        stack = signed_zero_stack(rng, int(rng.integers(2, 7)))
        try:
            want = take_along_elimination(stack.copy())
        except InvalidInputError:
            continue
        got = suites._gauss_jordan(stack)
        assert got.tobytes() == want.tobytes()
        assert not np.signbit(got[got == 0.0]).any()
        compared += 1
        zeros += int(np.count_nonzero(got == 0.0))
    assert compared > 150 and zeros > 1000


def band_members(rng, n):
    """Members of size ``n`` for a band: accepted signed-zero members, then
    a graded one and two at extreme scales."""
    candidates = signed_zero_stack(rng, n)
    members = []
    for B in candidates:
        try:
            suites._gauss_jordan(B[None])
        except InvalidInputError:
            continue
        members.append(B)
    members += [
        rng.standard_normal((n, n)) * np.logspace(-6, 6, n)[:, None],
        2.0**600 * rng.standard_normal((n, n)),
        1e-200 * rng.standard_normal((n, n)),
    ]
    return np.array(members)


def test_banded_inverses_equal_per_size_stacks_to_the_byte():
    # a member padded to its band's largest size keeps the bytes that the
    # stack of its own size gives it; the sparse integer members meet exact
    # zeros of both signs
    rng = np.random.default_rng(3030)
    signed_zero_members = shared_bands = 0
    for _ in range(300):
        sizes = rng.choice(np.arange(2, 14), size=int(rng.integers(1, 7)), replace=False).tolist()
        stacks = [band_members(rng, n) for n in sizes]
        got = suites._inverses(stacks)
        for stack, inverses in zip(stacks, got):
            want = suites._gauss_jordan(stack)
            assert inverses.dtype == want.dtype and inverses.shape == want.shape
            assert inverses.tobytes() == want.tobytes()
            signed_zero_members += len(stack) - 3
        bands = Counter(n // suites._BAND for n in sizes)
        shared_bands += sum(count > 1 for count in bands.values())
    assert signed_zero_members > 2000 and shared_bands > 200


def test_a_band_with_a_singular_member_is_refused_as_its_stack():
    rng = np.random.default_rng(31)
    for sizes in ([5, 7, 4], [2, 3], [13, 12], [9]):
        stacks = [rng.standard_normal((4, n, n)) for n in sizes]
        stacks[-1][2, :, 1] = 0.0  # a zero column stays zero under row operations
        errors = []
        for eliminate in (lambda: suites._gauss_jordan(stacks[-1]), lambda: suites._inverses(stacks)):
            with pytest.raises(InvalidInputError) as raised:
                eliminate()
            errors.append((type(raised.value), str(raised.value)))
        assert errors[0] == errors[1] == (InvalidInputError, "matrix is numerically singular")


def test_quantiles_equal_numpy_row_by_row():
    rng = np.random.default_rng(31)
    for n in range(1, 12):
        d = np.abs(rng.standard_normal((40, n)))  # a distance profile, and no -0.0, which ties with 0.0
        d[:8] = d[:8].round(0)  # tied profiles
        d[8] = 1.5  # every entry tied
        q = rng.uniform(0.0, 1.0, size=40)
        # v = (n - 1) q on an order statistic, and halfway between two
        q[10:13] = [0.0, 1.0, 0.5]
        if n > 2:
            q[13:16] = [0.5 / (n - 1), 1.5 / (n - 1), (n - 1.5) / (n - 1)]
        ordered = np.sort(d, axis=1)
        got = suites._quantiles(ordered, q)
        for row, quantile in enumerate(q.tolist()):
            want = float(np.quantile(d[row], quantile))
            assert got[row].item().hex() == want.hex(), (n, row, quantile)


def test_quantiles_take_the_upper_form_from_one_half():
    # at g = 0.5 numpy interpolates down from the upper order statistic,
    # which here differs from interpolating up from the lower one
    a, b = 0.1, 0.7
    assert a + (b - a) * 0.5 != b - (b - a) * 0.5
    ordered = np.array([[a, b, 1.0]])
    got = suites._quantiles(ordered, np.array([0.25]))[0]  # v = 0.5
    assert got == b - (b - a) * 0.5 == np.quantile(ordered[0], 0.25)


def per_draw_invertible(instances, seed):
    """The biorthogonality draws as they were taken before attempt 0 was
    stacked: every draw checked on its own by ``linalg._extremes``."""
    draws = []
    for idx in range(instances):
        n = int(SeedSpec(seed, idx).rng().integers(2, 51))
        kind = KINDS[idx % len(KINDS)]
        for attempt in range(200):
            B = suites.sample_matrix(RowDistribution(kind), n, SeedSpec(seed, suites._derived(idx, attempt)))
            s_min, s_max, hs = linalg._extremes(B)
            if s_min > 1e-6 * s_max:
                draws.append((kind, attempt, B, hs))
                break
        else:
            draws.append((kind, None, None, None))
    return draws


def assert_same_draws(got, want):
    """The stacks and failed instances ``got`` of ``_invertible_draws`` hold
    the matrices and HS norms of the per-draw loop's draws ``want``, the
    stacks of one size each and in the order of their first instances."""
    stacks, failed = got
    assert sorted(failed) == [idx for idx, (_, attempt, _, _) in enumerate(want) if attempt is None]
    groups = [group for group, _, _ in stacks]
    assert sorted(idx for group in groups for idx in group) == sorted(set(range(len(want))) - set(failed))
    assert [group[0] for group in groups] == sorted(group[0] for group in groups)
    for group, stack, norms in stacks:
        assert len({want[idx][2].shape for idx in group}) == 1 and stack.shape[0] == len(group) == len(norms)
        for idx, B, hs in zip(group, stack, norms):
            _, _, B0, hs0 = want[idx]
            assert B.tobytes() == B0.tobytes() and type(hs) is float and hs.hex() == hs0.hex()


@pytest.mark.parametrize("seed", [3, 2**64 - 1])
def test_stacked_draws_equal_the_per_draw_loop(seed):
    want = per_draw_invertible(150, seed)
    assert_same_draws(suites._invertible_draws(150, seed), want)
    assert any(attempt for _, attempt, _, _ in want)  # some instance retried


def test_stacked_draws_equal_the_per_draw_loop_when_draws_fail(monkeypatch):
    fail_biorthogonality_of_chosen_draws(monkeypatch)
    got = suites._invertible_draws(40, 23)
    assert_same_draws(got, per_draw_invertible(40, 23))
    assert len(got[1]) == 13


# -- the instance draws as they were taken, one generator call per coin,
# row or vector family: the oracles of the merged calls ------------------


def per_coin_graph(rng, n, p, i):
    edges = set()
    for j, k in combinations(range(n), 2):
        if i in (j, k):
            continue
        if rng.random() < p:
            edges.add((j, k))
    return combinatorics.Graph(n, frozenset(edges))


def graph_draw(make):
    """A draw of ``make(rng, n, p, i)`` with the edge-interval suite's ``n``,
    ``i`` and ``p``."""
    def draw(rng):
        n = int(rng.integers(4, 13))
        i = int(rng.integers(0, n))
        return make(rng, n, rng.uniform(0.1, 0.6), i)

    return draw


def per_call_dichotomy_pair(rng):
    n = int(rng.integers(4, 13))
    L = int(rng.integers(1, 3))
    i = int(rng.integers(0, n))
    G_tilde = per_coin_graph(rng, n, rng.uniform(0.1, 0.6), i)
    allowed = int(16.0 ** (-L) * n * n)
    kept = frozenset(e for e in G_tilde.edges if rng.random() > 0.3)
    candidates = [
        (j, k)
        for j, k in combinations(range(n), 2)
        if i not in (j, k) and (j, k) not in G_tilde.edges
    ]
    rng.shuffle(candidates)
    extra = frozenset(tuple(e) for e in candidates[: int(rng.integers(0, allowed + 1))])
    return n, L, i, combinatorics.Graph(n, kept | extra), G_tilde


def per_row_alpharho_inputs(rng):
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


def stacked_pivot_family(rng):
    """``(r, xs, coeffs, delta, noise)`` read back from the row that
    ``suites._pivot_family`` draws."""
    stacks = suites._ShapeStacks(1)
    suites._pivot_family(rng, stacks, 0)
    [shape] = stacks.members
    family = stacks.stack(shape)[0]
    r = shape[1]
    return r, family[: r - 1], family[r - 1, : r - 1] * 2.0, family[r - 1, r - 1].item(), family[r]


def per_call_pivot_family(rng):
    r = int(rng.integers(2, 7))
    xs = rng.standard_normal((r - 1, r))
    coeffs = rng.standard_normal(r - 1) * 2.0
    delta = 10.0 ** rng.uniform(-3, 0)
    return r, xs, coeffs, delta, rng.standard_normal(r)


def assert_same_draw(got, want):
    """Arrays equal with their dtype and shape, graphs by vertex count and
    edge set, sequences item by item, everything else by ``==``."""
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert (got.dtype, got.shape) == (want.dtype, want.shape) and got.tobytes() == want.tobytes()
    elif isinstance(want, combinatorics.Graph):
        assert (got.n, got.edges) == (want.n, want.edges)
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want)
        for item, item0 in zip(got, want):
            assert_same_draw(item, item0)
    else:
        assert got == want


# form -> (the suite's draw, its per-call oracle), each drawing one instance
DRAW_FORMS = {
    "edge coins": (graph_draw(suites._random_graph_with_isolated), graph_draw(per_coin_graph)),
    "kept-edge coins": (suites._dichotomy_pair, per_call_dichotomy_pair),
    "alpharho label rows": (suites._alpharho_inputs, per_row_alpharho_inputs),
    "pivot vectors and coefficients": (stacked_pivot_family, per_call_pivot_family),
}


@pytest.mark.parametrize("form", sorted(DRAW_FORMS))
def test_merged_draws_equal_their_per_call_forms(form):
    draw, per_call = DRAW_FORMS[form]
    for idx in range(2000):
        rng, rng0 = SeedSpec(7, idx).rng(), SeedSpec(7, idx).rng()
        assert_same_draw(draw(rng), per_call(rng0))
        # the merged call leaves the stream where the separate calls left it:
        # the next 32-bit draw reads any half word they left buffered
        assert rng.integers(0, 2**32) == rng0.integers(0, 2**32)
        assert rng.random() == rng0.random()


# -- the suites as they ran one instance at a time, through the public
# per-call operations: the oracles of the batched suites ----------------


def oracle_pivot(instances, seed):
    result = suites.SuiteResult("pivot", instances, 0)
    for idx in range(instances):
        rng = SeedSpec(seed, idx).rng()
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
            continue
        i0 = combinatorics.pivot_index(vectors, a, b)
        if i0 is None:
            suites._record(result, idx, f"instance {idx}: no pivot index (r={r}, a={a:g}, b={b:g})")
            continue
        lhs = np.linalg.norm(vectors[i0])
        rhs = b / (2.0 * a * r) * np.linalg.norm(x1)
        if lhs < rhs * (1 - 1e-9):
            suites._record(result, idx, f"instance {idx}: pivot {i0} has norm {lhs:g} < bound {rhs:g}")
    return result


def oracle_q_sets(instances, seed):
    result = suites.SuiteResult("q-sets", instances, 0)
    for idx in range(instances):
        rng = SeedSpec(seed, idx).rng()
        n = int(rng.integers(4, 11))
        r = int(rng.integers(2, 4))
        B = rng.standard_normal((n, n))
        d = linalg.row_distances(B)
        order = np.argsort(d)
        j_count = (n + 1) // 2
        J = order[n - j_count :]
        b = float(d[J].min())
        i_count = int(rng.integers(1, n - j_count + 1))
        I = order[:i_count]
        a = float(d[I].max())
        if not (a < b):
            continue
        tau = float(np.quantile(d, rng.uniform(0.1, 0.9))) * rng.uniform(0.5, 2.0)
        q1, q2 = combinatorics.q_sets(B, I, tau, a, b, r)
        lower = i_count * math.comb((n + 1) // 2, r - 1)
        if len(q1 | q2) < lower:
            suites._record(
                result, idx, f"instance {idx}: |Q1 u Q2| = {len(q1 | q2)} < {lower} (n={n}, r={r})"
            )
    return result


def oracle_edge_interval(instances, seed):
    result = suites.SuiteResult("edge-interval", instances, 0)
    for idx in range(instances):
        rng = SeedSpec(seed, idx).rng()
        n = int(rng.integers(4, 13))
        i = int(rng.integers(0, n))
        G = suites._random_graph_with_isolated(rng, n, rng.uniform(0.1, 0.6), i)
        for k in range(1, 9):
            for ell in range(1, k + 1):
                if not combinatorics.check_edge_interval(G, i, k, ell):
                    suites._record(result, idx, f"instance {idx}: bound fails at (k={k}, l={ell})")
    return result


def oracle_low_value(matrices, seed, triple_matrices):
    result = suites.SuiteResult("low-value", matrices + triple_matrices, 0)
    for idx in range(matrices):
        rng = SeedSpec(seed, idx).rng()
        n = int(rng.integers(4, 13))
        B = rng.standard_normal((n, n))
        graphs = [combinatorics.build_graph_G(B, i) for i in range(n)]
        for L in (1, 2, 3):
            values = [combinatorics.vertex_value(graphs[i], i, L) for i in range(n)]
            for N in range(1, n + 1):
                count = sum(1 for v in values if v <= N)
                if count > 16 * N:
                    suites._record(
                        result,
                        idx,
                        f"matrix {idx}: {count} low-value rows exceeds 16N={16 * N} (L={L}, N={N})",
                    )
    for idx in range(triple_matrices):
        rng = SeedSpec(seed, suites._derived(idx)).rng()
        n = int(rng.integers(4, 10))
        B = rng.standard_normal((n, n))
        graphs = [combinatorics.build_graph_G(B, i) for i in range(n)]
        for i, j, k in combinations(range(n), 3):
            jk = (j, k) in graphs[i].edges
            ik = (min(i, k), max(i, k)) in graphs[j].edges
            ij = (min(i, j), max(i, j)) in graphs[k].edges
            if not (jk or ik or ij):
                suites._record(
                    result,
                    matrices + idx,
                    f"triple matrix {idx}: no membership for triple ({i},{j},{k})",
                )
    return result


def oracle_biorthogonality(instances, seed):
    result = suites.SuiteResult("biorthogonality", instances, 0)
    for idx in range(instances):
        rng = SeedSpec(seed, idx).rng()
        n = int(rng.integers(2, 51))
        kind = KINDS[idx % len(KINDS)]
        B = None
        for attempt in range(200):
            candidate = suites.sample_matrix(RowDistribution(kind), n, SeedSpec(seed, suites._derived(idx, attempt)))
            s_min, s_max, hs = linalg._extremes(candidate)
            if s_min > 1e-6 * s_max:
                B = candidate
                break
        if B is None:
            suites._record(result, idx, f"instance {idx}: could not draw an invertible {kind} matrix")
            continue
        inv = suites.invert_by_elimination(B)
        distances = linalg.row_distances(B)
        products = np.linalg.norm(inv, axis=0) * distances
        worst = float(np.max(np.abs(products - 1.0)))
        if worst > 1e-8:
            suites._record(result, idx, f"instance {idx} (kind={kind}, n={n}): biorthogonality error {worst:g}")
            continue
        hs_from_distances = math.sqrt(float(np.sum(distances**-2.0)))
        rel = abs(hs**2 - hs_from_distances**2) / hs**2
        if rel > 1e-8:
            suites._record(result, idx, f"instance {idx} (kind={kind}, n={n}): HS identity error {rel:g}")
    return result


ORACLES = {
    "pivot": (oracle_pivot, 400),
    "q-sets": (oracle_q_sets, 80),
    "edge-interval": (oracle_edge_interval, 40),
    "low-value": (oracle_low_value, 5),
    "biorthogonality": (oracle_biorthogonality, 40),
}


def run_both(name, seed):
    oracle, count = ORACLES[name]
    if name == "low-value":
        return suites.run_low_value_suite(count, seed, 4), oracle(count, seed, 4)
    return suites.SUITES[name](count, seed=seed), oracle(count, seed)


@pytest.mark.parametrize("seed", [11, 2**64 - 1])
@pytest.mark.parametrize("name", sorted(ORACLES))
def test_batched_suite_equals_its_instance_loop(name, seed):
    got, want = run_both(name, seed)
    assert got == want
    assert got.instances == ORACLES[name][1] + 4 * (name == "low-value")


def fail_pivots_of_r_4_and_5(monkeypatch):
    # no pivot for r = 4; the last vector, which need not be long enough, for r = 5
    def chosen(X, d, a, b):
        i0 = indices(X, d, a, b)
        r = X.shape[1]
        return np.zeros_like(i0) if r == 4 else np.full_like(i0, r - 1) if r == 5 else i0

    indices = combinatorics._pivot_indices
    monkeypatch.setattr(combinatorics, "_pivot_indices", chosen)


def fail_q_sets_of_even_n(monkeypatch):
    def chosen(A, sets, inside, tau, high):
        q1, q2 = masks(A, sets, inside, tau, high)
        if A.shape[1] % 2 == 0:
            q1[:] = q2[:] = False
        return q1, q2

    masks = combinatorics._q_masks
    monkeypatch.setattr(combinatorics, "_q_masks", chosen)


def fail_graphs_of_odd_n(monkeypatch):
    def chosen(n, sets, d, i, offset=0.0):
        return combinatorics.Graph.empty(n) if n % 2 else compared(n, sets, d, i, offset)

    compared = combinatorics._compared
    monkeypatch.setattr(combinatorics, "_compared", chosen)


def fail_edge_interval_of_even_n(monkeypatch):
    # two failures per instance: an inner pair and the last pair checked
    def chosen(e_seq, n, k, ell):
        return holds(e_seq, n, k, ell) and not (n % 2 == 0 and (k, ell) in ((3, 2), (8, 8)))

    holds = combinatorics._edge_interval_holds
    monkeypatch.setattr(combinatorics, "_edge_interval_holds", chosen)


def fail_biorthogonality_of_chosen_draws(monkeypatch):
    # instances 1, 4, 7, ... draw only singular matrices; rows of sizes
    # divisible by 4 get distances 1.5 times too large
    def sample(dist, n, spec, out=None):
        B = draw(dist, n, spec, out)
        if (spec.trial_index >> 8) % 3 == 1:
            B *= 0.0
        return B

    def profile(X):
        d = row_profile(X)
        return 1.5 * d if X.shape[1] % 4 == 0 else d

    draw, row_profile = suites.sample_matrix, linalg._row_profile
    monkeypatch.setattr(suites, "sample_matrix", sample)
    monkeypatch.setattr(linalg, "_row_profile", profile)


@pytest.mark.parametrize(
    "name, inject",
    [
        ("pivot", fail_pivots_of_r_4_and_5),
        ("q-sets", fail_q_sets_of_even_n),
        ("edge-interval", fail_edge_interval_of_even_n),
        ("low-value", fail_graphs_of_odd_n),
        ("biorthogonality", fail_biorthogonality_of_chosen_draws),
    ],
)
def test_batched_suite_reports_failures_as_its_instance_loop(monkeypatch, name, inject):
    inject(monkeypatch)
    got, want = run_both(name, 23)
    assert got == want
    assert len(got.messages) == suites._MAX_MESSAGES < got.failures
    assert got.failed_instances == sorted(set(got.failed_instances))
    if name not in ("low-value", "edge-interval"):  # one message per failing instance
        assert len(got.failed_instances) == got.failures
        assert [int(m.split()[1].rstrip(":")) for m in got.messages] == got.failed_instances[:10]


def test_result_orders_failures_by_instance():
    failures = [
        (7, "seven a"),
        (2, "two a"),
        (7, "seven b"),
        (0, "zero"),
        (2, "two b"),
        (2, "two c"),
    ]
    result = suites._result("demo", 9, failures)
    assert result == suites.SuiteResult(
        "demo",
        9,
        6,
        ["zero", "two a", "two b", "two c", "seven a", "seven b"],
        [0, 2, 7],
    )
    assert suites._result("demo", 3, []) == suites.SuiteResult("demo", 3, 0)


@pytest.mark.parametrize(
    "name,instances",
    [
        ("pivot", 200),
        ("q-sets", 40),
        ("edge-interval", 15),
        ("low-value", 6),
        ("dichotomy", 25),
        ("alpharho", 40),
        ("biorthogonality", 40),
    ],
)
def test_suites_pass_smoke(name, instances):
    result = suites.run_suite(name, instances=instances, seed=2026)
    assert result.passed, result.messages


def test_unknown_suite():
    with pytest.raises(InvalidInputError):
        suites.run_suite("nonsense")


def test_summary_format():
    result = suites.run_suite("alpharho", instances=3, seed=0)
    assert "alpharho" in result.summary()
    assert "3 instances" in result.summary()


@pytest.mark.parametrize("name", sorted(suites.SUITES))
def test_negative_counts_are_rejected(name):
    with pytest.raises(InvalidInputError, match="non-negative"):
        suites.SUITES[name](-5)
    for instances in (0, -5):
        with pytest.raises(InvalidInputError, match="at least 1"):
            suites.run_suite(name, instances=instances)


@pytest.mark.parametrize("instances", [True, 2.5, 3.0, "3"])
def test_non_integer_instance_count_is_rejected(monkeypatch, instances):
    # True ran one instance and reported "True instances"; 2.5 raised a bare TypeError
    monkeypatch.setitem(suites.SUITES, "pivot", None)  # no runner is reached
    with pytest.raises(InvalidInputError, match="instances: expected an integer"):
        suites.run_suite("pivot", instances=instances)


def test_numpy_instance_count_is_an_int():
    result = suites.run_suite("alpharho", instances=np.int64(3), seed=0)
    assert result.instances == 3 and type(result.instances) is int


def test_negative_triple_matrix_count_is_rejected():
    with pytest.raises(InvalidInputError, match="triple_matrices"):
        suites.run_low_value_suite(matrices=2, triple_matrices=-4)


def recorded_keys(monkeypatch, run) -> list[int]:
    """Trial indices of every stream a suite run opens, in order: on the
    run's own generator and on the one ``sample_matrix`` keeps per thread."""
    keys = []

    def recording(self, master_seed, trial_index):
        keys.append(trial_index)
        return opened(self, master_seed, trial_index)

    opened = samplers._Streams.open
    monkeypatch.setattr(samplers._Streams, "open", recording)
    run()
    return keys


@pytest.mark.parametrize(
    "run, count",
    [
        (lambda: suites.run_pivot_suite(50, seed=5), 50),
        (lambda: suites.run_q_sets_suite(30, seed=5), 30),
    ],
    ids=["pivot", "q-sets"],
)
def test_each_instance_stream_is_opened_once(monkeypatch, run, count):
    assert sorted(recorded_keys(monkeypatch, run)) == list(range(count))


@pytest.mark.parametrize(
    "run, count",
    [
        (lambda: suites.run_biorthogonality_suite(30, seed=5), 30),
        (lambda: suites.run_low_value_suite(matrices=3, seed=5, triple_matrices=4), 3),
    ],
    ids=["biorthogonality", "low-value"],
)
def test_derived_streams_never_meet_an_instance_stream(monkeypatch, run, count):
    # instance idx reads SeedSpec(seed, idx); every other stream is opened
    # once and lies outside the index range of a run of any count below 2**63
    keys = recorded_keys(monkeypatch, run)
    assert set(range(count)) <= set(keys)
    assert max(Counter(keys).values()) == 1
    derived = set(keys) - set(range(count))
    assert derived and all(2**63 <= k < 2**64 for k in derived)


def test_derived_keys_are_a_function_of_the_instance():
    assert suites._derived(4, 2) == suites._derived(4, 2) == 1 << 63 | 4 << 8 | 2
    keys = {suites._derived(idx, attempt) for idx in range(50) for attempt in range(200)}
    assert len(keys) == 50 * 200


@pytest.mark.parametrize("idx, attempt", [(2**55, 0), (0, 256), (-1, 0), (3, -1)])
def test_derived_streams_outside_their_range_are_rejected(idx, attempt):
    with pytest.raises(InvalidInputError, match="derived stream"):
        suites._derived(idx, attempt)


def test_run_suite_rejects_a_seed_beyond_64_bits():
    for seed in (-1, 2**64 + 5):
        with pytest.raises(InvalidInputError, match="master_seed"):
            suites.run_suite("dichotomy", instances=2, seed=seed)
