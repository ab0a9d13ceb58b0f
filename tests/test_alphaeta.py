import itertools
import json
import math
import tracemalloc
from collections.abc import Mapping
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sminlab.alphaeta as ae
from sminlab import cli, linalg, suites
from sminlab.errors import InvalidInputError


def random_inputs(seed, n_max=3, atoms_max=3):
    """Constructor inputs ``(space, psi, lam, classes, event, event_partition)``
    of a random structure with one label array per assignment."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, n_max + 1))
    factors = []
    for _ in range(n):
        m = int(rng.integers(1, atoms_max + 1))
        raw = rng.random(m) + 0.1
        factors.append(raw / raw.sum())
    space = ae.DiscreteProductSpace(factors)
    psi = list(range(1, int(rng.integers(1, 4)) + 1))
    lam = list(range(1, int(rng.integers(1, 4)) + 1))
    classes = [rng.integers(1, len(psi) + 1, size=space.size) for _ in range(n)]
    event = rng.random(space.size) < 0.5
    cells = [rng.integers(1, len(lam) + 1, size=space.size) for _ in range(n)]
    return space, psi, lam, classes, event, cells


def random_structure(seed, n_max=3, atoms_max=3):
    return ae.AlphaEtaStructure(*random_inputs(seed, n_max, atoms_max))


# -- per-atom arrays of the inputs, and the oracles that read them ----------


class Full(NamedTuple):
    """A structure's inputs as full per-atom arrays: ``(n, size)`` class and
    cell positions (cells -1 off the event), the event mask and the atom
    probabilities."""

    space: ae.DiscreteProductSpace
    psi: list
    lam: list
    class_idx: np.ndarray
    cell_idx: np.ndarray
    mask: np.ndarray
    probs: np.ndarray

    @property
    def n(self):
        return self.space.n


def full_arrays(space, psi, lam, classes, event, event_partition):
    """The per-atom arrays of a structure, built from its constructor's
    inputs alone, so that the oracles never read the structure's storage."""
    N = space.size
    if isinstance(event, np.ndarray) and event.dtype == bool:
        mask = event.reshape(-1).copy()
    else:
        mask = np.zeros(N, dtype=bool)
        for atom in event:
            mask[np.ravel_multi_index(tuple(atom), space.shape)] = True

    def positions(spec, labels, where):
        labels = list(labels)
        out = np.full(N, -1, dtype=np.int16)
        if isinstance(spec, Mapping):
            for flat, atom in enumerate(space.atoms()):
                if where[flat]:
                    out[flat] = labels.index(spec[atom])
        elif np.ndim(spec) == 0 or isinstance(spec, tuple):
            out[where] = labels.index(spec)
        else:
            per_atom = np.asarray(spec).reshape(-1)
            for pos, label in enumerate(labels):
                out[where & (per_atom == label)] = pos
        return out

    everywhere = np.ones(N, dtype=bool)
    class_idx = np.stack([positions(spec, psi, everywhere) for spec in classes])
    cell_idx = np.stack([positions(spec, lam, mask) for spec in event_partition])
    return Full(space, list(psi), list(lam), class_idx, cell_idx, mask, space.atom_probabilities())


def build(inputs):
    """The structure of ``inputs`` and their per-atom arrays."""
    return ae.AlphaEtaStructure(*inputs), full_arrays(*inputs)


def built_with_full(factory, *args):
    """``factory(*args)`` and, for each structure it built, the structure
    and the per-atom arrays of the inputs passed to its constructor."""
    built = []
    constructor = ae.AlphaEtaStructure

    def recording(*a, **kw):
        built.append((constructor(*a, **kw), full_arrays(*a, **kw)))
        return built[-1][0]

    with mock.patch.object(ae, "AlphaEtaStructure", recording):
        result = factory(*args)
    return result, built


def inputs_full(inputs):
    """The per-atom arrays of a structure handed to ``alphaeta._verify_batch``,
    built from its inputs alone."""
    return full_arrays(
        ae.DiscreteProductSpace(inputs.factors), range(1, inputs.psi + 1), range(1, inputs.lam + 1),
        inputs.classes, inputs.event, inputs.cells,
    )


def batched_with_inputs(factory, *args):
    """``factory(*args)`` and the inputs of every structure it handed to
    ``alphaeta._verify_batch``, in the order it handed them."""
    seen = []
    batch = ae._verify_batch

    def recording(structures):
        seen.extend(structures)
        return batch(structures)

    with mock.patch.object(ae, "_verify_batch", recording):
        result = factory(*args)
    return result, seen


def sharp_full(full, pidx):
    """Largest count of coordinates whose class is ``pidx`` at one atom."""
    return int((full.class_idx == pidx).sum(axis=0).max())


def sharp_definitional(full, psi_label):
    """Minimal s such that every index set larger than s has empty
    class intersection; brute force over all subsets."""
    n = full.n
    pidx = full.psi.index(psi_label)
    atoms = set(range(full.space.size))
    members = [set(np.flatnonzero(full.class_idx[i] == pidx).tolist()) for i in range(n)]
    for s in range(n + 1):
        empty_beyond = True
        for size in range(s + 1, n + 1):
            for subset in itertools.combinations(range(n), size):
                common = set(atoms)
                for i in subset:
                    common &= members[i]
                if common:
                    empty_beyond = False
                    break
            if not empty_beyond:
                break
        if empty_beyond:
            return s
    return n


def line_sums(space, i, member):
    """Probability of ``member`` (one entry per atom) on every line along
    coordinate ``i``, as an ``(atoms before i, atoms after i)`` array, each
    line summed in coordinate order."""
    shape = space.shape
    grid = member.reshape(math.prod(shape[:i]), shape[i], -1)
    out = np.zeros((grid.shape[0], grid.shape[2]))
    for j, p in enumerate(space.factors[i]):
        out += grid[:, j, :] * p
    return out


def full_space_report(full):
    """``verify_alpharho`` evaluated on the full space: every section
    probability is broadcast back to all atoms before it is read."""
    space = full.space

    def section_broadcast(i, member):
        shape = space.shape
        sec = line_sums(space, i, member).reshape(shape[:i] + (1,) + shape[i + 1 :])
        return np.ravel(np.broadcast_to(sec, shape))

    def eta_indices(i):
        stacked = np.empty((len(full.psi), space.size))
        for pidx in range(len(full.psi)):
            stacked[pidx] = section_broadcast(i, (full.class_idx[i] == pidx).astype(float))
        return len(full.psi) - 1 - np.argmax(stacked[::-1], axis=0)

    def alpha_values(i):
        sections = np.empty((len(full.lam), space.size))
        for lidx in range(len(full.lam)):
            member = (full.mask & (full.cell_idx[i] == lidx)).astype(float)
            sections[lidx] = section_broadcast(i, member)
        cell = np.where(full.mask, full.cell_idx[i], 0)
        chosen = sections[cell, np.arange(space.size)]
        with np.errstate(divide="ignore"):
            return 1.0 / chosen

    sharp_vec = np.array([sharp_full(full, p) for p in range(len(full.psi))], dtype=float)
    rhs = float(len(full.psi) ** 2 * len(full.lam))
    mask = full.mask
    if not mask.any():
        return ae.AlphaRhoReport(0.0, rhs, True, math.inf, 0.0)
    ratio_sum = np.zeros(int(mask.sum()))
    for i in range(full.n):
        sharp_eta = sharp_vec[eta_indices(i)[mask]]
        assert not np.any(sharp_eta == 0)
        ratio_sum += alpha_values(i)[mask] / sharp_eta
    lhs = float(np.sum(full.probs[mask] * ratio_sum))
    return ae.AlphaRhoReport(
        lhs, rhs, bool(lhs <= rhs + 1e-9), float(ratio_sum.min()), float(full.probs[mask].sum())
    )


def _line_base(full, i, atom):
    flat = int(np.ravel_multi_index(tuple(atom), full.space.shape))
    stride = int(full.space._strides[i])
    return flat, stride, flat - int(atom[i]) * stride


def eta_loop(full, i, atom):
    _, stride, base = _line_base(full, i, atom)
    probs_i = full.space.factors[i]
    section = np.zeros(len(full.psi))
    for a in range(full.space.shape[i]):
        section[full.class_idx[i, base + a * stride]] += probs_i[a]
    best = 0
    for pos in range(1, len(full.psi)):
        if section[pos] >= section[best]:
            best = pos
    return full.psi[best]


def eta_section_probability_loop(full, i, atom):
    pidx = full.psi.index(eta_loop(full, i, atom))
    _, stride, base = _line_base(full, i, atom)
    total = 0.0
    for a in range(full.space.shape[i]):
        if full.class_idx[i, base + a * stride] == pidx:
            total += full.space.factors[i][a]
    return total


def alpha_loop(full, i, atom):
    flat, stride, base = _line_base(full, i, atom)
    cell = full.cell_idx[i, flat]
    total = 0.0
    for a in range(full.space.shape[i]):
        pos = base + a * stride
        if full.mask[pos] and full.cell_idx[i, pos] == cell:
            total += full.space.factors[i][a]
    return 1.0 / total


def assert_queries_match_loops(struct, full, atoms):
    for atom in atoms:
        flat = int(np.ravel_multi_index(tuple(atom), full.space.shape))
        assert struct.contains(atom) == full.mask[flat]
        for i in range(full.n):
            assert struct.class_label(i, atom) == full.psi[full.class_idx[i, flat]]
            assert struct.eta(i, atom) == eta_loop(full, i, atom)
            assert struct.eta_section_probability(i, atom) == eta_section_probability_loop(
                full, i, atom
            )
            if full.mask[flat]:
                assert struct.alpha(i, atom) == alpha_loop(full, i, atom)


@st.composite
def structure_inputs(draw, n_max=3, atoms_max=4):
    """Inputs with one-atom factors, n = 1, one-label lists, unused
    (empty) cells, empty and full events, uniform factors whose section
    probabilities tie exactly, and constant assignments among arrays."""
    n = draw(st.integers(1, n_max))
    shape = [draw(st.integers(1, atoms_max)) for _ in range(n)]
    uniform = draw(st.booleans())
    factors = []
    for m in shape:
        if uniform:
            factors.append(np.full(m, 1.0 / m))
        else:
            raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m)))
            factors.append(raw / raw.sum())
    space = ae.DiscreteProductSpace(factors)
    size = space.size

    def labels(count):
        if draw(st.booleans()):
            return draw(st.integers(1, count))
        return np.array(draw(st.lists(st.integers(1, count), min_size=size, max_size=size)))

    psi = list(range(1, draw(st.integers(1, 3)) + 1))
    lam = list(range(1, draw(st.integers(1, 3)) + 1))
    classes = [labels(len(psi)) for _ in range(n)]
    event = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)), dtype=bool)
    cells = [labels(len(lam)) for _ in range(n)]
    return space, psi, lam, classes, event, cells


def assert_same_report(got, want):
    assert got.lhs == want.lhs
    assert got.min_ratio_sum == want.min_ratio_sum
    assert got.event_probability == want.event_probability
    assert got.rhs == want.rhs and got.holds == want.holds


class TestSectionShapeOracle:
    """The section-shape evaluation gives the full-space numbers bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(structure_inputs())
    def test_verify_matches_full_space(self, inputs):
        struct, full = build(inputs)
        assert_same_report(struct.verify_alpharho(), full_space_report(full))

    def test_verify_matches_full_space_on_suite_structures(self):
        for seed in range(200):
            struct, full = build(random_inputs(seed + 2000, n_max=4, atoms_max=5))
            assert_same_report(struct.verify_alpharho(), full_space_report(full))

    @pytest.mark.parametrize("args", [(4, 2.0, 8), (4, 10.0, 40)])
    def test_verify_matches_full_space_on_the_cube(self, args):
        cube, [(_, full)] = built_with_full(ae.cube_example_structure, *args)
        assert_same_report(cube.verify_alpharho(), full_space_report(full))

    @settings(max_examples=100, deadline=None)
    @given(structure_inputs())
    def test_per_atom_queries_match_loops(self, inputs):
        struct, full = build(inputs)
        assert_queries_match_loops(struct, full, struct.space.atoms())

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_last_coordinate_lines_are_summed_in_order(self, m):
        # a contraction's vectorised kernel may add a line of the last
        # coordinate pairwise; the per-atom queries add it in order
        rng = np.random.default_rng(m)
        raw = rng.random(m) + 0.05
        space = ae.DiscreteProductSpace([np.full(400, 1 / 400), raw / raw.sum()])
        labels = rng.integers(1, 3, space.size)
        struct = ae.AlphaEtaStructure(space, [1, 2], [1], [1, labels], np.ones(space.size, bool), [1, 1])
        table = struct._section_table(1, struct._classes[1], range(2))
        f = space.factors[1].tolist()
        for pos in range(2):
            for line in range(400):
                total = 0.0
                for j in range(m):
                    if labels[line * m + j] == pos + 1:
                        total += f[j]
                assert table[pos, line] == total, (pos, line)

    def test_cube_verify_stays_off_the_full_space(self):
        # three float64 arrays of the full space; the full-space evaluation
        # peaks at about five
        cube = ae.cube_example_structure(4, 10.0, 40)
        tracemalloc.start()
        try:
            cube.verify_alpharho()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * cube.space.size


class TestCompactForms:
    """Constant and per-atom assignments, and the label dtypes, against the
    full-space oracle bit for bit."""

    @pytest.mark.parametrize("seed", range(20))
    def test_mixed_assignments_match_full_space(self, seed):
        rng = np.random.default_rng(seed + 6000)
        factors = []
        for m in (3, 2, 4):
            raw = rng.random(m) + 0.1
            factors.append(raw / raw.sum())
        space = ae.DiscreteProductSpace(factors)
        psi, lam = ["a", "b", "c"], [10, 20]
        atoms = list(space.atoms())
        classes = [
            "b",
            rng.choice(psi, size=space.size),
            {atom: psi[int(rng.integers(3))] for atom in atoms},
        ]
        event = rng.random(space.size) < 0.6
        cells = [
            {atom: lam[int(rng.integers(2))] for atom in atoms},
            20,
            rng.choice(lam, size=space.size),
        ]
        struct, full = build((space, psi, lam, classes, event, cells))
        assert_same_report(struct.verify_alpharho(), full_space_report(full))
        assert_queries_match_loops(struct, full, atoms)
        for label in psi:
            assert struct.sharp(label) == sharp_definitional(full, label)

    def test_constant_cells_on_a_sparse_event(self):
        rng = np.random.default_rng(61)
        factors = [np.full(5, 0.2), rng.random(6) + 0.1, np.full(4, 0.25)]
        space = ae.DiscreteProductSpace([p / p.sum() for p in factors])
        event = {(0, 1, 2), (4, 1, 2), (2, 5, 0)}
        inputs = (space, [1, 2], [7], [2, np.ones(space.size, int), 1], event, [7, 7, 7])
        struct, full = build(inputs)
        assert_same_report(struct.verify_alpharho(), full_space_report(full))
        assert_queries_match_loops(struct, full, space.atoms())

    @pytest.mark.parametrize(
        "labels, class_dtype, cell_dtype",
        [(128, np.uint8, np.int8), (300, np.uint16, np.int16)],
    )
    def test_long_label_lists(self, labels, class_dtype, cell_dtype):
        # 128 labels fill int8 with the off-event -1; 300 overflow uint8
        rng = np.random.default_rng(labels)
        space = ae.DiscreteProductSpace([np.full(20, 0.05), np.full(16, 1 / 16)])
        psi = list(range(labels))
        lam = [f"cell{k}" for k in range(labels)]
        classes = [rng.permutation(np.arange(space.size) % labels) for _ in range(2)]
        event = rng.random(space.size) < 0.7
        cells = [np.array(lam)[rng.permutation(np.arange(space.size) % labels)], lam[-1]]
        struct, full = build((space, psi, lam, classes, event, cells))
        assert [c.dtype for c in struct._classes] == [class_dtype] * 2
        assert struct._cells[0].dtype == cell_dtype
        assert_same_report(struct.verify_alpharho(), full_space_report(full))
        assert_queries_match_loops(struct, full, space.atoms())

    def test_tables_of_many_lines_match_full_space(self):
        # 8193 lines along coordinate 1, read in section order
        rng = np.random.default_rng(5)
        raw = rng.random(40) + 0.1
        space = ae.DiscreteProductSpace([np.full(8193, 1 / 8193), raw / raw.sum()])
        classes = [rng.integers(1, 3, space.size), 1]
        event = rng.random(space.size) < 0.5
        cells = [1, rng.integers(1, 3, space.size)]
        struct, full = build((space, [1, 2], [1, 2], classes, event, cells))
        table = struct._section_table(1, struct._cells[1], range(2))
        for lidx in range(2):
            member = (full.cell_idx[1] == lidx).astype(float)
            assert np.array_equal(table[lidx], line_sums(space, 1, member).reshape(-1))
        assert_same_report(struct.verify_alpharho(), full_space_report(full))

    def test_report_independent_of_the_callers_blas_threads(self, blas_at_two_threads):
        # 10804 lines of 196 entries: a dgemv over this table on two OpenBLAS
        # threads splits it at a line that is not a multiple of four, and
        # sums the lines at the split in another order
        rng = np.random.default_rng(0)
        raw = rng.random(196) + 0.05
        space = ae.DiscreteProductSpace(
            [np.full(10804, 1 / 10804), raw / raw.sum()], budget=4 * 10**6
        )
        cells = [1, rng.integers(1, 3, space.size)]
        struct = ae.AlphaEtaStructure(space, [1], [1, 2], [1, 1], np.ones(space.size, bool), cells)
        at_two = struct.verify_alpharho()
        assert blas_at_two_threads() == 2
        with linalg._single_thread_blas:
            at_one = struct.verify_alpharho()
        assert blas_at_two_threads() == 2
        assert_same_report(at_two, at_one)

    def test_more_coordinates_than_einsum_subscripts(self):
        # 61 coordinates: a subscript per coordinate would exceed einsum's 52
        rng = np.random.default_rng(61)
        space = ae.DiscreteProductSpace([[1.0]] * 30 + [[0.25, 0.75]] + [[1.0]] * 30)
        classes = [rng.integers(1, 4, 2) for _ in range(61)]
        cells = [rng.integers(1, 3, 2) for _ in range(61)]
        inputs = (space, [1, 2, 3], [1, 2], classes, np.array([True, True]), cells)
        struct, full = build(inputs)
        report = struct.verify_alpharho()
        assert_same_report(report, full_space_report(full))
        assert report.lhs == float.fromhex("0x1.625ec8f3c2f55p+1")
        assert report.min_ratio_sum == float.fromhex("0x1.5cf5931cf5930p+1")
        assert (report.event_probability, report.rhs, report.holds) == (1.0, 18.0, True)

    def test_queries_at_sampled_cube_atoms(self):
        cube, [(_, full)] = built_with_full(ae.cube_example_structure, 4, 10.0, 40)
        rng = np.random.default_rng(11)
        flats = np.concatenate([
            rng.choice(cube.space.size, 100, replace=False),
            rng.choice(np.flatnonzero(full.mask), 100, replace=False),
        ])
        atoms = [tuple(int(v) for v in np.unravel_index(f, cube.space.shape)) for f in flats]
        assert_queries_match_loops(cube, full, atoms)

    def test_alpharho_suite_structures_match_full_space(self):
        result, drawn = batched_with_inputs(suites.run_alpharho_suite, 100, 1111)
        assert result.instances == len(drawn) == 100
        for inputs in drawn:
            assert_same_report(inputs.structure().verify_alpharho(), full_space_report(inputs_full(inputs)))

    def test_cube_build_and_verify_bytes_per_atom(self):
        # the one-byte event mask is the cube's only per-atom array; storing
        # class and cell labels and probabilities per atom took about 57
        tracemalloc.start()
        try:
            cube = ae.cube_example_structure(4, 10.0, 40)
            cube.verify_alpharho()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * cube.space.size


class TestDiscreteProductSpace:
    def test_validates_probabilities(self):
        with pytest.raises(InvalidInputError):
            ae.DiscreteProductSpace([[0.5, 0.4]])
        with pytest.raises(InvalidInputError):
            ae.DiscreteProductSpace([[1.0, 0.0]])

    def test_rejects_non_finite_probabilities(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(InvalidInputError):
                ae.DiscreteProductSpace([[bad, 1.0]])

    def test_budget_must_be_an_integer(self):
        for bad in ("x", 16.0):
            with pytest.raises(InvalidInputError, match="budget"):
                ae.DiscreteProductSpace([[0.5, 0.5]], budget=bad)

    def test_factor_entries_must_be_numbers(self):
        for bad in (["a", "b"], ["0.5", "0.5"], [True]):
            with pytest.raises(InvalidInputError, match="expected a number"):
                ae.DiscreteProductSpace([bad])

    def test_budget(self):
        with pytest.raises(InvalidInputError):
            ae.DiscreteProductSpace([[0.5, 0.5]] * 4, budget=15)
        ae.DiscreteProductSpace([[0.5, 0.5]] * 4, budget=16)

    @pytest.mark.parametrize("m, n", [(2**16, 4), (2**21, 3)])
    def test_size_beyond_64_bits_is_over_budget(self, m, n):
        # 2**64 and 2**63 atoms: an int64 product wraps to 0 and -2**63
        with pytest.raises(InvalidInputError, match=f"{m**n} atoms, exceeding the enumeration budget"):
            ae.DiscreteProductSpace([np.full(m, 1.0 / m)] * n)

    def test_budget_is_checked_from_the_lengths_before_the_entries(self):
        with pytest.raises(InvalidInputError, match="8 atoms, exceeding the enumeration budget 7"):
            ae.DiscreteProductSpace([["not a number"] * 2] * 3, budget=7)
        for factor in ([0.25, 0.75], (0.25, 0.75), np.array([0.25, 0.75]), iter([0.25, 0.75])):
            space = ae.DiscreteProductSpace([factor, (v for v in [0.5, 0.5])], budget=4)
            assert space.shape == (2, 2) and space.factors[0].tolist() == [0.25, 0.75]

    @pytest.mark.parametrize(
        "entries, message",
        [
            ([math.nan, 1.0], "factor 1 has non-finite probabilities"),
            ([math.inf, 1.0], "factor 1 has non-finite probabilities"),
            ([-math.inf, 1.0], "factor 1 has non-finite probabilities"),
            ([1.0, 0.0], "factor 1 has non-positive probabilities"),
            ([1.5, -0.5], "factor 1 has non-positive probabilities"),
            ([0.5, 0.4], "factor 1 probabilities sum to np.float64(0.9), not 1"),
        ],
    )
    @pytest.mark.parametrize("form", [list, tuple, np.array], ids=["list", "tuple", "float64"])
    def test_bad_factors_give_one_message_in_every_form(self, entries, message, form):
        # a float64 vector is checked whole, a sequence entry by entry: the same messages
        with pytest.raises(InvalidInputError) as raised:
            ae.DiscreteProductSpace([[0.5, 0.5], form(entries)])
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "factor, got",
        [
            (np.array(["0.5", "0.5"]), "np.str_('0.5')"),
            (np.array([0.5, "x"], dtype=object), "'x'"),
            (np.array([True, False]), "np.True_"),
            (np.array([1 + 0j]), "np.complex128(1+0j)"),
            (np.array([[0.5, 0.5]]), "array([0.5, 0.5])"),
        ],
        ids=["str", "object", "bool", "complex", "2-D"],
    )
    def test_non_numeric_array_factors_rejected(self, factor, got):
        with pytest.raises(InvalidInputError) as raised:
            ae.DiscreteProductSpace([factor])
        assert str(raised.value) == (
            "factors must be sequences of probabilities and the budget an integer: "
            f"expected a number, got {got}"
        )

    @pytest.mark.parametrize(
        "factor",
        [
            np.array([0.25, 9.0, 0.75])[::2],
            np.array([1, 3]) / 4,
            np.array([0.25, 0.75], dtype=np.float32),
            np.array([0.25, 0.75], dtype=">f8"),
            np.array([0.25, 0.75], dtype=object),
            [np.float64(0.25), 0.75],
        ],
        ids=["strided", "float64", "float32", "big-endian", "object", "list"],
    )
    def test_numeric_factors_are_copied_as_float64(self, factor):
        space = ae.DiscreteProductSpace([factor])
        (p,) = space.factors
        assert p.dtype == np.float64 and p.dtype.isnative and p.flags.c_contiguous
        assert p.tolist() == [0.25, 0.75]
        factor[0] = 0.5
        assert p.tolist() == [0.25, 0.75]

    def test_size_and_strides_are_python_integers(self):
        space = ae.DiscreteProductSpace([[0.5, 0.5], [0.25] * 4, [1.0]])
        assert (space.size, space._strides) == (8, (4, 1, 1))
        assert all(type(v) is int for v in (space.size, *space._strides))

    def test_atom_probabilities_order(self):
        space = ae.DiscreteProductSpace([[0.25, 0.75], [0.1, 0.2, 0.7]])
        probs = space.atom_probabilities()
        assert probs.sum() == pytest.approx(1.0)
        for flat, atom in enumerate(space.atoms()):
            assert probs[flat] == pytest.approx(space.prob(atom))
            assert space.atom_index(atom) == flat

    def test_numpy_integer_coordinates(self):
        space = ae.DiscreteProductSpace([[0.25, 0.75], [0.1, 0.2, 0.7]])
        atom = (np.int64(1), np.int32(2))
        assert space.atom_index(atom) == 5
        assert space.prob(atom) == space.prob((1, 2)) == 0.75 * 0.7

    @pytest.mark.parametrize(
        "atom",
        [(0.7, 1.9), (1.0, 0), (np.float64(1.0), 0), ("1", 0), (True, 0), (np.True_, 0), 3, None],
    )
    def test_non_integer_coordinates_rejected(self, atom):
        space = ae.DiscreteProductSpace([[0.5, 0.5], [0.5, 0.5]])
        for query in (space.atom_index, space.prob):
            with pytest.raises(InvalidInputError, match="not a sequence of integers"):
                query(atom)

    @pytest.mark.parametrize("atom", [(-1, 0), (2, 0), (0, 2), (0, 1, 7), (1,), ()])
    def test_out_of_shape_atoms_rejected(self, atom):
        space = ae.DiscreteProductSpace([[0.5, 0.5], [0.5, 0.5]])
        for query in (space.atom_index, space.prob):
            with pytest.raises(InvalidInputError, match="not valid for shape"):
                query(atom)


class TestSharp:
    def test_whole_space_classes(self):
        space = ae.DiscreteProductSpace([[0.5, 0.5]] * 3)
        struct = ae.AlphaEtaStructure(
            space, psi=[1], lam=[1], classes=[1, 1, 1],
            event=np.ones(space.size, bool), event_partition=[1, 1, 1],
        )
        assert struct.sharp(1) == 3

    def test_empty_class_is_zero(self):
        space = ae.DiscreteProductSpace([[0.5, 0.5]])
        struct = ae.AlphaEtaStructure(
            space, psi=[1, 2], lam=[1], classes=[1],
            event=np.ones(space.size, bool), event_partition=[1],
        )
        assert struct.sharp(2) == 0

    def test_matches_definitional_oracle(self):
        for seed in range(25):
            struct, full = build(random_inputs(seed))
            for label in struct.psi:
                assert struct.sharp(label) == sharp_definitional(full, label)


class TestEta:
    def test_single_label(self):
        space = ae.DiscreteProductSpace([[0.3, 0.7], [0.5, 0.5]])
        struct = ae.AlphaEtaStructure(
            space, psi=["only"], lam=[1], classes=["only", "only"],
            event=np.ones(space.size, bool), event_partition=[1, 1],
        )
        assert struct.eta(0, (0, 1)) == "only"

    def test_tie_breaks_to_largest_label(self):
        # both classes have section probability 1/2 along either axis
        space = ae.DiscreteProductSpace([[0.5, 0.5]])
        struct = ae.AlphaEtaStructure(
            space, psi=[1, 2], lam=[1],
            classes=[{(0,): 1, (1,): 2}],
            event=np.ones(space.size, bool), event_partition=[1],
        )
        assert struct.eta(0, (0,)) == 2

    def test_section_probability_lower_bound(self):
        for seed in range(20):
            struct = random_structure(seed + 100)
            for atom in struct.space.atoms():
                for i in range(struct.n):
                    assert struct.eta_section_probability(i, atom) >= 1.0 / len(
                        struct.psi
                    ) - 1e-12

    def test_independent_of_own_coordinate(self):
        for seed in range(10):
            struct = random_structure(seed + 200)
            for atom in struct.space.atoms():
                for i in range(struct.n):
                    expected = struct.eta(i, atom)
                    for replacement in range(struct.space.shape[i]):
                        other = list(atom)
                        other[i] = replacement
                        assert struct.eta(i, tuple(other)) == expected


class TestAlpha:
    def test_whole_space_event(self):
        space = ae.DiscreteProductSpace([[0.5, 0.5], [0.5, 0.5]])
        struct = ae.AlphaEtaStructure(
            space, psi=[1], lam=[1], classes=[1, 1],
            event=np.ones(space.size, bool), event_partition=[1, 1],
        )
        for atom in space.atoms():
            for i in range(2):
                assert struct.alpha(i, atom) == pytest.approx(1.0)

    def test_single_atom_section(self):
        space = ae.DiscreteProductSpace([[0.25, 0.75]])
        struct = ae.AlphaEtaStructure(
            space, psi=[1], lam=[1], classes=[1],
            event={(0,)}, event_partition=[{(0,): 1}],
        )
        assert struct.alpha(0, (0,)) == pytest.approx(4.0)

    def test_rejects_atoms_outside_event(self):
        space = ae.DiscreteProductSpace([[0.25, 0.75]])
        struct = ae.AlphaEtaStructure(
            space, psi=[1], lam=[1], classes=[1],
            event={(0,)}, event_partition=[{(0,): 1}],
        )
        with pytest.raises(InvalidInputError):
            struct.alpha(0, (1,))

    def test_independent_of_own_coordinate_within_cell(self):
        for seed in range(10):
            struct, full = build(random_inputs(seed + 300))
            for atom in struct.event_atoms():
                for i in range(struct.n):
                    expected = struct.alpha(i, atom)
                    cell = full.cell_idx[i, struct.space.atom_index(atom)]
                    for replacement in range(struct.space.shape[i]):
                        other = list(atom)
                        other[i] = replacement
                        other = tuple(other)
                        flat = struct.space.atom_index(other)
                        if full.mask[flat] and full.cell_idx[i, flat] == cell:
                            assert struct.alpha(i, other) == pytest.approx(expected)


class TestVerifyAlphaRho:
    def test_empty_event(self):
        space = ae.DiscreteProductSpace([[0.5, 0.5]])
        struct = ae.AlphaEtaStructure(
            space, psi=[1], lam=[1], classes=[1],
            event=np.zeros(space.size, bool), event_partition=[1],
        )
        report = struct.verify_alpharho()
        assert report.lhs == 0.0 and report.holds
        assert report.min_ratio_sum == math.inf

    def test_saturated_structure_attains_bound(self):
        # whole-space event with one label per list: lhs == rhs == 1
        space = ae.DiscreteProductSpace([[0.5, 0.5], [0.5, 0.5]])
        struct = ae.AlphaEtaStructure(
            space, psi=[1], lam=[1], classes=[1, 1],
            event=np.ones(space.size, bool), event_partition=[1, 1],
        )
        report = struct.verify_alpharho()
        assert report.rhs == 1.0
        assert report.lhs == pytest.approx(1.0, abs=1e-12)
        assert report.holds

    def test_bulk_matches_per_atom_queries(self):
        struct = random_structure(12345)
        sharp = {label: struct.sharp(label) for label in struct.psi}
        expected = 0.0
        for atom in struct.event_atoms():
            total = sum(
                struct.alpha(i, atom) / sharp[struct.eta(i, atom)]
                for i in range(struct.n)
            )
            expected += struct.space.prob(atom) * total
        report = struct.verify_alpharho()
        assert report.lhs == pytest.approx(expected, rel=1e-9)

    def test_random_structures_satisfy_inequality(self):
        for seed in range(60):
            report = random_structure(seed + 400, n_max=4, atoms_max=5).verify_alpharho()
            assert report.holds, f"seed {seed}"

    def test_probability_bound_from_min_ratio(self):
        for seed in range(20):
            struct = random_structure(seed + 500)
            report = struct.verify_alpharho()
            if report.min_ratio_sum not in (0.0, math.inf):
                bound = report.rhs / report.min_ratio_sum
                assert report.event_probability <= bound + 1e-9


def assert_batch_matches_oracle(drawn):
    got = ae._verify_batch(drawn)
    assert len(got) == len(drawn)
    for idx, (inputs, report) in enumerate(zip(drawn, got)):
        try:
            assert_same_report(report, inputs.structure().verify_alpharho())
        except AssertionError as exc:
            raise AssertionError(f"structure {idx}: {exc}") from None


def suite_inputs(seed, instances=500):
    return [suites._alpharho_inputs(seed, idx) for idx in range(instances)]


def check_batch_on_the_suite():
    for seed in (1111, 7, 2901):
        assert_batch_matches_oracle(suite_inputs(seed))


def special_inputs(seed, count=120):
    """Suite-like structures with uniform factors (eta ties), 1-atom factors,
    empty or full events, one coordinate, and psi or lam labels that no atom
    draws (sharp 0), mixed in one batch."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        kind = int(rng.integers(6))
        n = 1 if kind == 3 else int(rng.integers(1, 5))
        factors = []
        for _ in range(n):
            m = 1 if kind == 1 and rng.random() < 0.6 else int(rng.integers(1, 6))
            raw = np.ones(m) if kind in (0, 5) else rng.random(m) + 0.05
            factors.append(raw / raw.sum())
        size = math.prod(p.size for p in factors)
        psi, lam = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        # kind 4 draws only label 1 of psi and lam
        top_psi, top_lam = (1, 1) if kind == 4 else (psi, lam)
        classes = [rng.integers(1, top_psi + 1, size=size) for _ in range(n)]
        if kind == 2:
            event = np.zeros(size, dtype=bool) if rng.random() < 0.5 else np.ones(size, dtype=bool)
        else:
            event = rng.random(size) < rng.uniform(0.2, 0.8)
        cells = [rng.integers(1, top_lam + 1, size=size) for _ in range(n)]
        out.append(ae._Inputs(factors, psi, lam, classes, event, cells))
    return out


def check_batch_on_special_structures():
    for seed in range(3):
        assert_batch_matches_oracle(special_inputs(seed))


class TestBatch:
    """``alphaeta._verify_batch`` against ``verify_alpharho``, structure by
    structure."""

    def test_suite_structures(self):
        check_batch_on_the_suite()

    def test_special_structures(self):
        check_batch_on_special_structures()

    def test_special_structures_reach_their_cases(self):
        drawn = [inputs for seed in range(3) for inputs in special_inputs(seed)]
        structures = [inputs.structure() for inputs in drawn]
        # eta ties: lines where two labels share the largest section probability
        ties = 0
        for struct in structures:
            for i in range(struct.n):
                table = struct._section_table(i, struct._classes[i], range(len(struct.psi)))
                ties += int(np.count_nonzero((table == table.max(axis=0)).sum(axis=0) > 1))
        assert ties > 100
        assert any(1 in struct.space.shape for struct in structures)
        assert any(not inputs.event.any() for inputs in drawn)
        assert any(inputs.event.all() for inputs in drawn)
        assert any(struct.n == 1 for struct in structures)
        assert any(0 in (struct.sharp(label) for label in struct.psi) for struct in structures)

    def test_one_structure_and_none(self):
        inputs = special_inputs(4, 1)
        assert_same_report(ae._verify_batch(inputs)[0], inputs[0].structure().verify_alpharho())
        assert ae._verify_batch([]) == []

    def test_equality_instances_hold_by_the_slack(self):
        # whole-space event, one label per list: lhs is 1 up to rounding and
        # the suite draws such structures
        reports = ae._verify_batch(suite_inputs(7))
        assert any(r.lhs > r.rhs and r.holds for r in reports)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("factor", np.array([0.5, np.nan])),
            ("factor", np.array([1.5, -0.5])),
            ("factor", np.array([0.5, 0.25])),
            ("factor", np.array([], dtype=float)),
            ("class", 0),
            ("class", 4),
            ("cell", 0),
            ("cell", 4),
        ],
    )
    def test_bad_inputs_raise_the_constructors_message(self, field, value):
        drawn = suite_inputs(1111, 40)
        k = 25
        bad = drawn[k]
        if field == "factor":
            factors = list(bad.factors)
            factors[-1] = value
            size = math.prod(p.size for p in factors)
            bad = bad._replace(
                factors=factors, event=np.zeros(size, dtype=bool),
                classes=[np.ones(size, dtype=int)] * len(factors),
                cells=[np.ones(size, dtype=int)] * len(factors),
            )
        else:
            name = "classes" if field == "class" else "cells"
            arrays = [a.copy() for a in getattr(bad, name)]
            # off the event where there is such an atom: every cell label is read
            off = np.flatnonzero(~bad.event)
            arrays[-1][off[0] if off.size else 0] = value
            bad = bad._replace(**{name: arrays})
        drawn[k] = bad
        with pytest.raises(InvalidInputError) as want:
            bad.structure()
        with pytest.raises(InvalidInputError) as got:
            ae._verify_batch(drawn)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("factor_first", [True, False])
    def test_first_bad_structure_in_instance_order_is_reported(self, factor_first):
        # a bad factor sum and bad class labels, in two groups
        drawn = suite_inputs(1111, 40)
        one = next(k for k, d in enumerate(drawn) if len(d.factors) == 1)
        other = next(k for k, d in enumerate(drawn) if k > one and len(d.factors) > 1)
        summed, labelled = (one, other) if factor_first else (other, one)
        drawn[summed] = drawn[summed]._replace(factors=[p * 2.0 for p in drawn[summed].factors])
        drawn[labelled] = drawn[labelled]._replace(classes=[c + 5 for c in drawn[labelled].classes])
        match = "probabilities sum to" if factor_first else "is not in the index list"
        with pytest.raises(InvalidInputError, match=match):
            ae._verify_batch(drawn)

    @pytest.mark.parametrize("offset, accepted", [(4e-13, True), (7e-13, True), (2e-12, False)])
    def test_sum_tolerance_is_the_constructors(self, offset, accepted):
        # the screen flags sums off by more than half the tolerance, and the
        # constructor decides
        drawn = suite_inputs(1111, 10)
        p = drawn[3].factors[0]
        p = p.copy()
        p[0] += offset
        drawn[3] = drawn[3]._replace(factors=[p, *drawn[3].factors[1:]])
        if accepted:
            assert_batch_matches_oracle(drawn)
        else:
            with pytest.raises(InvalidInputError, match="factor 0 probabilities sum to"):
                ae._verify_batch(drawn)

    def test_injected_failure_is_reported_with_the_suite_message(self, monkeypatch):
        batch = ae._verify_batch

        def failing_instance_7(structures):
            reports = batch(structures)
            reports[7] = ae.AlphaRhoReport(2.5 * reports[7].rhs, reports[7].rhs, False, 1.0, 0.5)
            return reports

        monkeypatch.setattr(ae, "_verify_batch", failing_instance_7)
        result = suites.run_alpharho_suite(20, 1111)
        seventh = suites._alpharho_inputs(1111, 7)
        rhs, n = float(seventh.psi**2 * seventh.lam), len(seventh.factors)
        assert (result.failures, result.failed_instances) == (1, [7])
        assert result.messages == [f"instance 7: lhs {2.5 * rhs:g} exceeds rhs {rhs:g} (n={n})"]


class TestCubeExample:
    def test_exact_event_probability(self):
        cube = ae.cube_example_structure(4, 10.0, 40)
        report = cube.verify_alpharho()
        assert report.event_probability == pytest.approx(0.1420609375, abs=1e-12)
        assert ae.cube_event_probability(4, 10.0) == pytest.approx(0.1420609375, abs=1e-12)

    def test_sharp_values(self):
        cube = ae.cube_example_structure(4, 10.0, 40)
        assert cube.sharp(1) == 2  # n - sqrt(n)
        assert cube.sharp(2) == 2  # sqrt(n)

    def test_inequality_and_probability_bound(self):
        cube = ae.cube_example_structure(4, 10.0, 40)
        report = cube.verify_alpharho()
        assert report.holds
        # every coordinate section of the event is non-empty, which pins
        # the exact sum: each alpha integrates to 1 over the event
        assert report.lhs == pytest.approx(2.0, abs=1e-9)
        assert report.event_probability <= report.rhs / 10.0  # 4 / K

    def test_discretization_validation(self):
        with pytest.raises(InvalidInputError):
            ae.cube_example_structure(4, 10.0, 30)
        with pytest.raises(InvalidInputError):
            ae.cube_example_structure(5, 10.0, 50)
        with pytest.raises(InvalidInputError):
            ae.cube_example_structure(4, 0.5, 40)

    def test_rejects_non_finite_k(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(InvalidInputError):
                ae.cube_example_structure(4, bad, 40)

    @pytest.mark.parametrize("args", [(4, 10.0, 40.0), (4.0, 10.0, 40), (4, "10", 40)])
    def test_parameter_types_checked_before_a_factor_is_built(self, monkeypatch, args):
        def sentinel(*a, **kw):
            raise AssertionError("a cube factor was built")

        monkeypatch.setattr(ae.np, "full", sentinel)
        with pytest.raises(InvalidInputError, match="must be integers and K a number"):
            ae.cube_example_structure(*args)

    def test_default_cap_admits_the_demo_only(self):
        # 40**4 atoms is the criterion-11 demo, 80**4 the next K=10 size
        assert 40**4 <= ae.CUBE_ENUMERATION_BUDGET < 80**4

    def test_cap_rejects_before_building(self, monkeypatch, capsys):
        monkeypatch.setattr(ae, "CUBE_ENUMERATION_BUDGET", 8**4 - 1)
        with pytest.raises(InvalidInputError, match="budget"):
            ae.cube_example_structure(4, 2.0, 8)
        argv = ["alphaeta-demo", "--cube", "--n", "4", "--k", "2", "--atoms", "8"]
        assert cli.parse_and_dispatch(argv) == 2
        assert "budget" in capsys.readouterr().err
        monkeypatch.setattr(ae, "CUBE_ENUMERATION_BUDGET", 8**4)
        assert ae.cube_example_structure(4, 2.0, 8).space.size == 8**4

    def test_cap_rejects_before_a_factor_is_built(self, monkeypatch, capsys):
        def sentinel(*args, **kwargs):
            raise AssertionError("a cube factor was built")

        monkeypatch.setattr(ae.np, "full", sentinel)
        with pytest.raises(InvalidInputError, match="budget"):
            ae.cube_example_structure(4, 10.0, 10**9)
        argv = ["alphaeta-demo", "--cube", "--atoms", str(10**9)]
        assert cli.parse_and_dispatch(argv) == 2
        assert "budget" in capsys.readouterr().err

    def test_small_cube_eta(self):
        cube = ae.cube_example_structure(4, 2.0, 8)
        atom = (5, 5, 5, 0)  # in the event through the last coordinate
        assert cube.contains(atom)
        assert cube.eta(0, atom) == 1
        assert cube.eta(3, atom) == 2


class TestStructureValidation:
    def test_mapping_must_cover_all_atoms(self):
        space = ae.DiscreteProductSpace([[0.5, 0.5]])
        with pytest.raises(InvalidInputError):
            ae.AlphaEtaStructure(
                space, psi=[1], lam=[1], classes=[{(0,): 1}],
                event=np.ones(space.size, bool), event_partition=[1],
            )

    def test_event_partition_must_cover_event(self):
        space = ae.DiscreteProductSpace([[0.5, 0.5]])
        with pytest.raises(InvalidInputError):
            ae.AlphaEtaStructure(
                space, psi=[1], lam=[1], classes=[1],
                event=np.ones(space.size, bool), event_partition=[{(0,): 1}],
            )

    def test_unknown_label_rejected(self):
        space = ae.DiscreteProductSpace([[0.5, 0.5]])
        with pytest.raises(InvalidInputError):
            ae.AlphaEtaStructure(
                space, psi=[1], lam=[1], classes=[2],
                event=np.ones(space.size, bool), event_partition=[1],
            )

    def test_assignment_array_shape_checked(self):
        space = ae.DiscreteProductSpace([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(InvalidInputError):
            ae.AlphaEtaStructure(
                space, psi=[1], lam=[1], classes=[np.array([1, 1, 1]), 1],
                event=np.ones(space.size, bool), event_partition=[1, 1],
            )

    def test_non_boolean_event_array_rejected(self):
        space = ae.DiscreteProductSpace([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(InvalidInputError):
            ae.AlphaEtaStructure(
                space, psi=[1], lam=[1], classes=[1, 1],
                event=np.array([1, 0, 0, 1]), event_partition=[1, 1],
            )

    @pytest.mark.parametrize("where", ["classes", "event", "event_partition"])
    def test_callable_forms_rejected(self, where):
        space = ae.DiscreteProductSpace([[0.5, 0.5], [0.5, 0.5]])
        args = dict(classes=[1, 1], event=np.ones(space.size, bool), event_partition=[1, 1])
        if where == "event":
            args["event"] = lambda atom: True
        else:
            args[where] = [1, lambda atom: 1]
        with pytest.raises(InvalidInputError):
            ae.AlphaEtaStructure(space, psi=[1], lam=[1], **args)

    def test_event_as_array_of_atoms(self):
        space = ae.DiscreteProductSpace([[0.5, 0.5], [0.5, 0.5]])
        struct = ae.AlphaEtaStructure(
            space, psi=[1], lam=[1], classes=[1, 1],
            event=np.array([[0, 1], [1, 0]]), event_partition=[1, 1],
        )
        assert list(struct.event_atoms()) == [(0, 1), (1, 0)]

    @pytest.mark.parametrize("query", ["eta", "eta_section_probability", "alpha", "class_label"])
    @pytest.mark.parametrize("i", [2, -1, True, 0.0])
    def test_coordinate_checked(self, query, i):
        space = ae.DiscreteProductSpace([[0.5, 0.5], [0.5, 0.5]])
        struct = ae.AlphaEtaStructure(
            space, psi=[1], lam=[1], classes=[1, 1],
            event=np.ones(space.size, bool), event_partition=[1, 1],
        )
        with pytest.raises(InvalidInputError, match="coordinate"):
            getattr(struct, query)(i, (0, 1))

    def test_unhashable_labels_rejected(self):
        space = ae.DiscreteProductSpace([[0.5, 0.5]])
        with pytest.raises(InvalidInputError, match="hashable"):
            ae.AlphaEtaStructure(
                space, psi=[[1], [2]], lam=[1], classes=[{(0,): [1], (1,): [2]}],
                event=np.ones(space.size, bool), event_partition=[1],
            )

    def test_missing_class_assignments_rejected(self):
        space = ae.DiscreteProductSpace([[0.5, 0.5]])
        with pytest.raises(InvalidInputError, match="class assignment"):
            ae.AlphaEtaStructure(
                space, psi=[1], lam=[1], classes=None,
                event=np.ones(space.size, bool), event_partition=[1],
            )

    def test_object_labels_holding_none_rejected(self):
        space = ae.DiscreteProductSpace([[0.5, 0.5]])
        with pytest.raises(InvalidInputError, match="cannot be ordered"):
            ae.AlphaEtaStructure(
                space, psi=[1, 2], lam=[1], classes=[np.array([1, None], dtype=object)],
                event=np.ones(space.size, bool), event_partition=[1],
            )

    def test_every_atom_in_exactly_one_class(self):
        # partition totality: assignments are functions, so each atom gets
        # exactly one label per coordinate, the one its input gave it, and
        # each event atom lies in a cell of positive section probability
        struct, full = build(random_inputs(999))
        for flat, atom in enumerate(struct.space.atoms()):
            for i in range(struct.n):
                assert struct.class_label(i, atom) == full.psi[full.class_idx[i, flat]]
                if full.mask[flat]:
                    assert 1.0 <= struct.alpha(i, atom) < math.inf


class TestLabelPositions:
    @pytest.mark.parametrize(
        "psi, lam, dtype",
        [
            ([9, 4, -3, 0], [7, 2], np.int64),
            ([0, 200, 17], [255, 1], np.uint8),
            ([-100, 100], [-1, 1], np.int8),
        ],
        ids=["gapped negative", "uint8", "int8"],
    )
    def test_integer_labels_match_full_space(self, psi, lam, dtype):
        rng = np.random.default_rng(len(psi))
        space = ae.DiscreteProductSpace([[0.5, 0.5], [0.25, 0.25, 0.5]])
        event = np.array([1, 0, 1, 1, 0, 1], dtype=bool)
        classes = [np.array(rng.choice(psi, 6), dtype=dtype) for _ in range(2)]
        cells = [np.array(rng.choice(lam, 6), dtype=dtype), np.full(6, lam[-1], dtype=dtype)]
        struct, full = build((space, psi, lam, classes, event, cells))
        assert_same_report(struct.verify_alpharho(), full_space_report(full))
        assert_queries_match_loops(struct, full, space.atoms())

    @pytest.mark.parametrize(
        "labels, message",
        [
            (np.array([1, 5, 1, 2, 9, 1]), "label np.int64(5) is not in the index list"),
            (np.array([1, 2, 1, 2, 9, 250], dtype=np.uint8), "label np.uint8(9) is not in the index list"),
            (np.array([-7, 1, 1, 2, -7, 1]), "label np.int64(-7) is not in the index list"),
        ],
        ids=["int64", "uint8", "negative"],
    )
    def test_missing_label_message(self, labels, message):
        # the labels are read in ascending order: the smallest missing one is named
        space = ae.DiscreteProductSpace([[0.5, 0.5], [0.25, 0.25, 0.5]])
        event = np.array([1, 0, 1, 1, 0, 1], dtype=bool)
        with pytest.raises(InvalidInputError) as error:
            ae.AlphaEtaStructure(space, [1, 2], [1], [labels, 1], event, [1, 1])
        assert str(error.value) == message


class TestSerialization:
    def test_json_round_trip(self):
        struct = random_structure(777)
        clone = ae.AlphaEtaStructure.from_json(struct.to_json())
        assert clone.psi == struct.psi and clone.lam == struct.lam
        assert clone.verify_alpharho().lhs == pytest.approx(
            struct.verify_alpharho().lhs, rel=1e-12
        )
        for label in struct.psi:
            assert clone.sharp(label) == struct.sharp(label)

    def test_json_round_trip_of_constant_assignments(self):
        # the document lists every atom's labels, so the clone's assignments
        # are mappings, kept per atom, and give the constants' numbers
        cube = ae.cube_example_structure(4, 2.0, 8)
        text = cube.to_json()
        clone = ae.AlphaEtaStructure.from_json(text)
        assert all(isinstance(c, np.ndarray) for c in clone._classes + clone._cells)
        assert clone.to_json() == text
        assert_same_report(clone.verify_alpharho(), cube.verify_alpharho())
        assert [clone.sharp(label) for label in cube.psi] == [2, 2]
        assert clone.event_probability() == cube.event_probability()

    @pytest.mark.parametrize(
        "key", ["factors", "psi", "lambda", "classes", "event", "event_partition"]
    )
    def test_missing_key_rejected(self, key):
        doc = json.loads(random_structure(777).to_json())
        del doc[key]
        with pytest.raises(InvalidInputError, match=key):
            ae.AlphaEtaStructure.from_json(json.dumps(doc))

    def test_malformed_document_rejected(self):
        for text in ("{", "[]", '{"factors": 3}'):
            with pytest.raises(InvalidInputError):
                ae.AlphaEtaStructure.from_json(text)
