import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sminlab.alphaeta as ae
from sminlab import cli
from sminlab.errors import InvalidInputError


def random_structure(seed, n_max=3, atoms_max=3):
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
    return ae.AlphaEtaStructure(space, psi, lam, classes, event, cells)


def sharp_definitional(struct, psi_label):
    """Minimal s such that every index set larger than s has empty
    class intersection; brute force over all subsets."""
    n = struct.n
    atoms = list(struct.space.atoms())
    members = [
        {atom for atom in atoms if struct.class_label(i, atom) == psi_label}
        for i in range(n)
    ]
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


# -- the full-space evaluation and the per-atom loops, kept as oracles -----


def full_space_report(struct):
    """``verify_alpharho`` evaluated on the full space: every section
    probability is broadcast back to all atoms before it is read."""
    space = struct.space

    def section_broadcast(i, member):
        arr = member.reshape(space.shape)
        sec = np.tensordot(arr, space.factors[i], axes=([i], [0]))
        sec = np.expand_dims(sec, i)
        return np.ravel(np.broadcast_to(sec, space.shape))

    def eta_indices(i):
        stacked = np.empty((len(struct.psi), space.size))
        for pidx in range(len(struct.psi)):
            stacked[pidx] = section_broadcast(i, (struct._class_idx[i] == pidx).astype(float))
        return len(struct.psi) - 1 - np.argmax(stacked[::-1], axis=0)

    def alpha_values(i):
        sections = np.empty((len(struct.lam), space.size))
        for lidx in range(len(struct.lam)):
            member = (struct._event_mask & (struct._cell_idx[i] == lidx)).astype(float)
            sections[lidx] = section_broadcast(i, member)
        cell = np.where(struct._event_mask, struct._cell_idx[i], 0)
        chosen = sections[cell, np.arange(space.size)]
        with np.errstate(divide="ignore"):
            return 1.0 / chosen

    sharp_vec = np.array([struct.sharp(label) for label in struct.psi], dtype=float)
    rhs = float(len(struct.psi) ** 2 * len(struct.lam))
    mask = struct._event_mask
    if not mask.any():
        return ae.AlphaRhoReport(0.0, rhs, True, math.inf, 0.0)
    ratio_sum = np.zeros(int(mask.sum()))
    for i in range(struct.n):
        sharp_eta = sharp_vec[eta_indices(i)[mask]]
        assert not np.any(sharp_eta == 0)
        ratio_sum += alpha_values(i)[mask] / sharp_eta
    lhs = float(np.sum(struct._probs[mask] * ratio_sum))
    return ae.AlphaRhoReport(
        lhs, rhs, bool(lhs <= rhs + 1e-9), float(ratio_sum.min()), float(struct._probs[mask].sum())
    )


def _line_base(struct, i, atom):
    flat = struct.space.atom_index(atom)
    stride = int(struct.space._strides[i])
    return flat, stride, flat - int(atom[i]) * stride


def eta_loop(struct, i, atom):
    _, stride, base = _line_base(struct, i, atom)
    probs_i = struct.space.factors[i]
    section = np.zeros(len(struct.psi))
    for a in range(struct.space.shape[i]):
        section[struct._class_idx[i, base + a * stride]] += probs_i[a]
    best = 0
    for pos in range(1, len(struct.psi)):
        if section[pos] >= section[best]:
            best = pos
    return struct.psi[best]


def eta_section_probability_loop(struct, i, atom):
    pidx = list(struct.psi).index(eta_loop(struct, i, atom))
    _, stride, base = _line_base(struct, i, atom)
    total = 0.0
    for a in range(struct.space.shape[i]):
        if struct._class_idx[i, base + a * stride] == pidx:
            total += struct.space.factors[i][a]
    return total


def alpha_loop(struct, i, atom):
    flat, stride, base = _line_base(struct, i, atom)
    cell = struct._cell_idx[i, flat]
    total = 0.0
    for a in range(struct.space.shape[i]):
        pos = base + a * stride
        if struct._event_mask[pos] and struct._cell_idx[i, pos] == cell:
            total += struct.space.factors[i][a]
    return 1.0 / total


@st.composite
def structures(draw, n_max=3, atoms_max=4):
    """Structures with one-atom factors, n = 1, one-label lists, unused
    (empty) cells, empty and full events, and uniform factors whose
    section probabilities tie exactly."""
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
        return np.array(draw(st.lists(st.integers(1, count), min_size=size, max_size=size)))

    psi = list(range(1, draw(st.integers(1, 3)) + 1))
    lam = list(range(1, draw(st.integers(1, 3)) + 1))
    classes = [labels(len(psi)) for _ in range(n)]
    event = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)), dtype=bool)
    cells = [labels(len(lam)) for _ in range(n)]
    return ae.AlphaEtaStructure(space, psi, lam, classes, event, cells)


def assert_same_report(got, want):
    assert got.lhs == want.lhs
    assert got.min_ratio_sum == want.min_ratio_sum
    assert got.event_probability == want.event_probability
    assert got.rhs == want.rhs and got.holds == want.holds


class TestSectionShapeOracle:
    """The section-shape evaluation gives the full-space numbers bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(structures())
    def test_verify_matches_full_space(self, struct):
        assert_same_report(struct.verify_alpharho(), full_space_report(struct))

    def test_verify_matches_full_space_on_suite_structures(self):
        for seed in range(200):
            struct = random_structure(seed + 2000, n_max=4, atoms_max=5)
            assert_same_report(struct.verify_alpharho(), full_space_report(struct))

    @pytest.mark.parametrize("args", [(4, 2.0, 8), (4, 10.0, 40)])
    def test_verify_matches_full_space_on_the_cube(self, args):
        cube = ae.cube_example_structure(*args)
        assert_same_report(cube.verify_alpharho(), full_space_report(cube))

    @settings(max_examples=100, deadline=None)
    @given(structures())
    def test_per_atom_queries_match_loops(self, struct):
        for atom in struct.space.atoms():
            for i in range(struct.n):
                assert struct.eta(i, atom) == eta_loop(struct, i, atom)
                assert struct.eta_section_probability(i, atom) == eta_section_probability_loop(
                    struct, i, atom
                )
                if struct.contains(atom):
                    assert struct.alpha(i, atom) == alpha_loop(struct, i, atom)

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

    def test_budget(self):
        with pytest.raises(InvalidInputError):
            ae.DiscreteProductSpace([[0.5, 0.5]] * 4, budget=15)
        ae.DiscreteProductSpace([[0.5, 0.5]] * 4, budget=16)

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
            struct = random_structure(seed)
            for label in struct.psi:
                assert struct.sharp(label) == sharp_definitional(struct, label)


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
            struct = random_structure(seed + 300)
            for atom in struct.event_atoms():
                for i in range(struct.n):
                    expected = struct.alpha(i, atom)
                    cell = struct._cell_idx[i, struct.space.atom_index(atom)]
                    for replacement in range(struct.space.shape[i]):
                        other = list(atom)
                        other[i] = replacement
                        other = tuple(other)
                        flat = struct.space.atom_index(other)
                        if struct._event_mask[flat] and struct._cell_idx[i, flat] == cell:
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

    def test_every_atom_in_exactly_one_class(self):
        # partition totality: assignments are functions, so each atom gets
        # exactly one label per coordinate; spot-check through the index arrays
        struct = random_structure(999)
        for i in range(struct.n):
            assert np.all(struct._class_idx[i] >= 0)
            assert np.all(struct._class_idx[i] < len(struct.psi))
            on_event = struct._cell_idx[i][struct._event_mask]
            assert np.all(on_event >= 0) and np.all(on_event < len(struct.lam))


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
