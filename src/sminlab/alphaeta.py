"""Partition structures on finite discrete product probability spaces.

A structure consists of, for each coordinate ``i``: a partition of the
whole product space into classes indexed by an ordered list ``psi``,
and a partition of a distinguished event into cells indexed by a list
``lam``.  Three quantities drive everything:

* ``sharp(psi)`` -- the largest number of coordinates whose classes
  labelled ``psi`` can simultaneously contain a single point;
* ``eta(i, atom)`` -- the class label whose section along coordinate
  ``i`` through ``atom`` has maximal probability (ties go to the label
  latest in the ``psi`` order);
* ``alpha(i, atom)`` -- the reciprocal probability of the section of
  the event cell containing ``atom``.

The headline inequality, checked exhaustively by
:meth:`AlphaEtaStructure.verify_alpharho`, is

    sum over event atoms of P(atom) * sum_i alpha(i, atom) / sharp(eta(i, atom))
        <= len(psi)**2 * len(lam).

Everything is exact finite summation; no sampling, no tolerances beyond
float round-off.  Spaces are enumerated up to a configurable atom-count
budget (the cube example has a fixed cap, :data:`CUBE_ENUMERATION_BUDGET`)
and larger requests are rejected rather than subsampled.  Section
quantities of coordinate ``i`` are computed on the section shape, with
``size / shape[i]`` entries, and read only at the atoms that need them.
Each label's table adds the factor probabilities of coordinate ``i`` into
an ``(atoms before i, atoms after i)`` accumulator in coordinate order,
where the label matches, so every line is summed in the order the
per-atom queries sum it, and no BLAS is called.

A structure keeps each assignment in the form it was given.  A constant
class label is one integer for its coordinate, and so is a constant cell
label, which means "this label on the event, none off it".  Any other
assignment (an array or a mapping) is kept as one label position per atom,
in the smallest integer dtype that holds the positions, with ``-1`` for
cells off the event.  Atom probabilities are not stored: they are gathered
from the factors at the atoms that need them.  So the only per-atom array
of a structure with constant assignments, such as the cube example, is its
one-byte event mask, and :meth:`AlphaEtaStructure.verify_alpharho` needs no
section table for a constant class (its label wins every section, since
factor probabilities are positive) and the event mask's table for a
constant cell.

Many small structures with integer labels, such as the alpharho suite
draws, are verified together by :func:`_verify_batch`, with no structure
built: the structures with the same number of coordinates are laid end to
end, and every section table of one coordinate is one ``np.bincount`` over
``(line, label)`` keys, the lines of each structure numbered after those
of the structures before it.  Its reports are those of
:meth:`AlphaEtaStructure.verify_alpharho`, bit for bit.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Mapping, Sequence, Sized
from dataclasses import dataclass
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, decoding, integer, number

DEFAULT_ENUMERATION_BUDGET = 10**6

# Atom cap of cube_example_structure: admits the 40**4 = 2.56 M-atom demo
# of criterion 11 and rejects the next K=10 size, 80**4 = 41 M atoms.
CUBE_ENUMERATION_BUDGET = 4 * 10**6

_PROB_ATOL = 1e-12


class DiscreteProductSpace:
    """Finite product probability space with per-factor atom probabilities.

    Atoms of factor ``i`` are identified with ``0 .. len(factors[i])-1``;
    an atom of the product is a tuple of per-factor indices.  The flat
    enumeration order is C order (last factor varies fastest).
    """

    def __init__(self, factors, budget: int = DEFAULT_ENUMERATION_BUDGET):
        try:
            budget = integer(budget)
            factors = [p if isinstance(p, Sized) else list(p) for p in factors]
            # from the lengths, before any entry is read; Python integers: an
            # int64 product wraps past 2**63
            size = math.prod(len(p) for p in factors)
            if size > budget:
                raise InvalidInputError(
                    f"product has {size} atoms, exceeding the enumeration budget {budget}"
                )
            self.factors = [np.array([number(v) for v in p], dtype=float) for p in factors]
        except TypeError as exc:
            raise InvalidInputError(
                f"factors must be sequences of probabilities and the budget an integer: {exc}"
            ) from None
        if not self.factors:
            raise InvalidInputError("need at least one factor")
        for idx, p in enumerate(self.factors):
            if p.size == 0:
                raise InvalidInputError(f"factor {idx} must be a non-empty probability vector")
            if not np.all(np.isfinite(p)):
                raise InvalidInputError(f"factor {idx} has non-finite probabilities")
            if np.any(p <= 0):
                raise InvalidInputError(f"factor {idx} has non-positive probabilities")
            if abs(float(p.sum()) - 1.0) > _PROB_ATOL:
                raise InvalidInputError(f"factor {idx} probabilities sum to {p.sum()!r}, not 1")
        self.shape = tuple(p.size for p in self.factors)
        self.size = size
        self.budget = budget
        self._strides = tuple(math.prod(self.shape[i + 1 :]) for i in range(self.n))

    @property
    def n(self) -> int:
        return len(self.factors)

    def atom_index(self, atom) -> int:
        """Flat index of ``atom``, a sequence of one integer per factor;
        floats, strings and booleans are rejected, not converted."""
        try:
            a = tuple(integer(v) for v in atom)
        except TypeError:
            raise InvalidInputError(f"atom {atom!r} is not a sequence of integers") from None
        if len(a) != self.n or any(not (0 <= v < m) for v, m in zip(a, self.shape)):
            raise InvalidInputError(f"atom {atom!r} is not valid for shape {self.shape}")
        return sum(v * stride for v, stride in zip(a, self._strides))

    def atoms(self):
        """Iterate all atoms in flat enumeration order."""
        return itertools.product(*(range(m) for m in self.shape))

    def atom_probabilities(self) -> np.ndarray:
        """Probability of every atom, flat, in enumeration order."""
        out = np.array(1.0)
        for p in self.factors:
            out = np.multiply.outer(out, p)
        return out.reshape(-1)

    def prob(self, atom) -> float:
        """P(atom), with the bits of its entry in :meth:`atom_probabilities`."""
        return float(self._probabilities(np.array([self.atom_index(atom)]))[0])

    def _probabilities(self, flat: np.ndarray) -> np.ndarray:
        """P(atom) at the flat indices ``flat``, multiplied from the factors
        left to right as :meth:`atom_probabilities` does: the same bits."""
        out = np.ones(flat.size)
        for p, stride, m in zip(self.factors, self._strides, self.shape):
            out *= p[flat // stride % m]
        return out


@dataclass
class AlphaRhoReport:
    """Result of the exhaustive structure inequality check.

    ``min_ratio_sum`` is the smallest per-event-atom value of
    ``sum_i alpha / sharp(eta)`` (``inf`` when the event is empty); the
    event probability is then at most ``rhs / min_ratio_sum``.
    """

    lhs: float
    rhs: float
    holds: bool
    min_ratio_sum: float
    event_probability: float


class AlphaEtaStructure:
    """A class partition per coordinate plus an event partition per coordinate.

    ``classes[i]`` and ``event_partition[i]`` may each be given as a
    scalar label (constant assignment), a mapping from atom tuples to
    labels, or an array of labels aligned with the flat enumeration
    order.  ``event`` may be a set/iterable of atom tuples or a boolean
    array; any other form, a callable among them, is an
    :class:`InvalidInputError`.  Labels must be members of ``psi``
    (respectively ``lam``); the position in those lists is the total
    order used for tie-breaking.
    """

    def __init__(self, space: DiscreteProductSpace, psi, lam, classes, event, event_partition):
        self.space = space
        try:
            self.psi = tuple(psi)
            self.lam = tuple(lam)
            self._psi_pos = {label: pos for pos, label in enumerate(self.psi)}
            self._lam_pos = {label: pos for pos, label in enumerate(self.lam)}
        except TypeError:
            raise InvalidInputError("psi and lam must be sequences of hashable labels") from None
        if not self.psi or not self.lam:
            raise InvalidInputError("psi and lam must be non-empty")
        if len(self._psi_pos) != len(self.psi) or len(self._lam_pos) != len(self.lam):
            raise InvalidInputError("psi and lam labels must be distinct")
        classes = self._per_coordinate(classes, "class assignment")
        event_partition = self._per_coordinate(event_partition, "event partition")
        self._event_mask = self._normalize_event(event)
        # per coordinate: an int for a constant label, else one label position per atom
        self._classes = [self._assignment(spec, self._psi_pos) for spec in classes]
        self._cells = [
            self._assignment(spec, self._lam_pos, self._event_mask) for spec in event_partition
        ]

    # -- normalization -------------------------------------------------

    def _per_coordinate(self, specs, what: str) -> list:
        try:
            specs = list(specs)
        except TypeError:
            raise InvalidInputError(f"need one {what} per coordinate, not {specs!r}") from None
        if len(specs) != self.n:
            raise InvalidInputError(f"need one {what} per coordinate ({self.n})")
        return specs

    def _normalize_event(self, event) -> np.ndarray:
        N = self.space.size
        if isinstance(event, np.ndarray) and event.dtype == bool:
            if event.shape not in ((N,), self.space.shape):
                raise InvalidInputError("boolean event array has the wrong shape")
            return event.reshape(-1).copy()
        if isinstance(event, np.ndarray) and event.ndim != 2:
            raise InvalidInputError(
                "an event array must be boolean, one entry per atom, or a 2-D array of atoms"
            )
        try:
            atoms = iter(event)
        except TypeError:
            raise InvalidInputError(
                f"an event must be a boolean array or a collection of atoms, not {type(event).__name__}"
            ) from None
        mask = np.zeros(N, dtype=bool)
        for atom in atoms:
            mask[self.space.atom_index(atom)] = True
        return mask

    def _assignment(self, spec, lookup, mask=None) -> int | np.ndarray:
        """The label position of a constant ``spec``, else the position of
        every atom's label (``-1`` off ``mask``) in the smallest integer
        dtype that holds them."""
        if np.isscalar(spec) or isinstance(spec, (str, tuple)):
            return self._label_index(spec, lookup)
        N, shape = self.space.size, self.space.shape
        if mask is None:
            out = np.empty(N, np.min_scalar_type(len(lookup) - 1))
            where = slice(None)
        else:
            out = np.full(N, -1, np.min_scalar_type(-len(lookup)))
            where = mask
        if isinstance(spec, Mapping):
            for flat in np.arange(N)[where]:
                atom = tuple(np.unravel_index(int(flat), shape))
                if atom not in spec:
                    raise InvalidInputError(f"assignment is missing atom {atom}")
                out[flat] = self._label_index(spec[atom], lookup)
            return out
        try:
            arr = np.asarray(spec)
        except ValueError:
            raise InvalidInputError("assignment array has the wrong shape") from None
        if arr.shape not in ((N,), shape):
            raise InvalidInputError("assignment array has the wrong shape")
        try:
            labels, codes = np.unique(arr.reshape(-1), return_inverse=True)
        except TypeError:
            raise InvalidInputError(
                "the labels of an assignment array cannot be ordered; give them as a mapping"
            ) from None
        table = np.array([self._label_index(v, lookup) for v in labels], out.dtype)
        out[where] = table[codes[where]]
        return out

    @staticmethod
    def _label_index(label, lookup) -> int:
        try:
            return lookup[label]
        except (KeyError, TypeError):
            raise InvalidInputError(f"label {label!r} is not in the index list") from None

    def _class_at(self, i: int, flat):
        """Class label positions of coordinate ``i`` at the flat indices ``flat``."""
        c = self._classes[i]
        return c[flat] if isinstance(c, np.ndarray) else np.full(np.shape(flat), c)

    def _cell_at(self, i: int, flat):
        """Cell label positions of coordinate ``i`` at ``flat``, -1 off the event."""
        c = self._cells[i]
        return c[flat] if isinstance(c, np.ndarray) else np.where(self._event_mask[flat], c, -1)

    # -- basic queries ---------------------------------------------------

    @property
    def n(self) -> int:
        return self.space.n

    def event_probability(self) -> float:
        return float(self.space._probabilities(np.flatnonzero(self._event_mask)).sum())

    def event_atoms(self):
        """Iterate the event's atoms in enumeration order."""
        for flat in np.nonzero(self._event_mask)[0]:
            yield tuple(int(v) for v in np.unravel_index(int(flat), self.space.shape))

    def contains(self, atom) -> bool:
        return bool(self._event_mask[self.space.atom_index(atom)])

    def sharp(self, psi_label) -> int:
        """Largest number of coordinates whose ``psi_label`` classes share an atom.

        Equals 0 when the class is empty for every coordinate, and ``n``
        when some atom lies in all of them.  Constant coordinates add the
        same count at every atom, so only the per-atom ones are counted.
        """
        pidx = self._label_index(psi_label, self._psi_pos)
        rows = [c for c in self._classes if isinstance(c, np.ndarray)]
        count = sum(1 for c in self._classes if not isinstance(c, np.ndarray) and c == pidx)
        if rows:
            counts = np.zeros(self.space.size, dtype=np.min_scalar_type(len(rows)))
            for row in rows:
                counts += row == pidx
            count += int(counts.max())
        return count

    def _coordinate(self, i) -> int:
        if isinstance(i, bool) or not isinstance(i, Integral) or not 0 <= i < self.n:
            raise InvalidInputError(f"coordinate {i!r} is not in 0..{self.n - 1}")
        return int(i)

    def _line(self, i, atom) -> tuple[int, int, np.ndarray]:
        """``(i, flat, line)``: the checked coordinate, the atom's flat
        index, and the flat indices of the ``shape[i]`` atoms that agree
        with it off coordinate ``i``, in the order of coordinate ``i``."""
        i = self._coordinate(i)
        flat = self.space.atom_index(atom)
        stride = self.space._strides[i]
        m = self.space.shape[i]
        base = flat - (flat // stride % m) * stride
        return i, flat, base + np.arange(m) * stride

    def _eta_section(self, i, atom) -> tuple[int, np.ndarray]:
        """``(pos, section)``: the section probability of every ``psi``
        label along coordinate ``i`` through ``atom`` and the position of
        the largest, ties going to the latest label."""
        i, _, line = self._line(i, atom)
        section = np.bincount(
            self._class_at(i, line), weights=self.space.factors[i], minlength=len(self.psi)
        )
        return len(self.psi) - 1 - int(np.argmax(section[::-1])), section

    def class_label(self, i: int, atom) -> object:
        i = self._coordinate(i)
        return self.psi[self._class_at(i, self.space.atom_index(atom))]

    def eta(self, i: int, atom):
        """Label of the class with the most probable section along coordinate ``i``.

        Ties are broken towards the label occurring latest in the
        ``psi`` order; the result never depends on ``atom[i]``.
        """
        return self.psi[self._eta_section(i, atom)[0]]

    def eta_section_probability(self, i: int, atom) -> float:
        """Section probability of the class chosen by :meth:`eta` (>= 1/len(psi))."""
        pos, section = self._eta_section(i, atom)
        return float(section[pos])

    def alpha(self, i: int, atom) -> float:
        """Reciprocal section probability of the event cell containing ``atom``.

        The section always contains the atom's own ``i``-th coordinate,
        so the probability is positive on a discrete space.  Raises for
        atoms outside the event.
        """
        i, flat, line = self._line(i, atom)
        if not self._event_mask[flat]:
            raise InvalidInputError(f"atom {atom!r} is not in the event")
        cells = self._cell_at(i, line)
        on = cells >= 0
        section = np.bincount(
            cells[on], weights=self.space.factors[i][on], minlength=len(self.lam)
        )
        return float(1.0 / section[self._cell_at(i, flat)])

    # -- exhaustive verification ------------------------------------------

    def _section_table(self, i: int, labels: np.ndarray, values) -> np.ndarray:
        """Row ``k``: for each point of the other coordinates (C order), the
        probability of the atoms labelled ``values[k]`` on the coordinate-``i``
        line through it, summed in coordinate order."""
        shape = self.space.shape
        # (before i, along i, after i): the lines come out in section order
        grid = labels.reshape(math.prod(shape[:i]), shape[i], -1)
        table = np.zeros((len(values), grid.shape[0], grid.shape[2]))
        for row, value in zip(table, values):
            member = grid == value
            for j, p in enumerate(self.space.factors[i]):
                np.add(row, p, out=row, where=member[:, j, :])
        return table.reshape(len(values), -1)

    def verify_alpharho(self) -> AlphaRhoReport:
        """Exhaustively evaluate the structure inequality.

        The left-hand side is the exact finite sum over event atoms of
        ``P(atom) * sum_i alpha / sharp(eta)``; the right-hand side is
        ``len(psi)**2 * len(lam)``.  Raises on a degenerate
        ``sharp(eta) == 0`` (impossible when the space is non-trivial,
        kept as a guard).  ``eta`` and the cell sections are computed on the
        section shape, one table per label summed in coordinate order
        (:meth:`_section_table`), and read at the event atoms only.
        """
        sharp_vec = np.array([self.sharp(label) for label in self.psi], dtype=float)
        rhs = float(len(self.psi) ** 2 * len(self.lam))
        flat = np.flatnonzero(self._event_mask)
        if not flat.size:
            return AlphaRhoReport(
                lhs=0.0, rhs=rhs, holds=True, min_ratio_sum=math.inf, event_probability=0.0
            )
        ratio_sum = np.zeros(flat.size)
        for i in range(self.n):
            stride = self.space._strides[i]
            # section index of each event atom: its flat index with coordinate i dropped
            section = flat // (stride * self.space.shape[i]) * stride + flat % stride
            classes = self._classes[i]
            if isinstance(classes, np.ndarray):
                eta_table = self._section_table(i, classes, range(len(self.psi)))
                # argmax with ties towards the largest index: scan reversed order
                eta_idx = len(self.psi) - 1 - np.argmax(eta_table[::-1], axis=0)
                sharp_eta = sharp_vec[eta_idx][section]
            else:
                # the constant label's section is the whole line, every other one is empty
                sharp_eta = sharp_vec[classes]
            if np.any(sharp_eta == 0):
                raise InvalidInputError(
                    f"degenerate structure: sharp(eta({i}, atom)) == 0 on the event"
                )
            cells = self._cells[i]
            if isinstance(cells, np.ndarray):
                cell_table = self._section_table(i, cells, range(len(self.lam)))
                cell_section = cell_table[cells[flat], section]
            else:
                # the constant cell is the event: its table is the event mask's
                cell_section = self._section_table(i, self._event_mask, (True,))[0, section]
            ratio_sum += 1.0 / cell_section / sharp_eta
        probs = self.space._probabilities(flat)
        lhs = float(np.sum(probs * ratio_sum))
        return AlphaRhoReport(
            lhs=lhs,
            rhs=rhs,
            holds=bool(lhs <= rhs + 1e-9),
            min_ratio_sum=float(ratio_sum.min()),
            event_probability=float(probs.sum()),
        )

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        """Serialize the structure for fixture exchange (small spaces only)."""
        atom_key = lambda atom: ",".join(str(v) for v in atom)
        everywhere = np.arange(self.space.size)
        classes = []
        cells = []
        for i in range(self.n):
            class_pos, cell_pos = self._class_at(i, everywhere), self._cell_at(i, everywhere)
            cmap, emap = {}, {}
            for flat, atom in enumerate(self.space.atoms()):
                cmap[atom_key(atom)] = self.psi[class_pos[flat]]
                if self._event_mask[flat]:
                    emap[atom_key(atom)] = self.lam[cell_pos[flat]]
            classes.append(cmap)
            cells.append(emap)
        doc = {
            "factors": [p.tolist() for p in self.space.factors],
            "budget": self.space.budget,
            "psi": list(self.psi),
            "lambda": list(self.lam),
            "classes": classes,
            "event": [list(atom) for atom in self.event_atoms()],
            "event_partition": cells,
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "AlphaEtaStructure":
        with decoding("alphaeta structure document"):
            doc = json.loads(text)
            space = DiscreteProductSpace(doc["factors"], budget=doc.get("budget", DEFAULT_ENUMERATION_BUDGET))
            parse_key = lambda key: tuple(int(v) for v in key.split(","))
            classes = [{parse_key(k): v for k, v in cmap.items()} for cmap in doc["classes"]]
            cells = [{parse_key(k): v for k, v in emap.items()} for emap in doc["event_partition"]]
            event = [tuple(a) for a in doc["event"]]
            return cls(space, doc["psi"], doc["lambda"], classes, event, cells)


# -- many small structures, verified as one batch ------------------------------


class _Inputs(NamedTuple):
    """Constructor inputs of a structure with integer labels: ``psi`` and
    ``lam`` stand for the label lists ``1..psi`` and ``1..lam``, ``factors``
    are float64 probability vectors, and ``classes`` and ``cells`` hold one
    label array per coordinate, one label per atom in flat order, as the
    boolean ``event`` holds one entry per atom."""

    factors: list
    psi: int
    lam: int
    classes: list
    event: np.ndarray
    cells: list

    def structure(self) -> AlphaEtaStructure:
        """The structure the constructors build from these inputs."""
        return AlphaEtaStructure(
            DiscreteProductSpace(self.factors), range(1, self.psi + 1), range(1, self.lam + 1),
            self.classes, self.event, self.cells,
        )


def _starts(counts: np.ndarray) -> np.ndarray:
    """Where each of the consecutive runs of lengths ``counts`` starts."""
    out = np.zeros_like(counts)
    np.cumsum(counts[:-1], out=out[1:])
    return out


class _Group:
    """The structures of one coordinate count laid end to end: atom ``t`` of
    the group is flat atom ``t - start[owner[t]]`` of its member
    ``owner[t]``.  Labels are kept as positions, ``label - 1``."""

    def __init__(self, structures: Sequence[_Inputs], members: list[int], lengths: list[list[int]]):
        group = [structures[k] for k in members]
        self.members = members
        self.n = n = len(lengths[0])
        self.shape = np.array(lengths, dtype=np.intp).reshape(-1, n)
        size = self.shape.prod(axis=1)
        self.start = _starts(size)
        self.owner = np.repeat(np.arange(len(group)), size)
        self.psi = np.array([s.psi for s in group])
        self.lam = np.array([s.lam for s in group])
        self.factors = [np.concatenate([s.factors[i] for s in group]) for i in range(n)]
        self.classes = [np.concatenate([s.classes[i] for s in group]) - 1 for i in range(n)]
        self.cells = [np.concatenate([s.cells[i] for s in group]) - 1 for i in range(n)]
        self.event = np.concatenate([s.event for s in group])

    def suspects(self) -> list[int]:
        """Members with a class label outside ``1..psi`` or a cell label,
        on the event or off it, outside ``1..lam``."""
        psi, lam = self.psi[self.owner], self.lam[self.owner]
        bad = np.zeros(self.owner.size, dtype=bool)
        for c in self.classes:
            bad |= (c < 0) | (c >= psi)
        for c in self.cells:
            bad |= (c < 0) | (c >= lam)
        return [self.members[b] for b in np.unique(self.owner[bad]).tolist()]


def _factor_suspects(structures: Sequence[_Inputs], lengths: list[list[int]]) -> list[int]:
    """Structures with a factor that may fail the space's checks, the factor
    lengths being ``lengths``: empty, not finite and positive, or summing to
    1 only within half the tolerance (the screen sums in another order than
    the check)."""
    counts = np.array([len(m) for m in lengths])
    sizes = np.array([v for m in lengths for v in m], dtype=np.intp)
    if not sizes.size:
        return []
    probs = np.concatenate([p for s in structures for p in s.factors])
    factor = np.repeat(np.arange(sizes.size), sizes)
    bad = (sizes == 0) | (np.abs(np.bincount(factor, probs, sizes.size) - 1.0) > _PROB_ATOL / 2)
    bad[factor[~(np.isfinite(probs) & (probs > 0))]] = True
    return np.unique(np.repeat(np.arange(len(structures)), counts)[bad]).tolist()


def _verify_group(g: _Group) -> tuple[list[AlphaRhoReport], list[tuple[int, int]]]:
    """The report of every member of ``g``, and ``(member, i)`` for every
    member with an event atom where ``sharp(eta(i, atom)) == 0``.

    Coordinate by coordinate, every class table and every cell table of
    the group is one ``np.bincount`` over ``(line, label)`` keys, the line
    numbered after the lines of the members before it, weighted by the
    factor probability, so each entry sums its line in coordinate order.
    ``ratio`` and the probabilities are accumulated over the concatenated
    event atoms in the order of :meth:`AlphaEtaStructure.verify_alpharho`,
    and each member's ``lhs`` and event probability are ``np.sum`` of its
    own run of them, as there."""
    owner, start, shape = g.owner, g.start, g.shape
    flat = np.arange(owner.size) - start[owner]
    P, L = int(g.psi.max()), int(g.lam.max())
    # sharp per member and label, from every atom's count of coordinates per class
    keys = np.concatenate([np.arange(owner.size) * P + c for c in g.classes])
    counts = np.bincount(keys, minlength=owner.size * P).reshape(-1, P)
    sharp = np.maximum.reduceat(counts, start, axis=0)
    ev = np.flatnonzero(g.event)
    ev_owner = owner[ev]
    ratio = np.zeros(ev.size)
    probs = np.ones(ev.size)
    degenerate = []
    for i in range(g.n):
        m, stride = shape[:, i], shape[:, i + 1 :].prod(axis=1)
        lines = shape[:, :i].prod(axis=1) * stride
        st, mm = stride[owner], m[owner]
        high = flat // st
        # the atom's flat index with coordinate i dropped, after the members' lines before it
        local = high // mm * st + flat - high * st
        line = local + _starts(lines)[owner]
        f = g.factors[i][_starts(m)[owner] + high % mm]
        table = np.bincount(line * P + g.classes[i], f, int(lines.sum()) * P).reshape(-1, P)
        # argmax with ties towards the latest label: scan reversed order
        eta = P - 1 - np.argmax(table[:, ::-1], axis=1)
        on = line[ev]
        sharp_eta = sharp[ev_owner, eta[on]]
        if not sharp_eta.all():
            zero = np.unique(ev_owner[sharp_eta == 0]).tolist()
            degenerate += [(g.members[b], i) for b in zero]
            sharp_eta = np.maximum(sharp_eta, 1)
        key = on * L + g.cells[i][ev]
        cell = np.bincount(key, f[ev])
        ratio += 1.0 / cell[key] / sharp_eta
        probs *= f[ev]
    weighted = probs * ratio
    # member b's event atoms are bounds[b]:bounds[b + 1] (one empty run past the last)
    bounds = _starts(np.bincount(ev_owner, minlength=len(g.members) + 1))
    reports = []
    for b, (lo, hi) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
        rhs = float(int(g.psi[b]) ** 2 * int(g.lam[b]))
        if lo == hi:
            reports.append(AlphaRhoReport(0.0, rhs, True, math.inf, 0.0))
            continue
        lhs = float(weighted[lo:hi].sum())
        reports.append(AlphaRhoReport(
            lhs=lhs,
            rhs=rhs,
            holds=lhs <= rhs + 1e-9,
            min_ratio_sum=float(ratio[lo:hi].min()),
            event_probability=float(probs[lo:hi].sum()),
        ))
    return reports, degenerate


def _verify_batch(structures: Sequence[_Inputs]) -> list[AlphaRhoReport]:
    """``s.structure().verify_alpharho()`` of every structure ``s`` of
    ``structures``, from the arrays alone: the structures of one coordinate
    count are verified together (:func:`_verify_group`).

    The constructors' checks run as vectorised screens; the constructors
    themselves run only on the structures a screen flags, in instance
    order, so a bad input raises their message.  Then a structure with
    ``sharp(eta) == 0`` on its event raises ``verify_alpharho``'s message,
    the first such structure in instance order."""
    lengths = [[p.size for p in s.factors] for s in structures]
    # no factor, or more atoms than the space admits: the constructors refuse it
    refused = {k for k, m in enumerate(lengths) if not m or math.prod(m) > DEFAULT_ENUMERATION_BUDGET}
    groups: dict[int, list[int]] = {}
    for k, m in enumerate(lengths):
        if k not in refused:
            groups.setdefault(len(m), []).append(k)
    laid = [_Group(structures, members, [lengths[k] for k in members]) for members in groups.values()]
    suspects = refused.union(_factor_suspects(structures, lengths), *(g.suspects() for g in laid))
    for k in sorted(suspects):
        structures[k].structure()
    reports: list = [None] * len(structures)
    degenerate = []
    for g in laid:
        group_reports, group_degenerate = _verify_group(g)
        for k, report in zip(g.members, group_reports):
            reports[k] = report
        degenerate += group_degenerate
    if degenerate:
        i = min(degenerate)[1]
        raise InvalidInputError(f"degenerate structure: sharp(eta({i}, atom)) == 0 on the event")
    return reports


def cube_example_structure(n: int, K: float, m: int) -> AlphaEtaStructure:
    """Uniform discretized cube with a union-of-small-coordinates event.

    The event collects the atoms where one of the first ``n - sqrt(n)``
    coordinates falls below ``1/(K n)`` or one of the last ``sqrt(n)``
    coordinates falls below ``1/(K sqrt(n))``.  Classes are the constant
    two-block assignment (label 1 on the first block of coordinates,
    label 2 on the rest), so ``sharp(1) = n - sqrt(n)`` and
    ``sharp(2) = sqrt(n)``; the event partition is trivial.  Requires
    ``m`` to discretize both thresholds exactly.  The space is capped at
    :data:`CUBE_ENUMERATION_BUDGET` atoms, and a larger cube is rejected
    before anything is allocated.
    """
    try:
        n, K, m = integer(n), number(K), integer(m)
    except TypeError as exc:
        raise InvalidInputError(f"n and m must be integers and K a number: {exc}") from None
    if n < 4:
        raise InvalidInputError("n must be at least 4")
    s = math.isqrt(n)
    if s * s != n:
        raise InvalidInputError(f"n={n} must be a perfect square")
    if not math.isfinite(K) or K <= 1:
        raise InvalidInputError("K must be finite and exceed 1")
    if m < 1:
        raise InvalidInputError("m must be a positive integer")
    q1 = m / (K * n)
    q2 = m / (K * s)
    if abs(q1 - round(q1)) > 1e-9 or abs(q2 - round(q2)) > 1e-9 or round(q1) < 1:
        raise InvalidInputError(
            f"m={m} does not discretize 1/(K n) and 1/(K sqrt(n)) exactly for K={K}, n={n}"
        )
    q1, q2 = int(round(q1)), int(round(q2))
    if m**n > CUBE_ENUMERATION_BUDGET:
        raise InvalidInputError(
            f"cube has {m}**{n} atoms, exceeding the enumeration budget {CUBE_ENUMERATION_BUDGET}"
        )
    space = DiscreteProductSpace([np.full(m, 1.0 / m)] * n, budget=CUBE_ENUMERATION_BUDGET)
    mask = np.zeros(space.shape, dtype=bool)
    for i in range(n):
        threshold = q1 if i < n - s else q2
        axis_hit = np.arange(m) < threshold
        shape_i = [1] * n
        shape_i[i] = m
        mask |= axis_hit.reshape(shape_i)
    classes = [1 if i < n - s else 2 for i in range(n)]
    return AlphaEtaStructure(
        space,
        psi=[1, 2],
        lam=[1],
        classes=classes,
        event=mask,
        event_partition=[1] * n,
    )


def cube_event_probability(n: int, K: float) -> float:
    """Closed-form event probability of the cube example."""
    s = math.isqrt(n)
    return 1.0 - (1.0 - 1.0 / (K * n)) ** (n - s) * (1.0 - 1.0 / (K * s)) ** s
