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
Each label's table is one ``np.einsum`` over the labels viewed as
``(before i, along i, after i)``; einsum without ``optimize`` calls no
BLAS, so the report does not depend on the BLAS thread count.

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
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Mapping, Sized
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import InvalidInputError, decoding, integer, number

DEFAULT_ENUMERATION_BUDGET = 10**6

# Atom cap of cube_example_structure: admits the 40**4 = 2.56 M-atom demo
# of criterion 11 and rejects the next K=10 size, 80**4 = 41 M atoms.
CUBE_ENUMERATION_BUDGET = 4 * 10**6

_PROB_ATOL = 1e-12


def _float_vector(p) -> bool:
    return type(p) is np.ndarray and p.dtype == np.float64 and p.ndim == 1


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
            self.factors = [
                # a float64 vector is copied whole: number() would return its entries unchanged
                np.array(p) if _float_vector(p) else np.array([number(v) for v in p], dtype=float)
                for p in factors
            ]
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
        a = np.unravel_index(self.atom_index(atom), self.shape)
        return float(np.prod([p[v] for p, v in zip(self.factors, a)]))

    def _probabilities(self, flat: np.ndarray) -> np.ndarray:
        """P(atom) at the flat indices ``flat``, multiplied from the factors
        left to right as :meth:`atom_probabilities` does: the same bits."""
        out = np.ones(flat.size)
        for p, stride, m in zip(self.factors, self._strides, self.shape):
            out *= p[flat // stride % m]
        return out


def _label_codes(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(labels, slots, codes)`` of a 1-D label array: its distinct labels
    in ascending order, as ``np.unique`` gives them, the slot of each label
    in a lookup table, and the slot of every entry, so that a table holding
    a value per label at ``slots`` maps the entries when read at ``codes``.

    Integer labels (other than ``uint64``) spanning fewer than ``flat.size
    + 1024`` values are counted with ``np.bincount``, with the slot ``label
    - min``; any other labels are sorted by ``np.unique``."""
    if flat.dtype.kind == "i" or flat.dtype.kind == "u" and flat.dtype.itemsize < 8:
        lo = int(flat.min())
        if int(flat.max()) - lo < flat.size + 1024:
            codes = flat.astype(np.intp, copy=False) - lo
            slots = np.flatnonzero(np.bincount(codes))
            return (slots + lo).astype(flat.dtype), slots, codes
    try:
        labels, codes = np.unique(flat, return_inverse=True)
    except TypeError:
        raise InvalidInputError(
            "the labels of an assignment array cannot be ordered; give them as a mapping"
        ) from None
    return labels, np.arange(labels.size), codes


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
        self._sharp_cache: dict[int, int] = {}

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
        labels, slots, codes = _label_codes(arr.reshape(-1))
        table = np.zeros(slots[-1] + 1, out.dtype)
        table[slots] = [self._label_index(v, lookup) for v in labels]
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
        if pidx not in self._sharp_cache:
            rows = [c for c in self._classes if isinstance(c, np.ndarray)]
            count = sum(1 for c in self._classes if not isinstance(c, np.ndarray) and c == pidx)
            if rows:
                counts = np.zeros(self.space.size, dtype=np.min_scalar_type(len(rows)))
                for row in rows:
                    counts += row == pidx
                count += int(counts.max())
            self._sharp_cache[pidx] = count
        return self._sharp_cache[pidx]

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
        line through it."""
        shape = self.space.shape
        # (before i, along i, after i): the lines come out in section order
        grid = labels.reshape(math.prod(shape[:i]), shape[i], -1)
        f = self.space.factors[i]
        return np.array([np.einsum("ajb,j->ab", grid == value, f).reshape(-1) for value in values])

    def verify_alpharho(self) -> AlphaRhoReport:
        """Exhaustively evaluate the structure inequality.

        The left-hand side is the exact finite sum over event atoms of
        ``P(atom) * sum_i alpha / sharp(eta)``; the right-hand side is
        ``len(psi)**2 * len(lam)``.  Raises on a degenerate
        ``sharp(eta) == 0`` (impossible when the space is non-trivial,
        kept as a guard).  ``eta`` and the cell sections are computed on the
        section shape, one BLAS-free contraction per label
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
