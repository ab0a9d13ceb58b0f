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
and larger requests are rejected rather than subsampled.

A structure takes one input form per field.  A class or cell assignment
is one label or one array of labels, and the event is one boolean array,
each array of shape ``(size,)`` in the flat enumeration order or of the
space's shape.  A constant class label is kept as one integer for its
coordinate, and so is a constant cell label, which means "this label on
the event, none off it".  A label array is kept as one label position per
atom, in the smallest integer dtype that holds the positions, with ``-1``
for cells off the event.  Atom probabilities are not stored: they are
gathered from the factors at the atoms that need them.  So the only
per-atom array of a structure with constant assignments, such as the cube
example, is its one-byte event mask.

One kernel, :func:`_verify_group`, verifies structures laid end to end,
and every quantity a structure reports comes from it:
:meth:`AlphaEtaStructure.verify_alpharho` runs it on a group of one, whose
report holds the event probability, and :meth:`AlphaEtaStructure.sharp`
reads the table of ``sharp`` it builds on that group (:func:`_sharp_table`).
:func:`_verify_batch` runs it on the many small structures with integer
labels of the alpharho suite, grouped by coordinate count, with no
structure built.  Section quantities are tables over lines along one
coordinate, each one ``np.bincount`` over ``(line, label)`` keys that adds
a line's factor probabilities in coordinate order and calls no BLAS.  The
cell tables are summed over the event atoms alone, and only a per-atom
class assignment needs a table over all atoms: a constant class label wins
every section, since factor probabilities are positive.  So the cube is
verified without an index array over its whole space, and with six arrays
the size of its event live at once: the event atoms, their probabilities
and ratio sums, and three work arrays, made once per call, that every
coordinate's lines are written into.  The tests check the kernel against
an independent evaluation on the full space.
"""

from __future__ import annotations

import math
from collections.abc import Sequence, Sized
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, integer, number

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

    @property
    def n(self) -> int:
        return len(self.factors)


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

    ``classes[i]`` and ``event_partition[i]`` are each one label (a
    constant assignment) or one array of labels, of shape ``(size,)`` in
    the flat enumeration order or of the space's shape.  ``event`` is one
    boolean array of either shape.  Any other form, a mapping, a list of
    atoms or a callable among them, is an :class:`InvalidInputError`.
    Labels must be members of ``psi`` (respectively ``lam``); the position
    in those lists is the total order used for tie-breaking.
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
        if not (isinstance(event, np.ndarray) and event.dtype == bool):
            raise InvalidInputError("an event must be a boolean array, one entry per atom")
        if event.shape not in ((self.space.size,), self.space.shape):
            raise InvalidInputError("boolean event array has the wrong shape")
        return event.reshape(-1).copy()

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
        try:
            arr = np.asarray(spec)
        except ValueError:
            raise InvalidInputError("assignment array has the wrong shape") from None
        if arr.shape not in ((N,), shape):
            raise InvalidInputError(
                f"an assignment must be one label or an array of labels of shape {(N,)} or {shape}"
            )
        try:
            labels, codes = np.unique(arr.reshape(-1), return_inverse=True)
        except TypeError:
            raise InvalidInputError("the labels of an assignment array cannot be ordered") from None
        table = np.array([self._label_index(v, lookup) for v in labels], out.dtype)
        out[where] = table[codes[where]]
        return out

    @staticmethod
    def _label_index(label, lookup) -> int:
        try:
            return lookup[label]
        except (KeyError, TypeError):
            raise InvalidInputError(f"label {label!r} is not in the index list") from None

    @property
    def n(self) -> int:
        return self.space.n

    def _group(self) -> "_Group":
        """The structure as a group of one, from the label positions it stores."""
        return _Group([0], [self.space.shape], [len(self.psi)], [len(self.lam)],
                      self.space.factors, self._classes, self._event_mask, self._cells)

    def sharp(self, psi_label) -> int:
        """Largest number of coordinates whose ``psi_label`` classes share an atom.

        Equals 0 when the class is empty for every coordinate, and ``n``
        when some atom lies in all of them.  It is read from the table the
        verification kernel builds (:func:`_sharp_table`).
        """
        return int(_sharp_table(self._group())[0, self._label_index(psi_label, self._psi_pos)])

    def verify_alpharho(self) -> AlphaRhoReport:
        """Exhaustively evaluate the structure inequality.

        The left-hand side is the exact finite sum over event atoms of
        ``P(atom) * sum_i alpha / sharp(eta)``; the right-hand side is
        ``len(psi)**2 * len(lam)``.  Raises on a degenerate
        ``sharp(eta) == 0`` (impossible when the space is non-trivial,
        kept as a guard).  The structure is verified as a group of one
        (:func:`_verify_group`).
        """
        return _verify_group(self._group())[0]


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


def _starts(counts: np.ndarray) -> np.ndarray:
    """Where each of the consecutive runs of lengths ``counts`` starts."""
    out = np.zeros_like(counts)
    np.cumsum(counts[:-1], out=out[1:])
    return out


class _Group:
    """Structures with one coordinate count laid end to end: atom ``t`` of
    the group is flat atom ``t - start[b]`` of the member ``b`` whose run
    holds it.  Labels are 0-based positions, as a structure stores them: a
    constant class or cell label is one integer (in a group of one
    structure), any other assignment one position per atom, cells ``-1``
    off the event."""

    def __init__(self, members: list[int], shape, psi, lam, factors, classes, event, cells):
        self.members = members
        self.shape = np.array(shape, dtype=np.intp)
        self.n = self.shape.shape[1]
        self.size = self.shape.prod(axis=1)
        self.start = _starts(self.size)
        self.atoms = int(self.size.sum())
        self.psi, self.lam = np.array(psi), np.array(lam)
        self.factors, self.classes, self.event, self.cells = factors, classes, event, cells

    @classmethod
    def laid(cls, structures: Sequence[_Inputs], members: list[int], lengths: list[list[int]]) -> "_Group":
        """The structures ``members`` of ``structures``, their factor lengths
        being ``lengths``, with every label moved to its position."""
        group = [structures[k] for k in members]
        n = len(lengths[0])
        per = lambda field: [np.concatenate([getattr(s, field)[i] for s in group]) for i in range(n)]
        return cls(
            members, lengths, [s.psi for s in group], [s.lam for s in group], per("factors"),
            [c - 1 for c in per("classes")], np.concatenate([s.event for s in group]),
            [c - 1 for c in per("cells")],
        )

    def owners(self, t: np.ndarray):
        """The member of each group atom ``t``; in a group of one the scalar
        0, which reads a per-member array without a copy per atom."""
        return 0 if len(self.members) == 1 else np.searchsorted(self.start, t, side="right") - 1

    def lines(self, i: int, t: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
        """``(line, f)`` at the group atoms ``t``: the line along coordinate
        ``i`` through each, numbered after the lines of the members before
        it, and its factor probability.  ``out`` is ``(line, f, scratch)``,
        intp, float64 and intp arrays the size of ``t`` that the results and
        the work are written into, else three new ones; in a group of one no
        other array the size of ``t`` is made.

        With ``t'`` the flat index in the member, ``st`` the stride and
        ``mm`` the length of coordinate ``i``, and ``u = t' // st``,
        ``q = u // mm``: the coordinate is ``u - q mm`` and the line
        ``q st + t' % st = t' - st (u - q)``, without an integer modulo."""
        line, f, u = out if out is not None else (
            np.empty(t.size, np.intp), np.empty(t.size), np.empty(t.size, np.intp))
        b = self.owners(t)
        m, stride = self.shape[:, i], self.shape[:, i + 1 :].prod(axis=1)
        st, mm = stride[b], m[b]
        several = isinstance(b, np.ndarray)  # else every start below is 0
        if several:
            t = t - self.start[b]
        np.floor_divide(t, st, out=u)
        q = np.floor_divide(u, mm, out=line)
        u -= q
        q *= mm - 1
        j = np.subtract(u, q, out=q)  # u - q mm, in [0, mm)
        if several:
            j += _starts(m)[b]
        # j indexes factor i of its own member: "clip" clips nothing, and
        # unlike the default "raise" it writes straight into f
        np.take(self.factors[i], j, out=f, mode="clip")
        np.multiply(u, st, out=line)
        np.subtract(t, line, out=line)
        if several:
            line += _starts(self.size // m)[b]
        return line, f

    def eta(self, i: int) -> np.ndarray:
        """The position of the class with the most probable section on every
        line along coordinate ``i``, ties going to the latest label, from a
        per-atom class assignment: one bincount over ``(line, label)`` keys
        of all the atoms."""
        P = int(self.psi.max())
        line, f = self.lines(i, np.arange(self.atoms))
        line *= P
        line += self.classes[i]
        table = np.bincount(line, f, int((self.size // self.shape[:, i]).sum()) * P).reshape(-1, P)
        # argmax with ties towards the latest label: scan reversed order
        return P - 1 - np.argmax(table[:, ::-1], axis=1)


def _sharp_table(g: _Group) -> np.ndarray:
    """``sharp`` of every member of ``g`` and every class label position, as
    a ``(members, psi)`` table: a label's constant classes are counted, and
    the largest count, over a member's atoms, of its per-atom ones added."""
    P = int(g.psi.max())
    constant = [c for c in g.classes if not isinstance(c, np.ndarray)]
    rows = [c for c in g.classes if isinstance(c, np.ndarray)]
    sharp = np.array([[constant.count(p) for p in range(P)]] * len(g.members), dtype=np.intp)
    if rows:
        for p in range(P):
            count = np.zeros(g.atoms, dtype=np.min_scalar_type(len(rows)))
            for c in rows:
                count += c == p
            sharp[:, p] += np.maximum.reduceat(count, g.start)
    return sharp


def _verify_group(g: _Group) -> list[AlphaRhoReport]:
    """The report of every member of ``g``; raises at the first coordinate
    ``i`` with an event atom where ``sharp(eta(i, atom)) == 0``.

    ``sharp`` is read from :func:`_sharp_table`.  A per-atom class
    assignment of coordinate ``i`` gives every line its ``eta`` from a
    table over all the atoms (:meth:`_Group.eta`); a constant class label
    wins every section, since factor probabilities are positive.  Every
    cell table, constant or per-atom, is one ``np.bincount`` over the
    ``(line, label)`` keys of the event atoms alone, which adds a line's
    factor probabilities in coordinate order.  The ratio sums and atom
    probabilities are accumulated over the event atoms coordinate by
    coordinate, and each member's ``lhs`` and event probability are
    ``np.sum`` of its own run of them."""
    L = int(g.lam.max())
    sharp = _sharp_table(g)
    ev = np.flatnonzero(g.event)
    ev_owner = g.owners(ev)
    ratio = np.zeros(ev.size)
    probs = np.ones(ev.size)
    # the work arrays of every coordinate: with ev, ratio and probs, six
    # arrays of the event's size are live in a group of one
    work = np.empty(ev.size, np.intp), np.empty(ev.size), np.empty(ev.size, np.intp)
    # with no event atom every member gets the empty report below; the
    # bincount of no keys is an int64 table, which the float gather refuses
    for i in range(g.n) if ev.size else ():
        line, f = g.lines(i, ev, out=work)
        classes, cells = g.classes[i], g.cells[i]
        # a constant class label wins every section: factor probabilities are positive
        eta = g.eta(i)[line] if isinstance(classes, np.ndarray) else classes
        sharp_eta = sharp[ev_owner, eta]
        if not np.all(sharp_eta):  # a guard: eta is a label on the line, so its sharp is positive
            raise InvalidInputError(f"degenerate structure: sharp(eta({i}, atom)) == 0 on the event")
        probs *= f
        # the lines become the cell keys, and f the ratio term
        line *= L
        line += cells[ev] if isinstance(cells, np.ndarray) else cells
        cell = np.bincount(line, f)
        # the table was sized by np.bincount from these same keys, which it
        # refuses negative: "clip" clips nothing and writes straight into f
        np.take(cell, line, out=f, mode="clip")
        del cell  # else it lives on beside the next coordinate's table
        np.divide(1.0, f, out=f)
        f /= sharp_eta
        ratio += f
    weighted = np.multiply(probs, ratio, out=work[1])
    # member b's event atoms are bounds[b]:bounds[b + 1]
    bounds = np.searchsorted(ev, np.append(g.start, g.atoms)).tolist()
    reports = []
    for b, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
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
    return reports


def _verify_batch(structures: Sequence[_Inputs]) -> list[AlphaRhoReport]:
    """The ``verify_alpharho`` report of the structure the constructors build
    from each of ``structures``, from the arrays alone: the structures of one
    coordinate count are laid end to end and verified together, as one group
    (:func:`_verify_group`).  The inputs are not checked: the alpharho
    suite, the one caller, draws only inputs the constructors accept."""
    lengths = [[p.size for p in s.factors] for s in structures]
    groups: dict[int, list[int]] = {}
    for k, m in enumerate(lengths):
        groups.setdefault(len(m), []).append(k)
    reports: list = [None] * len(structures)
    for members in groups.values():
        g = _Group.laid(structures, members, [lengths[k] for k in members])
        for k, report in zip(members, _verify_group(g)):
            reports[k] = report
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
