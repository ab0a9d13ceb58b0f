"""Row-distribution samplers, fixed shift matrices, and seeding.

Every sampler draws independent isotropic rows (mean zero, identity
covariance), except the Bernoulli kind whose entries are fair +/-1
signs.  Sampling is keyed by a counter-based Philox generator so that
the matrix for a given ``(master_seed, trial_index)`` pair is a pure
function of those two integers, independent of thread scheduling.

One-dimensional marginal density bounds, where they exist in closed
form:

* ``gaussian``              -- 1 / sqrt(2 pi)
* ``uniform_entry``         -- 1 / (2 sqrt(3))   (uniform on [-sqrt(3), sqrt(3)])
* ``symmetric_exponential`` -- 1 / sqrt(2)       (density exp(-sqrt(2)|x|) / sqrt(2))

The Bernoulli law is discrete (no density); the per-coordinate density
of a row drawn uniformly from the centered ball of radius sqrt(n + 2)
depends on ``n`` and is therefore not recorded on the distribution
object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, decoding, integer, known_keys, number

KINDS = (
    "gaussian",
    "bernoulli",
    "uniform_entry",
    "symmetric_exponential",
    "ball_uniform",
)

_M1_DENSITY_BOUND = {
    "gaussian": 1.0 / math.sqrt(2.0 * math.pi),
    "uniform_entry": 1.0 / (2.0 * math.sqrt(3.0)),
    "symmetric_exponential": 1.0 / math.sqrt(2.0),
}

_MASK64 = 0xFFFFFFFFFFFFFFFF


class _Key:
    """Hands a Philox its 128-bit key as given.

    ``Philox(key=k)`` still builds a ``SeedSequence`` from OS entropy,
    which it then discards; a ``Philox`` built from this object reads
    ``k`` as its key instead, with the same state, counter and draws.
    The class becomes a numpy ``ISeedSequence`` on first use, so that
    importing this module does not load ``numpy.random``.
    """

    registered = False

    def __init__(self, key: np.ndarray):
        if not _Key.registered:
            from numpy.random.bit_generator import ISeedSequence

            ISeedSequence.register(_Key)
            _Key.registered = True
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        # Philox asks for exactly its key: two 64-bit words
        assert n_words == 2 and dtype is np.uint64, (n_words, dtype)
        return self.key


@dataclass(frozen=True)
class SeedSpec:
    """Identifies one reproducible random stream.

    The stream is a pure function of ``(master_seed, trial_index)``:
    both integers key a Philox counter-based generator, so distinct
    trials may be sampled concurrently in any order.  Each is one 64-bit
    word of the key and must be an integer in ``[0, 2**64)``, so that no
    two distinct pairs share a stream.  :meth:`rng` returns a fresh
    generator on every call, built without reading OS entropy; it draws
    what ``Generator(Philox(key=k))`` draws for the uint64 array ``k =
    [master_seed, trial_index]``.
    """

    master_seed: int
    trial_index: int = 0

    def __post_init__(self):
        for name in ("master_seed", "trial_index"):
            value = getattr(self, name)
            if type(value) is not int:  # a spec is made per trial: ints take no extra step
                try:
                    value = integer(value)
                except TypeError as exc:
                    raise InvalidInputError(f"{name}: {exc}") from None
                object.__setattr__(self, name, value)
            if not 0 <= value <= _MASK64:
                raise InvalidInputError(f"{name} must lie in [0, 2**64), got {value}")

    def rng(self) -> np.random.Generator:
        key = np.array([self.master_seed, self.trial_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(_Key(key)))


@dataclass(frozen=True)
class RowDistribution:
    """Specification of the law of one matrix row."""

    kind: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidInputError(f"unknown distribution kind {self.kind!r}; choose from {KINDS}")

    @property
    def density_bound(self) -> float | None:
        """Closed-form bound on the one-dimensional marginal density of
        ``kind``, ``None`` where none is known."""
        return _M1_DENSITY_BOUND.get(self.kind)

    def to_dict(self) -> dict:
        return {"kind": self.kind}

    @classmethod
    def from_dict(cls, d: dict) -> "RowDistribution":
        with decoding("row distribution"):
            known_keys(d, ("kind",), "row distribution")
            return cls(kind=d["kind"])


def sample_matrix(dist: RowDistribution, n: int, seed: SeedSpec) -> np.ndarray:
    """Draw an ``n x n`` matrix with independent rows from ``dist``.

    gaussian: i.i.d. N(0,1) entries; bernoulli: i.i.d. fair +/-1;
    uniform_entry: i.i.d. uniform on [-sqrt(3), sqrt(3)] (unit
    variance); symmetric_exponential: i.i.d. two-sided exponential
    scaled to unit variance; ball_uniform: each row uniform on the
    centered Euclidean ball of radius sqrt(n + 2) (isotropic,
    log-concave).
    """
    if n < 1:
        raise InvalidInputError("n must be a positive integer")
    rng = seed.rng()
    if dist.kind == "gaussian":
        return rng.standard_normal((n, n))
    if dist.kind == "bernoulli":
        return rng.integers(0, 2, size=(n, n)).astype(float) * 2.0 - 1.0
    if dist.kind == "uniform_entry":
        r = math.sqrt(3.0)
        return rng.uniform(-r, r, size=(n, n))
    if dist.kind == "symmetric_exponential":
        return rng.laplace(0.0, 1.0 / math.sqrt(2.0), size=(n, n))
    if dist.kind == "ball_uniform":
        g = rng.standard_normal((n, n))
        directions = g / np.linalg.norm(g, axis=1, keepdims=True)
        radii = math.sqrt(n + 2.0) * rng.random(n) ** (1.0 / n)
        return directions * radii[:, None]
    raise InvalidInputError(f"unknown distribution kind {dist.kind!r}")


# The document keys of each shift kind besides "kind".
_SHIFT_KEYS = {
    "zero": (),
    "scaled_identity": ("tau",),
    "diagonal": ("values",),
    "explicit": ("entries",),
    "counterexample": ("tau",),
}


@dataclass(frozen=True)
class ShiftSpec:
    """Recipe for the fixed matrix added to each random realization.

    ``explicit`` carries its entries as nested tuples so that specs
    stay hashable and comparable; :func:`build_shift` materializes the
    numpy array.
    """

    kind: str
    tau: float | None = None
    values: tuple[float, ...] | None = None
    entries: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        # exactly the fields of the kind: to_dict then writes what from_dict reads
        if not isinstance(self.kind, str) or self.kind not in _SHIFT_KEYS:
            raise InvalidInputError(f"unknown shift kind {self.kind!r}")
        keys = _SHIFT_KEYS[self.kind]
        given = tuple(key for key in ("tau", "values", "entries") if getattr(self, key) is not None)
        if given != keys:
            raise InvalidInputError(f"a {self.kind} shift takes {list(keys)}, not {list(given)}")

    @classmethod
    def zero(cls) -> "ShiftSpec":
        return cls(kind="zero")

    @classmethod
    def scaled_identity(cls, tau: float) -> "ShiftSpec":
        return cls(kind="scaled_identity", tau=float(tau))

    @classmethod
    def diagonal(cls, values) -> "ShiftSpec":
        return cls(kind="diagonal", values=tuple(float(v) for v in values))

    @classmethod
    def explicit(cls, matrix) -> "ShiftSpec":
        M = np.asarray(matrix, dtype=float)
        return cls(kind="explicit", entries=tuple(tuple(row) for row in M))

    @classmethod
    def counterexample(cls, tau: float) -> "ShiftSpec":
        """Diagonal ``(tau, ..., tau, 0, 0)``: the shift that defeats
        shift-independent bounds for sign matrices."""
        return cls(kind="counterexample", tau=float(tau))

    def label(self) -> str:
        if self.kind == "zero":
            return "zero"
        if self.kind == "scaled_identity":
            return f"scaled_identity({self.tau:g})"
        if self.kind == "diagonal":
            return "diagonal(" + ",".join(f"{v:g}" for v in self.values) + ")"
        if self.kind == "counterexample":
            return f"counterexample({self.tau:g})"
        return "explicit"

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind}
        if self.tau is not None:
            d["tau"] = self.tau
        if self.values is not None:
            d["values"] = list(self.values)
        if self.entries is not None:
            d["entries"] = [list(row) for row in self.entries]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ShiftSpec":
        with decoding("shift"):
            kind = d["kind"]
            if kind not in _SHIFT_KEYS:
                raise InvalidInputError(f"unknown shift kind {kind!r}")
            known_keys(d, ("kind",) + _SHIFT_KEYS[kind], "shift")
            if kind == "zero":
                return cls.zero()
            if kind == "scaled_identity":
                return cls.scaled_identity(number(d["tau"]))
            if kind == "diagonal":
                return cls.diagonal(number(v) for v in d["values"])
            if kind == "explicit":
                return cls.explicit([[number(v) for v in row] for row in d["entries"]])
            return cls.counterexample(number(d["tau"]))


def build_shift(spec: ShiftSpec, n: int) -> np.ndarray:
    """Materialize the ``n x n`` shift matrix described by ``spec``."""
    if n < 1:
        raise InvalidInputError("n must be a positive integer")
    numbers = [spec.tau, *(spec.values or ()), *(v for row in spec.entries or () for v in row)]
    bad = [float(v) for v in numbers if v is not None and not math.isfinite(v)]
    if bad:
        raise InvalidInputError(f"{spec.kind} shift has non-finite entries {bad}")
    if spec.kind == "zero":
        return np.zeros((n, n))
    if spec.kind == "scaled_identity":
        return spec.tau * np.eye(n)
    if spec.kind == "diagonal":
        if len(spec.values) != n:
            raise InvalidInputError(
                f"diagonal shift has {len(spec.values)} values but n={n}"
            )
        return np.diag(np.asarray(spec.values, dtype=float))
    if spec.kind == "explicit":
        M = np.asarray(spec.entries, dtype=float)
        if M.shape != (n, n):
            raise InvalidInputError(f"explicit shift has shape {M.shape}, expected {(n, n)}")
        return M
    # the one kind left: counterexample
    if n < 3:
        raise InvalidInputError("counterexample shift needs n >= 3")
    d = np.full(n, float(spec.tau))
    d[-2:] = 0.0
    return np.diag(d)


def counterexample_witness(B, tau: float) -> np.ndarray:
    """Near-kernel vector of ``B + counterexample shift`` for a sign matrix ``B``.

    With entries of ``B`` in {-1, +1} and ``tau >= n`` the returned
    vector ``X`` has ``X[i] = -(B[i, n-2] + B[i, n-1]) / tau`` for
    ``i <= n - 3`` and ``X[-2] = X[-1] = 1``, and satisfies
    ``sqrt(2) <= norm(X) < 2`` deterministically.
    """
    A = np.asarray(B, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidInputError("B must be square")
    n = A.shape[0]
    if n < 3:
        raise InvalidInputError("witness needs n >= 3")
    if not np.all(np.abs(A) == 1.0):
        raise InvalidInputError("B must have entries in {-1, +1}")
    if tau < n:
        raise InvalidInputError(f"tau={tau} is outside the regime tau >= n={n}")
    X = np.ones(n)
    X[: n - 2] = -(A[: n - 2, n - 2] + A[: n - 2, n - 1]) / float(tau)
    return X
