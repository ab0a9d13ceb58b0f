"""Row-distribution samplers, fixed shift matrices, and seeding.

Every sampler draws independent isotropic rows (mean zero, identity
covariance), except the Bernoulli kind whose entries are fair +/-1
signs.  Sampling is keyed by a counter-based Philox generator so that
the matrix for a given ``(master_seed, trial_index)`` pair is a pure
function of those two integers, independent of thread scheduling.
A Philox stream is its key and nothing else (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC 2011), so a run of streams
re-keys one generator (``_Streams``) instead of building one per stream,
and each stream still draws what ``Generator(Philox(key=[master_seed,
trial_index]))`` draws.

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
import threading
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
                with decoding(name):
                    value = integer(value)
                object.__setattr__(self, name, value)
            if not 0 <= value <= _MASK64:
                raise InvalidInputError(f"{name} must lie in [0, 2**64), got {value}")

    def rng(self) -> np.random.Generator:
        key = np.array([self.master_seed, self.trial_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(_Key(key)))


class _Streams:
    """Many streams read one after another on one generator.

    :meth:`open` re-keys a single Philox to the key ``[master_seed,
    trial_index]``, with counter 0 and empty buffers (``buffer_pos`` 4,
    ``has_uint32`` and ``uinteger`` 0), which is the state
    ``SeedSpec(master_seed, trial_index).rng()`` starts in; so it draws what
    ``Generator(Philox(key=[master_seed, trial_index]))`` draws, at about a
    tenth of the cost of building that generator.  The state it writes holds
    Python lists, which the Philox reads a word at a time faster than numpy
    arrays.  Each key word is an integer in ``[0, 2**64)``, which ``open``
    does not check: the Philox refuses a negative or wider one, and callers
    check their seed once, with :class:`SeedSpec`.  Each :meth:`open` ends
    the stream opened before it.  A caller makes one for a run of streams,
    and :func:`sample_matrix` keeps one per thread, so importing this module
    still loads no ``numpy.random``.
    """

    __slots__ = ("_generator", "_bit_generator", "_state", "_key")

    def __init__(self):
        self._generator = SeedSpec(0).rng()
        self._bit_generator = self._generator.bit_generator
        self._key = [0, 0]
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": self._key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def open(self, master_seed: int, trial_index: int) -> np.random.Generator:
        self._key[0] = master_seed
        self._key[1] = trial_index
        self._bit_generator.state = self._state
        return self._generator


# Each thread's _Streams for sample_matrix, made by the thread's first draw.
_threads = threading.local()


def _thread_streams() -> _Streams:
    try:
        return _threads.streams
    except AttributeError:
        _threads.streams = _Streams()
        return _threads.streams


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


def sample_matrix(dist: RowDistribution, n: int, seed: SeedSpec, out: np.ndarray | None = None) -> np.ndarray:
    """Draw an ``n x n`` matrix with independent rows from ``dist``.

    gaussian: i.i.d. N(0,1) entries; bernoulli: i.i.d. fair +/-1;
    uniform_entry: i.i.d. uniform on [-sqrt(3), sqrt(3)] (unit
    variance); symmetric_exponential: i.i.d. two-sided exponential
    scaled to unit variance; ball_uniform: each row uniform on the
    centered Euclidean ball of radius sqrt(n + 2) (isotropic,
    log-concave).

    The matrix is written into ``out``, a C-ordered float64 ``(n, n)``
    array such as one member of a stack, when it is given, and into a new
    array otherwise; either way it has the same bits and is returned.
    Each law writes its draws in place where the generator can.  The
    stream of ``seed`` is opened on the calling thread's own
    :class:`_Streams`, so it draws what ``seed.rng()`` draws without
    building a generator.
    """
    if n < 1:
        raise InvalidInputError("n must be a positive integer")
    if out is None:
        out = np.empty((n, n))
    elif out.shape != (n, n):
        raise InvalidInputError(f"out has shape {out.shape}, expected {(n, n)}")
    rng = _thread_streams().open(seed.master_seed, seed.trial_index)
    if dist.kind == "gaussian":
        rng.standard_normal(out=out)
    elif dist.kind == "bernoulli":
        np.multiply(rng.integers(0, 2, size=(n, n)), 2.0, out=out)
        out -= 1.0
    elif dist.kind == "uniform_entry":
        # what Generator.uniform(-r, r) computes, -r + (2 r) * u, 2 r being exact
        r = math.sqrt(3.0)
        rng.random(out=out)
        out *= 2.0 * r
        out += -r
    elif dist.kind == "symmetric_exponential":
        out[...] = rng.laplace(0.0, 1.0 / math.sqrt(2.0), size=(n, n))  # laplace takes no out
    elif dist.kind == "ball_uniform":
        rng.standard_normal(out=out)
        out /= np.linalg.norm(out, axis=1, keepdims=True)
        out *= (math.sqrt(n + 2.0) * rng.random(n) ** (1.0 / n))[:, None]
    else:
        raise InvalidInputError(f"unknown distribution kind {dist.kind!r}")
    return out


def _numbers(values) -> tuple[float, ...]:
    return tuple(number(v) for v in values)


# The fields of each shift kind besides "kind", which are its document keys,
# and how ShiftSpec reads them: as numbers, in tuples so that specs hash.
_SHIFT_FIELDS = {
    "zero": {},
    "scaled_identity": {"tau": number},
    "diagonal": {"values": _numbers},
    "explicit": {"entries": lambda rows: tuple(map(_numbers, rows))},
    "counterexample": {"tau": number},
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
        if not isinstance(self.kind, str) or self.kind not in _SHIFT_FIELDS:
            raise InvalidInputError(f"unknown shift kind {self.kind!r}")
        keys = tuple(_SHIFT_FIELDS[self.kind])
        given = tuple(key for key in ("tau", "values", "entries") if getattr(self, key) is not None)
        if given != keys:
            raise InvalidInputError(f"a {self.kind} shift takes {list(keys)}, not {list(given)}")
        for key, read in _SHIFT_FIELDS[self.kind].items():  # NaN and infinity pass: build_shift rejects them
            with decoding(key):
                object.__setattr__(self, key, read(getattr(self, key)))
        if self.entries is not None and len({len(row) for row in self.entries}) > 1:
            raise InvalidInputError("entries: the rows of an explicit shift differ in length")

    @classmethod
    def zero(cls) -> "ShiftSpec":
        return cls(kind="zero")

    @classmethod
    def scaled_identity(cls, tau: float) -> "ShiftSpec":
        return cls(kind="scaled_identity", tau=tau)

    @classmethod
    def diagonal(cls, values) -> "ShiftSpec":
        return cls(kind="diagonal", values=values)

    @classmethod
    def explicit(cls, matrix) -> "ShiftSpec":
        return cls(kind="explicit", entries=matrix)

    @classmethod
    def counterexample(cls, tau: float) -> "ShiftSpec":
        """Diagonal ``(tau, ..., tau, 0, 0)``: the shift that defeats
        shift-independent bounds for sign matrices."""
        return cls(kind="counterexample", tau=tau)

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
            known_keys(d, ["kind", *_SHIFT_FIELDS.get(d["kind"], ())], "shift")
            return cls(**d)


def build_shift(spec: ShiftSpec, n: int) -> np.ndarray:
    """Materialize the ``n x n`` shift matrix described by ``spec``."""
    if n < 1:
        raise InvalidInputError("n must be a positive integer")
    numbers = [spec.tau, *(spec.values or ()), *(v for row in spec.entries or () for v in row)]
    bad = [v for v in numbers if v is not None and not math.isfinite(v)]
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
    d = np.full(n, spec.tau)
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
