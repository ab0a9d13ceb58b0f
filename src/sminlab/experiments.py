"""Reproducible Monte Carlo estimation of tail probabilities.

One matrix realization per trial serves every grid point, which keeps
hit counts monotone along the grid and reduces variance.  Trials are
keyed by ``(master_seed, trial_index)`` so serial and parallel runs
produce bit-identical results.  Every Monte Carlo verb runs its trials
through :func:`map_trials`, on helper threads that the calling thread
keeps from one call to the next, as many as :func:`resolve_workers`
allows (the ``SMINLAB_THREADS`` environment variable caps it).  The
helpers drain the stacks of a call, each taking the next stack when it
finishes one, while the caller only waits.

The kernels take their trials in stacks: a contiguous range of trial
indices whose matrices form one ``(c, n, n)`` array.  Each trial still
draws from its own stream, straight into its member of the stack through
``sample_matrix(..., out=)``, and the shift is then added in place, so a
member holds the bits of ``sample_matrix(...) + shift``.  The gaussian,
uniform_entry and ball_uniform laws draw in place; bernoulli writes twice
its integer draws, a fresh integer array, into the member, and
symmetric_exponential, whose generator call takes no ``out``, copies its
draws in.  A member of a stack gets the bits it would get alone.  One
stacked factorization serves the distance profile of a stack and the
certified statistics of the trials the dominance screen leaves, one
stacked SVD its counterexample trials.  A stack holds at most
``STACK_ENTRIES`` (``200**2``) matrix entries, as many as one trial at
n = 200, which stays a stack of one; n = 100 trials go up to four and
n = 50 trials up to sixteen to a stack.  The reason is the interpreter
lock that the trial threads share.  Every short numpy call of a trial
needs it, so per-trial kernels hand the lock from thread to thread many
times per trial and two threads can be slower than one.  A numpy linalg
call over a stack takes the lock once for the whole stack, and the
LAPACK calls of ``linalg._factor`` go through ``ctypes``, which releases
it for the whole call.  On a 2-vCPU Xeon with OpenBLAS on one thread,
400 SVDs of n = 50 took 107 ms on one thread and 120 ms on two as single
calls, and 98 ms and 56 ms as stacks of 25.

Statistics (per realization ``B = A + M`` of dimension ``n``):

* ``smin_scaled``      -- value ``s_min(B) * sqrt(n)``; a grid point
  ``t`` is hit when the value is at most ``t``.
* ``hs_scaled_sqrt``   -- value ``hs_inverse(B) / sqrt(n)``; hit when
  the value is at least ``t``.
* ``hs_scaled_n``      -- value ``hs_inverse(B) / n``; hit when the
  value is at least ``t``.
* ``distance_profile(k, a)`` -- value is the ``k``-th smallest
  row-to-complement distance, so ``value <= a`` says at least ``k``
  rows sit within distance ``a`` of the span of the other rows.  The
  grid supplies the thresholds; a config without one takes the
  statistic's own ``a`` as its one-point grid, under either verb.

Each spec checks and converts its fields once, when it is built, from a
document or from Python: a string or a bool for a number is rejected.

Each trial reports how many grid points it hits, not its value.  The
grid ascends, so the points a trial hits are the last ones of the grid
for the statistics that hit below and the first ones for the others, and
a grid point's count is the number of trials that hit enough points to
reach it.  The first three statistics take their counts from the
certified kernel ``linalg._stack_certified``.  Only the trial's position
among the grid thresholds and the rank tolerance is certified.  A
diagonal dominance screen goes first: Johnson's lower bound on
``s_min`` (C. R. Johnson, Linear Algebra Appl. 112, 1989), ``min_i
(|b_ii| - (R_i + C_i) / 2)`` from the off-diagonal absolute sums of row
and column ``i``, less slacks for rounding, settles in ``O(n**2)`` a
trial that hits no threshold by a wide margin.  The other trials of the
stack take one ``B^T = QR`` and triangular inverse each, and a bracket
of ``s_min`` from norms of the inverse and, when they do not decide,
power iteration.  A trial falls back to the SVD when its rows are
dependent at the rank tolerance, when a threshold or the tolerance lies
within the rounding margin of every value in the bracket, or when 8
power steps do not decide (the top eigenvalue of ``B^-T B^-1`` is about
half its trace), so every hit count and singularity decision is the
SVD's.  At the acceptance configs (5000 trials each) Gaussian n=200
``smin_scaled`` passes no trial through the screen, falls back in one
trial, at the step cap, and decides before the first power step at the
median (2 steps at the 99th percentile).  With uniform rows plus ``10
sqrt(n) I`` the screen decides 4977 ``smin_scaled`` trials (criterion
03) and 4974 ``hs_scaled_n`` trials (criterion 04), and the QR bracket
the rest without a power step or a fallback.  The stack's members that
fall back share one stacked SVD.  The counterexample verb takes the SVD
of every trial, one call per stack: it reads ``s_max`` as well.

Confidence intervals are Wilson score intervals at z = 1.96, which stay
honest for proportions near zero where all the interesting claims live.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
import threading
import time
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, field, fields
from typing import TypeVar

import numpy as np

from .errors import InvalidInputError, decoding, integer, known_keys, number
from .linalg import (
    _row_profile,
    _single_thread_blas,
    _stack_certified,
    _stack_extremes,
    row_distances,
)
from .samplers import RowDistribution, SeedSpec, ShiftSpec, build_shift, sample_matrix

Z_95 = 1.96
SMIN_CONSTANTS = (1.0, 5.0, 10.0)
KAPPA_CONSTANTS = (0.01, 0.1)

STATISTIC_KINDS = ("smin_scaled", "hs_scaled_sqrt", "hs_scaled_n", "distance_profile")

T = TypeVar("T")

# The most matrix entries one stack of trials holds (see map_trials): those of
# one n = 200 trial, the largest of the acceptance configs, which stays a
# stack of one.
STACK_ENTRIES = 200 * 200

# Each calling thread's helper pool for map_trials, its size and the pid it
# was made in.
_pools = threading.local()


def wilson_interval(hits: int, trials: int) -> tuple[float, float]:
    """Wilson score confidence interval for a binomial proportion at ``z =
    Z_95``."""
    with decoding("hits"):
        hits = integer(hits)
    with decoding("trials"):
        trials = integer(trials)
    if trials <= 0:
        raise InvalidInputError("trials must be positive")
    if not (0 <= hits <= trials):
        raise InvalidInputError("hits must lie in [0, trials]")
    p = hits / trials
    z = Z_95
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    margin = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    # the interval contains the point estimate exactly; clamping repairs
    # the one-ulp float shortfall at p near 0 or 1
    return min(max(0.0, center - margin), p), max(min(1.0, center + margin), p)


@dataclass(frozen=True)
class Statistic:
    """Which scalar is computed from each matrix realization."""

    kind: str
    k: int | None = None
    a: float | None = None

    def __post_init__(self):
        if self.kind not in STATISTIC_KINDS:
            raise InvalidInputError(f"unknown statistic {self.kind!r}; choose from {STATISTIC_KINDS}")
        if self.kind != "distance_profile" and (self.k is not None or self.a is not None):
            raise InvalidInputError(f"statistic {self.kind!r} takes no parameters")
        for name, read in (("k", integer), ("a", number)):
            if getattr(self, name) is not None:
                with decoding(name):
                    object.__setattr__(self, name, read(getattr(self, name)))
        if self.kind == "distance_profile" and (self.k is None or self.k < 1):
            raise InvalidInputError("distance_profile needs a cardinality k >= 1")
        if self.a is not None and not self.a > 0:
            raise InvalidInputError("distance threshold a must be positive")

    @classmethod
    def smin_scaled(cls) -> "Statistic":
        return cls("smin_scaled")

    @classmethod
    def hs_scaled_sqrt(cls) -> "Statistic":
        return cls("hs_scaled_sqrt")

    @classmethod
    def hs_scaled_n(cls) -> "Statistic":
        return cls("hs_scaled_n")

    @classmethod
    def distance_profile(cls, k: int, a: float | None = None) -> "Statistic":
        return cls("distance_profile", k=k, a=a)

    @property
    def hit_when_below(self) -> bool:
        """True when a grid point is hit by ``value <= t`` (else ``value >= t``)."""
        return self.kind in ("smin_scaled", "distance_profile")

    def label(self) -> str:
        if self.kind != "distance_profile":
            return self.kind
        a_part = f",a={self.a:g}" if self.a is not None else ""
        return f"distance_profile(k={self.k}{a_part})"

    def to_dict(self) -> dict:
        return {key: value for key, value in asdict(self).items() if value is not None}

    @classmethod
    def from_dict(cls, d: dict) -> "Statistic":
        with decoding("statistic"):
            known_keys(d, [f.name for f in fields(cls)], "statistic")
            return cls(kind=d["kind"], k=d.get("k"), a=d.get("a"))


# The fields of an ExperimentConfig that hold a spec, and the spec's class.
_SPEC_FIELDS = {"dist": RowDistribution, "shift": ShiftSpec, "statistic": Statistic}


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one tail-estimation run."""

    dist: RowDistribution
    shift: ShiftSpec
    n: int
    trials: int
    t_grid: tuple[float, ...]
    master_seed: int
    statistic: Statistic = field(default_factory=Statistic.smin_scaled)

    def __post_init__(self):
        for name, spec in _SPEC_FIELDS.items():
            if not isinstance(getattr(self, name), spec):
                raise InvalidInputError(f"{name} must be a {spec.__name__}, got {getattr(self, name)!r}")
        for name in ("n", "trials", "master_seed"):
            with decoding(name):
                object.__setattr__(self, name, integer(getattr(self, name)))
        if self.n < 1:
            raise InvalidInputError("n must be a positive integer")
        SeedSpec(self.master_seed)  # rejects a seed outside [0, 2**64)
        if self.trials < 1:
            raise InvalidInputError("trials must be a positive integer")
        with decoding("t_grid"):
            grid = tuple(number(t) for t in self.t_grid)
        if not grid and self.statistic.a is not None:
            grid = (self.statistic.a,)  # the statistic's own threshold is the one-point grid
        if any(math.isnan(t) for t in grid):
            raise InvalidInputError("grid thresholds must not be NaN")
        if any(t < 0 for t in grid):
            raise InvalidInputError("grid thresholds must be non-negative")
        if any(grid[i] >= grid[i + 1] for i in range(len(grid) - 1)):
            raise InvalidInputError("t_grid must be strictly increasing")
        object.__setattr__(self, "t_grid", grid)

    def to_dict(self) -> dict:
        return {
            "dist": self.dist.to_dict(),
            "shift": self.shift.to_dict(),
            "n": self.n,
            "trials": self.trials,
            "t_grid": list(self.t_grid),
            "master_seed": self.master_seed,
            "statistic": self.statistic.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        with decoding("experiment config"):
            known_keys(d, [f.name for f in fields(cls)], "experiment config")
            doc = {f.name: d[f.name] for f in fields(cls)}
            for name, spec in _SPEC_FIELDS.items():
                doc[name] = spec.from_dict(doc[name])
            return cls(**doc)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        with decoding("experiment config"):
            return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class GridPointEstimate:
    t: float
    hits: int
    trials: int
    p_hat: float
    ci_low: float
    ci_high: float

    def __post_init__(self):
        for f in fields(self):
            with decoding(f.name):
                read = integer if f.name in ("hits", "trials") else number
                object.__setattr__(self, f.name, read(getattr(self, f.name)))


@dataclass
class TailEstimate:
    """Per-grid-point hit counts with Wilson intervals, plus the config echo."""

    config: ExperimentConfig
    points: list[GridPointEstimate]
    wall_time: float

    def __post_init__(self):
        with decoding("wall_time"):
            self.wall_time = number(self.wall_time)

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "wall_time": self.wall_time,
            "points": [asdict(p) for p in self.points],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, d: dict) -> "TailEstimate":
        with decoding("tail estimate"):
            known_keys(d, [f.name for f in fields(cls)], "tail estimate")
            names = [f.name for f in fields(GridPointEstimate)]
            for p in d["points"]:
                known_keys(p, names, "grid point")
            points = [GridPointEstimate(**{name: p[name] for name in names}) for p in d["points"]]
            return cls(config=ExperimentConfig.from_dict(d["config"]), points=points, wall_time=d["wall_time"])

    @classmethod
    def from_json(cls, text: str) -> "TailEstimate":
        with decoding("tail estimate"):
            return cls.from_dict(json.loads(text))


def resolve_workers(workers: int | None = None) -> int:
    """Worker count: explicit request, capped by ``SMINLAB_THREADS`` when set."""
    if workers is not None:
        with decoding("workers"):
            workers = integer(workers)
        if workers < 1:
            raise InvalidInputError(f"workers must be at least 1, got {workers}")
    count = workers if workers is not None else (os.cpu_count() or 1)
    raw = os.environ.get("SMINLAB_THREADS")
    if raw is not None:
        try:
            cap = int(raw)
            if cap < 1:
                raise ValueError
        except ValueError:
            raise InvalidInputError(
                f"SMINLAB_THREADS must be an integer >= 1, got {raw!r}"
            ) from None
        count = min(count, cap)
    return count


def _helpers(count: int) -> ThreadPoolExecutor:
    """The calling thread's pool of helper threads, grown to hold at least
    ``count``.  The pool is kept per process: a forked child, whose copy of
    the parent's pool has no threads, builds its own."""
    pid = os.getpid()
    if getattr(_pools, "pid", None) != pid:
        _pools.pid, _pools.pool, _pools.size = pid, None, 0
    if _pools.size < count:
        if _pools.pool is not None:
            _pools.pool.shutdown(wait=False)
        _pools.pool = ThreadPoolExecutor(count, thread_name_prefix="sminlab-trials")
        _pools.size = count
    return _pools.pool


def map_trials(
    kernel: Callable[[range], Sequence[T]], trials: int, n: int, workers: int | None = None
) -> list[T]:
    """The results of ``kernel`` for trials ``0 .. trials - 1`` of ``n x n``
    matrices, in trial-index order, on :func:`resolve_workers` threads.

    ``kernel(range(start, stop))`` returns one result per trial of a
    contiguous range of trial indices, a stack.  A stack holds ``share =
    ceil(trials / (4 * nworkers))`` trials, but no more than
    ``STACK_ENTRIES // n**2`` and at least one.  The calling thread keeps
    helper threads across calls, its own and no other caller's, and
    ``min(nworkers, stacks)`` of them drain the stacks: each takes the next
    stack index and writes the stack's results into its slot, so a helper
    that draws cheap stacks takes more of them.  The caller runs no trial;
    it waits, one worker included.  A kernel keyed by the trial index
    therefore gives the same list for any worker count.

    A raising stack stops the helpers from taking further stacks, and the
    map raises the exception of the lowest failing stack.  It returns or
    raises only after every helper has left the map, so BLAS runs
    single-threaded for every trial and gets its previous thread count
    back afterwards.
    """
    nworkers = resolve_workers(workers)
    stack = max(1, min(math.ceil(trials / (4 * nworkers)), STACK_ENTRIES // (n * n)))
    starts = range(0, trials, stack)
    results: list[Sequence[T]] = [()] * len(starts)
    errors: dict[int, BaseException] = {}
    order = iter(range(len(starts)))
    lock = threading.Lock()
    stop = threading.Event()

    def drain() -> None:
        while True:
            with lock:
                i = None if stop.is_set() else next(order, None)
            if i is None:
                return
            try:
                results[i] = kernel(range(starts[i], min(starts[i] + stack, trials)))
            except BaseException as exc:
                with lock:
                    errors[i] = exc
                    stop.set()

    with _single_thread_blas:
        pool = _helpers(nworkers)
        tasks = [pool.submit(drain) for _ in range(min(nworkers, len(starts)))]
        try:
            wait(tasks)
        finally:
            stop.set()  # an interrupted caller still waits out the stacks begun
            wait(tasks)
    if errors:
        raise errors[min(errors)]
    return [value for part in results for value in part]


def _sample_stack(
    dist: RowDistribution, master_seed: int, shift_matrix: np.ndarray, trials: range
) -> np.ndarray:
    """The matrices ``A + shift_matrix`` of ``trials`` as one ``(len(trials),
    n, n)`` stack, ``A`` drawn from the trial's own ``SeedSpec(master_seed,
    idx)`` stream into its member, to which the shift is added in place."""
    n = shift_matrix.shape[0]
    X = np.empty((len(trials), n, n))
    for j, idx in enumerate(trials):
        sample_matrix(dist, n, SeedSpec(master_seed, idx), out=X[j])
    X += shift_matrix
    return X


def _stack_hits(config: ExperimentConfig, shift_matrix: np.ndarray, trials: range) -> list[int]:
    """How many grid points each trial of ``trials`` hits.  The hit points
    are the last ones of the grid when the statistic hits below, the first
    ones otherwise, since the grid ascends."""
    stat, n, grid = config.statistic, config.n, config.t_grid
    if stat.kind == "distance_profile" and stat.k > n:
        return [0] * len(trials)  # no k-th distance: the value is +inf
    X = _sample_stack(config.dist, config.master_seed, shift_matrix, trials)
    if stat.kind == "distance_profile":
        d = _row_profile(X) if n > 1 else np.array([row_distances(B) for B in X])
        values = np.sort(d, axis=1)[:, stat.k - 1].tolist()
        return [sum(value <= t for t in grid) for value in values]
    root = math.sqrt(n)
    if stat.kind == "smin_scaled":
        certified = _stack_certified(X, True, grid, root)
    else:
        certified = _stack_certified(X, False, grid, root if stat.kind == "hs_scaled_sqrt" else n)
    return [c.hits for c in certified]


def _hits_per_trial(config: ExperimentConfig, workers: int | None) -> np.ndarray:
    shift_matrix = build_shift(config.shift, config.n)
    kernel = functools.partial(_stack_hits, config, shift_matrix)
    return np.array(map_trials(kernel, config.trials, config.n, workers), dtype=int)


def estimate_tail(config: ExperimentConfig, workers: int | None = None) -> TailEstimate:
    """Run the Monte Carlo experiment described by ``config``.

    Singular realizations enter the counts as ``s_min = 0`` (and an
    infinite inverse norm), so the estimate stays a total function of
    the sample.  An empty grid yields an empty estimate without
    sampling.
    """
    start = time.perf_counter()
    if not config.t_grid:
        return TailEstimate(config=config, points=[], wall_time=time.perf_counter() - start)
    size = len(config.t_grid)
    h = _hits_per_trial(config, workers)
    points = []
    for j, t in enumerate(config.t_grid):
        hits = int(np.count_nonzero(h >= (size - j if config.statistic.hit_when_below else j + 1)))
        points.append(GridPointEstimate(t, hits, config.trials, hits / config.trials,
                                        *wilson_interval(hits, config.trials)))
    return TailEstimate(config=config, points=points, wall_time=time.perf_counter() - start)


def distance_profile_tail(config: ExperimentConfig, workers: int | None = None) -> TailEstimate:
    """:func:`estimate_tail` of a distance-profile config, which must have
    a threshold: a grid, or the statistic's ``a``, which the config makes
    its one-point grid."""
    if config.statistic.kind != "distance_profile":
        raise InvalidInputError("config must carry a distance_profile statistic")
    if not config.t_grid:
        raise InvalidInputError("need a t_grid or a fixed distance threshold a")
    return estimate_tail(config, workers)


@dataclass
class CounterexampleReport:
    """Summary of the sign-matrix experiment against the two-zero diagonal shift.

    ``corner_frequency`` estimates the probability that the bottom-right
    2x2 block of the sign matrix has both row sums of its last two
    columns equal to zero (expected 1/4).  ``smin_tail[C]`` estimates
    ``P(s_min <= C n / tau)`` for each ``C`` in :data:`SMIN_CONSTANTS` and
    ``kappa_tail[c]`` estimates ``P(condition number >= c tau^2 / n)``
    for each ``c`` in :data:`KAPPA_CONSTANTS`.
    """

    n: int
    tau: float
    trials: int
    master_seed: int
    corner_frequency: float
    corner_ci: tuple[float, float]
    smin_tail: dict[float, float]
    kappa_tail: dict[float, float]
    corner_smin_median: float | None

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "tau": self.tau,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "corner_frequency": self.corner_frequency,
            "corner_ci": list(self.corner_ci),
            "smin_tail": {str(k): v for k, v in self.smin_tail.items()},
            "kappa_tail": {str(k): v for k, v in self.kappa_tail.items()},
            "corner_smin_median": self.corner_smin_median,
        }


def _counterexample_stack(
    shift_matrix: np.ndarray, master_seed: int, trials: range
) -> list[tuple[float, float, bool]]:
    """``(s_min, s_max, corner)`` of the sign matrix plus ``shift_matrix`` of
    each trial of ``trials``; ``corner`` says both row sums of the
    bottom-right 2x2 block of the sign matrix are zero.  The shift is zero
    on that block, so the block is read from the stack."""
    X = _sample_stack(RowDistribution("bernoulli"), master_seed, shift_matrix, trials)
    s_min, s_max, _ = _stack_extremes(X)
    corner = (X[:, -2, -2] + X[:, -2, -1] == 0.0) & (X[:, -1, -2] + X[:, -1, -1] == 0.0)
    return list(zip(s_min.tolist(), s_max.tolist(), corner.tolist()))


def counterexample_experiment(
    n: int, tau: float, trials: int, master_seed: int, workers: int | None = None
) -> CounterexampleReport:
    """Monte Carlo study of sign matrices shifted by ``diag(tau, ..., tau, 0, 0)``."""
    with decoding("n"):
        n = integer(n)
    with decoding("tau"):
        tau = number(tau)
    with decoding("trials"):
        trials = integer(trials)
    if n < 8:
        raise InvalidInputError("n must be at least 8")
    if not math.isfinite(tau):
        raise InvalidInputError(f"tau must be finite, got {tau}")
    if tau < n:
        raise InvalidInputError(f"tau={tau} is outside the regime tau >= n={n}")
    if trials < 1:
        raise InvalidInputError("trials must be positive")
    SeedSpec(master_seed)  # rejects a seed outside [0, 2**64) before any sampling
    shift_matrix = build_shift(ShiftSpec.counterexample(tau), n)
    kernel = functools.partial(_counterexample_stack, shift_matrix, master_seed)
    s_min, s_max, corner = (np.array(column) for column in zip(*map_trials(kernel, trials, n, workers)))
    kappa = np.full(trials, np.inf)
    nonzero = s_min > 0
    kappa[nonzero] = s_max[nonzero] / s_min[nonzero]
    corner_hits = int(corner.sum())
    corner_smin = np.sort(s_min[corner])
    return CounterexampleReport(
        n=n,
        tau=tau,
        trials=trials,
        master_seed=master_seed,
        corner_frequency=corner_hits / trials,
        corner_ci=wilson_interval(corner_hits, trials),
        smin_tail={
            C: float(np.count_nonzero(s_min <= C * n / tau)) / trials
            for C in SMIN_CONSTANTS
        },
        kappa_tail={
            c: float(np.count_nonzero(kappa >= c * tau * tau / n)) / trials
            for c in KAPPA_CONSTANTS
        },
        corner_smin_median=float(np.median(corner_smin)) if corner_smin.size else None,
    )


CSV_COLUMNS = (
    "t",
    "trials",
    "hits",
    "p_hat",
    "ci_low",
    "ci_high",
    "n",
    "statistic",
    "dist",
    "shift",
    "master_seed",
)


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def emit_results(estimate: TailEstimate, path, fmt: str = "csv") -> None:
    """Write a tail estimate to ``path`` as CSV rows or a JSON document.

    CSV numbers are rendered with 17 significant digits so parsing the
    file back reproduces the exact float values; the JSON form mirrors
    :meth:`TailEstimate.to_dict` (Python's shortest round-trip float
    rendering, equally lossless).
    """
    if fmt not in ("csv", "json"):
        raise InvalidInputError(f"format must be 'csv' or 'json', got {fmt!r}")
    cfg = estimate.config
    if fmt == "json":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(estimate.to_json())
            fh.write("\n")
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for p in estimate.points:
            writer.writerow(
                [
                    _fmt17(p.t),
                    p.trials,
                    p.hits,
                    _fmt17(p.p_hat),
                    _fmt17(p.ci_low),
                    _fmt17(p.ci_high),
                    cfg.n,
                    cfg.statistic.label(),
                    cfg.dist.kind,
                    cfg.shift.label(),
                    cfg.master_seed,
                ]
            )
