"""Reproducible Monte Carlo estimation of tail probabilities.

One matrix realization per trial serves every grid point, which keeps
hit counts monotone along the grid and reduces variance.  Trials are
keyed by ``(master_seed, trial_index)`` so serial and parallel runs
produce bit-identical results.  Every Monte Carlo verb runs its trials
through :func:`map_trials`, one thread pool whose worker count the
``SMINLAB_THREADS`` environment variable caps.  While a map runs, the
OpenBLAS copies bundled with numpy and scipy are set to one thread each,
so each worker computes on its own core instead of starting BLAS threads
that compete with the other workers; the previous thread counts are
restored when the map ends.

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
  grid supplies the thresholds; the statistic's own ``a`` serves as a
  single-point grid for :func:`distance_profile_tail`.

The first three take their value from the certified QR kernel
``linalg._certified``: one ``B^T = QR`` and triangular inverse per
trial, power iteration for ``s_min``.  A trial falls back to the SVD
when its rows are dependent at the rank tolerance, when the certificate
is out of reach (the spectrum of ``B^-1`` has no dominant top) or takes
more than 32 power steps, or when the certified value lies within the
rounding margin of a grid threshold or of the rank tolerance, so every
hit count and singularity decision is the SVD's.  At the acceptance
configs Gaussian n=200 ``smin_scaled`` falls back in 7% of trials (it
certifies in 6 power steps at the median, 25 at the 99th percentile);
uniform rows plus ``10 sqrt(n) I`` fall back in every ``smin_scaled``
trial (clustered spectrum) and in no ``hs_scaled_*`` trial.  The
counterexample verb keeps the SVD: it reads ``s_max`` as well.

Confidence intervals are Wilson score intervals at z = 1.96, which stay
honest for proportions near zero where all the interesting claims live.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import glob
import importlib
import json
import math
import os
import threading
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from numbers import Real
from typing import TypeVar

import numpy as np

from .errors import InvalidInputError, decoding, integer, number
from .linalg import _certified, _extremes, row_distances
from .samplers import RowDistribution, SeedSpec, ShiftSpec, build_shift, sample_matrix

Z_95 = 1.96

STATISTIC_KINDS = ("smin_scaled", "hs_scaled_sqrt", "hs_scaled_n", "distance_profile")

T = TypeVar("T")


def wilson_interval(hits: int, trials: int) -> tuple[float, float]:
    """Wilson score confidence interval for a binomial proportion at ``z =
    Z_95``."""
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
            raise InvalidInputError(
                f"unknown statistic {self.kind!r}; choose from {STATISTIC_KINDS}"
            )
        if self.kind == "distance_profile":
            if self.k is None or self.k < 1:
                raise InvalidInputError("distance_profile needs a cardinality k >= 1")
            if self.a is not None and not self.a > 0:
                raise InvalidInputError("distance threshold a must be positive")
        elif self.k is not None or self.a is not None:
            raise InvalidInputError(f"statistic {self.kind!r} takes no parameters")

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
        d: dict = {"kind": self.kind}
        if self.k is not None:
            d["k"] = self.k
        if self.a is not None:
            d["a"] = self.a
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Statistic":
        with decoding("statistic"):
            k, a = d.get("k"), d.get("a")
            return cls(
                kind=d["kind"],
                k=None if k is None else integer(k),
                a=None if a is None else number(a),
            )


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
        if self.n < 1:
            raise InvalidInputError("n must be a positive integer")
        SeedSpec(self.master_seed)  # rejects a seed outside [0, 2**64)
        if self.trials < 1:
            raise InvalidInputError("trials must be a positive integer")
        grid = tuple(float(t) for t in self.t_grid)
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
            return cls(
                dist=RowDistribution.from_dict(d["dist"]),
                shift=ShiftSpec.from_dict(d["shift"]),
                n=integer(d["n"]),
                trials=integer(d["trials"]),
                t_grid=tuple(number(t) for t in d["t_grid"]),
                master_seed=integer(d["master_seed"]),
                statistic=Statistic.from_dict(d["statistic"]),
            )

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


@dataclass
class TailEstimate:
    """Per-grid-point hit counts with Wilson intervals, plus the config echo."""

    config: ExperimentConfig
    points: list[GridPointEstimate]
    wall_time: float

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "wall_time": self.wall_time,
            "points": [
                {
                    "t": p.t,
                    "hits": p.hits,
                    "trials": p.trials,
                    "p_hat": p.p_hat,
                    "ci_low": p.ci_low,
                    "ci_high": p.ci_high,
                }
                for p in self.points
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, d: dict) -> "TailEstimate":
        with decoding("tail estimate"):
            return cls(
                config=ExperimentConfig.from_dict(d["config"]),
                points=[GridPointEstimate(**p) for p in d["points"]],
                wall_time=number(d["wall_time"]),
            )

    @classmethod
    def from_json(cls, text: str) -> "TailEstimate":
        with decoding("tail estimate"):
            return cls.from_dict(json.loads(text))


def resolve_workers(workers: int | None = None) -> int:
    """Worker count: explicit request, capped by ``SMINLAB_THREADS`` when set."""
    if workers is not None and workers < 1:
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


# The OpenBLAS copies bundled with the numpy and scipy wheels: package,
# sibling library directory, file pattern, thread-count getter and setter.
# numpy's serves np.linalg (the SVDs); scipy's serves scipy.linalg.lapack
# (the QR and triangular inverse of row_distances).
_OPENBLAS = (
    ("numpy", "numpy.libs", "libscipy_openblas64_*.so",
     "scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy", "scipy.libs", "libscipy_openblas-*.so",
     "scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


@functools.cache
def _openblas_thread_controls() -> tuple[tuple[Callable[[], int], Callable[[int], None]], ...]:
    """``(get, set)`` process-wide thread-count functions of every bundled
    OpenBLAS found; empty under any other BLAS."""
    controls = []
    for package, libdir, pattern, getter, setter in _OPENBLAS:
        site = os.path.dirname(os.path.dirname(importlib.import_module(package).__file__))
        for path in sorted(glob.glob(os.path.join(site, libdir, pattern))):
            try:
                lib = ctypes.CDLL(path)
                get, set_ = getattr(lib, getter), getattr(lib, setter)
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            controls.append((get, set_))
    return tuple(controls)


class _SingleThreadBlas:
    """Context manager that runs every bundled OpenBLAS on one thread.

    Trial workers already use every core, and a BLAS that starts threads
    of its own inside each of them oversubscribes the machine.  BLAS
    thread counts are process-wide, so this state is too: overlapping
    uses (maps on several Python threads) are counted under a lock, the
    first to enter saves the counts and the last to leave restores them.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._active = 0
        self._saved: tuple = ()

    def __enter__(self):
        with self._lock:
            if self._active == 0:
                self._saved = tuple((set_, get()) for get, set_ in _openblas_thread_controls())
                for set_, _ in self._saved:
                    set_(1)
            self._active += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._active -= 1
            if self._active == 0:
                for set_, count in self._saved:
                    set_(count)
                self._saved = ()


_single_thread_blas = _SingleThreadBlas()


def map_trials(kernel: Callable[[int], T], trials: int, workers: int | None = None) -> list[T]:
    """``[kernel(i) for i in range(trials)]`` on :func:`resolve_workers` threads.

    Runs serially with one worker or fewer than four trials; otherwise
    contiguous chunks of trial indices go to a thread pool (about eight
    chunks per worker).  Results come back in trial-index order, so a
    kernel keyed by the trial index gives the same list for any worker
    count.  BLAS runs single-threaded for the whole map, serial or
    parallel, and gets its previous thread count back afterwards, also
    when a kernel raises.
    """
    nworkers = resolve_workers(workers)
    with _single_thread_blas:
        if nworkers == 1 or trials < 4:
            return [kernel(idx) for idx in range(trials)]
        chunk = max(1, math.ceil(trials / (nworkers * 8)))

        def run_chunk(start: int) -> list[T]:
            return [kernel(idx) for idx in range(start, min(start + chunk, trials))]

        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            chunks = list(pool.map(run_chunk, range(0, trials, chunk)))
    return [value for part in chunks for value in part]


def _trial_value(config: ExperimentConfig, shift_matrix: np.ndarray, trial_index: int) -> float:
    A = sample_matrix(config.dist, config.n, SeedSpec(config.master_seed, trial_index))
    B = A + shift_matrix
    stat = config.statistic
    if stat.kind == "distance_profile":
        if stat.k > config.n:
            return math.inf
        d = np.sort(row_distances(B))
        return float(d[stat.k - 1])
    root = math.sqrt(config.n)
    if stat.kind == "smin_scaled":
        return _certified(B, True, [t / root for t in config.t_grid]).value * root
    unit = root if stat.kind == "hs_scaled_sqrt" else config.n
    return _certified(B, False, [t * unit for t in config.t_grid]).value / unit


def _trial_values(config: ExperimentConfig, workers: int | None) -> np.ndarray:
    shift_matrix = build_shift(config.shift, config.n)
    kernel = functools.partial(_trial_value, config, shift_matrix)
    return np.array(map_trials(kernel, config.trials, workers))


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
    values = _trial_values(config, workers)
    points = []
    for t in config.t_grid:
        if config.statistic.hit_when_below:
            hits = int(np.count_nonzero(values <= t))
        else:
            hits = int(np.count_nonzero(values >= t))
        low, high = wilson_interval(hits, config.trials)
        points.append(
            GridPointEstimate(
                t=t,
                hits=hits,
                trials=config.trials,
                p_hat=hits / config.trials,
                ci_low=low,
                ci_high=high,
            )
        )
    return TailEstimate(config=config, points=points, wall_time=time.perf_counter() - start)


def distance_profile_tail(config: ExperimentConfig, workers: int | None = None) -> TailEstimate:
    """Tail estimate for the distance-profile statistic.

    Uses the config grid as the sweep of distance thresholds when one
    is given; otherwise falls back to the single threshold carried by
    the statistic.
    """
    stat = config.statistic
    if stat.kind != "distance_profile":
        raise InvalidInputError("config must carry a distance_profile statistic")
    if not config.t_grid:
        if stat.a is None:
            raise InvalidInputError("need a t_grid or a fixed distance threshold a")
        config = replace(config, t_grid=(stat.a,))
    return estimate_tail(config, workers)


@dataclass
class CounterexampleReport:
    """Summary of the sign-matrix experiment against the two-zero diagonal shift.

    ``corner_frequency`` estimates the probability that the bottom-right
    2x2 block of the sign matrix has both row sums of its last two
    columns equal to zero (expected 1/4).  ``smin_tail[C]`` estimates
    ``P(s_min <= C n / tau)`` and ``kappa_tail[c]`` estimates
    ``P(condition number >= c tau^2 / n)``.
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


def _counterexample_trial(
    shift_matrix: np.ndarray, master_seed: int, trial_index: int
) -> tuple[float, float, bool]:
    """``(s_min, s_max, corner)`` of one sign matrix plus ``shift_matrix``;
    ``corner`` says both row sums of the bottom-right 2x2 block are zero."""
    n = shift_matrix.shape[0]
    B = sample_matrix(RowDistribution("bernoulli"), n, SeedSpec(master_seed, trial_index))
    s_min, s_max, _ = _extremes(B + shift_matrix)
    corner = (B[n - 2, n - 2] + B[n - 2, n - 1] == 0.0) and (
        B[n - 1, n - 2] + B[n - 1, n - 1] == 0.0
    )
    return s_min, s_max, corner


def counterexample_experiment(
    n: int,
    tau: float,
    trials: int,
    master_seed: int,
    smin_constants: tuple[float, ...] = (1.0, 5.0, 10.0),
    kappa_constants: tuple[float, ...] = (0.01, 0.1),
    workers: int | None = None,
) -> CounterexampleReport:
    """Monte Carlo study of sign matrices shifted by ``diag(tau, ..., tau, 0, 0)``."""
    if n < 8:
        raise InvalidInputError("n must be at least 8")
    if not math.isfinite(tau):
        raise InvalidInputError(f"tau must be finite, got {tau}")
    if tau < n:
        raise InvalidInputError(f"tau={tau} is outside the regime tau >= n={n}")
    if trials < 1:
        raise InvalidInputError("trials must be positive")
    SeedSpec(master_seed)  # rejects a seed outside [0, 2**64) before any sampling
    for name, constants in (("smin_constants", smin_constants), ("kappa_constants", kappa_constants)):
        for c in constants:
            if isinstance(c, bool) or not isinstance(c, Real) or not (0.0 <= c < math.inf):
                raise InvalidInputError(f"{name} must be finite and non-negative, got {c!r}")
    shift_matrix = build_shift(ShiftSpec.counterexample(tau), n)
    kernel = functools.partial(_counterexample_trial, shift_matrix, master_seed)
    s_min, s_max, corner = (np.array(column) for column in zip(*map_trials(kernel, trials, workers)))
    kappa = np.full(trials, np.inf)
    nonzero = s_min > 0
    kappa[nonzero] = s_max[nonzero] / s_min[nonzero]
    corner_hits = int(corner.sum())
    corner_smin = np.sort(s_min[corner])
    return CounterexampleReport(
        n=n,
        tau=float(tau),
        trials=trials,
        master_seed=master_seed,
        corner_frequency=corner_hits / trials,
        corner_ci=wilson_interval(corner_hits, trials),
        smin_tail={
            float(C): float(np.count_nonzero(s_min <= C * n / tau)) / trials
            for C in smin_constants
        },
        kappa_tail={
            float(c): float(np.count_nonzero(kappa >= c * tau * tau / n)) / trials
            for c in kappa_constants
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
