"""The benchmark's workloads: inputs made from the seed, one round of work
through sminlab's public API, the checks on its outputs, and the replay of
Monte Carlo trials through public functions.

An item is one matrix realization in the ``mc_*`` workloads and one suite
instance (the cube demo counting as one) in ``lemma_suites``.  Every call
uses the program's defaults: no worker count unless a caller passes one, no
thread or BLAS settings.
"""

from __future__ import annotations

import math
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from sminlab import alphaeta, experiments, linalg, samplers, suites
from sminlab.experiments import ExperimentConfig, Statistic
from sminlab.samplers import RowDistribution, SeedSpec, ShiftSpec

# the cube demo of criterion 11: n, K, atoms per factor, and its exact event probability
CUBE_N, CUBE_K, CUBE_ATOMS = 4, 10.0, 40
CUBE_EVENT_PROBABILITY = 0.1420609375
CUBE_TOLERANCE = 1e-9

# The host-speed reference: a fixed loop of tiny numpy calls from the
# interpreter, the kind of work lemma_suites is made of, and no sminlab code,
# so no change to the program moves it.  On a shared host the speed of such
# code drifts by a third over minutes while BLAS-bound code barely moves;
# timing the reference just before and just after each call lets a run
# report what that call would have taken at the reference's nominal speed.
REFERENCE_MATRIX = np.random.default_rng(0).standard_normal((12, 12))
REFERENCE_CALLS = 500
REFERENCE_NOMINAL_S = 0.008  # the loop's time in a fast spell of a shared 2-vCPU Xeon host


def reference_s() -> float:
    """Wall time of the host-speed reference loop."""
    start = time.perf_counter()
    for _ in range(REFERENCE_CALLS):
        np.linalg.qr(REFERENCE_MATRIX, mode="r")
    return time.perf_counter() - start


def derived_seeds(seed: int, workload: str, count: int) -> list[int]:
    """Master seeds handed to the program, a pure function of the benchmark
    seed."""
    seq = np.random.SeedSequence([seed, zlib.crc32(workload.encode())])
    return [int(s) for s in seq.generate_state(count)]


@dataclass
class Round:
    """Items attempted and failed in one round, and every call's output,
    wall and CPU time, and the host-speed reference timed around it."""

    items: int = 0
    failed: int = 0
    outputs: dict = field(default_factory=dict)
    fingerprints: dict = field(default_factory=dict)
    walls: dict = field(default_factory=dict)
    cpus: dict = field(default_factory=dict)
    references: dict = field(default_factory=dict)
    messages: list[str] = field(default_factory=list)

    def record(self, label: str, items: int, call, check) -> None:
        """Run ``call()`` as ``items`` items; ``check(output)`` returns
        ``(failed_items, problems, fingerprint)``."""
        self.items += items
        before = reference_s()
        start, cpu = time.perf_counter(), time.process_time()
        try:
            out = call()
        except Exception as exc:  # a raising call fails its items; the run goes on
            self.failed += items
            self.messages.append(f"{label}: raised {exc!r}")
            self.fingerprints[label] = None
            return
        finally:
            self.walls[label] = time.perf_counter() - start
            self.cpus[label] = time.process_time() - cpu
            self.references[label] = (before + reference_s()) / 2.0
        failed, problems, fingerprint = check(out)
        self.failed += failed
        self.messages.extend(f"{label}: {p}" for p in problems)
        self.outputs[label] = out
        self.fingerprints[label] = fingerprint

    def times(self, corrected: bool) -> tuple[float, float]:
        """Wall and CPU seconds summed over the round's calls, each call
        scaled to the reference's nominal speed when ``corrected``."""
        scale = {
            label: REFERENCE_NOMINAL_S / self.references[label] if corrected else 1.0
            for label in self.walls
        }
        return (sum(self.walls[label] * k for label, k in scale.items()),
                sum(self.cpus[label] * k for label, k in scale.items()))


def _monotone(values, increasing: bool) -> bool:
    pairs = zip(values, values[1:])
    return all(a <= b for a, b in pairs) if increasing else all(a >= b for a, b in pairs)


def check_tail(config: ExperimentConfig):
    def check(est):
        hits = [p.hits for p in est.points]
        problems = []
        if [p.t for p in est.points] != list(config.t_grid):
            problems.append("grid points differ from the config")
        if any(not (0 <= h <= config.trials) for h in hits):
            problems.append(f"hit counts {hits} outside [0, {config.trials}]")
        if not _monotone(hits, config.statistic.hit_when_below):
            problems.append(f"hit counts {hits} not monotone along the grid")
        return (config.trials if problems else 0), problems, tuple(hits)

    return check


def tail_values(config: ExperimentConfig) -> np.ndarray:
    """Per-trial statistic recomputed through public functions only."""
    shift = samplers.build_shift(config.shift, config.n)
    stat = config.statistic
    values = np.empty(config.trials)
    for idx in range(config.trials):
        B = samplers.sample_matrix(config.dist, config.n, SeedSpec(config.master_seed, idx)) + shift
        if stat.kind == "distance_profile":
            values[idx] = (
                math.inf if stat.k > config.n else float(np.sort(linalg.row_distances(B))[stat.k - 1])
            )
        elif stat.kind == "smin_scaled":
            s = linalg.singular_values(B)
            singular = s[-1] <= linalg.RANK_RTOL * float(np.max(np.linalg.norm(B, axis=1)))
            values[idx] = 0.0 if singular else float(s[-1]) * math.sqrt(config.n)
        elif stat.kind == "hs_scaled_sqrt":
            values[idx] = linalg.hs_inverse(B) / math.sqrt(config.n)
        else:
            values[idx] = linalg.hs_inverse(B) / config.n
    return values


def grid_hits(config: ExperimentConfig, values: np.ndarray) -> list[int]:
    if config.statistic.hit_when_below:
        return [int(np.count_nonzero(values <= t)) for t in config.t_grid]
    return [int(np.count_nonzero(values >= t)) for t in config.t_grid]


def tail_mismatches(est, values: np.ndarray) -> int:
    """Grid points whose hit count differs from the replayed count."""
    replayed = grid_hits(est.config, values)
    got = [p.hits for p in est.points]
    return sum(a != b for a, b in zip(got, replayed)) + abs(len(got) - len(replayed))


class McTail:
    """Shapes of acceptance criteria 02-05 at a reduced trial count."""

    name = "mc_tail"
    parallel = True
    host_corrected = False  # LAPACK on worker threads: the reference does not track it

    def __init__(self, seed: int):
        s = derived_seeds(seed, self.name, 5)
        grid = tuple(float(t) for t in np.linspace(0.05, 0.5, 10))
        shift = ShiftSpec.scaled_identity(10.0 * math.sqrt(100))
        uniform = RowDistribution("uniform_entry")
        self.configs = {
            "gaussian_n200_smin": ExperimentConfig(
                RowDistribution("gaussian"), ShiftSpec.zero(), 200, 150, grid, s[0]
            ),
            "uniform_n100_shift_smin": ExperimentConfig(uniform, shift, 100, 150, grid, s[1]),
            "uniform_n100_shift_hs": ExperimentConfig(
                uniform, shift, 100, 150, (1.0, 2.0, 4.0), s[2], Statistic.hs_scaled_n()
            ),
        }
        self.cex = dict(n=50, tau=2500.0, trials=400, master_seed=s[3])
        self.setup_argv = [
            "tail", "--dist", "gaussian", "--n", "200", "--trials", "1",
            "--shift", "zero", "--t-grid", "0.05:0.5:10", "--seed", str(s[4]),
        ]

    def run_round(self, workers: int | None = None) -> Round:
        r = Round()
        for label, cfg in self.configs.items():
            r.record(label, cfg.trials, lambda: experiments.estimate_tail(cfg, workers=workers),
                     check_tail(cfg))
        r.record("sign_n50_counterexample", self.cex["trials"],
                 lambda: experiments.counterexample_experiment(**self.cex, workers=workers),
                 self._check_counterexample)
        return r

    def _check_counterexample(self, rep):
        trials = self.cex["trials"]
        smin = [rep.smin_tail[c] for c in sorted(rep.smin_tail)]
        kappa = [rep.kappa_tail[c] for c in sorted(rep.kappa_tail)]
        problems = []
        if any(not (0.0 <= p <= 1.0) for p in [rep.corner_frequency, *smin, *kappa]):
            problems.append("a frequency lies outside [0, 1]")
        if not (_monotone(smin, True) and _monotone(kappa, False)):
            problems.append(f"tails not monotone: smin {smin}, kappa {kappa}")
        fingerprint = (rep.corner_frequency, tuple(smin), tuple(kappa), rep.corner_smin_median)
        return (trials if problems else 0), problems, fingerprint

    def replay(self, outputs: dict) -> int:
        """Grid points where the program's counts differ from a replay
        through ``sample_matrix``, ``build_shift`` and ``linalg``."""
        mismatches = sum(
            tail_mismatches(outputs[label], tail_values(cfg))
            for label, cfg in self.configs.items()
        )
        return mismatches + self._replay_counterexample(outputs["sign_n50_counterexample"])

    def _replay_counterexample(self, rep) -> int:
        n, tau, trials, seed = (self.cex[k] for k in ("n", "tau", "trials", "master_seed"))
        shift = samplers.build_shift(ShiftSpec.counterexample(tau), n)
        signs = RowDistribution("bernoulli")
        s_min = np.empty(trials)
        s_max = np.empty(trials)
        corner = np.empty(trials, dtype=bool)
        for idx in range(trials):
            A = samplers.sample_matrix(signs, n, SeedSpec(seed, idx))
            B = A + shift
            s = linalg.singular_values(B)
            singular = s[-1] <= linalg.RANK_RTOL * float(np.max(np.linalg.norm(B, axis=1)))
            s_min[idx] = 0.0 if singular else s[-1]
            s_max[idx] = s[0]
            corner[idx] = (A[n - 2, n - 2] + A[n - 2, n - 1] == 0.0) and (
                A[n - 1, n - 2] + A[n - 1, n - 1] == 0.0
            )
        kappa = np.full(trials, np.inf)
        kappa[s_min > 0] = s_max[s_min > 0] / s_min[s_min > 0]
        expected = [round(rep.corner_frequency * trials)]
        replayed = [int(corner.sum())]
        for C, frac in rep.smin_tail.items():
            expected.append(round(frac * trials))
            replayed.append(int(np.count_nonzero(s_min <= C * n / tau)))
        for c, frac in rep.kappa_tail.items():
            expected.append(round(frac * trials))
            replayed.append(int(np.count_nonzero(kappa >= c * tau * tau / n)))
        return sum(a != b for a, b in zip(expected, replayed))


class McProfile:
    """Distance-profile sweep of acceptance criterion 12 (Gaussian n=100)."""

    name = "mc_profile"
    parallel = True
    host_corrected = False  # LAPACK on worker threads: the reference does not track it
    KS = (2, 4, 8, 16, 32)

    def __init__(self, seed: int):
        s = derived_seeds(seed, self.name, 2)
        # one master seed for every k: the same matrices, so hits cannot rise with k
        self.configs = {
            f"profile_k{k}": ExperimentConfig(
                RowDistribution("gaussian"), ShiftSpec.zero(), 100, 30, (0.35, 0.7, 1.4), s[0],
                Statistic.distance_profile(k, 0.7),
            )
            for k in self.KS
        }
        self.setup_argv = [
            "distance-profile", "--dist", "gaussian", "--n", "100", "--trials", "1",
            "--k", "8", "--a", "0.7", "--seed", str(s[1]),
        ]

    def run_round(self, workers: int | None = None) -> Round:
        r = Round()
        for label, cfg in self.configs.items():
            r.record(label, cfg.trials,
                     lambda: experiments.distance_profile_tail(cfg, workers=workers),
                     check_tail(cfg))
        hits = [r.fingerprints.get(label) for label in self.configs]
        if all(h is not None for h in hits) and not all(
            _monotone(col, False) for col in zip(*hits)
        ):
            r.failed = r.items
            r.messages.append(f"hit counts rise with k: {hits}")
        return r

    def replay(self, outputs: dict) -> int:
        """Grid points where the program's counts differ from a replay
        through ``sample_matrix``, ``build_shift`` and ``row_distances``."""
        return sum(
            tail_mismatches(outputs[label], tail_values(cfg))
            for label, cfg in self.configs.items()
        )


# (suite, runner attribute in sminlab.suites, keyword arguments).  Each suite
# draws its instance sizes from the seed, and a low-value matrix costs
# roughly n^4 for n in 4..12, so the suites with steady per-instance cost
# get most of a round and the round's work varies little from seed to seed;
# at 25 + 6 matrices the low-value suite took 1.0 to 1.6 s of a 5 s round,
# depending on the seed.
SUITE_PLAN = (
    ("pivot", "run_pivot_suite", {"instances": 3000}),
    ("q-sets", "run_q_sets_suite", {"instances": 360}),
    ("edge-interval", "run_edge_interval_suite", {"instances": 200}),
    ("low-value", "run_low_value_suite", {"matrices": 12, "triple_matrices": 3}),
    ("dichotomy", "run_dichotomy_suite", {"instances": 200}),
    ("alpharho", "run_alpharho_suite", {"instances": 360}),
    ("biorthogonality", "run_biorthogonality_suite", {"instances": 360}),
)


class LemmaSuites:
    """The seven ``lemma-check`` suites plus the cube ``alphaeta-demo``."""

    name = "lemma_suites"
    parallel = False
    host_corrected = True  # interpreter-bound, like the reference

    def __init__(self, seed: int):
        s = derived_seeds(seed, self.name, len(SUITE_PLAN) + 1)
        self.plan = [(suite, runner, kwargs, s[j]) for j, (suite, runner, kwargs) in enumerate(SUITE_PLAN)]
        self.setup_argv = [
            "lemma-check", "--suite", "q-sets", "--instances", "1", "--seed", str(s[-1]),
        ]

    def run_round(self, workers: int | None = None) -> Round:
        r = Round()
        for suite, runner, kwargs, seed in self.plan:
            items = sum(kwargs.values())
            r.record(suite, items, lambda: getattr(suites, runner)(seed=seed, **kwargs),
                     lambda res, items=items: self._check_suite(res, items))
        r.record("cube", 1, self._cube, self._check_cube)
        return r

    @staticmethod
    def _check_suite(res, items: int):
        fingerprint = (res.instances, res.failures)
        if res.instances != items:
            return items, [f"ran {res.instances} instances, expected {items}"], fingerprint
        return res.failures, [res.summary(), *res.messages] if res.failures else [], fingerprint

    @staticmethod
    def _cube():
        struct = alphaeta.cube_example_structure(CUBE_N, CUBE_K, CUBE_ATOMS)
        return struct.verify_alpharho()

    @staticmethod
    def _check_cube(report):
        problems = []
        if abs(report.event_probability - CUBE_EVENT_PROBABILITY) > CUBE_TOLERANCE:
            problems.append(f"event probability {report.event_probability!r}")
        if not report.holds or report.event_probability > report.rhs / CUBE_K:
            problems.append(f"inequality fails: lhs {report.lhs!r}, rhs {report.rhs!r}")
        return (1 if problems else 0), problems, (report.event_probability, report.lhs)

    def replay(self, outputs: dict) -> int:
        return 0


WORKLOADS = {w.name: w for w in (McTail, McProfile, LemmaSuites)}
