"""Tests of the benchmark's own machinery: the tail-percentile rule, self
time across threads, and the replay check.

Run from the repository root with ``python -m pytest bench/tests``.
"""

import dataclasses
import threading
import time

import pytest

import workloads
from sminlab import experiments
from sminlab.experiments import ExperimentConfig, Statistic
from sminlab.samplers import RowDistribution, ShiftSpec
from spans import Span, Tracer, nearest_rank, scheduling, self_times, tail_percentile


@pytest.mark.parametrize(
    "count, pct",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
     (10_000, 99.9), (100_000, 99.99)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, pct):
    values = list(range(count, 0, -1))  # unsorted input
    tail = tail_percentile(values)
    if pct is None:
        assert tail is None
        return
    assert tail[0] == pct
    value, beyond = nearest_rank(sorted(values), pct)
    assert tail[1] == value
    assert beyond >= 10
    assert sum(v > value for v in values) == beyond


def test_nearest_rank_is_exact_at_round_counts():
    # 99.9 / 100 * 10_000 is 9990.000000000002 in floating point
    assert nearest_rank(list(range(1, 10_001)), 99.9) == (9990, 10)


def span(id_, parent, thread, start, end, name="x"):
    return Span(id_, parent, name, thread, start, end)


def test_self_time_subtracts_union_of_overlapping_children_on_two_threads():
    spans = [
        span(0, None, 1, 0.0, 10.0),
        span(1, 0, 2, 1.0, 6.0),   # worker thread A
        span(2, 0, 3, 4.0, 8.0),   # worker thread B, overlaps A on [4, 6]
        span(3, 1, 2, 2.0, 3.0),   # grandchild: part of A's time, not the root's
        span(4, 0, 3, 9.0, 12.0),  # runs past the parent's end; only [9, 10] counts
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 7.0 - 1.0)
    assert selfs[1] == pytest.approx(4.0)
    assert selfs[2] == pytest.approx(4.0)


def test_tracer_charges_worker_thread_spans_to_the_adopting_span():
    tracer = Tracer()
    release = threading.Barrier(2, timeout=10)

    def worker():
        s = tracer.begin("child")
        release.wait()  # both children are open at once
        tracer.end(s)

    root = tracer.begin("experiments.call", adopt=True)
    threads = [threading.Thread(target=worker) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    tracer.end(root)
    kids = [s for s in tracer.spans if s.name == "child"]
    assert len(kids) == 2 and all(s.parent == root.id for s in kids)
    assert len({s.thread for s in kids}) == 2
    covered = max(s.end for s in kids) - min(s.start for s in kids)
    assert self_times(tracer.spans)[root.id] == pytest.approx(root.duration - covered)
    overhead, idle = scheduling(tracer.spans, workers=2)
    busy = sum(s.duration for s in kids)
    assert overhead == pytest.approx(root.duration - busy / 2)
    assert idle == pytest.approx(sum(root.end - s.end for s in kids))


def small_config(statistic=Statistic.smin_scaled(), grid=(0.1, 0.5, 1.0, 2.0)):
    return ExperimentConfig(RowDistribution("gaussian"), ShiftSpec.zero(), 6, 40, grid, 7, statistic)


@pytest.mark.parametrize(
    "config",
    [small_config(),
     small_config(Statistic.hs_scaled_n(), (0.5, 1.0, 4.0)),
     small_config(Statistic.distance_profile(2, 0.5), (0.2, 0.5, 1.0))],
)
def test_replay_through_public_functions_matches_estimate(config):
    est = experiments.estimate_tail(config, workers=2)
    assert workloads.tail_mismatches(est, workloads.tail_values(config)) == 0


def test_replay_counts_each_differing_grid_point():
    config = small_config()
    est = experiments.estimate_tail(config, workers=1)
    values = workloads.tail_values(config)
    est.points[1] = dataclasses.replace(est.points[1], hits=est.points[1].hits + 1)
    assert workloads.tail_mismatches(est, values) == 1
    est.points.pop()
    assert workloads.tail_mismatches(est, values) == 2


def test_workload_inputs_are_a_function_of_the_seed():
    a, b = workloads.McTail(3), workloads.McTail(3)
    assert a.configs == b.configs and a.cex == b.cex
    assert a.configs != workloads.McTail(4).configs


def test_host_correction_scales_each_call_by_the_reference_around_it():
    nominal = workloads.REFERENCE_NOMINAL_S
    rnd = workloads.Round()
    rnd.record("slow host", 1, lambda: time.sleep(0.02), lambda out: (0, [], None))
    assert rnd.references["slow host"] > 0
    rnd.walls, rnd.cpus = {"slow": 2.0, "fast": 1.0}, {"slow": 1.0, "fast": 0.5}
    rnd.references = {"slow": 2.0 * nominal, "fast": 0.5 * nominal}
    assert rnd.times(False) == (3.0, 1.5)
    assert rnd.times(True) == pytest.approx((1.0 + 2.0, 0.5 + 1.0))
