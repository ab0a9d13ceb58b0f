"""In-memory spans around the calls into sminlab's layers.

The program is not edited: :func:`instrument` swaps the attributes through
which the layers call each other (``suites`` calling ``combinatorics.q_sets``,
``experiments`` calling ``sample_matrix``, ...) for timing wrappers and puts
the originals back on exit.  Spans stay in memory until the benchmark writes
them out.

A span started on a thread with no open span of its own (a trial worker of
the experiments thread pool) is parented to the innermost open *adopting*
span, so trial work done on worker threads is charged to the experiments
call that scheduled it.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# Percentiles tried for the tail, highest first; the tail is the highest one
# that still has at least TAIL_MIN_BEYOND samples above it.
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float = math.nan
    work: float = 0.0  # layer-specific work done by the call (atoms, flops)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects finished spans; safe to use from several threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._adopters: list[Span] = []
        self._adopters_lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, adopt: bool = False) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            with self._adopters_lock:
                parent = self._adopters[-1].id if self._adopters else None
        span = Span(next(self._ids), parent, name, threading.get_ident(), time.perf_counter())
        stack.append(span)
        if adopt:
            with self._adopters_lock:
                self._adopters.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        with self._adopters_lock:
            if self._adopters and self._adopters[-1] is span:
                self._adopters.pop()
        self.spans.append(span)  # list.append is atomic under the GIL


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``owner.attr`` recorded as span ``name``.

    ``work(args, kwargs, result)`` returns the work count stored on the span;
    ``adopt`` makes the span the parent of spans started on idle threads.
    """

    owner: object
    attr: str
    name: str
    adopt: bool = False
    work: object = None


def _wrap(tracer: Tracer, fn, target: Target):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.begin(target.name, target.adopt)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if target.work is not None:
            span.work = target.work(args, kwargs, result)
        return result

    return traced


@contextmanager
def instrument(tracer: Tracer, targets, namespaces):
    """Wrap every target while the block runs.

    Each original is replaced on its owner and under every name that binds
    it in ``namespaces`` (``from .linalg import span_basis`` makes a second
    binding in ``combinatorics``).  Yields the names of targets that do not
    exist, so a renamed function shows up as missing rather than as zero.
    """
    patches = []
    missing = []
    try:
        for target in targets:
            original = getattr(target.owner, target.attr, None)
            if original is None:
                missing.append(target.name)
                continue
            wrapper = _wrap(tracer, original, target)
            for ns in (target.owner, *namespaces):
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        patches.append((ns, attr, original))
                        setattr(ns, attr, wrapper)
        yield missing
    finally:
        for ns, attr, original in reversed(patches):
            setattr(ns, attr, original)


def union_length(intervals) -> float:
    """Total length covered by a collection of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_of(spans) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            out[s.parent].append(s)
    return out


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its children.

    Children may run on other threads and overlap each other; the covered
    part is the union of their intervals, clipped to the parent's.
    """
    kids = children_of(spans)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c.start, s.start), min(c.end, s.end)) for c in kids.get(s.id, ())
        )
        out[s.id] = s.duration - covered
    return out


def nearest_rank(sorted_values, pct: float) -> tuple[float, int]:
    """Nearest-rank percentile of ascending values and the count above it."""
    n = len(sorted_values)
    rank = max(1, -(-round(pct * 100) * n // 10000))  # ceil(pct / 100 * n), exactly
    return sorted_values[rank - 1], n - rank


def tail_percentile(values) -> tuple[float, float] | None:
    """``(pct, value)`` of the highest ladder percentile with at least
    ``TAIL_MIN_BEYOND`` samples beyond it, or ``None`` when there are too
    few samples for any."""
    xs = sorted(values)
    if not xs:
        return None
    for pct in TAIL_LADDER:
        value, beyond = nearest_rank(xs, pct)
        if beyond >= TAIL_MIN_BEYOND:
            return pct, value
    return None


@dataclass
class LayerStats:
    calls: int
    self_s: float
    p50_s: float
    tail: tuple[float, float] | None
    work: float


def layer_stats(spans) -> dict[str, LayerStats]:
    """Per span name: call count, summed self time, median and tail duration."""
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    out = {}
    for name, group in by_name.items():
        durations = sorted(s.duration for s in group)
        out[name] = LayerStats(
            calls=len(group),
            self_s=sum(selfs[s.id] for s in group),
            p50_s=nearest_rank(durations, 50.0)[0],
            tail=tail_percentile(durations),
            work=sum(s.work for s in group),
        )
    return out


def scheduling(spans, workers: int) -> tuple[float, float]:
    """``(overhead_s, worker_idle_s)`` of the outermost ``experiments.`` spans.

    Busy trial time is the time covered by the direct children of an
    experiments span (or of experiments spans nested in it) that are not
    themselves experiments spans, taken per thread.  Overhead is the call's
    wall time minus busy time divided by ``workers``; worker idle time is,
    summed over the ``workers`` workers, the time between a worker's last
    trial and the end of the call (a worker that ran nothing idles for the
    whole call).
    """
    by_id = {s.id: s for s in spans}
    kids = children_of(spans)

    def is_exp(s: Span) -> bool:
        return s.name.startswith("experiments.")

    overhead = idle = 0.0
    for top in spans:
        parent = by_id.get(top.parent)
        if not is_exp(top) or (parent is not None and is_exp(parent)):
            continue
        per_thread: dict[int, list[tuple[float, float]]] = defaultdict(list)
        pending = [top]
        while pending:
            e = pending.pop()
            for c in kids.get(e.id, ()):
                if is_exp(c):
                    pending.append(c)
                else:
                    per_thread[c.thread].append((c.start, c.end))
        busy = sum(union_length(iv) for iv in per_thread.values())
        wall = top.duration
        overhead += wall - busy / workers
        idle += sum(top.end - max(e for _, e in iv) for iv in per_thread.values())
        idle += max(0, workers - len(per_thread)) * wall
    return overhead, idle
