"""Which calls into sminlab are traced, and the per-layer metrics of
``BENCHMARK.json`` computed from the spans of traced rounds.

Each traced round of a workload does the same work, so a call count is
reported per round and must repeat exactly; times are medians over rounds.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager

import numpy as np

import sminlab
from sminlab import alphaeta, cli, combinatorics, experiments, linalg, samplers, suites

from spans import LayerStats, Target, Tracer, instrument, layer_stats, scheduling
from workloads import SUITE_PLAN


def svd_flops(args, kwargs, result) -> float:
    """Nominal flops of one SVD (Golub and Van Loan's counts, R-SVD with
    thin factors when vectors are requested)."""
    a = np.asarray(args[0])
    m, n = max(a.shape[-2:]), min(a.shape[-2:])
    compute_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    if compute_uv:
        return 6.0 * m * n * n + 20.0 * n**3
    return 4.0 * m * n * n - 4.0 * n**3 / 3.0


def row_distances_flops(args, kwargs, result) -> float:
    """Nominal flops of the full row-distance profile of an n x n matrix:
    a QR with explicit Q (8n^3/3) and n column deletions (about 4n^3)."""
    n = np.asarray(args[0]).shape[0]
    return (8.0 / 3.0 + 4.0) * n**3


def targets() -> list[Target]:
    fns = [
        (samplers, "sample_matrix"),
        (linalg, "row_distances"),
        (linalg, "span_basis"),
        (linalg, "dist_to_span"),
        (combinatorics, "build_graph_G"),
        (combinatorics, "q_sets"),
        (combinatorics, "greedy_decomposition"),
        (combinatorics, "min_half_cover_size"),
        (combinatorics, "pivot_index"),
        (suites, "invert_by_elimination"),
    ]
    out = [
        Target(mod, attr, f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}",
               work=row_distances_flops if attr == "row_distances" else None)
        for mod, attr in fns
    ]
    # the SVD primitive is numpy's, called directly by linalg and experiments
    out.append(Target(np.linalg, "svd", "linalg.svd", work=svd_flops))
    out.append(Target(alphaeta.AlphaEtaStructure, "verify_alpharho", "alphaeta.verify_alpharho",
                      work=lambda args, kwargs, result: args[0].space.size))
    out += [
        Target(suites, runner, f"suites.{suite}", work=lambda args, kwargs, result: result.instances)
        for suite, runner, _ in SUITE_PLAN
    ]
    out += [
        Target(experiments, attr, f"experiments.{attr}", adopt=True)
        for attr in ("estimate_tail", "distance_profile_tail", "counterexample_experiment")
    ]
    return out


NAMESPACES = (sminlab, alphaeta, cli, combinatorics, experiments, linalg, samplers, suites)


@contextmanager
def instrumented(tracer: Tracer):
    with instrument(tracer, targets(), NAMESPACES) as missing:
        yield missing


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


# what a layer that did not run reports
NOT_RUN = LayerStats(calls=0, self_s=0.0, p50_s=0.0, tail=(0.0, 0.0), work=0.0)


def _round_metrics(spans, workers: int) -> dict[str, float]:
    stats = layer_stats(spans)
    out: dict[str, float] = {}
    for target in targets():
        st = stats.get(target.name, NOT_RUN)
        pct, tail_s = st.tail or (0.0, 0.0)
        out[f"{target.name}.calls"] = st.calls
        out[f"{target.name}.self_s"] = st.self_s
        out[f"{target.name}.p50_us"] = 1e6 * st.p50_s
        out[f"{target.name}.tail_us"] = 1e6 * tail_s
        out[f"{target.name}.tail_pct"] = pct
    out["linalg.gflop_computed"] = (
        stats.get("linalg.svd", NOT_RUN).work + stats.get("linalg.row_distances", NOT_RUN).work
    ) / 1e9
    out["alphaeta.atoms_enumerated"] = stats.get("alphaeta.verify_alpharho", NOT_RUN).work
    # biorthogonality redraws a matrix until it is well conditioned
    by_id = {s.id: s for s in spans}
    draws = sum(
        1 for s in spans
        if s.name == "samplers.sample_matrix" and s.parent is not None
        and by_id[s.parent].name == "suites.biorthogonality"
    )
    instances = stats.get("suites.biorthogonality", NOT_RUN).work
    out["suites.biorthogonality.draws_per_instance"] = draws / instances if instances else 0.0
    out["experiments.overhead_s"], out["experiments.worker_idle_s"] = scheduling(spans, workers)
    return out


def per_layer_metrics(rounds, workers: int) -> tuple[dict[str, float], list[str]]:
    """Per-round metrics of each traced round reduced to their median, and
    the call counts that differ between rounds (the rounds do the same work,
    so every count must repeat)."""
    per_round = [_round_metrics(spans, workers) for spans in rounds]
    unsteady = [k for k in per_round[0]
                if k.endswith(".calls") and len({r[k] for r in per_round}) > 1]
    return {k: _median([r[k] for r in per_round]) for k in per_round[0]}, unsteady


def export(rounds, origin: float) -> dict:
    """Spans of every traced round in a compact form for the results file."""
    names = sorted({s.name for spans in rounds for s in spans})
    index = {n: i for i, n in enumerate(names)}
    threads: dict[int, int] = {}
    rows = [
        [r, s.id, s.parent, index[s.name], threads.setdefault(s.thread, len(threads)),
         round(s.start - origin, 7), round(s.end - origin, 7), s.work]
        for r, spans in enumerate(rounds)
        for s in spans
    ]
    return {"names": names,
            "columns": ["round", "id", "parent", "name", "thread", "start_s", "end_s", "work"],
            "rows": rows}
