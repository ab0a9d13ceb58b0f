"""Command-line front end: ``smin-lab <verb> [flags]``.

Exit codes: 0 on success, 1 when a verification run reports failures,
2 on usage errors.  Vertices on the command line and in edge-list files
are 1-indexed (the Python API is 0-indexed).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import alphaeta, combinatorics, experiments, suites
from .errors import InvalidInputError
from .samplers import KINDS, RowDistribution, ShiftSpec


def parse_grid(spec: str, geom: bool = False) -> tuple[float, ...]:
    """Parse ``start:end:count`` (linear, or geometric with ``geom``) or a
    comma-separated list of values."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise InvalidInputError(f"grid spec {spec!r} must be start:end:count")
        start, end, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise InvalidInputError("grid count must be positive")
        if count == 1:
            return (start,)
        if geom:
            if start <= 0 or end <= 0:
                raise InvalidInputError("geometric grids need positive endpoints")
            return tuple(float(t) for t in np.geomspace(start, end, count))
        return tuple(float(t) for t in np.linspace(start, end, count))
    return tuple(float(v) for v in spec.split(","))


def parse_shift(spec: str) -> ShiftSpec:
    """Parse ``zero``, ``scaled-identity:V``, ``diagonal:v1,v2,...`` or
    ``counterexample:V``."""
    if spec == "zero":
        return ShiftSpec.zero()
    if ":" not in spec:
        raise InvalidInputError(f"malformed shift spec {spec!r}")
    kind, _, payload = spec.partition(":")
    if kind == "scaled-identity":
        return ShiftSpec.scaled_identity(float(payload))
    if kind == "diagonal":
        return ShiftSpec.diagonal(float(v) for v in payload.split(","))
    if kind == "counterexample":
        return ShiftSpec.counterexample(float(payload))
    raise InvalidInputError(f"unknown shift kind {kind!r}")


def _echo(config_dict: dict) -> None:
    print("config:")
    print(json.dumps(config_dict, indent=2))


def _write_json(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    print(f"wrote {path}")


def _print_points(estimate: experiments.TailEstimate) -> None:
    print(f"{'t':>12} {'hits':>8} {'p_hat':>10} {'ci_low':>10} {'ci_high':>10}")
    for p in estimate.points:
        print(f"{p.t:12.6g} {p.hits:8d} {p.p_hat:10.6f} {p.ci_low:10.6f} {p.ci_high:10.6f}")


def _run_tail(args, config: experiments.ExperimentConfig, estimator=experiments.estimate_tail) -> int:
    """Echo, estimate, print and emit: the one path of both tail verbs."""
    _echo(config.to_dict())
    estimate = estimator(config)
    _print_points(estimate)
    print(f"wall time: {estimate.wall_time:.2f} s")
    if args.out:
        experiments.emit_results(estimate, args.out, args.format)
        print(f"wrote {args.out}")
    return 0


def _cmd_tail(args) -> int:
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            return _run_tail(args, experiments.ExperimentConfig.from_json(fh.read()))
    return _run_tail(args, experiments.ExperimentConfig(
        dist=RowDistribution(args.dist),
        shift=parse_shift(args.shift),
        n=args.n,
        trials=args.trials,
        t_grid=parse_grid(args.t_grid, args.geom),
        master_seed=args.seed,
        statistic=experiments.Statistic(args.statistic),
    ))


def _cmd_counterexample(args) -> int:
    report = experiments.counterexample_experiment(
        n=args.n, tau=args.tau, trials=args.trials, master_seed=args.seed
    )
    doc = report.to_dict()
    _echo({k: doc[k] for k in ("n", "tau", "trials", "master_seed")})
    print(json.dumps(doc, indent=2))
    if args.out:
        _write_json(args.out, doc)
    return 0


def _cmd_distance_profile(args) -> int:
    config = experiments.ExperimentConfig(
        dist=RowDistribution(args.dist),
        shift=ShiftSpec.zero(),
        n=args.n,
        trials=args.trials,
        t_grid=parse_grid(args.t_grid, args.geom) if args.t_grid else (),
        master_seed=args.seed,
        statistic=experiments.Statistic.distance_profile(args.k, args.a),
    )
    return _run_tail(args, config, experiments.distance_profile_tail)


def _cmd_lemma_check(args) -> int:
    _echo({"suite": args.suite, "instances": args.instances, "seed": args.seed})
    result = suites.run_suite(args.suite, instances=args.instances, seed=args.seed)
    print(result.summary())
    for message in result.messages:
        print(f"  {message}")
    if args.out:
        doc = {
            "suite": result.name,
            "instances": result.instances,
            "failures": result.failures,
            "messages": result.messages,
            "failed_instances": result.failed_instances,
        }
        _write_json(args.out, doc)
    return 0 if result.passed else 1


def _cmd_alphaeta_demo(args) -> int:
    _echo({"demo": "cube", "n": args.n, "K": args.k, "atoms": args.atoms})
    struct = alphaeta.cube_example_structure(args.n, args.k, args.atoms)
    report = struct.verify_alpharho()
    exact = alphaeta.cube_event_probability(args.n, args.k)
    bound = report.rhs / args.k
    print(f"exact P(event)        = {report.event_probability:.10g}")
    print(f"closed-form P(event)  = {exact:.10g}")
    print(f"sharp labels          = 1 -> {struct.sharp(1)}, 2 -> {struct.sharp(2)}")
    print(f"inequality lhs        = {report.lhs:.10g}")
    print(f"inequality rhs        = {report.rhs:.10g}")
    print(f"certified bound       = rhs / K = {bound:.10g}")
    ok = report.holds and report.event_probability <= bound
    print("verdict:", "ok" if ok else "FAILED")
    if args.out:
        doc = {
            "n": args.n,
            "K": args.k,
            "atoms": args.atoms,
            "event_probability": report.event_probability,
            "closed_form": exact,
            "lhs": report.lhs,
            "rhs": report.rhs,
            "bound": bound,
            "holds": ok,
        }
        _write_json(args.out, doc)
    return 0 if ok else 1


def _cmd_graph_decompose(args) -> int:
    with open(args.graph, "r", encoding="utf-8") as fh:
        G = combinatorics.Graph.from_edge_text(fh.read(), n=args.n)
    vertex = args.vertex - 1
    # checked here to name the vertex as it was given, 1-indexed
    if not 0 <= vertex < G.n:
        raise InvalidInputError(f"vertex {args.vertex} out of range 1..{G.n}")
    if not G.is_isolated(vertex):
        raise InvalidInputError(f"vertex {args.vertex} must be isolated")
    _echo({"graph": args.graph, "n": G.n, "vertex": args.vertex, "depth": args.depth, "mode": args.mode})
    dec = combinatorics.greedy_decomposition(G, vertex, args.depth, args.mode)
    for k in range(args.depth + 1):
        vertices = ",".join(str(v + 1) for v in sorted(dec.s_seq[k])) or "-"
        print(f"step {k}: |S|={len(dec.s_seq[k])} ({vertices})  |E|={len(dec.e_seq[k])}")
    vl = combinatorics.vertex_value(G, vertex, args.depth, args.mode)
    rho = combinatorics.rho_set(G, vertex, args.depth, args.mode)
    print(f"vertex value (L={args.depth}): {vl:.6g}")
    print(f"residual edge set size (L={args.depth}): {len(rho)}")
    if args.out:
        doc = {
            "n": G.n,
            "vertex": args.vertex,
            "mode": args.mode,
            "s_seq": [sorted(v + 1 for v in s) for s in dec.s_seq],
            "e_sizes": [len(e) for e in dec.e_seq],
            "vertex_value": vl,
            "rho_size": len(rho),
        }
        _write_json(args.out, doc)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smin-lab",
        description="Smallest-singular-value experiments: tail estimation, "
        "verification suites, and graph/partition demos.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("tail", formatter_class=fmt, help="Monte Carlo tail estimate")
    p.add_argument("--dist", choices=KINDS, default="gaussian", help="row distribution")
    p.add_argument("--n", type=int, default=100, help="matrix dimension")
    p.add_argument("--trials", type=int, default=1000, help="number of trials")
    p.add_argument("--shift", default="zero", help="shift spec (zero | scaled-identity:V | diagonal:v1,v2,.. | counterexample:V)")
    p.add_argument("--t-grid", default="0.05:0.5:10", help="grid: start:end:count or v1,v2,...")
    p.add_argument("--geom", action="store_true", help="geometric grid spacing")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument(
        "--statistic",
        choices=("smin_scaled", "hs_scaled_sqrt", "hs_scaled_n"),
        default="smin_scaled",
        help="per-trial statistic",
    )
    p.add_argument("--out", default=None, help="write results to this path")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    p.add_argument("--config", default=None, help="JSON config file (overrides other flags)")
    p.set_defaults(func=_cmd_tail)

    p = sub.add_parser("counterexample", formatter_class=fmt, help="sign-matrix shift experiment")
    p.add_argument("--n", type=int, default=50, help="matrix dimension (>= 8)")
    p.add_argument("--tau", type=float, default=2500.0, help="shift magnitude (>= n)")
    p.add_argument("--trials", type=int, default=2000, help="number of trials")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--out", default=None, help="write the JSON report to this path")
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("distance-profile", formatter_class=fmt, help="row-distance profile tail")
    p.add_argument("--dist", choices=KINDS, default="gaussian", help="row distribution")
    p.add_argument("--n", type=int, default=100, help="matrix dimension")
    p.add_argument("--trials", type=int, default=200, help="number of trials")
    p.add_argument("--k", type=int, required=True, help="row-count threshold")
    p.add_argument("--a", type=float, default=None, help="distance threshold (single grid point)")
    p.add_argument("--t-grid", default=None, help="optional sweep of distance thresholds")
    p.add_argument("--geom", action="store_true", help="geometric grid spacing")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--out", default=None, help="write results to this path")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    p.set_defaults(func=_cmd_distance_profile)

    p = sub.add_parser("lemma-check", formatter_class=fmt, help="run a verification suite")
    p.add_argument("--suite", choices=sorted(suites.SUITES), required=True, help="suite name")
    p.add_argument("--instances", type=int, default=None, help="instance count (suite default if omitted)")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--out", default=None, help="write the JSON report to this path")
    p.set_defaults(func=_cmd_lemma_check)

    p = sub.add_parser("alphaeta-demo", formatter_class=fmt, help="exhaustive partition-structure demo")
    p.add_argument("--cube", action="store_true", help="run the discretized-cube demo, the only one and the default")
    p.add_argument("--n", type=int, default=4, help="number of coordinates (perfect square)")
    p.add_argument("--k", type=float, default=10.0, help="threshold parameter K (> 1)")
    p.add_argument("--atoms", type=int, default=40, help="atoms per factor")
    p.add_argument("--out", default=None, help="write the JSON report to this path")
    p.set_defaults(func=_cmd_alphaeta_demo)

    p = sub.add_parser("graph-decompose", formatter_class=fmt, help="half-cover decomposition of a graph")
    p.add_argument("--graph", required=True, help="edge-list file, one 1-indexed 'j k' pair per line")
    p.add_argument("--n", type=int, default=None, help="vertex count (inferred if omitted)")
    p.add_argument("--vertex", type=int, required=True, help="isolated root vertex (1-indexed)")
    p.add_argument("--depth", type=int, default=3, help="number of decomposition steps")
    p.add_argument("--mode", choices=combinatorics.MODES, default="exact", help="search mode")
    p.add_argument("--out", default=None, help="write the JSON report to this path")
    p.set_defaults(func=_cmd_graph_decompose)

    return parser


def parse_and_dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (InvalidInputError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return parse_and_dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
