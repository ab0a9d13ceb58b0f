"""smin-lab benchmark: one workload, one run, metrics as a JSON last line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload mc_tail --seed 1 --seconds 30 --trace 0

``--trace 0`` times rounds of the workload with tracing off and reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` alternates untraced,
traced and single-worker rounds and reports the per-layer metrics.  Both
print every metric by name with its unit, write a results file with an
environment stamp under ``bench/out/``, and end with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  The program is imported
from ``src/`` of the same checkout and nothing else.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 9
MIN_ROUNDS = 3
SETUP_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program() -> None:
    """Import sminlab from this checkout's ``src/``; exit non-zero without it."""
    if not (SRC / "sminlab" / "__init__.py").is_file():
        sys.exit(f"error: no sminlab package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import sminlab

    if Path(sminlab.__file__).resolve().parent != SRC / "sminlab":
        sys.exit(f"error: imported sminlab from {sminlab.__file__}, not from {SRC}")


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, from BENCHMARK.json at the checkout root."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def environment(seed: int) -> dict:
    import numpy as np
    import scipy
    from sminlab import experiments

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "SMINLAB_THREADS": os.environ.get("SMINLAB_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "workers": experiments.resolve_workers(),
        "seed": seed,
    }


def measure_setup(argv) -> tuple[list[float], int]:
    """Wall times of fresh ``smin-lab`` processes making a one-item call,
    and how many of them failed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times, failed = [], 0
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "sminlab.cli", *argv], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            failed += 1
            print(f"setup call failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return times, failed


class Tally:
    """Items attempted and failed over a run, with the problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, rnd, expect=None) -> None:
        """Count a round; a round that repeats an earlier round's inputs must
        give its outputs (``expect``), or it fails as a whole."""
        self.attempted += rnd.items
        failed = rnd.failed
        if expect is not None and rnd.fingerprints != expect.fingerprints:
            failed = rnd.items
            self.messages.append("outputs differ from an earlier round on the same inputs")
        self.failed += failed
        self.messages.extend(rnd.messages)


def untraced_run(workload, args, tally: Tally, record: dict) -> dict:
    """Timed rounds of the same inputs until the time is up, after a
    warm-up round whose outputs every timed round must repeat."""
    setup, setup_failed = measure_setup(workload.setup_argv)
    tally.attempted += len(setup)
    tally.failed += setup_failed
    warm = workload.run_round()  # warm-up: caches, BLAS threads, lazy imports
    tally.add(warm)
    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        rnd = workload.run_round()
        tally.add(rnd, expect=warm)
        rounds.append(rnd)

    def rates(corrected: bool) -> tuple[float, float]:
        times = [rnd.times(corrected) for rnd in rounds]
        return (statistics.median(rnd.items / w for rnd, (w, _) in zip(rounds, times)),
                statistics.median(1000.0 * c / rnd.items for rnd, (_, c) in zip(rounds, times)))

    items_per_s, cpu_per_item_ms = rates(workload.host_corrected)
    record.update(
        setup_s=setup, host_corrected=workload.host_corrected,
        uncorrected=dict(zip(("items_per_s", "cpu_per_item_ms"), rates(False))),
        round_items=[rnd.items for rnd in rounds],
        call_wall_s=[rnd.walls for rnd in rounds], call_cpu_s=[rnd.cpus for rnd in rounds],
        call_reference_s=[rnd.references for rnd in rounds],
    )
    return {
        "items_per_s": items_per_s,
        "cpu_per_item_ms": cpu_per_item_ms,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_run(workload, args, tally: Tally, record: dict) -> dict:
    """Untraced, traced and single-worker rounds of the same inputs, so
    that call counts repeat exactly."""
    import layers
    from sminlab import experiments
    from spans import Tracer

    warm = workload.run_round()
    tally.add(warm)
    plain, traced, serial, rounds = [], [], [], []
    start = time.perf_counter()
    while len(traced) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        rnd = workload.run_round()
        tally.add(rnd, expect=warm)
        plain.append(rnd.times(workload.host_corrected)[0])
        tracer = Tracer()
        with layers.instrumented(tracer) as missing:
            rnd = workload.run_round()
        tally.add(rnd, expect=warm)
        traced.append(rnd.times(workload.host_corrected)[0])
        rounds.append(tracer.spans)
        if workload.parallel:
            rnd = workload.run_round(workers=1)
            tally.add(rnd, expect=warm)
            serial.append(rnd.times(workload.host_corrected)[0])
    mismatches = workload.replay(warm.outputs)
    if mismatches:
        tally.failed += 1
        tally.messages.append(f"{mismatches} grid points differ from the replay")
    tally.attempted += 1
    metrics, unsteady = layers.per_layer_metrics(rounds, experiments.resolve_workers())
    if unsteady:
        tally.failed += 1
        tally.messages.append(f"call counts differ between rounds on the same inputs: {unsteady}")
    metrics["experiments.replay_mismatches"] = mismatches
    metrics["experiments.parallel_speedup"] = (
        statistics.median(serial) / statistics.median(plain) if serial else 0.0
    )
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    record.update(
        missing_targets=missing, round_wall_s=plain, traced_wall_s=traced,
        serial_wall_s=serial, spans=layers.export(rounds, start),
    )
    return metrics


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    units = declared_metrics(args.trace)

    tally = Tally()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(args.seed)}
    run = traced_run if args.trace else untraced_run
    measured = run(workloads.WORKLOADS[args.workload](args.seed), args, tally, record)
    if set(units) - set(measured):
        sys.exit(f"error: BENCHMARK.json names unmeasured metrics {sorted(set(units) - set(measured))}")
    values = {name: measured[name] for name in units}

    env = record["environment"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, blas {env['blas']['name']} "
          f"{env['blas']['version']}, nproc {env['nproc']}, workers {env['workers']}, "
          f"SMINLAB_THREADS={env['SMINLAB_THREADS']}, OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']}")
    for name, unit in units.items():
        note = ""
        if name.endswith(".tail_us"):  # which percentile, over how many samples
            layer = name[: -len(".tail_us")]
            pct, calls = measured[layer + ".tail_pct"], measured[layer + ".calls"]
            note = f"  (p{pct:g} of {calls:g} calls per round)" if pct else "  (too few calls for a tail)"
        print(f"{name:45s} {values[name]:14.6g} {unit}{note}")
    print(f"{'failed_ratio':45s} {tally.failed / tally.attempted:14.6g} ratio "
          f"({tally.failed} of {tally.attempted} items)")
    if record.get("host_corrected"):
        raw = record["uncorrected"]
        print(f"# host-corrected; uncorrected items_per_s {raw['items_per_s']:.6g} 1/s, "
              f"cpu_per_item_ms {raw['cpu_per_item_ms']:.6g} ms")
    if record.get("missing_targets"):
        print(f"# not traced, missing from sminlab: {record['missing_targets']}")
    for message in tally.messages[:20]:
        print(f"problem: {message}")

    record["tail_percentiles"] = {
        k[: -len(".tail_pct")]: v for k, v in measured.items() if k.endswith(".tail_pct")
    }
    record.update(attempted=tally.attempted, failed=tally.failed,
                  failed_ratio=tally.failed / tally.attempted, messages=tally.messages,
                  metrics={k: {"value": values[k], "unit": u} for k, u in units.items()})
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    print(f"# wrote {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
