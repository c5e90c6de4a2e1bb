#!/usr/bin/env python3
"""Circuit-to-result benchmark of the repro simulator.

Runs one workload (see ``README.md`` for why each exists) through the
program's public API, checks every result against an independent
reference, and prints one JSON object as the last line of stdout::

    python3 e2ebench/run.py --workload headline_18q --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is a separate traced run that prints the per-layer
metrics, writes its spans to ``e2ebench/out/spans-<workload>.jsonl``
with the ``repro.telemetry`` JSONL exporter, and calibrates the machine's
roofline.  ``--workload all`` runs every workload in turn and prints
one table.  ``--smoke`` runs tiny shapes whose figures are not meant to
be read; ``--corrupt`` falsifies one result so a test can see the check
catch it.

The program is imported from ``src/`` next to this directory; without
it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
#: The library reads tuned defaults from here at import; a run that
#: changed it would change the code it measures.
RESULTS_DIR = ROOT / "benchmarks" / "results"
#: Setup is measured in this many fresh interpreters, plus the run's own.
SETUP_PROBES = 2

END_TO_END_UNITS = {
    "time_to_result_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "slo_attainment": "ratio",
    "jobs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--corrupt", action="store_true")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program() -> None:
    """Put ``src/`` first on the path and import the program from it."""
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise ImportError(f"repro imported from {repro.__file__}, not {SRC}")


def results_snapshot() -> dict:
    if not RESULTS_DIR.is_dir():
        return {}
    return {
        p.name: (p.stat().st_size, p.stat().st_mtime_ns)
        for p in sorted(RESULTS_DIR.iterdir())
    }


def p90(values: list[float]) -> float:
    """90th percentile, interpolated linearly between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Setup
# ----------------------------------------------------------------------
def setup_in_process(args, scratch: Path):
    """Import the program and warm the workload up; returns the service
    (already started, for the service workload) and its event loop."""
    import_program()
    import workloads

    if args.workload in workloads.SERVICE_WORKLOADS:
        workload = pick(args)
        loop = asyncio.new_event_loop()
        service = workloads.new_service()
        loop.run_until_complete(service.start())
        loop.run_until_complete(workloads.warm_up_service(service, workload))
        return service, loop
    workloads.warm_up_batch(pick(args), scratch)
    return None, None


def setup_probe(args) -> int:
    """Measure one cold setup in this fresh interpreter."""
    scratch = OUT_DIR / f"run-{os.getpid()}"
    start = time.perf_counter()
    try:
        service, loop = setup_in_process(args, scratch)
        if service is not None:
            loop.run_until_complete(service.shutdown())
            loop.close()
        print(json.dumps({"setup_s": time.perf_counter() - start}))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


def probe_setups(args) -> list[float]:
    """Setup seconds of :data:`SETUP_PROBES` cold interpreters."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120, check=True
        )
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def pick(args):
    import workloads

    table = workloads.SMOKE_WORKLOADS if args.smoke else {
        **workloads.BATCH_WORKLOADS, **workloads.SERVICE_WORKLOADS
    }
    return table[args.workload]


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------
class References:
    """Reference digests: stored for the real shapes, live for smoke."""

    def __init__(self, workload, smoke: bool) -> None:
        self.workload = workload
        self.smoke = smoke
        self._digests = {}
        if not smoke:
            from references import load_digests

            entry = load_digests()[workload.name]
            if (entry["qubits"], entry["depth"]) != (workload.qubits, workload.depth):
                raise ValueError(f"reference digests of {workload.name} are stale")
            self._digests = entry["circuits"]

    def __getitem__(self, circuit_seed: int) -> dict:
        key = str(circuit_seed)
        if key not in self._digests:
            if not self.smoke:
                raise KeyError(f"no reference for {self.workload.name} circuit {key}")
            from references import compute_digest

            self._digests[key] = compute_digest(
                self.workload.qubits, self.workload.depth, circuit_seed
            )
        return self._digests[key]


def measure_batch(args, workload, scratch: Path, budget: float) -> dict:
    """The untraced timed loop: circuits until the window is spent."""
    import workloads

    refs = References(workload, args.smoke)
    order = workload.order(args.seed)
    runs = []
    start = time.perf_counter()
    while True:
        seed = order[len(runs) % len(order)]
        reference = refs[seed]
        runs.append(workloads.run_circuit(
            workload, seed, scratch=scratch, reference=reference,
            corrupt=args.corrupt and not runs,
        ))
        mean = statistics.fmean(r.seconds for r in runs)
        if time.perf_counter() - start + mean > budget:
            break
    # One figure per corpus circuit (the mean of its repeats), so that
    # which circuits a run happened to repeat does not move the quantiles.
    by_circuit: dict[int, list[float]] = {}
    for r in runs:
        by_circuit.setdefault(r.circuit_seed, []).append(r.seconds)
    per_circuit = [statistics.fmean(v) for v in by_circuit.values()]
    failed = sum(r.error is not None for r in runs)
    for r in runs:
        if r.error is not None:
            print(f"FAILED circuit {r.circuit_seed}: {r.error}")
    met = [r.seconds <= workload.slo_s and r.error is None for r in runs]
    return {
        "attempted": len(runs),
        "failed": failed,
        "metrics": {
            "time_to_result_s": statistics.median(per_circuit),
            "latency_p50_s": statistics.median(per_circuit),
            "latency_p90_s": p90(per_circuit),
            "slo_attainment": sum(met) / len(met),
            "jobs_per_s": len(per_circuit) / sum(per_circuit),
        },
        "note": f"{len(runs)} circuits from a corpus of {workload.corpus}",
    }


def trace_batch(args, workload, scratch: Path, budget: float) -> dict:
    """The traced run: paired untraced/traced circuits, then attribution."""
    import host
    import layers
    import workloads
    from repro import DistributedSimulator
    from repro.telemetry import Telemetry, write_jsonl

    start = time.perf_counter()
    calibration = host.calibrate(small=args.smoke)
    refs = References(workload, args.smoke)
    order = workload.order(args.seed)
    tel = Telemetry.enabled(per_rank=False)
    tel.tracer.event("bench.environment", kind="bench", **host.environment())
    untraced, traced, overheads = [], [], []
    while True:
        seed = order[len(traced) % len(order)]
        reference = refs[seed]
        pair_start = time.perf_counter()
        for traced_pass in ((False, True) if len(traced) % 2 == 0 else (True, False)):
            run = workloads.run_circuit(
                workload, seed, scratch=scratch, reference=reference,
                telemetry=tel if traced_pass else None,
                corrupt=args.corrupt and not untraced and not traced_pass,
            )
            (traced if traced_pass else untraced).append(run)
        if workload.out_of_core:
            plain = untraced[-1]
            in_memory = DistributedSimulator(workload.qubits, workload.local_qubits)
            t0 = time.perf_counter()
            in_memory.run_schedule(plain.schedule)
            overheads.append(plain.execute_seconds - (time.perf_counter() - t0))
        pair = time.perf_counter() - pair_start
        baseline = 2 * untraced[-1].execute_seconds
        if time.perf_counter() - start + pair + baseline > budget:
            break

    # Baseline: the same schedule executed untraced at the default BLAS
    # thread count and pinned to one thread (kept inside the window).
    schedule = untraced[-1].schedule
    simulator = DistributedSimulator(workload.qubits, workload.local_qubits)
    t0 = time.perf_counter()
    simulator.run_schedule(schedule)
    default_threads = time.perf_counter() - t0
    with host.single_blas_thread() as pinned:
        t0 = time.perf_counter()
        simulator.run_schedule(schedule)
        single_thread = time.perf_counter() - t0
    if not pinned:
        print("note: BLAS thread count not controllable; baseline ran at the default")

    metrics = layers.batch_layer_metrics(
        tel.tracer.spans, tel.metrics.snapshot(), traced, host=calibration
    )
    metrics["trace.overhead_ratio"] = (
        sum(r.seconds for r in traced) / sum(r.seconds for r in untraced)
    )
    metrics["distributed.storage.overhead_s"] = (
        statistics.fmean(overheads) if overheads else 0.0
    )
    metrics["baseline.default_threads_execute_s"] = default_threads
    metrics["baseline.single_thread_execute_s"] = single_thread
    for key, value in calibration.items():
        metrics[f"host.{key}"] = value
    OUT_DIR.mkdir(exist_ok=True)
    write_jsonl(OUT_DIR / f"spans-{workload.name}.jsonl", tel.tracer.spans)
    runs = untraced + traced
    for r in runs:
        if r.error is not None:
            print(f"FAILED circuit {r.circuit_seed}: {r.error}")
    return {
        "attempted": len(runs),
        "failed": sum(r.error is not None for r in runs),
        "metrics": metrics,
        "note": f"{len(traced)} traced + {len(untraced)} untraced circuits",
    }


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------
def service_figures(outcomes, errors, workload) -> dict:
    latencies = [o.latency for o in outcomes]
    fresh = [o.latency for o in outcomes if o.planned.fresh] or latencies
    met = [
        o.latency <= workload.slo_s and o.job.job_id not in errors
        for o in outcomes
    ]
    completed = [o for o in outcomes if o.job.job_id not in errors]
    wall = outcomes[-1].done_at - outcomes[0].sent_at
    return {
        "time_to_result_s": statistics.median(fresh),
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": p90(latencies),
        "slo_attainment": sum(met) / len(met),
        "jobs_per_s": len(completed) / wall,
    }


def jobs_note(outcomes) -> str:
    fresh = sum(o.planned.fresh for o in outcomes)
    return f"{len(outcomes)} jobs, {fresh} with a fresh circuit"


def measure_service(args, workload, service, loop, budget: float) -> dict:
    import workloads

    jobs = workloads.job_stream(workload, args.seed)
    outcomes = loop.run_until_complete(workloads.drive(service, jobs, budget))
    errors = workloads.check_jobs(outcomes, workload, corrupt=args.corrupt)
    for job_id, reason in sorted(errors.items()):
        print(f"FAILED {job_id}: {reason}")
    return {
        "attempted": len(outcomes),
        "failed": len(errors),
        "metrics": service_figures(outcomes, errors, workload),
        "note": jobs_note(outcomes),
    }


def trace_service(args, workload, service, loop, budget: float) -> dict:
    """Half the window untraced, half with the benchmark's spans on."""
    import host
    import layers
    import workloads
    from repro.telemetry import Telemetry, write_jsonl

    start = time.perf_counter()
    calibration = host.calibrate(small=args.smoke)
    tel = Telemetry.enabled(per_rank=False)
    tracer = tel.tracer
    tracer.event("bench.environment", kind="bench", **host.environment())
    # Compile the pool first, so both halves start from the same caches.
    pool = [workloads.POOL_SEED + i for i in range(workload.pool)]
    loop.run_until_complete(workloads.warm_up_service(service, workload, pool))
    half = max(0.5, (budget - (time.perf_counter() - start)) / 2)
    plain = loop.run_until_complete(
        workloads.drive(service, workloads.job_stream(workload, args.seed), half)
    )
    # The traced half draws other fresh circuits, so they miss the cache too.
    stream = workloads.job_stream(
        workload, args.seed + 1, fresh_base=workload.fresh_corpus
    )
    offset = tracer.now() - loop.time()
    traced = loop.run_until_complete(workloads.drive(service, stream, half))
    for o in traced:
        root = tracer.add_span("bench.job", kind="bench", start=o.sent_at + offset,
                               end=o.done_at + offset, job=o.job.job_id,
                               trace_id=o.job.trace_id, fresh=o.planned.fresh)
        tracer.add_span("bench.submit", kind="bench", start=o.sent_at + offset,
                        end=o.submitted_at + offset, parent_id=root.span_id)
        wait = tracer.add_span("bench.wait", kind="bench",
                               start=o.submitted_at + offset,
                               end=o.done_at + offset, parent_id=root.span_id)
        if o.job.started_at is not None and o.job.finished_at is not None:
            tracer.add_span("service.exec", kind="service",
                            start=o.job.started_at + offset,
                            end=o.job.finished_at + offset,
                            parent_id=wait.span_id)
    outcomes = plain + traced
    errors = workloads.check_jobs(outcomes, workload, corrupt=args.corrupt)
    for job_id, reason in sorted(errors.items()):
        print(f"FAILED {job_id}: {reason}")
    metrics = layers.service_layer_metrics(traced, service)
    metrics["trace.overhead_ratio"] = (
        statistics.fmean(o.latency for o in traced)
        / statistics.fmean(o.latency for o in plain)
    )
    for key, value in calibration.items():
        metrics[f"host.{key}"] = value
    OUT_DIR.mkdir(exist_ok=True)
    write_jsonl(OUT_DIR / f"spans-{workload.name}.jsonl", tracer.spans)
    return {
        "attempted": len(outcomes),
        "failed": len(errors),
        "metrics": metrics,
        "note": jobs_note(traced),
    }


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in BENCHMARK.json order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_workload(args) -> dict:
    scratch = OUT_DIR / f"run-{os.getpid()}"
    before = results_snapshot()
    probes = probe_setups(args)
    start = time.perf_counter()
    service, loop = setup_in_process(args, scratch)
    setups = [*probes, time.perf_counter() - start]
    import host

    print("environment " + json.dumps(host.environment()))
    workload = pick(args)
    try:
        if service is None:
            fn = trace_batch if args.trace else measure_batch
            out = fn(args, workload, scratch, args.seconds)
        else:
            fn = trace_service if args.trace else measure_service
            out = fn(args, workload, service, loop, args.seconds)
    finally:
        if service is not None:
            loop.run_until_complete(service.shutdown())
            loop.close()
        shutil.rmtree(scratch, ignore_errors=True)
    correct = out["failed"] == 0
    if results_snapshot() != before:
        print(f"FAILED: the run changed {RESULTS_DIR}")
        correct = False
    if args.trace:
        units = per_layer_units()
        values = {name: out["metrics"].get(name, 0.0) for name in units}
    else:
        out["metrics"]["setup_s"] = statistics.median(setups)
        out["metrics"]["peak_rss_mb"] = peak_rss_mb()
        units = END_TO_END_UNITS
        values = {name: out["metrics"][name] for name in END_TO_END_UNITS}
    print(f"{args.workload} (seed {args.seed}): {out['note']}; "
          f"setup samples {', '.join(f'{s:.3f}' for s in setups)} s")
    for name, value in values.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    print(f"  failed {out['failed']}/{out['attempted']} "
          f"({out['failed'] / out['attempted']:.1%})")
    return {
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in values.items()
        },
    }


def run_all(args) -> dict:
    """Every workload in its own process; one combined table."""
    import_program()
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's source tree {SRC} is missing", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
