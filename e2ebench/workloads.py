"""Workloads of the circuit-to-result benchmark and their timed loops.

Three *batch* workloads take one supremacy circuit at a time from
generation to read-out through the public API, as a user would::

    generate_supremacy_circuit -> schedule_circuit -> plan_for
        -> DistributedSimulator.run_schedule
        -> DistributedState.to_statevector, distributed_entropy,
           sample_counts

Each batch workload draws its circuits from a fixed corpus of circuit
seeds, in an order set by the workload seed.  The corpus is fixed so
that its independent references can be stored as digests (see
``references.py``), and it is sized so that one run covers all of it:
every run then measures the same circuits, and run-to-run spread is the
machine's, not the sample's.  Every circuit of a run is generated,
scheduled and compiled afresh; nothing in the batch path is memoized
by circuit content, so a circuit repeated in a run pays full price.

The *service* workload is one client of an in-process
``SimulationService`` that submits jobs back to back (a closed loop),
waiting for each result before sending the next job.
"""

from __future__ import annotations

import asyncio
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from references import check_state
from repro import (
    DiskShards,
    DistributedSimulator,
    SchedulerConfig,
    Simulator,
    generate_supremacy_circuit,
    sample_counts,
    schedule_circuit,
)
from repro.analysis import distributed_entropy
from repro.plan import plan_for
from repro.runtime import PipelineLayer
from repro.service import (
    JobSpec,
    JobStatus,
    ServiceConfig,
    SimulationService,
    state_fingerprint,
)
from repro.telemetry import NULL_TELEMETRY

#: Circuit seed of the warm-up circuit; outside every corpus.
WARMUP_SEED = 1_000_000
#: First circuit seed of the service's pool and of its fresh circuits.
POOL_SEED = 2_000_000
FRESH_SEED = 3_000_000


@dataclass(frozen=True)
class BatchWorkload:
    """One circuit shape run from generation to read-out."""

    name: str
    qubits: int
    depth: int
    local_qubits: int
    kmax: int
    #: Circuit seeds ``0 .. corpus-1`` form the workload's inputs.
    corpus: int
    #: Latency limit of ``slo_attainment``.
    slo_s: float
    #: State in ``DiskShards`` with a ``PipelineLayer`` (out-of-core path).
    out_of_core: bool = False
    shots: int = 1000

    def corpus_seeds(self) -> range:
        return range(self.corpus)

    def order(self, seed: int) -> list[int]:
        """The run's circuit seeds, a seeded permutation of the corpus."""
        rng = np.random.default_rng(seed)
        return [int(s) for s in rng.permutation(self.corpus)]


@dataclass(frozen=True)
class ServiceWorkload:
    """Jobs submitted back to back by one client of an in-process service."""

    name: str
    qubits: int
    depth: int
    local_qubits: int
    kmax: int
    #: Latency limit of ``slo_attainment``.
    slo_s: float
    shots: int = 256
    tenants: tuple[str, ...] = ("alpha", "beta", "gamma")
    #: Circuits that repeat across the run and hit the plan cache.
    pool: int = 4
    #: One job in ``fresh_every`` brings a circuit never seen before.
    fresh_every: int = 4
    #: One job in ``repeat_every`` repeats an earlier spec exactly.
    repeat_every: int = 20
    #: Fresh circuits are drawn from seeds ``FRESH_SEED ..`` of this many.
    fresh_corpus: int = 1024


BATCH_WORKLOADS = {
    w.name: w
    for w in (
        BatchWorkload("headline_18q", 18, 16, 14, 4, corpus=10, slo_s=4.0),
        BatchWorkload("wide_23q", 23, 20, 19, 5, corpus=4, slo_s=10.0),
        BatchWorkload(
            "outofcore_21q", 21, 16, 17, 5, corpus=5, slo_s=8.0,
            out_of_core=True,
        ),
    )
}

SERVICE_WORKLOADS = {
    "service_mix": ServiceWorkload("service_mix", 16, 12, 14, 5, slo_s=1.5),
}

#: Tiny shapes of every workload for the smoke test; their references
#: are computed live instead of read from the digest file.
SMOKE_WORKLOADS = {
    "headline_18q": BatchWorkload("headline_18q", 8, 8, 6, 3, corpus=3, slo_s=4.0),
    "wide_23q": BatchWorkload("wide_23q", 9, 8, 7, 3, corpus=3, slo_s=10.0),
    "outofcore_21q": BatchWorkload(
        "outofcore_21q", 8, 8, 6, 3, corpus=3, slo_s=8.0, out_of_core=True
    ),
    "service_mix": ServiceWorkload("service_mix", 8, 6, 6, 3, slo_s=1.5, pool=2),
}

WORKLOAD_NAMES = (*BATCH_WORKLOADS, *SERVICE_WORKLOADS)


def proc_io() -> dict[str, int]:
    """This process's ``/proc/self/io`` counters (empty when absent)."""
    try:
        lines = Path("/proc/self/io").read_text().splitlines()
    except OSError:
        return {}
    return {k: int(v) for k, v in (line.split(": ") for line in lines)}


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------
@dataclass
class CircuitRun:
    """What one circuit-to-result pass produced and measured."""

    circuit_seed: int
    seconds: float
    execute_seconds: float
    schedule: object
    program: object
    kernel_cost: object
    comm: object
    io: dict = field(default_factory=dict)
    pipeline: dict | None = None
    error: str | None = None


def run_circuit(
    workload: BatchWorkload,
    circuit_seed: int,
    *,
    scratch: Path,
    telemetry=None,
    reference=None,
    corrupt: bool = False,
) -> CircuitRun:
    """Take one circuit from generation to read-out, then check it.

    The timed region ends with the last read-out call; the check against
    *reference* (a digest from ``references.py``) is not timed.  With
    *telemetry* the benchmark records one ``bench``-kind span around
    each public call and hands the bundle to the calls that accept it.
    """
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    span = tel.tracer.span
    n, l = workload.qubits, workload.local_qubits
    storage, layers, directory = None, [], None
    if workload.out_of_core:
        directory = scratch / f"shards-{circuit_seed}"
        layers = [PipelineLayer()]
    io_before = {}
    start = time.perf_counter()
    try:
        with span("bench.circuit", kind="bench", seed=circuit_seed):
            with span("bench.generate_supremacy_circuit", kind="bench"):
                circuit = generate_supremacy_circuit(
                    n, workload.depth, seed=circuit_seed
                )
            with span("bench.schedule_circuit", kind="bench"):
                schedule = schedule_circuit(
                    circuit,
                    SchedulerConfig(local_qubits=l, kmax=workload.kmax),
                    telemetry=telemetry,
                )
            with span("bench.plan_for", kind="bench"):
                program = plan_for(schedule)
            with span("bench.run_schedule", kind="bench"):
                exec_start = time.perf_counter()
                if directory is not None:
                    io_before = proc_io()
                    storage = DiskShards(1 << (n - l), 1 << l, directory)
                result = DistributedSimulator(
                    n, l, storage=storage, telemetry=telemetry
                ).run_schedule(schedule, layers=layers)
                io_after = proc_io() if directory is not None else {}
                execute_seconds = time.perf_counter() - exec_start
            with span("bench.to_statevector", kind="bench"):
                statevector = result.state.to_statevector()
            with span("bench.distributed_entropy", kind="bench"):
                entropy = distributed_entropy(result.state)
            with span("bench.sample_counts", kind="bench"):
                counts = sample_counts(
                    statevector, workload.shots, seed=circuit_seed
                )
        seconds = time.perf_counter() - start
    finally:
        if storage is not None:
            storage.close()
        if directory is not None:
            shutil.rmtree(directory, ignore_errors=True)
    run = CircuitRun(
        circuit_seed=circuit_seed,
        seconds=seconds,
        execute_seconds=execute_seconds,
        schedule=schedule,
        program=program,
        kernel_cost=result.kernel_cost,
        comm=result.comm,
        io={k: io_after.get(k, 0) - v for k, v in io_before.items()},
        pipeline=layers[0].stats() if layers else None,
    )
    if reference is not None:
        data = statevector.data
        if corrupt:
            data = data.copy()
            data[0] = -data[0] + 1e-3
        run.error = check_state(data, entropy, counts, workload.shots, reference)
    return run


def warm_up_batch(workload: BatchWorkload, scratch: Path) -> None:
    """One small circuit through the workload's whole path.

    Pays the lazy imports and the cold gather tables of the workload's
    local partition without the cost of a full-size circuit.
    """
    small = replace(
        workload,
        qubits=workload.local_qubits + 1,
        depth=max(4, workload.depth // 2),
    )
    run_circuit(small, WARMUP_SEED, scratch=scratch)


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------
@dataclass
class PlannedJob:
    """One job the client sends, and whether its circuit is new."""

    index: int
    spec: JobSpec
    fresh: bool


@dataclass
class JobOutcome:
    """Client-side timestamps (event-loop clock) and the job record."""

    planned: PlannedJob
    sent_at: float
    submitted_at: float
    done_at: float
    job: object
    result: object

    @property
    def latency(self) -> float:
        """Seconds from sending the job to its result."""
        return self.done_at - self.sent_at


def job_stream(workload: ServiceWorkload, seed: int, *, fresh_base: int = 0):
    """The client's seeded sequence of jobs (a generator).

    Every block of ``fresh_every`` jobs holds one circuit never seen
    before, drawn without repetition from ``fresh_corpus`` seeds above
    ``FRESH_SEED + fresh_base``; it compiles on a miss.  Every
    ``repeat_every``-th job repeats an earlier spec exactly and hits the
    result cache; the rest use one of the ``pool`` circuits, which hit
    the plan cache after their first use.  The seed sets the tenants,
    where each block's fresh job falls, which fresh circuits are drawn
    and which pool circuit each other job uses.
    """
    rng = np.random.default_rng(seed)
    n, depth = workload.qubits, workload.depth
    pool = [
        generate_supremacy_circuit(n, depth, seed=POOL_SEED + i)
        for i in range(workload.pool)
    ]
    fresh_seeds = iter(FRESH_SEED + fresh_base + rng.permutation(workload.fresh_corpus))
    planned: list[PlannedJob] = []
    fresh_at = 0
    for i in range(workload.fresh_every * workload.fresh_corpus):
        if i % workload.fresh_every == 0:
            fresh_at = i + int(rng.integers(workload.fresh_every))
        tenant = workload.tenants[int(rng.integers(len(workload.tenants)))]
        if i == fresh_at:
            circuit = generate_supremacy_circuit(n, depth, seed=int(next(fresh_seeds)))
        elif i % workload.repeat_every == workload.repeat_every - 1:
            planned.append(PlannedJob(
                i, planned[int(rng.integers(len(planned)))].spec, False
            ))
            yield planned[-1]
            continue
        else:
            circuit = pool[int(rng.integers(workload.pool))]
        spec = JobSpec(
            tenant=tenant, circuit=circuit, local_qubits=workload.local_qubits,
            kmax=workload.kmax, shots=workload.shots, seed=i,
        )
        planned.append(PlannedJob(i, spec, i == fresh_at))
        yield planned[-1]


async def drive(
    service: SimulationService, jobs, seconds: float
) -> list[JobOutcome]:
    """Closed loop: send the next job when the last result is back."""
    loop = asyncio.get_running_loop()
    end = loop.time() + seconds
    outcomes: list[JobOutcome] = []
    for planned in jobs:
        sent_at = loop.time()
        job = await service.submit(planned.spec)
        submitted_at = loop.time()
        result = await service.wait(job)
        outcomes.append(
            JobOutcome(planned, sent_at, submitted_at, loop.time(), job, result)
        )
        if loop.time() >= end:
            break
    return outcomes


async def warm_up_service(
    service: SimulationService, workload: ServiceWorkload, seeds=(WARMUP_SEED,)
) -> None:
    """One job per circuit seed, one after another (untimed).

    The default warm-up job pays the lazy imports and cold gather tables.
    """
    for seed in seeds:
        circuit = generate_supremacy_circuit(workload.qubits, workload.depth, seed=seed)
        spec = JobSpec(
            tenant=workload.tenants[0], circuit=circuit,
            local_qubits=workload.local_qubits, kmax=workload.kmax,
            shots=workload.shots, seed=seed,
        )
        result = await service.wait(await service.submit(spec))
        if result.status is not JobStatus.COMPLETED:
            raise RuntimeError(
                f"warm-up job ended {result.status.value}: {result.error}"
            )


def new_service() -> SimulationService:
    """The service under test, at its default configuration."""
    return SimulationService(ServiceConfig())


def reference_fingerprint(
    workload: ServiceWorkload, schedule, circuit, *, cross_check: bool
):
    """Fingerprint of an engine run of *schedule*; ``None`` when
    *cross_check* finds it differs from the single-node ``Simulator``."""
    state = DistributedSimulator(
        workload.qubits, workload.local_qubits
    ).run_schedule(schedule).state.to_statevector()
    if cross_check:
        single = Simulator(workload.qubits).run(circuit).state
        if not state.allclose(single, atol=1e-10):
            return None
    return state_fingerprint(state)


def check_jobs(
    outcomes: list[JobOutcome], workload: ServiceWorkload, *, corrupt: bool = False
) -> dict[str, str]:
    """Check every job against an engine run of its spec.

    Each distinct plan key is executed once more with
    ``DistributedSimulator.run_schedule`` on the service's schedule; the
    job's state fingerprint must match that run bit for bit.  For the
    pool circuits, which most jobs use, that run's state must also match
    the single-node ``Simulator`` to 1e-10 (the batch workloads hold
    every other schedule to the same reference).  Returns
    ``{job id: reason}`` for every job that is not correct.
    """
    schedules = {}
    for o in outcomes:
        if o.job.plan_entry is not None:
            schedules.setdefault(o.planned.spec.plan_key(), o.job.plan_entry.schedule)
    expected: dict[tuple, str | None] = {}
    errors: dict[str, str] = {}
    for o in outcomes:
        spec, result = o.planned.spec, o.result
        if corrupt and result.fingerprint is not None:
            result.fingerprint, corrupt = "0" * 64, False
        if result.status is not JobStatus.COMPLETED:
            errors[o.job.job_id] = f"job {result.status.value}: {result.error}"
            continue
        key = spec.plan_key()
        if key not in expected:
            expected[key] = reference_fingerprint(
                workload, schedules[key], spec.circuit, cross_check=not o.planned.fresh
            )
        if expected[key] is None:
            errors[o.job.job_id] = "engine run of its schedule differs from Simulator"
        elif result.fingerprint != expected[key]:
            errors[o.job.job_id] = "state fingerprint differs from the engine run"
        elif sum((result.samples or {}).values()) != spec.shots:
            errors[o.job.job_id] = "wrong number of samples"
    return errors
