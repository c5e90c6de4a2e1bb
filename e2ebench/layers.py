"""Per-layer attribution of a traced run.

A traced circuit leaves one span tree: the benchmark's ``bench`` spans
around each public call, and inside them the spans the program already
records when handed a telemetry bundle (scheduler phases, engine ops,
``kernel.*``, ``comm.*``).  A span's *self time* is its duration minus
its children's.  Every span's self time goes to one layer:

* ``kernel.*`` spans are kernels, except the Sec. 3.5 global-gate
  specializations, which are the distributed layer's;
* ``comm.*`` spans are the distributed layer's swaps;
* a ``bench`` span names the layer of the public call it wraps;
* any other span belongs to the layer of its parent, so a span a later
  change adds inside, say, plan compilation is charged to the plan.

The self time of the circuit's root span is the benchmark's own glue
between calls, reported as ``unattributed_share``.  Layers plus that
share sum to the traced time to result by construction.
"""

from __future__ import annotations

from collections import defaultdict

#: Layer of the public call each ``bench`` span wraps.
BENCH_LAYERS = {
    "bench.circuit": "unattributed",
    "bench.generate_supremacy_circuit": "circuit.generate_s",
    "bench.schedule_circuit": "scheduling.schedule_s",
    "bench.plan_for": "plan.compile_s",
    "bench.run_schedule": "runtime.unattributed_s",
    "bench.to_statevector": "statevector.gather_s",
    "bench.distributed_entropy": "analysis.entropy_s",
    "bench.sample_counts": "statevector.sample_s",
}

#: Kernel spans of global gates handled without communication.
SPECIALIZED_SPANS = ("kernel.diagonal_global", "kernel.monomial_global")

#: Layers whose self times sum to the traced time to result.
SUM_LAYERS = (
    "circuit.generate_s",
    "scheduling.schedule_s",
    "plan.compile_s",
    "runtime.unattributed_s",
    "kernels.apply_s",
    "distributed.swap_s",
    "distributed.specialized_s",
    "statevector.gather_s",
    "analysis.entropy_s",
    "statevector.sample_s",
)

#: Kernel widths reported as ``kernels.apply_s.k<k>``.
KERNEL_WIDTHS = range(1, 11)

#: Scheduler phase spans reported as ``scheduling.<phase>_s``.
SCHEDULER_PHASES = ("find_stages", "cluster_and_adjust", "absorb_diagonals")


def _own_layer(span) -> str | None:
    if span.name.startswith("kernel."):
        if span.name in SPECIALIZED_SPANS:
            return "distributed.specialized_s"
        return "kernels.apply_s"
    if span.name.startswith("comm."):
        return "distributed.swap_s"
    if span.kind == "bench":
        return BENCH_LAYERS.get(span.name)
    return None


def attribute(spans) -> dict:
    """Sum self time per layer over every ``bench.circuit`` tree.

    Returns totals (not means): ``layers`` maps each layer to seconds,
    ``total`` is the summed root duration, ``circuits`` the tree count,
    ``kernel_by_k`` the kernel seconds per width and ``phases`` the
    scheduler phase seconds.
    """
    by_id = {s.span_id: s for s in spans}
    child_seconds: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent_id is not None:
            child_seconds[s.parent_id] += s.seconds
    layer_of: dict[int, str | None] = {}
    root_of: dict[int, object] = {}

    def resolve(span):
        if span.span_id not in layer_of:
            parent = by_id.get(span.parent_id)
            if parent is None:
                root_of[span.span_id] = span
                inherited = None
            else:
                inherited = resolve(parent)
                root_of[span.span_id] = root_of[parent.span_id]
            own = _own_layer(span)
            layer_of[span.span_id] = own if own is not None else inherited
        return layer_of[span.span_id]

    layers: dict[str, float] = defaultdict(float)
    kernel_by_k: dict[int, float] = defaultdict(float)
    phases: dict[str, float] = defaultdict(float)
    total, circuits = 0.0, 0
    for s in spans:
        layer = resolve(s)
        if root_of[s.span_id].name != "bench.circuit":
            continue
        if s.span_id == root_of[s.span_id].span_id:
            total += s.seconds
            circuits += 1
        layers[layer or "unattributed"] += s.seconds - child_seconds[s.span_id]
        if layer == "kernels.apply_s" and "k" in s.attrs:
            kernel_by_k[int(s.attrs["k"])] += s.seconds
        if s.kind == "schedule" and s.name in SCHEDULER_PHASES:
            phases[s.name] += s.seconds
    return {
        "layers": dict(layers),
        "total": total,
        "circuits": circuits,
        "kernel_by_k": dict(kernel_by_k),
        "phases": dict(phases),
    }


def batch_layer_metrics(spans, counters: dict, traced_runs, *, host: dict) -> dict:
    """Per-layer metrics (means per traced circuit) of a batch workload.

    *counters* is the telemetry bundle's metrics snapshot; the plan's
    gather-table cache mirrors its ``plan.cache.*`` counters there.
    """
    att = attribute(spans)
    count = max(1, att["circuits"])
    per = {name: att["layers"].get(name, 0.0) / count for name in SUM_LAYERS}
    total = att["total"] / count
    metrics = dict(per)
    metrics["trace.time_to_result_s"] = total
    metrics["unattributed_share"] = (
        att["layers"].get("unattributed", 0.0) / att["total"] if att["total"] else 0.0
    )
    for phase in SCHEDULER_PHASES:
        metrics[f"scheduling.{phase}_s"] = att["phases"].get(phase, 0.0) / count
    for k in KERNEL_WIDTHS:
        metrics[f"kernels.apply_s.k{k}"] = att["kernel_by_k"].get(k, 0.0) / count
    metrics["runtime.execute_s"] = sum(
        s.seconds for s in spans if s.name == "bench.run_schedule"
    ) / count

    def mean(fn) -> float:
        return sum(fn(r) for r in traced_runs) / max(1, len(traced_runs))

    metrics["scheduling.stages"] = mean(lambda r: len(r.schedule.stages))
    metrics["scheduling.swaps"] = mean(lambda r: r.schedule.num_swaps)
    metrics["scheduling.clusters"] = mean(lambda r: r.schedule.num_clusters)
    metrics["plan.ops"] = mean(lambda r: len(r.program.ops))
    metrics["plan.fused_kernel_ops"] = mean(
        lambda r: r.program.counts.get("fused_kernel_ops", 0)
    )
    table_hits = counters.get("plan.cache.hits", 0)
    table_lookups = table_hits + counters.get("plan.cache.misses", 0)
    metrics["plan.cache.hit_rate"] = (
        table_hits / table_lookups if table_lookups else 0.0
    )
    metrics["kernels.calls"] = mean(lambda r: r.kernel_cost.total_calls)
    flops = mean(lambda r: r.kernel_cost.total_flops)
    nbytes = mean(lambda r: r.kernel_cost.total_bytes)
    metrics["kernels.gflop"] = flops / 1e9
    metrics["kernels.gbytes_computed"] = nbytes / 1e9
    kernel_seconds = per["kernels.apply_s"] + per["distributed.specialized_s"]
    achieved = flops / kernel_seconds / 1e9 if kernel_seconds else 0.0
    metrics["kernels.gflops_per_s"] = achieved
    intensity = flops / nbytes if nbytes else 0.0
    bound = min(host["dgemm_gflops"], host["stream_gbytes_per_s"] * intensity)
    metrics["kernels.roofline_fraction"] = achieved / bound if bound else 0.0
    metrics["distributed.alltoall_steps"] = mean(lambda r: r.comm.alltoall_steps)
    metrics["distributed.bytes_on_network"] = mean(
        lambda r: r.comm.bytes_on_network
    )
    metrics["distributed.storage.read_bytes"] = mean(
        lambda r: r.io.get("read_bytes", 0)
    )
    metrics["distributed.storage.write_bytes"] = mean(
        lambda r: r.io.get("write_bytes", 0)
    )
    piped = [r.pipeline for r in traced_runs if r.pipeline is not None]
    hits = sum(p["hits"] for p in piped)
    lookups = hits + sum(p["misses"] + p["stalls"] for p in piped)
    metrics["runtime.pipeline.prefetch_hit_rate"] = hits / lookups if lookups else 0.0
    metrics["runtime.pipeline.stall_s"] = (
        sum(p["stall_seconds"] for p in piped) / len(piped) if piped else 0.0
    )
    return metrics


def service_layer_metrics(outcomes, service) -> dict:
    """Per-layer metrics (means per job) of the service workload.

    A job's latency, from sending it to its result, splits into the
    ``submit`` call (admission plus compile on miss), the queue wait,
    the execution, and the remainder (reply hand-off), which is reported
    as ``unattributed_share``.
    """
    count = max(1, len(outcomes))
    submit = queue = execute = latency = 0.0
    for o in outcomes:
        job = o.job
        submit += o.submitted_at - o.sent_at
        if job.started_at is not None and job.finished_at is not None:
            queue += job.started_at - o.submitted_at
            execute += job.finished_at - job.started_at
        latency += o.latency
    rest = latency - submit - queue - execute
    return {
        "service.submit_s": submit / count,
        "service.queue_wait_s": queue / count,
        "service.exec_s": execute / count,
        "service.plan_cache.hit_rate": service.plans.hit_rate,
        "service.result_cache.hit_rate": service.results.hit_rate,
        "service.rejected": sum(
            o.result.status.value == "rejected" for o in outcomes
        ),
        "trace.time_to_result_s": latency / count,
        "unattributed_share": rest / latency if latency else 0.0,
    }
