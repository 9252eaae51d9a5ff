"""Discrete-event serving simulation over the cycle-accurate models.

:func:`simulate_serving` drives a seeded request workload through the
admission queue, the dynamic batcher and the worker pool, charging
every batch the cycle costs of the Algorithm 1 schedules plus
weight-reload accounting.  It owns no event loop: the run is a
one-pool, one-tenant, round-robin fleet on
:func:`repro.cluster.simulator.run_fleet` (arrivals, batch completions,
device-free times, batching and expiry deadlines), reduced back to the
serving result types.  The run is exactly reproducible from its
:class:`~repro.config.ServingConfig` and emits:

* a :class:`~repro.serving.metrics.ServingMetrics` summary
  (p50/p95/p99 latency, throughput, SA utilization, rejection rate,
  fault/failure counters);
* per-request :class:`RequestRecord` outcomes;
* Chrome trace spans/counters through the :mod:`repro.core.trace`
  pathway (queue waits, per-device batch runs, queue-depth counter,
  fault retries and device failures on a ``faults`` track).

Fault-aware serving (``ServingConfig.batch_fault_rate`` /
``device_failure_rate``): every batch run draws from an independent
seeded fault stream.  With ``abft_protected`` accelerators a faulted
batch is detected at drain and re-dispatched up to ``max_retries``
times (then *failed*); without ABFT the fault completes silently and
the requests are marked *corrupted*.  Devices fail-stop; a replicated
pool degrades replica by replica, a layer-sharded pipeline dies with
its first lost stage, and requests stranded on a dead pool fail.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..config import AcceleratorConfig, ModelConfig, ServingConfig
from ..core.trace import TraceSpan, time_sorted_counters, write_span_trace
from ..errors import ServingError
from .batching import Batch, BatchCostModel
from .metrics import ServingMetrics, compute_metrics
from .workload import Request, poisson_workload, validate_workload

if TYPE_CHECKING:
    from ..obs.spans import TraceCollector
    from ..telemetry.registry import MetricsRegistry


@dataclass
class RequestRecord:
    """Final outcome of one request, in a serving or a cluster run.

    ``status`` is ``"completed"``, ``"shed"`` (refused by the cluster's
    SLO router), ``"rejected"`` (queue full on arrival), ``"expired"``
    (timed out while queued) or ``"failed"`` (the batch kept faulting
    past the retry budget, or the request was stranded when its worker
    pool died).  A completed request whose batch took an *undetected*
    fault additionally carries ``corrupted=True`` — the
    silent-corruption outcome ABFT exists to prevent.  ``pool`` names
    the pool the router picked; ``attained`` is True only for
    completions within the request's tenant SLO (cluster runs).
    """

    request: Request
    status: str
    batch_id: Optional[int] = None
    dispatched_us: Optional[float] = None
    completed_us: Optional[float] = None
    corrupted: bool = False
    pool: Optional[str] = None
    attained: bool = False

    @property
    def latency_us(self) -> Optional[float]:
        if self.completed_us is None:
            return None
        return self.completed_us - self.request.arrival_us


@dataclass
class ServingResult:
    """Everything one simulated run produced."""

    serving: ServingConfig
    metrics: ServingMetrics
    records: list[RequestRecord]
    batches: list[Batch]
    spans: list[TraceSpan] = field(default_factory=list)
    depth_samples: list[tuple] = field(default_factory=list)
    util_samples: list[tuple] = field(default_factory=list)
    cache_samples: list[tuple] = field(default_factory=list)

    def write_trace(self, path: str) -> int:
        """Write the run's spans + counter tracks as Chrome JSON.

        Counter tracks: ``queue_depth`` plus, when batches ran,
        ``sa_utilization`` (per-batch useful-MAC share) and
        ``weight_cache_hit_rate`` (cumulative).  Batch samples land at
        completion times, so each track is time-sorted before export.
        """
        counters = time_sorted_counters([
            ("queue_depth", self.depth_samples),
            ("sa_utilization", self.util_samples),
            ("weight_cache_hit_rate", self.cache_samples),
        ])
        return write_span_trace(
            self.spans, path, counters=counters,
            other_data={
                "completed": self.metrics.completed,
                "throughput_rps": self.metrics.throughput_rps,
                "makespan_us": self.metrics.makespan_us,
            },
        )


def simulate_serving(
    model: ModelConfig,
    acc: AcceleratorConfig,
    serving: Optional[ServingConfig] = None,
    workload: Optional[Sequence[Request]] = None,
    registry: Optional["MetricsRegistry"] = None,
    tracer: Optional["TraceCollector"] = None,
) -> ServingResult:
    """Simulate serving ``workload`` (default: seeded Poisson traffic).

    Args:
        model / acc: The model and accelerator under test; every batch
            costs one full-model run of the cycle-level schedules.
        serving: Queue/batching/pool parameters (default
            :class:`ServingConfig`).
        workload: Explicit request list; overrides the generated one.
        registry: Optional metrics registry; the run's serving series
            (request outcomes, latency histogram, queue-depth samples,
            cache lookups) are recorded into it for export.
        tracer: Optional :class:`~repro.obs.spans.TraceCollector`;
            every request gets one causal span tree (queue wait,
            device wait, compute, memsys stall, retries, terminal
            markers) whose hops sum exactly to its latency.  Strictly
            passive — outputs are bit-identical with or without it.
    """
    # Lazy import: ``import repro`` stays free of the cluster layer.
    from ..cluster.pools import PoolRuntime
    from ..cluster.simulator import run_fleet

    serving = ServingConfig() if serving is None else serving
    if serving.max_len > acc.seq_len and workload is None:
        raise ServingError(
            f"serving max_len {serving.max_len} exceeds the SA's "
            f"{acc.seq_len} rows"
        )
    requests = (
        list(workload) if workload is not None
        else poisson_workload(serving)
    )
    validate_workload(requests, acc.seq_len)

    cost = BatchCostModel(model, acc, compression=serving.compression)
    fleet = serving.fleet()
    pool = PoolRuntime(
        fleet.pools[0], fleet, model, acc.seq_len, cost=cost, track_prefix="",
    )
    run = run_fleet(
        fleet, [pool], requests, tracer=tracer,
        batch_fault_rate=serving.batch_fault_rate,
        device_failure_rate=serving.device_failure_rate,
        max_retries=serving.max_retries,
        # Independent deterministic fault stream: re-running with the
        # same ServingConfig injects the same faults and failures.
        fault_rng=np.random.default_rng([serving.seed, 0x5EED]),
    )
    return ServingResult(
        serving=serving,
        metrics=compute_metrics(fleet, run, pool, registry=registry),
        records=run.records,
        batches=pool.batches,
        spans=run.spans,
        depth_samples=list(pool.queue.depth_samples),
        util_samples=pool.util_samples,
        cache_samples=pool.cache_samples,
    )
