"""Discrete-event fleet simulation: router + pools + autoscaler.

:func:`run_fleet` is the repo's one batch-serving event loop.
:func:`simulate_cluster` drives a merged multi-tenant workload through
it into N heterogeneous pools — each one a :mod:`repro.serving`
admission queue + dynamic batcher + worker pool — while a threshold
autoscaler grows and drains replicate pools from the live telemetry
signals; :func:`repro.serving.simulate_serving` runs the same loop as a
one-pool, one-tenant, round-robin fleet with fault injection on.  One
event heap orders everything; at equal timestamps events run in this
kind order, then in the order they were scheduled:

* ``COMPLETION`` — a dispatched batch's final attempt finishes;
  records, latencies, SLO attainment and the router's per-pool EWMA
  update *here*, so routing only ever sees information from the past;
* ``ARRIVAL`` — a request reaches the router, which picks a pool (or
  sheds under the ``"slo"`` policy) and the pool's queue admits or
  rejects it;
* ``POOL_FREE`` — a busy pool can take its next batch;
* ``WAKEUP`` — a batching cut-off or queue-expiry deadline;
* ``SCALER`` — periodic autoscaler ticks.

Every arrival, pool-free and wake-up event first expires its pool's
queue, then dispatches from it until the pool is busy, the batcher
holds, or the queue is empty.  Dispatch is also where faults strike:
each run may fail-stop one of its devices, an ABFT-protected batch
whose run faulted is re-dispatched up to ``max_retries`` times (then
fails), an unprotected one completes silently corrupted, and a pool
with no live device strands its whole queue as failed.

The run is exactly reproducible from its config; a cluster result
carries per-tenant and per-pool summaries, every ``repro_cluster_*``
series, and one Chrome trace with per-pool device tracks, queue-wait
spans, router/autoscaler marker tracks and per-pool counter tracks.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..config import AcceleratorConfig, ClusterConfig, ModelConfig
from ..core.trace import TraceSpan, time_sorted_counters, write_span_trace
from ..errors import ServingError
from ..obs.spans import AttemptSpan, request_trace
from ..serving.simulator import RequestRecord
from ..serving.workload import Request, validate_workload
from .autoscaler import Autoscaler, ScaleAction
from .metrics import ClusterMetrics, compute_cluster_metrics
from .pools import PoolRuntime
from .router import Router
from .workload import ClusterRequest, cluster_workload

if TYPE_CHECKING:
    import numpy as np

    from ..obs.slo import BurnRateMonitor
    from ..obs.spans import TraceCollector
    from ..telemetry.registry import MetricsRegistry

_COMPLETION, _ARRIVAL, _POOL_FREE, _WAKEUP, _SCALER = 0, 1, 2, 3, 4

#: Default SA row count / max sequence length for cluster runs.
DEFAULT_SEQ_LEN = 64


def attempt_boundary(acc: AcceleratorConfig, outcome) -> Optional[float]:
    """Where compute ends and the exposed reload stall begins.

    Only attributable for single-span (replicated) dispatches whose
    span args carry the run/reload cycle split; layer-sharded
    pipelines interleave stages and return ``None``.
    """
    if len(outcome.spans) != 1:
        return None
    args = outcome.spans[0].args
    cycles = args.get("cycles")
    reload_cycles = args.get("reload_cycles")
    if cycles is None or reload_cycles is None:
        return None
    return outcome.start_us + acc.cycles_to_us(cycles - reload_cycles)


@dataclass
class ClusterResult:
    """Everything one simulated cluster run produced."""

    cluster: ClusterConfig
    metrics: ClusterMetrics
    records: list[RequestRecord]
    actions: list[ScaleAction]
    spans: list[TraceSpan] = field(default_factory=list)
    depth_samples: dict[str, list[tuple]] = field(default_factory=dict)
    device_samples: dict[str, list[tuple]] = field(default_factory=dict)

    def write_trace(
        self,
        path: str,
        extra_spans: Optional[list[TraceSpan]] = None,
    ) -> int:
        """Write one Chrome trace covering the whole cluster.

        Per-pool device tracks come from the worker pools' prefixed
        spans; each pool additionally gets ``<pool>.queue_depth`` and
        ``<pool>.devices`` counter tracks, so the autoscaler's replica
        ramps render next to the queues that triggered them.
        ``extra_spans`` appends caller-supplied tracks — e.g. a
        :class:`~repro.obs.slo.BurnRateMonitor`'s ``slo_alerts`` row.
        """
        counters = time_sorted_counters(
            [(f"{name}.queue_depth", samples)
             for name, samples in self.depth_samples.items()]
            + [(f"{name}.devices", samples)
               for name, samples in self.device_samples.items()]
        )
        return write_span_trace(
            self.spans + list(extra_spans or ()), path, counters=counters,
            other_data={
                "router_policy": self.metrics.router_policy,
                "slo_attainment": self.metrics.slo_attainment,
                "throughput_rps": self.metrics.throughput_rps,
                "makespan_us": self.metrics.makespan_us,
            },
        )


@dataclass
class FleetRun:
    """What :func:`run_fleet` leaves besides the pools' own state.

    ``makespan_us`` runs from the first arrival to
    ``last_completion_us``, the last completion (the first arrival
    itself when nothing completed).
    """

    records: list[RequestRecord]
    spans: list[TraceSpan]
    device_samples: dict[str, list[tuple]]
    router: Router
    actions: list[ScaleAction]
    last_completion_us: float
    makespan_us: float


def run_fleet(
    cluster: ClusterConfig,
    pools: list[PoolRuntime],
    requests: Sequence[Request],
    *,
    tracer: Optional["TraceCollector"] = None,
    monitor: Optional["BurnRateMonitor"] = None,
    batch_fault_rate: float = 0.0,
    device_failure_rate: float = 0.0,
    max_retries: int = 0,
    fault_rng: Optional["np.random.Generator"] = None,
) -> FleetRun:
    """Run ``requests`` through the fleet's event loop.

    The requests must pass
    :func:`~repro.serving.workload.validate_workload`: time-sorted,
    with dense ids, so a request's id indexes its record.

    ``cluster`` supplies the router policy, autoscaler, queue timeout
    and EWMA smoothing (the pools hold the rest).  When the requests
    are :class:`ClusterRequest` objects the run judges their tenant
    SLOs: completions get ``attained``, traces carry tenant and pool
    labels and ``monitor`` is fed.  Serving's plain requests have no
    SLO; their completion traces report ``corrupted`` instead.  The
    fault rates follow :class:`~repro.config.ServingConfig` and draw
    from ``fault_rng``.
    """
    slo = bool(requests) and isinstance(requests[0], ClusterRequest)
    by_name = {p.name: p for p in pools}
    router = Router(cluster, pools)
    scaler = Autoscaler(cluster.autoscaler, pools)
    if monitor is not None and cluster.autoscaler.scale_up_burn_rate is not None:
        scaler.attach_burn_source(monitor.max_short_burn)

    records: list[RequestRecord] = []
    spans: list[TraceSpan] = []
    device_samples: dict[str, list[tuple]] = {
        p.name: [(0.0, p.active_device_count)] for p in pools
    }
    in_flight = 0
    remaining_arrivals = len(requests)
    seq = itertools.count()
    heap: list = []

    def push(at_us: float, kind: int, payload) -> None:
        heapq.heappush(heap, (at_us, kind, next(seq), payload))

    for request in requests:
        push(request.arrival_us, _ARRIVAL, request)
    if cluster.autoscaler.enabled:
        push(cluster.autoscaler.interval_us, _SCALER, None)

    def finish(record: RequestRecord, status: str,
               pool: Optional[PoolRuntime], now_us: float, ok: bool,
               attrs: Optional[dict] = None, **kwargs) -> None:
        """Settle one request: its final status, its span tree for the
        tracer (if any) and its SLO event for the monitor (if any)."""
        record.status = status
        request = record.request
        if tracer is not None:
            if slo:
                kwargs["tenant"] = request.tenant
                if pool is not None:
                    attrs = {"pool": pool.name, **(attrs or {})}
            tracer.add(request_trace(
                req_id=request.req_id, status=status,
                arrival_us=request.arrival_us, attrs=attrs, **kwargs,
            ))
        if monitor is not None:
            monitor.observe(now_us, request.tenant, ok)

    def fault_marker(name: str, at_us: float, args: dict) -> None:
        spans.append(TraceSpan(name=name, track="faults", start_us=at_us,
                               duration_us=0.0, args=args))

    def fail_stop(pool: PoolRuntime, outcome) -> None:
        """Draw a fail-stop for the run that just finished."""
        if device_failure_rate > 0.0 and fault_rng.random() < device_failure_rate:
            victims = outcome.device_ids
            victim = victims[int(fault_rng.integers(0, len(victims)))]
            pool.workers.fail_device(victim, outcome.completion_us)
            fault_marker(f"device{victim}.failure", outcome.completion_us,
                         {"event": "device_failure", "device": victim})

    def attempt(pool: PoolRuntime, dispatched_us: float, outcome) -> AttemptSpan:
        """Trace view of one dispatch attempt (tracer-only path)."""
        return AttemptSpan(
            dispatched_us, outcome.start_us, outcome.completion_us,
            attempt_boundary(pool.workers.acc, outcome),
            attrs={"devices": ",".join(map(str, outcome.device_ids))},
        )

    def run_batch(pool: PoolRuntime, batch, now_us: float) -> None:
        """Dispatch ``batch``, play out its fault/retry chain, book it."""
        nonlocal in_flight
        workers = pool.workers
        outcome = workers.dispatch(batch, now_us)
        pool.batches.append(batch)
        spans.extend(outcome.spans)
        attempts = [attempt(pool, now_us, outcome)] if tracer is not None else []
        fail_stop(pool, outcome)
        # With ABFT the checksum syndrome flags a faulted run at drain
        # and the batch is re-dispatched (paying full cycles again) up
        # to max_retries times; without ABFT the fault sails through.
        faulted = batch_fault_rate > 0.0 and fault_rng.random() < batch_fault_rate
        tries = 0
        while (faulted and workers.acc.abft_protected
               and tries < max_retries and workers.pool_alive):
            tries += 1
            pool.retried += 1
            retry_at = outcome.completion_us
            fault_marker(f"batch{batch.batch_id}.retry{tries}", retry_at,
                         {"event": "abft_retry", "attempt": tries})
            outcome = workers.dispatch(batch, retry_at)
            spans.extend(outcome.spans)
            if tracer is not None:
                attempts.append(attempt(pool, retry_at, outcome))
            fail_stop(pool, outcome)
            faulted = fault_rng.random() < batch_fault_rate
        pool.util_samples.append((
            outcome.completion_us,
            pool.mac_share * (batch.total_tokens / workers.acc.seq_len),
        ))
        lookups = workers.weight_cache_hits + workers.weight_cache_misses
        if lookups:
            pool.cache_samples.append((
                outcome.completion_us, workers.weight_cache_hits / lookups,
            ))
        failed = faulted and workers.acc.abft_protected
        in_flight += batch.num_requests
        for request in batch.requests:
            record = records[request.req_id]
            record.batch_id = batch.batch_id
            record.dispatched_us = now_us
            wait = now_us - request.arrival_us
            if wait > 0 and not failed:
                args = {"tenant": request.tenant} if slo else {}
                args.update(seq_len=request.seq_len, batch=batch.batch_id)
                spans.append(TraceSpan(
                    name=f"req{request.req_id}.wait",
                    track=f"{workers.track_prefix}queue",
                    start_us=request.arrival_us, duration_us=wait,
                    args=args,
                ))
        push(outcome.completion_us, _COMPLETION,
             (pool, batch, outcome, tuple(attempts), faulted))

    def complete(pool: PoolRuntime, batch, outcome, attempts, faulted) -> None:
        """Book a batch whose final attempt just ended."""
        nonlocal in_flight
        in_flight -= batch.num_requests
        done_us = outcome.completion_us
        failed = faulted and pool.workers.acc.abft_protected
        if not failed:
            pool.completed += batch.num_requests
        for request in batch.requests:
            record = records[request.req_id]
            if failed:
                finish(record, "failed", pool, done_us, False,
                       attrs={"batch": batch.batch_id,
                              "reason": "retries_exhausted"},
                       dispatched_us=record.dispatched_us, attempts=attempts)
                continue
            record.completed_us = done_us
            record.corrupted = faulted
            pool.observe_completion(
                done_us, done_us - request.arrival_us, cluster.ewma_alpha
            )
            attrs = {"batch": batch.batch_id}
            if slo:
                record.attained = done_us <= request.deadline_us
                attrs.update(deadline_us=request.deadline_us,
                             attained=record.attained,
                             slo_violated=not record.attained)
            else:
                attrs["corrupted"] = faulted
            finish(record, "completed", pool, done_us, record.attained,
                   attrs=attrs, dispatched_us=record.dispatched_us,
                   attempts=attempts)

    def dispatch(pool: PoolRuntime, now_us: float) -> None:
        queue, workers = pool.queue, pool.workers
        while len(queue):
            if not workers.pool_alive:
                # Degraded to dead: strand everything still queued.
                for request in queue.pop_front(len(queue), now_us):
                    finish(records[request.req_id], "failed", pool, now_us,
                           False, attrs={"reason": "pool_dead"},
                           end_us=now_us)
                return
            if not workers.can_accept(now_us):
                push(workers.next_free_us(), _POOL_FREE, pool)
                return
            batch = pool.batcher.try_form(
                queue, now_us, force=(remaining_arrivals == 0)
            )
            if batch is None:
                deadline = min(
                    pool.batcher.next_deadline_us(queue),
                    queue.next_expiry_us(),
                )
                if deadline != float("inf"):
                    push(max(deadline, now_us), _WAKEUP, pool)
                return
            run_batch(pool, batch, now_us)

    def expire_queue(pool: PoolRuntime, now_us: float) -> None:
        for request in pool.queue.expire(now_us):
            finish(records[request.req_id], "expired", pool, now_us, False,
                   end_us=request.arrival_us + cluster.queue_timeout_us)

    def run_scaler(now_us: float) -> None:
        for action in scaler.evaluate(now_us):
            pool = by_name[action.pool]
            device_samples[pool.name].append(
                (now_us, pool.active_device_count)
            )
            spans.append(TraceSpan(
                name=(f"{action.pool}.scale_{action.direction}"
                      f".device{action.device_id}"),
                track="autoscaler",
                start_us=now_us, duration_us=0.0,
                args={"pool": action.pool, "direction": action.direction,
                      "reason": action.reason,
                      "device": action.device_id},
            ))
            if action.direction == "up":
                dispatch(pool, now_us)
        if remaining_arrivals > 0 or in_flight > 0 or any(
            len(p.queue) for p in pools
        ):
            push(now_us + cluster.autoscaler.interval_us, _SCALER, None)

    def arrive(request, now_us: float) -> None:
        record = RequestRecord(request, "queued")
        records.append(record)
        pool = router.route(request, now_us)
        if pool is None:
            spans.append(TraceSpan(
                name=f"req{request.req_id}.shed",
                track="router",
                start_us=now_us, duration_us=0.0,
                args={"tenant": request.tenant,
                      "deadline_us": request.deadline_us},
            ))
            finish(record, "shed", None, now_us, False)
        else:
            record.pool = pool.name
            pool.routed += 1
            if not pool.queue.offer(request, now_us):
                finish(record, "rejected", pool, now_us, False)
            elif cluster.queue_timeout_us != float("inf"):
                push(request.arrival_us + cluster.queue_timeout_us,
                     _WAKEUP, pool)
            expire_queue(pool, now_us)
            dispatch(pool, now_us)
        # The last arrival force-flushes every pool's partial batch.
        if remaining_arrivals == 0:
            for p in pools:
                if p is not pool:
                    dispatch(p, now_us)

    while heap:
        now_us, kind, _, payload = heapq.heappop(heap)
        if _POOL_FREE <= kind <= _WAKEUP:  # payload: the pool concerned
            expire_queue(payload, now_us)
            dispatch(payload, now_us)
        elif kind == _COMPLETION:
            complete(*payload)
        elif kind == _ARRIVAL:
            remaining_arrivals -= 1
            arrive(payload, now_us)
        else:
            run_scaler(now_us)

    if any(r.status == "queued" for r in records):
        raise ServingError("fleet run ended with requests still queued")
    first_arrival = requests[0].arrival_us if requests else 0.0
    last_completion = max(
        (r.completed_us for r in records if r.completed_us is not None),
        default=first_arrival,
    )
    return FleetRun(
        records=records,
        spans=spans,
        device_samples=device_samples,
        router=router,
        actions=list(scaler.actions),
        last_completion_us=last_completion,
        makespan_us=last_completion - first_arrival,
    )


def simulate_cluster(
    model: ModelConfig,
    cluster: ClusterConfig,
    workload: Optional[Sequence[ClusterRequest]] = None,
    registry: Optional["MetricsRegistry"] = None,
    seq_len: int = DEFAULT_SEQ_LEN,
    tracer: Optional["TraceCollector"] = None,
    monitor: Optional["BurnRateMonitor"] = None,
) -> ClusterResult:
    """Simulate one cluster run (default workload: the config's tenants).

    Args:
        model: The transformer every pool serves.
        cluster: Pools, tenants, router policy and autoscaler settings.
        workload: Explicit request list; overrides the generated one.
        registry: Optional metrics registry; the run's
            ``repro_cluster_*`` series are recorded into it for export.
        seq_len: SA row count / max sequence length of every pool.
        tracer: Optional :class:`~repro.obs.spans.TraceCollector`; every
            request gets one causal span tree whose hops sum exactly to
            its latency.  Strictly passive.
        monitor: Optional :class:`~repro.obs.slo.BurnRateMonitor` fed
            every terminal request event in time order.  Passive unless
            ``cluster.autoscaler.scale_up_burn_rate`` is set, in which
            case the autoscaler consumes the monitor's worst
            short-window burn as an additional up-signal (the explicit
            alert→autoscaler opt-in).
    """
    requests = (
        list(workload) if workload is not None
        else cluster_workload(cluster)
    )
    validate_workload(requests, seq_len)
    known_tenants = {t.name for t in cluster.tenants}
    for request in requests:
        if request.tenant not in known_tenants:
            raise ServingError(
                f"request {request.req_id} belongs to unknown tenant "
                f"{request.tenant!r}"
            )

    pools = [
        PoolRuntime(pool_cfg, cluster, model, seq_len)
        for pool_cfg in cluster.pools
    ]
    run = run_fleet(cluster, pools, requests, tracer=tracer, monitor=monitor)
    return ClusterResult(
        cluster=cluster,
        metrics=compute_cluster_metrics(cluster, run, pools, registry=registry),
        records=run.records,
        actions=run.actions,
        spans=run.spans,
        depth_samples={
            p.name: list(p.queue.depth_samples) for p in pools
        },
        device_samples=run.device_samples,
    )
