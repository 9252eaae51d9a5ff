"""Serving metrics: latency percentiles, throughput, utilization.

Percentiles use the deterministic nearest-rank definition (the smallest
value with at least ``p%`` of the sample at or below it), so the
reported p50/p95/p99 are always actual observed latencies and runs are
exactly reproducible.

A serving run is a one-pool fleet, and :func:`compute_metrics` builds
its :class:`ServingMetrics` as a projection of the fleet reduction
:func:`repro.cluster.metrics.compute_cluster_metrics`: counts, the
latency summary, throughput and the pool's batch, queue, cache and
fault accounting come from there; only the figures no pool summary
holds are computed here.  When the caller passes a
:class:`~repro.telemetry.registry.MetricsRegistry` the run is also
recorded into it (:func:`record_serving` plus four run-level gauges),
so the same numbers are exportable as Prometheus text / JSON / Chrome
counter tracks; the summary is never read back out of the registry.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..errors import ServingError
from ..telemetry.registry import MetricsRegistry, nearest_rank

if TYPE_CHECKING:
    from ..cluster.pools import PoolRuntime
    from ..cluster.simulator import FleetRun
    from ..config import ClusterConfig


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (``pct`` in (0, 100])."""
    if not values:
        raise ServingError("percentile of an empty sample")
    if not 0 < pct <= 100:
        raise ServingError(f"percentile {pct} outside (0, 100]")
    return nearest_rank(sorted(values), pct)


def mean_queue_depth(samples: Sequence[tuple[float, int]]) -> float:
    """Time-weighted mean depth from ``(time, depth)`` change samples."""
    if len(samples) < 2:
        return float(samples[0][1]) if samples else 0.0
    area = 0.0
    for (t0, d0), (t1, _) in zip(samples, samples[1:]):
        area += d0 * (t1 - t0)
    horizon = samples[-1][0] - samples[0][0]
    return area / horizon if horizon > 0 else float(samples[0][1])


@dataclass(frozen=True)
class ServingMetrics:
    """Summary of one simulated serving run.

    Attributes:
        offered / completed / rejected / expired: Request counts.
        failed: Requests whose batch kept faulting past the retry
            budget, or that were stranded when the pool died.
        retried: Batch re-runs triggered by ABFT-detected faults.
        corrupted: Completed requests whose batch took an undetected
            fault (silent corruption; only possible without ABFT).
        device_failures: Devices that fail-stopped during the run.
        rejection_rate: ``(rejected + expired) / offered``.
        latency percentiles / mean: Arrival-to-completion, us (only
            completed requests, the mean summed in dispatch order; 0.0
            when nothing completed).
        throughput_rps: Completed requests per second of makespan.
        tokens_per_s: Valid tokens served per second of makespan.
        makespan_us: First arrival to last completion.
        num_batches / mean_batch_size: Dispatch accounting.
        occupancy: Valid tokens / (batches x SA rows) — 1 minus the
            padding waste the ``s x 64`` geometry forces.
        device_busy_fraction: The sum of every device's busy time
            (each run credited whole at dispatch, retries included)
            over ``num_devices x makespan_us``, with ``num_devices``
            the pool's configured device count and the makespan
            running from the first arrival to the last completion.  0
            when the makespan is 0.
        sa_utilization: Useful-MAC utilization of the whole pool:
            ideal MAC cycles, scaled by row occupancy, over all
            PE-cycles in the makespan.
        mean_queue_depth / max_queue_depth: Admission-queue pressure.
        weight_cache_hits / weight_cache_misses: ResBlock weight-set
            lookups across all devices (zero unless a
            :class:`~repro.config.MemoryConfig` is configured).
        weight_cache_hit_rate: ``hits / (hits + misses)``.
        reload_stall_cycles: Total exposed weight-fetch cycles the
            memory system charged across all batch runs.
    """

    offered: int
    completed: int
    rejected: int
    expired: int
    rejection_rate: float
    latency_p50_us: float
    latency_p95_us: float
    latency_p99_us: float
    latency_mean_us: float
    throughput_rps: float
    tokens_per_s: float
    makespan_us: float
    num_batches: int
    mean_batch_size: float
    occupancy: float
    device_busy_fraction: float
    sa_utilization: float
    mean_queue_depth: float
    max_queue_depth: int
    failed: int = 0
    retried: int = 0
    corrupted: int = 0
    device_failures: int = 0
    weight_cache_hits: int = 0
    weight_cache_misses: int = 0
    weight_cache_hit_rate: float = 0.0
    reload_stall_cycles: int = 0
    extra: dict = field(default_factory=dict)

    def as_rows(self) -> list[list[str]]:
        """Two-column rows for :func:`repro.analysis.render_table`."""
        return [
            ["offered", str(self.offered)],
            ["completed", str(self.completed)],
            ["rejected (full)", str(self.rejected)],
            ["expired (timeout)", str(self.expired)],
            ["failed (fault)", str(self.failed)],
            ["retried (fault)", str(self.retried)],
            ["corrupted (silent)", str(self.corrupted)],
            ["device failures", str(self.device_failures)],
            ["rejection rate", f"{self.rejection_rate:.1%}"],
            ["p50 latency",
             f"{self.latency_p50_us:.1f} us" if self.completed else "n/a"],
            ["p95 latency",
             f"{self.latency_p95_us:.1f} us" if self.completed else "n/a"],
            ["p99 latency",
             f"{self.latency_p99_us:.1f} us" if self.completed else "n/a"],
            ["throughput", f"{self.throughput_rps:.1f} req/s"],
            ["token throughput", f"{self.tokens_per_s:,.0f} tok/s"],
            ["batches", str(self.num_batches)],
            ["mean batch size", f"{self.mean_batch_size:.2f}"],
            ["SA row occupancy", f"{self.occupancy:.1%}"],
            ["device busy", f"{self.device_busy_fraction:.1%}"],
            ["SA utilization", f"{self.sa_utilization:.1%}"],
            ["mean queue depth", f"{self.mean_queue_depth:.2f}"],
            ["max queue depth", str(self.max_queue_depth)],
            ["weight-cache hits", str(self.weight_cache_hits)],
            ["weight-cache misses", str(self.weight_cache_misses)],
            ["weight-cache hit rate", f"{self.weight_cache_hit_rate:.1%}"],
            ["reload stall cycles", f"{self.reload_stall_cycles:,}"],
        ]


def record_serving(
    registry: MetricsRegistry,
    *,
    latencies_us: Sequence[float],
    batch_sizes: Sequence[int],
    batch_tokens: Sequence[int],
    offered: int,
    rejected: int,
    expired: int,
    depth_samples: Sequence[tuple[float, int]] = (),
    failed: int = 0,
    retried: int = 0,
    corrupted: int = 0,
    device_failures: int = 0,
    weight_cache_hits: int = 0,
    weight_cache_misses: int = 0,
    reload_stall_cycles: int = 0,
) -> None:
    """Record one serving run's raw outcomes into ``registry``.

    Defines the serving metric schema in one place.  Counters
    accumulate across calls, so a registry shared by several runs holds
    the union of their outcomes; each run's :class:`ServingMetrics`
    still comes from that run's records alone.
    """
    registry.counter(
        "repro_serving_requests_offered_total",
        "Requests that arrived at the admission queue",
    ).inc(offered)
    outcomes = registry.counter(
        "repro_serving_requests_total",
        "Requests by final outcome",
    )
    completed = len(latencies_us)
    for outcome, count in (
        ("completed", completed), ("rejected", rejected),
        ("expired", expired), ("failed", failed),
    ):
        if count:
            outcomes.inc(count, outcome=outcome)
    registry.counter(
        "repro_serving_retries_total",
        "Batch re-runs triggered by ABFT-detected faults",
    ).inc(retried)
    registry.counter(
        "repro_serving_corrupted_total",
        "Completed requests whose batch took a silent fault",
    ).inc(corrupted)
    registry.counter(
        "repro_serving_device_failures_total",
        "Devices that fail-stopped during the run",
    ).inc(device_failures)
    registry.counter(
        "repro_serving_batches_total", "Batches dispatched",
    ).inc(len(batch_sizes))
    registry.counter(
        "repro_serving_batch_requests_total",
        "Requests summed over dispatched batches",
    ).inc(sum(batch_sizes))
    registry.counter(
        "repro_serving_batch_tokens_total",
        "Valid tokens summed over dispatched batches",
    ).inc(sum(batch_tokens))
    cache = registry.counter(
        "repro_serving_weight_cache_lookups_total",
        "ResBlock weight-set lookups by outcome",
    )
    if weight_cache_hits:
        cache.inc(weight_cache_hits, outcome="hit")
    if weight_cache_misses:
        cache.inc(weight_cache_misses, outcome="miss")
    registry.counter(
        "repro_serving_reload_stall_cycles_total",
        "Exposed weight-fetch cycles charged across batch runs",
    ).inc(reload_stall_cycles)
    latency = registry.histogram(
        "repro_serving_latency_us",
        "Arrival-to-completion latency of completed requests (us)",
    )
    for value in latencies_us:
        latency.observe(value)
    depth = registry.series(
        "repro_serving_queue_depth",
        "Admission-queue depth at each change",
    )
    for ts_us, value in depth_samples:
        depth.sample(ts_us, value)


def compute_metrics(
    fleet: "ClusterConfig",
    run: "FleetRun",
    pool: "PoolRuntime",
    registry: Optional[MetricsRegistry] = None,
) -> ServingMetrics:
    """Project the one-pool fleet ``run`` onto a :class:`ServingMetrics`.

    Every statistic a fleet or pool summary holds is read from
    :func:`~repro.cluster.metrics.compute_cluster_metrics`.  Computed
    here: ``tokens_per_s``, ``sa_utilization``, ``mean_queue_depth``,
    ``device_busy_fraction``, ``rejection_rate`` and the weight-cache
    and reload counts.  When ``registry`` is given the run is also
    recorded into it (:func:`record_serving`) and the run-level ratios
    that need simulation context are published as gauges, so the
    export carries the full summary.
    """
    # Lazy import: ``import repro`` stays free of the cluster layer.
    from ..cluster.metrics import compute_cluster_metrics

    totals = compute_cluster_metrics(fleet, run, [pool])
    summary = totals.pools[pool.name]
    workers, cost = pool.workers, pool.cost
    makespan_us = totals.makespan_us
    busy = workers.busy_fraction(makespan_us)
    if pool.config.placement != "replicate":
        run_cycles = cost.compute_cycles
    elif workers.mem is None:
        run_cycles = cost.run_cycles
    else:
        # Miss-driven reloads vary per run (warm caches shrink them);
        # charge the mean exposed reload for the utilization ratio.
        dispatches = sum(d.batches_run for d in workers.devices)
        run_cycles = cost.compute_cycles + (
            workers.reload_stall_cycles // dispatches if dispatches else 0
        )
    # Useful-MAC share: each run streams ideal_cycles MACs at full s;
    # occupancy discounts the rows that were padding.
    sa_util = 0.0
    if makespan_us > 0 and run_cycles > 0:
        sa_util = busy * (cost.ideal_cycles / run_cycles) * summary.occupancy
    seconds = makespan_us / 1e6
    batch_tokens = [b.total_tokens for b in pool.batches]
    depth_samples = pool.queue.depth_samples
    if registry is not None:
        record_serving(
            registry,
            latencies_us=[
                r.latency_us for r in run.records if r.status == "completed"
            ],
            batch_sizes=[b.num_requests for b in pool.batches],
            batch_tokens=batch_tokens,
            offered=totals.offered,
            rejected=totals.rejected,
            expired=totals.expired,
            depth_samples=depth_samples,
            failed=summary.failed,
            retried=summary.retried,
            corrupted=summary.corrupted,
            device_failures=summary.device_failures,
            weight_cache_hits=workers.weight_cache_hits,
            weight_cache_misses=workers.weight_cache_misses,
            reload_stall_cycles=workers.reload_stall_cycles,
        )
        for name, help_text, value in (
            ("repro_serving_makespan_us", "Run makespan (us)", makespan_us),
            ("repro_serving_device_busy_fraction",
             "Busy device-time / total device-time", busy),
            ("repro_serving_sa_utilization",
             "Pool-wide useful-MAC utilization", sa_util),
            ("repro_serving_occupancy",
             "Valid tokens / (batches x SA rows)", summary.occupancy),
        ):
            registry.gauge(name, help_text).set(value)
    return ServingMetrics(
        offered=totals.offered,
        completed=totals.completed,
        rejected=totals.rejected,
        expired=totals.expired,
        rejection_rate=(
            (totals.rejected + totals.expired) / totals.offered
            if totals.offered else 0.0
        ),
        latency_p50_us=totals.latency_p50_us,
        latency_p95_us=totals.latency_p95_us,
        latency_p99_us=totals.latency_p99_us,
        latency_mean_us=totals.latency_mean_us,
        throughput_rps=totals.throughput_rps,
        tokens_per_s=sum(batch_tokens) / seconds if seconds > 0 else 0.0,
        makespan_us=makespan_us,
        num_batches=summary.num_batches,
        mean_batch_size=summary.mean_batch_size,
        occupancy=summary.occupancy,
        device_busy_fraction=busy,
        sa_utilization=sa_util,
        mean_queue_depth=mean_queue_depth(depth_samples),
        max_queue_depth=summary.max_queue_depth,
        failed=summary.failed,
        retried=summary.retried,
        corrupted=summary.corrupted,
        device_failures=summary.device_failures,
        weight_cache_hits=workers.weight_cache_hits,
        weight_cache_misses=workers.weight_cache_misses,
        weight_cache_hit_rate=summary.weight_cache_hit_rate,
        reload_stall_cycles=workers.reload_stall_cycles,
    )
