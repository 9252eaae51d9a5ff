"""Fleet metrics: the one reduction of a fleet run.

:func:`compute_cluster_metrics` folds a
:func:`~repro.cluster.simulator.run_fleet` run (its request records and
its pools' end state) into per-tenant SLO attainment, per-pool
accounting and fleet totals.  A serving run is a one-pool fleet, so
:class:`~repro.serving.metrics.ServingMetrics` is a projection of this
result: each statistic has one definition.  When a registry is passed,
the run is also recorded into ``repro_cluster_*`` instruments
(:func:`repro.telemetry.instrument.record_cluster`, the single place
the cluster schema is defined), so the numbers the report prints are
the series a Prometheus / JSON / Chrome-trace export carries.  Nothing
is read back out of the registry.

The headline number is **SLO attainment**: the fraction of a tenant's
*offered* requests that completed within the tenant's ``slo_us``.
Dividing by offered — not completed — means shed, rejected, expired,
failed and late requests all count against the SLO, so the router
cannot game the metric by refusing work.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..telemetry.instrument import record_cluster
from ..telemetry.registry import MetricsRegistry, latency_summary

if TYPE_CHECKING:
    from ..config import ClusterConfig
    from .pools import PoolRuntime
    from .simulator import FleetRun

#: Request outcomes a tenant's offered traffic resolves into.
OUTCOMES = ("completed", "shed", "rejected", "expired", "failed")


@dataclass(frozen=True)
class TenantSummary:
    """One tenant's outcome of a cluster run.

    Attributes:
        offered: Requests the tenant's workload generated.
        completed / shed / rejected / expired / failed: Outcome counts
            (shed = refused by the SLO router's admission, rejected =
            pool queue full, expired = queue timeout, failed = the
            batch kept faulting past the retry budget or the pool
            died).
        slo_attained: Completed requests that met the tenant's SLO.
        slo_attainment: ``slo_attained / offered`` (0 when nothing was
            offered).
        latency_p50_us / latency_p99_us / latency_mean_us: Latency of
            completed requests (all 0.0 when none completed — explicit
            empty-safe zeros, never NaN).
    """

    offered: int
    completed: int
    shed: int
    rejected: int
    expired: int
    failed: int
    slo_attained: int
    slo_attainment: float
    latency_p50_us: float
    latency_p99_us: float
    latency_mean_us: float


@dataclass(frozen=True)
class PoolSummary:
    """One pool's share of a cluster run.

    Attributes:
        routed: Requests the router sent to this pool.
        completed: Requests the pool completed.
        failed: Requests whose batch kept faulting past the retry
            budget, or that were stranded when the pool died.
        retried: Batch re-runs triggered by ABFT-detected faults.
        corrupted: Completed requests whose batch took an undetected
            fault (silent corruption; only possible without ABFT).
        device_failures: Devices that fail-stopped during the run.
        num_batches / mean_batch_size / occupancy: Batch accounting
            (occupancy = valid tokens / (batches x SA rows)).
        final_devices / peak_devices: Replica count at the end of the
            run and its maximum (autoscaling footprint).
        scale_ups / scale_downs: Autoscaler actions on this pool.
        busy_fraction: The sum of every device's busy time (each run
            credited whole at dispatch, retries included) over the
            pool's *provisioned* device-time: each device counted from
            its activation (t = 0 for the initial devices) to its
            retirement, or to the run's last completion while still
            provisioned.  0 when no device-time was provisioned.
        weight_cache_hit_rate: ResBlock weight-cache hit rate (0 for
            pools without a memory system, including GPU pools).
        max_queue_depth: Peak admission-queue depth.
    """

    routed: int
    completed: int
    failed: int
    retried: int
    corrupted: int
    device_failures: int
    num_batches: int
    mean_batch_size: float
    occupancy: float
    final_devices: int
    peak_devices: int
    scale_ups: int
    scale_downs: int
    busy_fraction: float
    weight_cache_hit_rate: float
    max_queue_depth: int


@dataclass(frozen=True)
class ClusterMetrics:
    """Summary of one simulated cluster run.

    Attributes:
        offered / completed / shed / rejected / expired / failed:
            Fleet-wide request counts (sums over tenants).
        slo_attained: Requests that completed within their tenant SLO.
        slo_attainment: ``slo_attained / offered`` — the headline.
        throughput_rps: Completed requests per second of makespan.
        makespan_us: First arrival to last completion.
        latency_p50_us / latency_p95_us / latency_p99_us /
            latency_mean_us: Latency over all completed requests, the
            mean summed in record order (all 0.0 when none completed).
        router_policy: The policy the run used.
        autoscale_ups / autoscale_downs: Total autoscaler actions.
        tenants: Per-tenant :class:`TenantSummary`, insertion-ordered.
        pools: Per-pool :class:`PoolSummary`, insertion-ordered.
    """

    offered: int
    completed: int
    shed: int
    rejected: int
    expired: int
    failed: int
    slo_attained: int
    slo_attainment: float
    throughput_rps: float
    makespan_us: float
    latency_p50_us: float
    latency_p95_us: float
    latency_p99_us: float
    latency_mean_us: float
    router_policy: str
    autoscale_ups: int
    autoscale_downs: int
    tenants: dict[str, TenantSummary] = field(default_factory=dict)
    pools: dict[str, PoolSummary] = field(default_factory=dict)

    def as_rows(self) -> list[list[str]]:
        """Two-column rows for :func:`repro.analysis.render_table`."""
        rows = [
            ["router policy", self.router_policy],
            ["offered", str(self.offered)],
            ["completed", str(self.completed)],
            ["shed (router)", str(self.shed)],
            ["rejected (full)", str(self.rejected)],
            ["expired (timeout)", str(self.expired)],
            ["SLO attainment", f"{self.slo_attainment:.1%}"],
            ["p50 latency",
             f"{self.latency_p50_us:.1f} us" if self.completed else "n/a"],
            ["p99 latency",
             f"{self.latency_p99_us:.1f} us" if self.completed else "n/a"],
            ["throughput", f"{self.throughput_rps:.1f} req/s"],
            ["makespan", f"{self.makespan_us / 1e3:.1f} ms"],
            ["scale-ups / downs",
             f"{self.autoscale_ups} / {self.autoscale_downs}"],
        ]
        for name, tenant in self.tenants.items():
            rows.append([
                f"tenant {name}",
                f"{tenant.slo_attainment:.1%} SLO, "
                f"{tenant.completed}/{tenant.offered} completed",
            ])
        for name, pool in self.pools.items():
            rows.append([
                f"pool {name}",
                f"{pool.completed} done, {pool.final_devices} dev "
                f"(peak {pool.peak_devices}), "
                f"busy {pool.busy_fraction:.0%}",
            ])
        return rows


def _tenant_summary(records: list, latencies: list[float]) -> TenantSummary:
    statuses = Counter(r.status for r in records)
    attained = sum(r.attained for r in records)
    offered = len(records)
    p50, _, p99, mean = latency_summary(latencies)
    return TenantSummary(
        offered=offered,
        **{outcome: statuses[outcome] for outcome in OUTCOMES},
        slo_attained=attained,
        slo_attainment=attained / offered if offered else 0.0,
        latency_p50_us=p50,
        latency_p99_us=p99,
        latency_mean_us=mean,
    )


def _pool_summary(
    pool: "PoolRuntime", records: list, run: "FleetRun",
    batch_totals: tuple[int, int, int],
) -> PoolSummary:
    workers = pool.workers
    num_batches, requests, tokens = batch_totals
    provisioned = workers.device_time_us(run.last_completion_us)
    directions = Counter(a.direction for a in run.actions if a.pool == pool.name)
    return PoolSummary(
        routed=pool.routed,
        completed=pool.completed,
        failed=sum(r.status == "failed" for r in records),
        retried=pool.retried,
        corrupted=sum(r.corrupted for r in records),
        device_failures=workers.device_failures,
        num_batches=num_batches,
        mean_batch_size=requests / num_batches if num_batches else 0.0,
        occupancy=(
            tokens / (num_batches * workers.acc.seq_len)
            if num_batches else 0.0
        ),
        final_devices=pool.active_device_count,
        peak_devices=max(
            (d for _, d in run.device_samples[pool.name]), default=0
        ),
        scale_ups=directions["up"],
        scale_downs=directions["down"],
        busy_fraction=(
            sum(d.busy_us for d in workers.devices) / provisioned
            if provisioned > 0 else 0.0
        ),
        weight_cache_hit_rate=workers.weight_cache_hit_rate,
        max_queue_depth=max(
            (d for _, d in pool.queue.depth_samples), default=0
        ),
    )


def compute_cluster_metrics(
    cluster: "ClusterConfig",
    run: "FleetRun",
    pools: Sequence["PoolRuntime"],
    registry: Optional[MetricsRegistry] = None,
) -> ClusterMetrics:
    """Fold one fleet run into a :class:`ClusterMetrics`.

    Reads the run's records (request-id order, which for a one-pool
    fleet is also dispatch order, since the batcher pops its queue
    FIFO) and each pool's end state.  Serving's plain requests carry
    no tenant: they belong to the fleet's one tenant.  When the caller
    passes a ``registry``, the run is also recorded into it through
    the schema in :func:`repro.telemetry.instrument.record_cluster`,
    followed by the summary gauges.
    """
    only_tenant = cluster.tenants[0].name
    by_tenant: dict[str, list] = {t.name: [] for t in cluster.tenants}
    by_pool: dict[str, list] = {p.name: [] for p in pools}
    latencies: list[float] = []
    tenant_latencies: dict[str, list[float]] = {t: [] for t in by_tenant}
    for record in run.records:
        tenant = getattr(record.request, "tenant", only_tenant)
        by_tenant[tenant].append(record)
        if record.pool is not None:
            by_pool[record.pool].append(record)
        if record.status == "completed":
            latency = record.latency_us
            latencies.append(latency)
            tenant_latencies[tenant].append(latency)
    tenants = {
        name: _tenant_summary(records, tenant_latencies[name])
        for name, records in by_tenant.items()
    }
    batch_totals = {
        p.name: (
            len(p.batches),
            sum(b.num_requests for b in p.batches),
            sum(b.total_tokens for b in p.batches),
        )
        for p in pools
    }
    summaries = {
        p.name: _pool_summary(p, by_pool[p.name], run, batch_totals[p.name])
        for p in pools
    }

    offered = len(run.records)
    counts = {
        outcome: sum(getattr(t, outcome) for t in tenants.values())
        for outcome in OUTCOMES
    }
    attained = sum(t.slo_attained for t in tenants.values())
    p50, p95, p99, mean = latency_summary(latencies)
    seconds = run.makespan_us / 1e6
    metrics = ClusterMetrics(
        offered=offered,
        **counts,
        slo_attained=attained,
        slo_attainment=attained / offered if offered else 0.0,
        throughput_rps=counts["completed"] / seconds if seconds > 0 else 0.0,
        makespan_us=run.makespan_us,
        latency_p50_us=p50,
        latency_p95_us=p95,
        latency_p99_us=p99,
        latency_mean_us=mean,
        router_policy=cluster.router_policy,
        autoscale_ups=sum(s.scale_ups for s in summaries.values()),
        autoscale_downs=sum(s.scale_downs for s in summaries.values()),
        tenants=tenants,
        pools=summaries,
    )
    if registry is not None:
        record_cluster(
            registry,
            metrics=metrics,
            outcomes=OUTCOMES,
            tenant_latencies_us=tenant_latencies,
            pool_batches=batch_totals,
            pools=pools,
            actions=run.actions,
            device_samples=run.device_samples,
        )
        slo = registry.gauge(
            "repro_cluster_slo_attainment",
            "SLO-attained fraction of offered requests",
        )
        for name, tenant in tenants.items():
            slo.set(tenant.slo_attainment, tenant=name)
        busy = registry.gauge(
            "repro_cluster_pool_busy_fraction",
            "Busy device-time over provisioned device-time",
        )
        for name, pool in summaries.items():
            busy.set(pool.busy_fraction, pool=name)
        slo.set(metrics.slo_attainment)
        registry.gauge(
            "repro_cluster_throughput_rps",
            "Completed requests per second of makespan",
        ).set(metrics.throughput_rps)
        registry.gauge(
            "repro_cluster_makespan_us", "Run makespan (us)",
        ).set(run.makespan_us)
    return metrics
