"""The one fleet reduction: latency summary and the empty-run convention.

``compute_cluster_metrics`` reduces every ``run_fleet`` run, serving's
one-pool runs included, through one latency summary.  A run in which
nothing completes reports 0.0 latencies (never NaN), and its summary
serialises under ``allow_nan=False``.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.cluster import ClusterRequest, PoolRuntime
from repro.cluster.metrics import compute_cluster_metrics
from repro.cluster.simulator import run_fleet
from repro.config import (
    AcceleratorConfig,
    AutoscalerConfig,
    ClusterConfig,
    DecodeConfig,
    PoolConfig,
    ServingConfig,
    TenantConfig,
    transformer_base,
)
from repro.decode import simulate_decode
from repro.errors import ServingError
from repro.serving import simulate_serving
from repro.telemetry.registry import latency_summary


@pytest.fixture(scope="module")
def model():
    return transformer_base()


def _all_fail_serving(model):
    # Every batch faults and ABFT gets no retry: every request fails.
    serving = ServingConfig(
        num_requests=20, max_len=32, batch_fault_rate=1.0, max_retries=0,
    )
    return simulate_serving(
        model, AcceleratorConfig(abft_protected=True), serving
    ).metrics


def _all_fail_cluster(model):
    # The same all-fail ABFT fault path, on a two-tenant fleet.
    cluster = ClusterConfig(
        pools=(PoolConfig(name="p0", num_devices=1, max_devices=1,
                          abft_protected=True),),
        tenants=(TenantConfig(name="a"), TenantConfig(name="b")),
        router_policy="round_robin",
        autoscaler=AutoscalerConfig(enabled=False),
    )
    requests = [
        ClusterRequest(i, 100.0 * i, 16, "ab"[i % 2], 1e9, 1.0)
        for i in range(20)
    ]
    pools = [PoolRuntime(cluster.pools[0], cluster, model, 64)]
    run = run_fleet(
        cluster, pools, requests, batch_fault_rate=1.0, max_retries=0,
        fault_rng=np.random.default_rng(0),
    )
    return compute_cluster_metrics(cluster, run, pools)


ZERO_COMPLETION_RUNS = {
    "serving": _all_fail_serving,
    "cluster": _all_fail_cluster,
}


class TestEmptyRunConvention:
    @pytest.mark.parametrize("engine", sorted(ZERO_COMPLETION_RUNS))
    def test_zero_completions_report_zero_latencies(self, model, engine):
        m = ZERO_COMPLETION_RUNS[engine](model)
        assert m.offered == 20
        assert m.completed == 0 and m.failed == 20
        assert (m.latency_p50_us, m.latency_p95_us, m.latency_p99_us,
                m.latency_mean_us) == (0.0, 0.0, 0.0, 0.0)
        assert m.throughput_rps == 0.0
        json.dumps(dataclasses.asdict(m), allow_nan=False)
        assert ["p50 latency", "n/a"] in m.as_rows()

    def test_cluster_failures_reach_every_summary(self, model):
        m = _all_fail_cluster(model)
        assert [t.failed for t in m.tenants.values()] == [10, 10]
        pool = m.pools["p0"]
        assert pool.failed == 20 and pool.completed == 0
        assert pool.retried == 0 and pool.corrupted == 0

    def test_decode_refuses_an_empty_run(self, model):
        # Decode admits at least one stream and every admitted stream
        # completes, so the only empty decode run is an empty stream
        # list, which is refused rather than summarised.
        with pytest.raises(ServingError):
            simulate_decode(model, AcceleratorConfig(), DecodeConfig(),
                            streams=[])


class TestLatencySummary:
    def test_empty_sample_is_all_zero(self):
        assert latency_summary([]) == (0.0, 0.0, 0.0, 0.0)

    def test_mean_sums_in_the_given_order(self):
        values = [1e16, 1.0, -1e16, 1.0]
        expected = 0.0
        for value in values:
            expected += value
        _, _, _, mean = latency_summary(values)
        assert mean == expected / len(values)
        assert mean != sum(sorted(values)) / len(values)

    def test_percentiles_are_nearest_rank(self):
        p50, p95, p99, _ = latency_summary([float(v) for v in range(100, 0, -1)])
        assert (p50, p95, p99) == (50.0, 95.0, 99.0)
