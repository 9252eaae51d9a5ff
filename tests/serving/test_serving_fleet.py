"""Serving runs on the cluster event loop as a one-pool fleet.

Two pins on that move:

* a differential test: ``simulate_serving`` equals the equivalent
  one-pool, one-tenant, round-robin, autoscaler-off ``simulate_cluster``
  run record for record, and in every statistic both report, on
  fault-free shapes;
* golden fingerprints of the fault path (ABFT retries, exhausted retry
  budgets, device fail-stops, queues stranded on a dead pool, silent
  corruption), recorded before the serving loop was folded into the
  cluster loop, so the moved code is proven bit-identical.
"""

import dataclasses
import hashlib

import pytest

from repro.cluster import simulate_cluster
from repro.cluster.workload import ClusterRequest
from repro.config import (
    AcceleratorConfig,
    AutoscalerConfig,
    ClusterConfig,
    PoolConfig,
    ServingConfig,
    TenantConfig,
    paper_accelerator,
    transformer_base,
)
from repro.memsys import memory_preset
from repro.serving import poisson_workload, simulate_serving


@pytest.fixture(scope="module")
def model():
    return transformer_base()


def _equivalent_cluster(serving: ServingConfig) -> ClusterConfig:
    return ClusterConfig(
        pools=(PoolConfig(
            name="only",
            num_devices=serving.num_devices,
            max_devices=serving.num_devices,
            placement=serving.placement,
            memory=serving.memory,
        ),),
        tenants=(TenantConfig(name="t", slo_us=1e9),),
        router_policy="round_robin",
        autoscaler=AutoscalerConfig(enabled=False),
        queue_capacity=serving.queue_capacity,
        queue_timeout_us=serving.queue_timeout_us,
        max_batch_requests=serving.max_batch_requests,
        max_wait_us=serving.max_wait_us,
    )


SHAPES = {
    "replicate-1x-timeout": dict(queue_timeout_us=50_000.0),
    "replicate-2x-ddr4": dict(
        num_devices=2, memory=memory_preset("ddr4-2400"),
    ),
    "layer_shard-3x": dict(num_devices=3, placement="layer_shard"),
}


class TestClusterEquivalence:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_serving_is_a_one_pool_cluster(self, model, shape):
        serving = ServingConfig(
            arrival_rate_rps=1200.0, num_requests=300, min_len=8,
            max_len=32, max_batch_requests=8, max_wait_us=1000.0, seed=7,
            **SHAPES[shape],
        )
        acc = paper_accelerator()
        served = simulate_serving(model, acc, serving)
        workload = [
            ClusterRequest(r.req_id, r.arrival_us, r.seq_len, "t", 1e9, 1.0)
            for r in poisson_workload(serving)
        ]
        clustered = simulate_cluster(
            model, _equivalent_cluster(serving), workload=workload,
            seq_len=acc.seq_len,
        )
        assert [
            (r.status, r.dispatched_us, r.completed_us)
            for r in served.records
        ] == [
            (r.status, r.dispatched_us, r.completed_us)
            for r in clustered.records
        ]
        statuses = {r.status for r in served.records}
        assert "completed" in statuses
        s, c = served.metrics, clustered.metrics
        pool = c.pools["only"]
        assert (
            s.offered, s.completed, s.rejected, s.expired, s.failed,
            s.latency_p50_us, s.latency_p95_us, s.latency_p99_us,
            s.latency_mean_us, s.throughput_rps, s.makespan_us,
        ) == (
            c.offered, c.completed, c.rejected, c.expired, c.failed,
            c.latency_p50_us, c.latency_p95_us, c.latency_p99_us,
            c.latency_mean_us, c.throughput_rps, c.makespan_us,
        )
        assert (
            s.num_batches, s.mean_batch_size, s.occupancy,
            s.max_queue_depth, s.weight_cache_hit_rate,
        ) == (
            pool.num_batches, pool.mean_batch_size, pool.occupancy,
            pool.max_queue_depth, pool.weight_cache_hit_rate,
        )


def _fingerprint(result) -> str:
    rows = [
        (r.request.req_id, r.status, r.batch_id, r.dispatched_us,
         r.completed_us, r.corrupted)
        for r in result.records
    ]
    payload = (rows, dataclasses.astuple(result.metrics))
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def _faulty(**overrides) -> ServingConfig:
    base = dict(
        arrival_rate_rps=1200.0, num_requests=120, min_len=8, max_len=32,
        max_batch_requests=8, max_wait_us=1000.0, batch_fault_rate=0.3,
        seed=5,
    )
    base.update(overrides)
    return ServingConfig(**base)


_ABFT = dict(max_retries=3, device_failure_rate=0.05, queue_capacity=256,
             queue_timeout_us=100_000.0)

GOLDEN = {
    # One device: retries, two exhausted retry budgets, then a fail-stop
    # that strands the rest of the queue.
    "abft-1x": (
        True, _faulty(**_ABFT),
        "5fd6bc693ba3947441bc8f453a61bd25b93f8a861e6156c7c713f0c5ae027dc9",
    ),
    # Two replicas: the pool degrades to one device, then dies.
    "abft-2x": (
        True, _faulty(num_devices=2, **_ABFT),
        "326b465ee493d6c814ed3bb327d4e2525e94c541034e5d5a48e2b66efd8c3baf",
    ),
    # No ABFT: faults complete silently as corrupted responses.
    "silent-1x": (
        False, _faulty(),
        "354d7dcf51392dc53d1401a4681d848fc53e2a798296fc0d21c8746679da3458",
    ),
}


class TestFaultPathGolden:
    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_fault_path_is_bit_identical(self, model, case):
        abft, serving, expected = GOLDEN[case]
        acc = AcceleratorConfig(abft_protected=abft)
        result = simulate_serving(model, acc, serving)
        m = result.metrics
        if abft:
            assert m.retried > 0 and m.failed > 0
            assert m.device_failures > 0
        else:
            assert m.corrupted > 0
        assert _fingerprint(result) == expected
