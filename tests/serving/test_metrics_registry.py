"""Serving metrics and their registry record: one summary, one export."""

import dataclasses
import hashlib
import json

import pytest

from repro.config import (
    AcceleratorConfig,
    ServingConfig,
    paper_accelerator,
    transformer_base,
)
from repro.memsys import ddr4_2400
from repro.serving import simulate_serving
from repro.serving.metrics import record_serving
from repro.telemetry import MetricsRegistry, to_json


@pytest.fixture(scope="module")
def model():
    return transformer_base()


@pytest.fixture(scope="module")
def acc():
    return paper_accelerator()


def _serving(**overrides):
    base = dict(
        arrival_rate_rps=1200.0, num_requests=60,
        min_len=8, max_len=32, seed=13,
        max_batch_requests=8, max_wait_us=1000.0,
    )
    base.update(overrides)
    return ServingConfig(**base)


class TestSimulatorRegistry:
    def test_metrics_identical_with_and_without_registry(self, model, acc):
        plain = simulate_serving(model, acc, _serving())
        inst = simulate_serving(
            model, acc, _serving(), registry=MetricsRegistry()
        )
        assert inst.metrics == plain.metrics

    def test_reused_registry_keeps_each_summary(self, model, acc):
        # A registry shared by two identical runs holds the union of
        # their counters, but each run's summary is its own.
        reg = MetricsRegistry()
        first = simulate_serving(model, acc, _serving(), registry=reg)
        second = simulate_serving(model, acc, _serving(), registry=reg)
        assert second.metrics == first.metrics
        assert reg.get(
            "repro_serving_requests_offered_total"
        ).value() == 120

    def test_registry_counters_match_metrics(self, model, acc):
        reg = MetricsRegistry()
        result = simulate_serving(model, acc, _serving(), registry=reg)
        m = result.metrics
        outcomes = reg.get("repro_serving_requests_total")
        assert outcomes.value(outcome="completed") == m.completed
        assert outcomes.value(outcome="rejected") == m.rejected
        assert reg.get(
            "repro_serving_requests_offered_total"
        ).value() == m.offered
        assert reg.get("repro_serving_batches_total").value() == (
            m.num_batches
        )
        latency = reg.get("repro_serving_latency_us")
        assert latency.count() == m.completed
        assert latency.percentile(99) == m.latency_p99_us
        assert reg.get("repro_serving_sa_utilization").value() == (
            pytest.approx(m.sa_utilization)
        )
        depth = reg.get("repro_serving_queue_depth")
        assert len(depth.samples()) == len(result.depth_samples)

    def test_trace_has_utilization_and_cache_tracks(
        self, model, acc, tmp_path
    ):
        # The weight-cache track needs a memory system (lookups only
        # happen when weights actually move off-chip).
        result = simulate_serving(
            model, acc, _serving(memory=ddr4_2400())
        )
        path = tmp_path / "serving.json"
        result.write_trace(str(path))
        events = json.loads(path.read_text())["traceEvents"]
        tracks = {e["name"] for e in events if e["ph"] == "C"}
        assert {"queue_depth", "sa_utilization",
                "weight_cache_hit_rate"} <= tracks
        # Cumulative hit rate and per-batch utilization live in [0, 1].
        for e in events:
            if e["ph"] != "C" or e["name"] == "queue_depth":
                continue
            assert 0.0 <= e["args"][e["name"]] <= 1.0

    def test_utilization_samples_cover_every_batch(self, model, acc):
        result = simulate_serving(model, acc, _serving())
        assert len(result.util_samples) == result.metrics.num_batches


class TestComputeMetricsCompat:
    #: One run's raw outcomes, as :func:`record_serving` takes them.
    ARGS = dict(
        latencies_us=[100.0, 250.0, 900.0],
        batch_sizes=[2, 1],
        batch_tokens=[40, 16],
        offered=5,
        rejected=1,
        expired=1,
        depth_samples=[(0.0, 1), (100.0, 0)],
    )

    def test_record_serving_accumulates_across_runs(self):
        # Counters are monotonic by design: a registry shared by
        # several runs holds the union of their outcomes.
        reg = MetricsRegistry()
        record_serving(reg, **self.ARGS)
        record_serving(reg, **self.ARGS)
        assert reg.get(
            "repro_serving_requests_offered_total"
        ).value() == 10
        assert reg.get("repro_serving_latency_us").count() == 6


#: sha256 of the registry's JSON export plus ``astuple(metrics)``,
#: recorded while the summary was still read back out of the registry.
GOLDEN_SHAPES = {
    # Two devices with ABFT: retries, exhausted budgets, fail-stops.
    "abft-2x": (
        True,
        dict(num_devices=2, batch_fault_rate=0.3, device_failure_rate=0.05,
             max_retries=3),
        "913a523ffae3c343f386a591e4fb6cd481faa14665c44133a1e8a2f62b1a604a",
    ),
    "replicate-2x-ddr4": (
        False, dict(num_devices=2, memory=ddr4_2400()),
        "038d79d5de00b9dc2a9c475f02c17908a2f724f62b15a631ce7bf8c99457465e",
    ),
    "layer_shard-3x": (
        False, dict(num_devices=3, placement="layer_shard"),
        "acce210c3e9684d6cf3695bf46e4a0251a0f4d4eed0b1058665ecd2b17dda8b5",
    ),
    # One queue slot and a 1 us timeout: most arrivals are turned away.
    "overload-1slot": (
        False,
        dict(arrival_rate_rps=5000.0, queue_capacity=1, queue_timeout_us=1.0),
        "0735456198c9be2288fd708bd7fea974919b6f807cdd0b47a07e67c2838aabf3",
    ),
}


class TestExportGolden:
    """The summary and the registry export, pinned byte for byte."""

    @pytest.mark.parametrize("shape", sorted(GOLDEN_SHAPES))
    def test_export_is_bit_identical(self, model, shape):
        abft, overrides, expected = GOLDEN_SHAPES[shape]
        reg = MetricsRegistry()
        result = simulate_serving(
            model, AcceleratorConfig(abft_protected=abft),
            _serving(**overrides), registry=reg,
        )
        payload = json.dumps(to_json(reg)) + repr(
            dataclasses.astuple(result.metrics)
        )
        assert hashlib.sha256(payload.encode()).hexdigest() == expected

    def test_nothing_completed_reports_zero_latencies(self, model):
        # Every batch faults and ABFT gets no retry: nothing completes.
        result = simulate_serving(
            model, AcceleratorConfig(abft_protected=True),
            _serving(batch_fault_rate=1.0, max_retries=0, num_requests=20),
        )
        m = result.metrics
        assert m.completed == 0 and m.failed == 20
        assert m.latency_p50_us == 0.0
        assert m.latency_p99_us == 0.0
        assert m.latency_mean_us == 0.0
        assert m.throughput_rps == 0.0
        rows = m.as_rows()
        for name in ("p50", "p95", "p99"):
            assert [f"{name} latency", "n/a"] in rows
