"""The four benchmark workloads: inputs, operation, output checks, figures.

Each workload drives one public entry point of ``repro``:

* ``serving_overload`` — :func:`repro.serving.simulate_serving`;
* ``cluster_observed`` — :func:`repro.cluster.simulate_cluster` with the
  ``repro.obs`` tracer, burn monitor and OTLP export plus a
  :class:`~repro.telemetry.MetricsRegistry` attached;
* ``decode_mixed`` — :func:`repro.decode.simulate_decode`;
* ``fault_campaign`` — :func:`repro.reliability.run_campaign`.

One *operation* is one such call on freshly generated inputs, including
workload generation (inside the call) and result reduction.  Operation
``i`` of a run with seed ``s`` uses the sub-seed ``s * 10**6 + i``, so
every operation of a run sees distinct inputs and the same seed always
gives the same inputs.  Simulated arrivals are open-loop: their times
come from the seeded arrival process, never from the simulator's
progress.

Modules of ``repro`` are imported inside the methods only, so that a
set-up probe loads what the workload's CLI command loads and nothing the
other workloads need.  Operations look their entry point up at call
time, which lets the ledger's wrappers see the call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def use_source_tree() -> None:
    """Make the checkout's ``src/repro`` importable, or exit with an error."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no repro package under {SRC}; run from a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def sub_seed(seed: int, index: int) -> int:
    """Seed of operation ``index`` in a run with ``seed``."""
    return seed * 1_000_000 + index


def nearest_rank(values: list[float], pct: float) -> float:
    """Nearest-rank percentile (the serving/cluster definition); 0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1]


def digest(*parts: object) -> str:
    """Short content hash of the reprs of ``parts``."""
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


@dataclasses.dataclass
class Summary:
    """What one operation leaves behind once its result is dropped.

    ``items`` is the number of simulated requests, streams or trials the
    operation resolved; ``problems`` lists every failed output check;
    ``figures`` holds the raw counts and samples the modelled metrics
    are pooled from; ``counts`` holds denominators for the ledger.
    """

    items: int
    digest: str
    problems: list[str]
    figures: dict
    counts: dict


class Workload:
    """Base: subclasses define the inputs, the operation and its checks."""

    name = ""
    why = ""
    item = ""

    def setup(self, seed: int) -> None:
        """Import what the CLI command loads and build the configs."""
        raise NotImplementedError

    def op(self, seed: int):
        """One operation on the inputs of ``seed``; returns the raw result."""
        raise NotImplementedError

    def summarize(self, result) -> Summary:
        """Check ``result`` and reduce it to a :class:`Summary`."""
        raise NotImplementedError

    def figures(self, summaries: list[Summary]) -> list[tuple[str, float, str]]:
        """Modelled metrics pooled over ``summaries`` as (name, value, unit)."""
        raise NotImplementedError


def _status_problems(records, allowed, offered: int, expected: dict) -> list[str]:
    """Every offered request ends in exactly one allowed terminal status."""
    problems = []
    ids = [r.request.req_id for r in records]
    if len(records) != offered or sorted(ids) != list(range(offered)):
        problems.append(f"{len(records)} records for {offered} offered requests")
    statuses = Counter(r.status for r in records)
    stray = set(statuses) - set(allowed)
    if stray:
        problems.append(f"non-terminal statuses {sorted(stray)}")
    if sum(statuses[s] for s in allowed) != offered:
        problems.append("status counts do not sum to offered")
    for status, count in expected.items():
        if statuses[status] != count:
            problems.append(f"{statuses[status]} {status} records, metrics say {count}")
    return problems


class ServingOverload(Workload):
    name = "serving_overload"
    why = ("one device under 1200 req/s Poisson against ~340 req/s capacity with "
           "ABFT retries and timeouts: the serving event loop's device-free "
           "wake-ups do most of the work")
    item = "requests"

    def __init__(self, requests: int = 1000) -> None:
        self.requests = requests

    def setup(self, seed: int) -> None:
        from repro.config import AcceleratorConfig, ServingConfig, preset
        from repro.serving import simulate_serving  # noqa: F401

        self.model = preset("transformer-base")
        self.acc = AcceleratorConfig(abft_protected=True)
        self.serving = ServingConfig(
            arrival_rate_rps=1200.0, num_requests=self.requests,
            min_len=8, max_len=32, queue_capacity=64, queue_timeout_us=50_000.0,
            max_batch_requests=8, max_wait_us=1000.0,
            batch_fault_rate=0.02, max_retries=2, seed=sub_seed(seed, 0),
        )

    def op(self, seed: int):
        from repro.serving import simulate_serving

        return simulate_serving(self.model, self.acc,
                                self.serving.with_updates(seed=seed))

    def summarize(self, result) -> Summary:
        m = result.metrics
        records = result.records
        problems = _status_problems(
            records, ("completed", "rejected", "expired", "failed"), m.offered,
            {"completed": m.completed, "rejected": m.rejected,
             "expired": m.expired, "failed": m.failed},
        )
        if m.offered != self.serving.num_requests:
            problems.append(f"offered {m.offered} of {self.serving.num_requests}")
        silent = sum(r.corrupted for r in records)
        if silent:
            problems.append(f"{silent} silently corrupted requests under ABFT")
        rows = [(r.request.req_id, r.status, r.batch_id, r.dispatched_us,
                 r.completed_us, r.corrupted) for r in records]
        return Summary(
            items=m.offered,
            digest=digest(rows, dataclasses.astuple(m)),
            problems=problems,
            figures={"offered": m.offered, "completed": m.completed,
                     "makespan_us": m.makespan_us,
                     "latencies": [r.latency_us for r in records
                                   if r.latency_us is not None]},
            counts={"requests": m.offered},
        )

    def figures(self, summaries):
        return _latency_figures(summaries) + [_completed_frac(summaries)]


def _latency_figures(summaries):
    completed = sum(s.figures["completed"] for s in summaries)
    makespan_s = sum(s.figures["makespan_us"] for s in summaries) / 1e6
    latencies = [x for s in summaries for x in s.figures["latencies"]]
    return [
        ("model.throughput_rps", _ratio(completed, makespan_s), "1/s"),
        ("model.latency_p50_us", nearest_rank(latencies, 50), "us"),
        ("model.latency_p99_us", nearest_rank(latencies, 99), "us"),
    ]


def _completed_frac(summaries):
    return ("model.completed_frac",
            _ratio(sum(s.figures["completed"] for s in summaries),
                   sum(s.figures["offered"] for s in summaries)), "frac")


class ClusterObserved(Workload):
    name = "cluster_observed"
    why = ("pinned 3-pool/3-tenant fleet at 6x its tenant rates with SLO routing, "
           "autoscaling, tracer, burn monitor, registry and OTLP export: the only "
           "workload on router, pools, obs and telemetry")
    item = "requests"
    # An operation covers ~0.15 s of simulated time, well before the
    # diurnal tenant's peak, so the rates are raised past the ~3x at which
    # a 6,000-request run saturates: at 6x the pools saturate and the
    # router sheds within one operation, and host time per operation
    # varies little from one input to the next.
    rate_scale = 6.0

    def __init__(self, requests_per_tenant: int = 150) -> None:
        self.requests_per_tenant = requests_per_tenant

    def setup(self, seed: int) -> None:
        import repro.obs  # noqa: F401
        import repro.telemetry  # noqa: F401
        from repro.cluster import pinned_cluster
        from repro.config import preset

        self.model = preset("transformer-base")
        base = pinned_cluster(requests_per_tenant=self.requests_per_tenant,
                              seed=sub_seed(seed, 0))
        self.cluster = base.with_updates(tenants=tuple(
            t.with_updates(rate_rps=t.rate_rps * self.rate_scale)
            for t in base.tenants
        ))

    def op(self, seed: int):
        from repro.cluster import simulate_cluster
        from repro.obs import (
            BurnRateMonitor,
            SamplingPolicy,
            TraceCollector,
            TraceSampler,
            traces_to_otlp,
        )
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        tracer = TraceCollector(sampler=TraceSampler(SamplingPolicy(seed=seed)),
                                registry=registry)
        monitor = BurnRateMonitor(registry=registry)
        result = simulate_cluster(self.model, self.cluster.with_updates(seed=seed),
                                  registry=registry, tracer=tracer, monitor=monitor)
        traces = tracer.traces
        payload = traces_to_otlp(traces, seed=seed)
        # Serialised as `repro trace --otlp-out` writes it; a NaN raises.
        json.dumps(payload, sort_keys=True, allow_nan=False)
        exported = len(payload["resourceSpans"][0]["scopeSpans"][0]["spans"])
        return result, traces, exported

    def summarize(self, out) -> Summary:
        from repro.cluster.metrics import OUTCOMES
        from repro.errors import ReproError

        result, traces, exported = out
        m = result.metrics
        records = result.records
        problems = _status_problems(
            records, OUTCOMES, m.offered,
            {"completed": m.completed, "shed": m.shed,
             "rejected": m.rejected, "expired": m.expired},
        )
        if [t.req_id for t in traces] != list(range(m.offered)):
            problems.append(f"{len(traces)} trace trees for {m.offered} requests")
        spans = 0
        for trace, record in zip(traces, records):
            try:
                trace.validate()
            except ReproError as exc:
                problems.append(f"trace {trace.req_id} invalid: {exc}")
            if trace.status != record.status:
                problems.append(f"trace {trace.req_id} status {trace.status} "
                                f"!= record {record.status}")
            spans += sum(1 for _ in trace.root.walk())
        if exported != spans:
            problems.append(f"OTLP payload has {exported} spans, traces {spans}")
        rows = [(r.request.req_id, r.status, r.pool, r.dispatched_us,
                 r.completed_us, r.attained) for r in records]
        return Summary(
            items=m.offered,
            digest=digest(rows, repr(m), [repr(a) for a in result.actions]),
            problems=problems[:20],
            figures={"offered": m.offered, "completed": m.completed,
                     "attained": m.slo_attained, "makespan_us": m.makespan_us,
                     "latencies": [r.latency_us for r in records
                                   if r.latency_us is not None]},
            counts={"requests": m.offered, "exported_spans": exported},
        )

    def figures(self, summaries):
        return _latency_figures(summaries) + [
            ("model.slo_attainment",
             _ratio(sum(s.figures["attained"] for s in summaries),
                    sum(s.figures["offered"] for s in summaries)), "frac"),
            _completed_frac(summaries),
        ]


class DecodeMixed(Workload):
    name = "decode_mixed"
    why = ("240 generation streams at 400/s, 96-256-token prompts, chunked "
           "prefill, DDR4-2400 KV refetch: decode's own loop, KV cache and "
           "per-token cost model; bypasses the serving/cluster loops")
    item = "streams"

    def __init__(self, streams: int = 240) -> None:
        self.streams = streams

    def setup(self, seed: int) -> None:
        from repro.config import AcceleratorConfig, DecodeConfig, preset
        from repro.decode import simulate_decode  # noqa: F401
        from repro.memsys import memory_preset

        self.model = preset("transformer-base")
        self.acc = AcceleratorConfig()
        self.decode = DecodeConfig(
            arrival_rate_rps=400.0, num_streams=self.streams,
            prefill_len_min=96, prefill_len_max=256,
            decode_tokens_min=8, decode_tokens_max=32,
            policy="prefill_chunk", max_decode_batch=8,
            memory=memory_preset("ddr4-2400"), seed=sub_seed(seed, 0),
        )

    def op(self, seed: int):
        from repro.decode import simulate_decode

        return simulate_decode(self.model, self.acc,
                               self.decode.with_updates(seed=seed))

    def summarize(self, result) -> Summary:
        m = result.metrics
        records = result.records
        problems = []
        statuses = Counter(r.status for r in records)
        if len(records) != m.offered or set(statuses) - {"completed", "rejected"}:
            problems.append(f"bad stream outcomes {dict(statuses)}")
        if statuses["completed"] != m.completed:
            problems.append(f"{statuses['completed']} completed, "
                            f"metrics say {m.completed}")
        done = [r for r in records if r.status == "completed"]
        requested = sum(r.stream.decode_tokens for r in done)
        # Each completed stream emits its prefill token plus one token
        # per decode step it asked for.
        if m.decode_steps != requested or m.decoded_tokens != requested + len(done):
            problems.append(f"emitted {m.decoded_tokens} tokens in {m.decode_steps} "
                            f"steps for {requested} requested by {len(done)} streams")
        for r in done:
            if not r.stream.arrival_us <= r.first_token_us <= r.completed_us:
                problems.append(f"stream {r.stream.stream_id} out of order")
                break
        rows = [(r.stream.stream_id, r.status, r.first_token_us, r.completed_us)
                for r in records]
        return Summary(
            items=m.offered,
            digest=digest(rows, dataclasses.astuple(m)),
            problems=problems,
            figures={"offered": m.offered, "completed": m.completed,
                     "tokens": m.decoded_tokens, "makespan_us": m.makespan_us,
                     "ttfts": [r.ttft_us for r in done]},
            counts={"requests": m.offered, "tokens": m.decoded_tokens},
        )

    def figures(self, summaries):
        makespan_s = sum(s.figures["makespan_us"] for s in summaries) / 1e6
        return [
            ("model.tokens_per_s",
             _ratio(sum(s.figures["tokens"] for s in summaries), makespan_s), "1/s"),
            ("model.ttft_p99_us",
             nearest_rank([x for s in summaries for x in s.figures["ttfts"]], 99),
             "us"),
            _completed_frac(summaries),
        ]


#: Sites whose trials run through ChecksumGemm when ABFT is on.
GEMM_SITES = ("sa_accumulator", "sa_multiplier", "weight_memory", "data_memory")


class FaultCampaign(Workload):
    name = "fault_campaign"
    why = ("all seven fault sites with ABFT on at a 0.1 per-pass fault rate, so "
           "most SA passes are clean: the only workload on the functional "
           "datapath (SA wavefront, ChecksumGemm, EXP/iSQRT units)")
    item = "trials"

    def __init__(self, trials_per_cell: int = 8) -> None:
        self.trials_per_cell = trials_per_cell

    def setup(self, seed: int) -> None:
        from repro.reliability import CampaignSpec, run_campaign  # noqa: F401

        self.spec = CampaignSpec(seq_len=64, depth=64, cols=64,
                                 trials=self.trials_per_cell, rates=(0.1,),
                                 abft=True, seed=sub_seed(seed, 0))

    def op(self, seed: int):
        from repro.reliability import run_campaign

        return run_campaign(dataclasses.replace(self.spec, seed=seed))

    def summarize(self, result) -> Summary:
        outcomes = result.outcomes
        problems = []
        bad_clean = [o for o in outcomes
                     if not o.injected and (o.max_abs_error or o.detected)]
        if bad_clean:
            problems.append(
                f"{len(bad_clean)} fault-free trials with error or detection")
        silent_gemm = [o for o in outcomes if o.silent and o.site in GEMM_SITES]
        if silent_gemm:
            problems.append(f"{len(silent_gemm)} silent ABFT-protected GEMM trials")
        return Summary(
            items=len(outcomes),
            digest=digest([dataclasses.astuple(o) for o in outcomes]),
            problems=problems,
            figures={"trials": len(outcomes),
                     "injected": sum(o.injected for o in outcomes),
                     "detected": sum(o.detected for o in outcomes if o.injected),
                     "silent": sum(o.silent for o in outcomes),
                     "exact": sum(o.max_abs_error == 0.0 for o in outcomes)},
            counts={"requests": len(outcomes)},
        )

    def figures(self, summaries):
        total = {k: sum(s.figures[k] for s in summaries) for k in summaries[0].figures}
        return [
            ("model.detected_frac",
             _ratio(total["detected"], total["injected"]), "frac"),
            ("model.silent_frac", _ratio(total["silent"], total["trials"]), "frac"),
            # A trial "completes" when its output equals the golden result.
            ("model.completed_frac", _ratio(total["exact"], total["trials"]), "frac"),
        ]


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (ServingOverload, ClusterObserved, DecodeMixed, FaultCampaign)
}
