"""Passive call ledger: times the calls the benchmark makes into each layer.

:class:`Ledger` replaces public functions, methods and properties of the
``repro`` package with timing wrappers for the duration of a ``with``
block and puts the originals back on exit.  Every wrapped call becomes a
span ``(name, start, end, parent)``; a span's self time is its duration
minus the time its child spans cover, so the self times of all spans in
an operation add up exactly to the operation's duration.

Spans of the first recorded operation (up to :data:`MAX_KEPT_SPANS`)
are kept in memory as compact arrays and written out by
:meth:`Ledger.write_spans`; every operation feeds the per-name totals
(calls, self seconds, inclusive seconds) and the extra counters that the
wrappers record.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from collections.abc import Callable
from typing import Any, Optional

#: Root span of one benchmark operation.
OP_SPAN = "bench.op"
#: Spans kept for writing out; later spans still feed the totals.
MAX_KEPT_SPANS = 200_000


class Ledger:
    """Span recorder plus the patch/restore machinery around it."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.incl_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.ops = 0
        self._stack: list[list] = []        # [name, start, child_s, index]
        self._names: dict[str, int] = {}
        self._keep_spans = True
        self.dropped_spans = 0
        self._span_name = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._span_parent = array("i")
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans -----------------------------------------------------------

    def _enter(self, name: str) -> None:
        index = -1
        if self._keep_spans and len(self._span_name) >= MAX_KEPT_SPANS:
            self.dropped_spans += 1
        elif self._keep_spans:
            index = len(self._span_name)
            self._span_name.append(self._names.setdefault(name, len(self._names)))
            self._span_parent.append(self._stack[-1][3] if self._stack else -1)
            self._span_start.append(0.0)
            self._span_end.append(0.0)
        frame = [name, 0.0, 0.0, index]
        self._stack.append(frame)
        frame[1] = time.perf_counter()

    def _exit(self) -> float:
        end = time.perf_counter()
        name, start, child_s, index = self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.incl_s[name] += duration
        self.self_s[name] += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self._span_start[index] = start
            self._span_end[index] = end
        return duration

    def operation(self, fn: Callable[[], Any]) -> tuple[Any, float]:
        """Run one operation under the root span; returns (result, seconds).

        Only the first operation's spans are kept; later ones feed the
        totals alone, which bounds memory on event-heavy workloads.
        """
        self._enter(OP_SPAN)
        try:
            result = fn()
        finally:
            seconds = self._exit()
            self.ops += 1
            self._keep_spans = False
        return result, seconds

    # -- patching ----------------------------------------------------------

    def _wrap(self, fn: Callable, name: Any, count: Optional[Callable]) -> Callable:
        enter, exit_ = self._enter, self._exit
        counts = self.counts
        named = callable(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(name(args) if named else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if count is not None:
                count(counts, args, result)
            return result

        return wrapper

    def patch_function(self, module: str, attr: str, layer: str,
                       count: Optional[Callable] = None) -> None:
        """Wrap a module-level function everywhere ``repro`` bound it.

        ``from x import f`` copies the function into other modules'
        namespaces, so every loaded ``repro`` module attribute that *is*
        the original gets the wrapper.
        """
        original = getattr(importlib.import_module(module), attr)
        wrapper = self._wrap(original, f"{layer}:{attr}", count)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != "repro":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def patch_method(self, module: str, cls_name: str, attr: str, layer: str,
                     count: Optional[Callable] = None,
                     name: Optional[Callable] = None) -> None:
        """Wrap a method or property of a ``repro`` class in place."""
        cls = getattr(importlib.import_module(module), cls_name)
        raw = cls.__dict__[attr]
        label = name or f"{layer}:{cls_name}.{attr}"
        if isinstance(raw, property):
            replacement = property(
                self._wrap(raw.fget, label, count), raw.fset, raw.fdel, raw.__doc__
            )
        else:
            replacement = self._wrap(raw, label, count)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, replacement)

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Ledger":
        install(self)
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- reading -----------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        """Exclusive seconds of every span whose name is in ``layer``."""
        return sum(s for n, s in self.self_s.items() if n.split(":")[0] == layer)

    def layer_calls(self, layer: str, *attrs: str) -> int:
        """Calls into ``layer``, optionally only to the named callables."""
        return sum(
            c for n, c in self.calls.items()
            if n.split(":")[0] == layer
            and (not attrs or n.split(":")[1].split(".")[-1] in attrs)
        )

    def layer_incl_s(self, layer: str) -> float:
        """Inclusive seconds of ``layer`` (for layers that never nest)."""
        return sum(s for n, s in self.incl_s.items() if n.split(":")[0] == layer)

    def write_spans(self, path: str) -> int:
        """Write the kept spans as JSON; returns the span count."""
        names = sorted(self._names, key=self._names.get)
        t0 = self._span_start[0] if self._span_start else 0.0
        spans = [
            [self._span_name[i],
             round((self._span_start[i] - t0) * 1e6, 3),
             round((self._span_end[i] - t0) * 1e6, 3),
             self._span_parent[i]]
            for i in range(len(self._span_name))
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names,
                       "columns": ["name", "start_us", "end_us", "parent"],
                       "dropped": self.dropped_spans,
                       "spans": spans}, fh, separators=(",", ":"))
            fh.write("\n")
        return len(spans)


# -- what gets wrapped ---------------------------------------------------------


def _count_formed(counts, args, result):
    if result is not None:
        counts["serving.batching.formed"] += 1


def _count_kept(counts, args, result):
    counts["obs.sampling.kept"] += bool(result)


def _count_macs(counts, args, result):
    a, b = args[1], args[2]
    counts["core.systolic_array.macs"] += a.shape[0] * a.shape[1] * b.shape[1]


def _pass_name(args):
    return ("core.systolic_array:SystolicArray.run_pass.armed"
            if args[0].fault_count else "core.systolic_array:SystolicArray.run_pass")


_ADMISSION = ("offer", "expire", "peek", "pop_front", "oldest_wait_us",
              "next_expiry_us", "__len__")
DEVICE_READS = ("can_accept", "next_free_us", "active_devices", "pool_alive")
_DEVICES = DEVICE_READS + ("alive_devices", "device_failures", "dispatch",
                           "fail_device", "add_device", "drain_device",
                           "busy_fraction", "device_time_us")
POOL_READS = ("active_device_count", "depth_per_device", "predicted_completion_us",
              "windowed_p99_us", "interval_busy_fraction", "decode_step_us")
_REGISTRY = (
    ("MetricsRegistry", ("counter", "gauge", "histogram", "series", "get")),
    ("Counter", ("inc",)),
    ("Gauge", ("set", "inc")),
    ("Histogram", ("observe", "percentile", "attach_exemplar")),
    ("Timeseries", ("sample",)),
)


def install(ledger: Ledger) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    fn, meth = ledger.patch_function, ledger.patch_method
    fn("repro.serving.workload", "poisson_workload", "workload.gen")
    fn("repro.cluster.workload", "cluster_workload", "workload.gen")
    fn("repro.decode.serving", "sample_decode_streams", "workload.gen")
    for name in ("schedule_mha", "schedule_ffn"):
        fn("repro.core.scheduler", name, "core.scheduler")
    for name in ("mha_cycle_breakdown", "ffn_cycle_breakdown"):
        fn("repro.core.cycle_model", name, "core.cycle_model")

    meth("repro.serving.batching", "BatchCostModel", "__init__",
         "serving.batching.cost_build")
    for name in _ADMISSION:
        meth("repro.serving.admission", "AdmissionQueue", name, "serving.admission")
    meth("repro.serving.batching", "DynamicBatcher", "try_form", "serving.batching",
         count=_count_formed)
    meth("repro.serving.batching", "DynamicBatcher", "next_deadline_us",
         "serving.batching")
    for name in _DEVICES:
        meth("repro.serving.devices", "WorkerPool", name, "serving.devices")
    fn("repro.serving.simulator", "simulate_serving", "serving.simulator")
    fn("repro.serving.metrics", "compute_metrics", "serving.metrics")

    meth("repro.cluster.router", "Router", "route", "cluster.router")
    for name in POOL_READS + ("observe_completion",):
        meth("repro.cluster.pools", "PoolRuntime", name, "cluster.pools")
    fn("repro.cluster.pools", "build_cost_model", "cluster.pools.cost_build")
    meth("repro.cluster.autoscaler", "Autoscaler", "evaluate", "cluster.autoscaler")
    fn("repro.cluster.simulator", "simulate_cluster", "cluster.simulator")
    fn("repro.cluster.metrics", "compute_cluster_metrics", "cluster.metrics")

    for name in ("decode_step_breakdown", "prefill_layer_cycles"):
        fn("repro.decode.cycle_model", name, "decode.cycle_model")
    fn("repro.decode.cycle_model", "fused_mha_breakdown", "decode.fused")
    for name in ("schedule_fused_mha", "schedule_decode_step"):
        fn("repro.decode.fused", name, "decode.fused")
    for name in ("lookup", "populate", "evict_stream", "hit_rate"):
        meth("repro.decode.kvcache", "KVCacheModel", name, "decode.kvcache")
    fn("repro.decode.serving", "simulate_decode", "decode.serving")

    for name in ("request_trace", "stream_trace"):
        fn("repro.obs.spans", name, "obs.spans")
    meth("repro.obs.spans", "TraceCollector", "add", "obs.spans")
    meth("repro.obs.spans", "TraceCollector", "traces", "obs.spans")
    meth("repro.obs.sampling", "TraceSampler", "keep", "obs.sampling",
         count=_count_kept)
    for name in ("observe", "short_burn", "max_short_burn"):
        meth("repro.obs.slo", "BurnRateMonitor", name, "obs.slo")
    fn("repro.obs.export", "traces_to_otlp", "obs.export")
    for cls, names in _REGISTRY:
        for name in names:
            meth("repro.telemetry.registry", cls, name, "telemetry.registry")

    meth("repro.core.systolic_array", "SystolicArray", "run_pass",
         "core.systolic_array", count=_count_macs, name=_pass_name)
    meth("repro.reliability.abft", "ChecksumGemm", "run", "reliability.abft")
    for name in ("inject_sa", "unit_hook", "corrupt_operand", "corrupt_bias"):
        meth("repro.reliability.faults", "FaultInjector", name, "reliability.faults")
    for cls, module in (("ExpUnit", "repro.fixedpoint.exp_unit"),
                        ("InverseSqrtLUT", "repro.fixedpoint.isqrt")):
        for name in ("__init__", "__call__", "evaluate"):
            meth(module, cls, name, "fixedpoint")
    fn("repro.reliability.campaign", "run_campaign", "reliability.campaign")
