"""Repository benchmark: end-to-end and per-layer metrics of four workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serving_overload --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` times operations with nothing wrapped and prints the
end-to-end metrics; ``--trace 1`` alternates plain and ledger-wrapped
operations on the same inputs and prints the per-layer ledger.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``
for the workloads and what each metric is expected to move.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

from ledger import DEVICE_READS, OP_SPAN, POOL_READS, Ledger
from reference import REFERENCE_S, kernel, scaled
from workloads import ROOT, WORKLOADS, Summary, digest, sub_seed, use_source_tree

#: Operations whose results give the modelled figures, the record digest
#: and the ledger; a run always completes at least this many.
RECORDED_OPS = 8
#: Set-up probes per run (after one unmeasured warm-up probe).
PROBES = 5
#: Where traced runs write their spans (ignored by git).
OUT_DIR = ROOT / ".perfbench_out"

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_req_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("model.completed_frac", "frac"),
]

PER_LAYER = [
    ("import.repro_s", "s"), ("import.cli_s", "s"), ("workload.gen_s", "s"),
    ("core.scheduler.calls", "count"), ("core.scheduler.s", "s"),
    ("core.cycle_model.calls", "count"), ("core.cycle_model.s", "s"),
    ("serving.batching.cost_build_s", "s"), ("cluster.pools.cost_build_s", "s"),
    ("serving.admission.calls_per_req", "1/req"), ("serving.admission.s", "s"),
    ("serving.batching.try_form_per_req", "1/req"),
    ("serving.batching.form_yield", "frac"),
    ("serving.devices.state_reads_per_req", "1/req"),
    ("serving.devices.dispatch_per_batch", "1/batch"), ("serving.devices.s", "s"),
    ("serving.simulator.self_s", "s"), ("serving.metrics.s", "s"),
    ("cluster.router.route_per_req", "1/req"), ("cluster.router.s", "s"),
    ("cluster.pools.reads_per_req", "1/req"), ("cluster.pools.s", "s"),
    ("cluster.autoscaler.evaluate_calls", "count"), ("cluster.autoscaler.s", "s"),
    ("cluster.simulator.self_s", "s"), ("cluster.metrics.s", "s"),
    ("decode.cycle_model.calls_per_token", "1/token"), ("decode.cycle_model.s", "s"),
    ("decode.fused.calls", "count"), ("decode.fused.s", "s"),
    ("decode.kvcache.lookups_per_token", "1/token"), ("decode.kvcache.s", "s"),
    ("decode.serving.self_s", "s"),
    ("obs.spans.traces_per_req", "1/req"), ("obs.spans.s", "s"),
    ("obs.sampling.kept_frac", "frac"),
    ("obs.slo.observe_per_req", "1/req"), ("obs.slo.s", "s"),
    ("obs.export.spans", "count"), ("obs.export.s", "s"),
    ("telemetry.registry.s", "s"),
    ("core.systolic_array.passes", "count"), ("core.systolic_array.macs", "count"),
    ("core.systolic_array.clean_s", "s"), ("core.systolic_array.armed_s", "s"),
    ("reliability.abft.runs", "count"), ("reliability.abft.self_s", "s"),
    ("reliability.faults.s", "s"), ("fixedpoint.s", "s"),
    ("reliability.campaign.self_s", "s"),
    ("bench.op.self_s", "s"),
    ("trace.overhead_frac", "frac"),
]

_PASS = "core.systolic_array:SystolicArray.run_pass"


def run_probes(name: str, seed: int) -> list[dict]:
    """Time ``PROBES`` fresh set-ups of ``name`` at reference speed.

    Each dict holds the probe's own split (``import.repro_s``,
    ``import.cli_s``) and ``setup_s``, the whole process's wall time;
    all are scaled by the reference kernel timed inside that process.
    """
    cmd = [sys.executable, str(ROOT / "perfbench" / "probe.py"), name, str(seed)]
    results = []
    for i in range(PROBES + 1):
        start = time.perf_counter()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        wall = time.perf_counter() - start
        probe = json.loads(out.stdout.splitlines()[-1])
        if i:
            results.append({
                key: scaled(probe[key], probe["kernel_s"])
                for key in ("import.repro_s", "import.cli_s")
            } | {"setup_s": scaled(wall, probe["kernel_s"])})
    return results


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class Run:
    """Attempted/failed accounting plus the recorded operations' summaries."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.summaries: list[Summary] = []

    def fail(self, index: int, reason: str) -> None:
        self.failed += 1
        print(f"op {index} FAILED: {reason}", file=sys.stderr)

    def attempt(self, index: int, call) -> tuple[Summary | None, float]:
        """Run one timed operation and check it; returns (summary, seconds)."""
        self.attempted += 1
        try:
            result, seconds = call()
        except Exception:  # an operation that raises is a failed operation
            self.fail(index, traceback.format_exc())
            return None, 0.0
        summary = self.workload.summarize(result)
        if summary.problems:
            self.fail(index, "; ".join(summary.problems))
        return summary, seconds


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def wrapped(ledger: Ledger, fn):
    """Run ``fn`` as one ledger operation with the layers wrapped."""
    with ledger:
        return ledger.operation(fn)


def measure(workload, seed: int, seconds: float, recorded: int = RECORDED_OPS):
    """Untraced operations for ``seconds`` (at least ``recorded`` of them).

    Returns the run, each successful operation's host seconds at
    reference speed and item count, and the reference-kernel time measured
    just before every operation.
    """
    run = Run(workload)
    walls, items, kernels = [], [], []
    start = time.perf_counter()
    index = 0
    while index < recorded or time.perf_counter() - start < seconds:
        s = sub_seed(seed, index)
        kernels.append(kernel())
        summary, wall = run.attempt(index, lambda: timed(lambda: workload.op(s)))
        if summary is not None:
            walls.append(scaled(wall, kernels[-1]))
            items.append(summary.items)
            if index < recorded:
                run.summaries.append(summary)
        index += 1
    return run, walls, items, kernels


def measure_traced(workload, seed: int, seconds: float, recorded: int = RECORDED_OPS):
    """Plain and ledger-wrapped operations in pairs on the same inputs.

    The ledger covers the first ``recorded`` wrapped operations, so its
    counts repeat exactly for a seed; later pairs (until ``seconds``)
    only add samples to the tracing-overhead ratio.  Returns the run, the
    ledger, the median of the pairs' traced/plain time ratios minus one,
    and the median reference-kernel time of the run.
    """
    run = Run(workload)
    ledger = Ledger()
    ratios, kernels = [], []
    start = time.perf_counter()
    index = 0
    while index < recorded or time.perf_counter() - start < seconds:
        s = sub_seed(seed, index)
        kernels.append(kernel())
        plain, wall = run.attempt(index, lambda: timed(lambda: workload.op(s)))
        traced, traced_wall = run.attempt(index, lambda: wrapped(
            ledger if index < recorded else Ledger(), lambda: workload.op(s)))
        if plain is not None and traced is not None:
            ratios.append(traced_wall / wall)
            if (plain.digest, plain.figures) != (traced.digest, traced.figures):
                run.fail(index, "traced and untraced outputs differ")
            if index < recorded:
                run.summaries.append(traced)
        index += 1
    overhead = median(ratios) - 1 if ratios else 0.0
    return run, ledger, overhead, median(kernels)


def layer_metrics(ledger: Ledger, summaries: list[Summary], probes: list[dict],
                  overhead: float, kernel_s: float) -> dict[str, float]:
    """Per-layer metrics from the ledger; seconds and counts are per operation.

    Seconds are at reference speed, scaled by the run's median kernel time.
    """
    ops = max(ledger.ops, 1)
    per_op_s = scaled(1.0, kernel_s) / ops
    requests = sum(s.counts["requests"] for s in summaries)
    tokens = sum(s.counts.get("tokens", 0) for s in summaries)
    formed = ledger.counts["serving.batching.formed"]
    try_form = ledger.layer_calls("serving.batching", "try_form")

    def per(num, den):
        return num / den if den else 0.0

    def self_s(layer):
        return ledger.layer_self_s(layer) * per_op_s

    def calls(layer, *attrs):
        return ledger.layer_calls(layer, *attrs)

    values = {
        "import.repro_s": median([p["import.repro_s"] for p in probes]),
        "import.cli_s": median([p["import.cli_s"] for p in probes]),
        "workload.gen_s": ledger.layer_incl_s("workload.gen") * per_op_s,
        "core.scheduler.calls": calls("core.scheduler") / ops,
        "core.cycle_model.calls": calls("core.cycle_model") / ops,
        "serving.batching.cost_build_s":
            ledger.layer_incl_s("serving.batching.cost_build") * per_op_s,
        "cluster.pools.cost_build_s":
            ledger.layer_incl_s("cluster.pools.cost_build") * per_op_s,
        "serving.admission.calls_per_req": per(calls("serving.admission"), requests),
        "serving.batching.try_form_per_req": per(try_form, requests),
        "serving.batching.form_yield": per(formed, try_form),
        "serving.devices.state_reads_per_req":
            per(calls("serving.devices", *DEVICE_READS), requests),
        "serving.devices.dispatch_per_batch":
            per(calls("serving.devices", "dispatch"), formed),
        "cluster.router.route_per_req": per(calls("cluster.router"), requests),
        "cluster.pools.reads_per_req":
            per(calls("cluster.pools", *POOL_READS), requests),
        "cluster.autoscaler.evaluate_calls": calls("cluster.autoscaler") / ops,
        "decode.cycle_model.calls_per_token": per(calls("decode.cycle_model"), tokens),
        "decode.fused.calls": calls("decode.fused") / ops,
        "decode.kvcache.lookups_per_token":
            per(calls("decode.kvcache", "lookup"), tokens),
        "obs.spans.traces_per_req":
            per(calls("obs.spans", "request_trace", "stream_trace"), requests),
        "obs.sampling.kept_frac":
            per(ledger.counts["obs.sampling.kept"], calls("obs.sampling")),
        "obs.slo.observe_per_req": per(calls("obs.slo", "observe"), requests),
        "obs.export.spans":
            sum(s.counts.get("exported_spans", 0) for s in summaries) / ops,
        "core.systolic_array.passes": calls("core.systolic_array") / ops,
        "core.systolic_array.macs": ledger.counts["core.systolic_array.macs"] / ops,
        "core.systolic_array.clean_s": ledger.self_s.get(_PASS, 0.0) * per_op_s,
        "core.systolic_array.armed_s":
            ledger.self_s.get(_PASS + ".armed", 0.0) * per_op_s,
        "reliability.abft.runs": calls("reliability.abft") / ops,
        "trace.overhead_frac": overhead,
    }
    for name, _ in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if name not in values and kind in ("s", "self_s"):
            values[name] = self_s(layer)
    return values


def print_ledger(ledger: Ledger) -> None:
    """Per-layer exclusive time; the rows partition the operations' time."""
    total = ledger.incl_s[OP_SPAN]
    layers: dict[str, list] = {}
    for name, seconds in ledger.self_s.items():
        row = layers.setdefault(name.split(":")[0], [0, 0.0])
        row[0] += ledger.calls[name] if name != OP_SPAN else 0
        row[1] += seconds
    print(f"ledger over {ledger.ops} wrapped operations "
          f"({total / max(ledger.ops, 1):.4f} raw host s each):")
    print(f"  {'layer':32s} {'calls/op':>12s} {'self s/op':>11s} {'share':>7s}")
    for layer, (n, seconds) in sorted(layers.items(), key=lambda kv: -kv[1][1]):
        print(f"  {layer:32s} {n / max(ledger.ops, 1):12.1f} "
              f"{seconds / max(ledger.ops, 1):11.5f} {seconds / total:7.1%}")
    residual = sum(ledger.self_s.values()) - total
    print(f"  partition residual: {residual:+.3e} s")


def paper_point_line() -> str:
    """Model error against the paper's only reference: MHA/FFN cycles."""
    from repro.config import AcceleratorConfig, preset
    from repro.core import schedule_ffn, schedule_mha
    from repro.core.cycle_model import PAPER_FFN_CYCLES, PAPER_MHA_CYCLES

    model, acc = preset("transformer-base"), AcceleratorConfig()
    mha = schedule_mha(model, acc).total_cycles
    ffn = schedule_ffn(model, acc).total_cycles
    return (f"paper point: MHA {mha:,} cycles vs {PAPER_MHA_CYCLES:,} "
            f"({mha / PAPER_MHA_CYCLES - 1:+.2%}), FFN {ffn:,} vs "
            f"{PAPER_FFN_CYCLES:,} ({ffn / PAPER_FFN_CYCLES - 1:+.2%})")


def report(workload, run: Run) -> dict[str, float]:
    """Print the modelled figures and the record digest; return the figures."""
    figures = workload.figures(run.summaries) if run.summaries else []
    joined = "".join(s.digest for s in run.summaries)
    print(f"records digest over {len(run.summaries)} operations: {digest(joined)}")
    for name, value, unit in figures:
        print(f"  {name:28s} {value:16.6f} {unit}")
    return {name: value for name, value, _ in figures}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_source_tree()
    workload = WORKLOADS[args.workload]()
    probes = run_probes(workload.name, args.seed)
    workload.setup(args.seed)
    print(f"workload {workload.name} seed {args.seed}: {workload.why}")
    print(paper_point_line())

    if args.trace:
        run, ledger, overhead, kernel_s = measure_traced(
            workload, args.seed, args.seconds)
        report(workload, run)
        print_ledger(ledger)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.json"
        count = ledger.write_spans(str(path))
        print(f"wrote {count} spans of the first wrapped operation to "
              f"{os.path.relpath(path, ROOT)}")
        values = layer_metrics(ledger, run.summaries, probes, overhead, kernel_s)
        units = dict(PER_LAYER)
    else:
        run, walls, items, kernels = measure(workload, args.seed, args.seconds)
        figures = report(workload, run)
        values = {
            "setup_s": median([p["setup_s"] for p in probes]),
            "wall_s": median(walls),
            "sim_req_per_s": median([n / w for n, w in zip(items, walls)]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "model.completed_frac": figures.get("model.completed_frac", 0.0),
        }
        units = dict(END_TO_END)
        quartiles = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls
        print(f"wall_s: median of {len(walls)} operations, quartiles "
              + " / ".join(f"{q:.4f}" for q in quartiles)
              + f"; sim_req_per_s counts {workload.item}; host times are at "
              f"reference speed (kernel {REFERENCE_S} s, measured median "
              f"{median(kernels):.4f} s)")
        if workload.item == "trials":
            print(f"  {'trials_per_s':36s} {values['sim_req_per_s']:16.6f} 1/s")
    for name, value in values.items():
        print(f"  {name:36s} {value:16.6f} {units[name]}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
