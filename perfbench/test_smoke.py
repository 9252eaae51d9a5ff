"""Smoke test of the benchmark at a tiny size.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
Covers all four workloads untraced and traced, the ledger's restore and
partition invariants, and a deliberately corrupted output that must
count as a failed operation.
"""

import json

import pytest
from ledger import OP_SPAN, Ledger
from run import END_TO_END, PER_LAYER, layer_metrics, measure, measure_traced
from workloads import (
    ROOT,
    ClusterObserved,
    DecodeMixed,
    FaultCampaign,
    ServingOverload,
    use_source_tree,
)

use_source_tree()

TINY = [
    lambda: ServingOverload(requests=60),
    lambda: ClusterObserved(requests_per_tenant=20),
    lambda: DecodeMixed(streams=6),
    lambda: FaultCampaign(trials_per_cell=1),
]


def _tiny(make):
    workload = make()
    workload.setup(seed=7)
    return workload


@pytest.mark.parametrize("make", TINY)
def test_untraced_ops_pass_their_checks(make):
    workload = _tiny(make)
    run, walls, items, _ = measure(workload, seed=7, seconds=0.0, recorded=2)
    assert (run.attempted, run.failed) == (2, 0)
    assert len(walls) == 2 and all(n > 0 for n in items)
    names = [name for name, _, _ in workload.figures(run.summaries)]
    assert "model.completed_frac" in names


@pytest.mark.parametrize("make", TINY)
def test_traced_ledger_is_passive_and_restored(make):
    import repro.serving.admission as admission
    import repro.serving.simulator as simulator

    before = (simulator.simulate_serving, admission.AdmissionQueue.__dict__["offer"])
    workload = _tiny(make)
    run, ledger, overhead, kernel_s = measure_traced(
        workload, seed=7, seconds=0.0, recorded=2)
    # Traced and untraced operations agree (else they count as failed).
    assert (run.attempted, run.failed) == (4, 0)
    assert (simulator.simulate_serving,
            admission.AdmissionQueue.__dict__["offer"]) == before
    assert ledger.ops == 2
    # Self times partition the operations' time exactly.
    assert sum(ledger.self_s.values()) == pytest.approx(ledger.incl_s[OP_SPAN])
    values = layer_metrics(ledger, run.summaries,
                           [{"import.repro_s": 0.1, "import.cli_s": 0.1}], overhead,
                           kernel_s)
    assert set(values) == {name for name, _ in PER_LAYER}


def test_ledger_counts_repeat_for_a_seed():
    counts = []
    for _ in range(2):
        workload = _tiny(TINY[0])
        _, ledger, _, _ = measure_traced(workload, seed=3, seconds=0.0, recorded=1)
        counts.append(dict(ledger.calls))
    assert counts[0] == counts[1]


def test_corrupted_output_counts_as_failed(monkeypatch):
    workload = _tiny(TINY[0])
    op = workload.op

    def corrupted(seed):
        result = op(seed)
        result.records[0].status = "queued"
        return result

    monkeypatch.setattr(workload, "op", corrupted)
    run, _, _, _ = measure(workload, seed=7, seconds=0.0, recorded=2)
    assert (run.attempted, run.failed) == (2, 2)


def test_ledger_restores_after_an_exception():
    import repro.reliability as reliability

    original = reliability.run_campaign
    ledger = Ledger()
    with pytest.raises(RuntimeError), ledger:
        assert reliability.run_campaign is not original
        raise RuntimeError
    assert reliability.run_campaign is original


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == {
        make().name for make in TINY
    }
