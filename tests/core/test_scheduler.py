"""Scheduler tests: Algorithm 1 timelines and their invariants."""

import pytest

from repro.config import (
    ModelConfig,
    paper_accelerator,
    transformer_base,
    transformer_big,
)
from repro.core import (
    PAPER_FFN_CYCLES,
    PAPER_MHA_CYCLES,
    schedule_ffn,
    schedule_mha,
    schedule_model,
)
from repro.errors import ScheduleError


@pytest.fixture
def base():
    return transformer_base()


@pytest.fixture
def acc():
    return paper_accelerator()


class TestTimelineInvariants:
    def test_sa_events_never_overlap(self, base, acc):
        for result in (schedule_mha(base, acc), schedule_ffn(base, acc)):
            events = sorted(result.sa_events, key=lambda e: e.start)
            for prev, cur in zip(events, events[1:]):
                assert cur.start >= prev.end

    def test_events_ordered_by_dependency(self, base, acc):
        result = schedule_mha(base, acc)
        for i in range(base.num_heads):
            qkt = result.find(f"head{i}.QKt")
            kwk = result.find(f"head{i}.KWk")
            softmax = result.find(f"head{i}.softmax")
            pv = result.find(f"head{i}.PV")
            assert qkt.start >= kwk.end
            assert softmax.start >= qkt.end
            assert pv.start >= softmax.end

    def test_layernorm_is_last(self, base, acc):
        for result in (schedule_mha(base, acc), schedule_ffn(base, acc)):
            ln = result.find("layernorm")
            assert ln.end == result.total_cycles
            assert all(e.end <= ln.start or e is ln for e in result.events
                       if e.unit == "sa")

    def test_softmax_hidden_behind_v_projection(self, base, acc):
        # Algorithm 1 line 6: softmax ends before PV needs it, without
        # stalling the SA (V W_Vi covers the softmax tail).
        result = schedule_mha(base, acc)
        for i in range(base.num_heads):
            softmax = result.find(f"head{i}.softmax")
            v_proj = result.find(f"head{i}.VWv")
            assert softmax.end <= v_proj.end

    def test_pass_counts(self, base, acc):
        mha = schedule_mha(base, acc)
        assert len(mha.sa_events) == 5 * base.num_heads + base.num_heads
        ffn = schedule_ffn(base, acc)
        assert len(ffn.sa_events) == (
            base.d_ff // 64 + base.d_model // 64
        )

    def test_active_cycles_equal_inner_dims(self, base, acc):
        mha = schedule_mha(base, acc)
        expected = base.num_heads * (3 * 512 + 64 + 64) + 8 * 512
        assert mha.sa_active_cycles == expected


class TestPaperNumbers:
    def test_mha_within_five_percent(self, base, acc):
        measured = schedule_mha(base, acc).total_cycles
        assert abs(measured / PAPER_MHA_CYCLES - 1) < 0.05

    def test_ffn_within_fifteen_percent(self, base, acc):
        measured = schedule_ffn(base, acc).total_cycles
        assert abs(measured / PAPER_FFN_CYCLES - 1) < 0.15

    def test_ffn_roughly_double_mha(self, base, acc):
        # The paper's 42,099 / 21,344 = 1.97; our model must land near 2.
        ratio = (schedule_ffn(base, acc).total_cycles
                 / schedule_mha(base, acc).total_cycles)
        assert 1.6 < ratio < 2.2

    def test_utilization_in_paper_band(self, base, acc):
        # Paper's implied SA utilizations: 81.6% (MHA), 77.8% (FFN).
        assert 0.7 < schedule_mha(base, acc).sa_utilization < 0.9
        assert 0.7 < schedule_ffn(base, acc).sa_utilization < 0.95

    def test_latency_us_at_200mhz(self, base, acc):
        result = schedule_mha(base, acc)
        assert result.latency_us(200.0) == result.total_cycles / 200.0


class TestConfigKnobs:
    def test_no_overlap_is_slower(self, base, acc):
        slow = acc.with_updates(pass_overlap=False)
        assert (schedule_mha(base, slow).total_cycles
                > schedule_mha(base, acc).total_cycles)

    def test_dual_ported_buffers_speed_up_ffn(self, base, acc):
        fast = acc.with_updates(single_ported_buffers=False)
        assert (schedule_ffn(base, fast).total_cycles
                < schedule_ffn(base, acc).total_cycles)

    def test_layernorm_mode_ordering(self, base, acc):
        totals = [
            schedule_mha(base, acc.with_updates(layernorm_mode=m)).total_cycles
            for m in ("straightforward", "step_one", "step_two")
        ]
        assert totals[0] > totals[1] > totals[2]

    def test_weight_load_overhead_adds_per_pass(self, base, acc):
        loaded = acc.with_updates(weight_load_cycles=10)
        base_cycles = schedule_ffn(base, acc).total_cycles
        extra = schedule_ffn(base, loaded).total_cycles - base_cycles
        assert extra == 10 * len(schedule_ffn(base, acc).sa_events)

    def test_head_dim_mismatch_rejected(self, acc):
        bad = ModelConfig("bad", d_model=512, d_ff=2048, num_heads=8,
                          max_seq_len=64)
        wrong_sa = acc.with_updates(sa_cols=32)
        with pytest.raises(ScheduleError):
            schedule_mha(bad, wrong_sa)


class TestLargerModels:
    def test_big_model_scales_up(self, acc):
        big = transformer_big()
        base = transformer_base()
        assert (schedule_mha(big, acc).total_cycles
                > 2 * schedule_mha(base, acc).total_cycles)

    def test_model_totals(self, base, acc):
        totals = schedule_model(base, acc)
        mha, ffn = totals["mha_cycles"], totals["ffn_cycles"]
        assert totals["encoder_cycles"] == 6 * (mha + ffn)
        assert totals["decoder_cycles"] == 6 * (2 * mha + ffn)
        assert totals["total_cycles"] == (
            totals["encoder_cycles"] + totals["decoder_cycles"]
        )

    def test_result_find_missing(self, base, acc):
        with pytest.raises(ScheduleError):
            schedule_mha(base, acc).find("nonexistent")


class TestWeightLoadAudit:
    """Activation-only passes (QKt, softmax x Temp2) pay no weight fetch.

    MHA runs 6h SA passes but only 4h of them load weights (Q/K/V
    projections and the per-head output block G); the QKt and PV passes
    stream two activation tiles.  FFN loads weights on every pass.
    """

    def test_paper_point_totals_pinned(self, base, acc):
        assert schedule_mha(base, acc).total_cycles == 21578
        assert schedule_ffn(base, acc).total_cycles == 39052
        wl8 = acc.with_updates(weight_load_cycles=8)
        assert schedule_mha(base, wl8).total_cycles == 21834
        assert schedule_ffn(base, wl8).total_cycles == 39372
        wl64 = acc.with_updates(weight_load_cycles=64)
        assert schedule_mha(base, wl64).total_cycles == 23626
        assert schedule_ffn(base, wl64).total_cycles == 41612

    def test_mha_charges_only_weight_passes(self, base, acc):
        # 4h weight passes, not 6h total passes: the delta per cycle of
        # weight_load_cycles is exactly 4 * num_heads.
        h = base.num_heads
        base_cycles = schedule_mha(base, acc).total_cycles
        for wl in (1, 8, 64):
            loaded = acc.with_updates(weight_load_cycles=wl)
            extra = schedule_mha(base, loaded).total_cycles - base_cycles
            assert extra == wl * 4 * h, wl

    def test_ffn_charges_every_pass(self, base, acc):
        base_result = schedule_ffn(base, acc)
        loaded = acc.with_updates(weight_load_cycles=8)
        extra = schedule_ffn(base, loaded).total_cycles
        assert extra - base_result.total_cycles == 8 * len(
            base_result.sa_events
        )

    def test_mha_audit_holds_off_paper_point(self, acc):
        small = ModelConfig("audit", d_model=256, d_ff=1024, num_heads=4,
                            max_seq_len=64)
        base_cycles = schedule_mha(small, acc).total_cycles
        loaded = acc.with_updates(weight_load_cycles=16)
        extra = schedule_mha(small, loaded).total_cycles - base_cycles
        assert extra == 16 * 4 * small.num_heads
