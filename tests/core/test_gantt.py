"""ASCII Gantt rendering tests."""

import pytest

from repro.config import paper_accelerator, transformer_base
from repro.core import schedule_ffn, schedule_mha
from repro.core.gantt import render_gantt
from repro.core.scheduler import ScheduleResult
from repro.errors import ScheduleError


@pytest.fixture
def mha():
    return schedule_mha(transformer_base(), paper_accelerator())


class TestRenderGantt:
    def test_all_tracks_present(self, mha):
        text = render_gantt(mha)
        assert "sa " in text
        assert "softmax" in text
        assert "layernorm" in text

    def test_total_cycles_in_header(self, mha):
        assert f"{mha.total_cycles:,}" in render_gantt(mha)

    def test_track_rows_share_width(self, mha):
        lines = render_gantt(mha, width=80).splitlines()
        bars = [l for l in lines if l.rstrip().endswith("|")]
        assert len({len(l.rstrip()) for l in bars}) == 1

    def test_layernorm_at_the_end(self, mha):
        lines = render_gantt(mha, width=60).splitlines()
        ln_row = next(l for l in lines if l.startswith("layernorm"))
        bar = ln_row.split("|")[1]
        assert "L" in bar[-4:]
        assert "L" not in bar[:30]

    def test_sa_mostly_busy(self, mha):
        lines = render_gantt(mha, width=100).splitlines()
        sa_row = next(l for l in lines if l.startswith("sa"))
        bar = sa_row.split("|")[1]
        assert bar.count("#") > 90  # the paper's "hardly stops running"

    def test_many_events_summarized(self, mha):
        text = render_gantt(mha)
        assert "48 SA passes" in text

    def test_few_events_enumerated(self):
        from repro.config import AcceleratorConfig, ModelConfig

        model = ModelConfig("t", d_model=64, d_ff=256, num_heads=1,
                            max_seq_len=16)
        result = schedule_ffn(model, AcceleratorConfig(seq_len=16))
        text = render_gantt(result)
        assert "w1.0" in text and "w2.0" in text

    def test_empty_schedule_rejected(self):
        with pytest.raises(ScheduleError):
            render_gantt(ScheduleResult(block="mha"))

    def test_too_narrow_rejected(self, mha):
        with pytest.raises(ScheduleError):
            render_gantt(mha, width=5)
