"""Unit tests for the QFMT dataflow type checker."""

import pytest

from repro.errors import ConfigError
from repro.statcheck import (
    PASSES,
    DatapathGraph,
    OverflowPoint,
    Port,
    build_datapath_graph,
    certify_overflow,
    check_graph,
    run_check,
)
from repro.fixedpoint.types import QFormat


def qformat_report(point=None):
    """The QFMT slice of the run ``repro check`` makes at ``point``."""
    report = run_check(
        point=point, skip=[p for p in PASSES if p != "qformat"]
    )
    qfmt = [f for f in report.findings if f.code.startswith("QFMT")]
    return report.checks_run["qformat"], qfmt


def small_graph():
    g = DatapathGraph()
    g.add(Port("in", 8, kind="input"))
    g.add(Port("wide", 16))
    g.add(Port("narrow", 8))
    g.connect("in", "wide")
    return g


class TestGraphModel:
    def test_duplicate_port_rejected(self):
        g = small_graph()
        with pytest.raises(ConfigError):
            g.add(Port("wide", 16))

    def test_unknown_port_in_connection_rejected(self):
        g = small_graph()
        with pytest.raises(ConfigError):
            g.connect("wide", "ghost")

    def test_reachability(self):
        g = small_graph()
        assert g.reachable() == {"in", "wide"}
        g.connect("wide", "narrow", requantizes=True)
        assert g.reachable() == {"in", "wide", "narrow"}


class TestChecks:
    def test_truncating_edge_flagged(self):
        g = small_graph()
        g.connect("wide", "narrow")   # 16b -> 8b, unmarked
        _, findings = check_graph(g)
        assert [f.code for f in findings if f.severity == "error"] == [
            "QFMT001"
        ]

    def test_marked_requantize_clean(self):
        g = small_graph()
        g.connect("wide", "narrow", requantizes=True)
        _, findings = check_graph(g)
        assert [f for f in findings if f.code == "QFMT001"] == []

    def test_orphan_certification_flagged(self):
        g = small_graph()
        g.connect("wide", "narrow", requantizes=True)
        _, findings = check_graph(g, certified_names=["ghost.reg"])
        assert any(f.code == "QFMT002" for f in findings)

    def test_unreachable_certified_node_flagged(self):
        g = small_graph()
        # "narrow" exists but nothing feeds it.
        _, findings = check_graph(g, certified_names=["narrow"])
        assert any(f.code == "QFMT002" for f in findings)

    def test_format_mismatch_warns(self):
        g = DatapathGraph()
        g.add(Port("a", 16, fmt=QFormat(int_bits=6, frac_bits=10),
                   kind="input"))
        g.add(Port("b", 17, fmt=QFormat(int_bits=2, frac_bits=15)))
        g.connect("a", "b")
        _, findings = check_graph(g)
        assert [f.code for f in findings] == ["QFMT003"]
        assert findings[0].severity == "warning"

    def test_dangling_node_warns(self):
        g = small_graph()
        _, findings = check_graph(g)
        dangling = [f for f in findings if f.code == "QFMT004"]
        assert len(dangling) == 1
        assert dangling[0].details["port"] == "narrow"


class TestPaperGraph:
    def test_all_certified_stages_are_reachable_nodes(self):
        point = OverflowPoint()
        graph = build_datapath_graph(point)
        stages, _ = certify_overflow(point)
        reachable = graph.reachable()
        for stage in stages:
            assert stage.name in graph.ports, stage.name
            assert stage.name in reachable, stage.name

    def test_paper_point_clean(self):
        checks, findings = qformat_report()
        assert checks > 25
        assert findings == []

    def test_widths_mirror_certifier(self):
        point = OverflowPoint()
        graph = build_datapath_graph(point)
        stages, _ = certify_overflow(point)
        for stage in stages:
            assert graph.ports[stage.name].bits == stage.declared_bits, (
                stage.name
            )

    def test_width_override_seeds_qfmt001(self):
        graph = build_datapath_graph(OverflowPoint())
        graph.override_width("softmax.row_sum", 8)
        _, findings = check_graph(graph)
        assert any(f.code == "QFMT001" for f in findings)

    def test_nonpaper_points_clean(self):
        for point in (
            OverflowPoint(name="big", h=16, d_model=1024, d_ff=4096),
            OverflowPoint(name="bert", d_model=768, d_ff=3072, s=128),
        ):
            _, findings = qformat_report(point)
            assert findings == [], point.name
