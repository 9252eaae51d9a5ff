"""QFMT — whole-graph Q-format/width dataflow checker.

The overflow certifier (:mod:`~repro.statcheck.overflow`) proves each
register *in isolation* holds its worst-case interval.  This engine
complements it with the *connective* proof: it builds a static graph of
the fixed-point datapath — every module port and certified register is
a node carrying its declared width (and Q-format where one exists),
every physical wire is an edge — and checks the whole graph at once:

* ``QFMT001`` — **truncating connection**: an edge whose source is
  declared wider than its destination without an explicit
  ``requantizes``/``truncates`` marker silently drops bits in hardware.
* ``QFMT002`` — **orphan certification**: every
  :class:`~repro.statcheck.overflow.StageBound` the certifier emits
  must name a graph node *reachable from an input port*.  A certified
  stage nothing feeds is a proof about hardware that does not exist —
  exactly the drift whole-program analysis is meant to catch.
* ``QFMT003`` — **format mismatch** (warning): both endpoints carry
  Q-formats whose fractional widths differ and the edge is not marked
  ``requantizes`` — the wire silently re-scales values.
* ``QFMT004`` — **dangling node** (warning): a non-input node no input
  port reaches.

The graph is built from the *real* datapath objects through their
``ports()`` hooks (:class:`~repro.fixedpoint.exp_unit.ExpUnit`,
:class:`~repro.fixedpoint.ln_unit.LnUnit`,
:class:`~repro.fixedpoint.layernorm_datapath.FixedPointLayerNorm`,
:func:`repro.core.pe.mac_port_widths`,
:data:`repro.compress.formats.CONTROL_COUNTER_BITS`), so declared
widths cannot drift from the code they describe.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional

from ..core.pe import mac_port_widths
from ..errors import ConfigError
from ..fixedpoint.exp_unit import ExpUnit
from ..fixedpoint.layernorm_datapath import FixedPointLayerNorm
from ..fixedpoint.ln_unit import LnUnit
from ..fixedpoint.types import QFormat
from .findings import Finding
from .overflow import OverflowPoint

QFMT_CODES = ("QFMT001", "QFMT002", "QFMT003", "QFMT004")


@dataclass(frozen=True)
class Port:
    """One node of the datapath graph.

    Attributes:
        name: Dotted identifier; certified registers use their
            :class:`~repro.statcheck.overflow.StageBound` name verbatim.
        bits: Declared signed word width.
        fmt: Q-format when the node carries fixed-point values (control
            counters have a width but no format).
        kind: ``"input"`` ports seed reachability; everything else is a
            ``"register"``, ``"bus"`` or ``"output"``.
    """

    name: str
    bits: int
    fmt: Optional[QFormat] = None
    kind: str = "register"

    def __post_init__(self) -> None:
        if self.bits < 1:
            raise ConfigError(f"port {self.name!r} needs a positive width")
        if self.kind not in ("input", "register", "bus", "output"):
            raise ConfigError(f"unknown port kind {self.kind!r}")


@dataclass(frozen=True)
class Connection:
    """One directed wire of the datapath graph.

    ``requantizes`` marks an intentional format change (rounding shift,
    divider, priority encoder); ``truncates`` marks an intentional
    plain truncation.  Either suppresses QFMT001/QFMT003 on the edge.
    """

    src: str
    dst: str
    requantizes: bool = False
    truncates: bool = False
    note: str = ""


@dataclass
class DatapathGraph:
    """The static port graph the QFMT engine checks."""

    ports: dict[str, Port] = field(default_factory=dict)
    edges: list[Connection] = field(default_factory=list)

    def add(self, port: Port) -> None:
        if port.name in self.ports:
            raise ConfigError(f"duplicate port {port.name!r}")
        self.ports[port.name] = port

    def connect(
        self,
        src: str,
        dst: str,
        requantizes: bool = False,
        truncates: bool = False,
        note: str = "",
    ) -> None:
        for name in (src, dst):
            if name not in self.ports:
                raise ConfigError(f"connection names unknown port {name!r}")
        self.edges.append(Connection(
            src=src, dst=dst, requantizes=requantizes,
            truncates=truncates, note=note,
        ))

    def override_width(self, name: str, bits: int) -> None:
        """Shrink/grow one port's declared width (seeded-bug hook)."""
        port = self.ports[name]
        self.ports[name] = Port(
            name=port.name, bits=bits, fmt=port.fmt, kind=port.kind
        )

    def input_ports(self) -> list[str]:
        return [p.name for p in self.ports.values() if p.kind == "input"]

    def reachable(self) -> set[str]:
        """Every node reachable from an input port."""
        adjacency: dict[str, list[str]] = {}
        for edge in self.edges:
            adjacency.setdefault(edge.src, []).append(edge.dst)
        seen: set[str] = set(self.input_ports())
        frontier = deque(seen)
        while frontier:
            node = frontier.popleft()
            for nxt in adjacency.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    def as_dict(self) -> dict[str, Any]:
        return {
            "ports": [
                {"name": p.name, "bits": p.bits, "kind": p.kind,
                 "fmt": str(p.fmt) if p.fmt else None}
                for p in self.ports.values()
            ],
            "edges": [
                {"src": e.src, "dst": e.dst,
                 "requantizes": e.requantizes, "truncates": e.truncates}
                for e in self.edges
            ],
        }


def build_datapath_graph(point: Optional[OverflowPoint] = None) -> DatapathGraph:
    """The accelerator's port graph at one operating point.

    Mirrors the physical dataflow of the paper's design: SA MAC chains,
    the log-sum-exp softmax pipeline, the fused online-softmax
    registers, the compressed-pass control counters and the LayerNorm
    statistics pipeline.  Node names match the overflow certifier's
    :class:`~repro.statcheck.overflow.StageBound` names exactly, so the
    QFMT002 orphan check ties the two engines together.
    """
    point = point or OverflowPoint()
    graph = DatapathGraph()
    pe = mac_port_widths(
        act_bits=point.act_bits, weight_bits=point.weight_bits,
        acc_bits=point.sa_acc_bits,
    )
    exp = ExpUnit(
        in_fmt=point.softmax_fmt, out_frac_bits=point.exp_out_frac_bits
    )
    sum_int_bits = int(math.ceil(math.log2(point.softmax_max_row))) + 2
    ln = LnUnit(in_fmt=QFormat(
        int_bits=sum_int_bits, frac_bits=point.exp_out_frac_bits,
    ))
    layernorm = FixedPointLayerNorm(
        d_model=point.d_model, in_fmt=point.layernorm_fmt
    )
    ln_ports = layernorm.ports()
    fused_sum_fmt = QFormat(
        int_bits=point.fused_sum_int_bits,
        frac_bits=point.exp_out_frac_bits,
    )

    # -- inputs --------------------------------------------------------
    graph.add(Port("input.activations", pe["act"], kind="input"))
    graph.add(Port("input.weights", pe["weight"], kind="input"))
    graph.add(Port(
        "input.residual", ln_ports["in"].total_bits,
        fmt=ln_ports["in"], kind="input",
    ))
    graph.add(Port("input.pass_control",
                   point.compress_counter_bits, kind="input"))

    # -- systolic array ------------------------------------------------
    graph.add(Port("sa.mac.product", pe["product"], kind="bus"))
    graph.connect("input.activations", "sa.mac.product")
    graph.connect("input.weights", "sa.mac.product")
    for kind in ("proj", "qkt", "pv", "ffn_w1", "ffn_w2"):
        name = f"sa.acc.{kind}"
        graph.add(Port(name, pe["acc"]))
        graph.connect("sa.mac.product", name)

    # -- softmax module (Fig. 6) --------------------------------------
    exp_ports = exp.ports()
    graph.add(Port(
        "softmax.exp.log2e_product",
        point.softmax_fmt.total_bits + 1, fmt=exp_ports["in"], kind="bus",
    ))
    graph.connect(
        "sa.acc.qkt", "softmax.exp.log2e_product", requantizes=True,
        note="QK^T accumulator requantized to the softmax Q-format",
    )
    graph.add(Port(
        "softmax.exp.out", exp_ports["out"].total_bits,
        fmt=exp_ports["out"],
    ))
    graph.connect(
        "softmax.exp.log2e_product", "softmax.exp.out", requantizes=True,
        note="2**I barrel shift onto the EXP output format",
    )
    ln_unit_ports = ln.ports()
    graph.add(Port(
        "softmax.row_sum", ln_unit_ports["in"].total_bits,
        fmt=ln_unit_ports["in"],
    ))
    graph.connect("softmax.exp.out", "softmax.row_sum")
    graph.add(Port(
        "softmax.ln.log2_codes", ln_unit_ports["out"].total_bits + 2,
        kind="bus",
    ))
    graph.connect(
        "softmax.row_sum", "softmax.ln.log2_codes", requantizes=True,
        note="leading-one detector (priority encoder)",
    )
    graph.add(Port(
        "softmax.ln.out", ln_unit_ports["out"].total_bits,
        fmt=ln_unit_ports["out"],
    ))
    graph.connect(
        "softmax.ln.log2_codes", "softmax.ln.out", requantizes=True,
        note="shift-add by the ln(2) constant (< 1)",
    )

    # -- fused online softmax (repro.decode) ---------------------------
    graph.add(Port(
        "fused.softmax.running_max", point.softmax_fmt.total_bits,
        fmt=point.softmax_fmt,
    ))
    graph.connect(
        "sa.acc.qkt", "fused.softmax.running_max", requantizes=True,
        note="logit requantized to the softmax format, compare/select",
    )
    graph.add(Port(
        "fused.softmax.rescale", exp_ports["out"].total_bits,
        fmt=exp_ports["out"],
    ))
    graph.connect("fused.softmax.running_max", "fused.softmax.rescale",
                  requantizes=True, note="exp(m_old - m_new) via the EXP unit")
    graph.add(Port(
        "fused.softmax.running_sum", fused_sum_fmt.total_bits,
        fmt=fused_sum_fmt,
    ))
    graph.connect("fused.softmax.rescale", "fused.softmax.running_sum")

    # -- compressed-pass control (repro.compress) ----------------------
    for name in ("compress.circulant.rotation_counter",
                 "compress.nm.group_counter",
                 "compress.nm.index_field"):
        graph.add(Port(name, point.compress_counter_bits))
        graph.connect("input.pass_control", name)
    for name in ("compress.circulant.acc", "compress.nm.acc"):
        graph.add(Port(name, pe["acc"]))
        graph.connect("sa.mac.product", name)

    # -- LayerNorm statistics pipeline (Fig. 8) -------------------------
    fmt = point.layernorm_fmt
    graph.add(Port("layernorm.sum", point.layernorm_sum_bits))
    graph.connect("input.residual", "layernorm.sum")
    graph.add(Port("layernorm.sq", point.layernorm_sq_bits, kind="bus"))
    graph.connect("input.residual", "layernorm.sq", requantizes=True,
                  note="G^2 rounded back by frac_bits")
    graph.add(Port("layernorm.sumsq", point.layernorm_sumsq_bits))
    graph.connect("layernorm.sq", "layernorm.sumsq")
    graph.add(Port("layernorm.mean", fmt.total_bits, fmt=fmt, kind="bus"))
    graph.connect("layernorm.sum", "layernorm.mean", requantizes=True,
                  note="divide by d_model (shift for powers of two)")
    graph.add(Port(
        "layernorm.isqrt_in", ln_ports["isqrt_in"].total_bits,
        fmt=ln_ports["isqrt_in"],
    ))
    graph.connect("layernorm.sumsq", "layernorm.isqrt_in",
                  requantizes=True, note="E[G^2] - E[G]^2 variance math")
    graph.connect("layernorm.mean", "layernorm.isqrt_in",
                  requantizes=True, note="E[G]^2 term of Eq. (9)")
    graph.add(Port("layernorm.centered", fmt.total_bits + 1, kind="bus"))
    graph.connect("input.residual", "layernorm.centered")
    graph.connect("layernorm.mean", "layernorm.centered")
    return graph


def check_graph(
    graph: DatapathGraph,
    certified_names: Optional[list[str]] = None,
) -> tuple[int, list[Finding]]:
    """Check one graph; returns ``(checks_run, findings)``.

    ``certified_names`` are the StageBound names the overflow certifier
    produced; each must be a reachable node (QFMT002).
    """
    findings: list[Finding] = []
    checks = 0
    for edge in graph.edges:
        checks += 1
        src, dst = graph.ports[edge.src], graph.ports[edge.dst]
        if (src.bits > dst.bits
                and not edge.requantizes and not edge.truncates):
            findings.append(Finding(
                code="QFMT001",
                check="qformat",
                message=(
                    f"truncating connection {edge.src} ({src.bits}b) -> "
                    f"{edge.dst} ({dst.bits}b) drops "
                    f"{src.bits - dst.bits} bits with no declared "
                    "requantize/truncate step"
                ),
                details={"src": edge.src, "dst": edge.dst,
                         "src_bits": src.bits, "dst_bits": dst.bits},
            ))
        if (src.fmt is not None and dst.fmt is not None
                and src.fmt.frac_bits != dst.fmt.frac_bits
                and not edge.requantizes):
            findings.append(Finding(
                code="QFMT003",
                check="qformat",
                severity="warning",
                message=(
                    f"format mismatch on {edge.src} ({src.fmt}) -> "
                    f"{edge.dst} ({dst.fmt}): fractional widths differ "
                    "but the edge declares no requantization"
                ),
                details={"src": edge.src, "dst": edge.dst,
                         "src_fmt": str(src.fmt), "dst_fmt": str(dst.fmt)},
            ))
    reachable = graph.reachable()
    for name in certified_names or []:
        checks += 1
        if name not in graph.ports:
            findings.append(Finding(
                code="QFMT002",
                check="qformat",
                message=(
                    f"orphan certification: StageBound {name!r} names no "
                    "datapath-graph node (the certifier proves a register "
                    "the design does not wire up)"
                ),
                details={"stage": name},
            ))
        elif name not in reachable:
            findings.append(Finding(
                code="QFMT002",
                check="qformat",
                message=(
                    f"orphan certification: StageBound {name!r} is not "
                    "reachable from any input port"
                ),
                details={"stage": name},
            ))
    for port in graph.ports.values():
        if port.kind == "input" or port.name in reachable:
            continue
        findings.append(Finding(
            code="QFMT004",
            check="qformat",
            severity="warning",
            message=(
                f"dangling node {port.name!r}: no input port reaches it"
            ),
            details={"port": port.name},
        ))
    return checks, findings
