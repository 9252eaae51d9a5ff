"""repro.statcheck — static analysis for the accelerator models.

Six passes, one reporter:

* :mod:`~repro.statcheck.overflow` — interval-arithmetic overflow
  certifier for the fixed-point datapath;
* :mod:`~repro.statcheck.schedule_lint` — structural linter for
  scheduler timelines and trace spans (resource exclusivity, cycle
  conservation, pinned paper points);
* :mod:`~repro.statcheck.ast_lints` — repo-specific ``REPxxx`` AST
  lints;
* :mod:`~repro.statcheck.det_lints` — ``DETxxx`` determinism lints
  over the simulation packages (unseeded RNG, set-order dispatch,
  wall clock, float tie-breaks);
* :mod:`~repro.statcheck.qformat` — whole-graph Q-format/width
  dataflow checker (``QFMTxxx``), tied to the certifier's stage
  bounds;
* :mod:`~repro.statcheck.pricing_graph` — whole-program pricing /
  telemetry coverage (``PRCxxx``).

Shared infrastructure: SARIF 2.1.0 export
(:mod:`~repro.statcheck.sarif`), reviewed baseline suppressions
(:mod:`~repro.statcheck.baseline`) and a content-hash incremental
cache (:mod:`~repro.statcheck.cache`).

``repro check`` (see :mod:`repro.cli`) and selftest check 6 drive
:func:`~repro.statcheck.runner.run_check`.
"""

from .ast_lints import ALL_CODES, lint_source, run_ast_lints
from .baseline import Baseline, Suppression, load_baseline, write_baseline
from .cache import AnalysisUnit, CheckCache, UnitResult
from .det_lints import (
    DET_CODES,
    lint_determinism_source,
    sim_module_files,
)
from .findings import SEVERITIES, CheckReport, Finding, sort_findings
from .interval import Interval, envelope
from .pricing_graph import PRC_CODES, check_pricing, scan_pricing
from .qformat import (
    QFMT_CODES,
    Connection,
    DatapathGraph,
    Port,
    build_datapath_graph,
    check_graph,
)
from .sarif import RULE_DOCS, to_sarif, write_sarif
from .overflow import (
    OverflowPoint,
    StageBound,
    certify_compress,
    certify_fused_softmax,
    certify_layernorm,
    certify_overflow,
    certify_sa_accumulators,
    certify_softmax,
    min_sa_acc_bits,
    paper_point,
)
from .runner import (
    PASSES,
    SEED_BUG_PASS,
    SEED_BUGS,
    build_units,
    run_check,
    selftest_check,
)
from .schedule_lint import (
    PINNED_PAPER_POINTS,
    lint_paper_points,
    lint_schedule,
    lint_spans,
)

__all__ = [
    "ALL_CODES",
    "AnalysisUnit",
    "Baseline",
    "CheckCache",
    "CheckReport",
    "Connection",
    "DET_CODES",
    "DatapathGraph",
    "Finding",
    "Interval",
    "OverflowPoint",
    "PASSES",
    "PINNED_PAPER_POINTS",
    "PRC_CODES",
    "Port",
    "QFMT_CODES",
    "RULE_DOCS",
    "SEED_BUGS",
    "SEED_BUG_PASS",
    "SEVERITIES",
    "StageBound",
    "Suppression",
    "UnitResult",
    "build_datapath_graph",
    "build_units",
    "certify_compress",
    "certify_fused_softmax",
    "certify_layernorm",
    "certify_overflow",
    "certify_sa_accumulators",
    "certify_softmax",
    "check_graph",
    "check_pricing",
    "envelope",
    "lint_determinism_source",
    "lint_paper_points",
    "lint_schedule",
    "lint_source",
    "lint_spans",
    "load_baseline",
    "min_sa_acc_bits",
    "paper_point",
    "run_ast_lints",
    "run_check",
    "scan_pricing",
    "selftest_check",
    "sim_module_files",
    "sort_findings",
    "to_sarif",
    "write_baseline",
    "write_sarif",
]
