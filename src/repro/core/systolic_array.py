"""Cycle-accurate simulator of the ``s x 64`` systolic array.

Two implementations of the same output-stationary dataflow:

* :class:`ScalarSystolicArray` — a grid of
  :class:`~repro.core.pe.ProcessingElement` objects stepped one clock at a
  time with explicit neighbour wiring.  Slow; used at small sizes to
  validate the vectorized model PE-for-PE.
* :class:`SystolicArray` — numpy-vectorized: the whole grid advances one
  cycle per iteration (operand wavefronts are shifted arrays).  This is
  the simulator the scheduler uses for full Transformer-base passes.

Both stream ``A (s x k)`` in from the west with rows skewed by one cycle
per row and ``B (k x n)`` from the north skewed by one column, so
``PE(i, j)`` sees ``A[i, m]`` and ``B[m, j]`` together at cycle
``m + i + j``.  A pass over the array therefore takes exactly
``k + s + n - 2`` compute cycles, after which accumulators drain column by
column — matching the paper's "output the product matrix column by column"
description.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..errors import ShapeError
from .pe import ProcessingElement, flip_bit

if TYPE_CHECKING:
    from ..telemetry.registry import MetricsRegistry


@dataclass(frozen=True)
class PEFault:
    """One injected PE fault.

    Attributes:
        mode: ``"stuck_zero"`` / ``"stuck_max"`` force the multiplier
            output on every active cycle; ``"bit_flip"`` upsets one
            accumulator bit as the result drains.
        bit: Accumulator bit index (``bit_flip`` only).
        transient: Transient faults clear themselves after one pass
            (a single-event upset); persistent faults stay until
            :meth:`SystolicArray.clear_faults` (a hard defect).
    """

    mode: str = "stuck_zero"
    bit: int = 0
    transient: bool = False


@dataclass(frozen=True)
class PassResult:
    """Outcome of one SA pass.

    Attributes:
        product: The integer product matrix ``A @ B`` (saturated per PE).
        compute_cycles: Cycles from first operand injection to the last
            MAC (``k + s + n - 2``).
        useful_macs: Number of MACs with both operands valid (``s*n*k``).
        utilization: ``useful_macs / (compute_cycles * num_pes)``.
    """

    product: np.ndarray
    compute_cycles: int
    useful_macs: int
    utilization: float


def expected_pass_cycles(s: int, k: int, n: int) -> int:
    """Closed-form compute cycles of one output-stationary pass."""
    return k + s + n - 2


class SystolicArray:
    """Vectorized cycle-accurate model of the output-stationary SA.

    Attributes:
        rows: ``s`` (one row per sequence position).
        cols: 64 in the paper's design.
        acc_bits: Saturating accumulator width.
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        acc_bits: int = 32,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if rows <= 0 or cols <= 0:
            raise ShapeError("SA dimensions must be positive")
        self.rows = rows
        self.cols = cols
        self.acc_bits = acc_bits
        self._acc_max = (1 << (acc_bits - 1)) - 1
        self._acc_min = -(1 << (acc_bits - 1))
        self._faults = {}
        # Optional telemetry: the registry is used duck-typed so the
        # functional simulator never imports repro.telemetry at runtime.
        self._registry = registry

    @property
    def num_pes(self) -> int:
        return self.rows * self.cols

    # ------------------------------------------------------------------
    # Fault injection (dependability analysis)
    # ------------------------------------------------------------------
    def inject_fault(
        self,
        row: int,
        col: int,
        mode: str = "stuck_zero",
        *,
        bit: int = 0,
        transient: bool = False,
    ) -> None:
        """Mark ``PE(row, col)`` faulty for subsequent passes.

        Modes: ``"stuck_zero"`` (the PE's multiplier output is always 0),
        ``"stuck_max"`` (the maximum product on every non-idle cycle), or
        ``"bit_flip"`` (accumulator bit ``bit`` inverts at drain).  With
        the output-stationary dataflow a faulty PE corrupts exactly one
        output element per pass — the property the fault tests verify.
        ``transient`` faults self-clear after the next pass.
        """
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ShapeError(f"PE ({row}, {col}) outside the array")
        if mode not in ("stuck_zero", "stuck_max", "bit_flip"):
            raise ShapeError(f"unknown fault mode {mode!r}")
        if not 0 <= bit < self.acc_bits:
            raise ShapeError(
                f"bit {bit} outside a {self.acc_bits}-bit accumulator"
            )
        self._faults[(row, col)] = PEFault(mode, bit, transient)

    def clear_faults(self) -> None:
        """Remove all injected faults."""
        self._faults.clear()

    @property
    def fault_count(self) -> int:
        return len(self._faults)

    def run_pass(self, a: np.ndarray, b: np.ndarray) -> PassResult:
        """Execute one GEMM pass ``A (s x k) @ B (k x n)`` cycle by cycle.

        ``n`` may be smaller than ``cols`` (unused columns idle, e.g. the
        zero-padded ``Q K^T`` pass at s < 64); ``s`` must equal ``rows``.
        """
        a = np.asarray(a)
        b = np.asarray(b)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ShapeError(f"bad GEMM shapes {a.shape} @ {b.shape}")
        s, k = a.shape
        n = b.shape[1]
        if s != self.rows:
            raise ShapeError(f"A has {s} rows; the SA has {self.rows}")
        if n > self.cols:
            raise ShapeError(f"B has {n} cols; the SA has {self.cols}")
        if not (np.issubdtype(a.dtype, np.integer)
                and np.issubdtype(b.dtype, np.integer)):
            raise ShapeError("SA operands must be integer typed")

        a = a.astype(np.int64)
        b = b.astype(np.int64)
        acc = np.zeros((s, n), dtype=np.int64)
        # Wavefront algebra: at cycle t, PE(i, j) multiplies A[i, t-i-j]
        # and B[t-i-j, j] when 0 <= t-i-j < k.  Instead of shifting
        # per-PE registers we evaluate each anti-diagonal band directly,
        # which is cycle-for-cycle identical to the register-shift model
        # (ScalarSystolicArray cross-checks this).
        row_idx = np.arange(s)[:, None]
        col_idx = np.arange(n)[None, :]
        offset = row_idx + col_idx                    # i + j per PE
        compute_cycles = expected_pass_cycles(s, k, n)
        for t in range(compute_cycles + 1):
            m = t - offset                            # operand index per PE
            valid = (m >= 0) & (m < k)
            if not valid.any():
                continue
            m_safe = np.where(valid, m, 0)
            products = np.where(
                valid,
                np.take_along_axis(a, m_safe, axis=1)
                * b[m_safe, col_idx],
                0,
            )
            for (fi, fj), fault in self._faults.items():
                if fj >= n:
                    continue
                if fault.mode == "stuck_zero":
                    products[fi, fj] = 0
                elif fault.mode == "stuck_max":
                    products[fi, fj] = np.where(
                        products[fi, fj] != 0, 127 * 127, 0
                    )
            acc = np.clip(acc + products, self._acc_min, self._acc_max)
        for (fi, fj), fault in self._faults.items():
            if fault.mode == "bit_flip" and fj < n:
                acc[fi, fj] = flip_bit(
                    int(acc[fi, fj]), fault.bit, self.acc_bits
                )
        self._faults = {
            key: fault for key, fault in self._faults.items()
            if not fault.transient
        }
        useful = s * n * k
        if self._registry is not None:
            self._registry.counter(
                "repro_sa_passes_total",
                "GEMM passes executed on the functional SA simulator",
            ).inc(1)
            self._registry.counter(
                "repro_sa_compute_cycles_total",
                "Compute cycles across functional SA passes",
            ).inc(compute_cycles)
            self._registry.counter(
                "repro_sa_useful_macs_total",
                "MACs with both operands valid across functional passes",
            ).inc(useful)
        return PassResult(
            product=acc,
            compute_cycles=compute_cycles,
            useful_macs=useful,
            utilization=useful / (compute_cycles * self.num_pes),
        )

    def drain_columns(self, result: PassResult) -> list[np.ndarray]:
        """Output the product column by column (the paper's drain order)."""
        return [result.product[:, j].copy()
                for j in range(result.product.shape[1])]


class ScalarSystolicArray:
    """Register-for-register PE-grid simulator (small sizes only).

    Steps an explicit grid of :class:`ProcessingElement` objects with real
    neighbour wiring; exists to validate :class:`SystolicArray` at RTL
    granularity.  O(cycles * rows * cols) Python objects — keep it small.
    """

    def __init__(self, rows: int, cols: int, acc_bits: int = 32) -> None:
        if rows <= 0 or cols <= 0:
            raise ShapeError("SA dimensions must be positive")
        if rows * cols > 4096:
            raise ShapeError(
                "ScalarSystolicArray is for validation at small sizes; use "
                "SystolicArray for large arrays"
            )
        self.rows = rows
        self.cols = cols
        self.grid = [
            [ProcessingElement(acc_bits=acc_bits) for _ in range(cols)]
            for _ in range(rows)
        ]

    def reset(self) -> None:
        for row in self.grid:
            for pe in row:
                pe.reset()

    def inject_fault(
        self, row: int, col: int, mode: str = "stuck_zero", *, bit: int = 0
    ) -> None:
        """Make ``PE(row, col)`` faulty (same modes as the vectorized SA)."""
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ShapeError(f"PE ({row}, {col}) outside the array")
        self.grid[row][col].inject_fault(mode, bit)

    def clear_faults(self) -> None:
        for row in self.grid:
            for pe in row:
                pe.clear_fault()

    def run_pass(self, a: np.ndarray, b: np.ndarray) -> PassResult:
        """Execute one GEMM pass by stepping every PE each clock."""
        a = np.asarray(a)
        b = np.asarray(b)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ShapeError(f"bad GEMM shapes {a.shape} @ {b.shape}")
        s, k = a.shape
        n = b.shape[1]
        if s != self.rows or n > self.cols:
            raise ShapeError(
                f"GEMM {a.shape} @ {b.shape} does not fit a "
                f"{self.rows} x {self.cols} SA"
            )
        self.reset()
        compute_cycles = expected_pass_cycles(s, k, n)
        for t in range(compute_cycles + 1):
            # Snapshot forwarded operands before any PE updates (all PEs
            # latch simultaneously on the clock edge).
            east = [[self.grid[i][j].east for j in range(n)] for i in range(s)]
            south = [[self.grid[i][j].south for j in range(n)] for i in range(s)]
            for i in range(s):
                for j in range(n):
                    if j == 0:
                        m = t - i
                        a_in = int(a[i, m]) if 0 <= m < k else 0
                    else:
                        a_in = east[i][j - 1]
                    if i == 0:
                        m = t - j
                        b_in = int(b[m, j]) if 0 <= m < k else 0
                    else:
                        b_in = south[i - 1][j]
                    self.grid[i][j].step(a_in, b_in)
        product = np.array(
            [[self.grid[i][j].drain() for j in range(n)] for i in range(s)],
            dtype=np.int64,
        )
        useful = s * n * k
        return PassResult(
            product=product,
            compute_cycles=compute_cycles,
            useful_macs=useful,
            utilization=useful / (compute_cycles * self.rows * self.cols),
        )
