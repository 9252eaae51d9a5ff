"""Systolic array tests: PE, vectorized grid, scalar cross-validation."""

import numpy as np
import pytest

from repro.core import (
    ProcessingElement,
    ScalarSystolicArray,
    SystolicArray,
    expected_pass_cycles,
)
from repro.errors import FixedPointError, ShapeError

RNG = np.random.default_rng(8)


class TestProcessingElement:
    def test_mac_accumulates(self):
        pe = ProcessingElement()
        pe.step(3, 4)
        pe.step(-2, 5)
        assert pe.acc == 12 - 10

    def test_forwarding_registers(self):
        pe = ProcessingElement()
        pe.step(7, 9)
        assert pe.east == 7
        assert pe.south == 9

    def test_saturation(self):
        pe = ProcessingElement(acc_bits=8)
        for _ in range(10):
            pe.step(127, 127)
        assert pe.acc == 127

    def test_negative_saturation(self):
        pe = ProcessingElement(acc_bits=8)
        for _ in range(10):
            pe.step(-127, 127)
        assert pe.acc == -128

    def test_reset(self):
        pe = ProcessingElement()
        pe.step(2, 2)
        pe.reset()
        assert pe.acc == 0 and pe.east == 0 and pe.mac_count == 0

    def test_mac_count_skips_zero_operands(self):
        pe = ProcessingElement()
        pe.step(0, 5)
        pe.step(2, 3)
        assert pe.mac_count == 1

    def test_invalid_width(self):
        with pytest.raises(FixedPointError):
            ProcessingElement(acc_bits=1)


class TestVectorizedSA:
    def test_matches_numpy_matmul(self):
        sa = SystolicArray(8, 8)
        a = RNG.integers(-128, 128, size=(8, 20))
        b = RNG.integers(-128, 128, size=(20, 8))
        assert np.array_equal(sa.run_pass(a, b).product, a @ b)

    def test_cycle_count_formula(self):
        sa = SystolicArray(8, 8)
        a = RNG.integers(-5, 5, size=(8, 12))
        b = RNG.integers(-5, 5, size=(12, 8))
        result = sa.run_pass(a, b)
        assert result.compute_cycles == expected_pass_cycles(8, 12, 8)
        assert result.compute_cycles == 12 + 8 + 8 - 2

    def test_narrow_output_allowed(self):
        sa = SystolicArray(8, 8)
        a = RNG.integers(-5, 5, size=(8, 6))
        b = RNG.integers(-5, 5, size=(6, 3))
        result = sa.run_pass(a, b)
        assert np.array_equal(result.product, a @ b)

    def test_utilization_definition(self):
        sa = SystolicArray(4, 4)
        a = np.ones((4, 10), dtype=np.int64)
        b = np.ones((10, 4), dtype=np.int64)
        r = sa.run_pass(a, b)
        assert r.useful_macs == 4 * 4 * 10
        assert r.utilization == pytest.approx(
            r.useful_macs / (r.compute_cycles * 16)
        )

    def test_deep_pass_high_utilization(self):
        sa = SystolicArray(64, 64)
        a = RNG.integers(-2, 2, size=(64, 512))
        b = RNG.integers(-2, 2, size=(512, 64))
        assert sa.run_pass(a, b).utilization > 0.75

    def test_saturating_accumulator(self):
        sa = SystolicArray(1, 1, acc_bits=8)
        a = np.full((1, 100), 127, dtype=np.int64)
        b = np.full((100, 1), 127, dtype=np.int64)
        assert sa.run_pass(a, b).product[0, 0] == 127

    def test_wrong_row_count_rejected(self):
        sa = SystolicArray(8, 8)
        with pytest.raises(ShapeError):
            sa.run_pass(np.zeros((4, 4), dtype=np.int64),
                        np.zeros((4, 8), dtype=np.int64))

    def test_too_many_cols_rejected(self):
        sa = SystolicArray(4, 4)
        with pytest.raises(ShapeError):
            sa.run_pass(np.zeros((4, 4), dtype=np.int64),
                        np.zeros((4, 8), dtype=np.int64))

    def test_float_operands_rejected(self):
        sa = SystolicArray(4, 4)
        with pytest.raises(ShapeError):
            sa.run_pass(np.zeros((4, 4)), np.zeros((4, 4)))

    def test_drain_order_column_by_column(self):
        sa = SystolicArray(4, 4)
        a = RNG.integers(-3, 3, size=(4, 5))
        b = RNG.integers(-3, 3, size=(5, 4))
        result = sa.run_pass(a, b)
        columns = sa.drain_columns(result)
        assert len(columns) == 4
        for j, col in enumerate(columns):
            assert np.array_equal(col, (a @ b)[:, j])


class TestScalarCrossValidation:
    @pytest.mark.parametrize("s,k,n", [(4, 4, 4), (6, 10, 5), (3, 17, 2),
                                       (8, 1, 8), (1, 5, 1)])
    def test_scalar_equals_vectorized(self, s, k, n):
        a = RNG.integers(-128, 128, size=(s, k))
        b = RNG.integers(-128, 128, size=(k, n))
        vec = SystolicArray(s, max(n, 2)).run_pass(a, b)
        scalar = ScalarSystolicArray(s, max(n, 2)).run_pass(a, b)
        assert np.array_equal(vec.product, scalar.product)
        assert vec.compute_cycles == scalar.compute_cycles

    def test_scalar_saturation_matches(self):
        a = np.full((2, 50), 127, dtype=np.int64)
        b = np.full((50, 2), 127, dtype=np.int64)
        vec = SystolicArray(2, 2, acc_bits=16).run_pass(a, b)
        scalar = ScalarSystolicArray(2, 2, acc_bits=16).run_pass(a, b)
        assert np.array_equal(vec.product, scalar.product)
        assert vec.product[0, 0] == (1 << 15) - 1

    def test_scalar_size_limit(self):
        with pytest.raises(ShapeError):
            ScalarSystolicArray(128, 64)
