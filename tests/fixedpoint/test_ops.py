"""Unit tests for bit-level integer operations."""

import numpy as np
import pytest

from repro.errors import FixedPointError
from repro.fixedpoint import (
    LN2_TERMS,
    LOG2E_TERMS,
    leading_one_position,
    rounding_shift_right,
    shift_add_constant,
    shift_add_multiply,
)


class TestShifts:
    def test_rejects_float_input(self):
        with pytest.raises(FixedPointError):
            rounding_shift_right(np.array([1.5]), 1)

    def test_shift_by_zero_identity(self):
        assert rounding_shift_right(np.array([42]), 0)[0] == 42

    def test_rounding_shift_right(self):
        assert rounding_shift_right(np.array([5]), 1)[0] == 3   # 2.5 -> 3
        assert rounding_shift_right(np.array([4]), 1)[0] == 2

    def test_rounding_shift_no_bias(self):
        values = np.arange(-64, 65)
        out = rounding_shift_right(values, 3)
        # Mean error should be near zero (unbiased), unlike floor shift.
        err = out - values / 8.0
        assert abs(err.mean()) < 0.1

    def test_negative_shift_rejected(self):
        with pytest.raises(FixedPointError):
            rounding_shift_right(np.array([1]), -1)


class TestShiftAddMultiply:
    def test_log2e_constant_value(self):
        assert shift_add_constant(LOG2E_TERMS) == pytest.approx(1.4375)
        assert abs(shift_add_constant(LOG2E_TERMS) - np.log2(np.e)) < 0.006

    def test_ln2_constant_value(self):
        assert shift_add_constant(LN2_TERMS) == pytest.approx(0.6875)
        assert abs(shift_add_constant(LN2_TERMS) - np.log(2)) < 0.006

    def test_multiply_matches_constant_for_large_values(self):
        values = np.array([1 << 20, -(1 << 20)])
        out = shift_add_multiply(values, LOG2E_TERMS)
        expected = values * shift_add_constant(LOG2E_TERMS)
        assert np.abs(out - expected).max() <= len(LOG2E_TERMS)

    def test_identity_term(self):
        values = np.array([17, -9])
        assert shift_add_multiply(values, [(1, 0)]).tolist() == [17, -9]

    def test_empty_terms_rejected(self):
        with pytest.raises(FixedPointError):
            shift_add_multiply(np.array([1]), [])

    def test_bad_sign_rejected(self):
        with pytest.raises(FixedPointError):
            shift_add_multiply(np.array([1]), [(2, 0)])


class TestLeadingOne:
    def test_powers_of_two(self):
        values = np.array([1, 2, 4, 1024])
        assert leading_one_position(values).tolist() == [0, 1, 2, 10]

    def test_non_powers(self):
        assert leading_one_position(np.array([3]))[0] == 1
        assert leading_one_position(np.array([1023]))[0] == 9

    def test_matches_floor_log2(self):
        values = np.arange(1, 5000)
        assert np.array_equal(
            leading_one_position(values),
            np.floor(np.log2(values)).astype(np.int64),
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(FixedPointError):
            leading_one_position(np.array([0]))

    def test_exact_beyond_float53(self):
        # Regression: the float-log2 implementation returned the wrong
        # MSB for codes >= 2**53 (all-ones values round up to the next
        # power of two in float64).  The priority encoder must be exact
        # over the full int64 positive range.
        values = np.array([
            (1 << 53) - 1, 1 << 53, (1 << 54) - 1, (1 << 61) - 1, 1 << 62,
        ])
        assert leading_one_position(values).tolist() == [52, 53, 53, 60, 62]
