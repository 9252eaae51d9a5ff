"""Property-based tests (hypothesis) for the fixed-point substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fixedpoint import (
    ExpUnit,
    InverseSqrtLUT,
    LnUnit,
    QFormat,
    rounding_shift_right,
)

formats = st.builds(
    QFormat,
    int_bits=st.integers(min_value=2, max_value=16),
    frac_bits=st.integers(min_value=0, max_value=16),
)


class TestQFormatProperties:
    @given(fmt=formats, value=st.floats(-1000, 1000))
    def test_quantize_always_in_range(self, fmt, value):
        code = fmt.quantize(value)
        assert fmt.min_code <= code <= fmt.max_code

    @given(fmt=formats, value=st.floats(-1000, 1000))
    def test_roundtrip_error_bounded(self, fmt, value):
        clipped = min(max(value, fmt.min_value), fmt.max_value)
        back = fmt.dequantize(fmt.quantize(clipped))
        assert abs(back - clipped) <= fmt.scale / 2 + 1e-9

    @given(fmt=formats, codes=st.lists(
        st.integers(-10**6, 10**6), min_size=1, max_size=20))
    def test_saturate_idempotent(self, fmt, codes):
        once = fmt.saturate(np.array(codes))
        twice = fmt.saturate(once)
        assert np.array_equal(once, twice)

    @given(fmt=formats, codes=st.lists(
        st.integers(-10**6, 10**6), min_size=1, max_size=20))
    def test_wrap_stays_in_range(self, fmt, codes):
        wrapped = fmt.wraps(np.array(codes))
        assert wrapped.min() >= fmt.min_code
        assert wrapped.max() <= fmt.max_code


class TestOpsProperties:
    @given(value=st.integers(-2**40, 2**40),
           bits=st.integers(0, 20))
    def test_rounding_shift_close_to_division(self, value, bits):
        out = rounding_shift_right(np.array([value]), bits)[0]
        assert abs(out - value / 2 ** bits) <= 0.5 + 1e-9


class TestUnitProperties:
    @settings(max_examples=50)
    @given(x=st.floats(-6.0, 0.0))
    def test_exp_unit_bounded_error(self, x):
        unit = ExpUnit()
        approx = unit.evaluate(np.array([x]))[0]
        exact = np.exp(x)
        assert abs(approx - exact) <= 0.09 * exact + unit.out_fmt.scale

    @settings(max_examples=50)
    @given(x=st.floats(0.25, 400.0))
    def test_ln_unit_bounded_error(self, x):
        unit = LnUnit()
        approx = unit.evaluate(np.array([x]))[0]
        assert abs(approx - np.log(x)) <= 0.16

    @settings(max_examples=50)
    @given(x=st.floats(0.05, 1000.0))
    def test_isqrt_bounded_error(self, x):
        unit = InverseSqrtLUT()
        approx = unit.evaluate(np.array([x]))[0]
        exact = x ** -0.5
        assert abs(approx - exact) <= 0.01 * exact + unit.out_fmt.scale
