"""Symmetric INT8 quantizer tests."""

import numpy as np
import pytest

from repro.errors import QuantizationError
from repro.quant import (
    QuantParams,
    QuantizedTensor,
    int_gemm,
    symmetric_scale,
)

RNG = np.random.default_rng(17)


class TestScale:
    def test_basic_scale(self):
        assert symmetric_scale(127.0) == 1.0
        assert symmetric_scale(12.7) == pytest.approx(0.1)

    def test_zero_amax_degenerate(self):
        assert symmetric_scale(0.0) > 0

    def test_negative_amax_rejected(self):
        with pytest.raises(QuantizationError):
            symmetric_scale(-1.0)

    def test_bits_parameter(self):
        assert symmetric_scale(7.0, bits=4) == 1.0


class TestQuantParams:
    def test_from_tensor_covers_range(self):
        x = RNG.normal(size=100) * 5
        params = QuantParams.from_tensor(x)
        codes = params.quantize(x)
        assert codes.max() <= 127 and codes.min() >= -128
        assert np.abs(codes).max() == 127  # extremal value uses full range

    def test_roundtrip_error_half_scale(self):
        x = RNG.normal(size=1000)
        params = QuantParams.from_tensor(x)
        err = np.abs(params.fake_quantize(x) - x)
        assert err.max() <= params.scale / 2 + 1e-12

    def test_saturation(self):
        params = QuantParams(scale=1.0)
        assert params.quantize(np.array([500.0]))[0] == 127
        assert params.quantize(np.array([-500.0]))[0] == -128

    def test_invalid_scale_rejected(self):
        with pytest.raises(QuantizationError):
            QuantParams(scale=0.0)

    def test_qmax_qmin(self):
        p = QuantParams(scale=1.0, bits=4)
        assert p.qmax == 7 and p.qmin == -8

    def test_rounding_symmetric(self):
        p = QuantParams(scale=1.0)
        assert p.quantize(np.array([0.5]))[0] == 1
        assert p.quantize(np.array([-0.5]))[0] == -1


class TestQuantizedTensor:
    def test_roundtrip(self):
        x = RNG.normal(size=(4, 5))
        qt = QuantizedTensor.quantize(x)
        assert qt.shape == (4, 5)
        assert np.abs(qt.dequantize() - x).max() <= qt.params.scale / 2 + 1e-12

class TestIntGemm:
    def test_equals_fake_quant_fp_gemm(self):
        # The integer datapath must equal FP math on fake-quantized values
        # (this is the identity the accelerator correctness rests on).
        x = RNG.normal(size=(6, 8))
        w = RNG.normal(size=(8, 4))
        px = QuantParams.from_tensor(x)
        pw = QuantParams.from_tensor(w)
        got = int_gemm(px.quantize(x), pw.quantize(w), px, pw)
        expected = px.fake_quantize(x) @ pw.fake_quantize(w)
        assert np.allclose(got, expected, atol=1e-12)

    def test_bias_added(self):
        x = np.ones((2, 3))
        w = np.ones((3, 2))
        px = QuantParams.from_tensor(x)
        pw = QuantParams.from_tensor(w)
        bias = np.array([10.0, -10.0])
        out = int_gemm(px.quantize(x), pw.quantize(w), px, pw, bias)
        assert np.allclose(out, np.array([[13.0, -7.0], [13.0, -7.0]]),
                           atol=0.1)

    def test_shape_mismatch_rejected(self):
        px = QuantParams(scale=1.0)
        with pytest.raises(QuantizationError):
            int_gemm(np.zeros((2, 3), dtype=np.int64),
                     np.zeros((4, 2), dtype=np.int64), px, px)

    def test_int8_accumulation_no_overflow_at_dff(self):
        # Worst case: 4096-deep reduction of +-127 * +-127 products fits
        # easily in the modelled accumulator (and in the RTL's 26+ bits).
        k = 4096
        x = np.full((1, k), 127, dtype=np.int64)
        w = np.full((k, 1), 127, dtype=np.int64)
        px = QuantParams(scale=1.0)
        out = int_gemm(x, w, px, px)
        assert out[0, 0] == 127 * 127 * k
