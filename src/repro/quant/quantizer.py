"""Symmetric INT8 quantization primitives (paper Section V-A, ref. [2]).

The paper follows Bhandare et al.: replace FP32 with INT8 for all weight
and activation matrices of the two ResBlocks.  We implement symmetric
per-tensor quantization — ``code = clamp(round(x / scale))`` with
``scale = amax / 127`` — because that is what the integer datapath of the
accelerator computes natively: an INT8xINT8 GEMM accumulated in INT32 then
rescaled by ``scale_x * scale_w``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import QuantizationError


def symmetric_scale(amax: float, bits: int = 8) -> float:
    """Scale mapping ``[-amax, amax]`` onto the signed ``bits``-bit grid."""
    if amax < 0:
        raise QuantizationError("amax must be non-negative")
    if bits < 2:
        raise QuantizationError("need at least 2 bits for signed codes")
    qmax = (1 << (bits - 1)) - 1
    if amax == 0.0:
        # Degenerate all-zero tensor; any positive scale works.
        return 1.0 / qmax
    return amax / qmax


@dataclass(frozen=True)
class QuantParams:
    """Per-tensor symmetric quantization parameters.

    Attributes:
        scale: Real value of one integer step.
        bits: Signed word width (8 for the paper's INT8 datapath).
    """

    scale: float
    bits: int = 8

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise QuantizationError("scale must be positive")
        if self.bits < 2:
            raise QuantizationError("bits must be >= 2")

    @property
    def qmax(self) -> int:
        return (1 << (self.bits - 1)) - 1

    @property
    def qmin(self) -> int:
        return -(1 << (self.bits - 1))

    @classmethod
    def from_amax(cls, amax: float, bits: int = 8) -> QuantParams:
        """Build parameters covering ``[-amax, amax]``."""
        return cls(scale=symmetric_scale(amax, bits), bits=bits)

    @classmethod
    def from_tensor(cls, tensor: np.ndarray, bits: int = 8) -> QuantParams:
        """Build parameters from a tensor's absolute maximum."""
        return cls.from_amax(float(np.abs(tensor).max(initial=0.0)), bits)

    def quantize(self, tensor: np.ndarray) -> np.ndarray:
        """Real values -> integer codes (round-half-away, saturate)."""
        arr = np.asarray(tensor, dtype=np.float64) / self.scale
        codes = np.where(arr >= 0, np.floor(arr + 0.5), np.ceil(arr - 0.5))
        return np.clip(codes, self.qmin, self.qmax).astype(np.int64)

    def dequantize(self, codes: np.ndarray) -> np.ndarray:
        """Integer codes -> real values."""
        return np.asarray(codes, dtype=np.float64) * self.scale

    def fake_quantize(self, tensor: np.ndarray) -> np.ndarray:
        """Round-trip through the integer grid (quantize then dequantize)."""
        return self.dequantize(self.quantize(tensor))


@dataclass(frozen=True)
class QuantizedTensor:
    """An integer-code tensor together with its quantization parameters."""

    codes: np.ndarray
    params: QuantParams

    @classmethod
    def quantize(cls, tensor: np.ndarray, bits: int = 8) -> QuantizedTensor:
        params = QuantParams.from_tensor(tensor, bits)
        return cls(codes=params.quantize(tensor), params=params)

    def dequantize(self) -> np.ndarray:
        return self.params.dequantize(self.codes)

    @property
    def shape(self):
        return self.codes.shape


def int_gemm(
    x_codes: np.ndarray,
    w_codes: np.ndarray,
    x_params: QuantParams,
    w_params: QuantParams,
    bias: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Integer GEMM with INT32-style accumulation, dequantized to FP.

    This is exactly the arithmetic the systolic array performs:
    ``y = (x_q @ w_q) * (s_x * s_w) + bias``.  Codes are held in int64 (a
    64-wide accumulator never overflows for the sizes involved; the RTL
    uses 32 bits, which the tests show is already overflow-free for
    d_ff <= 4096 at INT8).
    """
    x_codes = np.asarray(x_codes, dtype=np.int64)
    w_codes = np.asarray(w_codes, dtype=np.int64)
    if x_codes.shape[-1] != w_codes.shape[0]:
        raise QuantizationError(
            f"GEMM inner dims mismatch: {x_codes.shape} @ {w_codes.shape}"
        )
    acc = x_codes @ w_codes
    out = acc.astype(np.float64) * (x_params.scale * w_params.scale)
    if bias is not None:
        out = out + bias
    return out
