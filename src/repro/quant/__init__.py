"""INT8 post-training quantization (paper Section V-A).

Two-step pipeline matching the paper: (1) quantize all ResBlock weight and
activation matrices to INT8 with FP32 softmax; (2) additionally replace the
softmax by the hardware EXP/LN-unit approximation.
"""

from .calibration import Calibrator
from .qbert import QuantizedEncoderOnly
from .qmodel import (
    QuantFFNResBlock,
    QuantMHAResBlock,
    QuantizedTransformer,
    SOFTMAX_FP32,
    SOFTMAX_HARDWARE,
)
from .qsoftmax import HardwareSoftmax
from .quantizer import (
    QuantParams,
    QuantizedTensor,
    int_gemm,
    symmetric_scale,
)
from .sensitivity import (
    SensitivityResult,
    compression_tolerance,
    full_vs_sum_of_parts,
    rank_by_sensitivity,
    surviving_blocks,
    tap_sensitivity,
)

__all__ = [
    "Calibrator",
    "HardwareSoftmax",
    "QuantFFNResBlock",
    "QuantMHAResBlock",
    "QuantParams",
    "QuantizedEncoderOnly",
    "QuantizedTensor",
    "QuantizedTransformer",
    "SOFTMAX_FP32",
    "SOFTMAX_HARDWARE",
    "SensitivityResult",
    "compression_tolerance",
    "full_vs_sum_of_parts",
    "int_gemm",
    "rank_by_sensitivity",
    "surviving_blocks",
    "symmetric_scale",
    "tap_sensitivity",
]
