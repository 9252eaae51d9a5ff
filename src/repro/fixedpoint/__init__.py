"""Fixed-point arithmetic substrate for the accelerator datapath models.

Public API:

* :class:`QFormat` and the stock formats (:data:`INT8`, :data:`ACC32`,
  :data:`SOFTMAX_Q`, :data:`LAYERNORM_Q`).
* Rounding-shift, shift-add and leading-one primitives in
  :mod:`repro.fixedpoint.ops`.
* The multiplier-free :class:`ExpUnit` / :class:`LnUnit` (softmax module)
  and the :class:`InverseSqrtLUT` (LayerNorm module).
"""

from .exp_unit import ExpUnit
from .isqrt import InverseSqrtLUT
from .layernorm_datapath import FixedPointLayerNorm
from .ln_unit import LnUnit
from .ops import (
    LN2_TERMS,
    LOG2E_TERMS,
    leading_one_position,
    rounding_shift_right,
    shift_add_constant,
    shift_add_multiply,
)
from .types import ACC32, INT8, LAYERNORM_Q, SOFTMAX_Q, QFormat

__all__ = [
    "ACC32",
    "ExpUnit",
    "FixedPointLayerNorm",
    "INT8",
    "InverseSqrtLUT",
    "LAYERNORM_Q",
    "LN2_TERMS",
    "LOG2E_TERMS",
    "LnUnit",
    "QFormat",
    "SOFTMAX_Q",
    "leading_one_position",
    "rounding_shift_right",
    "shift_add_constant",
    "shift_add_multiply",
]
