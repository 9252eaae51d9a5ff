"""Bit-accurate integer operations used throughout the datapath models.

These helpers mirror what simple hardware blocks do: rounding shifts for
requantization, the shift-add constant multiplications the EXP/LN units
use instead of real multipliers, and the LN unit's leading-one detector.
All functions are vectorized over numpy int64 arrays.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Union

import numpy as np

from ..errors import FixedPointError

IntArray = Union[int, np.ndarray]


def _as_int64(value: IntArray) -> np.ndarray:
    arr = np.asarray(value)
    if not np.issubdtype(arr.dtype, np.integer):
        raise FixedPointError(
            f"integer op received non-integer dtype {arr.dtype}"
        )
    return arr.astype(np.int64)


def rounding_shift_right(value: IntArray, bits: int) -> np.ndarray:
    """Right shift with round-to-nearest (adds half an LSB before shifting).

    Used by requantization stages where plain truncation would introduce a
    systematic negative bias.
    """
    if bits < 0:
        raise FixedPointError("shift amount must be non-negative")
    if bits == 0:
        return _as_int64(value)
    arr = _as_int64(value)
    return (arr + (1 << (bits - 1))) >> bits


def shift_add_multiply(
    value: IntArray, terms: Sequence[tuple[int, int]]
) -> np.ndarray:
    """Multiply by a constant expressed as a sum of signed shifted copies.

    ``terms`` is a sequence of ``(sign, shift)`` pairs; the result is
    ``sum(sign * (value >> shift))`` evaluated with arithmetic shifts.  This
    is exactly the structure of the multiplier-free constant multipliers in
    the EXP/LN units (e.g. ``x * log2(e) ~= x + (x >> 1) - (x >> 4)``).

    Args:
        value: Integer codes to scale.
        terms: ``(sign, shift)`` pairs; sign must be +1 or -1, shift >= 0.
    """
    arr = _as_int64(value)
    if not terms:
        raise FixedPointError("shift_add_multiply needs at least one term")
    result = np.zeros_like(arr)
    for sign, shift in terms:
        if sign not in (1, -1):
            raise FixedPointError(f"term sign must be +1/-1, got {sign}")
        if shift < 0:
            raise FixedPointError("term shift must be non-negative")
        result = result + sign * (arr >> shift)
    return result


def shift_add_constant(terms: Sequence[tuple[int, int]]) -> float:
    """Real value of the constant realized by :func:`shift_add_multiply`."""
    return float(sum(sign * 2.0 ** -shift for sign, shift in terms))


#: x * log2(e): 1 + 1/2 - 1/16 = 1.4375 (log2(e) = 1.442695...).
LOG2E_TERMS: tuple[tuple[int, int], ...] = ((1, 0), (1, 1), (-1, 4))

#: x * ln(2): 1/2 + 1/8 + 1/16 = 0.6875 (ln 2 = 0.693147...).
LN2_TERMS: tuple[tuple[int, int], ...] = ((1, 1), (1, 3), (1, 4))


def leading_one_position(value: IntArray) -> np.ndarray:
    """Index of the most significant set bit of each positive value.

    Equivalent to ``floor(log2(value))``; the LN unit's leading-one
    detector.  Raises for non-positive inputs, which the hardware never
    produces (the softmax sum is always >= 1 in its Q-format).

    Implemented as a binary-search priority encoder on the integer codes
    (the same adder/shifter structure the RTL would synthesize), so the
    result is exact for every representable width — a float ``log2``
    would round wrongly for codes at and above ``2**53``.
    """
    arr = _as_int64(value)
    if np.any(arr <= 0):
        raise FixedPointError("leading_one_position requires positive inputs")
    pos = np.zeros_like(arr)
    rem = arr.copy()
    for step in (32, 16, 8, 4, 2, 1):
        high = rem >= (np.int64(1) << step)
        pos = np.where(high, pos + step, pos)
        rem = np.where(high, rem >> step, rem)
    return pos
