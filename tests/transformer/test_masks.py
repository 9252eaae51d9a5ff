"""Mask construction tests (paper convention: 1 = illegal)."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.transformer import (
    causal_mask,
    combine_masks,
    padding_mask,
)


class TestCausalMask:
    def test_strictly_upper_triangular(self):
        m = causal_mask(4)
        assert m.dtype == bool
        assert not m[2, 2] and not m[2, 1]
        assert m[1, 2] and m[0, 3]

    def test_first_row_sees_only_itself(self):
        m = causal_mask(5)
        assert m[0].sum() == 4

    def test_last_row_sees_everything(self):
        m = causal_mask(5)
        assert m[4].sum() == 0

    def test_invalid_length(self):
        with pytest.raises(ShapeError):
            causal_mask(0)


class TestPaddingMask:
    def test_hides_positions_beyond_length(self):
        m = padding_mask([2, 4], seq_len=4)
        assert m.shape == (2, 4, 4)
        assert np.all(m[0, :, 2:])       # batch 0: cols 2,3 padded
        assert not m[0, :, :2].any()
        assert not m[1].any()            # batch 1: full length

    def test_num_queries_override(self):
        m = padding_mask([3], seq_len=5, num_queries=2)
        assert m.shape == (1, 2, 5)

    def test_zero_length_masks_everything(self):
        m = padding_mask([0], seq_len=3)
        assert m.all()

    def test_invalid_lengths(self):
        with pytest.raises(ShapeError):
            padding_mask([5], seq_len=4)
        with pytest.raises(ShapeError):
            padding_mask([-1], seq_len=4)

    def test_writable_result(self):
        m = padding_mask([2], seq_len=4)
        m[0, 0, 0] = True  # must not raise (not a broadcast view)


class TestCombine:
    def test_or_semantics(self):
        a = np.array([[True, False], [False, False]])
        b = np.array([[False, False], [False, True]])
        assert np.array_equal(
            combine_masks(a, b),
            np.array([[True, False], [False, True]]),
        )

    def test_none_inputs_skipped(self):
        a = np.array([True, False])
        assert np.array_equal(combine_masks(None, a, None), a)

    def test_all_none_gives_none(self):
        assert combine_masks(None, None) is None

    def test_broadcasting(self):
        causal = causal_mask(3)[None]
        pad = padding_mask([2], seq_len=3)
        out = combine_masks(causal, pad)
        assert out.shape == (1, 3, 3)
        assert out[0, 0, 2] and out[0, 1, 2]   # padded OR future
