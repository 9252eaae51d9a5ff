"""Attention masks.

The paper's Mask operation (Eq. 1/4) marks *illegal* connections with 1;
legal positions carry 0.  These helpers build the standard Transformer
masks in that convention:

* :func:`padding_mask` — hide PAD key positions.
* :func:`causal_mask` — hide future positions in the decoder self-attention.
* :func:`combine_masks` — logical OR of any number of masks.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Optional

import numpy as np

from ..errors import ShapeError


def padding_mask(
    lengths: Sequence[int], seq_len: int, num_queries: Optional[int] = None
) -> np.ndarray:
    """Mask of shape ``(batch, num_queries, seq_len)`` hiding padded keys.

    Args:
        lengths: Valid (unpadded) length of each sequence in the batch.
        seq_len: Padded sequence length ``s``.
        num_queries: Rows of the mask; defaults to ``seq_len``.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if np.any(lengths < 0) or np.any(lengths > seq_len):
        raise ShapeError(
            f"lengths must lie in [0, {seq_len}], got {lengths.tolist()}"
        )
    num_queries = seq_len if num_queries is None else num_queries
    positions = np.arange(seq_len)
    key_illegal = positions[None, :] >= lengths[:, None]   # (batch, s)
    return np.broadcast_to(
        key_illegal[:, None, :], (len(lengths), num_queries, seq_len)
    ).copy()


def causal_mask(seq_len: int) -> np.ndarray:
    """Upper-triangular mask of shape ``(seq_len, seq_len)``.

    Entry ``(i, j)`` is 1 (illegal) when ``j > i`` so a query may only
    attend to itself and earlier positions.
    """
    if seq_len <= 0:
        raise ShapeError("seq_len must be positive")
    return np.triu(np.ones((seq_len, seq_len), dtype=bool), k=1)


def combine_masks(*masks: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """OR together masks (broadcasting); ``None`` inputs are skipped."""
    present = [np.asarray(m, dtype=bool) for m in masks if m is not None]
    if not present:
        return None
    combined = present[0]
    for mask in present[1:]:
        combined = combined | mask
    return combined
