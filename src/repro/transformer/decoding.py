"""Autoregressive greedy decoding.

Used by the synthetic-NMT evaluation to turn the (FP32 or quantized)
Transformer into translations whose BLEU we report, mirroring the paper's
IWSLT evaluation protocol ("tst2014", greedy decode, BLEU).

The decoder works with any model object exposing ``encode``/``decode``/
``generator`` plus ``build_masks`` — the golden :class:`Transformer` and
the quantized model both satisfy this protocol.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..errors import DecodingError


@dataclass(frozen=True)
class DecodeResult:
    """One decoded sequence with its accumulated log probability."""

    tokens: list[int]
    score: float


def greedy_decode(
    model,
    src_ids: np.ndarray,
    src_lengths: Sequence[int],
    bos_id: int,
    eos_id: int,
    max_len: int = 64,
) -> list[DecodeResult]:
    """Greedy (argmax) decoding of a batch.

    Args:
        model: Object with ``encode``/``decode``/``generator``/``build_masks``.
        src_ids: ``(batch, s)`` source token ids (padded).
        src_lengths: Valid length of each source row.
        bos_id / eos_id: Begin/end sentence ids.
        max_len: Maximum target length (excluding BOS).
    """
    if bos_id < 0 or eos_id < 0:
        raise DecodingError("bos/eos ids must be non-negative")
    src_ids = np.asarray(src_ids)
    batch, src_len = src_ids.shape
    src_lengths = np.asarray(src_lengths)
    enc_mask, _, _ = model.build_masks(src_lengths, 1, src_len)
    memory = model.encode(src_ids, enc_mask)

    tokens = np.full((batch, 1), bos_id, dtype=np.int64)
    scores = np.zeros(batch)
    finished = np.zeros(batch, dtype=bool)
    for _ in range(max_len):
        tgt_len = tokens.shape[1]
        _, dec_self, cross = model.build_masks(src_lengths, tgt_len, src_len)
        states = model.decode(tokens, memory, dec_self, cross)
        logits = model.generator(states).numpy()[:, -1, :]
        log_probs = logits - _log_sum_exp(logits)
        next_tokens = log_probs.argmax(axis=-1)
        step_scores = log_probs[np.arange(batch), next_tokens]
        next_tokens = np.where(finished, eos_id, next_tokens)
        scores += np.where(finished, 0.0, step_scores)
        tokens = np.concatenate([tokens, next_tokens[:, None]], axis=1)
        finished |= next_tokens == eos_id
        if finished.all():
            break

    results = []
    for row, score in zip(tokens, scores):
        out = []
        for token in row[1:]:
            if token == eos_id:
                break
            out.append(int(token))
        results.append(DecodeResult(tokens=out, score=float(score)))
    return results


def _log_sum_exp(logits: np.ndarray) -> np.ndarray:
    m = logits.max(axis=-1, keepdims=True)
    return m + np.log(np.exp(logits - m).sum(axis=-1, keepdims=True))
