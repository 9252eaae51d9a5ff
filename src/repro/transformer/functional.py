"""Pure-numpy reference (golden) implementations of the paper's math.

These functions operate on plain float64 arrays with no autograd and serve
as the ground truth that both the autograd layers and the hardware
simulator are tested against:

* :func:`softmax` / :func:`scaled_masked_softmax` — Eq. (4).
* :func:`log_sum_exp_softmax` — the Eq. (5) reformulation the hardware uses.
* :func:`layer_norm` — Eq. (6)-(8).
* :func:`layer_norm_two_pass` / :func:`layer_norm_one_pass` — the Fig. 7
  variance computations (``E[(x-mu)^2]`` vs ``E[x^2]-E[x]^2``).
* :func:`attention` — Eq. (1).
* :func:`ffn` — Eq. (2).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ShapeError

#: The epsilon of the paper's LayerNorm (Eq. 6).
LAYERNORM_EPS = 1e-8

#: Scaling divisor 1/sqrt(d_k) with d_k = 64 -> divide by 8 (a >>3 shift).
ATTENTION_SCALE_DIVISOR = 8.0


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(x, 0.0)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=axis, keepdims=True)


def scaled_masked_softmax(
    logits: np.ndarray,
    mask: Optional[np.ndarray] = None,
    scale_divisor: float = ATTENTION_SCALE_DIVISOR,
) -> np.ndarray:
    """The paper's Eq. (4): scale by 1/8, mask, then row softmax.

    Args:
        logits: ``(..., s, s)`` attention logits ``Q K^T``.
        mask: Optional boolean/0-1 array broadcastable to ``logits``;
            positions where ``mask == 1`` are illegal and produce 0.
        scale_divisor: ``sqrt(d_k)``; 8 for d_k = 64.
    """
    scaled = logits / scale_divisor
    if mask is None:
        return softmax(scaled, axis=-1)
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), scaled.shape)
    # Fully masked rows would make the stable softmax compute -inf - -inf;
    # the paper's hardware never generates such rows, but the reference
    # stays defined: they produce all zeros.
    row_all_masked = mask.all(axis=-1, keepdims=True)
    scaled = np.where(mask & ~row_all_masked, -np.inf, scaled)
    out = softmax(scaled, axis=-1)
    return np.where(mask | row_all_masked, 0.0, out)


def log_sum_exp_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax via the log-sum-exp trick (Eq. 5) — division free.

    ``softmax(x)_i = exp(x_i - x_max - ln(sum_j exp(x_j - x_max)))``.
    Numerically identical to :func:`softmax`; it exists so tests can verify
    the algebraic identity the hardware relies on.
    """
    x_max = x.max(axis=axis, keepdims=True)
    shifted = x - x_max
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    return np.exp(shifted - log_z)


def layer_norm(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float = LAYERNORM_EPS,
) -> np.ndarray:
    """Layer normalization over the last axis (Eq. 6)."""
    x = np.asarray(x, dtype=np.float64)
    if gamma.shape[-1] != x.shape[-1] or beta.shape[-1] != x.shape[-1]:
        raise ShapeError(
            f"gamma/beta width {gamma.shape[-1]}/{beta.shape[-1]} does not "
            f"match feature width {x.shape[-1]}"
        )
    mean = x.mean(axis=-1, keepdims=True)
    var = layer_norm_two_pass(x)
    return (x - mean) / np.sqrt(var + eps) * gamma + beta


def layer_norm_two_pass(x: np.ndarray) -> np.ndarray:
    """Variance as ``E[(x - mu)^2]`` — Fig. 7's straightforward schedule."""
    mean = x.mean(axis=-1, keepdims=True)
    return ((x - mean) ** 2).mean(axis=-1, keepdims=True)


def layer_norm_one_pass(x: np.ndarray) -> np.ndarray:
    """Variance as ``E[x^2] - E[x]^2`` — Fig. 7's step-two schedule (Eq. 9).

    Algebraically equal to :func:`layer_norm_two_pass`; computable in a
    single streaming pass with two accumulators, which is what lets the
    LayerNorm module start before the G matrix is finished.
    """
    mean = x.mean(axis=-1, keepdims=True)
    mean_sq = (x ** 2).mean(axis=-1, keepdims=True)
    # Clamp tiny negative values from floating-point cancellation.
    return np.maximum(mean_sq - mean ** 2, 0.0)


def attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Scaled dot-product attention, Eq. (1), for one head.

    Args:
        q: ``(..., s_q, d_k)`` queries.
        k: ``(..., s_v, d_k)`` keys.
        v: ``(..., s_v, d_k)`` values.
        mask: Optional illegal-connection mask ``(..., s_q, s_v)``.
    """
    d_k = q.shape[-1]
    logits = q @ np.swapaxes(k, -1, -2)
    weights = scaled_masked_softmax(logits, mask, scale_divisor=np.sqrt(d_k))
    return weights @ v


def ffn(
    x: np.ndarray,
    w1: np.ndarray,
    b1: np.ndarray,
    w2: np.ndarray,
    b2: np.ndarray,
) -> np.ndarray:
    """Position-wise feed-forward network, Eq. (2): ReLU(xW1+b1)W2+b2."""
    return relu(x @ w1 + b1) @ w2 + b2
