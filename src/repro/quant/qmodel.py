"""INT8 quantized Transformer (paper Section V-A).

:class:`QuantizedTransformer` wraps a *trained* FP32 :class:`Transformer`
and replaces the arithmetic of every MHA/FFN ResBlock with the integer
datapath of the accelerator:

* weights of the six Linear layers per encoder/decoder layer are quantized
  once to symmetric INT8;
* activations are quantized at the taps where the hardware stores them
  (ResBlock input, Q/K/V projections, softmax probabilities, attention
  context, FFN hidden) with scales frozen by a calibration pass;
* every GEMM runs as an integer matmul with wide accumulation followed by
  a single rescale — bit-equivalent to the systolic array;
* the softmax runs either in FP32 (the paper's quantization step one) or
  through the hardware EXP/LN units (step two) via
  :class:`~repro.quant.qsoftmax.HardwareSoftmax`.

Embeddings, positional encoding, LayerNorm, residual adds and the output
generator stay FP (the paper quantizes "the matrices in Fig. 3", i.e. the
ResBlocks; LayerNorm internals are implemented separately by the
LayerNorm module model in :mod:`repro.core`).
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Optional

import numpy as np

from ..config import ModelConfig
from ..errors import QuantizationError
from ..transformer.attention import MHAResBlock
from ..transformer.ffn import FFNResBlock
from ..transformer.functional import layer_norm, relu, scaled_masked_softmax
from ..transformer.model import Transformer
from ..transformer.tensor import Tensor
from .calibration import Calibrator
from .qsoftmax import HardwareSoftmax
from .quantizer import QuantParams, QuantizedTensor, int_gemm

#: Softmax execution modes.
SOFTMAX_FP32 = "fp32"
SOFTMAX_HARDWARE = "hardware"


class QuantMHAResBlock:
    """Integer-datapath version of one MHA ResBlock."""

    def __init__(
        self,
        fp_block: MHAResBlock,
        calibrator: Calibrator,
        tap_prefix: str,
        softmax_mode: str = SOFTMAX_FP32,
        bits: int = 8,
    ) -> None:
        self._fp = fp_block
        self._cal = calibrator
        self._prefix = tap_prefix
        self.softmax_mode = softmax_mode
        mha = fp_block.mha
        self.num_heads = mha.num_heads
        self.d_k = mha.d_k
        self.d_model = mha.d_model
        self.weights: dict[str, QuantizedTensor] = {
            "q": QuantizedTensor.quantize(mha.q_proj.weight.data, bits),
            "k": QuantizedTensor.quantize(mha.k_proj.weight.data, bits),
            "v": QuantizedTensor.quantize(mha.v_proj.weight.data, bits),
            "g": QuantizedTensor.quantize(mha.out_proj.weight.data, bits),
        }
        self.biases = {
            "q": mha.q_proj.bias.data,
            "k": mha.k_proj.bias.data,
            "v": mha.v_proj.bias.data,
            "g": mha.out_proj.bias.data,
        }
        self._hw_softmax = HardwareSoftmax(scale_divisor=float(self.d_k) ** 0.5)
        #: Softmax probabilities lie in [0, 1]; their scale is fixed.
        self._prob_params = QuantParams.from_amax(1.0, bits)

    def _tap(self, name: str) -> str:
        return f"{self._prefix}.{name}"

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        batch, seq, _ = x.shape
        return x.reshape(batch, seq, self.num_heads, self.d_k).transpose(0, 2, 1, 3)

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        batch, heads, seq, d_k = x.shape
        return x.transpose(0, 2, 1, 3).reshape(batch, seq, heads * d_k)

    def forward_calibrate(
        self,
        q_in: np.ndarray,
        kv_in: np.ndarray,
        mask: Optional[np.ndarray],
    ) -> np.ndarray:
        """FP forward that records activation ranges at every tap."""
        mha, cal = self._fp.mha, self._cal
        cal.observe(self._tap("in_q"), q_in)
        cal.observe(self._tap("in_kv"), kv_in)
        q = q_in @ mha.q_proj.weight.data + mha.q_proj.bias.data
        k = kv_in @ mha.k_proj.weight.data + mha.k_proj.bias.data
        v = kv_in @ mha.v_proj.weight.data + mha.v_proj.bias.data
        cal.observe(self._tap("q_act"), q)
        cal.observe(self._tap("k_act"), k)
        cal.observe(self._tap("v_act"), v)
        qh, kh, vh = map(self._split_heads, (q, k, v))
        logits = qh @ np.swapaxes(kh, -1, -2)
        head_mask = _expand_mask(mask, logits.shape)
        probs = scaled_masked_softmax(
            logits, head_mask, scale_divisor=float(self.d_k) ** 0.5
        )
        context = self._merge_heads(probs @ vh)
        cal.observe(self._tap("context"), context)
        out = context @ mha.out_proj.weight.data + mha.out_proj.bias.data
        g = q_in + out
        return layer_norm(
            g, self._fp.norm.gamma.data, self._fp.norm.beta.data,
            eps=self._fp.norm.eps,
        )

    def forward_int8(
        self,
        q_in: np.ndarray,
        kv_in: np.ndarray,
        mask: Optional[np.ndarray],
    ) -> np.ndarray:
        """Integer-datapath forward using frozen calibration scales."""
        cal = self._cal
        pq = cal.params(self._tap("in_q"))
        pkv = cal.params(self._tap("in_kv"))
        q = int_gemm(pq.quantize(q_in), self.weights["q"].codes,
                     pq, self.weights["q"].params, self.biases["q"])
        k = int_gemm(pkv.quantize(kv_in), self.weights["k"].codes,
                     pkv, self.weights["k"].params, self.biases["k"])
        v = int_gemm(pkv.quantize(kv_in), self.weights["v"].codes,
                     pkv, self.weights["v"].params, self.biases["v"])
        p_qa = cal.params(self._tap("q_act"))
        p_ka = cal.params(self._tap("k_act"))
        p_va = cal.params(self._tap("v_act"))
        qh = self._split_heads(p_qa.fake_quantize(q))
        kh = self._split_heads(p_ka.fake_quantize(k))
        vh = self._split_heads(p_va.fake_quantize(v))
        logits = qh @ np.swapaxes(kh, -1, -2)
        head_mask = _expand_mask(mask, logits.shape)
        if self.softmax_mode == SOFTMAX_HARDWARE:
            probs = self._hw_softmax(logits, head_mask)
        elif self.softmax_mode == SOFTMAX_FP32:
            probs = scaled_masked_softmax(
                logits, head_mask, scale_divisor=float(self.d_k) ** 0.5
            )
        else:
            raise QuantizationError(
                f"unknown softmax mode {self.softmax_mode!r}"
            )
        probs = self._prob_params.fake_quantize(probs)
        context = self._merge_heads(probs @ vh)
        p_ctx = cal.params(self._tap("context"))
        out = int_gemm(
            p_ctx.quantize(context), self.weights["g"].codes,
            p_ctx, self.weights["g"].params, self.biases["g"],
        )
        g = q_in + out
        return layer_norm(
            g, self._fp.norm.gamma.data, self._fp.norm.beta.data,
            eps=self._fp.norm.eps,
        )


class QuantFFNResBlock:
    """Integer-datapath version of one FFN ResBlock."""

    def __init__(
        self,
        fp_block: FFNResBlock,
        calibrator: Calibrator,
        tap_prefix: str,
        bits: int = 8,
    ) -> None:
        self._fp = fp_block
        self._cal = calibrator
        self._prefix = tap_prefix
        ffn = fp_block.ffn
        self.w1 = QuantizedTensor.quantize(ffn.linear1.weight.data, bits)
        self.w2 = QuantizedTensor.quantize(ffn.linear2.weight.data, bits)
        self.b1 = ffn.linear1.bias.data
        self.b2 = ffn.linear2.bias.data

    def _tap(self, name: str) -> str:
        return f"{self._prefix}.{name}"

    def forward_calibrate(self, x: np.ndarray) -> np.ndarray:
        ffn, cal = self._fp.ffn, self._cal
        cal.observe(self._tap("in"), x)
        hidden = relu(x @ ffn.linear1.weight.data + ffn.linear1.bias.data)
        cal.observe(self._tap("hidden"), hidden)
        out = hidden @ ffn.linear2.weight.data + ffn.linear2.bias.data
        return layer_norm(
            x + out, self._fp.norm.gamma.data, self._fp.norm.beta.data,
            eps=self._fp.norm.eps,
        )

    def forward_int8(self, x: np.ndarray) -> np.ndarray:
        cal = self._cal
        p_in = cal.params(self._tap("in"))
        hidden = relu(
            int_gemm(p_in.quantize(x), self.w1.codes, p_in, self.w1.params,
                     self.b1)
        )
        p_hidden = cal.params(self._tap("hidden"))
        out = int_gemm(
            p_hidden.quantize(hidden), self.w2.codes, p_hidden,
            self.w2.params, self.b2,
        )
        return layer_norm(
            x + out, self._fp.norm.gamma.data, self._fp.norm.beta.data,
            eps=self._fp.norm.eps,
        )


def _expand_mask(
    mask: Optional[np.ndarray], logits_shape: tuple[int, ...]
) -> Optional[np.ndarray]:
    """Broadcast a (batch, s_q, s_v) mask over the head axis."""
    if mask is None:
        return None
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim == len(logits_shape) - 1:
        mask = mask[:, None, :, :]
    return np.broadcast_to(mask, logits_shape)


class QuantizedTransformer:
    """INT8 inference model wrapping a trained FP32 :class:`Transformer`.

    Usage::

        qt = QuantizedTransformer(model)
        qt.calibrate(batches)          # FP pass recording ranges
        qt.softmax_mode = "hardware"   # optional: the paper's step two
        logits = qt.forward(src, tgt)  # integer-datapath inference

    Implements the ``encode/decode/generator/build_masks`` protocol, so the
    greedy decoder accepts it interchangeably with the FP model.
    """

    def __init__(
        self, model: Transformer, softmax_mode: str = SOFTMAX_FP32,
        bits: int = 8,
    ) -> None:
        self._model = model
        self.config: ModelConfig = model.config
        self.calibrator = Calibrator(bits=bits)
        self.bits = bits
        self._softmax_mode = softmax_mode
        self._calibrating = False
        self.enc_mha = []
        self.enc_ffn = []
        for i, layer in enumerate(model.encoder.layers):
            self.enc_mha.append(QuantMHAResBlock(
                layer.self_attn, self.calibrator, f"enc{i}.self",
                softmax_mode, bits,
            ))
            self.enc_ffn.append(QuantFFNResBlock(
                layer.ffn, self.calibrator, f"enc{i}.ffn", bits,
            ))
        self.dec_self = []
        self.dec_cross = []
        self.dec_ffn = []
        for i, layer in enumerate(model.decoder.layers):
            self.dec_self.append(QuantMHAResBlock(
                layer.self_attn, self.calibrator, f"dec{i}.self",
                softmax_mode, bits,
            ))
            self.dec_cross.append(QuantMHAResBlock(
                layer.cross_attn, self.calibrator, f"dec{i}.cross",
                softmax_mode, bits,
            ))
            self.dec_ffn.append(QuantFFNResBlock(
                layer.ffn, self.calibrator, f"dec{i}.ffn", bits,
            ))

    # ------------------------------------------------------------------
    @property
    def softmax_mode(self) -> str:
        return self._softmax_mode

    @softmax_mode.setter
    def softmax_mode(self, mode: str) -> None:
        if mode not in (SOFTMAX_FP32, SOFTMAX_HARDWARE):
            raise QuantizationError(f"unknown softmax mode {mode!r}")
        self._softmax_mode = mode
        for block in self.enc_mha + self.dec_self + self.dec_cross:
            block.softmax_mode = mode

    # ------------------------------------------------------------------
    def build_masks(self, *args, **kwargs):
        return self._model.build_masks(*args, **kwargs)

    def generator(self, states: Tensor) -> Tensor:
        return self._model.generator(states)

    def _embed_src(self, src_ids: np.ndarray) -> np.ndarray:
        self._model.eval()
        return self._model.positional(self._model.src_embed(src_ids)).numpy()

    def _embed_tgt(self, tgt_ids: np.ndarray) -> np.ndarray:
        self._model.eval()
        return self._model.positional(self._model.tgt_embed(tgt_ids)).numpy()

    def encode(
        self, src_ids: np.ndarray, src_mask: Optional[np.ndarray] = None
    ) -> Tensor:
        x = self._embed_src(np.asarray(src_ids))
        for mha, ffn in zip(self.enc_mha, self.enc_ffn):
            if self._calibrating:
                x = mha.forward_calibrate(x, x, src_mask)
                x = ffn.forward_calibrate(x)
            else:
                x = mha.forward_int8(x, x, src_mask)
                x = ffn.forward_int8(x)
        return Tensor(x)

    def decode(
        self,
        tgt_ids: np.ndarray,
        memory: Tensor,
        self_mask: Optional[np.ndarray] = None,
        cross_mask: Optional[np.ndarray] = None,
    ) -> Tensor:
        y = self._embed_tgt(np.asarray(tgt_ids))
        mem = memory.numpy() if isinstance(memory, Tensor) else memory
        blocks = zip(self.dec_self, self.dec_cross, self.dec_ffn)
        for self_blk, cross_blk, ffn_blk in blocks:
            if self._calibrating:
                y = self_blk.forward_calibrate(y, y, self_mask)
                y = cross_blk.forward_calibrate(y, mem, cross_mask)
                y = ffn_blk.forward_calibrate(y)
            else:
                y = self_blk.forward_int8(y, y, self_mask)
                y = cross_blk.forward_int8(y, mem, cross_mask)
                y = ffn_blk.forward_int8(y)
        return Tensor(y)

    def forward(
        self,
        src_ids: np.ndarray,
        tgt_ids: np.ndarray,
        src_lengths: Optional[np.ndarray] = None,
    ) -> Tensor:
        src_ids = np.asarray(src_ids)
        tgt_ids = np.asarray(tgt_ids)
        if src_lengths is None:
            src_lengths = np.full(src_ids.shape[0], src_ids.shape[1])
        enc_mask, dec_self, cross = self._model.build_masks(
            np.asarray(src_lengths), tgt_ids.shape[1], src_ids.shape[1]
        )
        memory = self.encode(src_ids, enc_mask)
        states = self.decode(tgt_ids, memory, dec_self, cross)
        return self.generator(states)

    # ------------------------------------------------------------------
    def calibrate(self, batches: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> None:
        """Run FP forward passes over ``(src, tgt, src_lengths)`` batches,
        recording every activation range, then freeze the calibrator."""
        self._calibrating = True
        try:
            count = 0
            for src_ids, tgt_ids, src_lengths in batches:
                self.forward(src_ids, tgt_ids, src_lengths)
                count += 1
            if count == 0:
                raise QuantizationError("calibrate() received no batches")
        finally:
            self._calibrating = False
        self.calibrator.freeze()

    def weight_memory_bytes(self) -> int:
        """Total INT8 weight bytes across all quantized ResBlocks."""
        total = 0
        for block in self.enc_mha + self.dec_self + self.dec_cross:
            total += sum(w.codes.size for w in block.weights.values())
        for block in self.enc_ffn + self.dec_ffn:
            total += block.w1.codes.size + block.w2.codes.size
        return total
