"""Deployment images: a compiled, standalone accelerator artifact.

Real accelerator toolchains compile a model once into a binary image
(weight tiles, scales, bias vectors, normalization parameters) that the
device loads without any framework present.  This module provides that
artifact for the simulated accelerator:

* :func:`export_image` — serialize every ResBlock of a calibrated
  :class:`~repro.quant.qmodel.QuantizedTransformer` (or encoder-only
  model) into one flat ``{name: ndarray}`` dict, ready for ``np.savez``;
* :func:`save_image` / :func:`load_image` — the .npz round trip;
* :class:`ImageMHABlock` / :class:`ImageFFNBlock` — lightweight block
  views over a loaded image that expose exactly the interface
  :class:`~repro.core.accelerator.TransformerAccelerator` consumes, so a
  deployed image runs on the accelerator **bit-identically** to the
  original quantized model (tested) with no Transformer object in sight.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from ..errors import QuantizationError
from ..quant.qsoftmax import HardwareSoftmax
from ..quant.quantizer import QuantParams, QuantizedTensor

PathLike = Union[str, Path]

#: Image format version (stored in the archive for forward compatibility).
IMAGE_VERSION = 1

_MHA_KINDS = ("q", "k", "v", "g")
_MHA_TAPS = ("in_q", "in_kv", "q_act", "k_act", "v_act", "context")
_FFN_TAPS = ("in", "hidden")


class _ImageCalibrator:
    """Minimal calibrator view over stored scales."""

    def __init__(self, scales: dict[str, float]) -> None:
        self._scales = scales
        self.frozen = True

    def params(self, tap: str) -> QuantParams:
        if tap not in self._scales:
            raise QuantizationError(f"tap {tap!r} not in image")
        return QuantParams(scale=float(self._scales[tap]))


class _ImageNormParams:
    """gamma/beta carrier mimicking a LayerNorm layer."""

    class _P:
        def __init__(self, data: np.ndarray) -> None:
            self.data = data

    def __init__(self, gamma: np.ndarray, beta: np.ndarray,
                 eps: float = 1e-8) -> None:
        self.gamma = self._P(gamma)
        self.beta = self._P(beta)
        self.eps = eps


class _ImageFP:
    def __init__(self, norm: _ImageNormParams) -> None:
        self.norm = norm


class ImageMHABlock:
    """An MHA ResBlock reconstructed from a deployment image.

    Structurally compatible with
    :class:`~repro.quant.qmodel.QuantMHAResBlock` as far as the
    accelerator's ``load_mha``/``run_mha`` are concerned.
    """

    def __init__(self, prefix: str, data: dict[str, np.ndarray]) -> None:
        self._prefix = prefix
        self.d_model = int(data[f"{prefix}.d_model"])
        self.num_heads = int(data[f"{prefix}.num_heads"])
        self.d_k = self.d_model // self.num_heads
        self.weights = {}
        self.biases = {}
        for kind in _MHA_KINDS:
            codes = data[f"{prefix}.w_{kind}"]
            scale = float(data[f"{prefix}.w_{kind}_scale"])
            self.weights[kind] = QuantizedTensor(
                codes=codes.astype(np.int64),
                params=QuantParams(scale=scale),
            )
            self.biases[kind] = data[f"{prefix}.b_{kind}"]
        scales = {
            tap: float(data[f"{prefix}.tap.{tap}"]) for tap in _MHA_TAPS
        }
        self._cal = _ImageCalibrator(scales)
        self._fp = _ImageFP(_ImageNormParams(
            data[f"{prefix}.ln_gamma"], data[f"{prefix}.ln_beta"],
        ))
        self._prob_params = QuantParams.from_amax(1.0)
        self._hw_softmax = HardwareSoftmax(
            scale_divisor=float(self.d_k) ** 0.5
        )

    def _tap(self, name: str) -> str:
        return name


class ImageFFNBlock:
    """An FFN ResBlock reconstructed from a deployment image."""

    def __init__(self, prefix: str, data: dict[str, np.ndarray]) -> None:
        self._prefix = prefix
        self.w1 = QuantizedTensor(
            codes=data[f"{prefix}.w1"].astype(np.int64),
            params=QuantParams(scale=float(data[f"{prefix}.w1_scale"])),
        )
        self.w2 = QuantizedTensor(
            codes=data[f"{prefix}.w2"].astype(np.int64),
            params=QuantParams(scale=float(data[f"{prefix}.w2_scale"])),
        )
        self.b1 = data[f"{prefix}.b1"]
        self.b2 = data[f"{prefix}.b2"]
        scales = {
            tap: float(data[f"{prefix}.tap.{tap}"]) for tap in _FFN_TAPS
        }
        self._cal = _ImageCalibrator(scales)
        self._fp = _ImageFP(_ImageNormParams(
            data[f"{prefix}.ln_gamma"], data[f"{prefix}.ln_beta"],
        ))

    def _tap(self, name: str) -> str:
        return name


def _export_mha(block, prefix: str, out: dict[str, np.ndarray]) -> None:
    out[f"{prefix}.d_model"] = np.int64(block.d_model)
    out[f"{prefix}.num_heads"] = np.int64(block.num_heads)
    for kind in _MHA_KINDS:
        out[f"{prefix}.w_{kind}"] = block.weights[kind].codes.astype(np.int8)
        out[f"{prefix}.w_{kind}_scale"] = np.float64(
            block.weights[kind].params.scale
        )
        out[f"{prefix}.b_{kind}"] = block.biases[kind]
    for tap in _MHA_TAPS:
        out[f"{prefix}.tap.{tap}"] = np.float64(
            block._cal.params(block._tap(tap)).scale
        )
    norm = block._fp.norm
    out[f"{prefix}.ln_gamma"] = norm.gamma.data
    out[f"{prefix}.ln_beta"] = norm.beta.data


def _export_ffn(block, prefix: str, out: dict[str, np.ndarray]) -> None:
    out[f"{prefix}.w1"] = block.w1.codes.astype(np.int8)
    out[f"{prefix}.w1_scale"] = np.float64(block.w1.params.scale)
    out[f"{prefix}.w2"] = block.w2.codes.astype(np.int8)
    out[f"{prefix}.w2_scale"] = np.float64(block.w2.params.scale)
    out[f"{prefix}.b1"] = block.b1
    out[f"{prefix}.b2"] = block.b2
    for tap in _FFN_TAPS:
        out[f"{prefix}.tap.{tap}"] = np.float64(
            block._cal.params(block._tap(tap)).scale
        )
    norm = block._fp.norm
    out[f"{prefix}.ln_gamma"] = norm.gamma.data
    out[f"{prefix}.ln_beta"] = norm.beta.data


def export_image(quant) -> dict[str, np.ndarray]:
    """Compile a calibrated quantized model into a flat image dict.

    Accepts anything with calibrated ``enc_mha``/``enc_ffn`` lists (and
    optionally ``dec_self``/``dec_cross``/``dec_ffn``).
    """
    if not quant.calibrator.frozen:
        raise QuantizationError("calibrate the model before export")
    out: dict[str, np.ndarray] = {"image_version": np.int64(IMAGE_VERSION)}
    groups = [("enc_mha", "mha"), ("enc_ffn", "ffn")]
    for attr in ("dec_self", "dec_cross", "dec_ffn"):
        if getattr(quant, attr, None):
            kind = "ffn" if attr.endswith("ffn") else "mha"
            groups.append((attr, kind))
    counts = {}
    for attr, kind in groups:
        blocks = getattr(quant, attr)
        counts[attr] = len(blocks)
        for i, block in enumerate(blocks):
            prefix = f"{attr}.{i}"
            if kind == "mha":
                _export_mha(block, prefix, out)
            else:
                _export_ffn(block, prefix, out)
    for attr, count in counts.items():
        out[f"count.{attr}"] = np.int64(count)
    return out


def save_image(quant, path: PathLike) -> int:
    """Compile and write a .npz deployment image; returns entry count."""
    image = export_image(quant)
    np.savez_compressed(str(path), **image)
    return len(image)


def load_image(path: PathLike) -> dict[str, list]:
    """Load a .npz image into block-view lists keyed by stack attribute.

    Returns ``{"enc_mha": [ImageMHABlock...], "enc_ffn": [...], ...}``.
    """
    with np.load(str(path)) as archive:
        data = {name: archive[name] for name in archive.files}
    if int(data.get("image_version", -1)) != IMAGE_VERSION:
        raise QuantizationError("unsupported or missing image version")
    stacks: dict[str, list] = {}
    for attr in ("enc_mha", "enc_ffn", "dec_self", "dec_cross", "dec_ffn"):
        key = f"count.{attr}"
        if key not in data:
            continue
        count = int(data[key])
        blocks = []
        for i in range(count):
            prefix = f"{attr}.{i}"
            if attr.endswith("ffn"):
                blocks.append(ImageFFNBlock(prefix, data))
            else:
                blocks.append(ImageMHABlock(prefix, data))
        stacks[attr] = blocks
    return stacks
