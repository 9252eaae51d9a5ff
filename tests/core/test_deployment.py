"""Deployment-image tests: compile, save, load, and run standalone."""

import numpy as np
import pytest

from repro.config import AcceleratorConfig
from repro.core import (
    TransformerAccelerator,
    export_image,
    load_image,
    save_image,
)
from repro.errors import QuantizationError
from repro.quant import QuantizedTransformer

S = 12


@pytest.fixture
def image_dict(calibrated_quant):
    return export_image(calibrated_quant)


class TestExport:
    def test_requires_calibration(self, small_transformer):
        with pytest.raises(QuantizationError):
            export_image(QuantizedTransformer(small_transformer))

    def test_counts_recorded(self, image_dict):
        # 1 encoder layer + 1 decoder layer.
        assert int(image_dict["count.enc_mha"]) == 1
        assert int(image_dict["count.dec_cross"]) == 1
        assert int(image_dict["count.dec_ffn"]) == 1

    def test_weights_stored_as_int8(self, image_dict):
        assert image_dict["enc_mha.0.w_q"].dtype == np.int8
        assert image_dict["enc_ffn.0.w1"].dtype == np.int8

class TestRoundTrip:
    def test_save_load(self, calibrated_quant, tmp_path):
        path = tmp_path / "model.img.npz"
        count = save_image(calibrated_quant, path)
        stacks = load_image(path)
        assert count > 0
        assert len(stacks["enc_mha"]) == 1
        assert len(stacks["dec_self"]) == 1
        block = stacks["enc_mha"][0]
        original = calibrated_quant.enc_mha[0]
        assert np.array_equal(
            block.weights["q"].codes, original.weights["q"].codes
        )
        assert block.weights["q"].params.scale == pytest.approx(
            original.weights["q"].params.scale
        )

    def test_bad_version_rejected(self, calibrated_quant, tmp_path):
        image = export_image(calibrated_quant)
        image["image_version"] = np.int64(999)
        path = tmp_path / "bad.npz"
        np.savez_compressed(str(path), **image)
        with pytest.raises(QuantizationError):
            load_image(path)

    def test_missing_tap_raises(self, calibrated_quant, tmp_path):
        path = tmp_path / "m.npz"
        save_image(calibrated_quant, path)
        block = load_image(path)["enc_mha"][0]
        with pytest.raises(QuantizationError):
            block._cal.params("nonexistent")


class TestStandaloneExecution:
    def test_image_runs_bit_identical(
        self, calibrated_quant, small_model_config, tmp_path
    ):
        # Save, load, run on the accelerator with no quant model around.
        rng = np.random.default_rng(9)
        path = tmp_path / "deploy.npz"
        save_image(calibrated_quant, path)
        stacks = load_image(path)

        acc_cfg = AcceleratorConfig(seq_len=S)
        hw = TransformerAccelerator(small_model_config, acc_cfg,
                                    exact_nonlinear=True)
        hw.load_mha(stacks["enc_mha"][0])
        hw.load_ffn(stacks["enc_ffn"][0])
        x = rng.normal(size=(S, small_model_config.d_model))
        mha_out = hw.run_mha(x).output
        ffn_out = hw.run_ffn(mha_out).output

        ref = calibrated_quant.enc_mha[0].forward_int8(
            x[None], x[None], None
        )
        ref = calibrated_quant.enc_ffn[0].forward_int8(ref)[0]
        assert np.array_equal(ffn_out, ref)

    def test_decoder_blocks_loadable(self, calibrated_quant,
                                     small_model_config, tmp_path):
        rng = np.random.default_rng(10)
        path = tmp_path / "deploy.npz"
        save_image(calibrated_quant, path)
        stacks = load_image(path)
        acc_cfg = AcceleratorConfig(seq_len=S)
        hw = TransformerAccelerator(small_model_config, acc_cfg,
                                    exact_nonlinear=True)
        hw.load_mha(stacks["dec_cross"][0])
        q = rng.normal(size=(S, 128))
        kv = rng.normal(size=(S, 128))
        out = hw.run_mha(q, kv).output
        ref = calibrated_quant.dec_cross[0].forward_int8(
            q[None], kv[None], None
        )[0]
        assert np.array_equal(out, ref)
