"""Golden-function tests: the paper's equations hold as identities."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.transformer.functional import (
    LAYERNORM_EPS,
    attention,
    ffn,
    layer_norm,
    layer_norm_one_pass,
    layer_norm_two_pass,
    log_sum_exp_softmax,
    relu,
    scaled_masked_softmax,
    softmax,
)

RNG = np.random.default_rng(42)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = RNG.normal(size=(5, 9))
        assert np.allclose(softmax(x).sum(-1), 1.0)

    def test_shift_invariance(self):
        x = RNG.normal(size=(4, 7))
        assert np.allclose(softmax(x), softmax(x + 100.0))

    def test_log_sum_exp_identity(self):
        # Eq. (5): the hardware's reformulation equals the definition.
        x = RNG.normal(size=(6, 8)) * 10
        assert np.allclose(log_sum_exp_softmax(x), softmax(x), atol=1e-12)

    def test_extreme_values_stable(self):
        x = np.array([[1000.0, 0.0, -1000.0]])
        out = softmax(x)
        assert np.isfinite(out).all()
        assert out[0, 0] == pytest.approx(1.0)


class TestScaledMaskedSoftmax:
    def test_masked_positions_zero(self):
        # Eq. (4): M(i,j) = 1 -> Y(i,j) = 0.
        logits = RNG.normal(size=(4, 4))
        mask = np.zeros((4, 4), dtype=bool)
        mask[:, 2] = True
        out = scaled_masked_softmax(logits, mask)
        assert np.all(out[:, 2] == 0.0)
        assert np.allclose(out.sum(-1), 1.0)

    def test_scale_divisor_is_eight(self):
        # d_k = 64 -> dividing by 8 equals a 3-bit right shift in HW.
        logits = RNG.normal(size=(3, 3)) * 8
        assert np.allclose(
            scaled_masked_softmax(logits, None),
            softmax(logits / 8.0),
        )

    def test_fully_masked_row_yields_zeros(self):
        logits = RNG.normal(size=(2, 3))
        mask = np.array([[True, True, True], [False, False, False]])
        out = scaled_masked_softmax(logits, mask)
        assert np.all(out[0] == 0.0)
        assert np.isfinite(out).all()

    def test_no_mask_equals_plain(self):
        logits = RNG.normal(size=(3, 5))
        assert np.allclose(
            scaled_masked_softmax(logits), softmax(logits / 8.0)
        )


class TestLayerNorm:
    def test_normalizes_rows(self):
        x = RNG.normal(3.0, 5.0, size=(6, 32))
        out = layer_norm(x, np.ones(32), np.zeros(32))
        assert np.allclose(out.mean(-1), 0.0, atol=1e-7)
        assert np.allclose(out.var(-1), 1.0, atol=1e-3)

    def test_gamma_beta_affine(self):
        x = RNG.normal(size=(2, 8))
        gamma = RNG.normal(size=8)
        beta = RNG.normal(size=8)
        base = layer_norm(x, np.ones(8), np.zeros(8))
        assert np.allclose(layer_norm(x, gamma, beta), base * gamma + beta)

    def test_eq9_variance_identity(self):
        # Fig. 7 step two: E[x^2] - E[x]^2 == E[(x-mu)^2].
        x = RNG.normal(2.0, 3.0, size=(10, 64))
        assert np.allclose(
            layer_norm_one_pass(x), layer_norm_two_pass(x), atol=1e-10
        )

    def test_one_pass_never_negative(self):
        x = np.full((3, 16), 7.123456)
        assert np.all(layer_norm_one_pass(x) >= 0.0)

    def test_epsilon_guards_constant_rows(self):
        x = np.ones((2, 8)) * 5.0
        out = layer_norm(x, np.ones(8), np.zeros(8))
        assert np.isfinite(out).all()
        assert np.allclose(out, 0.0)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            layer_norm(np.zeros((2, 8)), np.ones(4), np.zeros(4))

    def test_paper_epsilon(self):
        assert LAYERNORM_EPS == 1e-8


class TestAttentionAndFFN:
    def test_attention_is_convex_combination(self):
        q = RNG.normal(size=(5, 8))
        k = RNG.normal(size=(6, 8))
        v = RNG.normal(size=(6, 8))
        out = attention(q, k, v)
        assert out.shape == (5, 8)
        assert out.min() >= v.min() - 1e-9
        assert out.max() <= v.max() + 1e-9

    def test_attention_with_identity_weights(self):
        # A single dominant key makes attention return (almost) its value.
        q = np.array([[100.0, 0.0]])
        k = np.array([[1.0, 0.0], [-1.0, 0.0]])
        v = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = attention(q, k, v)
        assert np.allclose(out, v[0], atol=1e-8)

    def test_causal_mask_blocks_future(self):
        from repro.transformer import causal_mask

        s = 4
        q = RNG.normal(size=(s, 8))
        v1 = RNG.normal(size=(s, 8))
        v2 = v1.copy()
        v2[-1] += 100.0  # perturb only the last (future-most) value row
        mask = causal_mask(s)
        out1 = attention(q, q, v1, mask)
        out2 = attention(q, q, v2, mask)
        # Rows before the last cannot see the perturbation.
        assert np.allclose(out1[:-1], out2[:-1])

    def test_ffn_formula(self):
        x = RNG.normal(size=(3, 4))
        w1 = RNG.normal(size=(4, 8))
        b1 = RNG.normal(size=8)
        w2 = RNG.normal(size=(8, 4))
        b2 = RNG.normal(size=4)
        expected = np.maximum(x @ w1 + b1, 0) @ w2 + b2
        assert np.allclose(ffn(x, w1, b1, w2, b2), expected)

    def test_relu(self):
        assert np.array_equal(relu(np.array([-1.0, 0.0, 2.0])),
                              np.array([0.0, 0.0, 2.0]))
