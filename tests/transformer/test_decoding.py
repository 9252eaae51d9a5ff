"""Greedy decoding tests on a rigged deterministic model."""

import numpy as np
import pytest

from repro.errors import DecodingError
from repro.transformer import Tensor
from repro.transformer.decoding import greedy_decode


class RiggedModel:
    """A fake model that emits a fixed script of next tokens.

    The script maps (previous token) -> next token logits; it lets the
    tests assert exact decoder behaviour without training anything.
    """

    def __init__(self, vocab: int, transitions: dict, eos_id: int):
        self.vocab = vocab
        self.transitions = transitions
        self.eos_id = eos_id

    def build_masks(self, src_lengths, tgt_len, src_len, tgt_lengths=None):
        batch = len(np.asarray(src_lengths))
        return (
            np.zeros((batch, src_len, src_len), dtype=bool),
            np.zeros((batch, tgt_len, tgt_len), dtype=bool),
            np.zeros((batch, tgt_len, src_len), dtype=bool),
        )

    def encode(self, src_ids, src_mask=None):
        return Tensor(np.zeros((np.asarray(src_ids).shape[0], 1, 4)))

    def decode(self, tgt_ids, memory, self_mask=None, cross_mask=None):
        # "State" is simply the last token id, carried via a one-hot.
        tgt_ids = np.asarray(tgt_ids)
        out = np.zeros((tgt_ids.shape[0], tgt_ids.shape[1], self.vocab))
        for b in range(tgt_ids.shape[0]):
            for t in range(tgt_ids.shape[1]):
                out[b, t, tgt_ids[b, t]] = 1.0
        return Tensor(out)

    def generator(self, states):
        data = states.numpy()
        logits = np.full(data.shape[:-1] + (self.vocab,), -20.0)
        last = data.argmax(-1)
        for b in range(data.shape[0]):
            for t in range(data.shape[1]):
                prev = int(last[b, t])
                for token, score in self.transitions.get(prev, {self.eos_id: 0.0}).items():
                    logits[b, t, token] = score
        return Tensor(logits)


BOS, EOS = 1, 2


@pytest.fixture
def chain_model():
    # BOS -> 5 -> 6 -> 7 -> EOS, each step near-deterministic.
    transitions = {
        BOS: {5: 0.0},
        5: {6: 0.0},
        6: {7: 0.0},
        7: {EOS: 0.0},
    }
    return RiggedModel(vocab=10, transitions=transitions, eos_id=EOS)


class TestGreedy:
    def test_follows_argmax_chain(self, chain_model):
        res = greedy_decode(chain_model, np.zeros((1, 3), dtype=int), [3],
                            BOS, EOS, max_len=10)
        assert res[0].tokens == [5, 6, 7]

    def test_stops_at_eos(self, chain_model):
        res = greedy_decode(chain_model, np.zeros((1, 3), dtype=int), [3],
                            BOS, EOS, max_len=50)
        assert EOS not in res[0].tokens
        assert len(res[0].tokens) == 3

    def test_max_len_truncates(self, chain_model):
        res = greedy_decode(chain_model, np.zeros((1, 3), dtype=int), [3],
                            BOS, EOS, max_len=2)
        assert res[0].tokens == [5, 6]

    def test_batch_decoding(self, chain_model):
        res = greedy_decode(chain_model, np.zeros((3, 3), dtype=int),
                            [3, 3, 3], BOS, EOS, max_len=10)
        assert len(res) == 3
        assert all(r.tokens == [5, 6, 7] for r in res)

    def test_score_accumulates_log_probs(self, chain_model):
        res = greedy_decode(chain_model, np.zeros((1, 3), dtype=int), [3],
                            BOS, EOS, max_len=10)
        # Each step is near-certain, so total log prob ~ 0.
        assert res[0].score == pytest.approx(0.0, abs=0.01)

    def test_invalid_ids_rejected(self, chain_model):
        with pytest.raises(DecodingError):
            greedy_decode(chain_model, np.zeros((1, 3), dtype=int), [3],
                          -1, EOS)
