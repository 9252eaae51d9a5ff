"""From-scratch numpy Transformer: autograd, layers, full model, decoding.

This subpackage is the *golden model* substrate: everything the paper's
evaluation assumes already exists (a trained Transformer, its ResBlocks,
masks, decoding, BLEU-ready translations) implemented on plain numpy.
"""

from .attention import (
    MHAResBlock,
    MultiHeadAttention,
    ScaledDotProductAttention,
    merge_heads,
    split_heads,
)
from .bert import EncoderOnlyClassifier
from .decoder import Decoder, DecoderLayer
from .decoding import DecodeResult, greedy_decode
from .embedding import Embedding, PositionalEncoding, sinusoidal_encoding
from .encoder import Encoder, EncoderLayer
from .ffn import FFNResBlock, PositionwiseFFN
from .incremental import IncrementalDecoder, greedy_decode_incremental
from .layers import Dropout, LayerNorm, Linear
from .masks import causal_mask, combine_masks, padding_mask
from .model import Transformer
from .module import Module, Parameter
from .optim import Adam, NoamSchedule, cross_entropy
from .tensor import Tensor, concatenate, embedding_lookup

__all__ = [
    "Adam",
    "DecodeResult",
    "Decoder",
    "DecoderLayer",
    "Dropout",
    "Embedding",
    "Encoder",
    "EncoderOnlyClassifier",
    "EncoderLayer",
    "FFNResBlock",
    "IncrementalDecoder",
    "LayerNorm",
    "Linear",
    "MHAResBlock",
    "Module",
    "MultiHeadAttention",
    "NoamSchedule",
    "Parameter",
    "PositionalEncoding",
    "PositionwiseFFN",
    "ScaledDotProductAttention",
    "Tensor",
    "Transformer",
    "causal_mask",
    "combine_masks",
    "concatenate",
    "cross_entropy",
    "embedding_lookup",
    "greedy_decode",
    "greedy_decode_incremental",
    "merge_heads",
    "padding_mask",
    "sinusoidal_encoding",
    "split_heads",
]
