"""Transformer encoder layer and the K-layer stacks used on both axes of
the dual-path pipeline.

The layer is pre-norm with a doubled residual: the attention branch output
AND the layer input are both added back after the feed-forward branch,

    mid = MHA(LayerNorm(x))
    out = FFW(LayerNorm(mid + x)) + mid + x

and the stack adds the sinusoidal position table once before the first
layer plus an outer residual around the whole stack,

    stack(z) = layers(z + e) + z.

No final normalization after the stack, no dropout. Layer and stack also
take an (F, B, L) batch of B independent length-L sequences, the form the
dual path feeds them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ndkernel as nd
from .attention import (AttentionWeights, derive_seed,
                        init_attention_weights, multi_head_dispatch,
                        positional_encoding)
from .ndkernel import Tensor

__all__ = [
    "TransformerLayerParams", "TransformerStackParams",
    "init_transformer_layer", "init_transformer_stack",
    "transformer_layer", "transformer_stack", "LAYER_NORM_EPS",
]

LAYER_NORM_EPS = 1e-5


@dataclass
class TransformerLayerParams:
    attn: AttentionWeights
    ln1_gain: Tensor
    ln1_bias: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor
    w1: Tensor   # (F, d_ff)
    b1: Tensor   # (d_ff,)
    w2: Tensor   # (d_ff, F)
    b2: Tensor   # (F,)

    def named(self, prefix):
        out = self.attn.named(prefix + ".attn")
        out.update({
            prefix + ".ln1.gain": self.ln1_gain,
            prefix + ".ln1.bias": self.ln1_bias,
            prefix + ".ln2.gain": self.ln2_gain,
            prefix + ".ln2.bias": self.ln2_bias,
            prefix + ".ffw.w1": self.w1,
            prefix + ".ffw.b1": self.b1,
            prefix + ".ffw.w2": self.w2,
            prefix + ".ffw.b2": self.b2,
        })
        return out


@dataclass
class TransformerStackParams:
    layers: list = field(default_factory=list)
    use_positional_encoding: bool = True

    def named(self, prefix):
        out = {}
        for i, layer in enumerate(self.layers):
            out.update(layer.named("%s.layer%d" % (prefix, i)))
        return out


def _uniform(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape))


def init_transformer_layer(spec, feat_dim, ffw_dim, rng):
    return TransformerLayerParams(
        attn=init_attention_weights(spec, feat_dim, rng),
        ln1_gain=Tensor(np.ones(feat_dim)),
        ln1_bias=Tensor(np.zeros(feat_dim)),
        ln2_gain=Tensor(np.ones(feat_dim)),
        ln2_bias=Tensor(np.zeros(feat_dim)),
        w1=_uniform(rng, (feat_dim, ffw_dim), feat_dim),
        b1=Tensor(np.zeros(ffw_dim)),
        w2=_uniform(rng, (ffw_dim, feat_dim), ffw_dim),
        b2=Tensor(np.zeros(feat_dim)),
    )


def init_transformer_stack(spec, feat_dim, ffw_dim, depth, rng,
                           use_positional_encoding=True):
    if depth < 1:
        raise ValueError("stack depth must be >= 1")
    layers = [init_transformer_layer(spec, feat_dim, ffw_dim, rng)
              for _ in range(depth)]
    return TransformerStackParams(layers, use_positional_encoding)


def _layer_seed(seed, index):
    if np.ndim(seed) == 0:
        return derive_seed(seed, index)
    return [derive_seed(s, index) for s in seed]


def transformer_layer(z, params, spec, seed=0, internals=None):
    """One encoder layer on an (F, T) map or on an (F, B, L) batch of B
    independent length-L sequences; features normalized per position.

    Norms, projections, feed-forward and residuals run once over all
    positions; only the attention cores see sequence boundaries. ``seed``
    is an int or one per sequence (it only matters for the reformer).
    When ``internals`` is a dict it receives the attention branch output
    and the feed-forward branch output, so the residual wiring can be
    audited bit-for-bit: out == ffw_branch + attn_branch + input.
    """
    z = nd.as_tensor(z)
    ln1 = nd.layer_norm(z, params.ln1_gain, params.ln1_bias,
                        eps=LAYER_NORM_EPS, axis=0)
    mid = multi_head_dispatch(ln1, params.attn, spec, seed=seed)
    res = nd.add(mid, z)
    ln2 = nd.layer_norm(res, params.ln2_gain, params.ln2_bias,
                        eps=LAYER_NORM_EPS, axis=0)
    if ln2.data.ndim == 3:
        ln2 = nd.reshape(ln2, (ln2.shape[0], -1))        # (F, B*L)
    hid = nd.relu(nd.add_bias(nd.matmul(nd.transpose(params.w1), ln2),
                              params.b1))
    ffw = nd.add_bias(nd.matmul(nd.transpose(params.w2), hid), params.b2)
    if ffw.shape != z.shape:
        ffw = nd.reshape(ffw, z.shape)
    out = nd.add(nd.add(ffw, mid), z)
    if internals is not None:
        internals["attn_branch"] = mid
        internals["ffw_branch"] = ffw
    return out


def transformer_stack(z, params, spec, seed=0):
    """K layers with a single position-table injection and outer residual.

    ``z`` is one (F, T) map or an (F, B, L) batch of B independent
    length-L sequences, each given positions 0..L-1. ``seed`` is an int or
    one per sequence; layer i of a sequence with seed s uses
    ``derive_seed(s, i)``.
    """
    z = nd.as_tensor(z)
    feat, length = z.shape[0], z.shape[-1]
    x = z
    if params.use_positional_encoding:
        table = positional_encoding(length, feat).data.T
        if z.data.ndim == 3:
            table = table[:, None, :]
        x = nd.add(z, Tensor(np.broadcast_to(table, z.shape)))
    for i, layer in enumerate(params.layers):
        x = transformer_layer(x, layer, spec, seed=_layer_seed(seed, i))
    return nd.add(x, z)
