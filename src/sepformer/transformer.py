"""Transformer encoder layer and the K-layer stacks used on both axes of
the dual-path pipeline.

The layer is the standard pre-norm block: each branch reads a normalized
copy of the residual stream and adds its output back to it,

    h = MHA(LayerNorm(x)) + x
    out = FFW(LayerNorm(h)) + h

and the stack adds the sinusoidal position table once before the first
layer plus an outer residual around the whole stack,

    stack(z) = layers(z + e) + z.

No final normalization after the stack, no dropout. Layer and stack run
on one sequence or on a batch of them, in the kernel's layout, as the
dual path feeds them. The feed-forward is one ``ndkernel.feed_forward``
op and one tape record: both linears with their biases and the ReLU,
run over blocks of positions, so without a tape a long map never holds
its whole hidden map.
"""

from __future__ import annotations

import numpy as np

from . import ndkernel as nd
from .attention import (attention_tensors, derive_seed, multi_head_dispatch,
                        positional_encoding)
from .ndkernel import Tensor
from .params import ONES, ZEROS, Params, uniform

__all__ = [
    "layer_tensors", "stack_tensors", "init_transformer_layer",
    "init_transformer_stack", "transformer_layer", "transformer_stack",
]


def layer_tensors(spec, feat_dim, ffw_dim):
    """One encoder layer as (name, shape, init) entries, in draw order."""
    yield "attn", attention_tensors(spec, feat_dim)
    yield "ln1.gain", (feat_dim,), ONES
    yield "ln1.bias", (feat_dim,), ZEROS
    yield "ln2.gain", (feat_dim,), ONES
    yield "ln2.bias", (feat_dim,), ZEROS
    yield "ffw.w1", (feat_dim, ffw_dim), uniform(feat_dim)
    yield "ffw.b1", (ffw_dim,), ZEROS
    yield "ffw.w2", (ffw_dim, feat_dim), uniform(ffw_dim)
    yield "ffw.b2", (feat_dim,), ZEROS


def stack_tensors(spec, feat_dim, ffw_dim, depth):
    """``depth`` layers, named ``layer0`` on, in draw order."""
    if depth < 1:
        raise ValueError("stack depth must be >= 1")
    return [("layer%d" % k, layer_tensors(spec, feat_dim, ffw_dim))
            for k in range(depth)]


def init_transformer_layer(spec, feat_dim, ffw_dim, rng):
    return Params(layer_tensors(spec, feat_dim, ffw_dim), rng)


def init_transformer_stack(spec, feat_dim, ffw_dim, depth, rng):
    return Params(stack_tensors(spec, feat_dim, ffw_dim, depth), rng)


def _layer_seed(spec, seed, index):
    if not spec.entry.seeded:
        return seed             # only a seeded variant draws from it
    if np.ndim(seed) == 0:
        return derive_seed(seed, index)
    return [derive_seed(s, index) for s in seed]


def transformer_layer(z, params, spec, seed=0):
    """One encoder layer on a map of one or more sequences; features
    normalized per position.

    Norms, projections, feed-forward and residuals run once over all
    positions; only the attention cores see sequence boundaries. ``seed``
    is an int or one per sequence (it only matters for the reformer).
    Without a tape each intermediate is freed after its last reader: the
    feed-forward holds only the input, the residual stream ``h``, ln2,
    its output and one block of hidden rows.
    """
    z = nd.as_tensor(z)
    mid = multi_head_dispatch(
        nd.layer_norm(z, params.ln1_gain, params.ln1_bias), params.attn,
        spec, seed=seed)
    h = nd.add(mid, z)
    del mid
    ffw = nd.feed_forward(nd.layer_norm(h, params.ln2_gain, params.ln2_bias),
                          params.ffw_w1, params.ffw_b1, params.ffw_w2,
                          params.ffw_b2)
    return nd.add(ffw, h)


def transformer_stack(z, params, spec, seed=0):
    """K layers with a single position-table injection and outer residual.

    Each sequence of ``z`` is given positions 0..L-1. ``seed`` is an int or
    one per sequence; under a seeded variant layer i of a sequence with
    seed s uses ``derive_seed(s, i)``, and every other variant ignores it.
    """
    z = nd.as_tensor(z)
    table = positional_encoding(z.shape[-1], z.shape[0]).data.T
    # (F, L) with a unit axis for each batch axis, broadcast to z's shape
    table = np.expand_dims(table, tuple(range(1, z.data.ndim - 1)))
    x = nd.add(z, Tensor(np.broadcast_to(table, z.shape)))
    del table
    for i, layer in enumerate(params.children):
        x = transformer_layer(x, layer, spec, seed=_layer_seed(spec, seed, i))
    return nd.add(x, z)
