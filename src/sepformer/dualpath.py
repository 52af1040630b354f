"""Dual-path sequence processing: 50%-overlap chunking, alternating
within-chunk and across-chunk transformer stacks, overlap-add inversion.

A feature map (F, T') becomes a (F, C, Nc) chunk tensor whose frames start
every C/2 positions. The intra stack treats each chunk as a length-C
sequence; the inter stack treats each within-chunk offset as a length-Nc
sequence across chunks. Each stack runs on a batch of those sequences at
once, in groups of whole sequences holding at most ``_GROUP_POSITIONS``
positions, which bounds the memory a call holds. Overlap-add sums frames
at their offsets, divides by coverage, and trims the padding, which makes
chunk -> overlap_add an exact identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ndkernel as nd
from .attention import AttentionSpec, derive_seed
from .ndkernel import Tensor
from .transformer import init_transformer_stack, transformer_stack

__all__ = [
    "ChunkTensor", "InvalidChunkSizeError", "chunk", "overlap_add",
    "SepformerBlockParams", "init_sepformer_block", "sepformer_block",
    "padded_chunk_geometry",
]

# Most positions one batched stack call holds. Sequences are grouped up to
# it and never split, so a longer sequence runs alone.
_GROUP_POSITIONS = 1024


class InvalidChunkSizeError(ValueError):
    """Chunk size must be even (hop is exactly half the chunk)."""


@dataclass
class ChunkTensor:
    """(F, C, Nc) frames of a feature map plus what is needed to invert."""

    data: Tensor
    original_length: int
    chunk_size: int

    @property
    def hop(self):
        return self.chunk_size // 2

    @property
    def n_chunks(self):
        return self.data.shape[2]


def padded_chunk_geometry(length, chunk_size):
    """Padded length and frame count for 50%-overlap chunking.

    The padded length is the smallest L >= chunk_size covering ``length``
    with (L - chunk_size) divisible by the hop.
    """
    hop = chunk_size // 2
    if length <= chunk_size:
        padded = chunk_size
    else:
        padded = chunk_size + hop * (-(-(length - chunk_size) // hop))
    n_chunks = 1 + (padded - chunk_size) // hop
    return padded, n_chunks


def chunk(feature_map, chunk_size):
    """Frame an (F, T') map into a 50%-overlap :class:`ChunkTensor`."""
    if chunk_size < 2 or chunk_size % 2 != 0:
        raise InvalidChunkSizeError(
            "chunk size must be even and >= 2, got %d" % chunk_size)
    feature_map = nd.as_tensor(feature_map)
    length = feature_map.shape[1]
    hop = chunk_size // 2
    padded, _ = padded_chunk_geometry(length, chunk_size)
    x = nd.pad_cols(feature_map, 0, padded - length)
    frames = nd.frame(x, chunk_size, hop)
    return ChunkTensor(frames, length, chunk_size)


def overlap_add(chunks):
    """Invert :func:`chunk`: sum frames at offsets, divide by coverage,
    trim to the original length."""
    c = chunks.chunk_size
    hop = chunks.hop
    n = chunks.n_chunks
    padded = c + (n - 1) * hop
    summed = nd.overlap_sum(chunks.data, hop, padded)
    starts = hop * np.arange(n)[:, None]
    coverage = np.bincount((starts + np.arange(c)).reshape(-1),
                           minlength=padded).astype(np.float64)
    out = nd.scale_cols(summed, Tensor(1.0 / coverage))
    return nd.slice_cols(out, 0, chunks.original_length)


@dataclass
class SepformerBlockParams:
    """N repeats of an intra stack followed by an inter stack.

    The two stacks may use different attention variants; parameters are
    independent across repeats.
    """

    intra_spec: AttentionSpec
    inter_spec: AttentionSpec
    intra_stacks: list = field(default_factory=list)
    inter_stacks: list = field(default_factory=list)

    @property
    def n_repeats(self):
        return len(self.intra_stacks)

    def named(self, prefix):
        out = {}
        for r in range(self.n_repeats):
            out.update(self.intra_stacks[r].named(
                "%s.rep%d.intra" % (prefix, r)))
            out.update(self.inter_stacks[r].named(
                "%s.rep%d.inter" % (prefix, r)))
        return out


def init_sepformer_block(intra_spec, inter_spec, feat_dim, ffw_dim,
                         n_repeats, intra_layers, inter_layers, rng):
    intra = [init_transformer_stack(intra_spec, feat_dim, ffw_dim,
                                    intra_layers, rng)
             for _ in range(n_repeats)]
    inter = [init_transformer_stack(inter_spec, feat_dim, ffw_dim,
                                    inter_layers, rng)
             for _ in range(n_repeats)]
    return SepformerBlockParams(intra_spec, inter_spec, intra, inter)


def _stack_over(x, stack, spec, seed, repeat, axis):
    """Run ``stack`` on every sequence of the (F, B, L) batch ``x``, one
    call per group of whole sequences."""
    feat, batch, length = x.shape
    # only the reformer draws from its seed; other variants share one
    seeds = None
    if spec.variant == "reformer":
        seeds = [derive_seed(seed, repeat, axis, j) for j in range(batch)]
    per_group = max(1, _GROUP_POSITIONS // length)
    if per_group >= batch:
        return transformer_stack(x, stack, spec,
                                 seed=seed if seeds is None else seeds)
    flat = nd.reshape(x, (feat, batch * length))
    outs = []
    for start in range(0, batch, per_group):
        stop = min(start + per_group, batch)
        group = nd.reshape(nd.slice_cols(flat, start * length, stop * length),
                           (feat, stop - start, length))
        outs.append(transformer_stack(
            group, stack, spec,
            seed=seed if seeds is None else seeds[start:stop]))
    return nd.concat(outs, axis=1)


def sepformer_block(chunks, params, seed=0):
    """Apply N repeats of intra-chunk then inter-chunk modeling.

    Each chunk is an independent length-C sequence for the intra stack
    (block-diagonal attention); each within-chunk offset is an independent
    length-Nc sequence for the inter stack (strided attention). The intra
    stack runs on the chunk map permuted to (F, Nc, C), the inter stack on
    (F, C, Nc), each as one batched call per group of whole sequences
    holding at most ``_GROUP_POSITIONS`` positions. Sequence j of axis a
    (0 intra, 1 inter) in repeat r is seeded by
    ``derive_seed(seed, r, a, j)``, so the grouping does not change which
    LSH rotations a sequence sees, and the result is deterministic.
    """
    x = chunks.data                                       # (F, C, Nc)
    for r in range(params.n_repeats):
        x = _stack_over(nd.permute(x, (0, 2, 1)), params.intra_stacks[r],
                        params.intra_spec, seed, r, 0)    # (F, Nc, C)
        x = _stack_over(nd.permute(x, (0, 2, 1)), params.inter_stacks[r],
                        params.inter_spec, seed, r, 1)    # (F, C, Nc)
    return ChunkTensor(x, chunks.original_length, chunks.chunk_size)
