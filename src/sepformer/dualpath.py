"""Dual-path sequence processing: 50%-overlap chunking, alternating
within-chunk and across-chunk transformer stacks, overlap-add inversion.

A feature map (F, T') becomes a plain (F, C, Nc) tensor of frames that
start every C/2 positions. The intra stack treats each chunk as a length-C
sequence; the inter stack treats each within-chunk offset as a length-Nc
sequence across chunks. Each stack runs on a batch of those sequences at
once, in groups of whole sequences holding at most
``ndkernel._GROUP_POSITIONS`` positions, which bounds the memory a call
holds; a longer sequence runs alone. Overlap-add sums frames at their
offsets, divides by coverage, and trims the padding, which makes chunk ->
overlap_add an exact identity.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ndkernel as nd
from .attention import AttentionSpec, derive_seed
from .ndkernel import padded_chunk_geometry
from .params import Params
from .transformer import stack_tensors, transformer_stack

__all__ = [
    "chunk", "overlap_add",
    "SepformerBlockParams", "block_tensors", "block_params",
    "init_sepformer_block", "sepformer_block", "padded_chunk_geometry",
]

def chunk(feature_map, chunk_size):
    """Frame an (F, T') map into (F, C, Nc) frames at 50% overlap; a size
    that is odd or below 2 raises ``ndkernel.frame``'s ``ShapeError``."""
    return nd.frame(nd.as_tensor(feature_map), chunk_size)


def overlap_add(frames, length):
    """Invert :func:`chunk`: average the frames over each position and
    trim to the original ``length``."""
    return nd.overlap_mean(frames, length)


@dataclass
class SepformerBlockParams:
    """N repeats of an intra stack followed by an inter stack.

    The two stacks may use different attention variants; parameters are
    independent across repeats.
    """

    intra_spec: AttentionSpec
    inter_spec: AttentionSpec
    intra_stacks: list
    inter_stacks: list

    @property
    def n_repeats(self):
        return len(self.intra_stacks)


def block_tensors(intra_spec, inter_spec, feat_dim, ffw_dim, n_repeats,
                  intra_layers, inter_layers):
    """The block's stacks as entries in draw order: every repeat's intra
    stack, then every repeat's inter stack (none when ``inter_spec`` is
    None, as on the unchunked path)."""
    axes = [("intra", intra_spec, intra_layers)]
    if inter_spec is not None:
        axes.append(("inter", inter_spec, inter_layers))
    return [("rep%d.%s" % (r, axis),
             stack_tensors(spec, feat_dim, ffw_dim, depth))
            for axis, spec, depth in axes for r in range(n_repeats)]


def block_params(params, intra_spec, inter_spec, n_repeats):
    """The built :func:`block_tensors` stacks as a block."""
    stacks = params.children
    return SepformerBlockParams(intra_spec, inter_spec, stacks[:n_repeats],
                                stacks[n_repeats:])


def init_sepformer_block(intra_spec, inter_spec, feat_dim, ffw_dim,
                         n_repeats, intra_layers, inter_layers, rng):
    built = Params(block_tensors(intra_spec, inter_spec, feat_dim, ffw_dim,
                                 n_repeats, intra_layers, inter_layers), rng)
    return block_params(built, intra_spec, inter_spec, n_repeats)


def _stack_over(x, stack, spec, seed, repeat, axis):
    """Run ``stack`` on every sequence of the (F, B, L) batch ``x``, one
    call per group of whole sequences."""
    batch, length = x.shape[1:]
    # only a seeded variant draws from its seed; the others share one
    seeds = seed
    if spec.entry.seeded:
        seeds = [derive_seed(seed, repeat, axis, j) for j in range(batch)]
    per_group = max(1, nd._GROUP_POSITIONS // length)
    if per_group >= batch:
        return transformer_stack(x, stack, spec, seed=seeds)
    outs = []
    for start in range(0, batch, per_group):
        stop = min(start + per_group, batch)
        outs.append(transformer_stack(
            nd.slice_axis(x, 1, start, stop), stack, spec,
            seed=seeds[start:stop] if spec.entry.seeded else seed))
    return nd.concat(outs, axis=1)


def sepformer_block(frames, params, seed=0):
    """Apply N repeats of intra-chunk then inter-chunk modeling to the
    (F, C, Nc) ``frames``; the result has their shape.

    Each chunk is an independent length-C sequence for the intra stack
    (block-diagonal attention); each within-chunk offset is an independent
    length-Nc sequence for the inter stack (strided attention). The intra
    stack runs on the chunk map permuted to (F, Nc, C), the inter stack on
    (F, C, Nc), each as one batched call per group of whole sequences
    holding at most ``ndkernel._GROUP_POSITIONS`` positions. Sequence j of
    axis a (0 intra, 1 inter) in repeat r is seeded by
    ``derive_seed(seed, r, a, j)``, so the grouping does not change which
    LSH rotations a sequence sees, and the result is deterministic.
    """
    for r in range(params.n_repeats):
        # rebinding the parameter frees each stage once the next has
        # read it, the caller's frames included
        frames = nd.permute(frames, (0, 2, 1))            # (F, Nc, C)
        frames = _stack_over(frames, params.intra_stacks[r],
                             params.intra_spec, seed, r, 0)
        frames = nd.permute(frames, (0, 2, 1))            # (F, C, Nc)
        frames = _stack_over(frames, params.inter_stacks[r],
                             params.inter_spec, seed, r, 1)
    return frames
