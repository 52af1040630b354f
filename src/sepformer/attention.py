"""Four self-attention mechanisms behind one multi-head interface.

All variants consume and produce feature maps in the kernel's one layout
(see ``ndkernel``). Queries/keys/values are produced by shared projection
weights; a variant-specific core runs once over every head of every
sequence, batched, and an output matrix recombines the heads.

Variants:

* ``full``       -- dense scaled dot-product attention, every position
                    attends to every position (non-causal).
* ``longformer`` -- sliding window of odd width plus evenly spaced global
                    positions that attend to (and are attended by) all.
* ``linformer``  -- keys/values projected from length T down to a fixed
                    number of slots before the softmax.
* ``reformer``   -- shared-QK attention restricted to LSH buckets,
                    computed chunkwise over the bucket-sorted sequence with
                    one look-back chunk, averaged over hash rounds.

Each variant is one :data:`REGISTRY` entry, which the dispatch, the
parameter list, the cost model and the dual path's seeding all read:
adding a variant takes one entry. A :func:`multi_head_dispatch` call
runs its variant's core once, over every head, and the core builds what
it needs (the longformer's blocks, LSH rotations, the linformer's
projection rows) itself. Full and linformer attention are one
``ndkernel.attention`` op each, and the longformer runs its band in
blocks on the same op under a logit bias (plain attention when the band
covers the sequence). Every core reads head-major maps and returns only
its head-major output. The reformer core is one ``ndkernel.lsh_attention``
op, which normalizes the keys, hashes and sorts every round and attends
chunkwise; a sequence no longer than ``bucket_chunk`` is one chunk of its
own length. The two ops bound their own score maps on long inputs, so no
core splits its heads. In every core the 1/sqrt(dk) scale rides on the
queries rather than on the score maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from collections import namedtuple

import numpy as np

from . import ndkernel as nd
from .ndkernel import Tensor, hash_buckets
from .params import Params, uniform

__all__ = [
    "VARIANTS", "REGISTRY", "Variant", "AttentionSpec", "FieldError",
    "SequenceTooLongError", "positional_encoding", "multi_head_dispatch",
    "attention_tensors", "init_attention_weights", "hash_buckets",
    "attention_core_macs", "derive_seed",
]

class SequenceTooLongError(ValueError):
    """Input longer than the projection length the weights were built for."""


class FieldError(ValueError):
    """A configuration field holds a value outside its range; ``field``
    names it and ``reason`` says what it must be."""

    def __init__(self, field, reason):
        super().__init__("%s %s" % (field, reason))
        self.field, self.reason = field, reason


@dataclass(frozen=True)
class AttentionSpec:
    """Variant selector plus hyperparameters shared by all heads."""

    variant: str = "full"
    heads: int = 8
    d_model: int = 256
    # longformer: odd window width; global positions every `global_stride`
    # indices (always including 0), or None for a pure sliding window
    window: int = 101
    global_stride: int | None = 100
    # linformer: keys/values projected to `proj_len` slots; inputs longer
    # than `max_len` are rejected
    proj_len: int = 128
    max_len: int = 8000
    # reformer: LSH rounds over `n_buckets` buckets, chunked attention with
    # `bucket_chunk` positions per chunk plus one look-back chunk
    n_buckets: int = 16
    n_rounds: int = 2
    bucket_chunk: int = 64

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise FieldError("variant", "must be one of %s, got %r"
                             % (", ".join(VARIANTS), self.variant))
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, int) and value < 1:
                raise FieldError(f.name, "must be >= 1, got %d" % value)
        if self.d_model % self.heads:
            raise FieldError("heads", "must divide the model width %d, got %d"
                             % (self.d_model, self.heads))
        if self.window % 2 == 0:
            raise FieldError("window", "must be odd, got %d" % self.window)
        if self.proj_len > self.max_len:
            raise FieldError("proj_len", "must be <= max_len %d, got %d"
                             % (self.max_len, self.proj_len))
        if self.n_buckets < 2 or self.n_buckets & (self.n_buckets - 1):
            raise FieldError("n_buckets", "must be a power of two >= 2, "
                             "got %d" % self.n_buckets)

    @property
    def d_head(self):
        return self.d_model // self.heads

    @property
    def entry(self):
        return REGISTRY[self.variant]


def attention_tensors(spec, feat_dim):
    """One attention's projections as (name, shape, init), in draw order:
    ``wq``, ``wv``, ``wo``, then ``wk`` unless the variant shares QK, then
    the entry's extra tensors."""
    d = spec.d_model
    yield "wq", (d, feat_dim), uniform(feat_dim)
    yield "wv", (d, feat_dim), uniform(feat_dim)
    yield "wo", (d, d), uniform(d)
    if not spec.entry.shares_qk:
        yield "wk", (d, feat_dim), uniform(feat_dim)
    yield from spec.entry.extra(spec)


def init_attention_weights(spec, feat_dim, rng):
    return Params(attention_tensors(spec, feat_dim), rng)


def derive_seed(base, *indices):
    """Deterministic child seed for nested components (layers, heads)."""
    ss = np.random.SeedSequence([int(base) & 0xFFFFFFFF, *map(int, indices)])
    return int(ss.generate_state(1)[0])


def positional_encoding(length, d_model):
    """Sinusoidal position table (length x d_model), values in [-1, 1].

    Column 2i oscillates as sin(t / 10000^(2i/d_model)), column 2i+1 as the
    matching cosine.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    t = np.arange(length)[:, None]
    i2 = 2 * (np.arange(d_model) // 2)
    angles = t / np.power(10000.0, i2 / d_model)
    pe = np.empty((length, d_model))
    pe[:, 0::2] = np.sin(angles[:, 0::2])
    pe[:, 1::2] = np.cos(angles[:, 1::2])
    return Tensor(pe)


# ---------------------------------------------------------------------------
# cores
#
# core(q, k, v, ctx) -> out receives head-major maps of Q/K/V, (h*dk, L)
# or (h*dk, B, L) (``k`` is None when the variant shares QK): rows
# i*dk..(i+1)*dk are head i of ``ctx.spec.heads``, in projection order.
# The core returns its output in the same layout, as ``wo`` reads it;
# ``ctx`` also holds the attention's ``weights`` and the call's ``seed``.
# Work that mixes positions runs batched over the sequences; queries are
# scaled by 1/sqrt(dk) before they meet a key.

_Call = namedtuple("_Call", "spec weights scale seed")


def _full_head(q, k, v, ctx):
    return nd.attention(q, k, v, ctx.spec.heads, ctx.scale)


_Band = namedtuple("_Band", "globals bias queries keys global_queries "
                   "picks", defaults=(None,) * 5)


def _longformer_prepare(spec, positions):
    """Cut each sequence of a map whose positions are ``positions``, (L,)
    or (B, L), into blocks of c = max(half, 1) queries, half = (w - 1) / 2,
    the last one padded. Block i sees the 3c positions from (i - 1)c and
    the g ``globals``, every ``global_stride``-th position from 0; its
    ``bias`` keeps band slots in range, within |t - s| <= half of an
    in-range query and off the globals. ``queries`` and ``keys`` index
    the blocks' positions, (B*blocks, c) and (B*blocks, 3c + g), so their
    gathers hold one sequence per block; ``global_queries`` indexes each
    sequence's globals, (..., g). A removed slot reads its position
    modulo L, a column of its own sequence, so removed slots spread over
    the sequence rather than pile onto its ends. ``picks``, of shape
    ``positions``, takes each position's output from its sequence's band
    rows and global rows joined on the last axis: its band row, or a
    global's row against all keys. A band over the whole sequence
    (half >= L - 1) sets just ``globals``."""
    length, batch = positions[-1], math.prod(positions[:-1])
    half = (spec.window - 1) // 2
    gidx = (np.zeros(0, dtype=np.intp) if spec.global_stride is None
            else np.arange(0, length, spec.global_stride))
    if half >= length - 1:
        return _Band(gidx)
    ng = len(gidx)
    c = max(half, 1)
    blocks = -(-length // c)
    n = blocks * c
    pos = np.arange(-c, n - c, c)[:, None] + np.arange(3 * c)  # (blocks, 3c)
    # slot j of query r in a block is |j - c - r| from it; a slot is kept
    # when that is <= half, its position is in range and off the globals,
    # and the query is in range
    near = np.abs(np.arange(3 * c) - c - np.arange(c)[:, None]) <= half
    valid = (pos >= 0) & (pos < length)
    if spec.global_stride is not None:
        valid &= pos % spec.global_stride != 0
    live = (np.arange(n) < length).reshape(blocks, c, 1)
    bias = np.zeros((blocks, c, 3 * c + ng))
    band = bias[..., :3 * c]
    band.fill(-1e30)
    np.copyto(band, 0.0, where=near & valid[:, None] & live)
    keys = np.concatenate([pos % length,
                           np.broadcast_to(gidx, (blocks, ng))], axis=1)
    starts = np.arange(batch)[:, None, None] * length
    picks = np.arange(length)
    picks[gidx] = n + np.arange(ng)
    return _Band(
        gidx, bias,
        (starts + np.minimum(np.arange(n), length - 1).reshape(blocks, c)
         ).reshape(-1, c),
        (starts + keys).reshape(-1, keys.shape[1]),
        (starts[:, 0] + gidx).reshape(positions[:-1] + (ng,)),
        (np.arange(batch)[:, None] * (n + ng) + picks).reshape(positions))


def _longformer_head(q, k, v, ctx):
    heads, scale = ctx.spec.heads, ctx.scale
    band = _longformer_prepare(ctx.spec, q.shape[1:])
    if band.bias is None:
        # the band covers the sequence: every pair is allowed
        return nd.attention(q, k, v, heads, scale)
    out = nd.attention(
        nd.gather_cols(q, band.queries), nd.gather_cols(k, band.keys),
        nd.gather_cols(v, band.keys), heads, scale, bias=band.bias)
    if len(band.globals):
        # rows at global positions attend to every position; a sequence's
        # band rows and global rows join on its last axis
        out = nd.concat([
            nd.reshape(out, q.shape[:-1] + (-1,)),
            nd.attention(nd.gather_cols(q, band.global_queries), k, v,
                         heads, scale)], axis=-1)
    return nd.gather_cols(out, band.picks)


def _longformer_macs(spec, t):
    # t x t when the band covers t, else blocks of c against 3c + g keys
    # and the g global rows against all t
    half = (spec.window - 1) // 2
    c = max(half, 1)
    g = 0 if spec.global_stride is None else -(-t // spec.global_stride)
    return 2 * spec.d_head * (t * t if half >= t - 1
                              else -(-t // c) * c * (3 * c + g) + g * t)


def _linformer_prepare(spec, weights, length):
    """The first ``length`` rows of both projections, or
    :class:`SequenceTooLongError` past ``max_len``."""
    if length > spec.max_len:
        raise SequenceTooLongError("sequence length %d exceeds projection "
                                   "size %d" % (length, spec.max_len))
    return [nd.slice_axis(p, 0, 0, length)
            for p in (weights.proj_p, weights.proj_f)]


def _linformer_head(q, k, v, ctx):
    length = q.shape[-1]
    proj_p, proj_f = _linformer_prepare(ctx.spec, ctx.weights, length)

    def project(x, proj):
        # each sequence's length-L rows onto the proj_len slots
        p = nd.matmul(nd.reshape(x, (-1, length)), proj)
        return nd.reshape(p, x.shape[:-1] + (-1,))

    return nd.attention(q, project(k, proj_p), project(v, proj_f),
                        ctx.spec.heads, ctx.scale)


def _reformer_prepare(spec, batch, seed):
    """Per hash round, the (B, d_head, n_buckets / 2) rotations from each
    sequence's seed, or (1, ...) from one shared int."""
    seeds = [seed] if np.ndim(seed) == 0 else list(seed)
    if len(seeds) not in (1, batch):
        raise ValueError("%d seeds for %d sequences" % (len(seeds), batch))
    rngs = [np.random.Generator(np.random.PCG64(s)) for s in seeds]
    shape = (spec.d_head, spec.n_buckets // 2)
    return [np.stack([rng.standard_normal(shape) for rng in rngs])
            for _ in range(spec.n_rounds)]


def _reformer_head(q, k, v, ctx):
    spec = ctx.spec
    rotations = _reformer_prepare(spec, math.prod(q.shape[1:-1]), ctx.seed)
    return nd.lsh_attention(q, v, rotations, spec.heads, spec.bucket_chunk,
                            ctx.scale)


def _reformer_macs(spec, t):
    # per round, as ndkernel.lsh_attention charges: chunks of m rows
    # against 2m keys, or one chunk of a sequence of t <= bucket_chunk
    m = min(spec.bucket_chunk, t)
    keys = m if m == t else 2 * m
    return spec.n_rounds * 2 * spec.d_head * -(-t // m) * m * keys


# ---------------------------------------------------------------------------
# registry

# One variant. ``core`` is its core function, run once per call over
# every head. ``core_macs`` (spec, length) mirrors the MACs one head's core
# charges on one sequence. ``extra`` (spec) yields the tensors beyond
# wq/wv/wo/wk. ``shares_qk``: keys are the unit queries (no wk, two
# projections). ``seeded``: the core draws from the seed.
Variant = namedtuple(
    "Variant", "core core_macs extra shares_qk seeded",
    defaults=(lambda spec: (), False, False))

REGISTRY = {
    "full": Variant(_full_head, lambda spec, t: 2 * t * t * spec.d_head),
    "longformer": Variant(_longformer_head, _longformer_macs),
    "linformer": Variant(
        _linformer_head, lambda spec, t: 4 * t * spec.proj_len * spec.d_head,
        extra=lambda spec: [(name, (spec.max_len, spec.proj_len),
                             uniform(spec.max_len))
                            for name in ("proj_p", "proj_f")]),
    "reformer": Variant(
        _reformer_head, _reformer_macs, shares_qk=True, seeded=True),
}
VARIANTS = tuple(REGISTRY)


def attention_core_macs(spec, length):
    """MACs of the per-head attention cores (all heads), excluding the
    Q/K/V/O projections; an instrumented count of the same ops matches."""
    return spec.heads * spec.entry.core_macs(spec, length)


def projection_macs(spec, feat_dim, length):
    """MACs of the Q/K/V projections plus the output recombination."""
    d = spec.d_model
    n_proj = 2 if spec.entry.shares_qk else 3
    return n_proj * d * feat_dim * length + d * d * length


# ---------------------------------------------------------------------------
# dispatch

def multi_head_dispatch(x, weights, spec, seed=0):
    """Project, run the variant core over the heads, recombine.

    The output has the layout of ``x``. The heads join the sequences in
    the core's batch: the projections run once over all positions, one
    core call runs over every head's rows of the projections, in
    projection order, and the output matrix recombines the heads as
    stored. The attention ops bound their own score maps, so a long input
    splits no heads here. ``seed`` only matters for a seeded variant (the
    reformer, whose LSH rotations are drawn per call from it): one int
    shared by every sequence, or one per sequence; every head of a
    sequence uses its rotations. Equal seeds give bit-identical outputs.
    """
    entry = spec.entry
    q, k, v = (None if w is None else nd.matmul(w, x)
               for w in (weights.wq, None if entry.shares_qk else weights.wk,
                         weights.wv))
    del x
    heads_out = entry.core(q, k, v, _Call(
        spec, weights, 1.0 / math.sqrt(spec.d_head), seed))
    del q, k, v
    return nd.matmul(weights.wo, heads_out)
