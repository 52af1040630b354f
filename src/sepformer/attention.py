"""Four self-attention mechanisms behind one multi-head interface.

All variants consume and produce (F x T) feature maps (features on axis 0,
positions on the last axis), or (F x B x L) batches of B independent
length-L sequences. Queries/keys/values are produced by shared projection
weights; each head runs a variant-specific core, batched over the
sequences, and the heads are concatenated and recombined by an output
matrix.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ndkernel as nd
from .ndkernel import Tensor

__all__ = [
    "VARIANTS", "AttentionSpec", "AttentionWeights", "SequenceTooLongError",
    "positional_encoding", "multi_head_dispatch", "full_attention",
    "longformer_attention", "linformer_attention", "reformer_attention",
    "init_attention_weights", "hash_buckets", "longformer_allowed",
    "attention_core_macs", "derive_seed",
]

VARIANTS = ("full", "longformer", "linformer", "reformer")

# Additive logit biases: HARD removes a slot outright, SOFT keeps a slot
# alive only when nothing else is attendable (a position falls back to
# itself when it is alone).
_HARD_MASK = -1e30
_SOFT_MASK = -1e5


class SequenceTooLongError(ValueError):
    """Input longer than the projection length the weights were built for."""


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
            raise ValueError("unknown attention variant %r" % (self.variant,))
        if self.heads < 1 or self.d_model < 1:
            raise ValueError("heads and d_model must be positive")
        if self.d_model % self.heads != 0:
            raise ValueError("d_model %d not divisible by heads %d"
                             % (self.d_model, self.heads))
        if self.variant == "longformer":
            if self.window < 1 or self.window % 2 == 0:
                raise ValueError("window must be odd and positive, got %d"
                                 % self.window)
            if self.global_stride is not None and self.global_stride < 1:
                raise ValueError("global_stride must be positive or None")
        if self.variant == "linformer":
            if not (1 <= self.proj_len <= self.max_len):
                raise ValueError("need 1 <= proj_len <= max_len, got %d > %d"
                                 % (self.proj_len, self.max_len))
        if self.variant == "reformer":
            nb = self.n_buckets
            if nb < 2 or (nb & (nb - 1)) != 0:
                raise ValueError("n_buckets must be a power of two >= 2")
            if self.n_rounds < 1 or self.bucket_chunk < 1:
                raise ValueError("n_rounds and bucket_chunk must be positive")

    @property
    def d_head(self):
        return self.d_model // self.heads


@dataclass
class AttentionWeights:
    """Projection matrices for one multi-head attention instance.

    ``wk`` is absent for the reformer (shared-QK: keys are the queries
    normalized to unit length); ``proj_p``/``proj_f`` exist only for the
    linformer.
    """

    wq: Tensor
    wv: Tensor
    wo: Tensor
    wk: Tensor | None = None
    proj_p: Tensor | None = None
    proj_f: Tensor | None = None

    def named(self, prefix):
        out = {prefix + ".wq": self.wq, prefix + ".wv": self.wv,
               prefix + ".wo": self.wo}
        if self.wk is not None:
            out[prefix + ".wk"] = self.wk
        if self.proj_p is not None:
            out[prefix + ".proj_p"] = self.proj_p
            out[prefix + ".proj_f"] = self.proj_f
        return out


def _uniform(rng, shape, fan_in):
    bound = 1.0 / math.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape))


def init_attention_weights(spec, feat_dim, rng):
    d = spec.d_model
    w = AttentionWeights(
        wq=_uniform(rng, (d, feat_dim), feat_dim),
        wv=_uniform(rng, (d, feat_dim), feat_dim),
        wo=_uniform(rng, (d, d), d),
    )
    if spec.variant != "reformer":
        w.wk = _uniform(rng, (d, feat_dim), feat_dim)
    if spec.variant == "linformer":
        w.proj_p = _uniform(rng, (spec.max_len, spec.proj_len), spec.max_len)
        w.proj_f = _uniform(rng, (spec.max_len, spec.proj_len), spec.max_len)
    return w


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
# per-head cores
#
# Each core receives one head's (dk, B*L) slices of Q/K/V, holding B
# independent length-L sequences side by side, and returns the head's
# (dk, B*L) output. Work that mixes positions runs batched over the
# sequences with bmm.

def _per_sequence(x, batch, length, axes):
    """(rows, B*L) -> the (rows, B, L) view permuted by ``axes``."""
    return nd.permute(nd.reshape(x, (-1, batch, length)), axes)


def _positions_last(x, batch, length):
    return _per_sequence(x, batch, length, (1, 0, 2))     # (B, rows, L)


def _features_last(x, batch, length):
    return _per_sequence(x, batch, length, (1, 2, 0))     # (B, L, rows)


def _flat_head(x):
    """(B, L, dk) per-sequence head output -> the flat (dk, B*L) map."""
    return nd.reshape(nd.permute(x, (2, 0, 1)), (x.shape[2], -1))


def _softmax_last(x):
    """Softmax over the last axis of a rank-3 tensor."""
    return nd.reshape(nd.softmax_rows(nd.reshape(x, (-1, x.shape[-1]))),
                      x.shape)


def _full_head(q, k, v, scale, batch, length, details):
    scores = nd.scale(nd.bmm(_features_last(q, batch, length),
                             _positions_last(k, batch, length)), scale)
    a = _softmax_last(scores)                             # (B, L, L)
    if details is not None:
        details["map"] = a.data.copy()
    out = nd.bmm(a, _features_last(v, batch, length))     # (B, L, dk)
    return _flat_head(out)


def longformer_allowed(length, window, global_stride):
    """Boolean (T x T) matrix of the realized longformer attention pattern."""
    half = (window - 1) // 2
    t = np.arange(length)
    allowed = np.abs(t[:, None] - t[None, :]) <= half
    if global_stride is not None:
        g = np.arange(0, length, global_stride)
        allowed[g, :] = True
        allowed[:, g] = True
    return allowed


def _longformer_masks(length, window, global_stride):
    """Constant additive masks and index arrays for the banded computation."""
    half = (window - 1) // 2
    t = np.arange(length)[:, None]
    src = t + np.arange(-half, half + 1)[None, :]        # (T, w) band targets
    in_range = (src >= 0) & (src < length)
    if global_stride is not None:
        globals_idx = np.arange(0, length, global_stride)
        dup = in_range & np.isin(src, globals_idx)
    else:
        globals_idx = np.zeros(0, dtype=np.intp)
        dup = np.zeros_like(in_range)
    band_mask = np.where(in_range & ~dup, 0.0, _HARD_MASK)
    src_clipped = np.clip(src, 0, length - 1)
    return half, src_clipped, band_mask, globals_idx


def _longformer_head(q, k, v, scale, spec, batch, length, masks, details):
    half, _, band_mask, gidx = masks
    w = spec.window
    ng = len(gidx)
    n = batch * length

    def windows(x, axes):
        # the w-wide band around every position of every sequence
        xp = nd.pad_cols(nd.reshape(x, (-1, length)), half, half)
        win = nd.reshape(nd.frame(xp, w, 1), (-1, batch, w, length))
        win = nd.permute(win, axes)                       # (B, L, ., .)
        return nd.reshape(win, (n,) + win.shape[2:])

    def globals_of(x):
        cols = nd.gather_cols(nd.reshape(x, (-1, length)), gidx)
        return nd.permute(nd.reshape(cols, (-1, batch, ng)), (1, 0, 2))

    qt = _features_last(q, batch, length)                 # (B, L, dk)
    loc = nd.bmm(windows(k, (1, 3, 2, 0)),                # (B*L, w, dk)
                 nd.reshape(qt, (n, -1, 1)))              # (B*L, w, 1)
    loc = nd.add(nd.reshape(nd.scale(loc, scale), (n, w)),
                 Tensor(np.tile(band_mask, (batch, 1))))
    if ng:
        sg = nd.scale(nd.bmm(qt, globals_of(k)), scale)   # (B, L, g)
        scores = nd.concat([loc, nd.reshape(sg, (n, ng))], axis=1)
    else:
        scores = loc
    a = nd.softmax_rows(scores)                           # (B*L, w [+ g])

    a_loc3 = nd.reshape(nd.slice_cols(a, 0, w), (n, w, 1))
    out = nd.bmm(windows(v, (1, 3, 0, 2)), a_loc3)        # (B*L, dk, 1)
    out = nd.permute(nd.reshape(out, (batch, length, -1)), (2, 0, 1))
    if details is not None:
        details["map"] = a.data.reshape(batch, length, -1).copy()
    if ng:
        ag = nd.permute(nd.reshape(nd.slice_cols(a, w, w + ng),
                                   (batch, length, ng)), (0, 2, 1))
        out = nd.add(out, nd.permute(nd.bmm(globals_of(v), ag), (1, 0, 2)))
        # rows at global positions instead attend to everything
        sgr = nd.scale(nd.bmm(nd.permute(globals_of(q), (0, 2, 1)),
                              _positions_last(k, batch, length)),
                       scale)                             # (B, g, L)
        agr = _softmax_last(sgr)
        outg = nd.bmm(agr, _features_last(v, batch, length))  # (B, g, dk)
        outg = nd.reshape(nd.permute(outg, (2, 0, 1)), (-1, ng))
        outg = nd.reshape(nd.scatter_cols(outg, gidx, length), out.shape)
        keep = np.ones(length)
        keep[gidx] = 0.0
        out = nd.add(nd.scale_cols(out, Tensor(keep)), outg)
        if details is not None:
            details["global_rows"] = agr.data.copy()
    return nd.reshape(out, (-1, n))


def _linformer_head(q, k, v, scale, spec, batch, length, weights, details):
    def project(x, proj, axes):
        # each sequence's length-L rows onto the proj_len slots
        p = nd.matmul(nd.reshape(x, (-1, length)), nd.slice_rows(proj, 0,
                                                                 length))
        return nd.permute(nd.reshape(p, (-1, batch, spec.proj_len)), axes)

    scores = nd.scale(nd.bmm(_features_last(q, batch, length),
                             project(k, weights.proj_p, (1, 0, 2))),
                      scale)                              # (B, L, k)
    a = _softmax_last(scores)
    if details is not None:
        details["map"] = a.data.copy()
    out = nd.bmm(a, project(v, weights.proj_f, (1, 2, 0)))  # (B, L, dk)
    return _flat_head(out)


def hash_buckets(vectors, n_buckets, rotation):
    """Angular LSH: bucket ids for unit column vectors under one rotation.

    ``vectors`` is (d, T) and ``rotation`` (d, n_buckets / 2), or both
    carry a leading batch axis (a batch of one rotation is shared). The
    bucket is the argmax over the concatenated [proj, -proj] coordinates.
    """
    proj = np.swapaxes(vectors, -1, -2) @ rotation        # (..., T, nb/2)
    both = np.concatenate([proj, -proj], axis=-1)
    assert both.shape[-1] == n_buckets
    return np.argmax(both, axis=-1)


def _reformer_round_mask(n_chunks, m, length):
    """Additive mask for chunked shared-QK attention in sorted coordinates.

    Keys beyond the real sequence (padding) and the missing look-back of
    chunk 0 are removed outright; a position's own slot is soft-masked so
    it only wins when nothing else is attendable.
    """
    csel = np.arange(n_chunks)[:, None, None]
    qpos = csel * m + np.arange(m)[None, :, None]          # (nch, m, 1)
    kpos = np.concatenate([(csel - 1) * m + np.arange(m)[None, None, :],
                           csel * m + np.arange(m)[None, None, :]], axis=2)
    valid = (kpos >= 0) & (kpos < length)
    self_slot = kpos == qpos
    return np.where(~valid, _HARD_MASK,
                    np.where(self_slot, _SOFT_MASK, 0.0))


def _previous_chunk(x):
    """(B, nch, ...) chunks -> each chunk's predecessor in its own
    sequence, zeros before the first."""
    b, n_chunks = x.shape[:2]
    per = x.size // (b * n_chunks)
    flat = nd.slice_cols(nd.reshape(x, (b, n_chunks * per)), 0,
                         (n_chunks - 1) * per)
    return nd.reshape(nd.pad_cols(flat, per, 0), x.shape)


def _reformer_head(q, v, scale, spec, batch, length, rotations, details):
    dk = spec.d_head
    m = spec.bucket_chunk
    n_chunks = -(-length // m)
    padded = n_chunks * m
    n = batch * length
    kq = nd.unit_columns(q)
    mask = Tensor(np.tile(_reformer_round_mask(n_chunks, m, length),
                          (batch, 1, 1)))
    starts = np.arange(batch)[:, None] * length           # sequence offsets

    round_outs = []
    round_lses = []
    for r in range(spec.n_rounds):
        buckets = hash_buckets(kq.data.reshape(dk, batch, length)
                               .transpose(1, 0, 2), spec.n_buckets,
                               rotations[r])              # (B, L)
        order = np.argsort(buckets, axis=1, kind="stable")
        flat_order = (starts + order).reshape(-1)

        def sorted_chunks(x, axes):
            # each sequence in bucket order, padded to whole chunks
            xs = nd.reshape(nd.gather_cols(x, flat_order), (dk, batch, length))
            xs = nd.pad_cols(xs, 0, padded - length)
            return nd.permute(nd.reshape(xs, (dk, batch, n_chunks, m)), axes)

        def unsort(x):
            # (rows, B, padded) sorted -> (rows, B*L) in position order
            x = nd.reshape(nd.slice_cols(x, 0, length), (x.shape[0], n))
            return nd.scatter_cols(x, flat_order, n)

        qc = nd.reshape(sorted_chunks(q, (1, 2, 3, 0)),
                        (batch * n_chunks, m, dk))
        kc = sorted_chunks(kq, (1, 2, 0, 3))              # (B, nch, dk, m)
        vc = sorted_chunks(v, (1, 2, 3, 0))               # (B, nch, m, dk)
        kcc = nd.reshape(nd.concat([_previous_chunk(kc), kc], axis=3),
                         (batch * n_chunks, dk, 2 * m))
        vcc = nd.reshape(nd.concat([_previous_chunk(vc), vc], axis=2),
                         (batch * n_chunks, 2 * m, dk))

        scores = nd.add(nd.scale(nd.bmm(qc, kcc), scale), mask)
        flat = nd.reshape(scores, (batch * padded, 2 * m))
        a = nd.softmax_rows(flat)
        lse = nd.logsumexp_rows(flat)                     # (B*padded,)
        outc = nd.bmm(nd.reshape(a, (batch * n_chunks, m, 2 * m)), vcc)
        outs = nd.permute(nd.reshape(outc, (batch, padded, dk)), (2, 0, 1))
        round_outs.append(unsort(outs))
        round_lses.append(unsort(nd.reshape(lse, (1, batch, padded))))
        if details is not None:
            details.setdefault("rounds", []).append({
                "buckets": buckets.copy(),
                "map": a.data.reshape(batch, n_chunks, m, 2 * m).copy(),
            })

    if spec.n_rounds == 1:
        return round_outs[0]
    lses = nd.concat(round_lses, axis=0)                  # (R, B*L)
    weights = nd.transpose(nd.softmax_rows(nd.transpose(lses)))
    out = None
    for r in range(spec.n_rounds):
        wr = nd.reshape(nd.slice_rows(weights, r, r + 1), (n,))
        term = nd.scale_cols(round_outs[r], wr)
        out = term if out is None else nd.add(out, term)
    return out


# ---------------------------------------------------------------------------
# dispatch

def _reformer_rotations(seed, spec):
    """One (d_head, n_buckets / 2) rotation per hash round, from ``seed``."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return [rng.standard_normal((spec.d_head, spec.n_buckets // 2))
            for _ in range(spec.n_rounds)]


def _unbatched(details):
    """Per-head diagnostics of a batch of one, without the batch axis."""
    if isinstance(details, dict):
        return {key: _unbatched(value) for key, value in details.items()}
    if isinstance(details, list):
        return [_unbatched(value) for value in details]
    return details[0]


def multi_head_dispatch(x, weights, spec, seed=0, details=None):
    """Project, run the variant core per head, concatenate, recombine.

    ``x`` is one (F, T) map or a batch (F, B, L) of B independent length-L
    sequences, and the output has the same layout. The projections run
    once over all positions; each head's core runs batched over the
    sequences. ``seed`` only matters for the reformer, whose LSH rotations
    are drawn per call from it: one int shared by every sequence, or one
    per sequence. Equal seeds give bit-identical outputs. When ``details``
    is a dict it is filled with per-head diagnostics (attention maps,
    bucket assignments), which lead with the sequence axis for batched
    input.
    """
    x = nd.as_tensor(x)
    if x.data.ndim == 2:
        batch, length = 1, x.shape[1]
        flat = x
    elif x.data.ndim == 3:
        batch, length = x.shape[1], x.shape[2]
        flat = nd.reshape(x, (x.shape[0], batch * length))
    else:
        raise nd.ShapeError("attention expects (F, T) or (F, B, L), got %r"
                            % (x.shape,))
    dk = spec.d_head
    scale = 1.0 / math.sqrt(dk)

    if spec.variant == "linformer" and length > spec.max_len:
        raise SequenceTooLongError(
            "sequence length %d exceeds projection size %d"
            % (length, spec.max_len))

    q = nd.matmul(weights.wq, flat)
    v = nd.matmul(weights.wv, flat)
    k = nd.matmul(weights.wk, flat) if weights.wk is not None else None

    masks = None
    if spec.variant == "longformer":
        masks = _longformer_masks(length, spec.window, spec.global_stride)
    rotations = None
    if spec.variant == "reformer":
        seeds = [seed] if np.ndim(seed) == 0 else list(seed)
        if len(seeds) not in (1, batch):
            raise ValueError("%d seeds for %d sequences"
                             % (len(seeds), batch))
        per_seq = [_reformer_rotations(s, spec) for s in seeds]
        rotations = [np.stack(rounds) for rounds in zip(*per_seq)]

    heads = []
    head_details = [] if details is not None else None
    for i in range(spec.heads):
        qi = nd.slice_rows(q, i * dk, (i + 1) * dk)
        vi = nd.slice_rows(v, i * dk, (i + 1) * dk)
        ki = nd.slice_rows(k, i * dk, (i + 1) * dk) if k is not None else None
        hd = {} if details is not None else None
        if spec.variant == "full":
            head = _full_head(qi, ki, vi, scale, batch, length, hd)
        elif spec.variant == "longformer":
            head = _longformer_head(qi, ki, vi, scale, spec, batch, length,
                                    masks, hd)
        elif spec.variant == "linformer":
            head = _linformer_head(qi, ki, vi, scale, spec, batch, length,
                                   weights, hd)
        else:
            head = _reformer_head(qi, vi, scale, spec, batch, length,
                                  rotations, hd)
        heads.append(head)
        if head_details is not None:
            head_details.append(hd if x.data.ndim == 3 else _unbatched(hd))

    cat = heads[0] if spec.heads == 1 else nd.concat(heads, axis=0)
    out = nd.matmul(weights.wo, cat)
    if details is not None:
        details["heads"] = head_details
    if x.data.ndim == 3:
        out = nd.reshape(out, (out.shape[0], batch, length))
    return out


def _variant_entry(variant):
    def op(x, weights, spec, seed=0, details=None):
        if spec.variant != variant:
            raise ValueError("spec variant is %r, expected %r"
                             % (spec.variant, variant))
        return multi_head_dispatch(x, weights, spec, seed=seed,
                                   details=details)
    op.__name__ = variant + "_attention"
    return op


full_attention = _variant_entry("full")
longformer_attention = _variant_entry("longformer")
linformer_attention = _variant_entry("linformer")
reformer_attention = _variant_entry("reformer")


# ---------------------------------------------------------------------------
# cost model

def attention_core_macs(spec, length):
    """MACs of the per-head attention cores (all heads), excluding the
    Q/K/V/O projections. Mirrors the matmul/bmm calls of the forward pass
    exactly, so an instrumented count of the same ops matches it.
    """
    dk = spec.d_head
    h = spec.heads
    t = length
    if spec.variant == "full":
        per_head = 2 * t * t * dk
    elif spec.variant == "longformer":
        per_head = 2 * t * spec.window * dk
        if spec.global_stride is not None:
            g = len(range(0, t, spec.global_stride))
            per_head += 4 * t * g * dk
    elif spec.variant == "linformer":
        per_head = 4 * t * spec.proj_len * dk
    else:
        m = spec.bucket_chunk
        n_chunks = -(-t // m)
        per_head = spec.n_rounds * 2 * (n_chunks * m * dk * 2 * m)
    return h * per_head


def projection_macs(spec, feat_dim, length):
    """MACs of the Q/K/V projections plus the output recombination."""
    d = spec.d_model
    n_proj = 2 if spec.variant == "reformer" else 3
    return n_proj * d * feat_dim * length + d * d * length
