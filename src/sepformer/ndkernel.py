"""Dense float64 arrays with a recording tape for reverse-mode gradients.

Every op is a pure function: it computes a fresh output array and, when a
:class:`Tape` is active, records a closure that maps the output gradient
back to input gradients. Replaying the records in strict reverse execution
order yields gradients for any recorded array; arrays that never influenced
the output get exactly-zero gradients. A tape replays once: the replay
drops each record once it has run it, so forward arrays go back to the
allocator during the backward pass instead of all at its end.

One layout serves every map: axis 0 is the features, the last axis is
the sequence, and any axis between is the batch, so (F, L) is one
sequence and (F, B, L) is B of them. Ops read the batch off the shape,
and each allocates its output in its final shape, so the output owns its
buffer.

Work outside the products is kept to few passes: a linear layer is one
:func:`matmul`, whose bias and rectifier run in place on the product's
fresh buffer; the transformer's feed-forward, both linears and the
rectifier between them, is one :func:`feed_forward` op that reads its
weights stored (in, out) through transposed views; :func:`layer_norm`
centres once and normalizes that buffer in place. The dual path's
50%-overlap framing is one op each way: :func:`frame` pads the map
itself, and :func:`overlap_mean` averages the windows and trims the
padding. A whole attention core (scores, an optional constant logit bias,
row softmax, weighted values) is one :func:`attention` op that reads its
head-major maps through strided views; the reformer's chunked LSH core is
one :func:`lsh_attention` op on the same head-major maps, which makes its
unit keys, hashes and sorts every round, and reads each chunk's keys
through overlapping views.

Three ops bound their scratch on long inputs: :func:`feed_forward` runs in
blocks of at most ``_GROUP_POSITIONS`` positions, :func:`attention` and
:func:`lsh_attention` in blocks of heads or chunks whose scores fit
``_GROUP_SCORE_BYTES``. Under a tape they fill the whole maps the record
keeps for its backward; without one every block reuses one block's
buffers, so a forward with no tape holds only its live maps and one
block. Slices along axis 0 are views.

Ops see the active instruments through one object, ``_ACTIVE``, with one
slot each; an empty slot costs one attribute test per op:

* ``tape``   -- gradient recording (``with Tape()``, single owner per step)
* ``arena``  -- live tensor bytes and their peak (``track_memory()``)
* ``macs``   -- multiply-accumulates of matmul-like ops (``record_macs()``)
* ``finite`` -- all-finite check of every new tensor (``set_debug_checks``)

Every op reports to them through one hook, :func:`_record`.
"""

from __future__ import annotations

import math
import weakref
from contextlib import contextmanager

import numpy as np

__all__ = [
    "Tensor", "Tape", "ShapeError", "InputTooShortError",
    "set_debug_checks", "track_memory", "AllocationArena",
    "record_macs", "MacCounter", "DIFFERENTIABLE_OPS",
    "matmul", "feed_forward", "permute", "reshape", "concat",
    "slice_axis", "gather_cols",
    "frame", "overlap_mean", "padded_chunk_geometry",
    "add", "mul", "prelu", "layer_norm",
    "conv1d", "conv1d_transpose", "dot", "attention", "lsh_attention",
    "hash_buckets",
]


class ShapeError(ValueError):
    """Operand shapes do not satisfy an op's contract."""


class InputTooShortError(ShapeError):
    """Signal shorter than the convolution kernel."""


# ---------------------------------------------------------------------------
# instruments

class _Instruments:
    """The instruments ops report to; ``None`` (or False) leaves one off."""

    __slots__ = ("tape", "arena", "macs", "finite")

    def __init__(self):
        self.tape = self.arena = self.macs = None
        self.finite = False


_ACTIVE = _Instruments()


def set_debug_checks(enabled):
    """Toggle the all-finite assertion applied to every new tensor."""
    _ACTIVE.finite = bool(enabled)


@contextmanager
def _installed(slot, instrument):
    """Install ``instrument`` in ``slot`` for the block, shadowing the one
    there, and hand that one back on exit."""
    prev = getattr(_ACTIVE, slot)
    setattr(_ACTIVE, slot, instrument)
    try:
        yield instrument
    finally:
        setattr(_ACTIVE, slot, prev)


class AllocationArena:
    """Live-byte counter for tensor payloads; ``peak`` is the high-water mark.

    A tensor's buffer, the base array its data views or the data itself,
    is counted once, from the first tensor that owns it until the
    interpreter frees the buffer, so the peak reflects what is
    simultaneously alive under CPython's deterministic refcounting. A view
    that outlives the tensor owning its buffer (e.g. a reshape) keeps the
    buffer counted; views of one buffer are not counted twice. A view of a
    buffer no tensor made inside the arena owns, such as a slice of a
    parameter, adds no bytes and is not counted. Scratch an op frees
    before it returns, such as a feed-forward block without a tape, is
    not a tensor and is not counted either; what a tape record keeps is.
    """

    def __init__(self):
        self.current = 0
        self.peak = 0
        self._held = set()          # ids of the buffers counted and alive

    def _register(self, tensor):
        buf = tensor.data
        while isinstance(buf.base, np.ndarray):
            buf = buf.base
        if id(buf) in self._held or buf is not tensor.data:
            return
        self._held.add(id(buf))
        self.current += buf.nbytes
        if self.current > self.peak:
            self.peak = self.current
        weakref.finalize(buf, self._release, id(buf), buf.nbytes)

    def _release(self, key, n):
        self._held.discard(key)
        self.current -= n


def track_memory():
    """Route tensor allocations through a fresh counting arena."""
    return _installed("arena", AllocationArena())


class MacCounter:
    """Multiply-accumulates of matmul-like ops, summed in ``total``."""

    def __init__(self):
        self.total = 0


def record_macs():
    """Count MACs of every matmul, attention and conv executed inside the
    block."""
    return _installed("macs", MacCounter())


# ---------------------------------------------------------------------------
# tensor and tape

class Tensor:
    """Dense row-major float64 array; the unit all model math runs on."""

    __slots__ = ("data", "__weakref__")

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        active = _ACTIVE
        if active.finite and not np.all(np.isfinite(arr)):
            raise FloatingPointError(
                "non-finite values in tensor of shape %r" % (arr.shape,))
        if active.arena is not None:
            active.arena._register(self)

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return self.data.item()

    def __repr__(self):
        return "Tensor(shape=%r)" % (self.data.shape,)


class Tape:
    """Execution-ordered op record; reverse replay computes gradients.

    Single owner: one step records and replays on one worker. Gradients of
    arrays the output never depended on are exactly zero. A tape replays
    once, dropping each record as it passes it.
    """

    def __init__(self):
        self._records = []
        self._replayed = False

    def __enter__(self):
        if _ACTIVE.tape is not None:
            raise RuntimeError("a tape is already recording")
        _ACTIVE.tape = self
        return self

    def __exit__(self, *exc):
        _ACTIVE.tape = None
        return False

    def gradient(self, output, sources):
        """Gradients of scalar ``output`` for each tensor in ``sources``.

        Consumes the tape; a second call raises ``RuntimeError``.
        """
        if self._replayed:
            raise RuntimeError("this tape was already replayed")
        if output.size != 1:
            raise ShapeError("gradient needs a scalar output, got shape %r"
                             % (output.shape,))
        self._replayed = True
        sources = list(sources)
        grads = {id(output): np.ones_like(output.data)}
        keep = {id(s) for s in sources}
        keep.add(id(output))
        records = self._records
        while records:
            out, inputs, backward = records.pop()
            g = grads.get(id(out))
            if g is None:
                continue
            for t, gi in zip(inputs, backward(g)):
                if gi is None:
                    continue
                acc = grads.get(id(t))
                grads[id(t)] = gi if acc is None else acc + gi
            if id(out) not in keep:
                del grads[id(out)]
        return [grads[id(s)] if id(s) in grads else np.zeros_like(s.data)
                for s in sources]


def _record(out, inputs, backward, macs=0):
    """The one per-op hook: ``out`` was computed from ``inputs`` with
    ``macs`` multiply-accumulates; ``backward`` maps its gradient to theirs."""
    active = _ACTIVE
    if macs and active.macs is not None:
        active.macs.total += macs
    if active.tape is not None:
        active.tape._records.append((out, inputs, backward))


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


# Work bounds of the ops that run in blocks. Most positions one
# feed-forward block, or one batched stack call of the dual path, holds;
# the dual path groups whole sequences up to it and never splits one, so a
# longer sequence runs alone.
_GROUP_POSITIONS = 1024
# Most score-map bytes one block of heads of the attention op, or one
# block of chunks of the LSH op, holds without a tape. The counterpart of
# ``_GROUP_POSITIONS``, chosen by a sweep of latency and peak memory over
# 2-16 MiB on the full-size forwards.
_GROUP_SCORE_BYTES = 4 * 2**20


# Names of the tape-aware ops with nontrivial backward rules; the gradcheck
# suite must cover each exactly once.
DIFFERENTIABLE_OPS = (
    "matmul", "feed_forward", "permute", "reshape", "concat",
    "slice_axis", "gather_cols",
    "frame", "overlap_mean",
    "add", "mul", "prelu", "layer_norm",
    "conv1d", "conv1d_transpose", "dot", "attention", "lsh_attention",
)


# ---------------------------------------------------------------------------
# linear algebra

def matmul(a, b, bias=None, relu=False):
    """Matrix product of a rank-2 ``a`` and a map ``b``, whose trailing
    axes the output keeps, with an optional epilogue.

    ``bias`` (one entry per output row) is added and then, with ``relu``,
    the rectifier applied, both in place on the product's own buffer: a
    linear layer is one op and one tape record.

    Backward: with dC masked by the rectifier, dA = dC @ B^T,
    dB = A^T @ dC and dbias = the row sums of dC.
    """
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim < 2 or ad.shape[1] != bd.shape[0]:
        raise ShapeError("matmul shapes incompatible: %r x %r"
                         % (ad.shape, bd.shape))
    m, k = ad.shape
    b2 = bd.reshape(k, -1)
    y = np.empty((m,) + bd.shape[1:])
    y2 = y.reshape(m, -1)
    np.matmul(ad, b2, out=y2)
    inputs = (a, b)
    if bias is not None:
        bias = as_tensor(bias)
        if bias.shape != (m,):
            raise ShapeError("bias %r does not match rows of %r"
                             % (bias.shape, y.shape))
        y2 += bias.data[:, None]
        inputs = (a, b, bias)
    if relu:
        np.maximum(y, 0.0, out=y)
    out = Tensor(y)

    def backward(g):
        if relu:
            g = g * (y > 0)
        g = g.reshape(m, -1)
        gb = (ad.T @ g).reshape(bd.shape)
        if bias is None:
            return g @ b2.T, gb
        return g @ b2.T, gb, g.sum(axis=1)

    _record(out, inputs, backward, macs=m * k * b2.shape[1])
    return out


def feed_forward(x, w1, b1, w2, b2):
    """Position-wise feed-forward network W2^T relu(W1^T x + b1) + b2 of
    a map ``x``, whose trailing axes the output keeps.

    The weights are stored (in, out), ``w1`` (F, H) and ``w2`` (H, F'),
    and read through transposed views. The N positions run in blocks of at
    most ``_GROUP_POSITIONS``: each block's hidden rows are rectified in
    place and multiplied straight into its columns of the output. Under a
    tape the blocks fill the whole (H, N) hidden map, which the record
    keeps; without one every block reuses one block-sized buffer, so the
    op's scratch is bounded whatever N is.

    One tape record, whose backward is closed form: with dH = W2 dY masked
    by the rectifier, dW2 = H dY^T, dW1 = x dH^T, dx = W1 dH, and the bias
    gradients are the row sums of dY and dH. Charges the MACs of the two
    products, (F + F') * H * N.
    """
    x, w1, b1, w2, b2 = (as_tensor(t) for t in (x, w1, b1, w2, b2))
    a1, a2 = w1.data.T, w2.data.T
    if (x.data.ndim < 2 or a1.ndim != 2 or a2.ndim != 2
            or a1.shape[1] != x.shape[0] or a2.shape[1] != a1.shape[0]
            or b1.shape != a1.shape[:1] or b2.shape != a2.shape[:1]):
        raise ShapeError("feed_forward cannot take x %r, w1 %r, b1 %r, "
                         "w2 %r, b2 %r" % (x.shape, w1.shape, b1.shape,
                                           w2.shape, b2.shape))
    xd = x.data.reshape(x.shape[0], -1)
    hid, n = a1.shape[0], xd.shape[1]
    taped = _ACTIVE.tape is not None
    step = _GROUP_POSITIONS
    y = np.empty((a2.shape[0],) + x.shape[1:])
    y2 = y.reshape(a2.shape[0], n)
    h = np.empty((hid, n if taped else min(n, step)))
    for start in range(0, n, step):
        stop = min(start + step, n)
        hb = h[:, start:stop] if taped else h[:, :stop - start]
        np.matmul(a1, xd[:, start:stop], out=hb)
        hb += b1.data[:, None]
        np.maximum(hb, 0.0, out=hb)
        yb = y2[:, start:stop]
        np.matmul(a2, hb, out=yb)
        yb += b2.data[:, None]
    out = Tensor(y)
    # the record keeps the hidden map: as a tensor, the arena counts it
    held = Tensor(h) if taped else None

    def backward(g):
        h = held.data
        g = g.reshape(len(g), n)
        gh = w2.data @ g
        gh *= h > 0
        return ((w1.data @ gh).reshape(x.shape), xd @ gh.T, gh.sum(axis=1),
                h @ g.T, g.sum(axis=1))

    macs = (a1.shape[1] + a2.shape[0]) * hid * n
    _record(out, (x, w1, b1, w2, b2), backward, macs=macs)
    return out


def permute(x, axes):
    """Reorder the axes of ``x`` in the order ``axes``."""
    x = as_tensor(x)
    axes = tuple(axes)
    try:
        out = Tensor(np.transpose(x.data, axes))
    except ValueError as exc:
        raise ShapeError("permute cannot reorder %r by axes %r"
                         % (x.shape, axes)) from exc
    inv = tuple(np.argsort(axes))
    _record(out, (x,), lambda g: (np.transpose(g, inv),))
    return out


def reshape(x, shape):
    x = as_tensor(x)
    old = x.shape
    try:
        out = Tensor(x.data.reshape(shape))
    except ValueError as exc:
        raise ShapeError("reshape cannot make %r into %r"
                         % (old, shape)) from exc
    _record(out, (x,), lambda g: (g.reshape(old),))
    return out


def concat(tensors, axis):
    tensors = [as_tensor(t) for t in tensors]
    try:
        out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    except ValueError as exc:
        raise ShapeError("concat cannot join %r along axis %r"
                         % ([t.shape for t in tensors], axis)) from exc
    offsets = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def backward(g):
        return tuple(np.ascontiguousarray(p)
                     for p in np.split(g, offsets, axis=axis))

    _record(out, tuple(tensors), backward)
    return out


def slice_axis(x, axis, start, stop):
    """Positions ``start:stop`` of ``axis``: on axis 0 a view, since the
    rows of a row-major map are contiguous, on any other axis a contiguous
    copy. Gradient scatters back into zeros."""
    x = as_tensor(x)
    shape = x.shape
    if not 0 <= axis < len(shape):
        raise ShapeError("slice_axis cannot slice %r on axis %r"
                         % (shape, axis))
    index = (slice(None),) * axis + (slice(start, stop),)
    out = Tensor(x.data[index] if axis == 0 else x.data[index].copy())

    def backward(g):
        gx = np.zeros(shape)
        gx[index] = g
        return (gx,)

    _record(out, (x,), backward)
    return out


def gather_cols(x, idx):
    """Select positions of ``x``, read flat over every axis after the
    first, by an index array of any shape: (rows, *idx.shape). Duplicates
    are allowed.

    Backward adds the gradient columns back in one pass per occurrence
    rank: pass r adds every column's (r+1)-th copy, whose targets are all
    distinct, so each column sums its copies in index order, the order
    (and the bits) of ``np.add.at``.
    """
    x = as_tensor(x)
    idx = np.asarray(idx, dtype=np.intp)
    shape = x.shape
    n = math.prod(shape[1:])
    if x.data.ndim < 2 or idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ShapeError("gather_cols cannot take %r with position "
                         "indices %r" % (shape, idx))
    flat = x.data.reshape(shape[0], n)
    out = Tensor(np.take(flat, idx, axis=1))

    def backward(g):
        order = np.argsort(idx, axis=None, kind="stable")
        cols = idx.ravel()[order]
        rank = np.arange(len(cols)) - np.searchsorted(cols, cols)
        g = g.reshape(len(g), -1)
        gx = np.zeros(flat.shape)
        for r in range(rank.max(initial=-1) + 1):
            picks = rank == r
            gx[:, cols[picks]] += g[:, order[picks]]
        return (gx.reshape(shape),)

    _record(out, (x,), backward)
    return out


def padded_chunk_geometry(length, size):
    """Padded length and window count for windows of even ``size`` every
    ``size / 2`` positions: the fewest windows that cover ``length``.

    The padded length is the smallest L >= size covering ``length`` with
    (L - size) divisible by the hop.
    """
    hop = size // 2
    n = 1 if length <= size else 1 + -(-(length - size) // hop)
    return (n + 1) * hop, n


def _check_even(op, size):
    if size < 2 or size % 2:
        raise ShapeError("%s needs an even window size >= 2, got %d"
                         % (op, size))


def _padded(x, n, hop):
    """(F, t) -> (F, n + 1, hop) hop blocks, zero past t."""
    blocks = np.zeros((x.shape[0], n + 1, hop))
    blocks.reshape(x.shape[0], -1)[:, :x.shape[1]] = x
    return blocks


def _trimmed(blocks, t):
    """(F, n + 1, hop) hop blocks -> a copy of their first t positions,
    (F, t); a copy even untrimmed, so the arena counts the buffer."""
    return blocks.reshape(len(blocks), -1)[:, :t].copy()


def _to_windows(blocks):
    """(F, n + 1, hop) hop blocks -> (F, 2 * hop, n) windows: window j is
    block j then block j + 1."""
    f, n, hop = blocks.shape[0], blocks.shape[1] - 1, blocks.shape[2]
    out = np.empty((f, 2 * hop, n))
    out[:, :hop] = blocks[:, :n].transpose(0, 2, 1)
    out[:, hop:] = blocks[:, 1:].transpose(0, 2, 1)
    return out


def _to_blocks(windows):
    """Sum (F, 2 * hop, n) windows onto (F, n + 1, hop) hop blocks: block j
    gets window j - 1's second half, then window j's first half, the
    order of a loop over windows."""
    f, size, n = windows.shape
    hop = size // 2
    blocks = np.zeros((f, n + 1, hop))
    blocks[:, 1:] += windows[:, hop:].transpose(0, 2, 1)
    blocks[:, :n] += windows[:, :hop].transpose(0, 2, 1)
    return blocks


def frame(x, size):
    """Split (F, T) into (F, size, n) windows every ``size / 2`` positions.

    The end is zero-padded to the fewest windows that cover T
    (:func:`padded_chunk_geometry`). Backward adds each window's halves
    back onto their positions and drops the padding.
    """
    x = as_tensor(x)
    _check_even("frame", size)
    if x.data.ndim != 2:
        raise ShapeError("frame expects (F, T), got %r" % (x.shape,))
    t = x.shape[1]
    _, n = padded_chunk_geometry(t, size)
    out = Tensor(_to_windows(_padded(x.data, n, size // 2)))
    _record(out, (x,), lambda g: (_trimmed(_to_blocks(g), t),))
    return out


def overlap_mean(x, length):
    """Invert :func:`frame`: (F, size, n) windows at hop ``size / 2`` ->
    (F, length), each position the mean of the windows covering it.

    The windows are summed, the hop blocks two windows cover (all but the
    first and the last) are halved, and the map is trimmed to ``length``,
    at most the (n + 1) * size / 2 positions the windows span.
    """
    x = as_tensor(x)
    if x.data.ndim != 3:
        raise ShapeError("overlap_mean expects (F, size, n), got %r"
                         % (x.shape,))
    _, size, n = x.shape
    _check_even("overlap_mean", size)
    if not 0 < length <= (n + 1) * size // 2:
        raise ShapeError("overlap_mean of %d windows of %d spans %d "
                         "positions, cannot give %d"
                         % (n, size, (n + 1) * size // 2, length))
    blocks = _to_blocks(x.data)
    blocks[:, 1:n] *= 0.5
    out = Tensor(_trimmed(blocks, length))

    def backward(g):
        blocks = _padded(g, n, size // 2)
        blocks[:, 1:n] *= 0.5
        return (_to_windows(blocks),)

    _record(out, (x,), backward)
    return out


# ---------------------------------------------------------------------------
# pointwise

def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError("add shapes differ: %r vs %r" % (a.shape, b.shape))
    out = Tensor(a.data + b.data)
    _record(out, (a, b), lambda g: (g, g))
    return out


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError("mul shapes differ: %r vs %r" % (a.shape, b.shape))
    out = Tensor(a.data * b.data)
    ad, bd = a.data, b.data
    _record(out, (a, b), lambda g: (g * bd, g * ad))
    return out


def prelu(x, slope):
    """Leaky rectifier with a learned per-feature slope (feature axis 0).

    y = min(x, 0) * slope + max(x, 0), in whole-array passes: a masked
    in-place multiply runs numpy's branchy ``where=`` loop, several times
    slower and no more exact.
    """
    x, slope = as_tensor(x), as_tensor(slope)
    if slope.data.ndim != 1 or slope.shape[0] != x.shape[0]:
        raise ShapeError("prelu slope %r does not match features of %r"
                         % (slope.shape, x.shape))
    sd = slope.data.reshape((-1,) + (1,) * (x.data.ndim - 1))
    xd = x.data
    neg = xd < 0
    y = np.minimum(xd, 0.0)
    y *= sd
    y += np.maximum(xd, 0.0)
    out = Tensor(y)
    axes = tuple(range(1, xd.ndim))

    def backward(g):
        gneg = g * neg
        gs = gneg * xd
        gx = gneg * sd
        gx += g - gneg
        return gx, np.asarray(gs.sum(axis=axes) if axes else gs)

    _record(out, (x, slope), backward)
    return out


# under the square root of every layer norm, so constant inputs map to the
# bias
_NORM_EPS = 1e-5


def layer_norm(x, gain, bias):
    """Normalize each position to zero mean / unit variance over the
    features (axis 0), then affine.

    ``gain`` and ``bias`` have one entry per feature. Variance is the
    population variance, with 1e-5 added under the square root.
    """
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    if x.data.ndim < 2:
        raise ShapeError("layer_norm needs a map of rank >= 2, features "
                         "first, got %r" % (x.shape,))
    n = x.shape[0]
    if gain.shape != (n,) or bias.shape != (n,):
        raise ShapeError("layer_norm gain %r / bias %r do not match %d "
                         "features" % (gain.shape, bias.shape, n))
    bshape = (n,) + (1,) * (x.data.ndim - 1)
    gd = gain.data.reshape(bshape)
    # centre once; the variance is the mean square of the centred map, and
    # the centred buffer is normalized in place into xhat
    xhat = x.data - x.data.mean(axis=0, keepdims=True)
    out = np.square(xhat)
    inv = 1.0 / np.sqrt(out.mean(axis=0, keepdims=True) + _NORM_EPS)
    xhat *= inv
    np.multiply(xhat, gd, out=out)
    out += bias.data.reshape(bshape)
    out = Tensor(out)
    other = tuple(range(1, x.data.ndim))

    def backward(g):
        dxhat = g * gd
        gx = g * xhat
        dgain = gx.sum(axis=other)
        dbias = g.sum(axis=other)
        m1 = dxhat.mean(axis=0, keepdims=True)
        np.multiply(dxhat, xhat, out=gx)
        m2 = gx.mean(axis=0, keepdims=True)
        # dx = inv * (dxhat - m1 - xhat * m2), in the two buffers above
        np.multiply(xhat, m2, out=gx)
        dxhat -= m1
        dxhat -= gx
        dxhat *= inv
        return dxhat, dgain.reshape(-1), dbias.reshape(-1)

    _record(out, (x, gain, bias), backward)
    return out


# ---------------------------------------------------------------------------
# convolution pair

def conv1d(x, filters, stride, relu=False):
    """Valid convolution of a mono signal with (F, 1, Kw) filters -> (F, T').

    T' = floor((T - Kw) / stride) + 1; no implicit padding. With ``relu``
    the rectifier runs in place on the product's own buffer, as in
    :func:`matmul`.
    """
    x, filters = as_tensor(x), as_tensor(filters)
    if x.data.ndim != 1:
        raise ShapeError("conv1d expects a 1-d signal, got %r" % (x.shape,))
    if filters.data.ndim != 3 or filters.shape[1] != 1:
        raise ShapeError("conv1d filters must be (F, 1, Kw), got %r"
                         % (filters.shape,))
    if stride < 1:
        raise ShapeError("conv1d needs a stride >= 1, got %d" % stride)
    t = x.shape[0]
    f, _, kw = filters.shape
    if t < kw:
        raise InputTooShortError(
            "signal length %d shorter than kernel %d" % (t, kw))
    tp = (t - kw) // stride + 1
    w2 = filters.data.reshape(f, kw)
    frames = np.lib.stride_tricks.sliding_window_view(x.data, kw)[::stride]
    y = w2 @ frames.T
    if relu:
        np.maximum(y, 0.0, out=y)
    out = Tensor(y)

    def backward(g):
        if relu:
            g = g * (y > 0)
        gw = (g @ frames).reshape(f, 1, kw)
        gframes = w2.T @ g
        gx = np.zeros(t)
        for k in range(kw):
            gx[k:k + stride * (tp - 1) + 1:stride] += gframes[k]
        return gx, gw

    _record(out, (x, filters), backward, macs=f * kw * tp)
    return out


def conv1d_transpose(x, filters, stride, length):
    """Adjoint of :func:`conv1d`: (F, T') feature map -> signal of
    ``length``, using the same (F, 1, Kw) filters.

    The frames cover the first t = (T' - 1) * stride + Kw samples; the rest
    of the signal is zero. A ``length`` below t is refused.
    """
    x, filters = as_tensor(x), as_tensor(filters)
    if x.data.ndim != 2:
        raise ShapeError("conv1d_transpose expects (F, T'), got %r"
                         % (x.shape,))
    if filters.data.ndim != 3 or filters.shape[1] != 1:
        raise ShapeError("conv1d_transpose filters must be (F, 1, Kw), got %r"
                         % (filters.shape,))
    f, tp = x.shape
    if filters.shape[0] != f:
        raise ShapeError("filters %r do not match feature map %r"
                         % (filters.shape, x.shape))
    if stride < 1:
        raise ShapeError("conv1d_transpose needs a stride >= 1, got %d"
                         % stride)
    kw = filters.shape[2]
    t = (tp - 1) * stride + kw
    if length < t:
        raise ShapeError("conv1d_transpose of %d frames needs length >= %d, "
                         "got %d" % (tp, t, length))
    w2 = filters.data.reshape(f, kw)
    contrib = w2.T @ x.data
    buf = np.zeros(length)
    for k in range(kw):
        buf[k:k + stride * (tp - 1) + 1:stride] += contrib[k]
    out = Tensor(buf)
    xd = x.data

    def backward(g):
        gcontrib = np.lib.stride_tricks.sliding_window_view(
            g[:t], kw)[::stride].T
        gw = (xd @ gcontrib.T).reshape(f, 1, kw)
        gx = w2 @ gcontrib
        return gx, gw

    _record(out, (x, filters), backward, macs=f * kw * tp)
    return out


# ---------------------------------------------------------------------------
# the one reduction

def dot(a, b):
    """Inner product of two equal-shape tensors, as a 0-d tensor.

    One tape record; backward is ``(g * b, g * a)``.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError("dot shapes differ: %r vs %r" % (a.shape, b.shape))
    ad, bd = a.data, b.data
    out = Tensor(np.asarray((ad * bd).sum()))
    _record(out, (a, b), lambda g: (g * bd, g * ad))
    return out


# ---------------------------------------------------------------------------
# the attention core

def _batch(heads, q, *others):
    """B of head-major (heads*dk, [B,] L) maps that differ from ``q`` only
    in L, or None for maps outside that layout."""
    if (q.data.ndim in (2, 3) and heads >= 1 and not q.shape[0] % heads
            and all(t.shape[:-1] == q.shape[:-1] for t in others)):
        return math.prod(q.shape[1:-1])
    return None


def attention(q, k, v, heads, scale, bias=None):
    """softmax(scale * Q^T K + bias) V of ``heads`` heads of every sequence.

    ``q`` is a head-major (heads*dk, Lq) map of one sequence or
    (heads*dk, B, Lq) of B: rows h*dk..(h+1)*dk are head h. ``k`` and
    ``v`` hold Lk keys of the same sequences in the same order. A ``bias``
    is a constant (P, Lq, Lk) array of logits: sequence b of every head
    gets ``bias[b % P]``, and -1e30 removes a key. The scores come from
    BLAS on strided views of the maps, the row softmax runs in place on
    the score buffer, and the output is written straight into a map of
    ``q``'s shape. Without a tape the heads run in blocks whose maps fit
    ``_GROUP_SCORE_BYTES`` (at least one head) in one block's buffer;
    under a tape one block holds them all, and its (heads*B, Lq, Lk)
    softmax map is a tensor the record keeps. Returns the output.

    One tape record, whose backward is closed form: with dA = dO V and
    dS = A * (dA - rowsum(dA * A)), dV = dO^T A, dQ = scale K dS^T and
    dK = scale Q dS. Charges 2*heads*B*Lq*Lk*dk MACs.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    batch = _batch(heads, q, k, v)
    rows, lq, lk = q.shape[0], q.shape[-1], k.shape[-1]
    if batch is None or k.shape != v.shape or bias is not None and (
            bias.shape[1:] != (lq, lk) or not len(bias) or batch % len(bias)):
        raise ShapeError("attention of %d heads cannot take q %r, k %r, "
                         "v %r, bias %r" % (heads, q.shape, k.shape, v.shape,
                                            getattr(bias, "shape", None)))
    dk = rows // heads

    def per_sequence(x, length):
        # (heads*dk, [batch,] length) -> the (heads, batch, dk, length) view
        return x.reshape(heads, dk, batch, length).transpose(0, 2, 1, 3)

    qd, kd, vd = per_sequence(q.data, lq), per_sequence(k.data, lk), \
        per_sequence(v.data, lk)
    step = heads if _ACTIVE.tape is not None else min(
        heads, max(1, _GROUP_SCORE_BYTES // (8 * batch * lq * lk)))
    # the map is its own buffer (not a view), so the arena counts it
    amap = np.empty((step * batch, lq, lk))
    y = np.empty(q.shape)
    for h0 in range(0, heads, step):
        hs = slice(h0, min(h0 + step, heads))
        a = amap[:(hs.stop - h0) * batch].reshape(-1, batch, lq, lk)
        np.matmul((qd[hs] * scale).swapaxes(2, 3), kd[hs], out=a)
        if bias is not None:
            runs = a.reshape((len(a), -1) + bias.shape)
            runs += bias
        a -= a.max(axis=-1, keepdims=True)
        np.exp(a, out=a)
        a /= a.sum(axis=-1, keepdims=True)
        np.matmul(vd[hs], a.swapaxes(2, 3), out=per_sequence(y, lq)[hs])
    out = Tensor(y)
    # wrapped once filled: the finite check reads every entry
    weights = Tensor(amap)

    def backward(g):
        # read through the Tensor: the arena counts the map while the
        # record holds it
        a = weights.data.reshape(heads, batch, lq, lk)
        gd = per_sequence(g, lq)                          # dO^T
        gv = np.empty(v.shape)
        np.matmul(gd, a, out=per_sequence(gv, lk))
        ds = np.matmul(gd.swapaxes(2, 3), vd)             # dA
        ds -= (ds * a).sum(axis=-1, keepdims=True)
        ds *= a
        gq = np.empty(q.shape)
        np.matmul(kd, ds.swapaxes(2, 3), out=per_sequence(gq, lq))
        gq *= scale
        gk = np.empty(k.shape)
        np.matmul(qd, ds, out=per_sequence(gk, lk))
        gk *= scale
        return gq, gk, gv

    _record(out, (q, k, v), backward, macs=2 * heads * batch * lq * lk * dk)
    return out


# Logit biases of the LSH core: a removed key gets exactly zero weight; a
# position's own key wins only when nothing else is attendable.
_REMOVED = -1e30
_OWN_KEY = 1e5


def hash_buckets(vectors, rotation):
    """Angular LSH: bucket ids for unit column vectors under one rotation.

    ``vectors`` is (d, T) and ``rotation`` (d, n_buckets / 2), or both
    carry leading batch axes that broadcast. The bucket is the argmax over
    the coordinates [p, -p] of the projection p, taken as argmax(p) where
    max(p) >= -min(p) and n_buckets / 2 + argmin(p) elsewhere: the same
    ids, ties included, without building [p, -p]. The extremes are read
    at the two arg indices, which beats two more reductions over the
    short last axis.
    """
    half = rotation.shape[-1]
    proj = np.swapaxes(vectors, -1, -2) @ rotation        # (..., T, nb/2)
    up, down = proj.argmax(axis=-1), proj.argmin(axis=-1)
    top = np.take_along_axis(proj, up[..., None], axis=-1)[..., 0]
    low = np.take_along_axis(proj, down[..., None], axis=-1)[..., 0]
    return np.where(top >= -low, up, half + down)


def lsh_attention(q, v, rotations, heads, chunk, scale):
    """Chunked shared-QK LSH attention of ``heads`` heads of every sequence.

    ``q`` and ``v`` are head-major maps of one or B sequences of length L,
    as in :func:`attention`; the keys are the unit queries, q /
    sqrt(sum(q^2) + 1e-12) per column. ``rotations`` holds one (B or 1,
    dk, n_buckets / 2) array per round, shared by a sequence's heads: each
    round hashes the keys (:func:`hash_buckets`), sorts every sequence
    stably by bucket and cuts it into ``chunk``-wide chunks whose queries
    (times ``scale``) attend to their own chunk and the one before; a
    sequence of L <= ``chunk`` is one chunk of its own. Keys before chunk
    0 or past the sequence are removed (-1e30), a position's own key is
    biased by -1e5, and the rounds are mixed per position by the softmax
    over rounds of their log-sum-exp.

    The heads run in groups, each writing its rows of the output, of as
    many heads as have all their chunks fit one block (at least one); a
    group's heads are laid side by side, (dk, heads*B*L), in numpy and
    off the tape (a view for one head). The chunks of all its rounds and
    sequences run in blocks whose score map fits ``_GROUP_SCORE_BYTES``,
    every block in the same block-sized buffers. A block's sorted rows
    are gathered, K and V after one leading chunk, so each chunk's keys
    and values are an overlapping view; one score product serves the
    block, the masks are slice assignments and a diagonal subtract, and
    the (m, dk) outputs, not the maps, are divided by the row sums. Under
    a tape one group and one block hold every head and chunk, and the
    record keeps the map and gathers. The rounds are mixed once every
    block has run. Returns the head-major output, of ``q``'s shape.

    One tape record with a closed-form backward: with round weights w_r
    and D = g . out per position, dO_r = w_r g, dS = A * (dO_r V^T - w_r D),
    dV = A^T dO_r, dQ = scale dS K and dK = dS^T (scale Q), folded off the
    chunk views and unsorted; the unit keys add dK / |q| - q (q . dK) / |q|^3
    to dQ. Charges 2*rounds*heads*B*chunks*m*keys*dk MACs.
    """
    q, v = as_tensor(q), as_tensor(v)
    batch = _batch(heads, q)
    rows, length = q.shape[0], q.shape[-1]
    if (batch is None or q.shape != v.shape or not len(rotations)
            or any(np.ndim(r) != 3 or len(r) not in (1, batch)
                   or r.shape[1] != rows // heads for r in rotations)):
        raise ShapeError("lsh_attention of %d heads cannot take q %r, v %r, "
                         "rotations %r" % (heads, q.shape, v.shape,
                                           [np.shape(r) for r in rotations]))
    if chunk < 1:
        raise ShapeError("lsh_attention needs a chunk >= 1, got %d" % chunk)
    dk = rows // heads
    m = min(chunk, length)
    keys = m if m == length else 2 * m
    chunks = len(rotations) * batch * -(-length // m)     # of one head
    block = heads * chunks if _ACTIVE.tape is not None else max(
        1, _GROUP_SCORE_BYTES // (8 * m * keys))
    group = min(heads, max(1, block // chunks))
    y = np.empty(q.shape)
    for h0 in range(0, heads, group):
        hr = slice(h0 * dk, (h0 + group) * dk)
        backward = _lsh_heads(q.data[hr], v.data[hr], rotations, dk, batch,
                              m, scale, block, y[hr])
    out = Tensor(y)
    _record(out, (q, v), backward, macs=2 * heads * chunks * m * keys * dk)
    return out


def _lsh_heads(qh, vh, rotations, dk, batch, m, scale, block, y):
    """:func:`lsh_attention` of the group of heads whose rows are ``qh``
    and ``vh``, into their rows ``y``; returns the op's backward under a
    tape, where the group holds every head."""
    heads, length = len(qh) // dk, qh.shape[-1]
    width = batch * length
    seqs = heads * batch
    n = seqs * length

    def side_by_side(x):
        # head-major (heads*dk, [batch,] L) -> (dk, heads*batch*L), a view
        # for one head
        return x.reshape(heads, dk, width).transpose(1, 0, 2).reshape(dk, n)

    def head_major(x, into=None):
        # (dk, heads*batch*L) -> head-major, of qh's shape, in ``into`` or
        # a buffer of its own, one copy from the (heads*batch*L, dk) rows
        # of x.T
        if into is None:
            into = np.empty(qh.shape)
        into.reshape(heads, dk, width)[...] = x.T.reshape(
            heads, width, dk).transpose(0, 2, 1)
        return into

    qd, vd = side_by_side(qh), side_by_side(vh)
    norm = np.sqrt((qd ** 2).sum(axis=0, keepdims=True) + 1e-12)
    kd = qd / norm
    # every head of a sequence hashes with that sequence's rotation
    units = kd.reshape(dk, heads, batch, length).transpose(1, 2, 0, 3)
    buckets = [hash_buckets(units, r).reshape(seqs, length) for r in rotations]
    order = np.argsort(np.stack(buckets), axis=-1, kind="stable")
    rounds = len(rotations)
    n_chunks = -(-length // m)
    padded = n_chunks * m
    back = 0 if n_chunks == 1 else m      # look-back keys of a chunk
    keys = back + m
    total = rounds * seqs * n_chunks
    rix = np.arange(rounds)[:, None, None]
    # the column of every sorted slot, round after round and sequence after
    # sequence; padding slots and the leading look-back read column 0,
    # whose keys the masks remove
    slots = np.zeros((rounds, seqs, padded), dtype=np.intp)
    slots[:, :, :length] = order + np.arange(0, n, length)[:, None]
    cols = np.concatenate([np.zeros(back, dtype=np.intp), slots.ravel()])
    # and the flat slot of every position in every round
    inv = np.empty((rounds, n), dtype=np.intp)
    inv[rix, slots[:, :, :length]] = np.arange(0, total * m, padded).reshape(
        rounds, seqs, 1) + np.arange(length)

    def unsorted(x):
        # (total, m, d) per slot -> (rounds, n, d) in position order
        return np.take(x.reshape(total * m, -1), inv, axis=0)

    def per_slot(x):
        # (rounds, n) per position -> (total, m, 1) per slot, 0 on padding
        xs = x[rix, slots]
        xs[:, :, length:] = 0.0
        return xs.reshape(total, m, 1)

    # a sequence's first chunk has no look-back keys, its last may pad
    place = np.arange(total) % n_chunks
    first, last = place == 0, place == n_chunks - 1
    strided = np.lib.stride_tricks.as_strided

    def gathered(c0, c1):
        # chunks c0..c1 into the buffers: the queries as (m, dk) rows times
        # the scale, 0 on padding as in a padded sequence; chunk j's keys
        # are slots j*m .. j*m + keys, as (dk, keys) blocks, which BLAS
        # reads untransposed, and its values as (keys, dk) rows, overlapping
        # views of one gather
        count, picks = c1 - c0, cols[c0 * m:c1 * m + back]
        qc, kb, vb = (bufs[0][:count], bufs[1][:, :len(picks)],
                      bufs[2][:len(picks)])
        np.take(qd.T, picks[back:], axis=0, out=qc.reshape(-1, dk),
                mode="clip")
        qc *= scale
        if padded > length:
            qc[last[c0:c1], length - padded:] = 0.0
        np.take(kd, picks, axis=1, out=kb, mode="clip")
        np.take(vd.T, picks, axis=0, out=vb, mode="clip")
        kt = strided(kb, (count, dk, keys),
                     (m * kb.strides[1],) + kb.strides, writeable=False)
        vw = strided(vb, (count, keys, dk),
                     (m * vb.strides[0],) + vb.strides, writeable=False)
        return qc, kt, vw

    # blocks of chunks, each gathered into and scored in one block's
    # buffers; under a tape one block of every chunk, whose map and
    # gathers the record keeps
    taped = _ACTIVE.tape is not None
    step = min(total, block)
    bufs = (np.empty((step, m, dk)), np.empty((dk, step * m + back)),
            np.empty((step * m + back, dk)))
    e = np.empty((step, m, keys))
    o = np.empty((total, m, dk))
    sums, lse = np.empty((total, m, 1)), np.empty((total, m, 1))
    for c0 in range(0, total, step):
        blk = slice(c0, min(c0 + step, total))
        qc, kt, vw = gathered(blk.start, blk.stop)
        eb = e[:len(qc)]
        np.matmul(qc, kt, out=eb)
        eb.reshape(len(qc), m * keys)[:, back::keys + 1] -= _OWN_KEY
        if back:
            eb[first[blk], :, :back] = _REMOVED
        if padded > length:
            eb[last[blk], :, length - padded:] = _REMOVED
        top = eb.max(axis=-1, keepdims=True)
        eb -= top
        np.exp(eb, out=eb)
        sums[blk] = eb.sum(axis=-1, keepdims=True)
        np.matmul(eb, vw, out=o[blk])
        o[blk] /= sums[blk]
        lse[blk] = top + np.log(sums[blk])
    # the record keeps the map: as a tensor, the arena counts it
    scores = Tensor(e) if taped else None

    # the softmax over rounds, then the rounds' outputs in position order
    w = unsorted(lse)[..., 0]                             # (rounds, n)
    w -= w.max(axis=0)
    np.exp(w, out=w)
    w /= w.sum(axis=0)
    ou = unsorted(o)
    ou *= w[..., None]
    for r in range(1, rounds):
        ou[0] += ou[r]
    head_major(ou[0].T, y)

    def folded(gw):
        # window gradients onto their slots: a chunk's look-back half
        # belongs to the chunk before (across a sequence start it is 0)
        gs = gw[:, back:]
        if back:
            gs = gs.reshape(total * m, dk)
            gs[:-m] += gw[1:, :back].reshape(-1, dk)
        return gs

    def summed(gs):
        # slot gradients unsorted and added over the rounds -> (dk, n)
        return unsorted(gs).sum(axis=0).T

    def backward(g):
        # read through the Tensor: the arena counts the map while the
        # record holds it; the replay runs once, so it normalizes in place
        a = scores.data
        a /= sums
        g = side_by_side(g)
        do = g.T[cols[back:]].reshape(total, m, dk)
        do *= per_slot(w)
        ds = np.matmul(do, vw.swapaxes(1, 2))
        ds -= per_slot(w * np.einsum("ij,ij->j", g, side_by_side(y)))
        ds *= a
        gq = np.matmul(ds, kt.swapaxes(1, 2))
        gq *= scale
        gk = summed(folded(np.matmul(ds.swapaxes(1, 2), qc)))
        through_keys = gk / norm - qd * ((qd * gk).sum(axis=0, keepdims=True)
                                         / norm ** 3)
        return (head_major(summed(gq) + through_keys),
                head_major(summed(folded(np.matmul(a.swapaxes(1, 2), do)))))

    return backward if taped else None
