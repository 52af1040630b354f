"""Dense float64 arrays with a recording tape for reverse-mode gradients.

Every op is a pure function: it computes a fresh output array and, when a
:class:`Tape` is active, records a closure that maps the output gradient
back to input gradients. Replaying the records in strict reverse execution
order yields gradients for any recorded array; arrays that never influenced
the output get exactly-zero gradients.

Convention used throughout the package: feature maps are stored with
features on axis 0 and positions on the last axis (F x T). Ops that care
about orientation say so in their docstring.

Three optional global instruments hook into op execution:

* ``Tape``              -- gradient recording (single owner per step)
* ``track_memory()``    -- counts live tensor bytes, keeps the high-water mark
* ``record_macs()``     -- counts multiply-accumulates of matmul-like ops
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
    "matmul", "bmm", "transpose", "permute", "reshape", "concat",
    "slice_rows", "slice_cols",
    "gather_cols", "scatter_cols", "pad_cols", "frame", "overlap_sum",
    "add", "add_bias", "add_scalar", "sub", "neg", "mul", "divide",
    "scale", "scale_by", "scale_cols", "relu", "prelu", "exp", "log",
    "softmax_rows", "logsumexp_rows", "layer_norm", "unit_columns",
    "conv1d", "conv1d_transpose", "sum_all", "mean_all", "dot",
]


class ShapeError(ValueError):
    """Operand shapes do not satisfy an op's contract."""


class InputTooShortError(ShapeError):
    """Signal shorter than the convolution kernel."""


# ---------------------------------------------------------------------------
# global instruments

_TAPE = None
_ARENA = None
_MACS = None
_FINITE_CHECKS = False


def set_debug_checks(enabled):
    """Toggle the all-finite assertion applied to every new tensor."""
    global _FINITE_CHECKS
    _FINITE_CHECKS = bool(enabled)


class AllocationArena:
    """Live-byte counter for tensor payloads; ``peak`` is the high-water mark.

    Tensors register their buffer size on creation and release it when the
    interpreter frees them, so the peak reflects what is simultaneously
    alive under CPython's deterministic refcounting. Views that share a
    buffer (e.g. reshapes) are not counted twice.
    """

    def __init__(self):
        self.current = 0
        self.peak = 0

    def _register(self, tensor):
        if tensor.data.base is not None:
            return
        n = tensor.data.nbytes
        self.current += n
        if self.current > self.peak:
            self.peak = self.current
        weakref.finalize(tensor, self._release, n)

    def _release(self, n):
        self.current -= n


@contextmanager
def track_memory():
    """Route tensor allocations through a fresh counting arena."""
    global _ARENA
    arena = AllocationArena()
    prev, _ARENA = _ARENA, arena
    try:
        yield arena
    finally:
        _ARENA = prev


class MacCounter:
    """Accumulates multiply-accumulate counts of matmul-like ops."""

    def __init__(self):
        self.total = 0

    def add(self, n):
        self.total += int(n)


@contextmanager
def record_macs():
    """Count MACs of every matmul/bmm/conv executed inside the block."""
    global _MACS
    counter = MacCounter()
    prev, _MACS = _MACS, counter
    try:
        yield counter
    finally:
        _MACS = prev


def _macs(n):
    if _MACS is not None:
        _MACS.add(n)


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
        if _FINITE_CHECKS and not np.all(np.isfinite(arr)):
            raise FloatingPointError(
                "non-finite values in tensor of shape %r" % (arr.shape,))
        if _ARENA is not None:
            _ARENA._register(self)

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def copy(self):
        return Tensor(self.data.copy())

    def __repr__(self):
        return "Tensor(shape=%r)" % (self.data.shape,)

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


class Tape:
    """Execution-ordered op record; reverse replay computes gradients.

    Single owner: one step records and replays on one worker. Gradients of
    arrays the output never depended on are exactly zero.
    """

    def __init__(self):
        self._records = []

    def __enter__(self):
        global _TAPE
        if _TAPE is not None:
            raise RuntimeError("a tape is already recording")
        _TAPE = self
        return self

    def __exit__(self, *exc):
        global _TAPE
        _TAPE = None
        return False

    def gradient(self, output, sources):
        """Gradients of scalar ``output`` for each tensor in ``sources``."""
        sources = list(sources)
        grads = {id(output): np.ones_like(output.data)}
        keep = {id(s) for s in sources}
        keep.add(id(output))
        for out, inputs, backward in reversed(self._records):
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
        return [grads.get(id(s), np.zeros_like(s.data)) for s in sources]


def _record(out, inputs, backward):
    if _TAPE is not None:
        _TAPE._records.append((out, inputs, backward))


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


# Names of the tape-aware ops with nontrivial backward rules; the gradcheck
# suite must cover each exactly once.
DIFFERENTIABLE_OPS = (
    "matmul", "bmm", "transpose", "permute", "reshape", "concat",
    "slice_rows", "slice_cols",
    "gather_cols", "scatter_cols", "pad_cols", "frame", "overlap_sum",
    "add", "add_bias", "add_scalar", "sub", "neg", "mul", "divide",
    "scale", "scale_by", "scale_cols", "relu", "prelu", "exp", "log",
    "softmax_rows", "logsumexp_rows", "layer_norm", "unit_columns",
    "conv1d", "conv1d_transpose", "sum_all", "mean_all",
)


# ---------------------------------------------------------------------------
# linear algebra

def matmul(a, b):
    """Matrix product of two rank-2 tensors.

    Backward: dA = dC @ B^T, dB = A^T @ dC.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError("matmul shapes incompatible: %r x %r"
                         % (a.shape, b.shape))
    m, k = a.shape
    n = b.shape[1]
    _macs(m * k * n)
    out = Tensor(a.data @ b.data)
    ad, bd = a.data, b.data

    def backward(g):
        return g @ bd.T, ad.T @ g

    _record(out, (a, b), backward)
    return out


def bmm(a, b):
    """Batched matmul over the leading axis: (B,M,K) @ (B,K,N) -> (B,M,N)."""
    a, b = as_tensor(a), as_tensor(b)
    if (a.data.ndim != 3 or b.data.ndim != 3 or a.shape[0] != b.shape[0]
            or a.shape[2] != b.shape[1]):
        raise ShapeError("bmm shapes incompatible: %r x %r"
                         % (a.shape, b.shape))
    bs, m, k = a.shape
    n = b.shape[2]
    _macs(bs * m * k * n)
    out = Tensor(np.matmul(a.data, b.data))
    ad, bd = a.data, b.data

    def backward(g):
        return np.matmul(g, bd.swapaxes(1, 2)), np.matmul(ad.swapaxes(1, 2), g)

    _record(out, (a, b), backward)
    return out


def transpose(x):
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError("transpose expects rank 2, got %r" % (x.shape,))
    out = Tensor(x.data.T)
    _record(out, (x,), lambda g: (g.T,))
    return out


def permute(x, axes):
    x = as_tensor(x)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = Tensor(np.transpose(x.data, axes))
    _record(out, (x,), lambda g: (np.transpose(g, inv),))
    return out


def reshape(x, shape):
    x = as_tensor(x)
    old = x.shape
    out = Tensor(x.data.reshape(shape))
    _record(out, (x,), lambda g: (g.reshape(old),))
    return out


def concat(tensors, axis):
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))

    def backward(g):
        return tuple(np.ascontiguousarray(p)
                     for p in np.split(g, offsets, axis=axis))

    _record(out, tuple(tensors), backward)
    return out


def slice_rows(x, start, stop):
    """Slice along axis 0; gradient scatters back into zeros."""
    x = as_tensor(x)
    shape = x.shape
    out = Tensor(x.data[start:stop].copy())

    def backward(g):
        gx = np.zeros(shape)
        gx[start:stop] = g
        return (gx,)

    _record(out, (x,), backward)
    return out


def slice_cols(x, start, stop):
    """Slice along the last axis; gradient scatters back into zeros."""
    x = as_tensor(x)
    shape = x.shape
    out = Tensor(np.ascontiguousarray(x.data[..., start:stop]))

    def backward(g):
        gx = np.zeros(shape)
        gx[..., start:stop] = g
        return (gx,)

    _record(out, (x,), backward)
    return out


def gather_cols(x, idx):
    """Select columns by index array; duplicates allowed."""
    x = as_tensor(x)
    idx = np.asarray(idx, dtype=np.intp)
    shape = x.shape
    out = Tensor(x.data[:, idx])

    def backward(g):
        gx = np.zeros(shape)
        np.add.at(gx, (slice(None), idx), g)
        return (gx,)

    _record(out, (x,), backward)
    return out


def scatter_cols(x, idx, width):
    """Place columns of ``x`` at positions ``idx`` of a zero (rows, width) array.

    Indices must be unique; the op is the adjoint of :func:`gather_cols`.
    """
    x = as_tensor(x)
    idx = np.asarray(idx, dtype=np.intp)
    buf = np.zeros((x.shape[0], width))
    buf[:, idx] = x.data
    out = Tensor(buf)

    def backward(g):
        return (np.ascontiguousarray(g[:, idx]),)

    _record(out, (x,), backward)
    return out


def pad_cols(x, before, after):
    """Zero-pad along the last axis."""
    x = as_tensor(x)
    width = [(0, 0)] * (x.data.ndim - 1) + [(before, after)]
    out = Tensor(np.pad(x.data, width))
    n = x.shape[-1]

    def backward(g):
        return (np.ascontiguousarray(g[..., before:before + n]),)

    _record(out, (x,), backward)
    return out


def _frames(x, size, hop):
    """(F, T) -> contiguous (F, size, n) windows starting every ``hop``."""
    view = np.lib.stride_tricks.sliding_window_view(x, size, axis=1)
    return np.ascontiguousarray(view[:, ::hop].transpose(0, 2, 1))


def _overlap_frames(x, hop, length):
    """Sum (F, size, n) windows at their hop offsets into (F, length).

    Each window is cut into hop-wide pieces (the last one zero-filled), and
    piece q of window j lands on hop block j + q. Adding the pieces from
    the last to the first gives every position its windows in increasing
    order, the order of a loop over windows.
    """
    f, size, n = x.shape
    r = -(-size // hop)
    pieces = x
    if r * hop != size:
        pieces = np.zeros((f, r * hop, n))
        pieces[:, :size] = x
    pieces = pieces.reshape(f, r, hop, n)
    blocks = np.zeros((f, n + r - 1, hop))
    for q in reversed(range(r)):
        blocks[:, q:q + n] += pieces[:, q].transpose(0, 2, 1)
    return blocks.reshape(f, -1)[:, :length]


def frame(x, size, hop):
    """Split (F,T) into overlapping windows -> (F, size, n_frames).

    Requires (T - size) divisible by hop; callers pad first.
    """
    x = as_tensor(x)
    f, t = x.shape
    if t < size or (t - size) % hop != 0:
        raise ShapeError("cannot frame length %d into size %d hop %d"
                         % (t, size, hop))
    out = Tensor(_frames(x.data, size, hop))
    _record(out, (x,), lambda g: (_overlap_frames(g, hop, t),))
    return out


def overlap_sum(x, hop, length):
    """Sum (F, size, n) windows at their hop offsets -> (F, length).

    Exact adjoint of :func:`frame`; no coverage normalization here.
    """
    x = as_tensor(x)
    f, size, n = x.shape
    if length != size + (n - 1) * hop:
        raise ShapeError("overlap_sum length %d inconsistent with "
                         "size %d hop %d frames %d" % (length, size, hop, n))
    out = Tensor(_overlap_frames(x.data, hop, length))
    _record(out, (x,), lambda g: (_frames(g, size, hop),))
    return out


# ---------------------------------------------------------------------------
# pointwise and reductions

def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError("add shapes differ: %r vs %r" % (a.shape, b.shape))
    out = Tensor(a.data + b.data)
    _record(out, (a, b), lambda g: (g, g))
    return out


def add_bias(x, b):
    """Add a per-row bias vector to every column of a rank-2 tensor."""
    x, b = as_tensor(x), as_tensor(b)
    if b.data.ndim != 1 or b.shape[0] != x.shape[0]:
        raise ShapeError("bias %r does not match rows of %r"
                         % (b.shape, x.shape))
    out = Tensor(x.data + b.data[:, None])
    _record(out, (x, b), lambda g: (g, g.sum(axis=1)))
    return out


def add_scalar(x, s):
    """Add a 0-d tensor to every element."""
    x, s = as_tensor(x), as_tensor(s)
    out = Tensor(x.data + s.data)
    _record(out, (x, s), lambda g: (g, np.asarray(g.sum())))
    return out


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError("sub shapes differ: %r vs %r" % (a.shape, b.shape))
    out = Tensor(a.data - b.data)
    _record(out, (a, b), lambda g: (g, -g))
    return out


def neg(x):
    x = as_tensor(x)
    out = Tensor(-x.data)
    _record(out, (x,), lambda g: (-g,))
    return out


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError("mul shapes differ: %r vs %r" % (a.shape, b.shape))
    out = Tensor(a.data * b.data)
    ad, bd = a.data, b.data
    _record(out, (a, b), lambda g: (g * bd, g * ad))
    return out


def divide(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError("divide shapes differ: %r vs %r" % (a.shape, b.shape))
    out = Tensor(a.data / b.data)
    ad, bd = a.data, b.data
    _record(out, (a, b), lambda g: (g / bd, -g * ad / (bd * bd)))
    return out


def scale(x, c):
    """Multiply by a python float constant (no gradient for the constant)."""
    x = as_tensor(x)
    c = float(c)
    out = Tensor(x.data * c)
    _record(out, (x,), lambda g: (g * c,))
    return out


def scale_by(x, s):
    """Multiply every element by a 0-d tensor; gradient flows to both."""
    x, s = as_tensor(x), as_tensor(s)
    out = Tensor(x.data * s.data)
    xd, sd = x.data, s.data
    _record(out, (x, s), lambda g: (g * sd, np.asarray((g * xd).sum())))
    return out


def scale_cols(x, v):
    """Multiply along the last axis by a vector (one factor per column)."""
    x, v = as_tensor(x), as_tensor(v)
    vd = v.data.reshape(-1)
    if vd.shape[0] != x.shape[-1]:
        raise ShapeError("scale_cols vector %r does not match columns of %r"
                         % (v.shape, x.shape))
    out = Tensor(x.data * vd)
    xd = x.data
    vshape = v.shape
    axes = tuple(range(x.data.ndim - 1))

    def backward(g):
        return g * vd, (g * xd).sum(axis=axes).reshape(vshape)

    _record(out, (x, v), backward)
    return out


def relu(x):
    x = as_tensor(x)
    out = Tensor(np.maximum(x.data, 0.0))
    mask = x.data > 0

    def backward(g):
        return (g * mask,)

    _record(out, (x,), backward)
    return out


def prelu(x, slope):
    """Leaky rectifier with a learned per-feature slope (feature axis 0)."""
    x, slope = as_tensor(x), as_tensor(slope)
    if slope.data.ndim != 1 or slope.shape[0] != x.shape[0]:
        raise ShapeError("prelu slope %r does not match features of %r"
                         % (slope.shape, x.shape))
    sd = slope.data.reshape((-1,) + (1,) * (x.data.ndim - 1))
    negmask = x.data < 0
    out = Tensor(np.where(negmask, sd * x.data, x.data))
    xd = x.data
    axes = tuple(range(1, x.data.ndim))

    def backward(g):
        gx = np.where(negmask, sd * g, g)
        gs = (g * xd * negmask).sum(axis=axes) if axes else (g * xd * negmask)
        return gx, np.asarray(gs)

    _record(out, (x, slope), backward)
    return out


def exp(x):
    x = as_tensor(x)
    out = Tensor(np.exp(x.data))
    od = out.data
    _record(out, (x,), lambda g: (g * od,))
    return out


def log(x):
    x = as_tensor(x)
    out = Tensor(np.log(x.data))
    xd = x.data
    _record(out, (x,), lambda g: (g / xd,))
    return out


def softmax_rows(x):
    """Row-wise softmax of a rank-2 tensor, stabilized by per-row max.

    Each output row sums to 1; adding a constant to a row leaves it
    unchanged.
    """
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError("softmax_rows expects rank 2, got %r" % (x.shape,))
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)
    out = Tensor(y)

    def backward(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        return (y * (g - dot),)

    _record(out, (x,), backward)
    return out


def logsumexp_rows(x):
    """Per-row log(sum(exp(x))) of a rank-2 tensor -> shape (rows,)."""
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError("logsumexp_rows expects rank 2, got %r" % (x.shape,))
    m = x.data.max(axis=1, keepdims=True)
    e = np.exp(x.data - m)
    s = e.sum(axis=1, keepdims=True)
    out = Tensor((np.log(s) + m).reshape(-1))
    soft = e / s

    def backward(g):
        return (soft * g[:, None],)

    _record(out, (x,), backward)
    return out


def layer_norm(x, gain, bias, eps=1e-5, axis=-1):
    """Normalize to zero mean / unit variance along ``axis``, then affine.

    ``gain`` and ``bias`` are vectors with the length of the normalized
    axis. Variance is the population variance; ``eps`` sits under the
    square root so constant inputs map to the bias.
    """
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    nd = x.data.ndim
    ax = axis % nd
    n = x.shape[ax]
    if gain.shape != (n,) or bias.shape != (n,):
        raise ShapeError("layer_norm gain %r / bias %r do not match axis "
                         "length %d" % (gain.shape, bias.shape, n))
    bshape = tuple(n if i == ax else 1 for i in range(nd))
    gd = gain.data.reshape(bshape)
    mu = x.data.mean(axis=ax, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=ax, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = Tensor(xhat * gd + bias.data.reshape(bshape))
    other = tuple(i for i in range(nd) if i != ax)

    def backward(g):
        dxhat = g * gd
        m1 = dxhat.mean(axis=ax, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=ax, keepdims=True)
        dx = inv * (dxhat - m1 - xhat * m2)
        dgain = (g * xhat).sum(axis=other) if other else g * xhat
        dbias = g.sum(axis=other) if other else g
        return dx, np.asarray(dgain).reshape(-1), np.asarray(dbias).reshape(-1)

    _record(out, (x, gain, bias), backward)
    return out


def unit_columns(x, eps=1e-12):
    """Normalize each column of a rank-2 tensor to unit L2 norm."""
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError("unit_columns expects rank 2, got %r" % (x.shape,))
    norm = np.sqrt((x.data ** 2).sum(axis=0, keepdims=True) + eps)
    y = x.data / norm
    out = Tensor(y)
    xd = x.data

    def backward(g):
        return (g / norm - xd * ((xd * g).sum(axis=0, keepdims=True)
                                 / norm ** 3),)

    _record(out, (x,), backward)
    return out


# ---------------------------------------------------------------------------
# convolution pair

def conv1d(x, filters, stride):
    """Valid convolution of a mono signal with (F, 1, Kw) filters -> (F, T').

    T' = floor((T - Kw) / stride) + 1; no implicit padding.
    """
    x, filters = as_tensor(x), as_tensor(filters)
    if x.data.ndim != 1:
        raise ShapeError("conv1d expects a 1-d signal, got %r" % (x.shape,))
    if filters.data.ndim != 3 or filters.shape[1] != 1:
        raise ShapeError("conv1d filters must be (F, 1, Kw), got %r"
                         % (filters.shape,))
    t = x.shape[0]
    f, _, kw = filters.shape
    if t < kw:
        raise InputTooShortError(
            "signal length %d shorter than kernel %d" % (t, kw))
    tp = (t - kw) // stride + 1
    w2 = filters.data.reshape(f, kw)
    frames = np.lib.stride_tricks.sliding_window_view(x.data, kw)[::stride]
    _macs(f * kw * tp)
    out = Tensor(w2 @ frames.T)

    def backward(g):
        gw = (g @ frames).reshape(f, 1, kw)
        gframes = w2.T @ g
        gx = np.zeros(t)
        for k in range(kw):
            gx[k:k + stride * (tp - 1) + 1:stride] += gframes[k]
        return gx, gw

    _record(out, (x, filters), backward)
    return out


def conv1d_transpose(x, filters, stride):
    """Adjoint of :func:`conv1d`: (F, T') feature map -> signal of length
    (T' - 1) * stride + Kw, using the same (F, 1, Kw) filters.
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
    kw = filters.shape[2]
    t = (tp - 1) * stride + kw
    w2 = filters.data.reshape(f, kw)
    contrib = w2.T @ x.data
    _macs(f * kw * tp)
    buf = np.zeros(t)
    for k in range(kw):
        buf[k:k + stride * (tp - 1) + 1:stride] += contrib[k]
    out = Tensor(buf)
    xd = x.data

    def backward(g):
        gcontrib = np.lib.stride_tricks.sliding_window_view(g, kw)[::stride].T
        gw = (xd @ gcontrib.T).reshape(f, 1, kw)
        gx = w2 @ gcontrib
        return gx, gw

    _record(out, (x, filters), backward)
    return out


# ---------------------------------------------------------------------------
# reductions

def sum_all(x):
    x = as_tensor(x)
    shape = x.shape
    out = Tensor(np.asarray(x.data.sum()))
    _record(out, (x,), lambda g: (np.broadcast_to(g, shape).copy(),))
    return out


def mean_all(x):
    x = as_tensor(x)
    shape = x.shape
    n = x.data.size
    out = Tensor(np.asarray(x.data.mean()))
    _record(out, (x,), lambda g: (np.broadcast_to(g / n, shape).copy(),))
    return out


def dot(a, b):
    """Inner product of two equal-shape tensors, as a 0-d tensor."""
    return sum_all(mul(a, b))
