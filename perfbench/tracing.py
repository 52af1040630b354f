"""Spans and counters for the traced run, recorded from outside the
package.

The tracer replaces public names with wrappers at the name the caller looks
up (``model.sepformer_block`` is what ``mask_net`` calls, not
``dualpath.sepformer_block``) and puts every original back on exit. A span
is ``[name, start, end, parent, op, macs]``: ``parent`` indexes the span
that was open when it began (-1 for none), ``op`` is the id of the
operation it belongs to, and ``macs`` the multiply-accumulates the package's
own counter (``record_macs``) saw inside it. Spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

from sepformer import ndkernel, objectives, record_macs, track_memory
from sepformer import dualpath, model, transformer

NAME, START, END, PARENT, OP, MACS = range(6)
GEMM_OPS = ("matmul", "bmm", "conv1d", "conv1d_transpose")
OPS = tuple(ndkernel.DIFFERENTIABLE_OPS) + ("dot",)


def _array(x):
    return x.data if isinstance(x, ndkernel.Tensor) else np.asarray(x)


def gemm_shape(op, args):
    """(batch, m, k, n) of the product a matmul-like op computes."""
    a, b = _array(args[0]), _array(args[1])
    if op == "matmul":
        return (1, a.shape[0], a.shape[1], b.shape[1])
    if op == "bmm":
        return a.shape + (b.shape[2],)
    f, kw = b.shape[0], b.shape[2]
    if op == "conv1d":                  # (F, Kw) @ (Kw, T')
        return (1, f, kw, (a.shape[0] - kw) // args[2] + 1)
    return (1, kw, f, a.shape[1])       # conv1d_transpose: (Kw, F) @ (F, T')


class Tracer:
    """Records spans and op counters while installed (a context manager)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = Counter()            # running totals
        self.op_counts = {}                # op id -> counter deltas
        self.gemm_shapes = Counter()       # (b, m, k, n) -> calls
        self.arena_peaks = {}              # op id -> peak live bytes
        self._stack = []
        self._patches = []
        self._next_op = 0
        self._op = None
        self._op_start = None
        self._inter_ids = set()
        self._macs_cm = self._arena_cm = None
        self._macs = self._arena = None

    # -- spans ---------------------------------------------------------

    def _mac_total(self):
        return self._macs.total if self._macs is not None else 0

    def begin(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self._op,
                           self._mac_total()])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError("span %d closed out of order" % idx)
        self._stack.pop()
        span = self.spans[idx]
        span[END] = self.clock()
        span[MACS] = self._mac_total() - span[MACS]

    def begin_op(self):
        """Open the root span of one operation; returns its id."""
        self._op = op = self._next_op
        self._next_op += 1
        self._op_start = (self.begin("op"), Counter(self.counts))
        if self._macs is not None:
            self._arena_cm = track_memory()
            self._arena = self._arena_cm.__enter__()
        return op

    def op_open(self):
        return self._op_start is not None

    def end_op(self):
        idx, before = self._op_start
        self.end(idx)
        delta = Counter(self.counts)
        delta.subtract(before)
        self.op_counts[self._op] = delta
        if self._arena is not None:
            self.arena_peaks[self._op] = self._arena.peak
            self._arena_cm.__exit__(None, None, None)
            self._arena = None
        self._op_start = None
        self._op = None

    # -- patching ------------------------------------------------------

    def _patch(self, owner, attr, make):
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def wrap_span(self, owner, attr, name):
        """Wrap ``owner.attr`` so each call is a span; ``name`` may be a
        function of the call's arguments."""
        begin, end = self.begin, self.end

        def make(fn):
            def wrapper(*args, **kwargs):
                idx = begin(name(args) if callable(name) else name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    end(idx)
            return wrapper
        self._patch(owner, attr, make)

    def wrap_count(self, owner, attr):
        """Count calls of an ndkernel op; time and shape the GEMM ones."""
        counts, shapes, clock = self.counts, self.gemm_shapes, self.clock

        def make(fn):
            if attr not in GEMM_OPS:
                def wrapper(*args, **kwargs):
                    counts["op_calls"] += 1
                    return fn(*args, **kwargs)
                return wrapper

            def gemm(*args, **kwargs):
                counts["op_calls"] += 1
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    counts["gemm_s"] += clock() - t0
                    shapes[gemm_shape(attr, args)] += 1
            return gemm
        self._patch(owner, attr, make)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- installation --------------------------------------------------

    def __enter__(self):
        try:
            self._install()
            self._macs_cm = record_macs()
            self._macs = self._macs_cm.__enter__()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        if self._arena is not None:
            self._arena_cm.__exit__(None, None, None)
            self._arena = None
        if self._macs is not None:
            self._macs_cm.__exit__(None, None, None)
            self._macs = None
        self.restore()
        return False

    def _block_name(self, args):
        # dualpath runs both axes through one name; remember which stacks
        # this block holds for the inter axis
        self._inter_ids = {id(s) for s in args[1].inter_stacks}
        return "dualpath.block"

    def _stack_name(self, args):
        if id(args[1]) in self._inter_ids:
            return "transformer.inter"
        return "transformer.intra"

    def _install(self):
        sep = model.Sepformer
        self.wrap_span(sep, "separate", "model.separate")
        self.wrap_span(sep, "encode", "model.encode")
        self.wrap_span(sep, "mask_net", "model.mask_net")
        self.wrap_span(model, "chunk", "dualpath.chunk")
        self.wrap_span(model, "sepformer_block", self._block_name)
        self.wrap_span(model, "overlap_add", "dualpath.overlap_add")
        self.wrap_span(model, "transformer_stack", "transformer.intra")
        self.wrap_span(dualpath, "transformer_stack", self._stack_name)
        self.wrap_span(transformer, "transformer_layer", "transformer.layer")
        self.wrap_span(transformer, "multi_head_dispatch",
                       "attention.dispatch")
        self.wrap_span(ndkernel.Tape, "gradient", "ndkernel.backward")
        self.wrap_span(objectives, "pit_loss", "objectives.pit_loss")
        self.wrap_span(objectives, "clip_gradients", "objectives.clip")
        self.wrap_span(objectives, "adam_step", "objectives.adam")
        for op in OPS:
            self.wrap_count(ndkernel, op)


# ---------------------------------------------------------------------------
# derived numbers

def self_times(spans):
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so the children of a span never overlap and
    their durations sum to the part of its interval they cover.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def per_op_layers(tracer, op_ids):
    """Per-operation layer numbers, as {metric: [value per op]}."""
    own = self_times(tracer.spans)
    dur = defaultdict(lambda: defaultdict(float))
    slf = defaultdict(lambda: defaultdict(float))
    calls = defaultdict(Counter)
    macs = defaultdict(lambda: defaultdict(int))
    for i, s in enumerate(tracer.spans):
        op = s[OP]
        dur[op][s[NAME]] += s[END] - s[START]
        slf[op][s[NAME]] += own[i]
        calls[op][s[NAME]] += 1
        macs[op][s[NAME]] += s[MACS]
    out = defaultdict(list)
    for op in op_ids:
        d, sf, c, mc = dur[op], slf[op], calls[op], macs[op]
        counts = tracer.op_counts[op]
        values = {
            "model.encode_ms": d["model.encode"] * 1e3,
            "model.mask_net_ms": d["model.mask_net"] * 1e3,
            "model.decode_ms": sf["model.separate"] * 1e3,
            "dualpath.chunk_ms": d["dualpath.chunk"] * 1e3,
            "dualpath.block_ms": sf["dualpath.block"] * 1e3,
            "dualpath.overlap_add_ms": d["dualpath.overlap_add"] * 1e3,
            "transformer.intra_ms": d["transformer.intra"] * 1e3,
            "transformer.inter_ms": d["transformer.inter"] * 1e3,
            "transformer.intra_calls": c["transformer.intra"],
            "transformer.inter_calls": c["transformer.inter"],
            "transformer.layer_self_ms": sf["transformer.layer"] * 1e3,
            "attention.dispatch_ms": d["attention.dispatch"] * 1e3,
            "attention.dispatch_calls": c["attention.dispatch"],
            "attention.macs": mc["attention.dispatch"],
            "attention.gmac_per_s": _rate(mc["attention.dispatch"],
                                          d["attention.dispatch"]),
            "ndkernel.op_calls": counts["op_calls"],
            "ndkernel.backward_ms": d["ndkernel.backward"] * 1e3,
            "ndkernel.gemm_ms": counts["gemm_s"] * 1e3,
            "ndkernel.gemm_gmac_per_s": _rate(mc["op"], counts["gemm_s"]),
            "ndkernel.macs": mc["op"],
            "ndkernel.arena_peak_mb": tracer.arena_peaks.get(op, 0) / 2**20,
            "objectives.pit_loss_ms": d["objectives.pit_loss"] * 1e3,
            "objectives.clip_ms": d["objectives.clip"] * 1e3,
            "objectives.adam_ms": d["objectives.adam"] * 1e3,
            "objectives.loop_self_ms": sf["op"] * 1e3,
            "separate_macs": mc["model.separate"],
        }
        for key, value in values.items():
            out[key].append(value)
    return out


def _rate(macs, seconds):
    return macs / seconds / 1e9 if seconds > 0 else 0.0


def medians(per_op):
    return {k: statistics.median(v) for k, v in per_op.items()}


def gemm_ceiling(shapes, share=0.9, max_shapes=8, budget_s=0.02):
    """GMAC/s of bare numpy products on the shapes the traced run used.

    Shapes are taken by descending MAC total until ``share`` of all GEMM
    MACs is covered; each is timed alone (median over repeats filling
    ``budget_s``) and the ceiling is covered MACs over their bare time.
    """
    def size(shape):
        b, m, k, n = shape
        return b * m * k * n

    total = sum(size(s) * c for s, c in shapes.items())
    rng = np.random.default_rng(0)
    covered = ideal_s = 0.0
    ranked = sorted(shapes.items(), key=lambda sc: -size(sc[0]) * sc[1])
    for shape, count in ranked[:max_shapes]:
        b, m, k, n = shape
        # unbatched products run as 2-d matmuls, as the kernel runs them
        a = rng.standard_normal((b, m, k) if b > 1 else (m, k))
        x = rng.standard_normal((b, k, n) if b > 1 else (k, n))
        times = []
        spent = 0.0
        while spent < budget_s or len(times) < 5:
            t0 = time.perf_counter()
            np.matmul(a, x)
            times.append(time.perf_counter() - t0)
            spent += times[-1]
        covered += size(shape) * count
        ideal_s += statistics.median(times) * count
        if covered >= share * total:
            break
    return covered / ideal_s / 1e9 if ideal_s > 0 else 0.0
