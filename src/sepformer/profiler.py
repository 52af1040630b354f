"""Analytical MAC counting, wall-clock timing, and peak-allocation
measurement across attention variants, strides, and chunk sizes.

MAC reference sheet (multiply-accumulates of the forward pass; only
matmul-like ops count, matching the instrumented counter in ndkernel):

    matmul (M,K)@(K,N)          M*K*N
    attention, h x B sequences  2*h*B*Lq*Lk*dk (scores and weighted values)
    conv / transposed conv      F*Kw*T'

    encoder                     F*Kw*T'
    masknet input linear        F*F*T'
    per transformer layer, sequence length L:
        q/k/v projections       (3 or 2 for shared-QK) * d*F*L
        head recombination      d*d*L
        attention cores         heads * attention.REGISTRY[variant].core_macs;
                                longformer 2*dk*(ceil(L/c)*c*(3c+g) + g*L),
                                c = max((w-1)/2, 1), or 2*dk*L^2 if w >= 2L-1
        feed-forward            2 * F*d_ff*L
    dual path, per repeat       intra_layers*Nc*layer(C) + inter_layers*C*layer(Nc)
                                (the Nc chunks and the C offsets run as
                                batched groups; grouping adds no MACs)
    no chunking, per repeat     intra_layers*layer(T')
    masknet output linear       (Ns*F)*F*T'
    mask feed-forward pair      Ns * 2 * F*F*T'
    decoder                     Ns * F*Kw*T'

Activations, softmax, normalization, bias adds, and LSH hashing are index
or elementwise work and count zero MACs on both the analytical and the
instrumented side, so the two totals agree exactly.

Peak memory routes every tensor allocation through a counting arena
(deterministic high-water mark of live payload bytes) instead of sampling
process RSS. Wall time is the median of R repeats after one warm-up, on a
single worker.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass

import numpy as np

from . import ndkernel as nd
from .attention import attention_core_macs, projection_macs
from .dualpath import padded_chunk_geometry
from .model import Sepformer, encoded_length
from .ndkernel import Tensor, track_memory

__all__ = [
    "CostReport", "MacsBreakdown", "count_macs", "count_macs_detailed",
    "bench_forward", "render_csv", "render_markdown", "render_json",
    "config_label", "SmallConvBaseline", "bench_baseline",
    "CSV_HEADER",
]

CSV_HEADER = "label,seconds,macs,wall_ms,peak_bytes"


@dataclass
class CostReport:
    """One profiled configuration at one input duration."""

    label: str
    seconds: float
    macs: int
    wall_ms: float
    peak_bytes: int


@dataclass
class MacsBreakdown:
    """Forward-pass MACs split by where the multiplies happen."""

    conv: int = 0
    linear: int = 0
    projection: int = 0
    attention: int = 0
    ffw: int = 0

    @property
    def total(self):
        return self.conv + self.linear + self.projection + self.attention \
            + self.ffw


def _add_layers(out, count, spec, feat_dim, ffw_dim, length):
    """Add ``count`` layer passes over one length-``length`` sequence."""
    out.projection += count * projection_macs(spec, feat_dim, length)
    out.attention += count * attention_core_macs(spec, length)
    out.ffw += count * 2 * feat_dim * ffw_dim * length


def count_macs_detailed(cfg, n_samples):
    """Analytical forward-pass MACs, split by term."""
    f = cfg.n_filters
    tp = encoded_length(cfg, n_samples)
    out = MacsBreakdown()
    out.conv += f * cfg.kernel_size * tp                     # encoder
    out.linear += f * f * tp                                 # input linear
    if cfg.chunk_size is not None:
        c = cfg.chunk_size
        _, n_chunks = padded_chunk_geometry(tp, c)
        _add_layers(out, cfg.n_repeats * cfg.intra_layers * n_chunks,
                    cfg.intra_attention, f, cfg.ffw_dim, c)
        _add_layers(out, cfg.n_repeats * cfg.inter_layers * c,
                    cfg.inter_attention, f, cfg.ffw_dim, n_chunks)
    else:
        _add_layers(out, cfg.n_repeats * cfg.intra_layers,
                    cfg.intra_attention, f, cfg.ffw_dim, tp)
    out.linear += (cfg.n_sources * f) * f * tp               # output linear
    out.linear += cfg.n_sources * 2 * f * f * tp             # mask ffw pair
    out.conv += cfg.n_sources * f * cfg.kernel_size * tp     # decoder
    return out


def count_macs(cfg, n_samples):
    """Total analytical forward-pass MACs for one input length."""
    return count_macs_detailed(cfg, n_samples).total


def config_label(cfg):
    specs = [cfg.intra_attention]
    if cfg.chunk_size is not None:
        specs.append(cfg.inter_attention)
    variant = "+".join(dict.fromkeys(spec.variant for spec in specs))
    chunking = "none" if cfg.chunk_size is None else "c%d" % cfg.chunk_size
    return "%s/%s" % (variant, chunking)


def _bench_model(separate, label, cfg_macs, durations, repeats, seed,
                 sample_rate):
    reports = []
    for d in durations:
        n = int(round(d * sample_rate))
        rng = np.random.default_rng(np.random.SeedSequence(
            [seed, int(round(d * 1000))]))
        x = rng.uniform(-0.5, 0.5, size=n)
        separate(x)                       # warm-up, excluded from stats
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            separate(x)
            times.append((time.perf_counter() - t0) * 1e3)
        with track_memory() as arena:
            separate(x)
        reports.append(CostReport(label, float(d), cfg_macs(n),
                                  statistics.median(times), arena.peak))
    return reports


def bench_forward(cfg, durations, repeats=5, seed=0):
    """Profile one configuration over a list of input durations (seconds).

    Deterministic seeded-noise inputs, single worker, one warm-up run,
    median wall time over ``repeats``.
    """
    model = Sepformer(cfg, seed=seed)
    return _bench_model(model.separate, config_label(cfg),
                        lambda n: count_macs(cfg, n), durations, repeats,
                        seed, cfg.sample_rate)


# ---------------------------------------------------------------------------
# reporting

def _sorted(reports):
    return sorted(reports, key=lambda r: (r.label, r.seconds))


def render_csv(reports):
    lines = [CSV_HEADER]
    for r in _sorted(reports):
        lines.append("%s,%g,%d,%.6g,%d"
                     % (r.label, r.seconds, r.macs, r.wall_ms, r.peak_bytes))
    return "\n".join(lines) + "\n"


def render_markdown(reports):
    lines = ["| label | seconds | macs | wall_ms | peak_bytes |",
             "| --- | --- | --- | --- | --- |"]
    for r in _sorted(reports):
        lines.append("| %s | %g | %d | %.6g | %d |"
                     % (r.label, r.seconds, r.macs, r.wall_ms, r.peak_bytes))
    return "\n".join(lines) + "\n"


def render_json(reports):
    return json.dumps([{"label": r.label, "seconds": r.seconds,
                        "macs": r.macs, "wall_ms": r.wall_ms,
                        "peak_bytes": r.peak_bytes}
                       for r in _sorted(reports)], indent=2) + "\n"


# ---------------------------------------------------------------------------
# small convolutional reference model

class SmallConvBaseline:
    """Compact convolutional separator used as a cost reference point.

    Encoder/decoder convolutions around a stack of bottlenecked pointwise
    blocks with residual connections; per-source masks from a linear head.
    Its size is fixed, and its weights are drawn from seed 0.
    """

    N_FILTERS = 512
    BOTTLENECK = 128
    N_BLOCKS = 6
    KERNEL_SIZE = 16
    STRIDE = 8
    N_SOURCES = 2
    SAMPLE_RATE = 8000

    def __init__(self):
        rng = np.random.default_rng(0)
        f, b, kw = self.N_FILTERS, self.BOTTLENECK, self.KERNEL_SIZE

        def uni(shape, fan):
            return Tensor(rng.uniform(-1 / np.sqrt(fan), 1 / np.sqrt(fan),
                                      size=shape))

        self.enc = uni((f, 1, kw), kw)
        self.blocks = [(uni((b, f), f), Tensor(np.full(b, 0.25)),
                        uni((f, b), b))
                       for _ in range(self.N_BLOCKS)]
        self.mask_heads = [uni((f, f), f) for _ in range(self.N_SOURCES)]
        self.dec = uni((f, 1, kw), kw)

    def separate(self, x):
        x = nd.as_tensor(x)
        n = x.shape[0]
        h = nd.conv1d(x, self.enc, self.STRIDE, relu=True)
        y = h
        for down, slope, up in self.blocks:
            z = nd.prelu(nd.matmul(down, y), slope)
            y = nd.add(y, nd.matmul(up, z))
        estimates = []
        for head in self.mask_heads:
            mask = nd.matmul(head, y, relu=True)
            estimates.append(nd.conv1d_transpose(nd.mul(mask, h), self.dec,
                                                 self.STRIDE, n))
        return estimates

    def count_macs(self, n_samples):
        tp = (n_samples - self.KERNEL_SIZE) // self.STRIDE + 1
        f, b = self.N_FILTERS, self.BOTTLENECK
        macs = f * self.KERNEL_SIZE * tp
        macs += self.N_BLOCKS * (b * f * tp + f * b * tp)
        macs += self.N_SOURCES * (f * f * tp + f * self.KERNEL_SIZE * tp)
        return macs


def bench_baseline(durations, repeats=5):
    """Profile :class:`SmallConvBaseline` as :func:`bench_forward` does a
    configuration, on the inputs of seed 0."""
    model = SmallConvBaseline()
    return _bench_model(model.separate, "smallconv/none", model.count_macs,
                        durations, repeats, 0, model.SAMPLE_RATE)
