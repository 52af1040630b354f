"""The complete separator: learned conv encoder, dual-path masking network,
conv decoder, and mask application.

The encoder turns a mono waveform into a nonnegative (F, T') latent map.
The masking network normalizes it, chunks it, runs the repeated
intra/inter transformer block, applies a PReLU, overlap-adds back to
(F, T'), expands to one channel group per source, and finishes with a
pair of position-wise feed-forward layers per source; ReLU keeps the
masks nonnegative but unbounded.
Each estimate is the transposed convolution of mask * latent, written
into a zeroed signal of the input's length; ``separate`` returns only the
estimates, and the masks die with its call. The chunked path binds
neither the input linear's map nor its frames while the block runs, so
the block frees them once its first stack has read them.

With chunking disabled only the intra stacks run, directly on the full
sequence. With one source the same network acts as an enhancer.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import ndkernel as nd
from .attention import AttentionSpec, FieldError, derive_seed
from .dualpath import block_params, block_tensors, chunk, overlap_add, \
    sepformer_block
from .params import ONES, ZEROS, Params, declared_shapes, fill, uniform
from .transformer import transformer_stack

__all__ = [
    "SepformerConfig", "Sepformer", "SeparationOutput", "CheckpointError",
    "parameter_tensors", "parameter_shapes", "parameter_census",
    "parse_field", "save_checkpoint", "load_checkpoint", "encoded_length",
]

CHECKPOINT_MAGIC = b"SPFK"
CHECKPOINT_VERSION = 2


class CheckpointError(ValueError):
    """Malformed or mismatched checkpoint file."""


@dataclass
class SepformerConfig:
    """Architecture hyperparameters; the defaults are the full-size model.

    The fields are the schema: the checkpoint writes one ``key=value``
    line per field (attention spec fields under their ``prefix``), and
    ``__post_init__`` range-checks each one. The specs own the head count;
    their width must equal ``n_filters``.
    """

    n_filters: int = 256
    kernel_size: int = 16
    stride: int = 8
    chunk_size: int | None = 250
    n_repeats: int = 2
    intra_layers: int = 8
    inter_layers: int = 8
    ffw_dim: int = 1024
    n_sources: int = 2
    sample_rate: int = 8000
    intra_attention: AttentionSpec | None = field(
        default=None, metadata={"prefix": "intra"})
    inter_attention: AttentionSpec | None = field(
        default=None, metadata={"prefix": "inter"})

    def __post_init__(self):
        if self.chunk_size is not None and (self.chunk_size < 2
                                            or self.chunk_size % 2):
            raise FieldError("chunk_size", "must be even and >= 2 (or none),"
                             " got %d" % self.chunk_size)
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, int) and value < 1:
                raise FieldError(f.name, "must be >= 1, got %d" % value)
        if self.intra_attention is None:
            self.intra_attention = AttentionSpec("full",
                                                 d_model=self.n_filters)
        if self.inter_attention is None:
            self.inter_attention = replace(self.intra_attention)
        for name, spec in (("intra", self.intra_attention),
                           ("inter", self.inter_attention)):
            if spec.d_model != self.n_filters:
                raise FieldError(name + ".d_model", "must equal n_filters %d,"
                                 " got %d" % (self.n_filters, spec.d_model))


def encoded_length(cfg, n_samples):
    """Latent frames produced for a signal of ``n_samples``."""
    if n_samples < cfg.kernel_size:
        raise nd.InputTooShortError(
            "signal length %d shorter than kernel %d"
            % (n_samples, cfg.kernel_size))
    return (n_samples - cfg.kernel_size) // cfg.stride + 1


@dataclass
class SeparationOutput:
    estimates: list


# ---------------------------------------------------------------------------
# parameters

def _masknet_tensors(cfg):
    f, ns = cfg.n_filters, cfg.n_sources
    yield "norm.gain", (f,), ONES
    yield "norm.bias", (f,), ZEROS
    yield "input_linear.weight", (f, f), uniform(f)
    yield "input_linear.bias", (f,), ZEROS
    # unchunked, only the intra stacks run, directly on the sequence
    inter = cfg.inter_attention if cfg.chunk_size is not None else None
    yield "dual", block_tensors(cfg.intra_attention, inter, f, cfg.ffw_dim,
                                cfg.n_repeats, cfg.intra_layers,
                                cfg.inter_layers)
    yield "prelu.slope", (f,), fill(0.25)
    yield "output_linear.weight", (ns * f, f), uniform(f)
    yield "output_linear.bias", (ns * f,), ZEROS
    yield "mask_ffw1.weight", (f, f), uniform(f)
    yield "mask_ffw1.bias", (f,), ZEROS
    yield "mask_ffw2.weight", (f, f), uniform(f)
    yield "mask_ffw2.bias", (f,), ZEROS


def parameter_tensors(cfg):
    """Every learnable tensor as (name, shape, init) entries, in the order
    they draw from the RNG."""
    f, kw = cfg.n_filters, cfg.kernel_size
    yield "encoder.filters", (f, 1, kw), uniform(kw)
    yield "masknet", _masknet_tensors(cfg)
    yield "decoder.filters", (f, 1, kw), uniform(kw)


def parameter_shapes(cfg):
    """Name -> shape for every learnable tensor, without building any."""
    return declared_shapes(parameter_tensors(cfg))


def parameter_census(cfg):
    """Exact count of learnable scalars for a configuration."""
    return sum(int(np.prod(shape)) for _, shape in parameter_shapes(cfg))


# ---------------------------------------------------------------------------
# model

class Sepformer(Params):
    """A constructed separator; immutable during inference, single-owner
    during a training step. Its tensors are those of
    :func:`parameter_tensors`, drawn from ``seed``."""

    def __init__(self, cfg, seed=0):
        self.cfg = cfg
        self.seed = int(seed)
        super().__init__(parameter_tensors(cfg),
                         np.random.default_rng(self.seed))
        self.block = block_params(self.masknet.dual, cfg.intra_attention,
                                  cfg.inter_attention, cfg.n_repeats)

    # -- forward ------------------------------------------------------

    def encode(self, x):
        """Waveform -> nonnegative latent map (F, T')."""
        x = nd.as_tensor(x)
        return nd.conv1d(x, self.encoder_filters, self.cfg.stride, relu=True)

    def mask_net(self, latent):
        """Latent map -> one nonnegative (F, T') mask per source."""
        cfg = self.cfg
        f = cfg.n_filters
        m = self.masknet

        if cfg.chunk_size is not None:
            # no name here holds the input linear or its frames, so the
            # block frees them once it has read them
            processed = sepformer_block(
                chunk(nd.matmul(m.input_linear_weight,
                                nd.layer_norm(latent, m.norm_gain,
                                              m.norm_bias),
                                bias=m.input_linear_bias), cfg.chunk_size),
                self.block, seed=derive_seed(self.seed, 101))
            # the output linear, affine per position, commutes with the
            # overlap-add's per-position mean, so it runs on T' positions
            activated = overlap_add(nd.prelu(processed, m.prelu_slope),
                                    latent.shape[1])
            del processed
        else:
            x = nd.matmul(m.input_linear_weight,
                          nd.layer_norm(latent, m.norm_gain, m.norm_bias),
                          bias=m.input_linear_bias)
            for r, stack in enumerate(self.block.intra_stacks):
                x = transformer_stack(x, stack, cfg.intra_attention,
                                      seed=derive_seed(self.seed, 101, r))
            activated = nd.prelu(x, m.prelu_slope)
            del x

        expanded = nd.matmul(m.output_linear_weight, activated,
                             bias=m.output_linear_bias)  # (Ns*F, T')
        del activated

        masks = []
        for k in range(cfg.n_sources):
            mask = nd.matmul(m.mask_ffw1_weight,
                             nd.slice_axis(expanded, 0, k * f, (k + 1) * f),
                             bias=m.mask_ffw1_bias, relu=True)
            mask = nd.matmul(m.mask_ffw2_weight, mask, bias=m.mask_ffw2_bias,
                             relu=True)
            masks.append(mask)
        return masks

    def separate(self, x):
        """Waveform -> per-source estimates of the input's length."""
        x = nd.as_tensor(x)
        n = x.shape[0]
        latent = self.encode(x)
        estimates = []
        for mask in self.mask_net(latent):
            estimates.append(nd.conv1d_transpose(
                nd.mul(mask, latent), self.decoder_filters, self.cfg.stride,
                n))
        return SeparationOutput(estimates)


# ---------------------------------------------------------------------------
# checkpoint container

def _config_fields(cfg):
    """(key, value) per config field as the checkpoint spells it, in field
    order; attention spec fields go under their field's ``prefix``."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if "prefix" in f.metadata:
            prefix = f.metadata["prefix"] + "."
            for g in fields(value):
                yield prefix + g.name, getattr(value, g.name)
        else:
            yield f.name, value


def _config_text(cfg, seed):
    return "".join("%s=%s\n" % kv for kv in _config_fields(cfg)) \
        + "seed=%d\n" % seed


def parse_field(f, text):
    """The value of config field ``f`` from its text; ``none`` is None."""
    if f.type == "str":
        return text
    nullable = f.type == "int | None"
    if nullable and text.lower() == "none":
        return None
    try:
        return int(text)
    except ValueError:
        raise FieldError(f.name, "wants an integer%s, got %r" % (
            " or 'none'" if nullable else "", text)) from None


def _drop_v1_heads(kv):
    """v1 wrote ``n_heads``, an integer >= 1, beside the specs' ``heads``,
    which are what ran; check it, then drop it."""
    text = kv.pop("n_heads", None)
    if text is None:
        raise FieldError("n_heads", "is missing")
    if not (text.isdecimal() and int(text) >= 1 and str(int(text)) == text):
        raise FieldError("n_heads", "wants an integer >= 1, got %r" % text)


def _config_from_text(text, version):
    """Inverse of :func:`_config_text`; a FieldError names the bad key.

    Every key appears once, in the writer's order and spelled as the writer
    spells it, so a text that loads is the text its config saves."""
    kv = {}
    for line in text.splitlines():
        key, _, value = line.partition("=")
        if key in kv:
            raise FieldError(key, "is repeated")
        kv[key] = value
    if version == 1:
        _drop_v1_heads(kv)
    order = list(kv)

    def build(cls, prefix):
        kwargs = {}
        try:
            for f in fields(cls):
                if "prefix" in f.metadata:
                    kwargs[f.name] = build(AttentionSpec,
                                           f.metadata["prefix"] + ".")
                    continue
                value = kv.pop(prefix + f.name, None)
                if value is None:
                    raise FieldError(f.name, "is missing")
                kwargs[f.name] = parse_field(f, value)
                if str(kwargs[f.name]) != value:
                    raise FieldError(f.name, "must be written %r, got %r"
                                     % (str(kwargs[f.name]), value))
            return cls(**kwargs)
        except FieldError as exc:
            raise FieldError(prefix + exc.field, exc.reason) from None

    cfg = build(SepformerConfig, "")
    seed = kv.pop("seed", None)
    if seed is None or not seed.isdecimal() or str(int(seed)) != seed:
        raise FieldError("seed", "wants an integer >= 0, got %r" % (seed,))
    if kv:
        raise FieldError(min(kv), "is not a config key")
    expected = [key for key, _ in _config_fields(cfg)] + ["seed"]
    for key, want in zip(order, expected):
        if key != want:
            raise FieldError(key, "is out of order, expected %r here" % want)
    return cfg, int(seed)


def save_checkpoint(path, model):
    """Write the flat binary container: magic, version, config text,
    then each named parameter as (name, rank, dims, float64 LE values)."""
    params = model.parameters()
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<I", CHECKPOINT_VERSION))
    config = _config_text(model.cfg, model.seed).encode("utf-8")
    buf.write(struct.pack("<I", len(config)))
    buf.write(config)
    buf.write(struct.pack("<I", len(params)))
    for name, tensor in params.items():
        encoded = name.encode("utf-8")
        buf.write(struct.pack("<I", len(encoded)))
        buf.write(encoded)
        buf.write(struct.pack("<I", tensor.data.ndim))
        for dim in tensor.shape:
            buf.write(struct.pack("<I", dim))
        buf.write(np.ascontiguousarray(tensor.data, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


class _CheckpointReader:
    """Reads a checkpoint's fields in order; a field that runs past the end
    of the file, or any other defect, is a CheckpointError naming the file
    and the field's offset."""

    def __init__(self, raw, path, offset):
        self.raw, self.path, self.offset = raw, path, offset

    def error(self, what, offset=None):
        return CheckpointError("%s at offset %d in %s" % (
            what, self.offset if offset is None else offset, self.path))

    def take(self, n, what):
        left = len(self.raw) - self.offset
        if n > left:
            raise self.error("truncated %s: needs %d bytes, %d left"
                             % (what, n, left))
        out = self.raw[self.offset:self.offset + n]
        self.offset += n
        return out

    def u32(self, what):
        return struct.unpack("<I", self.take(4, what))[0]

    def text(self, what):
        n = self.u32(what + " length")
        at = self.offset
        try:
            return bytes(self.take(n, what)).decode("utf-8")
        except UnicodeDecodeError:
            raise self.error("%s is not UTF-8" % what, at) from None


def load_checkpoint(path):
    """Reconstruct a model bit-exactly from :func:`save_checkpoint` output.

    Reads version 2 and version 1, whose config text also holds an
    ``n_heads`` line that is checked and dropped. Every length, rank and
    dim is checked against the bytes left; a truncated or corrupt file, a
    repeated parameter, a non-finite value or bytes after the last
    parameter raise :class:`CheckpointError` naming the file and offset.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError("bad checkpoint magic %r in %s"
                              % (raw[:4], path))
    reader = _CheckpointReader(memoryview(raw), path, 4)
    version = reader.u32("version")
    if version not in (1, CHECKPOINT_VERSION):
        raise reader.error("unsupported checkpoint version %d" % version, 4)
    text = reader.text("config")
    try:
        cfg, seed = _config_from_text(text, version)
    except ValueError as exc:
        raise CheckpointError("bad config in %s: %s" % (path, exc)) from None
    n_params = reader.u32("parameter count")

    model = Sepformer(cfg, seed=seed)
    params = model.parameters()
    seen = set()
    for _ in range(n_params):
        at = reader.offset
        name = reader.text("parameter name")
        rank = reader.u32("rank of %r" % name)
        dims = struct.unpack("<%dI" % rank,
                             reader.take(4 * rank, "dims of %r" % name))
        values = np.frombuffer(
            reader.take(8 * math.prod(dims), "values of %r" % name),
            dtype="<f8").reshape(dims)
        if name not in params:
            raise reader.error("unknown parameter %r" % name, at)
        if name in seen:
            raise reader.error("repeated parameter %r" % name, at)
        if params[name].shape != dims:
            raise reader.error("parameter %r has shape %r, checkpoint "
                               "stores %r" % (name, params[name].shape, dims),
                               at)
        if not np.all(np.isfinite(values)):
            raise reader.error("non-finite values in parameter %r" % name, at)
        params[name].data[...] = values
        seen.add(name)
    missing = set(params) - seen
    if missing:
        raise reader.error("checkpoint missing parameters: %s"
                           % ", ".join(sorted(missing)))
    if reader.offset != len(raw):
        raise reader.error("%d trailing bytes after the last parameter"
                           % (len(raw) - reader.offset))
    return model
