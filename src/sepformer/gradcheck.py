"""Finite-difference verification of every differentiable op.

The oracle is independent of the tape: it re-runs the forward path with
elementwise central differences (64-bit, step 1e-6) and compares against
the recorded gradients. Each check projects the op output against a fixed
random matrix so sign errors cannot cancel.

Suites are grouped the way the command line exposes them: ``ndkernel``
(one entry per differentiable op, exactly), ``attention`` (the four
variants through the multi-head interface), and ``model`` (layer/stack and
chunk wiring, losses, and the end-to-end tiny separator).
"""

from __future__ import annotations

import zlib

import numpy as np

from . import ndkernel as nd
from .attention import AttentionSpec, init_attention_weights, \
    multi_head_dispatch
from .dualpath import chunk, init_sepformer_block, overlap_add, \
    sepformer_block
from .model import Sepformer, SepformerConfig
from .ndkernel import Tape, Tensor
from .objectives import pit_loss, si_snr
from .transformer import init_transformer_layer, init_transformer_stack, \
    transformer_layer, transformer_stack

__all__ = ["numerical_gradient", "check_gradients", "run_suite",
           "TOLERANCE"]

TOLERANCE = 1e-4
STEP = 1e-6


def numerical_gradient(f, arrays):
    """Central finite differences, at ``STEP``, of the scalar ``f()`` over
    ``arrays``.

    The arrays are perturbed in place, so ``f`` must read them afresh on
    every call.
    """
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + STEP
            up = f()
            flat[i] = orig - STEP
            down = f()
            flat[i] = orig
            gflat[i] = (up - down) / (2 * STEP)
        grads.append(g)
    return grads


def _rel_err(analytic, numeric):
    scale = max(1.0, float(np.abs(numeric).max(initial=0.0)))
    return float(np.abs(analytic - numeric).max(initial=0.0)) / scale


def check_gradients(build, tensors):
    """Max relative error between taped and finite-difference gradients.

    ``build()`` runs the forward path reading the given tensors; their
    buffers are perturbed in place for the numeric side.
    """
    rng = np.random.default_rng(12345)
    with Tape() as tape:
        out = build()
        proj = Tensor(rng.standard_normal(out.shape))
        scalar = nd.dot(out, proj)
        analytic = tape.gradient(scalar, tensors)

    def forward():
        return float((build().data * proj.data).sum())

    numeric = numerical_gradient(forward, [t.data for t in tensors])
    return max(_rel_err(a, n) for a, n in zip(analytic, numeric))


# ---------------------------------------------------------------------------
# ndkernel suite: one entry per differentiable op

def _draw(rng, *shape, low=-1.0, high=1.0):
    """A tensor of ``shape`` drawn uniformly from [low, high)."""
    return Tensor(rng.uniform(low, high, size=shape))


def _ndkernel_suite():
    def unary(op, *shape):
        def run(rng):
            x = _draw(rng, *(shape or (3, 4)))
            return check_gradients(lambda: op(x), [x])
        return run

    def binary(op, sa, sb):
        def run(rng):
            a, b = _draw(rng, *sa), _draw(rng, *sb)
            return check_gradients(lambda: op(a, b), [a, b])
        return run

    # positions of a (3, 2, 2) map, flat, in a (2, 2) index
    idx_g = np.array([[3, 0], [0, 2]])

    return {
        "matmul": _matmul_check,
        "feed_forward": _feed_forward_check,
        "permute": unary(lambda x: nd.permute(x, (2, 0, 1)), 2, 3, 4),
        "reshape": unary(lambda x: nd.reshape(x, (2, 6))),
        "concat": binary(lambda a, b: nd.concat([a, b], axis=1),
                         (3, 2), (3, 3)),
        # a copy off axis 1, then a view off axis 0 of it
        "slice_axis": unary(lambda x: nd.slice_axis(
            nd.slice_axis(x, 1, 1, 3), 0, 1, 3), 4, 3, 5),
        "gather_cols": unary(lambda x: nd.gather_cols(x, idx_g), 3, 2, 2),
        # 7 columns pad to 8: three windows, the last half padding
        "frame": unary(lambda x: nd.frame(x, 4), 3, 7),
        # three windows span 8 columns, trimmed to 7
        "overlap_mean": unary(lambda x: nd.overlap_mean(x, 7), 3, 4, 3),
        "add": binary(nd.add, (3, 4), (3, 4)),
        "mul": binary(nd.mul, (3, 4), (3, 4)),
        "prelu": _prelu_check,
        "layer_norm": (lambda rng: (lambda x, g, b: check_gradients(
            lambda: nd.layer_norm(x, g, b), [x, g, b]))(
                _draw(rng, 5, 4), _draw(rng, 5, low=0.5, high=1.5),
                _draw(rng, 5))),
        "conv1d": _conv1d_check,
        # 7 frames fill 16 samples; the last 3 are the zero tail
        "conv1d_transpose": (lambda rng: (lambda x, w: check_gradients(
            lambda: nd.conv1d_transpose(x, w, 2, 19), [x, w]))(
                _draw(rng, 3, 7), _draw(rng, 3, 1, 4))),
        "dot": binary(nd.dot, (3, 4), (3, 4)),
        "attention": _attention_op_check,
        "lsh_attention": _lsh_attention_op_check,
    }


def _away_from_kink(pre):
    """Every pre-activation at least 0.1 from the rectifier's kink at
    zero, and both signs present."""
    return np.abs(pre).min() >= 0.1 and (pre > 0).any() and (pre < 0).any()


def _matmul_check(rng):
    """The bare product, the bias epilogue, and the bias-plus-rectifier
    epilogue, whose data is redrawn until it is away from the kink."""
    a, b, bias = _draw(rng, 4, 3), _draw(rng, 3, 5), _draw(rng, 4)
    worst = max(check_gradients(lambda: nd.matmul(a, b), [a, b]),
                check_gradients(lambda: nd.matmul(a, b, bias=bias),
                                [a, b, bias]))
    while True:
        a, b, bias = _draw(rng, 4, 3), _draw(rng, 3, 5), _draw(rng, 4)
        if _away_from_kink(a.data @ b.data + bias.data[:, None]):
            break
    return max(worst, check_gradients(
        lambda: nd.matmul(a, b, bias=bias, relu=True), [a, b, bias]))


def _feed_forward_check(rng):
    """Both linears on 5 positions of 3 features through 4 hidden rows,
    the weights stored (in, out); the data is redrawn until the hidden
    pre-activations are away from the kink."""
    while True:
        x, w1, b1, w2, b2 = (_draw(rng, *shape) for shape in
                             ((3, 5), (3, 4), (4,), (4, 3), (3,)))
        if _away_from_kink(w1.data.T @ x.data + b1.data[:, None]):
            break
    return check_gradients(lambda: nd.feed_forward(x, w1, b1, w2, b2),
                           [x, w1, b1, w2, b2])


def _conv1d_check(rng):
    """The bare convolution and its rectifier epilogue; as for matmul, the
    epilogue's data is redrawn until it is away from the kink."""
    x, w = _draw(rng, 16), _draw(rng, 3, 1, 4)
    worst = check_gradients(lambda: nd.conv1d(x, w, 2), [x, w])
    while True:
        x, w = _draw(rng, 9), _draw(rng, 2, 1, 3)
        if _away_from_kink(nd.conv1d(x, w, 2).data):
            break
    return max(worst, check_gradients(lambda: nd.conv1d(x, w, 2, relu=True),
                                      [x, w]))


def _attention_op_check(rng):
    """Two heads of three sequences, queries of length 3 against keys and
    values of length 4, bare and under a bias that shifts the scores and
    removes (-1e30) keys but never a query's last."""
    q, k, v = (_draw(rng, 4, 3, n) for n in (3, 4, 4))
    bias = rng.uniform(-1.0, 1.0, size=(3, 3, 4))
    bias[..., :3][rng.uniform(size=(3, 3, 3)) < 0.4] = -1e30
    return max(check_gradients(
        lambda: nd.attention(q, k, v, 2, 0.7, bias=b), [q, k, v])
        for b in (None, bias))


def _lsh_attention_op_check(rng):
    """Two rounds of two heads x two sequences: length 7 in chunks of 3 (a
    look-back half, a padded last chunk) under per-sequence rotations, and
    length 2, one chunk of its own, under one shared rotation."""
    def case(length, shared):
        q, v = (_draw(rng, 6, 2, length) for _ in range(2))
        rotations = [rng.standard_normal((1 if shared else 2, 3, 2))
                     for _ in range(2)]
        return check_gradients(
            lambda: nd.lsh_attention(q, v, rotations, 2, 3, 0.7), [q, v])
    return max(case(7, False), case(2, True))


def _prelu_check(rng):
    """prelu's kink sits at zero, so its data is drawn away from zero with
    both signs."""
    signs = np.where(rng.uniform(size=(3, 4)) < 0.5, -1.0, 1.0)
    x = Tensor(signs * rng.uniform(0.2, 1.0, size=(3, 4)))
    slope = _draw(rng, 3, low=0.1, high=0.5)
    return check_gradients(lambda: nd.prelu(x, slope), [x, slope])


# ---------------------------------------------------------------------------
# attention suite

def _attention_check(variant, **spec_kwargs):
    def run(rng):
        spec = AttentionSpec(variant, heads=2, d_model=8, **spec_kwargs)
        feat, length = 6, 11
        weights = init_attention_weights(spec, feat, rng)
        x = _draw(rng, feat, length)
        tensors = [x] + list(weights.parameters().values())
        return check_gradients(
            lambda: multi_head_dispatch(x, weights, spec, seed=7), tensors)
    return run


def _attention_suite():
    return {
        "full_attention": _attention_check("full"),
        "longformer_attention": _attention_check(
            "longformer", window=5, global_stride=4),
        "linformer_attention": _attention_check(
            "linformer", proj_len=4, max_len=16),
        "reformer_attention": _attention_check(
            "reformer", n_buckets=4, n_rounds=2, bucket_chunk=4),
    }


# ---------------------------------------------------------------------------
# model suite

def tiny_config():
    """The smallest config that exercises every wiring path."""
    return SepformerConfig(
        n_filters=8, kernel_size=4, stride=2, chunk_size=6, n_repeats=1,
        intra_layers=1, inter_layers=1, ffw_dim=16, n_sources=2,
        intra_attention=AttentionSpec("full", heads=2, d_model=8),
    )


def _check_transformer_layer(rng):
    spec = AttentionSpec("full", heads=2, d_model=8)
    params = init_transformer_layer(spec, 8, 12, rng)
    x = _draw(rng, 8, 6)
    tensors = [x] + list(params.parameters().values())
    return check_gradients(lambda: transformer_layer(x, params, spec),
                           tensors)


def _check_transformer_stack(rng):
    spec = AttentionSpec("full", heads=2, d_model=6)
    params = init_transformer_stack(spec, 6, 8, 2, rng)
    x = _draw(rng, 6, 5)
    return check_gradients(lambda: transformer_stack(x, params, spec), [x])


def _check_chunk_roundtrip(rng):
    x = _draw(rng, 3, 11)
    return check_gradients(lambda: overlap_add(chunk(x, 4), 11), [x])


def _check_sepformer_block(rng):
    intra = AttentionSpec("full", heads=2, d_model=6)
    params = init_sepformer_block(intra, intra, 6, 8, 1, 1, 1, rng)
    x = _draw(rng, 6, 9)
    return check_gradients(lambda: sepformer_block(chunk(x, 4), params), [x])


def _check_si_snr(rng):
    e = _draw(rng, 24)
    t = _draw(rng, 24)
    return check_gradients(lambda: si_snr(e, t), [e, t])


def _check_pit_loss(rng):
    targets = [_draw(rng, 20) for _ in range(2)]
    # estimates near their own targets keep the winning permutation stable
    est = [Tensor(t.data + 0.05 * rng.uniform(-1, 1, size=20))
           for t in targets]
    return check_gradients(lambda: pit_loss(est, targets)[0], est + targets)


def _check_model_end_to_end(rng):
    cfg = tiny_config()
    model = Sepformer(cfg, seed=3)
    pool_rng = np.random.default_rng(17)
    targets = [pool_rng.uniform(-0.5, 0.5, size=64) for _ in range(2)]
    mixture = targets[0] + targets[1]
    checked = ["encoder.filters",
               "masknet.dual.rep0.intra.layer0.attn.wq",
               "masknet.dual.rep0.inter.layer0.ffw.b1",
               "masknet.prelu.slope",
               "masknet.mask_ffw2.weight",
               "decoder.filters"]
    params = model.parameters()
    tensors = [params[name] for name in checked]

    def loss_fn():
        out = model.separate(mixture)
        loss, _ = pit_loss(out.estimates, targets)
        return loss

    with Tape() as tape:
        analytic = tape.gradient(loss_fn(), tensors)
    numeric = numerical_gradient(lambda: loss_fn().item(),
                                 [t.data for t in tensors])
    return max(_rel_err(a, n) for a, n in zip(analytic, numeric))


def _model_suite():
    return {
        "transformer_layer": _check_transformer_layer,
        "transformer_stack": _check_transformer_stack,
        "chunk_overlap_add": _check_chunk_roundtrip,
        "sepformer_block": _check_sepformer_block,
        "si_snr": _check_si_snr,
        "pit_loss": _check_pit_loss,
        "model_end_to_end": _check_model_end_to_end,
    }


def suites():
    return {"ndkernel": _ndkernel_suite(), "attention": _attention_suite(),
            "model": _model_suite()}


def run_suite(module="all"):
    """Run the named suite (or everything); returns [(name, max_rel_err)]."""
    selected = suites()
    if module != "all":
        if module not in selected:
            raise ValueError("unknown gradcheck module %r" % module)
        selected = {module: selected[module]}
    results = []
    for suite_name, checks in selected.items():
        for name, fn in checks.items():
            # seeded by name (crc32: Python's str hash is salted), so an
            # entry's data does not move when another is added or removed
            full = "%s.%s" % (suite_name, name)
            rng = np.random.default_rng(np.random.SeedSequence(
                [0, zlib.crc32(full.encode())]))
            results.append((full, fn(rng)))
    return results
