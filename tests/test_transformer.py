import weakref

import numpy as np
import pytest

from sepformer import ndkernel as nd
from sepformer import transformer
from sepformer.attention import AttentionSpec, positional_encoding
from sepformer.gradcheck import check_gradients
from sepformer.ndkernel import Tape, Tensor
from sepformer.transformer import (init_transformer_layer,
                                   init_transformer_stack,
                                   transformer_layer, transformer_stack)


def zero_params(params):
    for t in params.parameters().values():
        t.data[...] = 0.0
    return params


def record_branches(monkeypatch):
    """Wrap the attention and the feed-forward where ``transformer_layer``
    looks them up; the returned dict receives each branch's output."""
    branches = {}

    def wrap(owner, name, key):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            branches[key] = out = fn(*args, **kwargs)
            return out
        monkeypatch.setattr(owner, name, wrapper)

    wrap(transformer, "multi_head_dispatch", "attn_branch")
    wrap(nd, "feed_forward", "ffw_branch")
    return branches


@pytest.fixture
def spec():
    return AttentionSpec("full", heads=2, d_model=8)


class TestLayer:
    def test_zero_weights_pass_input_through(self, spec, rng):
        params = zero_params(init_transformer_layer(
            spec, 8, 12, np.random.default_rng(0)))
        z = rng.standard_normal((8, 6))
        out = transformer_layer(Tensor(z), params, spec)
        np.testing.assert_array_equal(out.data, z)

    def test_residual_wiring_audit_bit_exact(self, spec, rng, monkeypatch):
        params = init_transformer_layer(spec, 8, 12,
                                        np.random.default_rng(1))
        z = Tensor(rng.standard_normal((8, 6)))
        branches = record_branches(monkeypatch)
        out = transformer_layer(z, params, spec)
        expected = branches["ffw_branch"].data + (
            branches["attn_branch"].data + z.data)
        assert np.array_equal(out.data, expected)

    def test_attention_branch_is_zero_when_output_matrix_is_zero(
            self, spec, rng, monkeypatch):
        params = init_transformer_layer(spec, 8, 12,
                                        np.random.default_rng(2))
        params.attn.wo.data[...] = 0.0
        z = Tensor(rng.standard_normal((8, 6)))
        branches = record_branches(monkeypatch)
        transformer_layer(z, params, spec)
        np.testing.assert_array_equal(branches["attn_branch"].data,
                                      np.zeros((8, 6)))

    @pytest.mark.parametrize("shape", [(8, 6), (8, 3, 5)])
    def test_feed_forward_maps_die_after_their_last_reader(
            self, spec, rng, monkeypatch, shape):
        # without a tape the feed-forward is one op reading ln2 with the
        # layer's weights, and ln2 is gone before the residual sum
        params = init_transformer_layer(spec, 8, 12,
                                        np.random.default_rng(4))
        feed_forward, add = nd.feed_forward, nd.add
        refs, alive = {}, {}

        def watched_feed_forward(x, *weights):
            assert weights == (params.ffw_w1, params.ffw_b1, params.ffw_w2,
                               params.ffw_b2)
            refs["ln2"] = weakref.ref(x)
            return feed_forward(x, *weights)

        def watched_add(a, b):
            if "ln2" in refs and "ln2" not in alive:
                alive["ln2"] = refs["ln2"]() is not None
            return add(a, b)

        monkeypatch.setattr(nd, "feed_forward", watched_feed_forward)
        monkeypatch.setattr(nd, "add", watched_add)
        transformer_layer(Tensor(rng.standard_normal(shape)), params, spec)
        assert alive == {"ln2": False}

    def test_batch_records_ten_ops_and_no_reshape(self, spec, rng):
        # on an (F, B, L) batch the layer records what it records on one
        # sequence: the batch rides in the maps' shape
        params = init_transformer_layer(spec, 8, 12,
                                        np.random.default_rng(6))
        with Tape() as tape:
            transformer_layer(Tensor(rng.standard_normal((8, 3, 5))),
                              params, spec)
            ops = [backward.__qualname__.split(".")[0]
                   for _, _, backward in tape._records]
        assert ops == ["layer_norm", "matmul", "matmul", "matmul",
                       "attention", "matmul", "add", "layer_norm",
                       "feed_forward", "add"]

    def test_gradient_through_full_layer(self, spec):
        rng = np.random.default_rng(3)
        params = init_transformer_layer(spec, 8, 12, rng)
        z = Tensor(rng.uniform(-1, 1, (8, 6)))
        tensors = [z] + list(params.parameters().values())
        err = check_gradients(lambda: transformer_layer(z, params, spec),
                              tensors)
        assert err < 1e-4


class TestStack:
    def test_zero_layers_add_positions_and_double_residual(self, spec, rng):
        params = init_transformer_stack(spec, 8, 12, 3,
                                        np.random.default_rng(0))
        zero_params(params)
        table = positional_encoding(5, 8).data.T
        z = rng.standard_normal((8, 5))
        out = transformer_stack(Tensor(z), params, spec)
        np.testing.assert_array_equal(out.data, (z + table) + z)
        # each sequence of a batch gets positions 0..L-1
        z = rng.standard_normal((8, 3, 5))
        out = transformer_stack(Tensor(z), params, spec)
        np.testing.assert_array_equal(out.data,
                                      (z + table[:, None]) + z)

    @pytest.mark.parametrize("depth", [1, 4, 8])
    def test_output_shape_preserved(self, spec, rng, depth):
        params = init_transformer_stack(spec, 8, 12, depth,
                                        np.random.default_rng(0))
        out = transformer_stack(Tensor(rng.standard_normal((8, 7))),
                                params, spec)
        assert out.shape == (8, 7)

    def test_depth_must_be_positive(self, spec):
        with pytest.raises(ValueError):
            init_transformer_stack(spec, 8, 12, 0, np.random.default_rng(0))

    def test_gradient_through_stack(self, spec):
        rng = np.random.default_rng(5)
        params = init_transformer_stack(spec, 8, 12, 2, rng)
        z = Tensor(rng.uniform(-1, 1, (8, 5)))
        err = check_gradients(lambda: transformer_stack(z, params, spec),
                              [z])
        assert err < 1e-4


def test_layer_parameter_count_formula():
    # full-size layer: q/k/v (3*d*F) + recombination (d*d) + two norms
    # (4*F) + feed-forward (F*dff + dff + dff*F + F)
    spec = AttentionSpec("full", heads=8, d_model=256)
    params = init_transformer_layer(spec, 256, 1024,
                                    np.random.default_rng(0))
    total = sum(t.size for t in params.parameters().values())
    expected = 3 * 256 * 256 + 256 * 256 + 4 * 256 \
        + 256 * 1024 + 1024 + 1024 * 256 + 256
    assert total == expected == 788736
