import ast
import inspect
import math
import re
import weakref
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from sepformer import ndkernel as nd
from sepformer.gradcheck import check_gradients, run_suite
from sepformer.ndkernel import Tape, Tensor


class TestMatmul:
    def test_identity(self, rng):
        b = rng.standard_normal((3, 3))
        out = nd.matmul(Tensor(np.eye(3)), Tensor(b))
        np.testing.assert_array_equal(out.data, b)

    def test_hand_expanded_product(self):
        out = nd.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]),
                        Tensor([[0.0], [1.0]]))
        # row i of the product is a_i0*0 + a_i1*1
        np.testing.assert_array_equal(out.data, [[2.0], [4.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(nd.ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            nd.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_grad_of_sum_is_ones_times_bt(self, rng):
        a = Tensor(rng.standard_normal((4, 3)))
        b = Tensor(rng.standard_normal((3, 5)))
        with Tape() as tape:
            s = nd.dot(nd.matmul(a, b), Tensor(np.ones((4, 5))))
            ga, _ = tape.gradient(s, [a, b])
        np.testing.assert_allclose(ga, np.ones((4, 5)) @ b.data.T,
                                   atol=1e-12)

    def test_associative_on_well_conditioned_inputs(self, rng):
        for _ in range(20):
            a, b, c = (rng.uniform(-1, 1, (8, 8)) for _ in range(3))
            left = nd.matmul(nd.matmul(Tensor(a), Tensor(b)), Tensor(c))
            right = nd.matmul(Tensor(a), nd.matmul(Tensor(b), Tensor(c)))
            np.testing.assert_allclose(left.data, right.data, atol=1e-9)


class TestFeedForward:
    # 3 features through 5 hidden rows to 2 outputs, weights stored
    # (in, out)
    @staticmethod
    def operands(rng, n):
        return [Tensor(rng.standard_normal(shape))
                for shape in ((3, n), (3, 5), (5,), (5, 2), (2,))]

    @pytest.mark.parametrize("n", [1, 11])
    def test_equals_the_two_linears_bit_for_bit(self, rng, n):
        x, w1, b1, w2, b2 = self.operands(rng, n)
        hidden = np.maximum(w1.data.T @ x.data + b1.data[:, None], 0.0)
        want = w2.data.T @ hidden + b2.data[:, None]
        got = nd.feed_forward(x, w1, b1, w2, b2)
        np.testing.assert_array_equal(got.data, want)

    @pytest.mark.parametrize("block", [3, 4, 11])
    def test_blocks_taped_or_not_match_one_block(self, rng, monkeypatch,
                                                 block):
        # 11 positions in blocks of 3 (the last of 2), 4 (the last of 3) or
        # all 11: outputs and gradients bit-identical to one block. A
        # block of one position runs as a matrix-vector product, whose
        # sums round differently (by about 1e-15), so none is used here
        operands = self.operands(rng, 11)
        probe = Tensor(rng.standard_normal((2, 11)))

        def run(taped):
            if not taped:
                return nd.feed_forward(*operands).data, None
            with Tape() as tape:
                out = nd.feed_forward(*operands)
                grads = tape.gradient(nd.dot(out, probe), operands)
            return out.data, grads

        want, want_grads = run(True)
        monkeypatch.setattr(nd, "_GROUP_POSITIONS", block)
        for taped in (False, True):
            out, grads = run(taped)
            np.testing.assert_array_equal(out, want)
        for g, ref in zip(grads, want_grads):
            np.testing.assert_array_equal(g, ref)
        assert check_gradients(lambda: nd.feed_forward(*operands),
                               operands) < 1e-4

    def test_one_record_charging_both_products(self, rng):
        operands = self.operands(rng, 7)
        with nd.record_macs() as macs, Tape() as tape:
            nd.feed_forward(*operands)
            assert len(tape._records) == 1
        assert macs.total == 5 * 3 * 7 + 2 * 5 * 7

    def test_record_holds_the_whole_hidden_map(self, rng, monkeypatch):
        # blocks of 4: under a tape the arena counts the output and the
        # (5, 11) hidden map the record keeps; without one, only the output
        operands = self.operands(rng, 11)
        monkeypatch.setattr(nd, "_GROUP_POSITIONS", 4)
        with nd.track_memory() as arena, Tape():
            nd.feed_forward(*operands)
            assert arena.current == 8 * (2 + 5) * 11
        with nd.track_memory() as arena:
            nd.feed_forward(*operands)
        assert arena.peak == 8 * 2 * 11

    @pytest.mark.parametrize("shapes", [
        ((4, 6), (3, 5), (5,), (5, 2), (2,)),      # x rows != w1 rows
        ((3, 6), (3, 5), (4,), (5, 2), (2,)),      # b1
        ((3, 6), (3, 5), (5,), (4, 2), (2,)),      # w2 rows != hidden
        ((3, 6), (3, 5), (5,), (5, 2), (3,)),      # b2
        ((3,), (3, 5), (5,), (5, 2), (2,)),        # x not a map
    ])
    def test_mismatched_operands_name_every_shape(self, shapes):
        with pytest.raises(nd.ShapeError, match=re.escape(repr(shapes[3]))):
            nd.feed_forward(*(Tensor(np.zeros(s)) for s in shapes))


class TestSliceAxis:
    def test_slice_is_a_view_of_its_source(self, rng):
        x = Tensor(rng.standard_normal((5, 4)))
        out = nd.slice_axis(x, 0, 1, 3)
        assert np.shares_memory(out.data, x.data)
        np.testing.assert_array_equal(out.data, x.data[1:3])

    @pytest.mark.parametrize("axis", [1, 2])
    def test_other_axes_give_a_contiguous_copy(self, rng, axis):
        # (F, 1, L) sliced on axis 1 would be contiguous as a view too
        for shape in ((5, 4, 3), (5, 1, 3)):
            x = Tensor(rng.standard_normal(shape))
            out = nd.slice_axis(x, axis, 0, 1)
            assert out.data.flags.c_contiguous
            assert not np.shares_memory(out.data, x.data)
            np.testing.assert_array_equal(
                out.data, x.data[(slice(None),) * axis + (slice(0, 1),)])

    def test_gradient_scatters_into_zeros(self, rng):
        for axis in (0, 1):
            x = Tensor(rng.standard_normal((5, 4)))
            index = (slice(None),) * axis + (slice(1, 3),)
            g = rng.standard_normal(x.data[index].shape)
            with Tape() as tape:
                s = nd.dot(nd.slice_axis(x, axis, 1, 3), Tensor(g))
                (gx,) = tape.gradient(s, [x])
            want = np.zeros((5, 4))
            want[index] = g
            np.testing.assert_array_equal(gx, want)

    @pytest.mark.parametrize("axis", [-1, 2])
    def test_axis_outside_the_map_is_refused(self, axis):
        with pytest.raises(nd.ShapeError, match=r"\(5, 4\) on axis %d" % axis):
            nd.slice_axis(Tensor(np.zeros((5, 4))), axis, 0, 1)


class TestDot:
    def test_value_is_the_inner_product(self):
        out = nd.dot(Tensor([[1.0, 2.0], [3.0, 4.0]]),
                     Tensor([[0.5, -1.0], [2.0, 0.25]]))
        assert out.shape == ()
        assert out.item() == 0.5 - 2.0 + 6.0 + 1.0

    def test_shape_mismatch_names_dot_and_both_shapes(self):
        with pytest.raises(nd.ShapeError, match=r"dot.*\(2, 3\).*\(3, 2\)"):
            nd.dot(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))

    def test_one_tape_record(self, rng):
        a = Tensor(rng.standard_normal((3, 4)))
        b = Tensor(rng.standard_normal((3, 4)))
        with Tape() as tape:
            s = nd.dot(a, b)
            assert len(tape._records) == 1
            ga, gb = tape.gradient(s, [a, b])
        np.testing.assert_array_equal(ga, b.data)
        np.testing.assert_array_equal(gb, a.data)


# The attention core in plain numpy: scaled queries against per-sequence
# keys, the row softmax and the weighted values. Kept as the reference the
# fused op must reproduce. Leading axes broadcast, and complex inputs
# carry a complex-step perturbation through unchanged.

def composite_attention(q, k, v, heads, batch, scale):
    def per_sequence(x):
        # (..., h*dk, b*L) -> the (..., h, b, dk, L) view
        *lead, rows, n = x.shape
        return np.swapaxes(x.reshape(*lead, heads, rows // heads, batch,
                                     n // batch), -3, -2)

    qd, kd, vd = per_sequence(q), per_sequence(k), per_sequence(v)
    s = scale * (np.swapaxes(qd, -1, -2) @ kd)          # (..., h, b, Lq, Lk)
    e = np.exp(s - s.real.max(axis=-1, keepdims=True))
    a = e / e.sum(axis=-1, keepdims=True)
    out = np.swapaxes(vd @ np.swapaxes(a, -1, -2), -3, -2)  # (., h, dk, b, Lq)
    *lead, heads, dk, batch, lq = out.shape
    return (out.reshape(*lead, heads * dk, batch * lq),
            a.reshape(a.shape[:-4] + (-1,) + a.shape[-2:]))


def attention_map(q, k, heads, scale, bias=None):
    """The (heads*batch, Lq, Lk) softmax map of :func:`nd.attention`,
    head major, read off its output on one-hot values dk keys at a time:
    with key ``start + i`` of every sequence valued e_i in its head's
    rows, output row i of a head is each query's weight on that key."""
    rows, lq, lk = q.shape[0], q.shape[-1], k.shape[-1]
    dk, batch = rows // heads, q.data[0].size // lq
    blocks = []
    for start in range(0, lk, dk):
        n = min(dk, lk - start)
        v = np.zeros((heads, dk, batch, lk))
        v[:, np.arange(n), :, start + np.arange(n)] = 1.0
        out = nd.attention(q, k, Tensor(v.reshape(k.shape)), heads, scale,
                           bias=bias)
        blocks.append(out.data.reshape(heads, dk, batch, lq)[:, :n])
    return np.concatenate(blocks, axis=1).transpose(0, 2, 3, 1).reshape(
        heads * batch, lq, lk)


def complex_step_gradients(f, arrays, step=1e-30):
    """Gradients of the real scalar ``f(*arrays)`` to each array by
    complex-step differentiation: the derivative along entry i is the
    imaginary part of f(x + i*step*e_i) over step, free of cancellation.
    ``f`` maps a leading axis of perturbed copies, 256 at a time, to one
    value each."""
    grads = []
    for which, x in enumerate(arrays):
        g = np.empty(x.size)
        for lo in range(0, x.size, 256):
            rows = np.arange(lo, min(lo + 256, x.size))
            pert = np.tile(x.astype(complex).reshape(-1), (rows.size, 1))
            pert[np.arange(rows.size), rows] += 1j * step
            args = list(arrays)
            args[which] = pert.reshape((rows.size,) + x.shape)
            g[rows] = f(*args).imag / step
        grads.append(g.reshape(x.shape))
    return grads


class TestAttention:
    DK = 3

    def operands(self, rng, heads, batch, lq, lk):
        """Head-major q, k, v of ``batch`` sequences: (rows, L) for one,
        (rows, batch, L) for more."""
        lead = (heads * self.DK,) + ((batch,) if batch > 1 else ())
        return [Tensor(rng.standard_normal(lead + (n,)))
                for n in (lq, lk, lk)]

    @pytest.mark.parametrize("lq,lk", [(6, 6), (5, 8)])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("heads", [1, 4])
    def test_matches_composite_reference(self, rng, heads, batch, lq, lk):
        # the reference reads the sequences side by side, (rows, batch*L)
        q, k, v = self.operands(rng, heads, batch, lq, lk)
        probe = rng.standard_normal(q.shape)
        with Tape() as tape:
            out = nd.attention(q, k, v, heads, 0.6)
            grads = tape.gradient(nd.dot(out, Tensor(probe)), [q, k, v])
        out, a = out.data, attention_map(q, k, heads, 0.6)
        operands = [x.data.reshape(len(x.data), -1) for x in (q, k, v)]
        want_out, want_a = composite_attention(*operands, heads, batch, 0.6)
        want_grads = complex_step_gradients(
            lambda *qkv: (composite_attention(*qkv, heads, batch, 0.6)[0]
                          * probe.reshape(want_out.shape)).sum(
                              axis=(-2, -1)), operands)
        assert out.shape == q.shape
        assert a.shape == (heads * batch, lq, lk)
        assert np.abs(out.reshape(want_out.shape) - want_out).max() <= \
            1e-12 * np.abs(want_out).max()
        assert np.abs(a - want_a).max() <= 1e-12
        for g, ref in zip(grads, want_grads):
            assert np.abs(g.reshape(ref.shape) - ref).max() <= \
                1e-9 * np.abs(ref).max()

    def test_one_tape_record_and_its_macs(self, rng):
        q, k, v = self.operands(rng, 4, 3, 5, 8)
        with nd.record_macs() as macs, Tape() as tape:
            nd.attention(q, k, v, 4, 0.5)
            assert len(tape._records) == 1
        assert macs.total == 2 * 4 * 3 * 5 * 8 * self.DK

    def test_arena_peak_of_one_call_includes_its_score_map(self, rng):
        q, k, v = self.operands(rng, 4, 3, 5, 8)
        with nd.track_memory() as arena:
            out = nd.attention(q, k, v, 4, 0.5)
        assert arena.peak == out.data.nbytes + 4 * 3 * 5 * 8 * 8

    # four heads of two sequences in tape-free blocks of 1, 2 or 3 heads
    # (3 leaves a last block of one): bit-identical to the taped op, whose
    # one block holds every head, and holding one block's map
    @pytest.mark.parametrize("biased", [False, True])
    @pytest.mark.parametrize("step", [1, 2, 3])
    def test_head_blocks_match_the_taped_op(self, rng, monkeypatch, step,
                                            biased):
        heads, batch, lq, lk = 4, 2, 3, 5
        q, k, v = self.operands(rng, heads, batch, lq, lk)
        bias = rng.standard_normal((2, lq, lk)) if biased else None
        with Tape():
            want = nd.attention(q, k, v, heads, 0.6, bias=bias).data
        monkeypatch.setattr(nd, "_GROUP_SCORE_BYTES",
                            step * 8 * batch * lq * lk)
        with nd.track_memory() as arena:
            got = nd.attention(q, k, v, heads, 0.6, bias=bias).data
        np.testing.assert_array_equal(got, want)
        assert arena.peak == got.nbytes + step * batch * lq * lk * 8

    # q and k hold 2 sequences of 4: a v of 6 keys; no heads; a v of no
    # sequences
    @pytest.mark.parametrize("heads,batch,v_cols", [(2, 2, 6), (0, 2, 8),
                                                    (2, 0, 8)])
    def test_mismatched_operands_name_every_shape(self, rng, heads, batch,
                                                  v_cols):
        q, k, _ = self.operands(rng, 2, 2, 4, 4)
        with pytest.raises(nd.ShapeError,
                           match=r"%d heads .*\(6, 2, 4\).*\(6, 2, 4\).*"
                                 r"\(6, %d, %d\)" % (heads, batch, v_cols)):
            nd.attention(q, k, Tensor(np.zeros((6, batch, v_cols))), heads,
                         1.0)

    # rank-4 maps; k of other sequences than q, for either op
    @pytest.mark.parametrize("case", ["rank_four", "batch_mismatch"])
    def test_maps_outside_the_layout_are_refused(self, rng, case):
        if case == "rank_four":
            q = k = Tensor(rng.standard_normal((6, 2, 2, 4)))
        else:
            q, k = (Tensor(rng.standard_normal((6, b, 4))) for b in (2, 3))
        with pytest.raises(nd.ShapeError, match=re.escape(repr(k.shape))):
            nd.attention(q, k, k, 2, 1.0)
        rotations = [np.zeros((1, 3, 2))]
        with pytest.raises(nd.ShapeError, match=re.escape(repr(k.shape))):
            nd.lsh_attention(q, k, rotations, 2, 4, 1.0)

    def test_bias_is_added_to_every_run_of_sequences(self, rng):
        # four sequences in runs of two: sequence b gets bias[b % 2], and
        # -1e30 removes key 1 from the even sequences
        heads, batch, lq, lk = 2, 4, 3, 5
        q, k, v = self.operands(rng, heads, batch, lq, lk)
        bias = rng.standard_normal((2, lq, lk))
        bias[0, :, 1] = -1e30
        out = nd.attention(q, k, v, heads, 0.6, bias=bias)
        a = attention_map(q, k, heads, 0.6, bias=bias)
        qd, kd, vd = (x.data.reshape(heads, self.DK, batch, -1)
                      for x in (q, k, v))
        got = out.data.reshape(heads, self.DK, batch, lq)
        for h in range(heads):
            for b in range(batch):
                s = 0.6 * qd[h, :, b].T @ kd[h, :, b] + bias[b % 2]
                w = np.exp(s - s.max(axis=1, keepdims=True))
                w /= w.sum(axis=1, keepdims=True)
                assert np.abs(a[h * batch + b] - w).max() <= 1e-12
                assert np.abs(got[h, :, b] - vd[h, :, b] @ w.T).max() \
                    <= 1e-12
        assert not a.reshape(heads, 2, 2, lq, lk)[:, :, 0, :, 1].any()

    @pytest.mark.parametrize("shape", [(3, 3, 5), (2, 5, 3), (2, 3),
                                       (0, 3, 5)])
    def test_bias_of_another_shape_is_refused(self, rng, shape):
        # batch 4 is not a whole number of runs of 3 (nor of none); the
        # rows must be (Lq, Lk) = (3, 5)
        q, k, v = self.operands(rng, 2, 4, 3, 5)
        with pytest.raises(nd.ShapeError,
                           match=re.escape("bias %r" % (shape,))):
            nd.attention(q, k, v, 2, 1.0, bias=np.zeros(shape))

    def softmax_map(self, rng, logits):
        """The map of one head over the (sequences, Lq, Lk) ``logits``,
        given as the bias: zero queries make every score exactly 0."""
        s, lq, lk = logits.shape
        q = Tensor(np.zeros((self.DK, s, lq)))
        kv = Tensor(rng.standard_normal((self.DK, s, lk)))
        return attention_map(q, kv, 1, 1.0, bias=logits)

    @pytest.mark.parametrize("prop", [
        "equal_scores_give_uniform_rows", "two_logit_closed_form",
        "large_logit_stays_finite", "rows_sum_to_one",
        "invariant_to_row_shift", "bit_equal_to_three_temporary_formula"])
    def test_map_is_a_stable_row_softmax(self, rng, prop):
        if prop == "equal_scores_give_uniform_rows":
            a = self.softmax_map(rng, np.full((1, 1, 3), 7.3))
            np.testing.assert_allclose(a, [[[1 / 3] * 3]], atol=1e-15)
        elif prop == "two_logit_closed_form":
            # e^0 / (e^0 + e^ln3) = 1/4
            a = self.softmax_map(rng, np.array([[[0.0, math.log(3.0)]]]))
            np.testing.assert_allclose(a, [[[0.25, 0.75]]], atol=1e-12)
        elif prop == "large_logit_stays_finite":
            a = self.softmax_map(rng, np.array([[[1000.0, 0.0]]]))
            assert np.all(np.isfinite(a))
            np.testing.assert_allclose(a[0, 0, 0], 1.0, atol=1e-12)
        elif prop == "rows_sum_to_one":
            # scores and a bias, four heads of three sequences
            q, k, _ = self.operands(rng, 4, 3, 6, 9)
            a = attention_map(q, k, 4, 0.8,
                              bias=rng.standard_normal((3, 6, 9)))
            np.testing.assert_allclose(a.sum(axis=-1), 1.0, atol=1e-12)
        elif prop == "invariant_to_row_shift":
            x = rng.standard_normal((2, 4, 7))
            shifted = x + rng.standard_normal((2, 4, 1))
            np.testing.assert_allclose(self.softmax_map(rng, x),
                                       self.softmax_map(rng, shifted),
                                       atol=1e-12)
        else:
            # the in-place softmax does the same arithmetic as
            # shifted = x - max; e = exp(shifted); e / sum(e)
            x = 3.0 * rng.standard_normal((2, 7, 13))
            e = np.exp(x - x.max(axis=-1, keepdims=True))
            np.testing.assert_array_equal(self.softmax_map(rng, x),
                                          e / e.sum(axis=-1, keepdims=True))


# The batch rides in the map's shape: a (rows, B, L) call gives the bytes
# of the same data run flat, (rows, B*L), where the op mixes no positions,
# or as B single sequences, (rows, L), where it does; outputs and tape
# gradients, taped and tape-free.

def outputs_and_gradients(op, arrays, probe):
    """``op``'s output on tensors of ``arrays`` and, with a ``probe`` (of
    the output's size), the tape gradients of every one for the probe;
    without a probe the op runs tape-free."""
    tensors = [Tensor(a) for a in arrays]
    if probe is None:
        return [op(*tensors).data]
    with Tape() as tape:
        out = op(*tensors)
        grads = tape.gradient(nd.dot(out, Tensor(probe.reshape(out.shape))),
                              tensors)
    return [out.data] + grads


def assert_same_bytes(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.size == w.size and g.tobytes() == w.tobytes()


class TestBatchedLayout:
    B, L = 3, 7

    def flat(self, x):
        return x.reshape(len(x), -1)

    @pytest.mark.parametrize("taped", [False, True])
    @pytest.mark.parametrize("op", ["matmul", "feed_forward", "gather_cols"])
    def test_equals_the_flat_call(self, rng, op, taped):
        x = rng.standard_normal((4, self.B, self.L))
        if op == "matmul":
            weights = [rng.standard_normal((5, 4)), rng.standard_normal(5)]
            run = lambda x, a, bias: nd.matmul(a, x, bias=bias, relu=True)
        elif op == "feed_forward":
            weights = [rng.standard_normal(s) for s in ((4, 6), (6,), (6, 2),
                                                        (2,))]
            run = nd.feed_forward
        else:
            weights = []
            idx = rng.integers(0, self.B * self.L, (2, 5, 4))
            run = lambda x: nd.gather_cols(x, idx)
        shape = ({"matmul": (5,) + x.shape[1:], "gather_cols": (4, 2, 5, 4)}
                 .get(op, (2,) + x.shape[1:]))
        probe = rng.standard_normal(shape) if taped else None
        got = outputs_and_gradients(run, [x] + weights, probe)
        assert got[0].shape == shape
        assert_same_bytes(got, outputs_and_gradients(
            run, [self.flat(x)] + weights, probe))

    @pytest.mark.parametrize("taped", [False, True])
    @pytest.mark.parametrize("op", ["attention", "biased_attention",
                                    "lsh_attention"])
    def test_equals_single_sequences(self, rng, op, taped):
        # two heads of d_head 3; the attention's keys are longer than its
        # queries, the LSH op's chunks of 3 leave a look-back and padding
        lk = self.L if op == "lsh_attention" else 9
        q = rng.standard_normal((6, self.B, self.L))
        kv = [rng.standard_normal((6, self.B, lk)) for _ in range(2)]
        bias = rng.standard_normal((self.B, self.L, lk))
        rotations = [rng.standard_normal((self.B, 3, 2)) for _ in range(2)]

        def run(b):
            # sequence b alone, or every sequence for None
            seq = slice(None) if b is None else b
            if op == "lsh_attention":
                rots = [r[seq] if b is None else r[b:b + 1]
                        for r in rotations]
                return (lambda q, v: nd.lsh_attention(q, v, rots, 2, 3, 0.6),
                        [q[:, seq], kv[1][:, seq]])
            p = None if op == "attention" else \
                bias if b is None else bias[b:b + 1]
            return (lambda q, k, v: nd.attention(q, k, v, 2, 0.6, bias=p),
                    [q[:, seq]] + [x[:, seq] for x in kv])

        probe = rng.standard_normal(q.shape) if taped else None
        got = outputs_and_gradients(*run(None), probe)
        assert got[0].shape == q.shape
        singles = [outputs_and_gradients(*run(b), None if probe is None
                                         else probe[:, b])
                   for b in range(self.B)]
        assert_same_bytes(got, [np.stack(parts, axis=1)
                                for parts in zip(*singles)])

    @pytest.mark.parametrize("op", ["matmul", "feed_forward"])
    def test_batched_output_owns_its_buffer(self, rng, op):
        # operands made before the arena add nothing; the (rows, B, L)
        # output is a tensor of its own, not a view of a flat buffer
        x = Tensor(rng.standard_normal((4, self.B, self.L)))
        if op == "matmul":
            weights = [Tensor(rng.standard_normal((5, 4)))]
            run = lambda x, a: nd.matmul(a, x)
        else:
            weights = [Tensor(rng.standard_normal(s))
                       for s in ((4, 6), (6,), (6, 2), (2,))]
            run = nd.feed_forward
        with nd.track_memory() as arena:
            out = run(x, *weights)
            assert out.data.base is None
            assert arena.current == out.data.nbytes == \
                8 * len(out.data) * self.B * self.L


def test_lsh_attention_refuses_a_chunk_below_1(rng):
    q, v = (Tensor(rng.standard_normal((4, 6))) for _ in range(2))
    with pytest.raises(nd.ShapeError, match="chunk >= 1, got 0"):
        nd.lsh_attention(q, v, [rng.standard_normal((1, 4, 2))], 1, 0, 0.5)


# Bad arguments to the shape ops: each raises ShapeError naming the
# operand shapes, instead of numpy's error or a silent wrap-around
BAD_ARGUMENTS = {
    "concat_mismatched": (lambda x: nd.concat([x, Tensor(np.ones((2, 3)))],
                                              axis=1), r"\(3, 4\), \(2, 3\)"),
    "concat_empty": (lambda x: nd.concat([], axis=0), r"\[\]"),
    "reshape_wrong_size": (lambda x: nd.reshape(x, (5,)), r"\(3, 4\)"),
    "permute_axis_out_of_range": (lambda x: nd.permute(x, (0, 2)),
                                  r"\(3, 4\) by axes \(0, 2\)"),
    "permute_repeated_axis": (lambda x: nd.permute(x, (0, 0)),
                              r"\(3, 4\) by axes \(0, 0\)"),
    "gather_cols_past_width": (lambda x: nd.gather_cols(x, [1, 4]),
                               r"\(3, 4\)"),
    "gather_cols_negative": (lambda x: nd.gather_cols(x, [-1]), r"\(3, 4\)"),
}


@pytest.mark.parametrize("case", sorted(BAD_ARGUMENTS))
def test_bad_arguments_raise_shape_error_naming_the_shapes(case):
    op, shapes = BAD_ARGUMENTS[case]
    with pytest.raises(nd.ShapeError, match=shapes):
        op(Tensor(np.ones((3, 4))))


class TestGather:
    def test_gather_cols_equals_fancy_index_and_is_contiguous(self, rng):
        x = rng.standard_normal((5, 40))
        idx = rng.integers(0, 40, 97)
        out = nd.gather_cols(Tensor(x), idx).data
        np.testing.assert_array_equal(out, x[:, idx])
        assert out.flags.c_contiguous

    @pytest.mark.parametrize("n_idx", [0, 1, 97, 400])
    def test_backward_adds_duplicates_as_add_at_does(self, rng, n_idx):
        # every column sums its copies in index order, bit for bit
        x = Tensor(rng.standard_normal((5, 40)))
        idx = rng.integers(0, 40, n_idx)
        g = rng.standard_normal((5, n_idx))
        g[rng.uniform(size=g.shape) < 0.2] = -0.0
        with Tape() as tape:
            loss = nd.dot(nd.gather_cols(x, idx), Tensor(g))
            (gx,) = tape.gradient(loss, [x])
        want = np.zeros((5, 40))
        np.add.at(want, (slice(None), idx), g)
        assert gx.tobytes() == want.tobytes()


class TestLayerNorm:
    def test_constant_input_maps_to_bias(self):
        x = Tensor(np.full((4, 3), 2.5))
        out = nd.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_two_point_column(self):
        # mean 2, population variance 1 -> [-1, 1] / sqrt(1 + 1e-5)
        out = nd.layer_norm(Tensor([[1.0], [3.0]]), Tensor(np.ones(2)),
                            Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data,
                                   [[-1.0], [1.0]] / np.sqrt(1 + 1e-5),
                                   rtol=1e-15)

    def test_leading_axis_normalization(self, rng):
        x = rng.standard_normal((5, 3))
        out = nd.layer_norm(Tensor(x), Tensor(np.ones(5)),
                            Tensor(np.zeros(5)))
        np.testing.assert_allclose(out.data.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.data.var(axis=0), 1.0, atol=1e-4)

    def test_refuses_a_map_of_rank_below_2(self):
        with pytest.raises(nd.ShapeError, match="rank >= 2"):
            nd.layer_norm(Tensor(np.ones(4)), Tensor(np.ones(4)),
                          Tensor(np.zeros(4)))


class TestConv:
    def test_output_length_formula(self, rng):
        out = nd.conv1d(Tensor(rng.standard_normal(8000)),
                        Tensor(rng.standard_normal((3, 1, 16))), 8)
        assert out.shape == (3, (8000 - 16) // 8 + 1) == (3, 999)

    def test_unit_impulse_filter_recovers_input(self, rng):
        x = rng.standard_normal(50)
        filt = np.zeros((1, 1, 4))
        filt[0, 0, 0] = 1.0
        out = nd.conv1d(Tensor(x), Tensor(filt), 1)
        np.testing.assert_array_equal(out.data[0], x[:47])

    def test_too_short_input_rejected(self):
        with pytest.raises(nd.InputTooShortError):
            nd.conv1d(Tensor(np.zeros(3)), Tensor(np.zeros((2, 1, 4))), 1)

    @pytest.mark.parametrize("stride", [0, -1])
    def test_refuses_a_stride_below_1(self, stride):
        with pytest.raises(nd.ShapeError, match="stride >= 1, got %d"
                           % stride):
            nd.conv1d(Tensor(np.zeros(16)), Tensor(np.zeros((2, 1, 4))),
                      stride)
        with pytest.raises(nd.ShapeError, match="stride >= 1, got %d"
                           % stride):
            nd.conv1d_transpose(Tensor(np.zeros((2, 5))),
                                Tensor(np.zeros((2, 1, 4))), stride, 40)

    def test_transpose_length_inverts_formula(self, rng):
        out = nd.conv1d_transpose(Tensor(rng.standard_normal((3, 999))),
                                  Tensor(rng.standard_normal((3, 1, 16))), 8,
                                  8000)
        assert out.shape == (8000,)

    def test_transpose_zero_fills_its_tail(self, rng):
        # 9 frames fill (9 - 1) * 3 + 5 = 29 samples; the rest is zero and
        # its gradient goes nowhere
        x = Tensor(rng.standard_normal((4, 9)))
        filt = Tensor(rng.standard_normal((4, 1, 5)))
        g = rng.standard_normal(35)
        with Tape() as tape:
            out = nd.conv1d_transpose(x, filt, 3, 35)
            loss = nd.dot(out, Tensor(g))
            gx, gw = tape.gradient(loss, [x, filt])
        exact = nd.conv1d_transpose(x, filt, 3, 29).data
        assert out.data[:29].tobytes() == exact.tobytes()
        assert out.data[29:].tobytes() == np.zeros(6).tobytes()
        with Tape() as tape:
            loss = nd.dot(nd.conv1d_transpose(x, filt, 3, 29),
                          Tensor(g[:29]))
            want = tape.gradient(loss, [x, filt])
        assert gx.tobytes() == want[0].tobytes()
        assert gw.tobytes() == want[1].tobytes()

    def test_transpose_refuses_a_short_length(self, rng):
        with pytest.raises(nd.ShapeError, match="length >= 29, got 28"):
            nd.conv1d_transpose(Tensor(rng.standard_normal((4, 9))),
                                Tensor(rng.standard_normal((4, 1, 5))), 3, 28)

    def test_adjoint_identity(self, rng):
        # <conv(x), y> == <x, conv_transpose(y)> for random pairs
        for _ in range(5):
            x = rng.standard_normal(32)
            filt = Tensor(rng.standard_normal((4, 1, 5)))
            tp = (32 - 5) // 3 + 1
            y = rng.standard_normal((4, tp))
            lhs = float((nd.conv1d(Tensor(x), filt, 3).data * y).sum())
            rhs = float(
                (x * nd.conv1d_transpose(Tensor(y), filt, 3, 32).data).sum())
            assert abs(lhs - rhs) < 1e-9

    def test_zero_feature_map_gives_zero_signal(self):
        out = nd.conv1d_transpose(Tensor(np.zeros((2, 10))),
                                  Tensor(np.ones((2, 1, 4))), 2, 22)
        np.testing.assert_array_equal(out.data, np.zeros(22))


class TestActivations:
    def test_prelu_negative_branch(self):
        out = nd.prelu(Tensor([[-4.0]]), Tensor([0.25]))
        assert out.data[0, 0] == -1.0

    def test_prelu_positive_branch_unchanged(self):
        out = nd.prelu(Tensor([[3.0]]), Tensor([0.25]))
        assert out.data[0, 0] == 3.0

    def test_prelu_matches_where_bit_for_bit(self, rng):
        # against np.where and the masked in-place multiply prelu used to
        # run, on data with exact zeros and both signs
        x = rng.standard_normal((4, 3, 7))
        x[rng.uniform(size=x.shape) < 0.1] = 0.0
        slope = rng.uniform(0.0, 0.5, 4)
        g = rng.standard_normal((4, 3, 7))
        xt, st = Tensor(x), Tensor(slope)
        with Tape() as tape:
            out = nd.prelu(xt, st)
            gx, gs = tape.gradient(nd.dot(out, Tensor(g)), [xt, st])
        sd = slope[:, None, None]
        neg = x < 0
        masked_y, masked_gx = x.copy(), g.copy()
        np.multiply(masked_y, sd, out=masked_y, where=neg)
        np.multiply(masked_gx, sd, out=masked_gx, where=neg)
        assert out.data.tobytes() == np.where(neg, sd * x, x).tobytes() \
            == masked_y.tobytes()
        assert gx.tobytes() == np.where(neg, sd * g, g).tobytes() \
            == masked_gx.tobytes()
        assert gs.tobytes() == (g * x * neg).sum(axis=(1, 2)).tobytes()

    def test_conv1d_relu_epilogue_equals_relu_of_conv1d(self, rng):
        # the rectifier of the bare convolution, and the bare convolution's
        # gradients probed with g masked where the rectifier is off
        x = rng.standard_normal(64)
        filters = rng.standard_normal((5, 1, 8))
        g = rng.standard_normal((5, 15))

        def run(relu, probe):
            xt, wt = Tensor(x), Tensor(filters)
            with Tape() as tape:
                out = nd.conv1d(xt, wt, 4, relu=relu)
                records = len(tape._records)
                gx, gw = tape.gradient(nd.dot(out, Tensor(probe)), [xt, wt])
            return records, out.data, [gx, gw]

        records, got, got_grads = run(True, g)
        conv = run(False, g)[1]
        want_grads = run(False, g * (conv > 0))[2]
        assert records == 1
        assert got.tobytes() == np.maximum(conv, 0.0).tobytes()
        for a, b in zip(got_grads, want_grads):
            assert a.tobytes() == b.tobytes()


class TestTape:
    def test_unused_array_gets_exactly_zero(self, rng):
        a = Tensor(rng.standard_normal((2, 2)))
        unused = Tensor(rng.standard_normal((3, 3)))
        with Tape() as tape:
            s = nd.dot(a, a)
            grads = tape.gradient(s, [a, unused])
        assert np.array_equal(grads[1], np.zeros((3, 3)))

    def test_reverse_order_accumulates_shared_input(self, rng):
        a = Tensor(rng.standard_normal((3, 3)))
        with Tape() as tape:
            s = nd.dot(nd.add(nd.mul(a, a), a), Tensor(np.ones((3, 3))))
            (ga,) = tape.gradient(s, [a])
        np.testing.assert_allclose(ga, 2 * a.data + 1, atol=1e-12)

    def test_nested_tapes_rejected(self):
        with Tape():
            with pytest.raises(RuntimeError):
                with Tape():
                    pass

    def test_gradients_off_tape_are_not_recorded(self, rng):
        a = Tensor(rng.standard_normal((2, 2)))
        nd.mul(a, a)  # outside any tape
        with Tape() as tape:
            s = nd.dot(a, Tensor(np.ones((2, 2))))
            (ga,) = tape.gradient(s, [a])
        np.testing.assert_array_equal(ga, np.ones((2, 2)))

    def test_size_one_output_of_any_rank_is_a_scalar(self, rng):
        a = Tensor(rng.standard_normal((1, 1)))
        with Tape() as tape:
            out = nd.mul(a, a)
            (ga,) = tape.gradient(out, [a])
        assert out.item() == a.data[0, 0] ** 2
        np.testing.assert_array_equal(ga, 2 * a.data)

    def test_non_scalar_output_rejected(self, rng):
        a = Tensor(rng.standard_normal((2, 2)))
        with Tape() as tape:
            with pytest.raises(nd.ShapeError, match=r"\(2, 2\)"):
                tape.gradient(nd.mul(a, a), [a])

    def test_second_replay_rejected(self, rng):
        a = Tensor(rng.standard_normal((2, 2)))
        with Tape() as tape:
            s = nd.dot(a, a)
            tape.gradient(s, [a])
            with pytest.raises(RuntimeError, match="already replayed"):
                tape.gradient(s, [a])

    def test_replay_frees_forward_intermediates(self, rng):
        a = Tensor(rng.standard_normal((3, 3)))
        with Tape() as tape:
            h = nd.mul(nd.mul(a, a), np.full((3, 3), 3.0))
            alive = weakref.ref(h)
            s = nd.dot(h, a)
            del h
            n_records = len(tape._records)
            (ga,) = tape.gradient(s, [a])
        assert n_records == 3
        assert alive() is None
        assert tape._records == []
        # s = 3 * sum(a^3)
        np.testing.assert_allclose(ga, 9 * a.data ** 2, rtol=1e-14)


class TestInstruments:
    def test_finite_check_raises_on_inf(self):
        nd.set_debug_checks(True)
        with pytest.raises(FloatingPointError):
            Tensor([np.inf])

    def test_mac_counter_counts_matmul(self, rng):
        with nd.record_macs() as macs:
            nd.matmul(Tensor(rng.standard_normal((4, 5))),
                      Tensor(rng.standard_normal((5, 6))))
        assert macs.total == 4 * 5 * 6

    def test_mac_counter_counts_conv(self, rng):
        with nd.record_macs() as macs:
            nd.conv1d(Tensor(rng.standard_normal(20)),
                      Tensor(rng.standard_normal((3, 1, 4))), 2)
        assert macs.total == 3 * 4 * 9

    def test_arena_tracks_peak_live_bytes(self):
        with nd.track_memory() as arena:
            a = Tensor(np.zeros(1000))        # 8000 bytes
            b = Tensor(np.zeros(500))         # +4000
            peak_with_both = arena.current
            del a
            Tensor(np.zeros(100))
        assert peak_with_both == 12000
        assert arena.peak == 12000

    def test_arena_counts_a_view_that_outlives_its_owner(self):
        # the reshape's owner dies at once, but its buffer lives on in the
        # view; views of one buffer count it once
        with nd.track_memory() as arena:
            view = nd.reshape(Tensor(np.zeros((256, 1000))), (256, 10, 100))
            assert arena.current == 2_048_000
            again = nd.reshape(view, (256, 1000))
            assert arena.current == 2_048_000
            del view, again
            assert arena.current == 0
        assert arena.peak == 2_048_000

    def test_arena_skips_views_of_buffers_older_than_it(self, rng):
        # a slice of a tensor made before the arena (a parameter) adds no
        # bytes; a slice of one made inside it keeps its owner's count
        weight = Tensor(np.zeros((1000, 8)))
        with nd.track_memory() as arena:
            rows = nd.slice_axis(weight, 0, 0, 250)
            assert arena.current == 0
            rows = nd.slice_axis(Tensor(np.zeros((1000, 8))), 0, 0, 250)
            assert arena.current == 64_000
            del rows
        assert arena.current == 0 and arena.peak == 64_000

    def test_arena_inside_mac_counter_both_count(self, rng):
        # the tracer's pattern: one counter around a fresh arena per operation
        with nd.record_macs() as macs:
            with nd.track_memory() as arena:
                nd.matmul(Tensor(rng.standard_normal((4, 5))),
                          Tensor(rng.standard_normal((5, 6))))
        assert macs.total == 4 * 5 * 6
        assert arena.peak == 8 * (4 * 5 + 5 * 6 + 4 * 6)

    def test_nested_mac_counter_shadows_outer_and_hands_it_back(self, rng):
        a = Tensor(rng.standard_normal((2, 3)))
        b = Tensor(rng.standard_normal((3, 4)))
        with nd.record_macs() as outer:
            with nd.record_macs() as inner:
                nd.matmul(a, b)
            with pytest.raises(KeyError):
                with nd.record_macs():
                    raise KeyError
            nd.matmul(a, b)
        nd.matmul(a, b)
        assert inner.total == 24
        assert outer.total == 24

    def test_nested_arena_shadows_outer_and_hands_it_back(self):
        with nd.track_memory() as outer:
            with nd.track_memory() as inner:
                Tensor(np.zeros(10))
            with pytest.raises(KeyError):
                with nd.track_memory():
                    raise KeyError
            kept = Tensor(np.zeros(100))
        Tensor(np.zeros(1000))
        assert inner.peak == 80
        assert outer.peak == outer.current == 800
        del kept

    def test_tape_block_that_raises_leaves_no_tape(self, rng):
        a = Tensor(rng.standard_normal((2, 2)))
        with pytest.raises(KeyError):
            with Tape():
                nd.mul(a, a)
                raise KeyError
        with Tape() as tape:
            s = nd.dot(a, a)
            (ga,) = tape.gradient(s, [a])
        np.testing.assert_array_equal(ga, 2 * a.data)

    def test_finite_check_off_accepts_inf(self):
        nd.set_debug_checks(False)
        assert Tensor([np.inf]).data[0] == np.inf


def loop_windows(t, size):
    """Reference: the fewest size/2-spaced windows that cover t positions."""
    n = 1
    while size + (n - 1) * (size // 2) < t:
        n += 1
    return n


def loop_frame(x, size):
    """Reference: x zero-padded to its windows, one window per loop step."""
    f, t = x.shape
    hop = size // 2
    n = loop_windows(t, size)
    padded = np.zeros((f, (n + 1) * hop))
    padded[:, :t] = x
    buf = np.empty((f, size, n))
    for j in range(n):
        buf[:, :, j] = padded[:, j * hop:j * hop + size]
    return buf


def loop_overlap_sum(x, length):
    """Reference: windows added one at a time, in window order, trimmed."""
    f, size, n = x.shape
    hop = size // 2
    buf = np.zeros((f, (n + 1) * hop))
    for j in range(n):
        buf[:, j * hop:j * hop + size] += x[:, :, j]
    return buf[:, :length]


def loop_coverage(size, n):
    """Reference: how many windows cover each position."""
    return loop_overlap_sum(np.ones((1, size, n)), (n + 1) * size // 2)[0]


def framing_cases(size):
    # T < size, T = size, T = size + 1 (odd, padded last window), a padded
    # odd T three windows on, and an exact fit
    hop = size // 2
    return sorted({1, max(1, size - 3), size, size + 1, size + 3 * hop - 1,
                   size + 3 * hop})


class TestFraming:
    @pytest.mark.parametrize("size", [2, 8, 250])
    def test_frame_and_its_backward_equal_loops_exactly(self, rng, size):
        for t in framing_cases(size):
            x = Tensor(rng.standard_normal((3, t)))
            n = loop_windows(t, size)
            g = rng.standard_normal((3, size, n))
            g[rng.uniform(size=g.shape) < 0.2] = -0.0
            with Tape() as tape:
                framed = nd.frame(x, size)
                (gx,) = tape.gradient(nd.dot(framed, Tensor(g)), [x])
            assert framed.data.tobytes() == loop_frame(x.data, size).tobytes()
            assert gx.tobytes() == loop_overlap_sum(g, t).tobytes()

    @pytest.mark.parametrize("size", [2, 8, 250])
    def test_overlap_mean_and_its_backward_equal_loops_exactly(self, rng,
                                                               size):
        # the loops add each position's windows in window order, then
        # divide by the coverage; the op halves the doubly covered blocks
        hop = size // 2
        for t in framing_cases(size):
            n = loop_windows(t, size)
            padded = (n + 1) * hop
            coverage = loop_coverage(size, n)
            for length in sorted({1, t, padded - 1, padded}):
                x = Tensor(rng.standard_normal((3, size, n)))
                g = rng.standard_normal((3, length))
                g[rng.uniform(size=g.shape) < 0.2] = -0.0
                with Tape() as tape:
                    out = nd.overlap_mean(x, length)
                    (gx,) = tape.gradient(nd.dot(out, Tensor(g)), [x])
                want = loop_overlap_sum(x.data, padded) / coverage
                assert out.data.tobytes() == want[:, :length].tobytes()
                g_full = np.zeros((3, padded))
                g_full[:, :length] = g
                assert gx.tobytes() == loop_frame(g_full / coverage,
                                                  size).tobytes()

    def test_geometry_is_the_fewest_covering_windows(self):
        for size in (2, 8, 250):
            for t in framing_cases(size) + [0, 3999]:
                n = loop_windows(t, size)
                assert nd.padded_chunk_geometry(t, size) == (
                    (n + 1) * size // 2, n)

    @pytest.mark.parametrize("length", [7, 8])
    def test_arena_counts_each_output_once(self, rng, length):
        # untrimmed too: the output owns its buffer, not a view of one
        x = Tensor(rng.standard_normal((2, length)))
        with nd.track_memory() as arena:
            framed = nd.frame(x, 4)
            out = nd.overlap_mean(framed, length)
        assert out.data.base is None
        assert arena.current == framed.data.nbytes + out.data.nbytes

    @pytest.mark.parametrize("size", [0, 5])
    def test_frame_refuses_a_size_that_is_not_even(self, size):
        with pytest.raises(nd.ShapeError, match="even"):
            nd.frame(Tensor(np.zeros((2, 9))), size)

    def test_frame_refuses_a_map_that_is_not_2d(self):
        with pytest.raises(nd.ShapeError, match=r"\(F, T\)"):
            nd.frame(Tensor(np.zeros((2, 3, 9))), 4)

    def test_overlap_mean_refuses_an_odd_size(self):
        with pytest.raises(nd.ShapeError, match="even"):
            nd.overlap_mean(Tensor(np.zeros((2, 5, 3))), 6)

    def test_overlap_mean_refuses_a_map_that_is_not_3d(self):
        with pytest.raises(nd.ShapeError, match=r"\(F, size, n\)"):
            nd.overlap_mean(Tensor(np.zeros((2, 8))), 4)

    @pytest.mark.parametrize("length", [-1, 0, 9])
    def test_overlap_mean_refuses_a_length_its_windows_do_not_span(self,
                                                                   length):
        # three windows of 4 at hop 2 span 8 positions
        with pytest.raises(nd.ShapeError, match="spans 8 positions"):
            nd.overlap_mean(Tensor(np.zeros((2, 4, 3))), length)


def test_full_op_gradient_suite_under_tolerance():
    results = run_suite("ndkernel")
    assert len(results) == len(nd.DIFFERENTIABLE_OPS)
    for name, err in results:
        assert err < 1e-4, "%s gradient off by %.3e" % (name, err)


def test_suite_covers_every_differentiable_op_once():
    names = [name.split(".", 1)[1] for name, _ in run_suite("ndkernel")]
    assert sorted(names) == sorted(nd.DIFFERENTIABLE_OPS)
    assert len(set(names)) == len(names)


def test_every_op_but_the_probe_runs_in_the_package():
    # every differentiable op but dot (the gradcheck probe) is called as
    # nd.<op> by a package module other than the kernel and gradcheck, and
    # every defaulted parameter of an op is passed, by position or by
    # keyword, by one of those calls, so no op or flag lives on for tests
    # alone
    calls = defaultdict(list)
    for path in Path(nd.__file__).parent.glob("*.py"):
        if path.name in ("ndkernel.py", "gradcheck.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "nd"):
                calls[node.func.attr].append(node)
    assert sorted(set(nd.DIFFERENTIABLE_OPS) - {"dot"} - set(calls)) == []
    unpassed = []
    for op in nd.DIFFERENTIABLE_OPS:
        params = inspect.signature(getattr(nd, op)).parameters.values()
        for i, param in enumerate(params):
            if param.default is not param.empty and not any(
                    len(call.args) > i
                    or any(kw.arg == param.name for kw in call.keywords)
                    for call in calls[op]):
                unpassed.append("%s(%s)" % (op, param.name))
    assert unpassed == []


def test_injected_sign_bug_is_detected(rng):
    # a broken backward rule must trip the finite-difference oracle
    def broken_mul(a, b):
        out = Tensor(a.data * b.data)
        nd._record(out, (a, b), lambda g: (-g * b.data, g * a.data))
        return out

    a = Tensor(rng.uniform(0.5, 1.0, (3, 3)))
    b = Tensor(rng.uniform(0.5, 1.0, (3, 3)))
    err = check_gradients(lambda: broken_mul(a, b), [a, b])
    assert err > 1e-4
