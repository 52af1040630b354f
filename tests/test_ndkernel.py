import math

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
            s = nd.sum_all(nd.matmul(a, b))
            ga, _ = tape.gradient(s, [a, b])
        np.testing.assert_allclose(ga, np.ones((4, 5)) @ b.data.T,
                                   atol=1e-12)

    def test_associative_on_well_conditioned_inputs(self, rng):
        for _ in range(20):
            a, b, c = (rng.uniform(-1, 1, (8, 8)) for _ in range(3))
            left = nd.matmul(nd.matmul(Tensor(a), Tensor(b)), Tensor(c))
            right = nd.matmul(Tensor(a), nd.matmul(Tensor(b), Tensor(c)))
            np.testing.assert_allclose(left.data, right.data, atol=1e-9)


class TestSoftmax:
    def test_equal_values_give_uniform_row(self):
        out = nd.softmax_rows(Tensor([[7.3, 7.3, 7.3]]))
        np.testing.assert_allclose(out.data, [[1 / 3] * 3], atol=1e-15)

    def test_closed_form_two_logits(self):
        # e^0 / (e^0 + e^ln3) = 1/4
        out = nd.softmax_rows(Tensor([[0.0, math.log(3.0)]]))
        np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-12)

    def test_large_logit_does_not_overflow(self):
        out = nd.softmax_rows(Tensor([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data[0, 0], 1.0, atol=1e-12)

    def test_rows_sum_to_one(self, rng):
        out = nd.softmax_rows(Tensor(rng.standard_normal((6, 9))))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)

    def test_invariant_to_row_shift(self, rng):
        x = rng.standard_normal((4, 7))
        shifted = x + rng.standard_normal((4, 1))
        np.testing.assert_allclose(nd.softmax_rows(Tensor(x)).data,
                                   nd.softmax_rows(Tensor(shifted)).data,
                                   atol=1e-12)


class TestLayerNorm:
    def test_constant_input_maps_to_bias(self):
        x = Tensor(np.full((3, 4), 2.5))
        out = nd.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_two_point_row(self):
        # mean 2, population std 1 -> normalized to [-1, 1]
        out = nd.layer_norm(Tensor([[1.0, 3.0]]), Tensor(np.ones(2)),
                            Tensor(np.zeros(2)), eps=1e-12)
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-6)

    def test_leading_axis_normalization(self, rng):
        x = rng.standard_normal((5, 3))
        out = nd.layer_norm(Tensor(x), Tensor(np.ones(5)),
                            Tensor(np.zeros(5)), axis=0)
        np.testing.assert_allclose(out.data.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.data.var(axis=0), 1.0, atol=1e-4)


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

    def test_transpose_length_inverts_formula(self, rng):
        out = nd.conv1d_transpose(Tensor(rng.standard_normal((3, 999))),
                                  Tensor(rng.standard_normal((3, 1, 16))), 8)
        assert out.shape == (8000,)

    def test_adjoint_identity(self, rng):
        # <conv(x), y> == <x, conv_transpose(y)> for random pairs
        for _ in range(5):
            x = rng.standard_normal(32)
            filt = Tensor(rng.standard_normal((4, 1, 5)))
            tp = (32 - 5) // 3 + 1
            y = rng.standard_normal((4, tp))
            lhs = float((nd.conv1d(Tensor(x), filt, 3).data * y).sum())
            rhs = float(
                (x * nd.conv1d_transpose(Tensor(y), filt, 3).data).sum())
            assert abs(lhs - rhs) < 1e-9

    def test_zero_feature_map_gives_zero_signal(self):
        out = nd.conv1d_transpose(Tensor(np.zeros((2, 10))),
                                  Tensor(np.ones((2, 1, 4))), 2)
        np.testing.assert_array_equal(out.data, np.zeros(22))


class TestActivations:
    def test_relu_values(self):
        out = nd.relu(Tensor([-1.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 2.0])

    def test_prelu_negative_branch(self):
        out = nd.prelu(Tensor([[-4.0]]), Tensor([0.25]))
        assert out.data[0, 0] == -1.0

    def test_prelu_positive_branch_unchanged(self):
        out = nd.prelu(Tensor([[3.0]]), Tensor([0.25]))
        assert out.data[0, 0] == 3.0


class TestTape:
    def test_unused_array_gets_exactly_zero(self, rng):
        a = Tensor(rng.standard_normal((2, 2)))
        unused = Tensor(rng.standard_normal((3, 3)))
        with Tape() as tape:
            s = nd.sum_all(nd.mul(a, a))
            grads = tape.gradient(s, [a, unused])
        assert np.array_equal(grads[1], np.zeros((3, 3)))

    def test_reverse_order_accumulates_shared_input(self, rng):
        a = Tensor(rng.standard_normal((3, 3)))
        with Tape() as tape:
            s = nd.sum_all(nd.add(nd.mul(a, a), a))
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
            s = nd.sum_all(a)
            (ga,) = tape.gradient(s, [a])
        np.testing.assert_array_equal(ga, np.ones((2, 2)))


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

    def test_mac_counter_counts_bmm_and_conv(self, rng):
        with nd.record_macs() as macs:
            nd.bmm(Tensor(rng.standard_normal((2, 3, 4))),
                   Tensor(rng.standard_normal((2, 4, 5))))
        assert macs.total == 2 * 3 * 4 * 5
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


class TestFrameOverlap:
    def test_frame_then_overlap_sum_is_coverage_weighted(self, rng):
        x = rng.standard_normal((2, 10))
        frames = nd.frame(Tensor(x), 4, 2)
        back = nd.overlap_sum(frames, 2, 10)
        coverage = np.zeros(10)
        for j in range(4):
            coverage[2 * j:2 * j + 4] += 1
        np.testing.assert_allclose(back.data, x * coverage, atol=1e-12)

    def test_frame_rejects_ragged_length(self):
        with pytest.raises(nd.ShapeError):
            nd.frame(Tensor(np.zeros((2, 9))), 4, 2)


def loop_frame(x, size, hop):
    """Reference: one window per loop step."""
    f, t = x.shape
    n = 1 + (t - size) // hop
    buf = np.empty((f, size, n))
    for j in range(n):
        buf[:, :, j] = x[:, j * hop:j * hop + size]
    return buf


def loop_overlap_sum(x, hop, length):
    """Reference: windows added one at a time, in window order."""
    f, size, n = x.shape
    buf = np.zeros((f, length))
    for j in range(n):
        buf[:, j * hop:j * hop + size] += x[:, :, j]
    return buf


class TestFramingMatchesLoops:
    # (size, hop): chunking (hop = size/2), longformer bands (hop 1), a hop
    # that does not divide the window, a hop wider than the window
    GEOMETRIES = [(8, 4), (250, 125), (5, 1), (101, 1), (6, 4), (3, 5),
                  (4, 4), (7, 7)]

    @pytest.mark.parametrize("size,hop", GEOMETRIES)
    def test_forward_and_backward_equal_loops_exactly(self, rng, size, hop):
        # both vectorized ops add each position's windows in window order,
        # so the sums match the loops bit for bit
        for n in (1, 2, 9):
            length = size + (n - 1) * hop
            x = rng.standard_normal((3, length))
            frames = rng.standard_normal((3, size, n))
            g_frames = rng.standard_normal((3, size, n))
            g_signal = rng.standard_normal((3, length))
            with Tape() as tape:
                xt, ft = Tensor(x), Tensor(frames)
                framed = nd.frame(xt, size, hop)
                summed = nd.overlap_sum(ft, hop, length)
                loss = nd.add(nd.dot(framed, Tensor(g_frames)),
                              nd.dot(summed, Tensor(g_signal)))
                gx, gf = tape.gradient(loss, [xt, ft])
            np.testing.assert_array_equal(framed.data,
                                          loop_frame(x, size, hop))
            np.testing.assert_array_equal(
                summed.data, loop_overlap_sum(frames, hop, length))
            np.testing.assert_array_equal(
                gx, loop_overlap_sum(g_frames, hop, length))
            np.testing.assert_array_equal(gf, loop_frame(g_signal, size, hop))


def test_full_op_gradient_suite_under_tolerance():
    results = run_suite("ndkernel")
    assert len(results) == len(nd.DIFFERENTIABLE_OPS)
    for name, err in results:
        assert err < 1e-4, "%s gradient off by %.3e" % (name, err)


def test_suite_covers_every_differentiable_op_once():
    names = [name.split(".", 1)[1] for name, _ in run_suite("ndkernel")]
    assert sorted(names) == sorted(nd.DIFFERENTIABLE_OPS)
    assert len(set(names)) == len(names)


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
