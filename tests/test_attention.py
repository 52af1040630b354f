import dataclasses
import math
import pathlib

import numpy as np
import pytest

from sepformer import attention
from sepformer import ndkernel as nd
from sepformer.attention import (VARIANTS, AttentionSpec,
                                 SequenceTooLongError, attention_core_macs,
                                 attention_tensors, hash_buckets,
                                 init_attention_weights,
                                 multi_head_dispatch, positional_encoding,
                                 projection_macs)
from sepformer.gradcheck import TOLERANCE, check_gradients
from sepformer.ndkernel import Tape, Tensor


def longformer_allowed(length, window, global_stride):
    """Boolean (T x T) matrix of the longformer's attention pattern: a
    band of half-width (window - 1) / 2, plus every ``global_stride``-th
    position attending to and attended by all."""
    half = (window - 1) // 2
    t = np.arange(length)
    allowed = np.abs(t[:, None] - t[None, :]) <= half
    if global_stride is not None:
        g = np.arange(0, length, global_stride)
        allowed[g, :] = True
        allowed[:, g] = True
    return allowed


def make_weights(spec, feat_dim, seed=0):
    return init_attention_weights(spec, feat_dim,
                                  np.random.default_rng(seed))


def use_core(monkeypatch, variant, core):
    """Run ``core`` in place of the variant's core."""
    monkeypatch.setitem(attention.REGISTRY, variant,
                        attention.REGISTRY[variant]._replace(core=core))


def brute_force_attention(x, weights, spec):
    """Per-head, per-position loop computing softmax(q.k/sqrt(dk)) v."""
    dk = spec.d_head
    t = x.shape[1]
    q = weights.wq.data @ x
    k = weights.wk.data @ x
    v = weights.wv.data @ x
    heads = []
    for i in range(spec.heads):
        qi, ki, vi = (m[i * dk:(i + 1) * dk] for m in (q, k, v))
        head = np.zeros((dk, t))
        for a in range(t):
            logits = np.array([qi[:, a] @ ki[:, b] for b in range(t)])
            logits /= math.sqrt(dk)
            w = np.exp(logits - logits.max())
            w /= w.sum()
            for b in range(t):
                head[:, a] += w[b] * vi[:, b]
        heads.append(head)
    return weights.wo.data @ np.concatenate(heads, axis=0)


def shared_qk_full_oracle(x, weights, spec):
    """Dense shared-QK attention with the self-slot soft-masked."""
    dk = spec.d_head
    t = x.shape[1]
    q = weights.wq.data @ x
    v = weights.wv.data @ x
    heads = []
    for i in range(spec.heads):
        qi = q[i * dk:(i + 1) * dk]
        vi = v[i * dk:(i + 1) * dk]
        ki = qi / np.sqrt((qi ** 2).sum(axis=0, keepdims=True) + 1e-12)
        logits = qi.T @ ki / math.sqrt(dk)
        logits = logits + np.where(np.eye(t, dtype=bool), -1e5, 0.0)
        w = np.exp(logits - logits.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        heads.append(vi @ w.T)
    return weights.wo.data @ np.concatenate(heads, axis=0)


def weight_rows(spec, weights, shape, rng, seed=0):
    """Every query's attention weights, read off the variant core's output
    on random queries and keys: with one-hot values (position j's value is
    the unit vector e_j of a head's d_head rows, zero for j >= d_head),
    output column i of a head is query i's weight row. ``shape`` is
    (batch, L); returns (heads*batch, L, min(d_head, L)), head major."""
    batch, length = shape
    heads, dk = spec.heads, spec.d_head
    n = min(dk, length)
    q, k = (Tensor(rng.standard_normal((heads * dk, batch, length)))
            for _ in range(2))
    v = np.zeros((heads, dk, batch, length))
    v[:, np.arange(n), :, np.arange(n)] = 1.0
    v = Tensor(v.reshape(heads * dk, batch, length))
    ctx = attention._Call(spec, weights, 1.0 / math.sqrt(dk), seed)
    out = spec.entry.core(q, None if spec.entry.shares_qk else k, v, ctx)
    return out.data.reshape(heads, dk, batch, length)[:, :n].transpose(
        0, 2, 3, 1).reshape(heads * batch, length, n)


def reformer_buckets(spec, weights, x, seed):
    """Every head's bucket ids per round, (heads, rounds, batch, L): the
    head's unit queries hashed with ``_reformer_prepare``'s rotations, the
    keys and rotations the reformer op hashes."""
    xd = x.data if x.data.ndim == 3 else x.data[:, None]
    feat, batch, length = xd.shape
    q = (weights.wq.data @ xd.reshape(feat, -1)).reshape(
        spec.heads, spec.d_head, batch, length)
    units = (q / np.sqrt((q ** 2).sum(axis=1, keepdims=True) + 1e-12)
             ).transpose(0, 2, 1, 3)                      # (heads, B, dk, L)
    rotations = attention._reformer_prepare(spec, batch, seed)
    return np.stack([hash_buckets(units, r) for r in rotations], axis=1)


class TestPositionalEncoding:
    def test_position_zero_alternates_zero_one(self):
        pe = positional_encoding(3, 8).data
        np.testing.assert_array_equal(pe[0, 0::2], 0.0)
        np.testing.assert_array_equal(pe[0, 1::2], 1.0)

    def test_first_sine_value(self):
        pe = positional_encoding(2, 8).data
        assert abs(pe[1, 0] - math.sin(1.0)) < 1e-15
        assert abs(pe[1, 0] - 0.841471) < 1e-6

    def test_closed_form_spot_points(self):
        d = 16
        pe = positional_encoding(64, d).data
        rng = np.random.default_rng(5)
        for _ in range(20):
            t = int(rng.integers(0, 64))
            i = int(rng.integers(0, d // 2))
            angle = t / 10000 ** (2 * i / d)
            assert abs(pe[t, 2 * i] - math.sin(angle)) < 1e-12
            assert abs(pe[t, 2 * i + 1] - math.cos(angle)) < 1e-12

    def test_column_frequency_by_fft(self):
        # column 2i oscillates at 10000^(-2i/d) radians per step; the FFT
        # peak of a long encoding must sit at the matching bin
        n, d = 1024, 8
        pe = positional_encoding(n, d).data
        for i in range(2):
            omega = 10000 ** (-2 * i / d)
            spectrum = np.abs(np.fft.rfft(pe[:, 2 * i]))
            spectrum[0] = 0.0
            peak = int(np.argmax(spectrum))
            expected = omega * n / (2 * math.pi)
            assert abs(peak - expected) <= 1.0

    def test_values_bounded(self):
        pe = positional_encoding(200, 10).data
        assert np.all(pe >= -1.0) and np.all(pe <= 1.0)


class TestFullAttention:
    def test_single_position_map_is_one(self, rng):
        spec = AttentionSpec("full", heads=2, d_model=8)
        rows = weight_rows(spec, None, (3, 1), rng)
        np.testing.assert_array_equal(rows, np.ones((6, 1, 1)))

    def test_duplicate_positions_share_output(self, rng):
        spec = AttentionSpec("full", heads=2, d_model=8)
        w = make_weights(spec, 6)
        x = rng.standard_normal((6, 4))
        x[:, 2] = x[:, 0]
        out = multi_head_dispatch(Tensor(x), w, spec).data
        np.testing.assert_allclose(out[:, 2], out[:, 0], atol=1e-12)

    def test_matches_brute_force_loop(self, rng):
        spec = AttentionSpec("full", heads=2, d_model=8)
        w = make_weights(spec, 6)
        x = rng.standard_normal((6, 4))
        out = multi_head_dispatch(Tensor(x), w, spec).data
        np.testing.assert_allclose(out, brute_force_attention(x, w, spec),
                                   atol=1e-9)

    def test_permutation_equivariant_without_positions(self, rng):
        spec = AttentionSpec("full", heads=4, d_model=8)
        w = make_weights(spec, 8)
        x = rng.standard_normal((8, 7))
        perm = rng.permutation(7)
        attended = multi_head_dispatch(Tensor(x), w, spec).data
        permuted = multi_head_dispatch(Tensor(x[:, perm]), w, spec).data
        np.testing.assert_allclose(permuted, attended[:, perm], atol=1e-9)


class TestLongformer:
    def test_full_coverage_window_and_all_globals_match_full(self, rng):
        t = 12
        lf_spec = AttentionSpec("longformer", heads=2, d_model=8,
                                window=2 * t - 1, global_stride=1)
        full_spec = AttentionSpec("full", heads=2, d_model=8)
        w = make_weights(lf_spec, 6)
        x = rng.standard_normal((6, t))
        lf = multi_head_dispatch(Tensor(x), w, lf_spec).data
        dense = multi_head_dispatch(Tensor(x), w, full_spec).data
        np.testing.assert_allclose(lf, dense, atol=1e-9)

    def test_full_coverage_window_without_globals(self, rng):
        t = 9
        lf_spec = AttentionSpec("longformer", heads=2, d_model=8,
                                window=2 * t - 1, global_stride=None)
        full_spec = AttentionSpec("full", heads=2, d_model=8)
        w = make_weights(lf_spec, 6)
        x = rng.standard_normal((6, t))
        np.testing.assert_allclose(
            multi_head_dispatch(Tensor(x), w, lf_spec).data,
            multi_head_dispatch(Tensor(x), w, full_spec).data, atol=1e-9)

    def test_band_pair_count(self):
        # width-3 band over 5 positions: 3*5 - 2 = 13 allowed pairs
        allowed = longformer_allowed(5, 3, None)
        assert allowed.sum() == 13

    @pytest.mark.parametrize("length", [11, 3])
    def test_realized_rows_are_distributions_over_the_pattern(self, rng,
                                                              length):
        # length 11 runs in blocks with three globals, length 3 is covered
        # by the band; rows of non-global and global positions alike
        spec = AttentionSpec("longformer", heads=2, d_model=32, window=5,
                             global_stride=4)
        rows = weight_rows(spec, None, (3, length), rng)
        allowed = longformer_allowed(length, spec.window, spec.global_stride)
        assert np.all(rows >= 0)
        np.testing.assert_allclose(rows.sum(axis=-1), 1.0, atol=1e-9)
        assert not rows[:, ~allowed].any()

    @pytest.mark.parametrize("length,window,stride",
                             [(11, 5, 4), (16, 3, None), (65, 5, 4),
                              (7, 101, 100)])
    def test_off_pattern_keys_leave_a_query_unchanged(self, rng, length,
                                                      window, stride):
        # perturbing position j moves query i's output bit for bit exactly
        # when the realized pattern lets i see j (i == j included); the
        # other sequences of the batch never move
        spec = AttentionSpec("longformer", heads=2, d_model=8, window=window,
                             global_stride=stride)
        w = make_weights(spec, 6)
        x = rng.standard_normal((6, 2, length))
        base = multi_head_dispatch(Tensor(x), w, spec).data
        allowed = longformer_allowed(length, window, stride)
        for j in range(length):
            moved = x.copy()
            moved[:, 1, j] += rng.standard_normal(6)
            out = multi_head_dispatch(Tensor(moved), w, spec).data
            np.testing.assert_array_equal(out[:, 0], base[:, 0])
            changed = (out[:, 1] != base[:, 1]).any(axis=0)
            np.testing.assert_array_equal(changed, allowed[:, j])

    def test_mask_matches_banded_oracle(self, rng):
        # dense masked-softmax oracle over the allowed set == banded path
        t = 10
        spec = AttentionSpec("longformer", heads=1, d_model=4, window=3,
                             global_stride=4)
        w = make_weights(spec, 4)
        x = rng.standard_normal((4, t))
        out = multi_head_dispatch(Tensor(x), w, spec).data

        allowed = longformer_allowed(t, spec.window, spec.global_stride)
        q = w.wq.data @ x
        k = w.wk.data @ x
        v = w.wv.data @ x
        logits = q.T @ k / 2.0
        logits[~allowed] = -np.inf
        weights = np.exp(logits - logits.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
        expected = w.wo.data @ (v @ weights.T)
        np.testing.assert_allclose(out, expected, atol=1e-9)

    def test_macs_grow_linearly_with_fixed_globals(self, rng):
        # fixed window and fixed global count: doubling T doubles the MACs
        feat = 16
        totals = {}
        for t, stride in ((1000, 100), (2000, 200)):
            spec = AttentionSpec("longformer", heads=2, d_model=16,
                                 window=11, global_stride=stride)
            w = make_weights(spec, feat)
            x = Tensor(rng.standard_normal((feat, t)))
            with nd.record_macs() as macs:
                multi_head_dispatch(x, w, spec)
            totals[t] = macs.total
        ratio = totals[2000] / totals[1000]
        assert 1.9 <= ratio <= 2.3


class TestLinformer:
    def test_identity_projection_matches_full(self, rng):
        t = 10
        spec = AttentionSpec("linformer", heads=2, d_model=8, proj_len=t,
                             max_len=t)
        w = make_weights(spec, 6)
        w.proj_p = Tensor(np.eye(t))
        w.proj_f = Tensor(np.eye(t))
        full_spec = AttentionSpec("full", heads=2, d_model=8)
        x = rng.standard_normal((6, t))
        np.testing.assert_allclose(
            multi_head_dispatch(Tensor(x), w, spec).data,
            multi_head_dispatch(Tensor(x), w, full_spec).data, atol=1e-9)

    def test_rows_are_distributions_over_the_slots(self, rng):
        # an identity value projection puts position s's value in slot s,
        # so one-hot values read each query's weights over the 16 slots
        spec = AttentionSpec("linformer", heads=2, d_model=32, proj_len=16,
                             max_len=200)
        w = make_weights(spec, 6)
        w.proj_f = Tensor(np.eye(200, 16))
        rows = weight_rows(spec, w, (1, 100), rng)
        assert rows.shape == (2, 100, 16)
        assert np.all(rows >= 0)
        np.testing.assert_allclose(rows.sum(axis=-1), 1.0, atol=1e-9)

    def test_sequence_longer_than_max_rejected(self, rng):
        spec = AttentionSpec("linformer", heads=2, d_model=8, proj_len=4,
                             max_len=8)
        w = make_weights(spec, 6)
        with pytest.raises(SequenceTooLongError):
            multi_head_dispatch(Tensor(rng.standard_normal((6, 9))), w, spec)


class TestReformer:
    def test_identical_inputs_collapse_to_one_bucket(self, rng):
        spec = AttentionSpec("reformer", heads=2, d_model=8, n_buckets=2,
                             n_rounds=2, bucket_chunk=16)
        w = make_weights(spec, 6)
        col = rng.standard_normal(6)
        x = np.tile(col[:, None], (1, 8))
        out = multi_head_dispatch(Tensor(x), w, spec, seed=3).data
        for head in reformer_buckets(spec, w, Tensor(x), 3):
            for rnd in head:
                assert len(set(rnd.ravel())) == 1
        np.testing.assert_allclose(out, shared_qk_full_oracle(x, w, spec),
                                   atol=1e-6)

    def test_single_chunk_equals_full_shared_qk(self, rng):
        # everything fits one chunk, so bucket order cannot restrict pairs
        spec = AttentionSpec("reformer", heads=2, d_model=8, n_buckets=4,
                             n_rounds=2, bucket_chunk=32)
        w = make_weights(spec, 6)
        x = rng.standard_normal((6, 12))
        out = multi_head_dispatch(Tensor(x), w, spec, seed=11).data
        np.testing.assert_allclose(out, shared_qk_full_oracle(x, w, spec),
                                   atol=1e-6)

    def test_same_seed_bit_identical(self, rng):
        spec = AttentionSpec("reformer", heads=2, d_model=8, n_buckets=4,
                             n_rounds=2, bucket_chunk=4)
        w = make_weights(spec, 6)
        x = Tensor(rng.standard_normal((6, 21)))
        a = multi_head_dispatch(x, w, spec, seed=9).data
        b = multi_head_dispatch(x, w, spec, seed=9).data
        np.testing.assert_array_equal(a, b)

    def test_different_seed_changes_hashing(self, rng):
        spec = AttentionSpec("reformer", heads=2, d_model=8, n_buckets=4,
                             n_rounds=1, bucket_chunk=4)
        w = make_weights(spec, 6)
        x = Tensor(rng.standard_normal((6, 21)))
        a = multi_head_dispatch(x, w, spec, seed=1).data
        b = multi_head_dispatch(x, w, spec, seed=2).data
        assert not np.array_equal(a, b)

    def test_rows_are_distributions_over_realized_slots(self, rng):
        # the rounds' maps mixed per query, as the output reads them
        spec = AttentionSpec("reformer", heads=2, d_model=32, n_buckets=4,
                             n_rounds=2, bucket_chunk=4)
        rows = weight_rows(spec, None, (2, 15), rng, seed=[5, 6])
        assert np.all(rows >= 0)
        np.testing.assert_allclose(rows.sum(axis=-1), 1.0, atol=1e-9)

    def test_single_position_attends_to_itself(self, rng):
        # soft self-masking keeps a lone position alive
        spec = AttentionSpec("reformer", heads=2, d_model=8, n_buckets=2,
                             n_rounds=2, bucket_chunk=4)
        w = make_weights(spec, 6)
        x = rng.standard_normal((6, 1))
        out = multi_head_dispatch(Tensor(x), w, spec, seed=1).data
        v = w.wv.data @ x
        np.testing.assert_allclose(out, w.wo.data @ v, atol=1e-12)

    @pytest.mark.parametrize("length", [8, 3])
    def test_self_slots_get_no_weight_when_alternatives_exist(self, rng,
                                                             length):
        # two chunks of 4, or one chunk of its own length
        spec = AttentionSpec("reformer", heads=1, d_model=8, n_buckets=2,
                             n_rounds=1, bucket_chunk=4)
        rows = weight_rows(spec, None, (1, length), rng, seed=2)
        assert np.all(np.diagonal(rows, axis1=1, axis2=2) <= 1e-12)

    def test_lsh_keeps_clusters_together(self):
        # two tight clusters of directions: over 8 rounds at least 95% of
        # intra-cluster pairs hash into the same bucket
        rng = np.random.default_rng(77)
        d, per_cluster = 8, 32
        centers = [rng.standard_normal(d) for _ in range(2)]
        cols = []
        for c in centers:
            c = c / np.linalg.norm(c)
            for _ in range(per_cluster):
                v = c + 0.02 * rng.standard_normal(d)
                cols.append(v / np.linalg.norm(v))
        vectors = np.stack(cols, axis=1)   # (d, 64)
        same = total = 0
        for _ in range(8):
            rotation = rng.standard_normal((d, 1))
            buckets = hash_buckets(vectors, rotation)
            for cluster in (buckets[:per_cluster], buckets[per_cluster:]):
                n = len(cluster)
                total += n * (n - 1) // 2
                for b in (0, 1):
                    k = int((cluster == b).sum())
                    same += k * (k - 1) // 2
        assert same / total >= 0.95

    def test_hash_equals_the_argmax_over_both_signs(self, rng):
        # the argmax over [p, -p] of the projection p, on random data and
        # on ties built into the projections (an identity rotation hashes
        # the vectors' own coordinates)
        def concatenated(vectors, rotation):
            proj = np.swapaxes(vectors, -1, -2) @ rotation
            return np.argmax(np.concatenate([proj, -proj], axis=-1), axis=-1)

        ties = np.array([[1.0, -1.0, 0.5, 0.0],     # max == -min, max first
                         [-1.0, 1.0, 0.5, 0.0],     # max == -min, min first
                         [0.5, 0.5, -0.2, 0.1],     # repeated maxima
                         [-0.5, 0.2, -0.5, 0.1],    # repeated minima win
                         [0.3, -0.3, 0.3, -0.3],    # both repeated and tied
                         [0.0, 0.0, 0.0, 0.0]]).T   # all tied
        for vectors, rotation in [
                (rng.standard_normal((3, 8, 500)),
                 rng.standard_normal((3, 8, 8))),
                (rng.standard_normal((8, 500)), rng.standard_normal((8, 1))),
                (ties, np.eye(4))]:
            np.testing.assert_array_equal(hash_buckets(vectors, rotation),
                                          concatenated(vectors, rotation))



# The longformer core as dense attention: one attention op over every
# pair of positions, under a bias that removes the pairs the realized
# pattern (``longformer_allowed``) leaves out. Kept as the reference the
# blocked core must reproduce.

def reference_longformer_head(q, k, v, ctx):
    spec = ctx.spec
    allowed = longformer_allowed(q.shape[-1], spec.window,
                                 spec.global_stride)
    return nd.attention(q, k, v, spec.heads, ctx.scale,
                        bias=np.where(allowed, 0.0, -1e30)[None])


class TestLongformerMatchesReference:
    # window 1 is a band of one position (blocks of one query), 3 blocks
    # of one, 5 blocks of two with a global every 4th position, 101 blocks
    # of 50 with the paper's global stride; the band covers lengths 1 and
    # 7 at window 101 (and length 1 at every window), where the core runs
    # clamped. Without a tape, "single" runs the attention ops one head at
    # a time, "whole" all four heads at once; a taped run is one block
    @pytest.mark.parametrize("grouping", ["single", "whole"])
    @pytest.mark.parametrize("batch", [None, 3])
    @pytest.mark.parametrize("window,stride",
                             [(1, None), (3, None), (5, 4), (101, 100)])
    @pytest.mark.parametrize("length", [1, 7, 64, 65, 250])
    def test_outputs_and_gradients(self, monkeypatch, length, window, stride,
                                   batch, grouping):
        spec = AttentionSpec("longformer", heads=4, d_model=16,
                             window=window, global_stride=stride)
        w = make_weights(spec, 6, seed=length)
        rng = np.random.default_rng(length + window)
        shape = (6, length) if batch is None else (6, batch, length)
        x = Tensor(rng.standard_normal(shape))
        probe = Tensor(rng.standard_normal((16,) + x.shape[1:]))
        sources = [x] + list(w.parameters().values())
        monkeypatch.setattr(nd, "_GROUP_SCORE_BYTES",
                            1 if grouping == "single" else 2**40)

        def run():
            with Tape() as tape:
                out = multi_head_dispatch(x, w, spec)
                grads = tape.gradient(nd.dot(out, probe), sources)
            return out.data, grads

        out, grads = run()
        np.testing.assert_array_equal(
            multi_head_dispatch(x, w, spec).data, out)
        use_core(monkeypatch, "longformer", reference_longformer_head)
        want_out, want_grads = run()
        assert np.abs(out - want_out).max() <= 1e-12 * np.abs(want_out).max()
        for g, ref in zip(grads, want_grads):
            assert np.abs(g - ref).max() <= 1e-9 * np.abs(ref).max()

    @pytest.mark.parametrize("length,stride,records",
                             [(11, 4, 9), (11, None, 5), (3, 4, 1)])
    def test_tape_records_per_core_call(self, monkeypatch, rng, length,
                                        stride, records):
        # window 5: length 3 is covered by the band and runs clamped; a
        # one-byte score bound still makes one core call on the four heads.
        # The band is three gathers, one attention op and the gather of
        # the picks; globals add a gather, an attention op, and the
        # reshape and concat that join each sequence's band and global rows
        spec = AttentionSpec("longformer", heads=4, d_model=16, window=5,
                             global_stride=stride)
        monkeypatch.setattr(nd, "_GROUP_SCORE_BYTES", 1)
        core = attention._longformer_head
        calls = []

        def counting(q, k, v, ctx):
            before = len(nd._ACTIVE.tape._records)
            out = core(q, k, v, ctx)
            calls.append(len(nd._ACTIVE.tape._records) - before)
            return out

        use_core(monkeypatch, "longformer", counting)
        x = Tensor(rng.standard_normal((6, 3, length)))
        with Tape():
            multi_head_dispatch(x, make_weights(spec, 6), spec)
        assert calls == [records]


# ``_longformer_prepare`` built by scatter, with each removed band slot
# reading the first or last column of its sequence. Kept as the reference
# the broadcast build must reproduce: every array equal, the keys
# wherever a slot is kept. The arrays index (rows, batch, length) maps,
# and ``picks`` each sequence's n band rows followed by its globals.

def reference_longformer_prepare(spec, batch, length):
    half = (spec.window - 1) // 2
    gidx = (np.zeros(0, dtype=np.intp) if spec.global_stride is None
            else np.arange(0, length, spec.global_stride))
    if half >= length - 1:
        return gidx, None
    t = np.arange(length)[:, None]
    slots = t + np.arange(-half, half + 1)
    kept = (slots >= 0) & (slots < length) & ~np.isin(slots, gidx)
    c = max(half, 1)
    cols = slots - (t // c - 1) * c
    ng = len(gidx)
    n = -(-length // c) * c
    bias = np.pad(np.full((n, 3 * c), -1e30), ((0, 0), (0, ng)))
    bias[np.nonzero(kept)[0], cols[kept]] = 0.0
    pos = np.arange(0, n, c)[:, None] - c + np.arange(3 * c)
    keys = np.concatenate([np.clip(pos, 0, length - 1),
                           np.broadcast_to(gidx, (len(pos), ng))], axis=1)
    starts = np.arange(batch)[:, None] * length
    seq = np.arange(batch)[:, None] * (n + ng)
    picks = seq + np.arange(length)
    picks[:, gidx] = seq + n + np.arange(ng)
    return gidx, dict(
        bias=bias.reshape(-1, c, 3 * c + ng),
        queries=(starts + np.minimum(np.arange(n), length - 1)).reshape(
            -1, c),
        keys=(starts + keys.ravel()).reshape(-1, 3 * c + ng),
        global_queries=starts + gidx, picks=picks)


class TestLongformerPrepare:
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("window,stride",
                             [(1, None), (3, None), (5, 4), (7, None),
                              (101, 100)])
    @pytest.mark.parametrize("length", [1, 7, 64, 65, 250, 1000])
    def test_arrays_match_reference(self, length, window, stride, batch):
        spec = AttentionSpec("longformer", heads=4, d_model=16,
                             window=window, global_stride=stride)
        band = attention._longformer_prepare(spec, (batch, length))
        gidx, want = reference_longformer_prepare(spec, batch, length)
        np.testing.assert_array_equal(band.globals, gidx)
        if want is None:
            assert band.bias is None
            return
        for name in ("bias", "queries", "global_queries", "picks"):
            got = getattr(band, name)
            assert got.dtype == want[name].dtype
            assert got.shape == want[name].shape
            np.testing.assert_array_equal(got, want[name])
        # a key slot is kept when any query of its block keeps it; a
        # removed one still reads a column of its own sequence
        kept = np.tile((want["bias"] > -1).any(axis=1), (batch, 1))
        assert band.keys.shape == want["keys"].shape
        np.testing.assert_array_equal(band.keys[kept], want["keys"][kept])
        np.testing.assert_array_equal(band.keys // length,
                                      want["keys"] // length)
        if batch == 1:
            # one sequence in the (L,) layout: the same positions, without
            # the batch axis
            single = attention._longformer_prepare(spec, (length,))
            for name in ("queries", "keys", "global_queries", "picks"):
                np.testing.assert_array_equal(
                    getattr(single, name),
                    getattr(band, name).reshape(getattr(single, name).shape))
            assert single.picks.shape == (length,)
            assert single.global_queries.shape == gidx.shape

    @pytest.mark.parametrize("window,stride,length",
                             [(101, 100, 250), (101, 100, 1000),
                              (5, 4, 250), (7, None, 250)])
    def test_removed_slots_spread_over_the_sequence(self, window, stride,
                                                    length):
        # a position sits in 3 blocks' band windows, plus at most one
        # removed slot past a sequence end; a global is also every
        # block's global key
        spec = AttentionSpec("longformer", heads=4, d_model=16,
                             window=window, global_stride=stride)
        band = attention._longformer_prepare(spec, (2, length))
        copies = np.bincount(band.keys.ravel(), minlength=2 * length)
        on_global = np.isin(np.arange(2 * length) % length, band.globals)
        assert copies[~on_global].max() <= 4
        if on_global.any():
            assert copies[on_global].max() <= 3 + len(band.bias)


# The reformer core as dense attention. In each round a query sees the
# keys in its own chunk and the chunk before of that round's bucket order,
# and the rounds are mixed by the softmax of their log-sum-exps. That
# mixture, sum_r Z_r o_r / sum_r Z_r, is one softmax over every key with
# each key's exponent counted once per round that shows it to the query:
# one attention op under the per-sequence bias log(count), -1e30 where the
# count is 0, with -1e5 more on the own key. A sequence of L <= chunk is
# one chunk. Kept as the reference the fused op must reproduce.

def unit_keys(x):
    """The reformer's keys as a tape record of their own: each column of
    ``x`` over sqrt(sum(x^2) + 1e-12), whose backward is
    g / norm - x (x . g) / norm^3."""
    xd = x.data
    norm = np.sqrt((xd ** 2).sum(axis=0, keepdims=True) + 1e-12)
    out = Tensor(xd / norm)
    nd._record(out, (x,), lambda g: (
        g / norm - xd * ((xd * g).sum(axis=0, keepdims=True) / norm ** 3),))
    return out


def reference_reformer_head(q, k, v, ctx, buckets=None):
    """The reformer core one head at a time: the head's unit keys, hashed
    with each round's rotations, then one dense ``nd.attention`` under
    B[s,i,j] = log of the number of rounds in which key j falls in query
    i's chunk or look-back chunk of the sorted order (-1e30 at 0), -1e5
    more on the diagonal. A ``buckets`` list receives each head's
    (rounds, batch, L) bucket ids."""
    spec, length, m = ctx.spec, q.shape[-1], ctx.spec.bucket_chunk
    heads, batch, dk = spec.heads, math.prod(q.shape[1:-1]), spec.d_head
    rotations = attention._reformer_prepare(spec, batch, ctx.seed)
    outs = []
    for h in range(heads):
        qh, vh = (nd.slice_axis(t, 0, h * dk, (h + 1) * dk) for t in (q, v))
        kq = unit_keys(qh)
        units = kq.data.reshape(dk, batch, length).transpose(1, 0, 2)
        hashed = [hash_buckets(units, rotation) for rotation in rotations]
        if buckets is not None:
            buckets.append(np.stack(hashed))
        count = np.zeros((batch, length, length))
        for ids in hashed:
            order = np.argsort(ids, axis=1, kind="stable")
            chunk = np.empty((batch, length), dtype=np.intp)
            chunk[np.arange(batch)[:, None], order] = np.arange(length) // m
            ahead = chunk[:, :, None] - chunk[:, None, :]   # query's - key's
            count += (ahead == 0) | (ahead == 1)
        bias = np.where(count > 0, np.log(np.maximum(count, 1.0)), -1e30)
        bias[:, np.arange(length), np.arange(length)] -= 1e5
        outs.append(nd.attention(qh, kq, vh, 1, ctx.scale, bias=bias))
    return outs[0] if heads == 1 else nd.concat(outs, axis=0)


def use_reference_reformer(monkeypatch, buckets=None):
    """Run the reference core in place of the op, collecting each head's
    bucket ids in ``buckets``, head after head, when it is a list."""
    use_core(monkeypatch, "reformer",
             lambda q, k, v, ctx: reference_reformer_head(q, k, v, ctx,
                                                          buckets))


def test_unit_keys_record_matches_finite_differences(rng):
    x = Tensor(rng.uniform(-1.0, 1.0, size=(4, 5)))
    assert check_gradients(lambda: unit_keys(x), [x]) <= TOLERANCE


class TestReformerMatchesReference:
    # bucket_chunk 8: lengths 24 (whole chunks), 21 (a padded last chunk)
    # and 5 (shorter than one chunk)
    @pytest.mark.parametrize("n_rounds", [1, 3])
    @pytest.mark.parametrize("length", [24, 21, 5])
    @pytest.mark.parametrize("batch", [None, 3])
    def test_outputs_and_buckets(self, monkeypatch, batch, length, n_rounds):
        spec = AttentionSpec("reformer", heads=2, d_model=8, n_buckets=4,
                             n_rounds=n_rounds, bucket_chunk=8)
        w = make_weights(spec, 6, seed=length)
        rng = np.random.default_rng(length + n_rounds)
        if batch is None:
            x, seed = Tensor(rng.standard_normal((6, length))), 13
        else:
            x, seed = Tensor(rng.standard_normal((6, batch, length))), \
                [13, 4, 27]
        out = multi_head_dispatch(x, w, spec, seed=seed).data
        buckets = []
        use_reference_reformer(monkeypatch, buckets)
        expected = multi_head_dispatch(x, w, spec, seed=seed).data
        assert np.abs(out - expected).max() <= 1e-9 * np.abs(expected).max()
        np.testing.assert_array_equal(np.stack(buckets),
                                      reformer_buckets(spec, w, x, seed))

    def test_rotations_drawn_once_per_call(self, monkeypatch, rng):
        # two heads' score bytes, under which the dispatch once ran the
        # four heads as two groups: one core call, one draw, one op
        spec = AttentionSpec("reformer", heads=4, d_model=8, n_buckets=4,
                             n_rounds=2, bucket_chunk=4)
        monkeypatch.setattr(nd, "_GROUP_SCORE_BYTES",
                            2 * 4 * 2 * spec.entry.core_macs(spec, 9) // 2)
        prepare, op = attention._reformer_prepare, nd.lsh_attention
        draws, ops = [], []

        def drawing(spec, batch, seed):
            draws.append((batch, seed))
            return prepare(spec, batch, seed)

        def running(q, v, rotations, *args):
            ops.append((args[0], q.shape[1]))
            return op(q, v, rotations, *args)

        monkeypatch.setattr(attention, "_reformer_prepare", drawing)
        monkeypatch.setattr(nd, "lsh_attention", running)
        multi_head_dispatch(Tensor(rng.standard_normal((6, 2, 9))),
                            make_weights(spec, 6), spec, seed=[1, 2])
        assert draws == [(2, [1, 2])]
        assert ops == [(4, 2)]

    @pytest.mark.parametrize("n_rounds", [1, 3])
    def test_tape_gradients_agree(self, monkeypatch, n_rounds):
        spec = AttentionSpec("reformer", heads=2, d_model=8, n_buckets=4,
                             n_rounds=n_rounds, bucket_chunk=4)
        w = make_weights(spec, 6, seed=1)
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((6, 2, 11)))
        probe = Tensor(rng.standard_normal((8, 2, 11)))
        sources = [x] + list(w.parameters().values())

        def grads():
            with Tape() as tape:
                out = multi_head_dispatch(x, w, spec, seed=[5, 9])
                return tape.gradient(nd.dot(out, probe), sources)

        got = grads()
        use_reference_reformer(monkeypatch)
        want = grads()
        for g, ref in zip(got, want):
            assert np.abs(g - ref).max() <= 1e-9 * np.abs(ref).max()


class TestReformerOpMatchesReference:
    # bucket_chunk 64: lengths 1 and 7 are one chunk of their own length,
    # 64 exactly one chunk, 65 two chunks with one real row in the second,
    # 250 four chunks; without a tape, "single" runs the op one head (and
    # one chunk) at a time, "whole" all four heads at once
    @pytest.mark.parametrize("grouping", ["single", "whole"])
    @pytest.mark.parametrize("n_rounds", [1, 3])
    @pytest.mark.parametrize("batch", [None, 3])
    @pytest.mark.parametrize("length", [1, 7, 64, 65, 250])
    def test_outputs_gradients_and_buckets(self, monkeypatch, length, batch,
                                           n_rounds, grouping):
        spec = AttentionSpec("reformer", heads=4, d_model=16, n_buckets=4,
                             n_rounds=n_rounds, bucket_chunk=64)
        w = make_weights(spec, 6, seed=length)
        rng = np.random.default_rng(length + n_rounds)
        if batch is None:
            x, seed = Tensor(rng.standard_normal((6, length))), 13
        else:
            x = Tensor(rng.standard_normal((6, batch, length)))
            seed = [13, 4, 27]
        probe = Tensor(rng.standard_normal((16,) + x.shape[1:]))
        sources = [x] + list(w.parameters().values())
        monkeypatch.setattr(nd, "_GROUP_SCORE_BYTES",
                            1 if grouping == "single" else 2**40)
        calls = []
        core = attention._reformer_head

        def counting(q, k, v, ctx):
            calls.append((ctx.spec.heads, q.shape[1:]))
            return core(q, k, v, ctx)

        def run():
            with Tape() as tape:
                out = multi_head_dispatch(x, w, spec, seed=seed)
                grads = tape.gradient(nd.dot(out, probe), sources)
            return out.data, grads

        use_core(monkeypatch, "reformer", counting)
        out, grads = run()
        np.testing.assert_array_equal(
            multi_head_dispatch(x, w, spec, seed=seed).data, out)
        assert calls == [(4, x.shape[1:])] * 2
        buckets = []
        use_reference_reformer(monkeypatch, buckets)
        want_out, want_grads = run()
        assert np.abs(out - want_out).max() <= 1e-12 * np.abs(want_out).max()
        # at length 1 the queries do not move the output: wq's gradient is
        # exactly 0 in the reference and rounding-sized in the op, so a
        # gradient is held to 1e-9 of its own size or, when smaller, of a
        # thousandth of the largest
        scale = max(np.abs(ref).max() for ref in want_grads)
        for g, ref in zip(grads, want_grads):
            assert np.abs(g - ref).max() <= 1e-9 * max(np.abs(ref).max(),
                                                       1e-3 * scale)
        np.testing.assert_array_equal(np.stack(buckets),
                                      reformer_buckets(spec, w, x, seed))

    # under the score bytes of one or two heads' maps the core is still
    # one call over the four heads, adding one tape record, the op's, and
    # charging every head's MACs
    @pytest.mark.parametrize("group", [1, 2])
    @pytest.mark.parametrize("length", [7, 65])
    def test_one_record_per_core_call_charging_core_macs(self, monkeypatch,
                                                         rng, length, group):
        spec = AttentionSpec("reformer", heads=4, d_model=16, n_buckets=4,
                             n_rounds=3, bucket_chunk=64)
        core_macs = spec.entry.core_macs(spec, length)
        monkeypatch.setattr(nd, "_GROUP_SCORE_BYTES",
                            group * 4 * 3 * core_macs // spec.d_head)
        core = attention._reformer_head
        calls = []

        def counting(q, k, v, ctx):
            active = nd._ACTIVE
            records, macs = len(active.tape._records), active.macs.total
            out = core(q, k, v, ctx)
            calls.append((len(active.tape._records) - records,
                          active.macs.total - macs,
                          active.tape._records[-1][1] == (q, v)))
            return out

        use_core(monkeypatch, "reformer", counting)
        x = Tensor(rng.standard_normal((6, 3, length)))
        with nd.record_macs(), Tape():
            multi_head_dispatch(x, make_weights(spec, 6), spec,
                                seed=[1, 2, 3])
        assert calls == [(1, 4 * 3 * core_macs, True)]

    @pytest.mark.parametrize("length,keys", [(11, 8), (3, 3)])
    def test_arena_counts_the_held_score_map(self, rng, length, keys):
        # chunk 4: length 11 is three chunks of 4 rows against 8 keys,
        # length 3 one chunk of 3 rows against 3
        q, v = (Tensor(rng.standard_normal((5, 2, length)))
                for _ in range(2))
        rotations = [rng.standard_normal((2, 5, 2)) for _ in range(3)]
        rows = -(-length // 4) * 4 if length > 4 else length
        with nd.track_memory() as arena, Tape():
            out = nd.lsh_attention(q, v, rotations, 1, 4, 0.5)
            held = arena.current - out.data.nbytes
        assert held == 3 * 2 * rows * keys * 8

    @pytest.mark.parametrize("length,keys", [(11, 8), (3, 3)])
    def test_blocks_of_chunks_match_the_taped_op(self, rng, monkeypatch,
                                                 length, keys):
        # the 2 sequences x 3 rounds of chunks (3 chunks each at length
        # 11, 1 at length 3) without a tape in blocks of 1, 4 or all of
        # them: outputs bit-identical to the taped op's, which runs every
        # chunk in one block whose whole map the tape holds
        q, v = (Tensor(rng.standard_normal((5, 2, length)))
                for _ in range(2))
        rotations = [rng.standard_normal((2, 5, 2)) for _ in range(3)]
        rows = -(-length // 4) * 4 if length > 4 else length
        monkeypatch.setattr(nd, "_GROUP_SCORE_BYTES", 8 * min(4, length)
                            * keys)
        with nd.track_memory() as arena, Tape():
            want = nd.lsh_attention(q, v, rotations, 1, 4, 0.5).data
            assert arena.current - want.nbytes == 3 * 2 * rows * keys * 8
        for chunks in (1, 4, 18):
            monkeypatch.setattr(nd, "_GROUP_SCORE_BYTES",
                                chunks * 8 * min(4, length) * keys)
            np.testing.assert_array_equal(
                nd.lsh_attention(q, v, rotations, 1, 4, 0.5).data, want)

    @pytest.mark.parametrize("group", [1, 2])
    @pytest.mark.parametrize("length", [11, 3])
    def test_head_groups_match_the_taped_op(self, rng, monkeypatch, length,
                                            group):
        # four heads of 2 sequences x 3 rounds in chunks of 4 (length 11:
        # three chunks of 4 rows against 8 keys; length 3: one chunk of 3
        # against 3) without a tape, in groups of 1 or 2 heads whose chunks
        # fill one block: bit-identical to the taped op, one group of all
        q, v = (Tensor(rng.standard_normal((4 * 5, 2, length)))
                for _ in range(2))
        rotations = [rng.standard_normal((2, 5, 2)) for _ in range(3)]
        with Tape():
            want = nd.lsh_attention(q, v, rotations, 4, 4, 0.5).data
        m = min(4, length)
        keys = m if m == length else 2 * m
        chunks = 3 * 2 * -(-length // m)
        monkeypatch.setattr(nd, "_GROUP_SCORE_BYTES",
                            group * chunks * 8 * m * keys)
        run_heads, groups = nd._lsh_heads, []

        def counting(qh, *args):
            groups.append(len(qh) // 5)
            return run_heads(qh, *args)

        monkeypatch.setattr(nd, "_lsh_heads", counting)
        np.testing.assert_array_equal(
            nd.lsh_attention(q, v, rotations, 4, 4, 0.5).data, want)
        assert groups == [group] * (4 // group)


# Reformer dispatch results pinned before the op took head-major maps and
# its own unit keys and hashing: each config's output, the tape gradients
# of x and of every weight, and every head's bucket ids per round.
# ``reformer_pinned`` recomputes them, the buckets by ``reformer_buckets``; ``tests/data/reformer_pinned.npz``
# holds them as recorded then.
PINNED_REFORMER = (pathlib.Path(__file__).parent / "data"
                   / "reformer_pinned.npz")
PINNED_CONFIGS = {
    # name: spec fields, input shape, seed; "two_head_groups" was recorded
    # with its four heads in two core calls of two, and a taped op runs
    # them in one
    "single_map": (dict(heads=2, d_model=8, n_buckets=4, n_rounds=2,
                        bucket_chunk=4), (6, 13), 11),
    "two_head_groups": (dict(heads=4, d_model=16, n_buckets=8, n_rounds=3,
                             bucket_chunk=4), (6, 3, 11), [3, 8, 5]),
    "one_chunk": (dict(heads=2, d_model=8, n_buckets=4, n_rounds=2,
                       bucket_chunk=8), (6, 2, 5), 4),
}


def reformer_pinned(name):
    fields, shape, seed = PINNED_CONFIGS[name]
    spec = AttentionSpec("reformer", **fields)
    w = make_weights(spec, shape[0], seed=len(name))
    rng = np.random.default_rng(len(shape) + shape[-1])
    x = Tensor(rng.standard_normal(shape))
    probe = Tensor(rng.standard_normal((spec.d_model,) + shape[1:]))
    batch = shape[1] if len(shape) == 3 else 1
    names = list(w.parameters())
    with Tape() as tape:
        out = multi_head_dispatch(x, w, spec, seed=seed)
        grads = tape.gradient(nd.dot(out, probe),
                              [x] + list(w.parameters().values()))
    buckets = reformer_buckets(spec, w, x, seed)
    pinned = {"out": out.data,
              "buckets": buckets if batch > 1 else buckets[:, :, 0]}
    pinned.update(("grad_" + n, g) for n, g in zip(["x"] + names, grads))
    return pinned


class TestReformerMatchesPinned:
    @pytest.mark.parametrize("name", list(PINNED_CONFIGS))
    def test_outputs_gradients_and_buckets(self, name):
        pinned = np.load(PINNED_REFORMER)
        got = reformer_pinned(name)
        assert sorted(got) == sorted(key.split("/")[1] for key in pinned
                                     if key.startswith(name + "/"))
        np.testing.assert_array_equal(got["buckets"],
                                      pinned[name + "/buckets"])
        for key, value in got.items():
            want = pinned[name + "/" + key]
            assert value.shape == want.shape
            assert np.abs(value - want).max() <= 1e-12 * np.abs(want).max()


class TestLinformerSlicesOncePerCall:
    def test_one_slice_matches_slicing_per_head(self, monkeypatch, rng):
        # two heads' score bytes, under which the dispatch once ran the
        # four heads as two groups, each slicing both projections: one
        # slice of each per call, whose one gradient matches the per-head
        # reference's sum of four
        spec = AttentionSpec("linformer", heads=4, d_model=8, proj_len=4,
                             max_len=64)
        w = make_weights(spec, 6)
        x = Tensor(rng.standard_normal((6, 3, 11)))
        probe = Tensor(rng.standard_normal((8, 3, 11)))
        sources = [x] + list(w.parameters().values())
        per_head = 4 * 3 * spec.entry.core_macs(spec, 11) // spec.d_head
        monkeypatch.setattr(nd, "_GROUP_SCORE_BYTES", 2 * per_head)
        slice_axis = nd.slice_axis
        sliced = []

        def counting(t, axis, start, stop):
            if t is w.proj_p or t is w.proj_f:
                sliced.append(stop - start)
            return slice_axis(t, axis, start, stop)

        def run(dispatch):
            with Tape() as tape:
                out = dispatch(x, w, spec)
                return tape.gradient(nd.dot(out, probe), sources)

        monkeypatch.setattr(nd, "slice_axis", counting)
        got = run(multi_head_dispatch)
        assert sliced == [11, 11]
        want = run(per_head_reference)
        assert len(sliced) == 2 + 2 * 4
        for g, ref in zip(got, want):
            assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()


# The dispatch as it was before the heads joined the core's batch: one
# core call per head on its rows of Q/K/V, under a one-head spec of the
# same head width, the head outputs concatenated and then recombined. Kept
# as the reference the one-call dispatch must reproduce.

def per_head_reference(x, weights, spec, seed=0):
    entry = spec.entry
    dk = spec.d_head
    one_head = dataclasses.replace(spec, heads=1, d_model=dk)
    ctx = attention._Call(one_head, weights, 1.0 / math.sqrt(dk), seed)
    q = nd.matmul(weights.wq, x)
    v = nd.matmul(weights.wv, x)
    k = None if entry.shares_qk else nd.matmul(weights.wk, x)
    heads = []
    for i in range(spec.heads):
        qi, vi, ki = (None if t is None else
                      nd.slice_axis(t, 0, i * dk, (i + 1) * dk)
                      for t in (q, v, k))
        heads.append(entry.core(qi, ki, vi, ctx))
    cat = heads[0] if spec.heads == 1 else nd.concat(heads, axis=0)
    return nd.matmul(weights.wo, cat)


class TestHeadsInBatchMatchReference:
    # four heads in one core call, whose attention ops run them in one
    # block (a default bound that fits all four heads' score maps), in
    # blocks of three and one (a bound of three heads' score bytes, by the
    # cost model's estimate) or one by one; the blocks run without a tape.
    # Length 11 pads the reformer's last chunk and puts three longformer
    # global positions
    LENGTH = 11
    GROUPS = {"whole": None, "pairs": 3, "singles": 1}

    @staticmethod
    def spec(variant):
        return AttentionSpec(variant, heads=4, d_model=12, window=5,
                             global_stride=4, proj_len=4, max_len=64,
                             n_buckets=4, n_rounds=2, bucket_chunk=4)

    def case(self, monkeypatch, variant, batch, grouping):
        """The spec, weights, input, seed and output probe of one case,
        with the score bound patched to its grouping."""
        spec = self.spec(variant)
        w = make_weights(spec, 6, seed=batch or 1)
        rng = np.random.default_rng(len(variant))
        if batch is None:
            x = Tensor(rng.standard_normal((6, self.LENGTH)))
            seed = 13
        else:
            x = Tensor(rng.standard_normal((6, batch, self.LENGTH)))
            seed = [13, 4, 27]
        probe = Tensor(rng.standard_normal((12,) + x.shape[1:]))
        per_head = (4 * (batch or 1)
                    * spec.entry.core_macs(spec, self.LENGTH) // spec.d_head)
        fit = self.GROUPS[grouping]
        if fit is None:
            assert 4 * per_head <= nd._GROUP_SCORE_BYTES
        else:
            monkeypatch.setattr(nd, "_GROUP_SCORE_BYTES",
                                fit * per_head)
        return spec, w, x, seed, probe

    @pytest.mark.parametrize("grouping", sorted(GROUPS))
    @pytest.mark.parametrize("batch", [None, 3])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_outputs_and_gradients(self, monkeypatch, variant, batch,
                                   grouping):
        # one core call; the tape-free output, run in the bound's blocks,
        # is bit-identical to the taped one, run in one block, and both
        # match the per-head reference
        spec, w, x, seed, probe = self.case(monkeypatch, variant, batch,
                                            grouping)
        sources = [x] + list(w.parameters().values())

        def run(dispatch):
            with Tape() as tape:
                out = dispatch(x, w, spec, seed=seed)
                grads = tape.gradient(nd.dot(out, probe), sources)
            return out.data, grads

        core = spec.entry.core
        calls = []

        def counting(q, k, v, ctx):
            calls.append((ctx.spec.heads, q.shape[1:]))
            return core(q, k, v, ctx)

        use_core(monkeypatch, variant, counting)
        out, grads = run(multi_head_dispatch)
        free = multi_head_dispatch(x, w, spec, seed=seed).data
        assert calls == [(4, x.shape[1:])] * 2
        np.testing.assert_array_equal(free, out)
        want_out, want_grads = run(per_head_reference)

        assert out.shape == want_out.shape
        for got in (out, free):
            assert np.abs(got - want_out).max() <= \
                1e-12 * np.abs(want_out).max()
        for g, ref in zip(grads, want_grads):
            assert np.abs(g - ref).max() <= 1e-9 * np.abs(ref).max()

    @staticmethod
    def read_rows(core, q, k, ctx):
        """Every query's weights over the keys in one core call, read off
        its output on one-hot values, d_head keys at a time: (heads, L
        keys, B, L queries), head major."""
        dk, length = ctx.spec.d_head, q.shape[-1]
        heads, batch = ctx.spec.heads, math.prod(q.shape[1:-1])
        blocks = []
        for start in range(0, length, dk):
            n = min(dk, length - start)
            v = np.zeros((heads, dk, batch, length))
            v[:, np.arange(n), :, start + np.arange(n)] = 1.0
            out = core(q, k, Tensor(v.reshape(q.shape)), ctx)
            blocks.append(out.data.reshape(heads, dk, batch, length)[:, :n])
        return np.concatenate(blocks, axis=1)

    @pytest.mark.parametrize("grouping", sorted(GROUPS))
    @pytest.mark.parametrize("batch", [None, 3])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_weight_rows(self, monkeypatch, variant, batch, grouping):
        # the core call is also read on one-hot values, without a tape: the
        # heads of a block weigh the keys (the reformer's through its
        # buckets) as the same heads run one by one, within 1e-12
        spec, w, x, seed, _ = self.case(monkeypatch, variant, batch,
                                        grouping)
        core = spec.entry.core

        def rows(dispatch):
            read = []

            def reading(q, k, v, ctx):
                read.append(self.read_rows(core, q, k, ctx))
                return core(q, k, v, ctx)

            use_core(monkeypatch, variant, reading)
            dispatch(x, w, spec, seed=seed)
            return read

        read = rows(multi_head_dispatch)
        assert [r.shape[0] for r in read] == [4]
        got = np.concatenate(read)
        want = np.concatenate(rows(per_head_reference))
        assert got.shape == want.shape == (
            4, self.LENGTH, batch or 1, self.LENGTH)
        assert np.abs(got - want).max() <= 1e-12


class TestDispatch:
    def test_single_head_reduces_to_variant_core(self, rng):
        spec = AttentionSpec("full", heads=1, d_model=8)
        w = make_weights(spec, 8)
        x = rng.standard_normal((8, 5))
        out = multi_head_dispatch(Tensor(x), w, spec).data
        np.testing.assert_allclose(out, brute_force_attention(x, w, spec),
                                   atol=1e-9)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_one_core_call_on_every_head(self, monkeypatch, rng, variant):
        # under a one-byte score bound, where the dispatch once ran each
        # head in a core call of its own: one call on all four heads' rows
        # of the (F, B, L) projections, and no slice, concat or reshape of
        # them
        spec = AttentionSpec(variant, heads=4, d_model=8, window=5,
                             global_stride=4, proj_len=4, max_len=64,
                             n_buckets=4, n_rounds=2, bucket_chunk=4)
        monkeypatch.setattr(nd, "_GROUP_SCORE_BYTES", 1)
        calls, joins = [], []
        use_core(monkeypatch, variant,
                 lambda q, k, v, ctx: calls.append(q.shape) or q)
        for name in ("slice_axis", "concat", "reshape"):
            monkeypatch.setattr(nd, name, lambda *a, name=name, **kw:
                                joins.append(name))
        multi_head_dispatch(Tensor(rng.standard_normal((6, 2, 11))),
                            make_weights(spec, 6), spec, seed=[1, 2])
        assert calls == [(8, 2, 11)]
        assert joins == []

    def test_head_dimension_split(self):
        spec = AttentionSpec("full", heads=8, d_model=256)
        assert spec.d_head == 32

    def test_output_shape_matches_input_for_all_variants(self, rng):
        t = 50
        for spec in (
            AttentionSpec("full", heads=2, d_model=8),
            AttentionSpec("longformer", heads=2, d_model=8, window=7,
                          global_stride=16),
            AttentionSpec("linformer", heads=2, d_model=8, proj_len=8,
                          max_len=64),
            AttentionSpec("reformer", heads=2, d_model=8, n_buckets=4,
                          n_rounds=2, bucket_chunk=16),
        ):
            w = make_weights(spec, 8)
            x = Tensor(rng.standard_normal((8, t)))
            assert multi_head_dispatch(x, w, spec, seed=1).shape == (8, t)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            AttentionSpec("full", heads=3, d_model=8)
        with pytest.raises(ValueError):
            AttentionSpec("longformer", heads=2, d_model=8, window=4)
        with pytest.raises(ValueError):
            AttentionSpec("linformer", heads=2, d_model=8, proj_len=9,
                          max_len=8)
        with pytest.raises(ValueError):
            AttentionSpec("reformer", heads=2, d_model=8, n_buckets=3)
        with pytest.raises(ValueError):
            AttentionSpec("sparse", heads=2, d_model=8)

    def test_full_macs_scale_quadratically(self, rng):
        feat = 16
        spec = AttentionSpec("full", heads=2, d_model=16)
        w = make_weights(spec, feat)
        totals = {}
        for t in (1000, 2000):
            x = Tensor(rng.standard_normal((feat, t)))
            with nd.record_macs() as macs:
                multi_head_dispatch(x, w, spec)
            totals[t] = macs.total
        assert 3.6 <= totals[2000] / totals[1000] <= 4.4

    def test_reformer_weights_have_no_key_projection(self):
        spec = AttentionSpec("reformer", heads=2, d_model=8)
        w = make_weights(spec, 6)
        assert set(w.parameters()) == {"wq", "wv", "wo"}

    def test_gradients_of_every_variant(self):
        from sepformer.gradcheck import run_suite
        results = run_suite("attention")
        # exactly one gradcheck entry per registry entry
        assert sorted(name for name, _ in results) == sorted(
            "attention.%s_attention" % v for v in VARIANTS)
        for name, err in results:
            assert err < 1e-4, "%s gradient off by %.3e" % (name, err)


def small_spec(variant):
    # every field is in range whatever the variant, so one spec serves each
    # registry entry: bucket_chunk and global_stride are 4
    return AttentionSpec(variant, heads=2, d_model=8, window=5,
                         global_stride=4, proj_len=4, max_len=64,
                         n_buckets=4, n_rounds=2, bucket_chunk=4)


class TestRegistry:
    KNOWN_TENSORS = {"full": ["wq", "wv", "wo", "wk"],
                     "longformer": ["wq", "wv", "wo", "wk"],
                     "linformer": ["wq", "wv", "wo", "wk", "proj_p",
                                   "proj_f"],
                     "reformer": ["wq", "wv", "wo"]}

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_declared_tensors_are_the_ones_dispatch_reads(self, variant):
        spec = small_spec(variant)
        names = [name for name, _, _ in attention_tensors(spec, 6)]
        assert names[:3] == ["wq", "wv", "wo"]
        assert ("wk" in names) == (not spec.entry.shares_qk)
        assert names == self.KNOWN_TENSORS.get(variant, names)
        # every declared tensor feeds the output
        w = make_weights(spec, 6)
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((6, 2, 11)))
        probe = Tensor(rng.standard_normal((8, 2, 11)))
        with Tape() as tape:
            out = multi_head_dispatch(x, w, spec, seed=[3, 8])
            grads = tape.gradient(nd.dot(out, probe),
                                  [getattr(w, name) for name in names])
        for name, g in zip(names, grads):
            assert np.any(g != 0), name

    # window 5 covers lengths 1 and 3, which the longformer runs clamped;
    # bucket_chunk 4 makes length 4 one whole reformer chunk
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("length", [16, 11, 1, 3, 4])
    @pytest.mark.parametrize("batch", [None, 3])
    def test_cost_model_matches_one_dispatch_call(self, variant, length,
                                                  batch):
        spec = small_spec(variant)
        w = make_weights(spec, 6)
        shape = (6, length) if batch is None else (6, batch, length)
        x = Tensor(np.random.default_rng(length).standard_normal(shape))
        with nd.record_macs() as macs:
            multi_head_dispatch(x, w, spec, seed=3)
        per_sequence = (attention_core_macs(spec, length)
                        + projection_macs(spec, 6, length))
        assert macs.total == (batch or 1) * per_sequence
