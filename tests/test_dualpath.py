import numpy as np
import pytest

from sepformer import dualpath
from sepformer.attention import (AttentionSpec, derive_seed,
                                 positional_encoding)
from sepformer.dualpath import (ChunkTensor, InvalidChunkSizeError, chunk,
                                init_sepformer_block, overlap_add,
                                padded_chunk_geometry, sepformer_block)
from sepformer.ndkernel import Tensor
from sepformer.transformer import transformer_stack


def zero_stacks(stacks):
    for stack in stacks:
        for t in stack.named("x").values():
            t.data[...] = 0.0


def make_block(intra_variant="full", inter_variant="full", feat=6,
               ffw=8, repeats=1, intra_layers=1, inter_layers=1, seed=0,
               kwargs=None):
    kwargs = kwargs or {"longformer": dict(window=3, global_stride=None),
                        "linformer": dict(proj_len=4, max_len=64),
                        "reformer": dict(n_buckets=4, n_rounds=1,
                                         bucket_chunk=4)}
    intra = AttentionSpec(intra_variant, heads=2, d_model=feat,
                          **kwargs.get(intra_variant, {}))
    inter = AttentionSpec(inter_variant, heads=2, d_model=feat,
                          **kwargs.get(inter_variant, {}))
    return init_sepformer_block(intra, inter, feat, ffw, repeats,
                                intra_layers, inter_layers,
                                np.random.default_rng(seed))


class TestChunk:
    def test_frame_count_without_padding(self, rng):
        ct = chunk(Tensor(rng.standard_normal((3, 1000))), 250)
        assert ct.hop == 125
        assert ct.n_chunks == 7
        assert ct.data.shape == (3, 250, 7)

    def test_short_input_padded_to_single_chunk(self, rng):
        ct = chunk(Tensor(rng.standard_normal((3, 100))), 250)
        assert ct.n_chunks == 1
        assert padded_chunk_geometry(100, 250) == (250, 1)

    def test_one_sample_overflow_adds_frame(self, rng):
        ct = chunk(Tensor(rng.standard_normal((3, 251))), 250)
        assert padded_chunk_geometry(251, 250) == (375, 2)
        assert ct.n_chunks == 2

    def test_odd_chunk_size_rejected(self, rng):
        with pytest.raises(InvalidChunkSizeError):
            chunk(Tensor(rng.standard_normal((3, 20))), 5)

    def test_frames_match_direct_slices(self, rng):
        x = rng.standard_normal((2, 12))
        ct = chunk(Tensor(x), 8)
        np.testing.assert_array_equal(ct.data.data[:, :, 0], x[:, :8])
        padded = np.pad(x, ((0, 0), (0, 4)))
        np.testing.assert_array_equal(ct.data.data[:, :, 1], padded[:, 4:12])


class TestOverlapAdd:
    def test_round_trip_exact_over_random_geometries(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            f = int(rng.integers(1, 5))
            c = 2 * int(rng.integers(1, 40))
            tp = int(rng.integers(1, 400))
            x = rng.standard_normal((f, tp))
            back = overlap_add(chunk(Tensor(x), c)).data
            assert back.shape == (f, tp)
            assert np.abs(back - x).max() <= 1e-12

    @pytest.mark.parametrize("tp_offset", [-1, 0, 1])
    def test_round_trip_near_chunk_boundary(self, rng, tp_offset):
        c = 10
        tp = c + tp_offset
        x = rng.standard_normal((2, tp))
        back = overlap_add(chunk(Tensor(x), c)).data
        assert np.abs(back - x).max() <= 1e-12

    def test_coverage_division_on_all_ones(self):
        # two width-4 frames at hop 2 cover positions with counts
        # 1,1,2,2,1,1; dividing restores the all-ones map
        ct = ChunkTensor(Tensor(np.ones((2, 4, 2))), 6, 4)
        out = overlap_add(ct).data
        np.testing.assert_allclose(out, np.ones((2, 6)), atol=1e-15)

    def test_zero_tensor_maps_to_zero(self):
        ct = ChunkTensor(Tensor(np.zeros((2, 4, 3))), 7, 4)
        np.testing.assert_array_equal(overlap_add(ct).data, np.zeros((2, 7)))


class TestSepformerBlock:
    def test_single_chunk_degenerates_to_intra_plus_near_identity(self, rng):
        params = make_block()
        x = chunk(Tensor(rng.standard_normal((6, 3))), 8)
        assert x.n_chunks == 1
        out = sepformer_block(x, params)
        assert out.data.shape == (6, 8, 1)

    def test_zero_weight_hand_trace(self, rng):
        # zero-weight stacks reduce to out = 2*in + positions, so two
        # passes compose to 4*x + 2*e_intra + e_inter, checked elementwise
        params = make_block(feat=2, ffw=4)
        zero_stacks(params.intra_stacks)
        zero_stacks(params.inter_stacks)
        x = rng.standard_normal((2, 4, 2))
        ct = ChunkTensor(Tensor(x), 6, 4)
        out = sepformer_block(ct, params).data.data
        e_intra = positional_encoding(4, 2).data.T   # (F, C)
        e_inter = positional_encoding(2, 2).data.T   # (F, Nc)
        expected = np.empty_like(x)
        for j in range(2):
            for p in range(4):
                expected[:, p, j] = (4 * x[:, p, j] + 2 * e_intra[:, p]
                                     + e_inter[:, j])
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_intra_changes_stay_in_their_chunk(self, rng):
        # pass-through inter stacks localize any difference to one chunk
        params = make_block(intra_layers=2)
        zero_stacks(params.inter_stacks)
        base = rng.standard_normal((6, 8, 3))
        bumped = base.copy()
        bumped[:, :, 1] += rng.standard_normal((6, 8))
        out_a = sepformer_block(ChunkTensor(Tensor(base), 20, 8),
                                params).data.data
        out_b = sepformer_block(ChunkTensor(Tensor(bumped), 20, 8),
                                params).data.data
        diff = np.abs(out_a - out_b).sum(axis=(0, 1))
        assert diff[1] > 0
        assert diff[0] == 0 and diff[2] == 0

    def test_inter_changes_stay_in_their_position(self, rng):
        params = make_block(inter_layers=2)
        zero_stacks(params.intra_stacks)
        base = rng.standard_normal((6, 8, 3))
        bumped = base.copy()
        bumped[:, 5, :] += rng.standard_normal((6, 3))
        out_a = sepformer_block(ChunkTensor(Tensor(base), 20, 8),
                                params).data.data
        out_b = sepformer_block(ChunkTensor(Tensor(bumped), 20, 8),
                                params).data.data
        diff = np.abs(out_a - out_b).sum(axis=(0, 2))
        assert diff[5] > 0
        assert np.all(diff[np.arange(8) != 5] == 0)

    @pytest.mark.parametrize("intra_variant",
                             ["longformer", "linformer", "reformer"])
    def test_mixed_attention_variants(self, rng, intra_variant):
        params = make_block(intra_variant=intra_variant,
                            inter_variant="full")
        x = chunk(Tensor(rng.standard_normal((6, 20))), 8)
        out = sepformer_block(x, params, seed=3)
        assert out.data.shape == x.data.shape

    def test_repeats_apply_distinct_parameters(self, rng):
        params = make_block(repeats=2)
        a = params.intra_stacks[0].layers[0].attn.wq.data
        b = params.intra_stacks[1].layers[0].attn.wq.data
        assert not np.array_equal(a, b)

    def test_block_is_deterministic(self, rng):
        params = make_block(intra_variant="reformer")
        x = ChunkTensor(Tensor(rng.standard_normal((6, 8, 3))), 20, 8)
        out_a = sepformer_block(x, params, seed=5).data.data
        out_b = sepformer_block(x, params, seed=5).data.data
        np.testing.assert_array_equal(out_a, out_b)


def per_chunk_reference(chunks, params, seed):
    """The dual path one sequence at a time: a 2-D stack call per chunk,
    then one per within-chunk offset, each with its own derived seed."""
    x = chunks.data.data
    for r in range(params.n_repeats):
        x = np.stack([transformer_stack(
            Tensor(x[:, :, j]), params.intra_stacks[r], params.intra_spec,
            seed=derive_seed(seed, r, 0, j)).data
            for j in range(x.shape[2])], axis=2)
        x = np.stack([transformer_stack(
            Tensor(x[:, p, :]), params.inter_stacks[r], params.inter_spec,
            seed=derive_seed(seed, r, 1, p)).data
            for p in range(x.shape[1])], axis=1)
    return x


class TestBatchedMatchesPerChunk:
    # every variant once as intra and once as inter
    PAIRS = [("full", "longformer"), ("longformer", "linformer"),
             ("linformer", "reformer"), ("reformer", "full")]
    KWARGS = {"longformer": dict(window=5, global_stride=7),
              "linformer": dict(proj_len=4, max_len=256),
              "reformer": dict(n_buckets=4, n_rounds=2, bucket_chunk=4)}
    # (T', C): 3 chunks of 8, one group per axis; 34 chunks of 64, whose
    # 2,176 positions the group bound splits on both axes
    INPUTS = [(20, 8), (1100, 64)]

    @pytest.mark.parametrize("intra,inter", PAIRS)
    @pytest.mark.parametrize("length,size", INPUTS)
    def test_matches_per_chunk_loop(self, monkeypatch, intra, inter,
                                    length, size):
        params = make_block(intra, inter, repeats=2, kwargs=self.KWARGS)
        x = np.random.default_rng(length).standard_normal((6, length))
        chunks = chunk(Tensor(x), size)
        bound = dualpath._GROUP_POSITIONS
        groups = []

        def counting_stack(z, stack, spec, seed=0):
            groups.append(z.shape[1])
            return transformer_stack(z, stack, spec, seed=seed)

        monkeypatch.setattr(dualpath, "transformer_stack", counting_stack)
        out = sepformer_block(chunks, params, seed=11).data.data
        expected = per_chunk_reference(chunks, params, seed=11)
        scale = np.abs(expected).max()
        assert np.abs(out - expected).max() <= 1e-9 * scale
        n_chunks = chunks.n_chunks
        intra_groups = -(-n_chunks // (bound // size))
        inter_groups = -(-size // (bound // n_chunks))
        assert len(groups) == 2 * (intra_groups + inter_groups)
        split = intra_groups > 1 and inter_groups > 1
        assert split == (size * n_chunks > bound)
