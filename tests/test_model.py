import functools
import hashlib
import pathlib
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepformer import model as model_module
from sepformer import ndkernel as nd
from sepformer.attention import VARIANTS, AttentionSpec, FieldError, \
    derive_seed
from sepformer.dualpath import chunk, overlap_add, padded_chunk_geometry, \
    sepformer_block
from sepformer.model import (CheckpointError, Sepformer, SepformerConfig,
                             encoded_length, load_checkpoint,
                             parameter_census, parameter_shapes,
                             save_checkpoint)
from sepformer.ndkernel import InputTooShortError, Tensor
from sepformer.objectives import pit_loss


def small_config(**overrides):
    base = dict(n_filters=8, kernel_size=4, stride=2, chunk_size=6,
                n_repeats=1, intra_layers=1, inter_layers=1, ffw_dim=16,
                n_sources=2)
    base.update(overrides)
    base.setdefault("intra_attention", AttentionSpec(
        "full", heads=2, d_model=base["n_filters"]))
    return SepformerConfig(**base)


class TestCensus:
    def test_full_size_configuration(self):
        total = parameter_census(SepformerConfig())
        assert abs(total - 25.7e6) / 25.7e6 <= 0.01

    def test_hand_counted_closed_form(self):
        f, kw, dff, ns = 8, 4, 16, 2
        cfg = small_config(ffw_dim=dff)
        layer = 4 * f * f + 4 * f + (f * dff + dff + dff * f + f)
        expected = (
            f * kw                      # encoder
            + 2 * f                     # input norm
            + f * f + f                 # input linear
            + 2 * layer                 # one intra + one inter layer
            + f                         # prelu slope
            + ns * f * f + ns * f       # expansion to Ns*F channels
            + 2 * (f * f + f)           # mask feed-forward pair
            + f * kw                    # decoder
        )
        assert parameter_census(cfg) == expected

    def test_census_matches_constructed_model(self):
        for cfg in (small_config(),
                    small_config(chunk_size=None),
                    small_config(n_sources=3),
                    small_config(intra_attention=AttentionSpec(
                        "linformer", heads=2, d_model=8, proj_len=4,
                        max_len=32)),
                    small_config(intra_attention=AttentionSpec(
                        "reformer", heads=2, d_model=8, n_buckets=4,
                        bucket_chunk=4))):
            model = Sepformer(cfg, seed=0)
            params = model.parameters()
            assert parameter_census(cfg) == sum(t.size
                                                for t in params.values())
            assert dict(parameter_shapes(cfg)) == {
                name: t.shape for name, t in params.items()}

    def test_widening_ffw_changes_only_ffw_terms(self):
        # extra scalars per layer: F*extra (w1) + extra (b1) + extra*F (w2)
        cfg_a = SepformerConfig()
        cfg_b = SepformerConfig(ffw_dim=2048)
        layers = cfg_a.n_repeats * (cfg_a.intra_layers + cfg_a.inter_layers)
        extra = 2048 - 1024
        delta = layers * (2 * cfg_a.n_filters * extra + extra)
        assert parameter_census(cfg_b) - parameter_census(cfg_a) == delta

    def test_runtime_under_a_second(self):
        import time
        t0 = time.perf_counter()
        parameter_census(SepformerConfig())
        assert time.perf_counter() - t0 < 1.0


class TestEncode:
    def test_latent_length_formula(self, rng):
        cfg = SepformerConfig()
        model_cfg = small_config(kernel_size=16, stride=8)
        model = Sepformer(model_cfg, seed=0)
        h = model.encode(rng.standard_normal(8000))
        assert h.shape == (8, 999)
        assert encoded_length(cfg, 8000) == 999

    def test_zero_signal_gives_zero_latent(self):
        model = Sepformer(small_config(), seed=0)
        h = model.encode(np.zeros(64))
        np.testing.assert_array_equal(h.data, np.zeros(h.shape))

    def test_latent_nonnegative(self, rng):
        model = Sepformer(small_config(), seed=0)
        assert model.encode(rng.standard_normal(64)).data.min() >= 0.0

    def test_short_input_rejected(self):
        model = Sepformer(small_config(), seed=0)
        with pytest.raises(InputTooShortError):
            model.encode(np.zeros(3))

    def test_stride_is_the_length_lever(self):
        # stride 1 vs 8 changes the latent length roughly eightfold
        long = encoded_length(SepformerConfig(stride=1), 8000)
        short = encoded_length(SepformerConfig(stride=8), 8000)
        assert abs(long / short - 8.0) < 0.02


class TestMaskNet:
    @pytest.mark.parametrize("n_sources", [1, 2, 3])
    def test_mask_count_and_shapes(self, rng, n_sources):
        model = Sepformer(small_config(n_sources=n_sources), seed=0)
        h = model.encode(rng.standard_normal(64))
        masks = model.mask_net(h)
        assert len(masks) == n_sources
        for m in masks:
            assert m.shape == h.shape
            assert m.data.min() >= 0.0

    def test_no_chunking_path(self, rng):
        model = Sepformer(small_config(chunk_size=None, n_repeats=2),
                          seed=0)
        h = model.encode(rng.standard_normal(64))
        masks = model.mask_net(h)
        assert all(m.shape == h.shape for m in masks)

    def test_shape_chain_audit(self, rng, monkeypatch):
        # (input shape, output shape) of each stage, read through the
        # names the model looks up; the mask head slices the expanded map
        cfg = small_config()
        model = Sepformer(cfg, seed=0)
        shapes = {}

        def watch(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                shapes[name] = (args[0].shape, out.shape)
                return out
            monkeypatch.setattr(owner, name, wrapper)

        watch(model, "encode")
        for name in ("chunk", "sepformer_block", "overlap_add"):
            watch(model_module, name)
        watch(nd, "slice_axis")
        out = model.separate(rng.standard_normal(64))
        f, ns = cfg.n_filters, cfg.n_sources
        tp = encoded_length(cfg, 64)
        c = cfg.chunk_size
        _, nc = padded_chunk_geometry(tp, c)
        assert shapes["encode"] == ((64,), (f, tp))
        assert shapes["chunk"] == ((f, tp), (f, c, nc))
        assert shapes["sepformer_block"] == ((f, c, nc), (f, c, nc))
        assert shapes["overlap_add"] == ((f, c, nc), (f, tp))
        assert shapes["slice_axis"] == ((ns * f, tp), (f, tp))
        assert all(e.shape == (64,) for e in out.estimates)

    @staticmethod
    def expand_then_overlap_masks(model, latent):
        """The masks with the output linear before the overlap-add: PReLU
        on the block's frames, the linear over all C * Nc positions, then
        one overlap-add of the Ns * F rows."""
        cfg, m = model.cfg, model.masknet
        f, ns = cfg.n_filters, cfg.n_sources
        hbar = nd.matmul(m.input_linear_weight,
                         nd.layer_norm(latent, m.norm_gain, m.norm_bias),
                         bias=m.input_linear_bias)
        processed = sepformer_block(chunk(hbar, cfg.chunk_size), model.block,
                                    seed=derive_seed(model.seed, 101))
        activated = nd.prelu(processed, m.prelu_slope)
        expanded = overlap_add(nd.matmul(m.output_linear_weight, activated,
                                         bias=m.output_linear_bias),
                               latent.shape[1])
        masks = []
        for k in range(ns):
            mask = nd.matmul(m.mask_ffw1_weight,
                             nd.slice_axis(expanded, 0, k * f, (k + 1) * f),
                             bias=m.mask_ffw1_bias, relu=True)
            masks.append(nd.matmul(m.mask_ffw2_weight, mask,
                                   bias=m.mask_ffw2_bias, relu=True))
        return masks

    # chunk 6, hop 3: T' = 5 is shorter than a chunk, 12 ends on a hop
    # boundary, 13 one past it
    @pytest.mark.parametrize("frames", [5, 12, 13])
    def test_overlap_before_expansion_matches_expansion_first(self, rng,
                                                              frames):
        cfg = small_config()
        n = (frames - 1) * cfg.stride + cfg.kernel_size
        assert encoded_length(cfg, n) == frames
        model = Sepformer(cfg, seed=3)
        x = rng.standard_normal(n)
        targets = [rng.standard_normal(n) for _ in range(cfg.n_sources)]
        params = list(model.parameters().values())

        def masks_and_grads(masks_of):
            with nd.Tape() as tape:
                latent = model.encode(x)
                masks = masks_of(latent)
                loss, _ = pit_loss([nd.conv1d_transpose(
                    nd.mul(mask, latent), model.decoder_filters, cfg.stride,
                    n) for mask in masks], targets)
            return ([mask.data for mask in masks],
                    tape.gradient(loss, params))

        got = masks_and_grads(model.mask_net)
        want = masks_and_grads(
            lambda latent: self.expand_then_overlap_masks(model, latent))
        for g, w in zip(got[0] + got[1], want[0] + want[1]):
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


class TestSeparate:
    def test_all_ones_masks_reduce_to_decoder_of_latent(self, rng):
        from sepformer import ndkernel as nd
        model = Sepformer(small_config(), seed=0)
        x = rng.standard_normal(64)
        h = model.encode(x)
        expected = nd.conv1d_transpose(h, model.decoder_filters,
                                       model.cfg.stride, 64).data
        est = nd.conv1d_transpose(nd.mul(Tensor(np.ones(h.shape)), h),
                                  model.decoder_filters,
                                  model.cfg.stride, 64).data
        np.testing.assert_array_equal(est, expected)

    def test_zero_masks_give_zero_estimates(self, rng):
        from sepformer import ndkernel as nd
        model = Sepformer(small_config(), seed=0)
        h = model.encode(rng.standard_normal(64))
        est = nd.conv1d_transpose(nd.mul(Tensor(np.zeros(h.shape)), h),
                                  model.decoder_filters, model.cfg.stride, 64)
        np.testing.assert_array_equal(est.data, np.zeros(est.shape))

    @pytest.mark.parametrize("length", [64, 65, 66, 71])
    def test_estimate_lengths_track_input(self, rng, length):
        model = Sepformer(small_config(), seed=0)
        out = model.separate(rng.standard_normal(length))
        assert all(e.shape == (length,) for e in out.estimates)

    def test_forward_is_deterministic(self, rng):
        cfg = small_config(intra_attention=AttentionSpec(
            "reformer", heads=2, d_model=8, n_buckets=4, bucket_chunk=4))
        model = Sepformer(cfg, seed=0)
        x = rng.standard_normal(64)
        a = model.separate(x)
        b = model.separate(x)
        for ea, eb in zip(a.estimates, b.estimates):
            np.testing.assert_array_equal(ea.data, eb.data)

    def test_unchunked_forward_holds_only_live_maps(self):
        # without a tape a map is freed after its last reader, and the
        # feed-forward runs in blocks of positions that reuse one hidden
        # block, which the op frees and the arena does not count. So the
        # peak is the live set at the feed-forward: 5 F-row maps (the
        # latent, the stack input, the layer input, the residual stream h
        # and ln2) and its output. T' = 1,999 > 1,024, so the blocks
        # engage. The bound, 5 F-row maps, one hidden block and one map of
        # slack (8.05 maps), fails a whole hidden map (9.06 maps)
        f, ffw = 128, 512
        cfg = SepformerConfig(
            n_filters=f, ffw_dim=ffw, chunk_size=None, intra_layers=2,
            intra_attention=AttentionSpec("reformer", d_model=f))
        x = np.random.default_rng(0).uniform(-0.5, 0.5, 16000)
        model = Sepformer(cfg, seed=0)
        with nd.track_memory() as arena:
            model.separate(x)
        positions = encoded_length(cfg, len(x))
        assert positions > nd._GROUP_POSITIONS
        f_map = f * positions * 8                           # bytes
        bound = 5 * f_map + ffw * nd._GROUP_POSITIONS * 8 + f_map
        assert arena.peak <= bound, \
            "peak %.2f F-row maps" % (arena.peak / f_map)

    def test_unchunked_forward_with_or_without_tape_agrees(self):
        # T' = 1,999: the feed-forward runs two blocks of positions, and
        # each LSH call (one head of 4 rounds x 32 chunks of 64 rows
        # against 128 keys, 8.4 MB of scores) two blocks of chunks; the
        # taped forward fills whole maps, the tape-free one reuses blocks
        spec = AttentionSpec("reformer", heads=2, d_model=32, n_rounds=4)
        cfg = SepformerConfig(n_filters=32, ffw_dim=64, chunk_size=None,
                              intra_layers=1, intra_attention=spec)
        x = np.random.default_rng(1).uniform(-0.5, 0.5, 16000)
        positions = encoded_length(cfg, len(x))
        assert positions > nd._GROUP_POSITIONS
        assert 4 * 32 > nd._GROUP_SCORE_BYTES // (8 * 64 * 128)
        model = Sepformer(cfg, seed=3)
        free = model.separate(x).estimates
        with nd.Tape():
            taped = model.separate(x).estimates
        for a, b in zip(free, taped):
            np.testing.assert_array_equal(a.data, b.data)

    @pytest.mark.parametrize("chunk_size", [6, None])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_arena_counts_every_tensor_but_parameter_views(
            self, monkeypatch, rng, variant, chunk_size):
        # every tensor a taped forward makes owns a counted buffer or views
        # one; the only views of uncounted buffers are parameter slices
        spec = AttentionSpec(variant, heads=2, d_model=8, window=5,
                             global_stride=4, proj_len=4, max_len=64,
                             n_buckets=4, bucket_chunk=4)
        model = Sepformer(small_config(chunk_size=chunk_size,
                                       intra_attention=spec), seed=0)
        params = {id(t.data) for t in model.parameters().values()}
        uncounted = set()
        register = nd.AllocationArena._register

        def watched(arena, tensor):
            register(arena, tensor)
            buf = tensor.data
            while isinstance(buf.base, np.ndarray):
                buf = buf.base
            if id(buf) not in arena._held:
                uncounted.add(id(buf))

        monkeypatch.setattr(nd.AllocationArena, "_register", watched)
        with nd.track_memory(), nd.Tape():
            model.separate(rng.standard_normal(64))
        assert uncounted <= params
        assert bool(uncounted) == (variant == "linformer")


class TestCheckpoint:
    @pytest.mark.parametrize("cfg", [
        small_config(),
        small_config(chunk_size=None),
        small_config(intra_attention=AttentionSpec(
            "linformer", heads=2, d_model=8, proj_len=4, max_len=32)),
        small_config(intra_attention=AttentionSpec(
            "reformer", heads=2, d_model=8, n_buckets=4, bucket_chunk=4),
            inter_attention=AttentionSpec("full", heads=2, d_model=8)),
    ])
    def test_round_trip_bit_exact(self, tmp_path, cfg):
        model = Sepformer(cfg, seed=11)
        for t in model.parameters().values():
            t.data[...] = np.random.default_rng(1).standard_normal(t.shape)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        restored = load_checkpoint(path)
        assert restored.cfg == model.cfg
        assert restored.seed == model.seed
        for name, t in model.parameters().items():
            got = restored.parameters()[name]
            assert got.data.tobytes() == t.data.tobytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_header_fields(self, tmp_path):
        model = Sepformer(small_config(), seed=2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        raw = path.read_bytes()
        assert raw[:4] == b"SPFK"
        assert int.from_bytes(raw[4:8], "little") == 2

    def test_truncated_parameter_name_rejected(self, tmp_path):
        model = Sepformer(small_config(), seed=2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        raw = bytearray(path.read_bytes())
        # corrupt the first parameter name
        idx = raw.find(b"encoder.filters")
        raw[idx:idx + 7] = b"xncoder"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @staticmethod
    def field_ends(raw):
        """End offsets of a checkpoint's header fields (v1 and v2 share
        the layout), and of each parameter record's fields (name length,
        name, rank, dims, values)."""
        def u32(at):
            return int.from_bytes(raw[at:at + 4], "little")
        header = [4, 8, 12, 12 + u32(8), 16 + u32(8)]
        records = []
        at = header[-1]
        for _ in range(u32(at - 4)):
            ends = [at + 4, at + 4 + u32(at)]
            rank = u32(ends[-1])
            ends += [ends[-1] + 4, ends[-1] + 4 + 4 * rank]
            dims = [u32(ends[-2] + 4 * i) for i in range(rank)]
            ends.append(ends[-1] + 8 * int(np.prod(dims)))
            records.append(ends)
            at = ends[-1]
        assert at == len(raw)
        return header, records

    def test_every_cut_raises_checkpoint_error_naming_file(self, tmp_path):
        model = Sepformer(small_config(), seed=2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        raw = path.read_bytes()
        header, records = self.field_ends(raw)
        first, last = records[0], records[-1]
        # every field boundary of the header and of the first and last
        # parameter records, cuts inside header fields, and cuts inside the
        # first and last tensors' values
        cuts = header + first + last[:-1] + [
            6, 10, (first[3] + first[4]) // 2, first[4] - 1,
            (last[3] + last[4]) // 2, len(raw) - 1]
        cut = tmp_path / "cut.ckpt"
        names_place = r"at offset \d+ in " + re.escape(str(cut))
        for n in cuts:
            cut.write_bytes(raw[:n])
            with pytest.raises(CheckpointError, match=names_place):
                load_checkpoint(cut)

    def test_repeated_parameter_rejected(self, tmp_path):
        model = Sepformer(small_config(), seed=2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        raw = path.read_bytes()
        header, records = self.field_ends(raw)
        start, end = header[-1], records[0][-1]
        count = (len(records) + 1).to_bytes(4, "little")
        path.write_bytes(raw[:start - 4] + count + raw[start:end]
                         + raw[start:])
        with pytest.raises(CheckpointError,
                           match="repeated parameter 'encoder.filters' at "
                                 "offset %d" % end):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        model = Sepformer(small_config(), seed=2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        end = path.stat().st_size
        path.write_bytes(path.read_bytes() + bytes(range(200)) * 4)
        with pytest.raises(CheckpointError,
                           match="800 trailing bytes after the last parameter"
                                 " at offset %d in %s"
                                 % (end, re.escape(str(path)))):
            load_checkpoint(path)

    def test_non_finite_values_rejected(self, tmp_path):
        model = Sepformer(small_config(), seed=2)
        model.parameters()["decoder.filters"].data[0, 0, 1] = np.nan
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        with pytest.raises(CheckpointError,
                           match="non-finite values in parameter "
                                 "'decoder.filters'"):
            load_checkpoint(path)


def test_config_validation():
    with pytest.raises(ValueError):
        SepformerConfig(chunk_size=7)
    with pytest.raises(ValueError):
        SepformerConfig(n_sources=0)
    with pytest.raises(ValueError):
        SepformerConfig(n_filters=16, intra_attention=AttentionSpec(
            "full", heads=2, d_model=8))


def test_enhancement_mode_single_source(rng):
    model = Sepformer(small_config(n_sources=1), seed=0)
    out = model.separate(rng.standard_normal(64))
    assert len(out.estimates) == 1


def parameter_digest(model):
    """SHA-256 over every (name, float64 LE bytes), in sorted name order."""
    params = model.parameters()
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(params[name].data, "<f8").tobytes())
    return h.hexdigest()


def config_block(raw):
    n = int.from_bytes(raw[8:12], "little")
    return raw[12:12 + n]


def parameter_records(raw):
    """Each parameter record's bytes, in file order."""
    header, records = TestCheckpoint.field_ends(raw)
    starts = [header[-1]] + [ends[-1] for ends in records[:-1]]
    return [raw[a:ends[-1]] for a, ends in zip(starts, records)]


def with_config_text(raw, edit):
    """Checkpoint bytes with ``edit`` applied to the config text and its
    length prefix fixed."""
    old = config_block(raw)
    text = edit(old.decode("utf-8")).encode("utf-8")
    return raw[:8] + len(text).to_bytes(4, "little") + text \
        + raw[12 + len(old):]


class TestParentCompatibility:
    """Weights and checkpoints pinned to the v1 format's first writer.

    The fixture and the digests were produced by the code that wrote v1
    checkpoints before the tensor registry: ``fixture_config()`` at seed 7,
    every tensor t replaced by 1 - t before saving.
    """

    FIXTURE = pathlib.Path(__file__).parent / "data" / \
        "v1_reformer_r2_seed7.ckpt"
    FIXTURE_DIGEST = ("40463f70b0b829814233fb04fc4092df"
                      "75f59eeb2c9c33bea6634e0fa6258b51")

    @staticmethod
    def fixture_config():
        return small_config(
            n_repeats=2,
            intra_attention=AttentionSpec("reformer", heads=2, d_model=8,
                                          n_buckets=4, bucket_chunk=4),
            inter_attention=AttentionSpec("full", heads=2, d_model=8))

    def test_v1_checkpoint_loads_bit_exactly(self):
        model = load_checkpoint(self.FIXTURE)
        assert model.cfg == self.fixture_config()
        assert model.seed == 7
        assert parameter_digest(model) == self.FIXTURE_DIGEST
        fresh = Sepformer(self.fixture_config(), seed=7).parameters()
        loaded = model.parameters()
        assert sorted(loaded) == sorted(fresh)
        for name, t in fresh.items():
            assert loaded[name].data.tobytes() == (1.0 - t.data).tobytes()

    def test_rewritten_checkpoint_keeps_config_text_bytes(self, tmp_path):
        # re-saving writes v2: the v1 text minus its n_heads line, and the
        # same parameter records byte for byte (the v1 writer put them in
        # another order)
        path = tmp_path / "again.ckpt"
        save_checkpoint(path, load_checkpoint(self.FIXTURE))
        old, new = self.FIXTURE.read_bytes(), path.read_bytes()
        assert int.from_bytes(new[4:8], "little") == 2
        v1_text = config_block(old)
        assert v1_text.count(b"\nn_heads=2\n") == 1
        assert config_block(new) == v1_text.replace(b"\nn_heads=2\n", b"\n")
        assert sorted(parameter_records(new)) == \
            sorted(parameter_records(old))

    def test_v1_head_count_is_checked_then_dropped(self, tmp_path):
        raw = self.FIXTURE.read_bytes()
        path = tmp_path / "edited.ckpt"
        path.write_bytes(with_config_text(raw, lambda t: t.replace(
            "\nn_heads=2\n", "\nn_heads=8\n")))
        model = load_checkpoint(path)
        assert model.cfg == self.fixture_config()
        assert model.cfg.intra_attention.heads == 2
        x = np.random.default_rng(3).uniform(-0.5, 0.5, 64)
        want = load_checkpoint(self.FIXTURE).separate(x).estimates
        for got, ref in zip(model.separate(x).estimates, want):
            assert got.data.tobytes() == ref.data.tobytes()

    @pytest.mark.parametrize("line", ["", "n_heads=0\n", "n_heads=x\n",
                                      "n_heads=\n", "n_heads=02\n"])
    def test_v1_bad_head_count_rejected_naming_it(self, tmp_path, line):
        path = tmp_path / "edited.ckpt"
        path.write_bytes(with_config_text(
            self.FIXTURE.read_bytes(),
            lambda t: t.replace("n_heads=2\n", line)))
        with pytest.raises(CheckpointError, match="bad config in %s: n_heads "
                           % re.escape(str(path))):
            load_checkpoint(path)

    @pytest.mark.parametrize("overrides,census,digest", [
        ({}, 25577472,
         "294034df91cbe38733b120f0912e2405cc3458447bd2bd0d384e1f142ecfccd2"),
        ({"chunk_size": None, "intra_attention": AttentionSpec("reformer")},
         11909120,
         "dd1cc3729fb440418ec84185f82c1eb21d0b2df9211c3e176a3125e2ac52c6a8"),
    ])
    def test_full_size_weights_match_recorded_digest(self, overrides, census,
                                                     digest):
        cfg = SepformerConfig(**overrides)
        assert parameter_census(cfg) == census
        assert parameter_digest(Sepformer(cfg, seed=0)) == digest


class TestConfigFields:
    @pytest.mark.parametrize("field", [
        "n_filters", "kernel_size", "stride", "n_repeats", "intra_layers",
        "inter_layers", "ffw_dim", "n_sources", "sample_rate"])
    def test_every_count_must_be_positive(self, field):
        with pytest.raises(FieldError, match=field):
            SepformerConfig(**{field: 0})

    @pytest.mark.parametrize("field,value", [
        ("heads", 0), ("d_model", 0), ("window", 4), ("global_stride", 0),
        ("proj_len", 9000), ("max_len", 0), ("n_buckets", 12),
        ("n_rounds", 0), ("bucket_chunk", 0), ("variant", "sparse")])
    def test_every_spec_field_is_checked_for_any_variant(self, field, value):
        with pytest.raises(FieldError) as info:
            AttentionSpec(**{"variant": "full", field: value})
        assert info.value.field == field


# values a config-text edit may set: none of them grows a size
EDIT_VALUES = ["0", "-1", "x", "", "none", "1", "2", "3", "4"]


@functools.lru_cache(maxsize=None)
def edit_base(version):
    """Checkpoint bytes a config-text edit starts from: a toy v2 checkpoint
    or the v1 fixture."""
    if version == "v1":
        return TestParentCompatibility.FIXTURE.read_bytes()
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "v2.ckpt"
        save_checkpoint(path, Sepformer(small_config(
            intra_attention=AttentionSpec("longformer", heads=2, d_model=8,
                                          window=3, global_stride=4)),
            seed=5))
        return path.read_bytes()


def apply_edit(lines, kind, i, j, value):
    """One config-text edit on ``lines``, addressed modulo its length."""
    lines = list(lines)
    i, j = i % len(lines), j % len(lines)
    key, _, old = lines[i].partition("=")
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(j, lines[i])
    elif kind == "rename":
        lines[i] = lines[j].partition("=")[0] + "=" + old
    elif kind == "unknown":
        lines.append("bogus=" + value)
    elif kind == "n_heads":
        lines.append("n_heads=2")
    else:
        lines[i] = key + "=" + value
    return lines


@pytest.mark.parametrize("base", ["v2", "v1"])
@settings(max_examples=100, deadline=None)
@given(edits=st.lists(st.tuples(
    st.sampled_from(["drop", "duplicate", "rename", "unknown", "n_heads",
                     "set"]),
    st.integers(0, 99), st.integers(0, 99), st.sampled_from(EDIT_VALUES)),
    max_size=3))
def test_edited_config_text_loads_as_written_or_raises(base, edits):
    """Up to three edits of a checkpoint's config text: the load either
    raises CheckpointError or gives a model whose saved text is the edited
    text (a v1 text minus its n_heads line)."""
    raw = edit_base(base)
    lines = config_block(raw).decode("utf-8").splitlines()
    for edit in edits:
        lines = apply_edit(lines, *edit)
    text = "".join(line + "\n" for line in lines)
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "edited.ckpt"
        path.write_bytes(with_config_text(raw, lambda _: text))
        try:
            model = load_checkpoint(path)
        except CheckpointError:
            return
        save_checkpoint(path, model)
        saved = config_block(path.read_bytes()).decode("utf-8")
    if base == "v1":
        text = "".join(line + "\n" for line in lines
                       if line.partition("=")[0] != "n_heads")
    assert saved == text
