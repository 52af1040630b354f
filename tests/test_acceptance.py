"""Acceptance gate: every criterion below runs at its stated tolerance and
prints one PASS line (run with ``pytest -s`` to see them inline)."""

import math
import time
from itertools import permutations

import numpy as np
import pytest

import sepformer.ndkernel as nd
from sepformer.attention import (AttentionSpec, multi_head_dispatch,
                                 positional_encoding)
from sepformer.cli import TOY_DEFAULTS, _toy_item, build_run_config
from sepformer.datagen import Signal, wav_read, wav_write
from sepformer.dualpath import chunk, overlap_add
from sepformer.gradcheck import TOLERANCE, run_suite, tiny_config
from sepformer.model import (Sepformer, SepformerConfig, load_checkpoint,
                             parameter_census, save_checkpoint)
from sepformer.ndkernel import Tensor
from sepformer.objectives import pit_loss, si_snr_db, train_toy
from sepformer.profiler import count_macs, count_macs_detailed
from sepformer.transformer import init_transformer_layer, transformer_layer

from test_attention import (brute_force_attention, make_weights,
                            shared_qk_full_oracle)
from test_transformer import record_branches


def report(n, text):
    print("\nPASS criterion %d: %s" % (n, text))


def test_criterion_01_parameter_census():
    t0 = time.perf_counter()
    total = parameter_census(SepformerConfig())
    elapsed = time.perf_counter() - t0
    rel = abs(total - 25.7e6) / 25.7e6
    assert rel <= 0.01
    assert elapsed < 1.0
    report(1, "census %d = 25.7M %+0.2f%% in %.3fs"
           % (total, 100 * (total / 25.7e6 - 1), elapsed))


def test_criterion_02_chunk_overlap_add_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    cases = [(2, 9, 10), (2, 10, 10), (2, 11, 10)]   # T' < C, = C, > C
    while len(cases) < 200:
        cases.append((int(rng.integers(1, 6)),
                      int(rng.integers(1, 500)),
                      2 * int(rng.integers(1, 50))))
    worst = 0.0
    for f, tp, c in cases:
        x = rng.standard_normal((f, tp))
        back = overlap_add(chunk(Tensor(x), c), tp).data
        worst = max(worst, float(np.abs(back - x).max()))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 10.0
    report(2, "%d round trips, worst abs err %.2e in %.2fs"
           % (len(cases), worst, elapsed))


def test_criterion_03_residual_wiring_bit_exact(monkeypatch):
    rng = np.random.default_rng(3)
    spec = AttentionSpec("full", heads=4, d_model=16)
    params = init_transformer_layer(spec, 16, 32, rng)
    z = Tensor(rng.standard_normal((16, 12)))
    branches = record_branches(monkeypatch)
    out = transformer_layer(z, params, spec)
    expected = branches["ffw_branch"].data + (
        branches["attn_branch"].data + z.data)
    assert np.array_equal(out.data, expected)
    report(3, "layer output == ffw_branch + (attention_branch + input), "
              "bit-for-bit")


def test_criterion_04_gradient_suite():
    t0 = time.perf_counter()
    results = run_suite("all")
    elapsed = time.perf_counter() - t0
    worst_name, worst = max(results, key=lambda r: r[1])
    for name, err in results:
        assert err < TOLERANCE, "%s: %.3e" % (name, err)
    assert elapsed < 300.0
    report(4, "%d checks, worst %.2e (%s) in %.1fs"
           % (len(results), worst, worst_name, elapsed))


def test_criterion_05_pit_matches_brute_force():
    rng = np.random.default_rng(11)
    for case in range(100):
        ns = 2 if case % 2 == 0 else 3
        targets = [rng.standard_normal(50) for _ in range(ns)]
        estimates = [rng.standard_normal(50) for _ in range(ns)]
        loss, result = pit_loss(estimates, targets)
        matrix = np.array([[si_snr_db(e, t) for t in targets]
                           for e in estimates])
        best_perm, best = None, -np.inf
        for perm in permutations(range(ns)):
            mean = matrix[range(ns), perm].mean()
            if mean > best:
                best, best_perm = mean, perm
        assert result.permutation == best_perm
        assert -loss.item() == pytest.approx(best, abs=1e-12)
    report(5, "100 random 2/3-source instances match exhaustive search "
              "exactly")


def test_criterion_06_si_snr_properties():
    rng = np.random.default_rng(13)
    s = rng.standard_normal(500)
    assert abs(si_snr_db(s, s) - 30.0) < 1e-9
    for alpha in (0.5, 2.0, 10.0):
        e = s + 0.3 * rng.standard_normal(500)
        assert abs(si_snr_db(e, alpha * s) - si_snr_db(e, s)) < 1e-9
        assert abs(si_snr_db(alpha * e, s) - si_snr_db(e, s)) < 1e-9
    t = s - s.mean()
    n = rng.standard_normal(500)
    n -= n.mean()
    n -= (n @ t) / (t @ t) * t
    n *= np.linalg.norm(t) / np.linalg.norm(n)
    ortho = si_snr_db(t + n, t)
    assert abs(ortho) < 0.01
    report(6, "30 dB ceiling, scale invariance <= 1e-9 dB, orthogonal "
              "noise at %+.4f dB" % ortho)


def test_criterion_07_attention_equivalences():
    rng = np.random.default_rng(17)
    full_spec = AttentionSpec("full", heads=2, d_model=8)

    t = 10
    lf_spec = AttentionSpec("longformer", heads=2, d_model=8,
                            window=2 * t - 1, global_stride=1)
    w = make_weights(lf_spec, 6)
    x = rng.standard_normal((6, t))
    gap_lf = np.abs(multi_head_dispatch(Tensor(x), w, lf_spec).data
                    - multi_head_dispatch(Tensor(x), w, full_spec).data).max()
    assert gap_lf <= 1e-9

    li_spec = AttentionSpec("linformer", heads=2, d_model=8, proj_len=t,
                            max_len=t)
    w = make_weights(li_spec, 6)
    w.proj_p = Tensor(np.eye(t))
    w.proj_f = Tensor(np.eye(t))
    gap_li = np.abs(multi_head_dispatch(Tensor(x), w, li_spec).data
                    - multi_head_dispatch(Tensor(x), w, full_spec).data).max()
    assert gap_li <= 1e-9

    rf_spec = AttentionSpec("reformer", heads=2, d_model=8, n_buckets=2,
                            n_rounds=2, bucket_chunk=16)
    w = make_weights(rf_spec, 6)
    col = rng.standard_normal(6)
    xx = np.tile(col[:, None], (1, 8))
    gap_rf = np.abs(multi_head_dispatch(Tensor(xx), w, rf_spec, seed=3).data
                    - shared_qk_full_oracle(xx, w, rf_spec)).max()
    assert gap_rf <= 1e-6

    w = make_weights(full_spec, 6)
    x4 = rng.standard_normal((6, 4))
    gap_bf = np.abs(multi_head_dispatch(Tensor(x4), w, full_spec).data
                    - brute_force_attention(x4, w, full_spec)).max()
    assert gap_bf <= 1e-9
    report(7, "longformer %.1e, linformer %.1e, reformer %.1e, "
              "brute-force %.1e" % (gap_lf, gap_li, gap_rf, gap_bf))


def test_criterion_08_complexity_scaling():
    t0 = time.perf_counter()

    def no_chunk(variant):
        extra = {"linformer": dict(proj_len=128, max_len=8000),
                 "reformer": dict(n_buckets=16, n_rounds=2,
                                  bucket_chunk=64)}
        spec = AttentionSpec(variant, heads=8, d_model=256,
                             **extra.get(variant, {}))
        return SepformerConfig(chunk_size=None, intra_attention=spec,
                               inter_attention=spec)

    b2 = count_macs_detailed(no_chunk("full"), 16000)
    b4 = count_macs_detailed(no_chunk("full"), 32000)
    full_ratio = b4.attention / b2.attention
    assert 3.6 <= full_ratio <= 4.4
    ratios = {"full": full_ratio}
    for variant in ("longformer", "linformer", "reformer"):
        cfg = no_chunk(variant)
        ratio = count_macs(cfg, 32000) / count_macs(cfg, 16000)
        assert 1.7 <= ratio <= 2.3, variant
        ratios[variant] = ratio
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(8, "2s->4s MAC ratios: " + ", ".join(
        "%s %.2f" % kv for kv in ratios.items()) + " (%.2fs)" % elapsed)


def test_criterion_09_memory_ordering():
    base = dict(n_filters=32, kernel_size=16, stride=8, n_repeats=1,
                intra_layers=2, inter_layers=2, ffw_dim=64, n_sources=2,
                intra_attention=AttentionSpec("full", heads=2, d_model=32))
    x = np.random.default_rng(0).uniform(-0.5, 0.5, 32000)
    peaks = {}
    for chunking in (None, 250, 1000):
        model = Sepformer(SepformerConfig(**base, chunk_size=chunking),
                          seed=0)
        with nd.track_memory() as arena:
            model.separate(x)
        peaks[chunking] = arena.peak
    assert peaks[None] > peaks[1000] > peaks[250]
    report(9, "4s peaks: none %.0f MB > c1000 %.0f MB > c250 %.0f MB"
           % tuple(peaks[k] / 2 ** 20 for k in (None, 1000, 250)))


def test_criterion_10_toy_overfit():
    t0 = time.perf_counter()
    cfg, run = build_run_config(dict(TOY_DEFAULTS))
    assert (cfg.n_filters, cfg.chunk_size, cfg.n_repeats) == (32, 50, 1)
    assert (cfg.intra_layers, cfg.inter_layers, cfg.ffw_dim) == (1, 1, 64)
    mixture, targets = _toy_item(cfg, run)
    model = Sepformer(cfg, seed=run["seed"])
    rows = train_toy(model, lambda step: (mixture, targets), 2000,
                     lr=run["lr"])
    elapsed = time.perf_counter() - t0
    assert rows[-1].si_snri >= 10.0
    assert elapsed < 900.0
    # deterministic per seed: a fresh model replays the same trajectory
    replay = train_toy(Sepformer(cfg, seed=run["seed"]),
                       lambda step: (mixture, targets), 25, lr=run["lr"])
    assert [r.loss for r in replay] == [r.loss for r in rows[:25]]
    report(10, "SI-SNRi %.2f dB after 2000 steps in %.0fs, trajectory "
               "replays exactly" % (rows[-1].si_snri, elapsed))


def test_criterion_11_positional_encoding_closed_form():
    d = 32
    pe = positional_encoding(128, d).data
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(20):
        t = int(rng.integers(0, 128))
        i = int(rng.integers(0, d // 2))
        angle = t / 10000.0 ** (2 * i / d)
        worst = max(worst, abs(pe[t, 2 * i] - math.sin(angle)),
                    abs(pe[t, 2 * i + 1] - math.cos(angle)))
    assert worst <= 1e-12
    report(11, "20 spot points within %.1e of the closed form" % worst)


def test_criterion_12_container_round_trips(tmp_path):
    model = Sepformer(tiny_config(), seed=5)
    rng = np.random.default_rng(29)
    for t in model.parameters().values():
        t.data[...] = rng.standard_normal(t.shape)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, model)
    restored = load_checkpoint(ckpt)
    for name, t in model.parameters().items():
        assert restored.parameters()[name].data.tobytes() \
            == t.data.tobytes()

    x = rng.uniform(-1, 1, 2000)
    x[0], x[1] = 1.0, -1.0
    wav = tmp_path / "x.wav"
    wav_write(wav, Signal(x, 8000))
    back = wav_read(wav)
    wav_err = np.abs(back.samples - x).max()
    assert wav_err <= 1.0 / 32768
    report(12, "checkpoint bit-exact; WAV worst error %.3g <= 1 LSB"
           % wav_err)
