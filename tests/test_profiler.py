import numpy as np
import pytest

import sepformer.ndkernel as nd
from sepformer.attention import AttentionSpec
from sepformer.cli import PAPER_DEFAULTS, build_run_config
from sepformer.model import Sepformer, SepformerConfig
from sepformer.profiler import (CSV_HEADER, CostReport, SmallConvBaseline,
                                bench_baseline, bench_forward, config_label,
                                count_macs, count_macs_detailed, render_csv,
                                render_json, render_markdown)


def parse_csv(text):
    """Inverse of ``render_csv``: one CostReport per row."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    assert lines[0] == CSV_HEADER
    reports = []
    for ln in lines[1:]:
        label, seconds, macs, wall, peak = ln.split(",")
        reports.append(CostReport(label, float(seconds), int(macs),
                                  float(wall), int(peak)))
    return reports


def small_base(**overrides):
    base = dict(n_filters=8, kernel_size=4, stride=2, n_repeats=1,
                intra_layers=2, inter_layers=1, ffw_dim=16, n_sources=2)
    base.update(overrides)
    base.setdefault("intra_attention", AttentionSpec(
        "full", heads=2, d_model=base["n_filters"]))
    return base


def spec_for(variant, d_model=8, heads=2):
    extra = {"longformer": dict(window=5, global_stride=7),
             "linformer": dict(proj_len=4, max_len=8000),
             "reformer": dict(n_buckets=4, n_rounds=2, bucket_chunk=4)}
    return AttentionSpec(variant, heads=heads, d_model=d_model,
                         **extra.get(variant, {}))


def paper_no_chunk(variant):
    extra = {"linformer": dict(proj_len=128, max_len=8000),
             "reformer": dict(n_buckets=16, n_rounds=2, bucket_chunk=64)}
    spec = AttentionSpec(variant, heads=8, d_model=256,
                         **extra.get(variant, {}))
    return SepformerConfig(chunk_size=None, intra_attention=spec,
                           inter_attention=spec)


class TestAnalyticalVsInstrumented:
    CASES = [
        ("full", 6, 101), ("full", None, 97),
        ("longformer", 8, 131), ("longformer", None, 88),
        ("linformer", 10, 144), ("reformer", 6, 100),
        ("reformer", None, 157),
        # T' = 599 in 149 chunks of 8: 1,192 positions, more than one
        # batched group holds, so both the intra and the inter stacks run
        # in several groups
        ("full", 8, 1200), ("reformer", 8, 1200),
    ]

    @pytest.mark.parametrize("variant,chunk,samples", CASES)
    def test_counts_agree_exactly(self, variant, chunk, samples):
        cfg = SepformerConfig(**small_base(intra_attention=spec_for(variant)),
                              chunk_size=chunk)
        model = Sepformer(cfg, seed=0)
        x = np.random.default_rng(1).uniform(-0.5, 0.5, samples)
        with nd.record_macs() as macs:
            model.separate(x)
        assert macs.total == count_macs(cfg, samples)

    def test_random_configurations_agree_exactly(self):
        rng = np.random.default_rng(55)
        variants = ["full", "longformer", "linformer", "reformer"]
        for i in range(5):
            heads = int(rng.choice([1, 2]))
            filt = int(rng.choice([4, 8]))
            cfg = SepformerConfig(
                n_filters=filt, kernel_size=4, stride=2,
                chunk_size=int(rng.choice([4, 6, 8])),
                n_repeats=int(rng.integers(1, 3)),
                intra_layers=int(rng.integers(1, 3)),
                inter_layers=int(rng.integers(1, 3)),
                ffw_dim=int(rng.choice([8, 16])),
                n_sources=int(rng.choice([1, 2, 3])),
                intra_attention=spec_for(variants[i % 4], d_model=filt,
                                         heads=heads),
                inter_attention=spec_for(variants[(i + 1) % 4],
                                         d_model=filt, heads=heads))
            model = Sepformer(cfg, seed=i)
            samples = int(rng.integers(60, 160))
            x = rng.uniform(-0.5, 0.5, samples)
            with nd.record_macs() as macs:
                model.separate(x)
            assert macs.total == count_macs(cfg, samples), cfg


class TestScalingLaws:
    def test_full_attention_term_scales_quadratically(self):
        cfg = paper_no_chunk("full")
        two = count_macs_detailed(cfg, 16000)
        four = count_macs_detailed(cfg, 32000)
        assert 3.9 <= four.attention / two.attention <= 4.1

    def test_doubling_input_ratios_match_complexity_claims(self):
        # 2 s -> 4 s, no chunking: quadratic for full (attention term),
        # near-linear totals for the efficient variants
        full = paper_no_chunk("full")
        b2, b4 = (count_macs_detailed(full, n) for n in (16000, 32000))
        assert 3.6 <= b4.attention / b2.attention <= 4.4
        for variant in ("longformer", "linformer", "reformer"):
            cfg = paper_no_chunk(variant)
            t2, t4 = (count_macs(cfg, n) for n in (16000, 32000))
            assert 1.7 <= t4 / t2 <= 2.3, variant

    def test_reformer_needs_fewer_macs_than_full_without_chunking(self):
        # 4 s input
        assert count_macs(paper_no_chunk("reformer"), 32000) \
            < count_macs(paper_no_chunk("full"), 32000)

    def test_full_attention_is_row_maximal_at_four_seconds(self):
        totals = {v: count_macs(paper_no_chunk(v), 32000)
                  for v in ("full", "longformer", "linformer", "reformer")}
        assert max(totals, key=totals.get) == "full"

    def test_longformer_and_reformer_attention_reduction(self):
        full = count_macs_detailed(paper_no_chunk("full"), 32000)
        for variant in ("longformer", "reformer"):
            eff = count_macs_detailed(paper_no_chunk(variant), 32000)
            assert eff.attention < 0.2 * full.attention

    def test_chunked_full_under_unchunked_full_at_matched_depth(self):
        # the no-chunking model drops the inter stacks, so totals are only
        # comparable when the unchunked model runs the same 32 layers;
        # then chunking wins from 2 s on
        dense_cfg = SepformerConfig(chunk_size=None, intra_layers=16)
        for seconds in (2, 3, 4):
            chunked = count_macs(SepformerConfig(), seconds * 8000)
            dense = count_macs(dense_cfg, seconds * 8000)
            assert chunked < dense

    def test_chunked_attention_macs_below_unchunked_attention(self):
        for seconds in (2, 3, 4):
            chunked = count_macs_detailed(SepformerConfig(),
                                          seconds * 8000).attention
            dense = count_macs_detailed(SepformerConfig(chunk_size=None),
                                        seconds * 8000).attention
            assert chunked < 0.25 * dense

    def test_chunked_attention_term_breakdown(self):
        # Nc*C^2 + C*Nc^2 sized attention, strictly below the T'^2 of the
        # unchunked model (checked at T'=2000, C=250 via the cost model)
        cfg = SepformerConfig(n_filters=16, kernel_size=16, stride=8,
                              chunk_size=250, n_repeats=1, intra_layers=1,
                              inter_layers=1, ffw_dim=16,
                              intra_attention=spec_for("full", d_model=16))
        samples = 2000 * 8 + 16 - 8          # T' = 2000
        got = count_macs_detailed(cfg, samples).attention
        dk = cfg.intra_attention.d_head
        n_chunks = 15                        # 1 + (2000 - 250) / 125
        expected = cfg.intra_attention.heads * 2 * dk * (
            n_chunks * 250 ** 2 + 250 * n_chunks ** 2)
        assert got == expected
        dense = count_macs_detailed(
            SepformerConfig(n_filters=16, kernel_size=16, stride=8,
                            chunk_size=None, n_repeats=1, intra_layers=1,
                            ffw_dim=16,
                            intra_attention=spec_for("full", d_model=16)),
            samples).attention
        assert got < dense

    def test_stride_is_a_quadratic_lever_on_attention(self):
        # stride 8 vs 1 shrinks T' eightfold, so the dense attention term
        # drops about 64x
        wide = count_macs_detailed(
            SepformerConfig(chunk_size=None, stride=1), 16000).attention
        narrow = count_macs_detailed(
            SepformerConfig(chunk_size=None, stride=8), 16000).attention
        assert 58 <= wide / narrow <= 70

    @pytest.mark.parametrize("variant", ["longformer", "reformer"])
    @pytest.mark.parametrize("seconds", [0.25, 1])
    def test_efficient_attention_needs_no_more_macs_than_full_at_c250(
            self, variant, seconds):
        # the paper's chunked setting: full-size defaults, chunk 250
        def macs(attention):
            cfg, _ = build_run_config(dict(PAPER_DEFAULTS, chunk="250",
                                           attention=attention))
            return count_macs(cfg, int(seconds * 8000))
        assert macs(variant) <= macs("full")


class TestMemory:
    def test_peak_ordering_at_four_seconds(self):
        # reduced-width model: the score matrices dominate the peak, so
        # no chunking > C=1000 > C=250 with wide margins
        base = small_base(n_filters=32, kernel_size=16, stride=8,
                          intra_layers=2, inter_layers=2, ffw_dim=64)
        x = np.random.default_rng(0).uniform(-0.5, 0.5, 32000)
        peaks = {}
        for chunk in (None, 250, 1000):
            model = Sepformer(SepformerConfig(**base, chunk_size=chunk),
                              seed=0)
            with nd.track_memory() as arena:
                model.separate(x)
            peaks[chunk] = arena.peak
        assert peaks[None] > peaks[1000] > peaks[250]

    def test_peak_at_least_largest_intermediate(self):
        base = small_base(n_filters=32, kernel_size=16, stride=8)
        model = Sepformer(SepformerConfig(**base, chunk_size=None), seed=0)
        x = np.random.default_rng(0).uniform(-0.5, 0.5, 16000)
        tp = (16000 - 16) // 8 + 1
        with nd.track_memory() as arena:
            model.separate(x)
        assert arena.peak >= tp * tp * 8     # one dense score matrix

    def test_reformer_without_chunking_close_to_small_conv_baseline(self):
        # full-size LSH model against the bundled conv stand-in: the
        # abstract's memory parity. A forward without a tape frees each
        # map after its last reader and runs the feed-forward and the LSH
        # core in blocks, so the reformer's peak is the live set (6 F-row
        # maps, 0.61x), below the baseline's
        x = np.random.default_rng(0).uniform(-0.5, 0.5, 32000)
        model = Sepformer(paper_no_chunk("reformer"), seed=0)
        with nd.track_memory() as arena:
            model.separate(x)
        reformer_peak = arena.peak
        baseline = SmallConvBaseline()
        with nd.track_memory() as arena:
            baseline.separate(x)
        ratio = reformer_peak / arena.peak
        assert ratio <= 1.0, "reformer peak %.2fx the conv baseline's" % ratio


class TestBench:
    def test_wall_time_monotone_in_duration(self):
        cfg = SepformerConfig(**small_base(kernel_size=16, stride=8),
                              chunk_size=50)
        reports = bench_forward(cfg, [0.5, 1.0, 2.0], repeats=3, seed=0)
        walls = [r.wall_ms for r in reports]
        assert all(w > 0 for w in walls)
        for earlier, later in zip(walls, walls[1:]):
            assert later >= 0.9 * earlier

    def test_reports_carry_deterministic_macs_and_peak(self):
        cfg = SepformerConfig(**small_base(kernel_size=16, stride=8),
                              chunk_size=50)
        a = bench_forward(cfg, [0.5], repeats=2, seed=0)[0]
        b = bench_forward(cfg, [0.5], repeats=2, seed=0)[0]
        assert a.macs == b.macs == count_macs(cfg, 4000)
        assert a.peak_bytes == b.peak_bytes

    def test_baseline_rows_labelled(self):
        reports = bench_baseline([0.5], repeats=1)
        assert reports[0].label == "smallconv/none"
        assert reports[0].macs > 0

    def test_config_labels(self):
        assert config_label(SepformerConfig()) == "full/c250"
        assert config_label(SepformerConfig(chunk_size=None)) == "full/none"
        mixed = SepformerConfig(
            intra_attention=AttentionSpec("reformer", heads=8, d_model=256),
            inter_attention=AttentionSpec("full", heads=8, d_model=256))
        assert config_label(mixed) == "reformer+full/c250"


class TestReport:
    def _reports(self):
        return [CostReport("b/none", 2.0, 10, 1.5, 100),
                CostReport("a/c250", 1.0, 20, 2.5, 200),
                CostReport("b/none", 1.0, 30, 3.5, 300)]

    def test_csv_round_trip(self):
        text = render_csv(self._reports())
        assert parse_csv(text) == sorted(self._reports(),
                                         key=lambda r: (r.label, r.seconds))

    def test_rows_sorted_by_label_then_seconds(self):
        lines = render_csv(self._reports()).strip().splitlines()
        assert [ln.split(",")[0] for ln in lines[1:]] == \
            ["a/c250", "b/none", "b/none"]
        assert lines[0] == "label,seconds,macs,wall_ms,peak_bytes"

    def test_empty_report_is_header_only(self):
        assert render_csv([]) == "label,seconds,macs,wall_ms,peak_bytes\n"

    def test_markdown_mirrors_csv(self):
        md = render_markdown(self._reports())
        csv = render_csv(self._reports())
        md_cells = [ln.split("|")[1:-1] for ln in md.strip().splitlines()]
        md_rows = [[c.strip() for c in row] for row in md_cells[2:]]
        csv_rows = [ln.split(",") for ln in csv.strip().splitlines()[1:]]
        assert md_rows == csv_rows

    def test_json_matches_fields(self):
        import json
        data = json.loads(render_json(self._reports()))
        assert data[0] == {"label": "a/c250", "seconds": 1.0, "macs": 20,
                           "wall_ms": 2.5, "peak_bytes": 200}
