import os
import pathlib
import re
import resource
import subprocess
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest

import sepformer
from sepformer.attention import VARIANTS, AttentionSpec
from sepformer.cli import (PAPER_DEFAULTS, TOY_DEFAULTS, ConfigError,
                           build_run_config, main, parse_config_file)
from sepformer.datagen import Signal, wav_read, wav_write
from sepformer.model import CheckpointError, Sepformer, SepformerConfig, \
    load_checkpoint, save_checkpoint

from test_profiler import parse_csv

SHIPPED_TOY_CFG = pathlib.Path(__file__).resolve().parent.parent / "toy.cfg"


def tiny_cfg_file(tmp_path, **extra):
    values = {"filters": "8", "kernel": "4", "stride": "2", "chunk": "6",
              "repeats": "1", "intra_layers": "1", "inter_layers": "1",
              "heads": "2", "ffw": "16", "duration": "0.1"}
    values.update({k: str(v) for k, v in extra.items()})
    path = tmp_path / "tiny.cfg"
    path.write_text("# tiny\n" + "".join("%s = %s\n" % kv
                                         for kv in values.items()))
    return str(path)


def train_tiny(tmp_path, name="model.ckpt", steps="2", seed="1",
               trace=None):
    ckpt = str(tmp_path / name)
    argv = ["train-toy", "--config", tiny_cfg_file(tmp_path),
            "--steps", steps, "--seed", seed, "--out", ckpt]
    if trace:
        argv += ["--trace", str(tmp_path / trace)]
    assert main(argv) == 0
    return ckpt


class TestConfigFile:
    def test_shipped_toy_config_matches_builtin_defaults(self):
        values = parse_config_file(str(SHIPPED_TOY_CFG))
        for key, value in values.items():
            assert TOY_DEFAULTS[key] == value

    def test_unknown_key_names_line_number(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("filters = 8\nwindowsize = 3\n")
        assert main(["train-toy", "--config", str(path),
                     "--out", str(tmp_path / "x.ckpt")]) == 1
        err = capsys.readouterr().err
        assert "windowsize" in err and ":2" in err

    def test_malformed_line_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("filters\n")
        assert main(["train-toy", "--config", str(path),
                     "--out", str(tmp_path / "x.ckpt")]) == 1
        assert ":1" in capsys.readouterr().err

    @pytest.mark.parametrize("text,key,first,second", [
        ("stride = 2\nstride = 3\n", "stride", 1, 2),
        ("heads = 2\n# four\n\nfilters = 8\n heads=4\n", "heads", 1, 5),
        ("seed = 1\nseed = 1\n", "seed", 1, 2),
    ])
    def test_repeated_key_names_both_lines(self, tmp_path, text, key, first,
                                           second):
        path = tmp_path / "dup.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError) as err:
            parse_config_file(str(path))
        msg = str(err.value)
        assert repr(key) in msg
        assert ":%d:" % second in msg and "line %d" % first in msg

    @pytest.mark.parametrize("command", ["train-toy", "bench"])
    def test_repeated_key_exits_one(self, tmp_path, capsys, command):
        path = tmp_path / "dup.cfg"
        path.write_text("filters = 8\nstride = 2\nstride = 3\n")
        out = tmp_path / "x.out"
        argv = [command, "--config", str(path), "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "'stride'" in err and ":3:" in err and "line 2" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train-toy", "bench"])
    def test_config_not_utf8_names_file_and_line(self, tmp_path, capsys,
                                                 command):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"filters = 8\r\n# caf\xff\nstride = 2\n")
        out = tmp_path / "x.out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "%s:2: not UTF-8" % path in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_flag_overrides_file_overrides_default(self, tmp_path):
        values = dict(TOY_DEFAULTS)
        values.update(parse_config_file(tiny_cfg_file(tmp_path, seed=9)))
        values["seed"] = "3"
        cfg, run = build_run_config(values)
        assert cfg.n_filters == 8        # from file
        assert run["seed"] == 3          # from flag
        assert cfg.sample_rate == 8000   # builtin default

    def test_usage_error_exits_one(self, capsys):
        assert main([]) == 1
        assert main(["separate", "--model", "x"]) == 1


class TestTrainToy:
    def test_writes_checkpoint_and_trace(self, tmp_path):
        ckpt = train_tiny(tmp_path, trace="trace.csv")
        model = load_checkpoint(ckpt)
        assert model.cfg.n_filters == 8
        lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
        assert lines[0] == \
            "step,loss,lr,si_snri,wall_ms,grad_norm,tape_records," \
            "forward_ms,backward_ms"
        assert len(lines) == 3

    def test_zero_steps_equals_initialization(self, tmp_path):
        ckpt = train_tiny(tmp_path, steps="0")
        trained = load_checkpoint(ckpt)
        fresh = Sepformer(trained.cfg, seed=trained.seed)
        for name, t in fresh.parameters().items():
            got = trained.parameters()[name]
            assert got.data.tobytes() == t.data.tobytes()

    def test_equal_seeds_give_identical_checkpoints(self, tmp_path):
        a = train_tiny(tmp_path, name="a.ckpt")
        b = train_tiny(tmp_path, name="b.ckpt")
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_divergence_exits_two_naming_step(self, tmp_path, capsys):
        import sepformer.ndkernel as nd
        nd.set_debug_checks(False)   # let the divergence reach the loss
        cfg = tiny_cfg_file(tmp_path, lr="1e200")
        with np.errstate(all="ignore"):
            rc = main(["train-toy", "--config", cfg, "--steps", "5",
                       "--seed", "1", "--out", str(tmp_path / "x.ckpt")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "step" in err and "numeric failure" in err


class TestSeparate:
    def _checkpoint_and_input(self, tmp_path):
        ckpt = train_tiny(tmp_path)
        rng = np.random.default_rng(6)
        wav = tmp_path / "mix.wav"
        wav_write(wav, Signal(rng.uniform(-0.5, 0.5, 800), 8000))
        return ckpt, str(wav)

    def test_writes_one_wav_per_source(self, tmp_path):
        ckpt, wav = self._checkpoint_and_input(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["separate", "--model", ckpt, "--in", wav,
                     "--out-dir", str(out_dir)]) == 0
        for k in (1, 2):
            est = wav_read(out_dir / ("source%d.wav" % k))
            assert len(est) == 800
            assert est.sample_rate == 8000

    def test_reference_metrics_close_to_ceiling_after_quantization(
            self, tmp_path, capsys):
        # feeding the model's own written estimates back as references
        # leaves only 16-bit quantization noise
        ckpt, wav = self._checkpoint_and_input(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["separate", "--model", ckpt, "--in", wav,
                     "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()
        refs = [str(out_dir / "source1.wav"), str(out_dir / "source2.wav")]
        assert main(["separate", "--model", ckpt, "--in", wav,
                     "--out-dir", str(tmp_path / "out2"),
                     "--ref", refs[0], "--ref", refs[1]]) == 0
        out = capsys.readouterr().out
        value = float(out.split("si_snr_db=")[1].split()[0])
        assert value >= 29.0

    def test_missing_input_names_path(self, tmp_path, capsys):
        ckpt = train_tiny(tmp_path)
        missing = str(tmp_path / "nope.wav")
        assert main(["separate", "--model", ckpt, "--in", missing,
                     "--out-dir", str(tmp_path)]) == 1
        assert "nope.wav" in capsys.readouterr().err

    def test_source_count_mismatch_rejected(self, tmp_path, capsys):
        ckpt, wav = self._checkpoint_and_input(tmp_path)
        assert main(["separate", "--model", ckpt, "--in", wav,
                     "--out-dir", str(tmp_path), "--sources", "3"]) == 1
        assert "--sources" in capsys.readouterr().err

    def test_sample_rate_mismatch_rejected(self, tmp_path, capsys):
        ckpt = train_tiny(tmp_path)
        wav = tmp_path / "hi.wav"
        wav_write(wav, Signal(np.zeros(1600) + 0.1, 16000))
        assert main(["separate", "--model", ckpt, "--in", str(wav),
                     "--out-dir", str(tmp_path)]) == 1
        assert "sample rate" in capsys.readouterr().err

    def test_reference_sample_rate_mismatch_rejected(self, tmp_path, capsys):
        ckpt, wav = self._checkpoint_and_input(tmp_path)
        rng = np.random.default_rng(8)
        refs = []
        for k in (1, 2):
            ref = tmp_path / ("ref%d.wav" % k)
            wav_write(ref, Signal(rng.uniform(-0.5, 0.5, 1600), 16000))
            refs += ["--ref", str(ref)]
        capsys.readouterr()
        out_dir = tmp_path / "out"
        assert main(["separate", "--model", ckpt, "--in", wav,
                     "--out-dir", str(out_dir)] + refs) == 1
        captured = capsys.readouterr()
        assert "si_snri_db" not in captured.out
        assert "wrote" not in captured.out and not out_dir.exists()
        assert "sample rate mismatch" in captured.err
        assert "ref1.wav" in captured.err
        assert "16000" in captured.err and "8000" in captured.err

    @pytest.mark.parametrize("refused", ["count", "unreadable"])
    def test_refused_references_leave_no_estimates(self, tmp_path, capsys,
                                                   refused):
        ckpt, wav = self._checkpoint_and_input(tmp_path)
        refs = []
        for k in (1, 2):
            ref = tmp_path / ("ref%d.wav" % k)
            wav_write(ref, Signal(np.full(800, 0.1 * k), 8000))
            refs += ["--ref", str(ref)]
        if refused == "count":
            refs, named = refs[:2], "--ref"
        else:
            refs[-1], named = str(tmp_path / "missing.wav"), "missing.wav"
        out_dir = tmp_path / "out"
        capsys.readouterr()
        assert main(["separate", "--model", ckpt, "--in", wav,
                     "--out-dir", str(out_dir)] + refs) == 1
        captured = capsys.readouterr()
        assert named in captured.err
        assert "wrote" not in captured.out and not out_dir.exists()

    def _refused_before_the_model(self, tmp_path, capsys, mixture, refs):
        """Run ``separate`` on the given samples; it must exit 1 without
        writing, printing a score or warning. Returns stderr."""
        ckpt = train_tiny(tmp_path)
        wav = tmp_path / "mix.wav"
        wav_write(wav, Signal(mixture, 8000))
        argv = ["separate", "--model", ckpt, "--in", str(wav)]
        for k, samples in enumerate(refs, start=1):
            ref = tmp_path / ("ref%d.wav" % k)
            wav_write(ref, Signal(samples, 8000))
            argv += ["--ref", str(ref)]
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv + ["--out-dir", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert caught == []
        assert "nan" not in captured.out and "wrote" not in captured.out
        assert "Warning" not in captured.err
        assert list(out_dir.iterdir()) == []
        return captured.err

    @pytest.mark.parametrize("level", [0.0, 0.1])
    def test_zero_energy_reference_refused_before_the_model(
            self, tmp_path, capsys, level):
        rng = np.random.default_rng(9)
        err = self._refused_before_the_model(
            tmp_path, capsys, rng.uniform(-0.5, 0.5, 800),
            [rng.uniform(-0.5, 0.5, 800), np.full(800, level)])
        assert "ref2.wav" in err and "zero energy" in err

    @pytest.mark.parametrize("level", [0.0, 0.1])
    def test_silent_input_with_references_refused(self, tmp_path, capsys,
                                                  level):
        rng = np.random.default_rng(10)
        err = self._refused_before_the_model(
            tmp_path, capsys, np.full(800, level),
            [rng.uniform(-0.5, 0.5, 800) for _ in range(2)])
        assert "mix.wav" in err and "zero energy" in err

    def test_bad_checkpoint_magic_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"JUNK" + b"\x00" * 32)
        wav = tmp_path / "x.wav"
        wav_write(wav, Signal(np.zeros(100), 8000))
        assert main(["separate", "--model", str(bad), "--in", str(wav),
                     "--out-dir", str(tmp_path)]) == 1
        assert "magic" in capsys.readouterr().err

    @pytest.mark.parametrize("keep", [6, 10, 200, -9])
    def test_truncated_checkpoint_exits_one_naming_file(self, tmp_path,
                                                        capsys, keep):
        ckpt, wav = self._checkpoint_and_input(tmp_path)
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(pathlib.Path(ckpt).read_bytes()[:keep])
        assert main(["separate", "--model", str(cut), "--in", wav,
                     "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert re.search(r"error: truncated .* at offset \d+ in "
                         + re.escape(str(cut)), err)

    @pytest.mark.parametrize("n_bytes,data_size", [(199, 199), (200, 10 ** 6)])
    def test_bad_wav_data_chunk_exits_one(self, tmp_path, capsys, n_bytes,
                                          data_size):
        ckpt, wav = self._checkpoint_and_input(tmp_path)
        raw = pathlib.Path(wav).read_bytes()[:44 + n_bytes]
        bad = tmp_path / "bad.wav"
        bad.write_bytes(raw[:40] + data_size.to_bytes(4, "little") + raw[44:])
        assert main(["separate", "--model", ckpt, "--in", str(bad),
                     "--out-dir", str(tmp_path / "out")]) == 1
        assert "data chunk size %d" % data_size in capsys.readouterr().err


    def test_trailing_checkpoint_bytes_exit_one(self, tmp_path, capsys):
        ckpt, wav = self._checkpoint_and_input(tmp_path)
        padded = tmp_path / "padded.ckpt"
        padded.write_bytes(pathlib.Path(ckpt).read_bytes() + bytes(800))
        assert main(["separate", "--model", str(padded), "--in", wav,
                     "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert re.search(r"error: 800 trailing bytes .* at offset \d+ in "
                         + re.escape(str(padded)), err)

    def test_zero_wav_rate_exits_one(self, tmp_path, capsys):
        ckpt, wav = self._checkpoint_and_input(tmp_path)
        raw = pathlib.Path(wav).read_bytes()
        bad = tmp_path / "rate0.wav"
        bad.write_bytes(raw[:24] + bytes(4) + raw[28:])
        assert main(["separate", "--model", ckpt, "--in", str(bad),
                     "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "error: sample rate field is 0 in %s" % bad in err


@pytest.mark.parametrize("case", ["separate_out_dir_is_file",
                                  "separate_model_is_dir",
                                  "train_out_is_dir", "bench_out_is_dir"])
def test_os_error_exits_one_without_traceback(tmp_path, capsys, case):
    cfg = tiny_cfg_file(tmp_path)
    a_dir = tmp_path / "a_dir"
    a_dir.mkdir()
    if case.startswith("separate"):
        ckpt = train_tiny(tmp_path)
        wav = tmp_path / "mix.wav"
        wav_write(wav, Signal(np.zeros(800) + 0.1, 8000))
        a_file = tmp_path / "a_file"
        a_file.write_text("")
        out_dir = a_file if case == "separate_out_dir_is_file" else a_dir
        model = a_dir if case == "separate_model_is_dir" else ckpt
        argv = ["separate", "--model", str(model), "--in", str(wav),
                "--out-dir", str(out_dir)]
    elif case == "train_out_is_dir":
        argv = ["train-toy", "--config", cfg, "--steps", "0",
                "--out", str(a_dir)]
    else:
        argv = ["bench", "--config", cfg, "--attention", "full",
                "--chunking", "none", "--seconds", "0.05", "--repeats", "1",
                "--out", str(a_dir)]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_memory_error_exits_one_with_one_error_line(tmp_path):
    # the child caps its own address space, so a miss fails fast
    cap = 1 << 30

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = os.path.dirname(os.path.dirname(sepformer.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "sepformer.cli", "bench", "--config",
         tiny_cfg_file(tmp_path), "--attention", "full", "--seconds", "1e9",
         "--repeats", "1"],
        capture_output=True, text=True, env=env, preexec_fn=limit,
        timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


class TestBench:
    def test_row_count_is_product_of_axes(self, tmp_path, capsys):
        assert main(["bench", "--config", tiny_cfg_file(tmp_path),
                     "--attention", "full", "reformer",
                     "--chunking", "c250", "none",
                     "--seconds", "0.05", "0.1",
                     "--repeats", "1"]) == 0
        reports = parse_csv(capsys.readouterr().out)
        assert len(reports) == 2 * 2 * 2
        labels = {r.label for r in reports}
        assert labels == {"full/c250", "full/none", "reformer/c250",
                          "reformer/none"}

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_registry_variant_is_a_choice(self, tmp_path, capsys,
                                                variant):
        assert main(["bench", "--config", tiny_cfg_file(tmp_path),
                     "--attention", variant, "--chunking", "c250",
                     "--seconds", "0.05", "--repeats", "1"]) == 0
        reports = parse_csv(capsys.readouterr().out)
        assert [r.label for r in reports] == [variant + "/c250"]

    def test_json_output_to_file(self, tmp_path):
        import json
        out = tmp_path / "bench.json"
        assert main(["bench", "--config", tiny_cfg_file(tmp_path),
                     "--attention", "full", "--chunking", "none",
                     "--seconds", "0.05", "--repeats", "1",
                     "--emit", "json", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert rows[0]["label"] == "full/none" and rows[0]["macs"] > 0

    def test_baseline_rows_included_on_request(self, tmp_path, capsys):
        assert main(["bench", "--config", tiny_cfg_file(tmp_path),
                     "--attention", "full", "--chunking", "c250",
                     "--seconds", "0.05", "--repeats", "1",
                     "--with-baseline"]) == 0
        labels = {r.label for r in parse_csv(capsys.readouterr().out)}
        assert "smallconv/none" in labels

    def test_linformer_beyond_projection_length_fails_cleanly(
            self, tmp_path, capsys):
        assert main(["bench",
                     "--config", tiny_cfg_file(tmp_path, proj_len=16,
                                               max_len=100),
                     "--attention", "linformer", "--chunking", "none",
                     "--seconds", "0.05", "--repeats", "1"]) == 1
        assert "exceeds" in capsys.readouterr().err

    def test_inter_attention_full_option(self, tmp_path, capsys):
        assert main(["bench", "--config", tiny_cfg_file(tmp_path),
                     "--attention", "reformer", "--chunking", "c250",
                     "--seconds", "0.05", "--repeats", "1",
                     "--inter-attention", "full"]) == 0
        reports = parse_csv(capsys.readouterr().out)
        assert reports[0].label == "reformer+full/c250"


    def test_config_file_alone_sets_the_rows(self, tmp_path, capsys):
        cfg = tiny_cfg_file(tmp_path, attention="reformer",
                            inter_attention="full")
        assert main(["bench", "--config", cfg, "--seconds", "0.05",
                     "--repeats", "1"]) == 0
        assert [r.label for r in parse_csv(capsys.readouterr().out)] == [
            "reformer+full/c6"]
        assert main(["bench", "--config", cfg, "--attention", "full",
                     "--chunking", "none", "--inter-attention", "same",
                     "--seconds", "0.05", "--repeats", "1"]) == 0
        assert [r.label for r in parse_csv(capsys.readouterr().out)] == [
            "full/none"]

    @pytest.mark.parametrize("flag,value", [
        ("--seconds", "inf"), ("--seconds", "nan"), ("--seconds", "-1"),
        ("--seconds", "0"), ("--seconds", "x"), ("--repeats", "0"),
        ("--repeats", "-2"), ("--repeats", "1.5")])
    def test_bad_seconds_or_repeats_exit_one_naming_flag(self, tmp_path,
                                                         capsys, flag, value):
        argv = ["bench", "--config", tiny_cfg_file(tmp_path),
                "--seconds", "0.05", "--repeats", "1"]
        argv[argv.index(flag) + 1] = value
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "argument %s: " % flag in err and repr(value) in err
        assert "Traceback" not in err


class TestGradcheck:
    def test_ndkernel_suite_passes_and_lists_each_op_once(self, capsys):
        from sepformer.ndkernel import DIFFERENTIABLE_OPS
        assert main(["gradcheck", "--module", "ndkernel"]) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if "max_rel_err" in ln]
        assert len(lines) == len(DIFFERENTIABLE_OPS)
        for op in DIFFERENTIABLE_OPS:
            assert sum(1 for ln in lines
                       if ln.split()[0] == "ndkernel." + op) == 1

    def test_attention_suite_exit_zero(self, capsys):
        assert main(["gradcheck", "--module", "attention"]) == 0
        assert "all gradients within" in capsys.readouterr().out


class TestSchema:
    def test_default_tables_keep_their_values(self):
        assert PAPER_DEFAULTS == {
            "filters": "256", "kernel": "16", "stride": "8", "chunk": "250",
            "repeats": "2", "intra_layers": "8", "inter_layers": "8",
            "heads": "8", "ffw": "1024", "sources": "2",
            "sample_rate": "8000", "attention": "full",
            "inter_attention": "same", "window": "101",
            "global_stride": "100", "proj_len": "128", "max_len": "8000",
            "n_buckets": "16", "n_rounds": "2", "bucket_chunk": "64",
            "seed": "0", "lr": "0.00015", "steps": "2000",
            "duration": "1.0",
        }
        assert TOY_DEFAULTS == dict(
            PAPER_DEFAULTS, filters="32", chunk="50", repeats="1",
            intra_layers="1", inter_layers="1", heads="4", ffw="64",
            lr="0.001", duration="0.25")

    def test_settable_values_are_pinned(self):
        assert [f.name for f in fields(SepformerConfig)] == [
            "n_filters", "kernel_size", "stride", "chunk_size", "n_repeats",
            "intra_layers", "inter_layers", "ffw_dim", "n_sources",
            "sample_rate", "intra_attention", "inter_attention"]
        assert [f.name for f in fields(AttentionSpec)] == [
            "variant", "heads", "d_model", "window", "global_stride",
            "proj_len", "max_len", "n_buckets", "n_rounds", "bucket_chunk"]
        assert len(PAPER_DEFAULTS) == 24

    def test_every_key_sets_one_field_and_every_field_has_one_key(self):
        from sepformer.cli import _FIELD_KEYS, _FIELDS, _RUN_KEYS
        targets = list(_FIELD_KEYS.values())
        assert set(targets) <= set(_FIELDS)
        assert len(set(targets)) == len(targets)
        assert set(PAPER_DEFAULTS) == set(_FIELD_KEYS) | set(_RUN_KEYS) \
            | {"inter_attention"}
        # the spec fields are set through their prefixes' keys, and the
        # width of both specs is the one field derived from another key
        values = {name for name, f in _FIELDS.items() if not f.metadata}
        assert values - set(targets) == {"spec.d_model"}
        cfg, _ = build_run_config(dict(PAPER_DEFAULTS, filters="16",
                                       heads="2"))
        assert cfg.intra_attention.d_model == cfg.inter_attention.d_model \
            == 16
        assert cfg.intra_attention.heads == cfg.inter_attention.heads == 2

    def test_paper_defaults_build_the_default_config(self):
        cfg, run = build_run_config(dict(PAPER_DEFAULTS))
        assert cfg == SepformerConfig()
        assert run == {"seed": 0, "lr": 0.00015, "steps": 2000,
                       "duration": 1.0}

    @pytest.mark.parametrize("key", sorted(PAPER_DEFAULTS))
    def test_non_numeric_value_exits_one_naming_key(self, tmp_path, capsys,
                                                    key):
        cfg = tiny_cfg_file(tmp_path, **{key: "x"})
        assert main(["train-toy", "--config", cfg,
                     "--out", str(tmp_path / "x.ckpt")]) == 1
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("stride", "0"), ("kernel", "0"), ("ffw", "0"), ("repeats", "0"),
        ("duration", "0"), ("sample_rate", "-8000"), ("seed", "-1"),
        ("heads", "3"), ("chunk", "5"), ("window", "4"), ("lr", "inf")])
    def test_out_of_range_value_exits_one_naming_key(self, tmp_path, capsys,
                                                     key, value):
        cfg = tiny_cfg_file(tmp_path, **{key: value})
        assert main(["train-toy", "--config", cfg,
                     "--out", str(tmp_path / "x.ckpt")]) == 1
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--steps", "-5"), ("--lr", "-1"), ("--lr", "nan"),
        ("--seed", "-1"), ("--duration", "0")])
    def test_out_of_range_flag_exits_one_naming_key(self, tmp_path, capsys,
                                                    flag, value):
        assert main(["train-toy", "--config", tiny_cfg_file(tmp_path),
                     flag, value, "--out", str(tmp_path / "x.ckpt")]) == 1
        assert repr(flag[2:]) in capsys.readouterr().err
        assert not (tmp_path / "x.ckpt").exists()


    @pytest.mark.parametrize("duration", ["0.001", "0.002"])
    def test_duration_shorter_than_kernel_exits_one_naming_both(
            self, tmp_path, capsys, duration):
        # 0.002 s is 16 samples, one kernel, until speed perturbation
        # shortens the mixture to 15 for some seeds
        for seed in ("1", "4"):
            assert main(["train-toy", "--config", str(SHIPPED_TOY_CFG), "--steps", "1",
                         "--seed", seed, "--duration", duration,
                         "--out", str(tmp_path / "x.ckpt")]) == 1
            err = capsys.readouterr().err
            assert "'duration'" in err and "'kernel'" in err
        assert not (tmp_path / "x.ckpt").exists()

    def test_shortest_accepted_duration_trains(self, tmp_path):
        # 17 samples stay >= 16 after the fastest speed factor
        for seed in ("1", "4"):
            assert main(["train-toy", "--config", str(SHIPPED_TOY_CFG), "--steps", "1",
                         "--seed", seed, "--duration", "0.002125",
                         "--out", str(tmp_path / "x.ckpt")]) == 0


def rewrite_config(path, edit):
    """Apply ``edit`` to a checkpoint's config text, fixing its length."""
    raw = path.read_bytes()
    n = int.from_bytes(raw[8:12], "little")
    text = edit(raw[12:12 + n].decode("utf-8")).encode("utf-8")
    path.write_bytes(raw[:8] + len(text).to_bytes(4, "little") + text
                     + raw[12 + n:])


@pytest.mark.parametrize("edit,key", [
    (lambda t: t.replace("stride=2\n", ""), "stride"),
    (lambda t: t + "bogus=1\n", "bogus"),
    (lambda t: t.replace("\nseed=1", "\nseed=one"), "seed"),
    (lambda t: t.replace("inter.window=101", "inter.window=x"),
     "inter.window"),
    (lambda t: t.replace("chunk_size=6", "chunk_size=x"), "chunk_size"),
    (lambda t: t.replace("stride=2", "stride=0"), "stride"),
    (lambda t: t.replace("intra.n_buckets=16", "intra.n_buckets=3"),
     "intra.n_buckets"),
    (lambda t: t.replace("intra.d_model=8", "intra.d_model=4"),
     "intra.d_model"),
    (lambda t: t.replace("inter.d_model=8", "inter.d_model=4"),
     "inter.d_model"),
    (lambda t: t.replace("stride=2\n", "stride=2\nstride=3\n"),
     "stride is repeated"),
    (lambda t: t + "seed=2\n", "seed is repeated"),
    (lambda t: t.replace("kernel_size=4\nstride=2\n",
                         "stride=2\nkernel_size=4\n"),
     "stride is out of order"),
    (lambda t: t.replace("stride=2\n", "stride=2\n\n"),
     "is not a config key"),
    (lambda t: t.replace("ffw_dim=", "n_heads=2\nffw_dim="),
     "n_heads is not a config key"),
    (lambda t: t.replace("inter.global_stride=100",
                         "inter.global_stride=0100"), "inter.global_stride"),
    (lambda t: t.replace("intra.global_stride=100",
                         "intra.global_stride=none"), "intra.global_stride"),
])
def test_bad_checkpoint_config_exits_one_naming_key(tmp_path, capsys, edit,
                                                    key):
    cfg = SepformerConfig(n_filters=8, kernel_size=4, stride=2, chunk_size=6,
                          n_repeats=1, intra_layers=1, inter_layers=1,
                          ffw_dim=16, intra_attention=AttentionSpec(
                              "full", heads=2, d_model=8))
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, Sepformer(cfg, seed=1))
    rewrite_config(ckpt, edit)
    with pytest.raises(CheckpointError, match=key):
        load_checkpoint(ckpt)
    wav = tmp_path / "mix.wav"
    wav_write(wav, Signal(np.zeros(100) + 0.1, 8000))
    assert main(["separate", "--model", str(ckpt), "--in", str(wav),
                 "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert key in err and str(ckpt) in err
    assert "Traceback" not in err
