import os
import re
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepformer import datagen
from sepformer.datagen import (MixSpec, Signal, WavFormatError, dynamic_mix,
                               speed_perturb, synth_sources, wav_read,
                               wav_write)
from sepformer.objectives import si_snr_db


def rms(x):
    return float(np.sqrt(np.mean(x * x)))


class TestWav:
    def test_round_trip_within_one_step(self, tmp_path, rng):
        x = rng.uniform(-1, 1, 500)
        x[:3] = [1.0, -1.0, 0.999999]      # include the extremes
        path = tmp_path / "x.wav"
        wav_write(path, Signal(x, 8000))
        back = wav_read(path)
        assert back.sample_rate == 8000
        assert np.abs(back.samples - x).max() <= 1.0 / 32768

    def test_one_second_file_layout(self, tmp_path):
        path = tmp_path / "s.wav"
        wav_write(path, Signal(np.zeros(8000), 8000))
        raw = path.read_bytes()
        assert len(raw) == 44 + 16000
        assert raw[:4] == b"RIFF" and raw[8:12] == b"WAVE"
        data_at = raw.find(b"data")
        size = int.from_bytes(raw[data_at + 4:data_at + 8], "little")
        assert size == 16000
        back = wav_read(path)
        assert len(back) == 8000

    def test_stereo_rejected_with_channel_count(self, tmp_path):
        import struct
        payload = np.zeros(64, dtype="<i2").tobytes()
        header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
        header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 2, 8000, 32000,
                                        4, 16)
        header += b"data" + struct.pack("<I", len(payload))
        path = tmp_path / "stereo.wav"
        path.write_bytes(header + payload)
        with pytest.raises(WavFormatError, match="channel count 2"):
            wav_read(path)

    def test_non_pcm_rejected_naming_format_tag(self, tmp_path):
        import struct
        header = b"RIFF" + struct.pack("<I", 36) + b"WAVE"
        header += b"fmt " + struct.pack("<IHHIIHH", 16, 3, 1, 8000, 16000,
                                        2, 16)
        header += b"data" + struct.pack("<I", 0)
        path = tmp_path / "f32.wav"
        path.write_bytes(header)
        with pytest.raises(WavFormatError, match="format tag 3"):
            wav_read(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"OGGS" + b"\x00" * 64)
        with pytest.raises(WavFormatError, match="RIFF"):
            wav_read(path)

    @staticmethod
    def write_with_data_size(path, n_bytes, data_size):
        # a canonical 44-byte header keeps the data chunk size at 40..44
        wav_write(path, Signal(np.full(100, 0.25), 8000))
        raw = path.read_bytes()[:44 + n_bytes]
        path.write_bytes(raw[:40] + data_size.to_bytes(4, "little")
                         + raw[44:])

    def test_odd_data_chunk_rejected_naming_size(self, tmp_path):
        path = tmp_path / "odd.wav"
        self.write_with_data_size(path, 199, 199)
        with pytest.raises(WavFormatError, match="data chunk size 199 "):
            wav_read(path)

    def test_data_chunk_beyond_file_rejected_naming_size(self, tmp_path):
        path = tmp_path / "short.wav"
        self.write_with_data_size(path, 200, 10 ** 6)
        with pytest.raises(WavFormatError,
                           match="data chunk size 1000000 exceeds the 200 "):
            wav_read(path)

    def test_zero_sample_rate_rejected_naming_field(self, tmp_path):
        path = tmp_path / "rate0.wav"
        wav_write(path, Signal(np.full(100, 0.25), 8000))
        raw = path.read_bytes()
        path.write_bytes(raw[:24] + bytes(4) + raw[28:])
        with pytest.raises(WavFormatError, match="sample rate field is 0 in "
                                                 + re.escape(str(path))):
            wav_read(path)

    def test_clipping_on_write(self, tmp_path):
        path = tmp_path / "c.wav"
        wav_write(path, Signal(np.array([2.0, -2.0]), 8000))
        back = wav_read(path)
        assert abs(back.samples[0] - 32767 / 32768) < 1e-12
        assert back.samples[1] == -1.0


def header_value(valid, bits):
    # boundary values around the valid one, or anything the field holds
    top = 2 ** bits - 1
    return (st.sampled_from([0, 1, max(valid - 1, 0), valid + 1, top])
            | st.integers(0, top))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_wav_header_loads_or_raises_wav_format_error(data):
    """A valid 16-bit mono WAV with up to three of its format tag,
    channels, rate, bits and chunk sizes mutated, and possibly cut short,
    either loads or raises WavFormatError, never anything else."""
    n = data.draw(st.integers(0, 40), label="samples")
    payload = np.arange(n, dtype="<i2").tobytes()
    field = {"riff_size": (36 + n * 2, 32), "fmt_size": (16, 32),
             "tag": (1, 16), "channels": (1, 16), "rate": (8000, 32),
             "bits": (16, 16), "data_size": (n * 2, 32)}
    value = {name: valid for name, (valid, _) in field.items()}
    for name in data.draw(st.sets(st.sampled_from(sorted(field)),
                                  max_size=3), label="mutated"):
        value[name] = data.draw(header_value(*field[name]), label=name)
    raw = (b"RIFF" + struct.pack("<I", value["riff_size"]) + b"WAVE"
           + b"fmt " + struct.pack("<IHHIIHH", value["fmt_size"],
                                   value["tag"], value["channels"],
                                   value["rate"], 2 * value["rate"] % 2 ** 32,
                                   2, value["bits"])
           + b"data" + struct.pack("<I", value["data_size"]) + payload)
    cut = data.draw(st.none() | st.integers(0, len(raw)), label="cut")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.wav")
        with open(path, "wb") as fh:
            fh.write(raw[:cut])
        try:
            signal = wav_read(path)
        except WavFormatError:
            return
    assert isinstance(signal, Signal) and signal.sample_rate > 0


class TestSpeedPerturb:
    def test_identity_factor(self, rng):
        x = Signal(rng.uniform(-1, 1, 1000), 8000)
        out = speed_perturb(x, 1.0)
        np.testing.assert_array_equal(out.samples, x.samples)

    def test_output_length(self, rng):
        x = Signal(rng.uniform(-1, 1, 8000), 8000)
        assert len(speed_perturb(x, 1.05)) == round(8000 / 1.05) == 7619
        assert len(speed_perturb(x, 0.95)) == round(8000 / 0.95) == 8421

    @pytest.mark.parametrize("factor,expected_hz", [(0.95, 95.0),
                                                    (1.05, 105.0)])
    def test_spectral_peak_scales_with_factor(self, factor, expected_hz):
        # plain resampling shifts a 100 Hz tone to 100 * factor
        t = np.arange(16000) / 8000.0
        x = Signal(np.sin(2 * np.pi * 100.0 * t), 8000)
        out = speed_perturb(x, factor)
        spectrum = np.abs(np.fft.rfft(out.samples * np.hanning(len(out))))
        peak_hz = np.argmax(spectrum) * 8000.0 / len(out)
        assert abs(peak_hz - expected_hz) < 0.5

    def test_out_of_range_factor_rejected(self, rng):
        x = Signal(rng.uniform(-1, 1, 100), 8000)
        with pytest.raises(ValueError):
            speed_perturb(x, 0.9)
        with pytest.raises(ValueError):
            speed_perturb(x, 1.2)


class TestDynamicMix:
    def _pool(self, n=6, duration=0.4, seed=3):
        return synth_sources("multi_sine", n, duration, seed)

    def test_single_source_mixture_equals_target(self):
        pool = self._pool()
        mixture, targets = dynamic_mix(pool, MixSpec(n_sources=1, seed=1))
        assert len(targets) == 1
        np.testing.assert_array_equal(mixture.samples, targets[0].samples)

    def test_zero_offset_levels_match_rms(self, monkeypatch):
        pool = self._pool()
        monkeypatch.setattr(datagen, "LEVEL_RANGE_DB", (0.0, 0.0))
        _, targets = dynamic_mix(pool, MixSpec(n_sources=2, seed=2))
        assert abs(rms(targets[0].samples) - rms(targets[1].samples)) < 1e-9

    def test_same_seed_identical(self):
        pool = self._pool()
        a, ta = dynamic_mix(pool, MixSpec(n_sources=2, seed=7))
        b, tb = dynamic_mix(pool, MixSpec(n_sources=2, seed=7))
        assert a.samples.tobytes() == b.samples.tobytes()
        for x, y in zip(ta, tb):
            assert x.samples.tobytes() == y.samples.tobytes()

    def test_targets_sum_to_mixture_exactly(self):
        pool = self._pool()
        mixture, targets = dynamic_mix(pool, MixSpec(n_sources=3, seed=9))
        total = sum(t.samples for t in targets)
        assert np.abs(mixture.samples - total).max() <= 1e-12

    def test_level_differences_uniform(self):
        # KS statistic of 1e4 drawn level offsets against U[0, 5]
        pool = synth_sources("multi_sine", 6, 0.05, 11)
        diffs = []
        for seed in range(10000):
            _, targets = dynamic_mix(pool, MixSpec(n_sources=2, seed=seed))
            diffs.append(20 * np.log10(rms(targets[0].samples)
                                       / rms(targets[1].samples)))
        diffs = np.sort(diffs)
        assert diffs.min() >= 0.0 and diffs.max() <= 5.0
        empirical = np.arange(1, len(diffs) + 1) / len(diffs)
        ks = np.abs(empirical - diffs / 5.0).max()
        assert ks < 0.02

    def test_pool_too_small_rejected(self):
        with pytest.raises(ValueError, match="pool"):
            dynamic_mix(self._pool(n=1), MixSpec(n_sources=2, seed=0))

    def test_rate_mismatch_rejected(self):
        pool = self._pool(n=2)
        pool.append(Signal(np.ones(100), 16000))
        with pytest.raises(ValueError, match="rates"):
            dynamic_mix(pool, MixSpec(n_sources=3, seed=0))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MixSpec(n_sources=4)


class TestSynthSources:
    def test_duration_in_samples(self):
        pool = synth_sources("chirp", 2, 1.0, 0)
        assert all(len(s) == 8000 for s in pool)

    def test_same_seed_identical_pools(self):
        a = synth_sources("filtered_noise", 3, 0.2, 5)
        b = synth_sources("filtered_noise", 3, 0.2, 5)
        for x, y in zip(a, b):
            assert x.samples.tobytes() == y.samples.tobytes()

    @pytest.mark.parametrize("kind", ["multi_sine", "filtered_noise",
                                      "chirp"])
    def test_pairwise_decorrelation(self, kind):
        pool = synth_sources(kind, 4, 1.0, 21)
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                a, b = pool[i].samples, pool[j].samples
                corr = np.fft.irfft(np.fft.rfft(a, 2 * len(a))
                                    * np.conj(np.fft.rfft(b, 2 * len(a))))
                peak = np.abs(corr).max() / (np.linalg.norm(a)
                                             * np.linalg.norm(b))
                assert peak < 0.3

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            synth_sources("violin", 1, 0.1, 0)

    def test_two_tone_energy_ratio_closed_form(self):
        # orthogonal tones at exact bin frequencies: projecting the mixture
        # onto one tone leaves exactly the other tone as residual
        n, fs = 8000, 8000
        t = np.arange(n) / fs
        s1 = np.sin(2 * np.pi * 440.0 * t)   # integer bins: orthogonal
        s2 = 0.5 * np.sin(2 * np.pi * 880.0 * t)
        expected = 10 * np.log10((s1 @ s1) / (s2 @ s2))
        mix_vs_s1 = si_snr_db(s1 + s2, s1)
        assert abs(mix_vs_s1 - expected) < 0.05

