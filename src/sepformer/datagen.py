"""Synthetic audio sources, dynamic mixing, and WAV PCM16 mono I/O.

Training data is created on the fly: draw distinct sources from a pool,
resample each by a speed factor uniform on ``SPEED_RANGE``, truncate to
the shortest, apply gains so the level offsets between sources are
uniform on ``LEVEL_RANGE_DB``, and sum. The targets are the gained,
truncated sources, so they add up to the mixture exactly. All randomness
flows from the MixSpec seed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Signal", "MixSpec", "WavFormatError", "wav_read", "wav_write",
    "speed_perturb", "dynamic_mix", "synth_sources", "SOURCE_KINDS",
    "SPEED_RANGE", "LEVEL_RANGE_DB",
]

SOURCE_KINDS = ("multi_sine", "filtered_noise", "chirp")
# dynamic mixing draws each source's speed factor, and each level offset
# from the first source in dB, uniformly from these bounds
SPEED_RANGE = (0.95, 1.05)
LEVEL_RANGE_DB = (0.0, 5.0)


class WavFormatError(ValueError):
    """Unsupported or malformed WAV file; names the offending field."""


@dataclass
class Signal:
    """Mono waveform: float64 samples nominally in [-1, 1] plus a rate."""

    samples: np.ndarray
    sample_rate: int = 8000

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("signal must be 1-d, got %r"
                             % (self.samples.shape,))
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    def __len__(self):
        return self.samples.shape[0]


@dataclass
class MixSpec:
    """How to draw one mixture: source count and seed."""

    n_sources: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.n_sources not in (1, 2, 3):
            raise ValueError("n_sources must be 1, 2 or 3")


# ---------------------------------------------------------------------------
# WAV PCM16 mono

def wav_read(path):
    """Read a RIFF/WAVE file; only mono 16-bit PCM is accepted.

    Samples map to float by division with 32768.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12 or raw[:4] != b"RIFF":
        raise WavFormatError("missing RIFF magic in %s" % path)
    if raw[8:12] != b"WAVE":
        raise WavFormatError("RIFF form type %r is not WAVE" % raw[8:12])
    fmt = None
    data = None
    offset = 12
    while offset + 8 <= len(raw):
        cid = raw[offset:offset + 4]
        (size,) = struct.unpack_from("<I", raw, offset + 4)
        body = raw[offset + 8:offset + 8 + size]
        if cid == b"fmt ":
            fmt = body
        elif cid == b"data":
            data, data_size = body, size
        offset += 8 + size + (size & 1)
    if fmt is None or len(fmt) < 16:
        raise WavFormatError("missing fmt chunk")
    if data is None:
        raise WavFormatError("missing data chunk")
    audio_format, channels, rate, _, _, bits = struct.unpack_from(
        "<HHIIHH", fmt)
    if audio_format != 1:
        raise WavFormatError("audio format tag %d (PCM required)"
                             % audio_format)
    if channels != 1:
        raise WavFormatError("channel count %d (mono required)" % channels)
    if bits != 16:
        raise WavFormatError("bit depth %d (16-bit required)" % bits)
    if rate == 0:
        raise WavFormatError("sample rate field is 0 in %s" % path)
    if data_size > len(data):
        raise WavFormatError("data chunk size %d exceeds the %d bytes left "
                             "in %s" % (data_size, len(data), path))
    if data_size % 2:
        raise WavFormatError("data chunk size %d is not a whole number of "
                             "16-bit samples" % data_size)
    ints = np.frombuffer(data, dtype="<i2")
    return Signal(ints.astype(np.float64) / 32768.0, rate)


def wav_write(path, signal):
    """Write mono 16-bit PCM; samples are clamped to [-1, 1] first.

    Quantization is round(x * 32768) clipped to the int16 range, keeping
    the write/read round trip within one 16-bit step per sample.
    """
    clamped = np.clip(signal.samples, -1.0, 1.0)
    ints = np.clip(np.round(clamped * 32768.0), -32768, 32767).astype("<i2")
    payload = ints.tobytes()
    rate = signal.sample_rate
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, rate, rate * 2,
                                    2, 16)
    header += b"data" + struct.pack("<I", len(payload))
    with open(path, "wb") as fh:
        fh.write(header + payload)


# ---------------------------------------------------------------------------
# augmentation

def speed_perturb(signal, factor):
    """Resample by a speed factor in ``SPEED_RANGE``.

    Output length is round(T / factor); linear interpolation at input
    positions n * factor, so pitch scales with the factor (plain
    resampling, not a time stretch). factor == 1 returns an exact copy.
    """
    lo, hi = SPEED_RANGE
    if not (lo - 1e-12 <= factor <= hi + 1e-12):
        raise ValueError("speed factor %g outside [%g, %g]"
                         % (factor, lo, hi))
    x = signal.samples
    t = len(x)
    if factor == 1.0:
        return Signal(x.copy(), signal.sample_rate)
    out_len = int(round(t / factor))
    pos = np.minimum(np.arange(out_len) * factor, t - 1)
    return Signal(np.interp(pos, np.arange(t), x), signal.sample_rate)


def _rms(x):
    return float(np.sqrt(np.mean(x * x)))


def dynamic_mix(pool, spec):
    """Draw, perturb, gain and sum sources into one training item.

    Returns (mixture, targets); the targets sum to the mixture exactly.
    """
    if len(pool) < spec.n_sources:
        raise ValueError("pool holds %d sources, need %d"
                         % (len(pool), spec.n_sources))
    rates = {s.sample_rate for s in pool}
    if len(rates) != 1:
        raise ValueError("sample rates differ across sources: %s"
                         % sorted(rates))
    rate = rates.pop()

    rng = np.random.default_rng(spec.seed)
    idx = rng.choice(len(pool), size=spec.n_sources, replace=False)
    factors = rng.uniform(SPEED_RANGE[0], SPEED_RANGE[1],
                          size=spec.n_sources)
    offsets = rng.uniform(LEVEL_RANGE_DB[0], LEVEL_RANGE_DB[1],
                          size=spec.n_sources)
    offsets[0] = 0.0   # first source is the 0 dB reference

    perturbed = [speed_perturb(pool[i], f).samples
                 for i, f in zip(idx, factors)]
    n = min(len(p) for p in perturbed)
    perturbed = [p[:n] for p in perturbed]

    ref_rms = _rms(perturbed[0])
    if ref_rms == 0.0:
        raise ValueError("drawn reference source has zero energy")
    targets = []
    for k, p in enumerate(perturbed):
        r = _rms(p)
        if r == 0.0:
            raise ValueError("drawn source %d has zero energy" % k)
        gain = (ref_rms / r) * 10.0 ** (-offsets[k] / 20.0)
        targets.append(Signal(gain * p, rate))
    mixture = np.zeros(n)
    for t in targets:
        mixture = mixture + t.samples
    return Signal(mixture, rate), targets


# ---------------------------------------------------------------------------
# synthetic pools

def _normalize(x, peak=0.9):
    top = np.abs(x).max()
    return x * (peak / top) if top > 0 else x


def _multi_sine(rng, n, rate):
    t = np.arange(n) / rate
    x = np.zeros(n)
    for _ in range(int(rng.integers(4, 9))):
        freq = rng.uniform(100.0, 3500.0)
        amp = rng.uniform(0.5, 1.0)
        phase = rng.uniform(0.0, 2 * np.pi)
        x += amp * np.sin(2 * np.pi * freq * t + phase)
    return _normalize(x)


def _filtered_noise(rng, n, rate):
    white = rng.standard_normal(n)
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, 1.0 / rate)
    lo = rng.uniform(100.0, 1500.0)
    hi = lo + rng.uniform(200.0, 1500.0)
    spectrum[(freqs < lo) | (freqs > hi)] = 0.0
    return _normalize(np.fft.irfft(spectrum, n))


def _chirp(rng, n, rate):
    f0 = rng.uniform(100.0, 1000.0)
    f1 = rng.uniform(1000.0, 3500.0)
    inst = np.linspace(f0, f1, n)
    phase = 2 * np.pi * np.cumsum(inst) / rate
    return _normalize(np.sin(phase))


_GENERATORS = {"multi_sine": _multi_sine, "filtered_noise": _filtered_noise,
               "chirp": _chirp}


def synth_sources(kind, count, duration, seed, sample_rate=8000):
    """Deterministic pool of single-source signals of one kind.

    Distinct seeds give pairwise decorrelated signals (cross-correlation
    peak well under 0.3 for the shipped kinds).
    """
    if kind not in _GENERATORS:
        raise ValueError("unknown source kind %r (choose from %s)"
                         % (kind, ", ".join(SOURCE_KINDS)))
    n = int(round(duration * sample_rate))
    pool = []
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        pool.append(Signal(_GENERATORS[kind](rng, n, sample_rate),
                           sample_rate))
    return pool
