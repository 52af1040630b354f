"""Command-line entry point tying the modules into runnable workflows.

Subcommands:

* ``separate``  -- run a trained checkpoint on a WAV file
* ``train-toy`` -- desk-scale training on a fixed synthetic mixture
* ``bench``     -- cost reports across attention variants / chunk settings
* ``gradcheck`` -- finite-difference audit of the gradient machinery

Configuration is a flat key=value file (UTF-8, ``#`` comments); precedence
is flag > file > built-in defaults. Each key sets a field of
``SepformerConfig`` or ``AttentionSpec`` (whose defaults are the built-in
ones) or a run option, and every key is range-checked: a bad value exits 1
with a message naming the key. The attention keys, ``heads`` among them,
set the intra and the inter spec alike. Checkpoints store the config as
one ``key=value`` line per dataclass field. Exit codes: 0 success, 1 usage
or configuration error, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields

from .attention import VARIANTS, AttentionSpec, FieldError
from .datagen import SPEED_RANGE, MixSpec, Signal, dynamic_mix, \
    synth_sources, wav_read, wav_write
from .gradcheck import TOLERANCE, run_suite
from .model import Sepformer, SepformerConfig, load_checkpoint, \
    parse_field, save_checkpoint
from .objectives import TrainingDivergedError, has_energy, pit_loss, \
    si_snr_improvement, train_toy, write_trace
from .profiler import bench_baseline, bench_forward, render_csv, \
    render_json, render_markdown

__all__ = ["main", "ConfigError", "parse_config_file", "build_run_config",
           "TOY_DEFAULTS", "PAPER_DEFAULTS"]


class ConfigError(ValueError):
    """Bad configuration file or flag combination."""


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError("%s: %s" % (self.prog, message))


# Each config key that sets a dataclass field -> that field. "spec." fields
# go to the intra attention spec and to the inter one, which copies the
# intra spec (inter_attention=same) or is full attention with its heads
# (inter_attention=full); the specs' d_model is derived from filters.
# Defaults are the dataclass defaults.
_FIELD_KEYS = {
    "filters": "n_filters", "kernel": "kernel_size", "stride": "stride",
    "chunk": "chunk_size", "repeats": "n_repeats",
    "intra_layers": "intra_layers", "inter_layers": "inter_layers",
    "heads": "spec.heads", "ffw": "ffw_dim", "sources": "n_sources",
    "sample_rate": "sample_rate", "attention": "spec.variant",
    "window": "spec.window", "global_stride": "spec.global_stride",
    "proj_len": "spec.proj_len", "max_len": "spec.max_len",
    "n_buckets": "spec.n_buckets", "n_rounds": "spec.n_rounds",
    "bucket_chunk": "spec.bucket_chunk",
}
# Run options: key -> (type, default). Integers must be >= 0, numbers
# positive and finite.
_RUN_KEYS = {"seed": (int, "0"), "lr": (float, "0.00015"),
             "steps": (int, "2000"), "duration": (float, "1.0")}

_FIELDS = {**{f.name: f for f in fields(SepformerConfig)},
           **{"spec." + f.name: f for f in fields(AttentionSpec)}}
# field name -> config key; config and spec field names are disjoint
_KEY_OF = {target.rpartition(".")[2]: key
           for key, target in _FIELD_KEYS.items()}
_KEY_OF.update(d_model="filters")

# Built-in full-size defaults; the shipped toy.cfg mirrors TOY_DEFAULTS.
PAPER_DEFAULTS = {key: str(_FIELDS[target].default)
                  for key, target in _FIELD_KEYS.items()}
PAPER_DEFAULTS["inter_attention"] = "same"
PAPER_DEFAULTS.update((key, default) for key, (_, default)
                      in _RUN_KEYS.items())

TOY_DEFAULTS = dict(PAPER_DEFAULTS)
TOY_DEFAULTS.update({
    "filters": "32", "chunk": "50", "repeats": "1", "intra_layers": "1",
    "inter_layers": "1", "heads": "4", "ffw": "64",
    "lr": "0.001", "duration": "0.25",
})

_KNOWN_KEYS = frozenset(PAPER_DEFAULTS)


def parse_config_file(path):
    """Flat key=value lines of UTF-8; blank lines and # comments allowed.
    A key given twice is an error naming both lines."""
    values = {}
    lines = {}
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh.read().splitlines(), start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                raise ConfigError("%s:%d: not UTF-8" % (path, lineno)) \
                    from None
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or not key:
                raise ConfigError("%s:%d: expected key=value, got %r"
                                  % (path, lineno, line))
            if key not in _KNOWN_KEYS:
                raise ConfigError("%s:%d: unknown config key %r"
                                  % (path, lineno, key))
            if key in lines:
                raise ConfigError("%s:%d: config key %r repeats line %d"
                                  % (path, lineno, key, lines[key]))
            values[key] = value
            lines[key] = lineno
    return values


def _run_options(values):
    run = {}
    for key, (kind, _) in _RUN_KEYS.items():
        try:
            value = kind(values[key])
        except ValueError:
            value = None
        if value is None or not (value >= 0 if kind is int
                                 else 0 < value < math.inf):
            raise ConfigError("key %r wants %s, got %r" % (
                key, "an integer >= 0" if kind is int
                else "a positive finite number", values[key]))
        run[key] = value
    return run


def build_run_config(values):
    """Merged key=value strings -> (SepformerConfig, run options dict)."""
    cfg_kwargs, spec_kwargs = {}, {}
    for key, target in _FIELD_KEYS.items():
        owner, _, name = target.rpartition(".")
        try:
            value = parse_field(_FIELDS[target], values[key])
        except FieldError as exc:
            raise ConfigError("key %r %s" % (key, exc.reason)) from None
        (spec_kwargs if owner else cfg_kwargs)[name] = value
    spec_kwargs["d_model"] = cfg_kwargs["n_filters"]
    inter_mode = values["inter_attention"]
    if inter_mode not in ("same", "full"):
        raise ConfigError("key 'inter_attention' must be 'same' or 'full', "
                          "got %r" % inter_mode)
    try:
        intra = AttentionSpec(**spec_kwargs)
        inter = intra if inter_mode == "same" else AttentionSpec(
            "full", heads=intra.heads, d_model=intra.d_model)
        cfg = SepformerConfig(**cfg_kwargs, intra_attention=intra,
                              inter_attention=inter)
    except FieldError as exc:
        raise ConfigError("key %r %s" % (_KEY_OF.get(exc.field, exc.field),
                                         exc.reason)) from None
    run = _run_options(values)
    # the toy mixture is `duration` long before speed perturbation shortens
    # it by up to the fastest factor; the encoder needs one whole kernel
    samples = int(round(run["duration"] * cfg.sample_rate))
    shortest = int(round(samples / SPEED_RANGE[1]))
    if shortest < cfg.kernel_size:
        raise ConfigError(
            "key 'duration' %r gives %d samples at %d Hz (%d after speed "
            "perturbation), fewer than key 'kernel' %d"
            % (values["duration"], samples, cfg.sample_rate, shortest,
               cfg.kernel_size))
    return cfg, run


def _merge(defaults, config_path, flag_values):
    values = dict(defaults)
    if config_path:
        values.update(parse_config_file(config_path))
    for key, val in flag_values.items():
        if val is not None:
            values[key] = str(val)
    return values


# ---------------------------------------------------------------------------
# subcommands

def _cmd_separate(args):
    if not os.path.exists(args.input):
        print("input file not found: %s" % args.input, file=sys.stderr)
        return 1
    model = load_checkpoint(args.model)
    if args.sources is not None and args.sources != model.cfg.n_sources:
        print("checkpoint separates %d sources, --sources asked for %d"
              % (model.cfg.n_sources, args.sources), file=sys.stderr)
        return 1
    signal = wav_read(args.input)
    if signal.sample_rate != model.cfg.sample_rate:
        print("sample rate mismatch: input %d Hz, model trained at %d Hz"
              % (signal.sample_rate, model.cfg.sample_rate), file=sys.stderr)
        return 1
    # the references are checked before the model runs, so a refused run
    # writes no estimates
    refs = []
    if args.ref:
        if len(args.ref) != model.cfg.n_sources:
            print("need %d --ref files, got %d"
                  % (model.cfg.n_sources, len(args.ref)), file=sys.stderr)
            return 1
        refs = [wav_read(p) for p in args.ref]
        for path, ref in zip(args.ref, refs):
            if ref.sample_rate != signal.sample_rate:
                print("sample rate mismatch: reference %s is %d Hz, input "
                      "%d Hz" % (path, ref.sample_rate, signal.sample_rate),
                      file=sys.stderr)
                return 1
        n = min(min(len(r) for r in refs), len(signal))
        for path, sig in [(args.input, signal)] + list(zip(args.ref, refs)):
            if not has_energy(sig.samples[:n]):
                print("%s has zero energy after mean removal in its first %d "
                      "samples" % (path, n), file=sys.stderr)
                return 1
    out = model.separate(signal.samples)
    os.makedirs(args.out_dir, exist_ok=True)
    for k, est in enumerate(out.estimates, start=1):
        path = os.path.join(args.out_dir, "source%d.wav" % k)
        wav_write(path, Signal(est.data, signal.sample_rate))
        print("wrote %s" % path)
    if refs:
        targets = [r.samples[:n] for r in refs]
        _, pit = pit_loss([e.data[:n] for e in out.estimates], targets)
        print("si_snr_db=%.4f si_snri_db=%.4f" % (
            pit.mean_db, si_snr_improvement(signal.samples[:n], targets,
                                            pit)))
    return 0


def _toy_item(cfg, run):
    pool = synth_sources("multi_sine", max(8, 2 * cfg.n_sources),
                         run["duration"], run["seed"],
                         sample_rate=cfg.sample_rate)
    mix_spec = MixSpec(n_sources=cfg.n_sources, seed=run["seed"])
    mixture, targets = dynamic_mix(pool, mix_spec)
    return mixture.samples, [t.samples for t in targets]


def _cmd_train_toy(args):
    values = _merge(TOY_DEFAULTS, args.config, {
        "steps": args.steps, "seed": args.seed, "lr": args.lr,
        "duration": args.duration,
    })
    cfg, run = build_run_config(values)
    model = Sepformer(cfg, seed=run["seed"])
    mixture, targets = _toy_item(cfg, run)
    rows = train_toy(model, lambda step: (mixture, targets), run["steps"],
                     lr=run["lr"])
    save_checkpoint(args.out, model)
    print("wrote %s" % args.out)
    if args.trace:
        write_trace(rows, args.trace)
        print("wrote %s" % args.trace)
    if rows:
        print("final_loss=%.4f si_snri_db=%.4f"
              % (rows[-1].loss, rows[-1].si_snri))
    return 0


_CHUNK_CHOICES = {"c250": 250, "c1000": 1000, "none": None}


def _cmd_bench(args):
    values = _merge(PAPER_DEFAULTS, args.config,
                    {"inter_attention": args.inter_attention})
    chunks = [str(_CHUNK_CHOICES[c]) for c in args.chunking or ()] \
        or [values["chunk"]]
    reports = []
    for variant in args.attention or [values["attention"]]:
        for chunk in chunks:
            cfg, run = build_run_config(dict(values, attention=variant,
                                             chunk=chunk))
            reports.extend(bench_forward(cfg, args.seconds,
                                         repeats=args.repeats,
                                         seed=run["seed"]))
    if args.with_baseline:
        reports.extend(bench_baseline(args.seconds, repeats=args.repeats))
    renderer = {"csv": render_csv, "md": render_markdown,
                "json": render_json}[args.emit]
    text = renderer(reports)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print("wrote %s" % args.out)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_gradcheck(args):
    results = run_suite(args.module)
    worst = 0.0
    for name, err in results:
        print("%-40s max_rel_err=%.3e" % (name, err))
        worst = max(worst, err)
    if worst >= TOLERANCE:
        print("FAILED: worst relative error %.3e >= %.0e"
              % (worst, TOLERANCE), file=sys.stderr)
        return 2
    print("all gradients within %.0e" % TOLERANCE)
    return 0


# ---------------------------------------------------------------------------

def _positive(kind):
    """argparse type for a positive finite ``kind``; a bad value is a
    usage error naming the flag."""
    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            value = 0
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError("wants %s, got %r" % (
                "an integer >= 1" if kind is int
                else "a positive finite number", text))
        return value
    return parse


def _build_parser():
    parser = _Parser(prog="sepformer", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("separate", help="separate a WAV with a checkpoint")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--sources", type=int)
    p.add_argument("--ref", action="append",
                   help="reference WAV per source; prints SI-SNRi")
    p.set_defaults(handler=_cmd_separate)

    p = sub.add_parser("train-toy", help="train on one synthetic mixture")
    p.add_argument("--config")
    p.add_argument("--steps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--duration", type=float)
    p.add_argument("--out", required=True)
    p.add_argument("--trace")
    p.set_defaults(handler=_cmd_train_toy)

    p = sub.add_parser("bench", help="profile MACs, speed and memory")
    # omitted --attention, --chunking and --inter-attention take the
    # config's attention, chunk and inter_attention
    p.add_argument("--attention", nargs="+", choices=VARIANTS)
    p.add_argument("--chunking", nargs="+", choices=sorted(_CHUNK_CHOICES))
    p.add_argument("--seconds", nargs="+", type=_positive(float),
                   default=[1, 2, 3, 4, 5])
    p.add_argument("--repeats", type=_positive(int), default=5)
    p.add_argument("--inter-attention", choices=["same", "full"])
    p.add_argument("--config")
    p.add_argument("--emit", default="csv", choices=["csv", "md", "json"])
    p.add_argument("--out")
    p.add_argument("--with-baseline", action="store_true")
    p.set_defaults(handler=_cmd_bench)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--module", default="all",
                   choices=["all", "ndkernel", "attention", "model"])
    p.set_defaults(handler=_cmd_gradcheck)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (OSError, ValueError, MemoryError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (TrainingDivergedError, FloatingPointError) as exc:
        print("numeric failure: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
