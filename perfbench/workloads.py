"""Workloads of the benchmark: configuration, seeded inputs, the timed
operation, and the check of its output against recorded references.

A run's ``--seed`` selects one of ``N_CASES`` recorded cases (seed modulo
``N_CASES``). The case index is both the model's weight seed and the input
seed, so the same seed always gives the same weights and mixture, and every
case has reference outputs under ``refs/`` to check against.

The package is driven only through its public names: ``Sepformer``,
``Sepformer.separate``, ``train_toy``, ``synth_sources``/``dynamic_mix``
and the CLI's config helpers.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from sepformer import MixSpec, Sepformer, dynamic_mix, synth_sources, \
    train_toy
from sepformer.cli import PAPER_DEFAULTS, TOY_DEFAULTS, build_run_config, \
    parse_config_file

N_CASES = 16
# Outputs may drift by re-associated float64 sums (about 1e-13 relative)
# but not by a mis-wired layer (order 1 relative): compare at 1e-6 of the
# output's own scale.
RTOL = 1e-6
N_PROBES = 4
N_SAMPLES = 64
PROBE_SEED = 20220206

HERE = os.path.dirname(os.path.abspath(__file__))
REFS_DIR = os.path.join(HERE, "refs")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a model configuration and its operation.

    ``kind`` is ``"forward"`` (one ``separate`` call per operation) or
    ``"train"`` (one ``train_toy`` step per operation, in episodes of
    ``episode_steps`` steps from freshly built weights).
    """

    name: str
    kind: str
    base: str                     # "paper" (PAPER_DEFAULTS) or "toy"
    overrides: tuple = ()         # (key, value) pairs over the base
    audio_s: float | None = None  # mixture length; None: config duration
    episode_steps: int = 50


WORKLOADS = {
    "fwd_full_c250": Workload("fwd_full_c250", "forward", "paper",
                              audio_s=1.0),
    "fwd_reformer_long": Workload(
        "fwd_reformer_long", "forward", "paper",
        overrides=(("attention", "reformer"), ("chunk", "none")),
        audio_s=4.0),
    "train_toy": Workload("train_toy", "train", "toy"),
}


def workload_config(wl, root):
    """(SepformerConfig, run options, mixture seconds) for a workload."""
    if wl.base == "toy":
        values = dict(TOY_DEFAULTS)
        values.update(parse_config_file(os.path.join(root, "toy.cfg")))
    else:
        values = dict(PAPER_DEFAULTS)
    values.update(dict(wl.overrides))
    cfg, run = build_run_config(values)
    audio_s = wl.audio_s if wl.audio_s is not None else run["duration"]
    return cfg, run, audio_s


def make_inputs(cfg, audio_s, case):
    """Seeded mixture of exactly ``audio_s`` seconds and its sources."""
    n = int(round(audio_s * cfg.sample_rate))
    # speed perturbation shortens a source by up to 1/1.05: draw longer
    pool = synth_sources("multi_sine", max(8, 2 * cfg.n_sources),
                         audio_s * 1.06, case, sample_rate=cfg.sample_rate)
    mixture, targets = dynamic_mix(pool, MixSpec(n_sources=cfg.n_sources,
                                                 seed=case))
    return mixture.samples[:n].copy(), [t.samples[:n].copy()
                                        for t in targets]


# ---------------------------------------------------------------------------
# references

def probe_matrix(n):
    """Fixed random directions; a dot with each covers every sample."""
    rng = np.random.default_rng(PROBE_SEED)
    return rng.standard_normal((N_PROBES, n)) / math.sqrt(n)


def summarize(estimate, probes):
    """Compact fingerprint of one estimate, as stored in ``refs/``."""
    n = estimate.shape[0]
    idx = np.linspace(0, n - 1, N_SAMPLES).round().astype(int)
    return {"n": int(n),
            "norm": float(np.linalg.norm(estimate)),
            "peak": float(np.abs(estimate).max()),
            "probes": [float(v) for v in probes @ estimate],
            "samples": [float(v) for v in estimate[idx]]}


def forward_mismatch(estimates, ref, probes):
    """None when the estimates match the reference, else a reason."""
    if len(estimates) != len(ref["sources"]):
        return "got %d estimates, reference has %d" % (
            len(estimates), len(ref["sources"]))
    for k, (est, want) in enumerate(zip(estimates, ref["sources"])):
        if est.shape != (want["n"],):
            return "source %d: shape %r, want (%d,)" % (k, est.shape,
                                                        want["n"])
        if not np.all(np.isfinite(est)):
            return "source %d: non-finite samples" % k
        got = summarize(est, probes)
        scale = RTOL * want["norm"]
        if abs(got["norm"] - want["norm"]) > scale:
            return "source %d: norm %r, want %r" % (k, got["norm"],
                                                    want["norm"])
        diff = np.abs(np.subtract(got["probes"], want["probes"])).max()
        if diff > scale:
            return "source %d: probe differs by %.3e" % (k, diff)
        diff = np.abs(np.subtract(got["samples"], want["samples"])).max()
        if diff > RTOL * want["peak"]:
            return "source %d: sample differs by %.3e" % (k, diff)
    return None


def loss_mismatch(losses, si_snri, ref):
    """None when an episode's trajectory matches the reference."""
    want = ref["losses"]
    if len(losses) != len(want):
        return "episode ran %d steps, reference has %d" % (len(losses),
                                                          len(want))
    for step, (got, exp) in enumerate(zip(losses, want)):
        if not math.isfinite(got) or abs(got - exp) > RTOL * max(1.0,
                                                                 abs(exp)):
            return "step %d: loss %r, want %r" % (step, got, exp)
    if not math.isfinite(si_snri) or abs(si_snri - ref["si_snri"]) \
            > RTOL * max(1.0, abs(ref["si_snri"])):
        return "final SI-SNRi %r, want %r" % (si_snri, ref["si_snri"])
    return None


def load_reference(refs_dir, name, case):
    path = os.path.join(refs_dir, name + ".json")
    with open(path, "r", encoding="utf-8") as fh:
        cases = json.load(fh)["cases"]
    if str(case) not in cases:
        raise KeyError("%s holds no reference for case %d" % (path, case))
    return cases[str(case)]


# ---------------------------------------------------------------------------
# set-up

@dataclass
class State:
    """Everything built before the first timed operation."""

    wl: Workload
    cfg: object
    run: dict
    audio_s: float
    case: int
    model: Sepformer
    mixture: np.ndarray
    targets: list
    ref: dict | None
    probes: np.ndarray | None
    build_s: float
    inputs_s: float


def setup(wl, seed, root, refs_dir=REFS_DIR, with_ref=True):
    """Build the model, the inputs and the reference for one case."""
    case = seed % N_CASES
    t0 = time.perf_counter()
    cfg, run, audio_s = workload_config(wl, root)
    model = Sepformer(cfg, seed=case)
    t1 = time.perf_counter()
    mixture, targets = make_inputs(cfg, audio_s, case)
    t2 = time.perf_counter()
    ref = probes = None
    if with_ref:
        ref = load_reference(refs_dir, wl.name, case)
        if wl.kind == "forward":
            probes = probe_matrix(mixture.shape[0])
    return State(wl, cfg, run, audio_s, case, model, mixture, targets, ref,
                 probes, t1 - t0, t2 - t1)


# ---------------------------------------------------------------------------
# measured loops

@dataclass
class Measurement:
    """Operations of one closed-loop measurement window."""

    latencies: list = field(default_factory=list)  # seconds per operation
    op_ids: list = field(default_factory=list)     # tracer ids, if traced
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    wall_s: float = 0.0
    audio_s: float = 0.0
    si_snri: list = field(default_factory=list)    # per training episode

    def fail(self, count, reason):
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(reason)


def separate_once(state):
    """The forward operation: one ``separate`` call, estimates as arrays."""
    out = state.model.separate(state.mixture)
    return [e.data for e in out.estimates]


def _time_left(elapsed, durations, seconds):
    """Whether another unit of work of the median past duration is
    expected to finish inside the window."""
    return elapsed + statistics.median(durations) <= seconds


def run_forward(state, seconds, tracer=None):
    """Closed loop of ``separate`` calls, one client.

    Runs at least one call, and another while one is expected to finish
    within ``seconds``.
    """
    m = Measurement()
    start = time.perf_counter()
    while True:
        op = tracer.begin_op() if tracer else None
        t0 = time.perf_counter()
        try:
            estimates, error = separate_once(state), None
        except Exception:  # a failed operation is counted, not fatal
            estimates, error = None, traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        if tracer:
            tracer.end_op()
        m.latencies.append(t1 - t0)
        m.op_ids.append(op)
        m.attempted += 1
        m.audio_s += state.audio_s
        if error is None and state.ref is not None:
            error = forward_mismatch(estimates, state.ref, state.probes)
        if error is not None:
            m.fail(1, error)
        m.wall_s = time.perf_counter() - start
        if not _time_left(m.wall_s, m.latencies, seconds):
            return m


def train_episode(state, data_fn):
    """Fresh weights from the case seed, then ``episode_steps`` steps."""
    model = Sepformer(state.cfg, seed=state.case)
    return train_toy(model, data_fn, state.wl.episode_steps,
                     lr=state.run["lr"])


def run_train(state, seconds, tracer=None):
    """Closed loop of training steps, in whole episodes.

    Steps are timed from outside: ``train_toy`` calls ``data_fn`` at the
    start of every step. Runs at least one episode, and another while one
    is expected to finish within ``seconds``.
    """
    m = Measurement()
    episodes = []
    start = time.perf_counter()
    while True:
        stamps = []

        def data_fn(step):
            if tracer and stamps:
                tracer.end_op()
            stamps.append(time.perf_counter())
            if tracer:
                m.op_ids.append(tracer.begin_op())
            return state.mixture, state.targets

        t0 = time.perf_counter()
        try:
            rows, error = train_episode(state, data_fn), None
        except Exception:  # a failed episode is counted, not fatal
            rows, error = None, traceback.format_exc(limit=3)
        end = time.perf_counter()
        if tracer and tracer.op_open():
            tracer.end_op()
        episodes.append(end - t0)
        steps = len(stamps)
        if steps:
            m.latencies.extend(np.diff(stamps + [end]).tolist())
        else:                         # failed before its first step
            steps = 1
            m.latencies.append(end - t0)
        m.attempted += steps
        m.audio_s += steps * state.audio_s
        if error is None:
            m.si_snri.append(rows[-1].si_snri)
            if state.ref is not None:
                error = loss_mismatch([r.loss for r in rows],
                                      rows[-1].si_snri, state.ref)
        if error is not None:
            m.fail(steps, error)
        m.wall_s = end - start
        if not _time_left(m.wall_s, episodes, seconds):
            return m


def run_loop(state, seconds, tracer=None):
    if state.wl.kind == "train":
        return run_train(state, seconds, tracer)
    return run_forward(state, seconds, tracer)


# ---------------------------------------------------------------------------
# reference recording

def record_case(wl, case, root):
    """Reference entry for one case, computed by the code under test."""
    state = setup(wl, case, root, with_ref=False)
    if wl.kind == "train":
        rows = train_episode(state, lambda step: (state.mixture,
                                                  state.targets))
        return {"losses": [r.loss for r in rows],
                "si_snri": rows[-1].si_snri}
    probes = probe_matrix(state.mixture.shape[0])
    return {"sources": [summarize(e, probes) for e in separate_once(state)]}


def record(wl, cases, root, refs_dir=REFS_DIR):
    """Write ``refs_dir/<workload>.json`` for the given case indices."""
    entries = {str(c): record_case(wl, c, root) for c in cases}
    os.makedirs(refs_dir, exist_ok=True)
    path = os.path.join(refs_dir, wl.name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": wl.name, "rtol": RTOL, "cases": entries}, fh,
                  indent=1)
        fh.write("\n")
    return path
