"""Measure one workload: set-up, the closed loop, the traced run, the
environment stamp and the report. ``run.py`` is the command-line entry.
"""

import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

from sepformer import count_macs

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# Set-up is repeated at least this often, and until this many seconds have
# gone, and reported as the median of the repeats.
SETUP_REPEATS = 5
SETUP_MIN_S = 2.0
# The highest of these percentiles with at least ten samples beyond it is
# the reported tail.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)


def tail_percentile(samples):
    """(percentile, value, samples beyond it) or None.

    The nearest-rank value of the highest percentile in
    ``TAIL_PERCENTILES`` that leaves at least ten samples beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = -(-round(pct * 10) * n // 1000)    # ceil(pct / 100 * n)
        if rank >= 1 and n - rank >= 10:
            return pct, ordered[rank - 1], n - rank
    return None


# ---------------------------------------------------------------------------
# environment stamp

def _blas_threads():
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def _source_digest(root):
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "sepformer",
                                              "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0")
            digest.update(fh.read())
    return digest.hexdigest()


def environment(seed, case):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(ROOT),
        "source_sha256": _source_digest(ROOT),
        "seed": seed,
        "case": case,
    }


# ---------------------------------------------------------------------------
# measuring

def measure_setup(wl, seed, refs_dir):
    """Repeat the set-up; returns the last state and, per repeat, the
    set-up, model build and input times."""
    totals, builds, inputs = [], [], []
    state = None
    t_start = time.perf_counter()
    while (len(totals) < SETUP_REPEATS
           or time.perf_counter() - t_start < SETUP_MIN_S):
        state = None                  # let the previous model go first
        t0 = time.perf_counter()
        state = workloads.setup(wl, seed, ROOT, refs_dir)
        totals.append(time.perf_counter() - t0)
        builds.append(state.build_s)
        inputs.append(state.inputs_s)
    return state, totals, builds, inputs


def end_to_end(m, setup_s):
    return {
        "setup_s": statistics.median(setup_s),
        "latency_ms_p50": statistics.median(m.latencies) * 1e3,
        "audio_s_per_s": m.audio_s / m.wall_s,
        "steps_per_s": m.attempted / m.wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def traced(state, seconds, builds, inputs):
    """Untraced then traced halves of the window; per-layer metrics."""
    plain = workloads.run_loop(state, seconds / 2.0)
    tracer = tracing.Tracer()
    with tracer:
        m = workloads.run_loop(state, seconds / 2.0, tracer)
    per_op = tracing.per_op_layers(tracer, m.op_ids)
    want = count_macs(state.cfg, state.mixture.shape[0])
    wrong = [v for v in per_op.pop("separate_macs") if v != want]
    layers = tracing.medians(per_op)
    if wrong:
        m.fail(len(wrong), "instrumented MACs %d differ from count_macs %d"
               % (wrong[0], want))
    layers.update({
        "model.build_ms": statistics.median(builds) * 1e3,
        "datagen.inputs_ms": statistics.median(inputs) * 1e3,
        "ndkernel.gemm_ceiling_gmac_per_s":
            tracing.gemm_ceiling(tracer.gemm_shapes),
        "profiler.macs_match": 0.0 if wrong else 1.0,
        "trace_overhead_frac": statistics.median(m.latencies)
        / statistics.median(plain.latencies) - 1.0,
    })
    return plain, m, layers, tracer


def metric_units(trace, spec_path=SPEC):
    """Name -> unit of the metrics a run reports, from BENCHMARK.json."""
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {e["name"]: e["unit"]
            for e in spec["per_layer" if trace else "end_to_end"]}


def run_workload(wl, seed, seconds, trace, refs_dir=workloads.REFS_DIR):
    """Measure one workload; returns (result, record, report lines).

    ``result`` is the object the last output line carries; ``record``
    adds the environment stamp, failures and, when traced, the spans.
    """
    env = environment(seed, seed % workloads.N_CASES)
    state, setup_s, builds, inputs = measure_setup(wl, seed, refs_dir)
    record = {"workload": wl.name, "trace": trace, "env": env}
    if trace:
        plain, m, values, tracer = traced(state, seconds, builds, inputs)
        attempted = plain.attempted + m.attempted
        failed = plain.failed + m.failed
        errors = plain.errors + m.errors
        t0 = tracer.spans[0][1]
        record["spans"] = [[s[0], s[1] - t0, s[2] - t0] + s[3:]
                           for s in tracer.spans]
    else:
        m = workloads.run_loop(state, seconds)
        attempted, failed, errors = m.attempted, m.failed, m.errors
        values = end_to_end(m, setup_s)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in metric_units(trace).items()}

    lines = ["env " + json.dumps(env, sort_keys=True),
             "workload %s seed %d case %d trace %d: %d operations, %d failed"
             % (wl.name, seed, state.case, trace, attempted, failed)]
    lines += ["failure: " + e.strip().replace("\n", "\n    ")
              for e in errors]
    lines += ["%-36s %14.6g %s" % (k, v["value"], v["unit"])
              for k, v in metrics.items()]
    lines.append("%-36s %14.6g (%d of %d)"
                 % ("fail_frac", failed / attempted, failed, attempted))
    if not trace:
        tail = tail_percentile(m.latencies)
        if tail is None:
            lines.append("%-36s %14s (%d samples; no percentile >= p90 "
                         "leaves 10 beyond)"
                         % ("latency_ms_tail", "n/a", len(m.latencies)))
        else:
            lines.append("%-36s %14.6g ms (p%g of %d samples, %d beyond)"
                         % ("latency_ms_tail", tail[1] * 1e3, tail[0],
                            len(m.latencies), tail[2]))
        if m.si_snri:
            lines.append("%-36s %14.6g dB (after %d steps)"
                         % ("train_si_snri_db",
                            statistics.median(m.si_snri), wl.episode_steps))

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record.update(result)
    record["errors"] = errors
    return result, record, lines


def main(workload, seed, seconds, trace):
    if workload not in workloads.WORKLOADS:
        print("error: unknown workload %r (choose from %s)"
              % (workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    result, record, lines = run_workload(workloads.WORKLOADS[workload],
                                         seed, seconds, trace)
    for line in lines:
        print(line)
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json"
                       % (workload, seed, trace))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print("wrote " + os.path.relpath(out, ROOT))
    print(json.dumps(result))
    return 0
