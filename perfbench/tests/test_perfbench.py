"""Self-tests of the benchmark: the tail rule, self-time arithmetic, the
tracer's clean-up, and a tiny-configuration smoke run of each workload.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
for path in (os.path.join(ROOT, "src"), BENCH_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)

import pytest  # noqa: E402

import bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sepformer import dualpath, model, ndkernel, objectives, \
    transformer  # noqa: E402

# Shrinks a workload to a few milliseconds per operation.
TINY = (("filters", "16"), ("heads", "2"), ("ffw", "32"), ("repeats", "1"),
        ("intra_layers", "1"), ("inter_layers", "1"))


def tiny(name):
    wl = workloads.WORKLOADS[name]
    chunk = dict(wl.overrides).get("chunk", "8")
    overrides = TINY + wl.overrides + (("chunk", chunk),)
    if wl.kind == "train":
        return replace(wl, overrides=overrides + (("duration", "0.05"),),
                       episode_steps=3)
    return replace(wl, overrides=overrides, audio_s=0.05)


# ---------------------------------------------------------------------------
# tail percentile

def test_tail_needs_ten_samples_beyond():
    assert bench.tail_percentile(list(range(10))) is None
    assert bench.tail_percentile(list(range(99))) is None
    pct, value, beyond = bench.tail_percentile(list(range(100)))
    assert (pct, value, beyond) == (90.0, 89, 10)


def test_tail_takes_highest_percentile_supported():
    samples = list(range(1, 1001))[::-1]
    assert bench.tail_percentile(samples) == (99.0, 990, 10)
    assert bench.tail_percentile(list(range(200))) == (95.0, 189, 10)
    assert bench.tail_percentile(list(range(199)))[0] == 90.0
    assert bench.tail_percentile(list(range(10000)))[0] == 99.9


# ---------------------------------------------------------------------------
# spans

def test_self_time_subtracts_direct_children_only():
    spans = [["op", 0.0, 10.0, -1, 0, 0],
             ["a", 1.0, 4.0, 0, 0, 0],
             ["b", 2.0, 3.5, 1, 0, 0],
             ["c", 5.0, 9.0, 0, 0, 0]]
    assert tracing.self_times(spans) == [3.0, 1.5, 1.5, 4.0]


def test_spans_nest_and_reject_out_of_order_close():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)
    tracer.end(inner)
    tracer.end(outer)
    assert [s[tracing.PARENT] for s in tracer.spans] == [-1, 0]
    assert tracing.self_times(tracer.spans) == [2.0, 1.0]


def _wrapped_names():
    owners = [model.Sepformer, model, dualpath, transformer,
              ndkernel.Tape, objectives, ndkernel]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()
            if callable(v)}


def test_traced_run_restores_every_wrapped_name(tmp_path):
    wl = tiny("train_toy")
    workloads.record(wl, [0], ROOT, str(tmp_path))
    before = _wrapped_names()
    tracer = tracing.Tracer()
    with tracer:
        assert model.Sepformer.__dict__["separate"] is not \
            before[(id(model.Sepformer), "separate")]
        state = workloads.setup(wl, 0, ROOT, str(tmp_path))
        workloads.run_loop(state, 0.0, tracer)
    after = _wrapped_names()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_restore_on_failed_install(monkeypatch):
    before = _wrapped_names()
    monkeypatch.setattr(tracing, "OPS", tracing.OPS + ("no_such_op",))
    with pytest.raises(KeyError):
        with tracing.Tracer():
            pass
    assert all(_wrapped_names()[k] is v for k, v in before.items())


# ---------------------------------------------------------------------------
# smoke runs

def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_smoke_run(name, trace, tmp_path):
    wl = tiny(name)
    workloads.record(wl, [5], ROOT, str(tmp_path))
    result, record, lines = bench.run_workload(wl, 5, 0.0, trace,
                                               refs_dir=str(tmp_path))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [e["name"] for e in _spec()[kind]]
    assert json.loads(json.dumps(result)) == result
    assert record["env"]["blas"] and record["env"]["seed"] == 5
    if trace:
        layers = {k: v["value"] for k, v in result["metrics"].items()}
        assert layers["profiler.macs_match"] == 1.0
        assert layers["ndkernel.macs"] > 0
        if wl.name == "fwd_reformer_long":
            assert layers["dualpath.block_ms"] == 0
            assert layers["transformer.inter_calls"] == 0
        else:
            assert layers["transformer.inter_calls"] > 0
        if wl.kind == "train":
            assert layers["ndkernel.backward_ms"] > 0


def test_mismatch_counts_as_failed_operation(tmp_path):
    wl = tiny("fwd_full_c250")
    path = workloads.record(wl, [5], ROOT, str(tmp_path))
    with open(path, encoding="utf-8") as fh:
        refs = json.load(fh)
    refs["cases"]["5"]["sources"][1]["samples"][7] += 1e-3
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(refs, fh)
    result, record, _ = bench.run_workload(wl, 5, 0.0, 0,
                                           refs_dir=str(tmp_path))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    assert "sample differs" in record["errors"][0]


def test_stored_references_cover_every_case():
    for name in workloads.WORKLOADS:
        for case in range(workloads.N_CASES):
            assert workloads.load_reference(workloads.REFS_DIR, name, case)

