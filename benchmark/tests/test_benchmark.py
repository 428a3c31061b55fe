"""Tests of the benchmark itself, at tiny sizes (the command's sizes are fixed)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from benchmark import inputs, run, runner
from benchmark.calibration import normalize
from benchmark.tracing import SpanRecorder, resolve_layers
from benchmark.workloads import WORKLOADS

TINY = {
    "serve-zipf": {"keys": 2048, "calls": 12, "requests": 32},
    "bulk-point": {"keys": 4096, "calls": 8, "batch": 128},
    "range-scan": {"keys": 4096, "calls": 8, "ranges": 16, "width": 8},
    "mixed-update": {
        "keys": 4096, "rounds": 6, "requests": 32, "inserts": 32, "deletes": 16,
        "window": 64, "span": 512,
    },
}

SIMULATED = ("sim_latency_ms", "sim_ops_per_s", "tput_per_byte", "bytes_per_key")


def tiny_run(name, seed=3, **kwargs):
    return runner.run_workload(name, seed, 10, sizes=TINY[name], **kwargs)


def test_benchmark_json_matches_the_code():
    with open(run.ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    assert [entry["name"] for entry in spec["workloads"]] == list(WORKLOADS)
    for section, metrics in (("end_to_end", runner.END_TO_END), ("per_layer", runner.PER_LAYER)):
        assert [(entry["name"], entry["unit"]) for entry in spec[section]] == list(metrics)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_answers_everything_correctly(name):
    result = tiny_run(name)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0
    assert result["extras"]["failed_frac"] == 0.0
    assert result["attempted"] > 0
    assert set(result["metrics"]) == {metric for metric, _ in runner.END_TO_END}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("name", ["serve-zipf", "mixed-update"])
def test_same_seed_repeats_simulated_metrics_and_counts(name):
    first, second = tiny_run(name), tiny_run(name)
    for metric in SIMULATED:
        assert first["metrics"][metric] == second["metrics"][metric]
    assert first["attempted"] == second["attempted"]
    assert first["digest"] == second["digest"]


def test_different_seed_gives_different_inputs():
    for name, cls in WORKLOADS.items():
        one, two = cls(1, sizes=TINY[name]), cls(2, sizes=TINY[name])
        assert not np.array_equal(one.build_keys, two.build_keys), name
        same = cls(1, sizes=TINY[name])
        assert np.array_equal(one.build_keys, same.build_keys), name


def test_ranges_match_exactly_their_width():
    rng = np.random.default_rng(4)
    keys = inputs.unique_keys(rng, 1000)
    lows, highs = inputs.fixed_width_ranges(rng, keys, 200, 16)
    matched = np.searchsorted(keys, highs, "right") - np.searchsorted(keys, lows, "left")
    assert (matched == 16).all()


def test_constant_slowdown_cancels_in_normalization():
    rng = np.random.default_rng(0)
    raw = rng.uniform(0.01, 0.03, size=40)
    calib = rng.uniform(0.0006, 0.0009, size=41)
    base = normalize(raw, calib)
    assert np.array_equal(normalize(raw * 2.0, calib * 2.0), base)
    assert np.array_equal(normalize(raw * 0.5, calib * 0.5), base)
    assert np.allclose(normalize(raw * 1.7, calib * 1.7), base, rtol=1e-12, atol=0)


def test_normalization_uses_the_calibrations_around_each_call():
    normalized = normalize([1.0, 1.0, 3.0], [1.0, 3.0, 1.0, 2.0], reference_s=2.0)
    assert np.array_equal(normalized, [1.0, 1.0, 4.0])
    with pytest.raises(ValueError):
        normalize([1.0, 1.0], [1.0, 1.0])


def test_corrupted_answer_fails_the_run(monkeypatch):
    from repro import CgRXIndex

    original = CgRXIndex.point_lookup_batch
    calls = []

    def corrupting(self, keys):
        result = original(self, keys)
        calls.append(1)
        if len(calls) == runner.SETUP_BUILDS + 2:  # the second timed call
            result.row_ids[0] += 1
        return result

    monkeypatch.setattr(CgRXIndex, "point_lookup_batch", corrupting)
    result = tiny_run("bulk-point")
    assert result["failed"] == 1
    assert result["extras"]["failed_frac"] > 0
    assert not result["correct"]

    monkeypatch.setattr(runner, "run_workload", lambda *args, **kwargs: result)
    assert run.main(["--workload", "bulk-point"]) != 0


@pytest.mark.parametrize("name", ["serve-zipf", "range-scan", "mixed-update"])
def test_traced_run_restores_methods_and_repeats_answers(name, tmp_path):
    found, missing = resolve_layers()
    assert not missing
    originals = [(cls, method, cls.__dict__[method]) for _, cls, method in found]

    traced = tiny_run(name, trace=True, trace_dir=str(tmp_path))
    plain = tiny_run(name)

    for cls, method, original in originals:
        assert cls.__dict__[method] is original, f"{cls.__name__}.{method}"
    assert traced["correct"], traced["problems"]
    assert traced["digest"] == plain["digest"]
    assert set(traced["metrics"]) == {metric for metric, _ in runner.PER_LAYER}
    with open(tmp_path / f"trace-{name}.json") as handle:
        events = json.load(handle)["traceEvents"]
    assert events and all(event["dur"] >= 0 for event in events)


def test_self_times_are_never_negative():
    workload = WORKLOADS["mixed-update"](5, sizes=TINY["mixed-update"])
    recorder = SpanRecorder()
    runner.measure(workload, 1, recorder)
    self_ns = recorder.self_times_ns()
    assert self_ns.size > 0
    assert (self_ns >= 0).all()
    methods = recorder.by_method()
    assert methods["ShardedIndex.serve_stream"]["spans"] == TINY["mixed-update"]["rounds"]
    assert methods["ShardRouter.update_batch"]["spans"] == TINY["mixed-update"]["rounds"]
