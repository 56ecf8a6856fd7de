"""Self-tests of the benchmark, on tiny traces.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

from perfbench import measure, run, spantrace
from perfbench.spantrace import LAYERS, SpanRecorder
from perfbench.workloads import WORKLOADS

SPEC = run.load_spec()
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def run_cli(tmp_path, workload, trace, seed=1):
    """Run the command in-process; returns (exit code, result, report)."""
    out = tmp_path / "out"
    code = run.main(
        [
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "0.2",
            "--trace", str(trace),
            "--size", "tiny",
            "--out", str(out),
        ]
    )
    report = json.loads(
        (out / f"{workload}-seed{seed}-trace{trace}.json").read_text()
    )
    return code, report["result"], report


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("runs")
    return {
        (name, trace): run_cli(tmp, name, trace)
        for name in WORKLOADS
        for trace in (0, 1)
    }


def test_spec_matches_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
    assert E2E["setup_s"] == "s"
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_predictions_cover_every_per_layer_metric():
    with open(run.ROOT / "perfbench" / "predictions.json") as src:
        predictions = json.load(src)
    assert list(predictions) == list(PER_LAYER)
    for name, entry in predictions.items():
        assert set(entry["moves"]) <= set(E2E), name
        assert set(entry["on"]) <= set(WORKLOADS), name
        assert set(entry["not_on"]) <= set(WORKLOADS), name
        assert not set(entry["on"]) & set(entry["not_on"]), name


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_unit(tiny_runs, workload, trace):
    code, result, _ = tiny_runs[workload, trace]
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = PER_LAYER if trace else E2E
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])


@pytest.mark.parametrize("workload", ["log-write", "read-home", "spin-energy"])
def test_end_to_end_metrics_never_zero(tiny_runs, workload):
    _, result, _ = tiny_runs[workload, 0]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def _layer(result, name):
    return result["metrics"][name]["value"]


def test_traced_run_confirms_workload_design(tiny_runs):
    traced = {name: tiny_runs[name, 1][1] for name in WORKLOADS}
    assert _layer(traced["log-write"], "logspace.calls") > 0
    for layer in ("logspace", "destage", "cache"):
        assert _layer(traced["read-home"], f"{layer}.calls") == 0
    for name, result in traced.items():
        has_cache = _layer(result, "cache.calls") > 0
        assert has_cache == (name == "spin-energy"), name
        has_pool = _layer(result, "parallel.inflight_peak") > 0
        assert has_pool == (name == "sweep-metered"), name
        assert (_layer(result, "shm.calls") > 0) == has_pool, name


def _traced_replay(name="spin-energy"):
    wl = WORKLOADS[name]
    gate = measure.Gate()
    recorder = SpanRecorder()
    with spantrace.install(recorder):
        traced = measure.replay_once(wl, 3, "tiny", gate, recorder=recorder)
    assert gate.correct
    return recorder, traced


def test_self_times_partition_the_replay_span(tmp_path):
    recorder, traced = _traced_replay()
    path = tmp_path / "spans.bin"
    recorder.write(str(path))
    loaded = SpanRecorder.read(str(path))
    assert len(loaded) == len(recorder)
    self_s = loaded.self_times(traced.root)
    root = loaded.end[traced.root] - loaded.start[traced.root]
    assert all(value >= -1e-12 for value in self_s.values())
    assert self_s["sim"] >= 0 and len(self_s) == len(LAYERS)
    assert sum(self_s.values()) == pytest.approx(root, rel=1e-9, abs=1e-12)
    lo, hi = loaded.subtree(traced.root)
    assert hi - lo > 1 and loaded.name[lo] == loaded.names.index("replay")


def test_spans_nest_and_carry_request_ids():
    recorder, traced = _traced_replay()
    lo, hi = recorder.subtree(traced.root)
    for i in range(lo + 1, hi):
        p = recorder.parent[i]
        assert recorder.start[p] <= recorder.start[i] <= recorder.end[i]
        assert recorder.end[i] <= recorder.end[p]
    op_complete = recorder.names.index("IORequest.op_complete")
    rids = {
        recorder.rid[i]
        for i in range(lo, hi)
        if recorder.name[i] == op_complete
    }
    assert rids and -1 not in rids


def test_install_is_observe_only_and_restores():
    from repro.disk.disk import Disk
    from repro.raid import request as request_module
    from repro.core import base

    before = (Disk.__dict__["submit"], base.acquire_request)
    _traced_replay("log-write")
    assert (Disk.__dict__["submit"], base.acquire_request) == before
    assert request_module.acquire_request is base.acquire_request
    gate = measure.Gate()
    plain = measure.replay_once(WORKLOADS["log-write"], 3, "tiny", gate)
    again = measure.Gate()
    with spantrace.install(SpanRecorder()):
        traced = measure.replay_once(WORKLOADS["log-write"], 3, "tiny", again)
    assert plain.metrics_json == traced.metrics_json


def test_missing_entry_point_fails_the_run(monkeypatch):
    monkeypatch.setattr(
        spantrace,
        "ENTRY_POINTS",
        spantrace.ENTRY_POINTS + (("repro.disk.disk", "Disk.renamed", "disk"),),
    )
    _, _, gate, _ = measure.trace_replay(WORKLOADS["read-home"], 1, 0.2, "tiny")
    assert not gate.correct
    assert any("repro.disk.disk.Disk.renamed" in e for e in gate.errors)


def test_seed_changes_digest_not_metric_names(tmp_path):
    _, first, report1 = run_cli(tmp_path, "read-home", 0, seed=1)
    _, second, report2 = run_cli(tmp_path, "read-home", 0, seed=2)
    assert report1["input"]["digest"] != report2["input"]["digest"]
    assert list(first["metrics"]) == list(second["metrics"])


def test_input_characterization(tiny_runs):
    _, _, report = tiny_runs["sweep-metered", 0]
    inputs = report["input"]
    assert inputs["distinct_traces"] == 7
    assert inputs["requests"] == sum(t["requests"] for t in inputs["traces"])
    _, _, report = tiny_runs["log-write", 0]
    assert report["input"]["distinct_traces"] == 1
    assert report["input"]["write_ratio"] > 0.95


def test_fails_without_the_simulator_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "log-write",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_percentile_helpers():
    ordered = [float(i) for i in range(1, 10001)]
    value, beyond = measure.nearest_rank(ordered, 0.999)
    assert value == 9990.0 and beyond == 10
    assert measure.nearest_rank(ordered, 0.5) == (5000.0, 5000)
    assert measure.histogram_quantile([1.0, 2.0], [0, 4, 0], 0.5) == 1.5
