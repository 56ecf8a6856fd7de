"""Golden replay digests: the trace path must not change a reported number.

Each test replays one synthetic workload through :func:`run_trace` and
compares the sha256 of the serialized :class:`RunMetrics` (``json.dumps``
of ``to_dict()``, sorted keys) and ``events_processed`` against
``tests/golden/compiled_equivalence.json``: five schemes clean, RoLo-P
with a :class:`RecordingTracer` attached, and RoLo-P under ``fail@10:M1``.
The digests are a fixed reference recorded before the trace layer was
reduced to one columnar representation, so any drift in replay mechanics
(arrival streaming, column decoding, trace building) shows up here.

On first run the golden file is created and the test fails, asking for a
rerun; on drift the computed digests are written next to it as
``compiled_equivalence.actual.json`` for inspection.
"""

import hashlib
import json
import os

import pytest

from repro.core import ArrayConfig, build_controller, run_trace
from repro.faults.injector import FaultInjector
from repro.faults.oracle import ConsistencyOracle
from repro.faults.schedule import FaultSchedule
from repro.obs.tracer import RecordingTracer
from repro.sim import Simulator
from repro.traces import (
    Burstiness,
    SyntheticTraceConfig,
    compiled_from_events,
    generate_compiled,
)

MB = 1024 * 1024

SCHEMES = ["raid10", "graid", "rolo-p", "rolo-r", "rolo-e"]

TRACE_CONFIG = SyntheticTraceConfig(
    duration_s=20.0,
    iops=100,
    write_ratio=0.8,
    avg_request_bytes=64 * 1024,
    size_sigma=0.5,
    footprint_bytes=96 * MB,
    burstiness=Burstiness.MEDIUM,
    burst_cycle_s=8.0,
    read_locality=0.6,
    seed=99,
    name="equiv",
)

ARRAY_CONFIG = ArrayConfig(n_pairs=4).scaled(0.01)

FAULT_SPEC = "fail@10:M1"

GOLDEN = os.path.join(
    os.path.dirname(__file__), "golden", "compiled_equivalence.json"
)


def _digest(sim, metrics, **extra):
    payload = json.dumps(metrics.to_dict(), sort_keys=True).encode()
    return dict(
        metrics_sha256=hashlib.sha256(payload).hexdigest(),
        events_processed=sim.events_processed,
        **extra,
    )


def _replay(scheme, trace, *, tracer=None, fault_spec=None):
    sim = Simulator()
    if fault_spec is None:
        controller = build_controller(scheme, sim, ARRAY_CONFIG, tracer=tracer)
        metrics = run_trace(controller, trace)
        controller.assert_consistent()
        return sim, metrics
    oracle = ConsistencyOracle()
    controller = build_controller(scheme, sim, ARRAY_CONFIG, oracle=oracle)
    injector = FaultInjector(
        sim, controller, FaultSchedule.parse(fault_spec), oracle=oracle
    )
    injector.arm()
    metrics = run_trace(controller, trace)
    injector._check("end")
    return sim, metrics


@pytest.fixture(scope="module")
def trace():
    return generate_compiled(TRACE_CONFIG)


@pytest.fixture(scope="module")
def golden(trace):
    """The recorded digests, keyed by run name (created on first run)."""
    runs = {}
    for scheme in SCHEMES:
        runs[scheme] = _digest(*_replay(scheme, trace))
    tracer = RecordingTracer()
    sim, metrics = _replay("rolo-p", trace, tracer=tracer)
    runs["rolo-p+tracer"] = _digest(sim, metrics, tracer_events=len(tracer.events))
    runs[f"rolo-p+{FAULT_SPEC}"] = _digest(
        *_replay("rolo-p", trace, fault_spec=FAULT_SPEC)
    )
    actual = {"trace_hash": trace.content_hash(), "runs": runs}
    if not os.path.exists(GOLDEN):  # pragma: no cover - first run
        os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
        with open(GOLDEN, "w") as fh:
            json.dump(actual, fh, indent=2, sort_keys=True)
            fh.write("\n")
        pytest.fail(f"golden file created at {GOLDEN}; rerun")
    with open(GOLDEN) as fh:
        expected = json.load(fh)
    if actual != expected:
        actual_path = GOLDEN.replace(".json", ".actual.json")
        with open(actual_path, "w") as fh:
            json.dump(actual, fh, indent=2, sort_keys=True)
            fh.write("\n")
    assert actual["trace_hash"] == expected["trace_hash"]
    return expected["runs"], runs


@pytest.mark.parametrize("scheme", SCHEMES)
def test_metrics_byte_identical_across_schemes(scheme, golden):
    expected, actual = golden
    assert actual[scheme] == expected[scheme]


def test_metrics_byte_identical_with_tracer(golden):
    expected, actual = golden
    assert actual["rolo-p+tracer"] == expected["rolo-p+tracer"]
    assert actual["rolo-p+tracer"]["tracer_events"] > 0


def test_metrics_byte_identical_under_fault_injection(golden):
    expected, actual = golden
    key = f"rolo-p+{FAULT_SPEC}"
    assert actual[key] == expected[key]


def test_rebuilt_workload_replays_identically(trace, golden):
    # A trace rebuilt row by row through the one builder (the path a
    # parsed MSR file takes) replays to the recorded digest.
    expected, _ = golden
    rebuilt = compiled_from_events(
        ((r.timestamp, r.is_write, r.offset, r.nbytes) for r in trace),
        name=trace.name,
        footprint_bytes=trace.footprint_bytes,
    )
    assert rebuilt.content_hash() == trace.content_hash()
    assert _digest(*_replay("raid10", rebuilt)) == expected["raid10"]
