"""Timed runs of each workload, their correctness gate and their metrics.

End-to-end numbers come from untraced runs, repeated until the time
budget is spent and reported as medians.  Per-layer numbers come from a
separate traced run (see :mod:`perfbench.spantrace`), paired with an
untraced run of the same input: their ``RunMetrics.to_dict()`` must match
byte for byte, and the ratio of their replay times is the tracing
overhead.

Host times are rescaled toward a reference machine speed.  The 2-vCPU
hosts this benchmark runs on change speed by 20-40% over seconds to
minutes, with no CPU steal, so raw wall-clock medians of identical code
spread by up to 28% (quartile distance over median) across runs.  A
fixed pure-Python loop that shares no code with the simulator is timed
before and after every repetition, and the repetition's single-process
host times (replay and set-up) are divided by ``mean loop time /
CAL_REFERENCE_S``.  The sweep's wall time is spent mostly in two pool
workers, which a one-thread loop in the parent follows only in part, so
``cells_per_s`` and the sweep's ``requests_per_s`` use the square root
of the factor (of none, half and full correction in log terms, half gave
the lowest worst-case spread over two sets of ten seeds); the sweep's
set-up runs in the parent and gets the full factor.  A change to the
simulator moves the rescaled times exactly as it moves the raw ones; the
raw medians (``raw_*``) and the per-repetition factors are kept in the
report's notes.
"""

from __future__ import annotations

import dataclasses
import gc
import heapq
import json
import math
import resource
import statistics
import time
import traceback
from array import array
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import ArrayConfig, build_controller, run_trace
from repro.experiments import runner
from repro.experiments.cache import active_cache
from repro.experiments.parallel import execute_cells
from repro.sim import Simulator
from repro import traces

from perfbench import spantrace
from perfbench.spantrace import LAYERS, SpanRecorder
from perfbench.workloads import N_PAIRS, Replay, Sweep, characterize_inputs

clock = time.perf_counter

#: Layers that the sweep traces in the parent process.
SWEEP_LAYERS = ("traces", "shm")


class Gate:
    """Correctness gate: requests attempted and failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def record(self, attempted: int, completed: int) -> None:
        self.attempted += attempted
        self.failed += attempted - completed

    def fail(self, attempted: int, reason: str) -> None:
        """Count all ``attempted`` requests of one cell as failed."""
        self.attempted += attempted
        self.reject(attempted, reason)

    def reject(self, requests: int, reason: str) -> None:
        """Count ``requests`` already recorded as done as failed after all."""
        self.failed += requests
        self.errors.append(reason)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.errors


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (or the larger of it and its
    waited-for children), in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        children_peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        peak = max(peak, children_peak)
    return peak / 1024.0


def nearest_rank(ordered: Sequence[float], q: float) -> Tuple[float, int]:
    """Exact ``q`` percentile of sorted samples and the count beyond it."""
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def histogram_quantile(
    bounds: Sequence[float], counts: Sequence[int], q: float
) -> float:
    """``q`` quantile of bucket counts, interpolated inside its bucket."""
    target = q * sum(counts)
    seen = 0
    for i, count in enumerate(counts):
        if count and seen + count >= target:
            lo = bounds[i - 1] if i > 0 else 0.0
            hi = bounds[i] if i < len(bounds) else 2.0 * bounds[-1]
            return lo + (hi - lo) * (target - seen) / count
        seen += count
    return bounds[-1]


#: A fixed reference time for :func:`calibrate`, near its time on a quiet
#: 2-vCPU host (Python 3.11); rescaled host times equal raw ones at that
#: speed.
CAL_REFERENCE_S = 0.06


class _Slot:
    __slots__ = ("key", "total")

    def __init__(self, key: int) -> None:
        self.key = key
        self.total = 0

    def add(self, value: int) -> int:
        self.total += value
        return self.total


def calibrate() -> float:
    """Seconds for a fixed loop of calls, attribute, dict and heap work."""
    started = clock()
    heap: list = []
    table: Dict[int, int] = {}
    slots = [_Slot(i) for i in range(64)]
    for i in range(60000):
        total = slots[i & 63].add(i)
        heapq.heappush(heap, (total % 9973, i))
        table[i & 1023] = total
        if len(heap) > 128:
            heapq.heappop(heap)
    return clock() - started


def _calibrated(seconds: float, once) -> List[Tuple[object, float]]:
    """Time-boxed ``once()`` calls, each with its host slowness factor.

    The factor is the mean time of the calibration loops run just before
    and after the call over :data:`CAL_REFERENCE_S` (see the module
    docstring); divide single-process host times by it.
    """
    loops = [calibrate()]

    def step():
        result = once()
        loops.append(calibrate())
        mean = (loops[-2] + loops[-1]) / 2.0
        return result, mean / CAL_REFERENCE_S

    return _time_boxed(seconds, step)


def metrics_json(metrics) -> str:
    return json.dumps(metrics.to_dict(), sort_keys=True)


# ----------------------------------------------------------------------
# Replay workloads
# ----------------------------------------------------------------------
@dataclasses.dataclass
class ReplayRun:
    """One set-up plus replay (drain included) of a replay workload."""

    setup_s: float
    replay_s: float
    requests: int
    metrics_json: str
    samples: Optional[array] = None
    sim: Optional[Simulator] = None
    controller: object = None
    root: int = -1


def replay_once(
    wl: Replay,
    seed: int,
    size: str,
    gate: Gate,
    samples: bool = False,
    recorder: Optional[SpanRecorder] = None,
    keep: bool = False,
) -> Optional[ReplayRun]:
    """Set up and replay once; ``None`` if the cell raised or failed.

    With ``recorder`` the replay runs under a root ``replay`` span with
    the event observer attached (install the wrappers before calling).
    """
    scale = wl.scale_for(size)
    gc.collect()
    started = clock()
    # Through the package, so an installed trace-layer wrapper sees it.
    trace = traces.build_workload_trace(
        wl.preset, scale, seed=seed, compiled=True
    )
    sim = Simulator()
    controller = build_controller(
        wl.scheme, sim, ArrayConfig(n_pairs=N_PAIRS).scaled(scale)
    )
    ready = clock()
    responses = None
    if samples:
        responses = array("d")
        append = responses.append
        controller.metrics.on_response = lambda is_write, seconds: append(
            seconds
        )
    root = -1
    try:
        if recorder is None:
            metrics = run_trace(controller, trace)
        else:
            observer = spantrace.event_observer(recorder)
            sim.add_event_observer(observer)
            try:
                with recorder.span("replay", "sim") as span:
                    root = span.idx
                    metrics = run_trace(controller, trace)
            finally:
                sim.remove_event_observer(observer)
        done = clock()
        controller.assert_consistent()
    except Exception:  # the gate counts the cell as failed and goes on
        gate.fail(len(trace), traceback.format_exc(limit=3))
        return None
    gate.record(len(trace), metrics.requests)
    if metrics.requests != len(trace):
        gate.errors.append(
            f"{wl.name}: {metrics.requests} of {len(trace)} requests done"
        )
    run = ReplayRun(
        setup_s=ready - started,
        replay_s=done - ready,
        requests=len(trace),
        metrics_json=metrics_json(metrics),
        samples=responses,
        root=root,
    )
    if keep:
        run.sim, run.controller = sim, controller
    return run


def _time_boxed(seconds: float, once) -> List:
    """Call ``once()`` until the next call would overrun ``seconds``."""
    deadline = clock() + seconds
    results, walls = [], []
    while True:
        started = clock()
        results.append(once())
        walls.append(clock() - started)
        if clock() + statistics.median(walls) > deadline:
            return results


def measure_replay(wl: Replay, seed: int, seconds: float, size: str):
    """Untraced repetitions; returns (metrics, notes, gate, input)."""
    gate = Gate()
    runs = _calibrated(
        seconds,
        lambda: replay_once(wl, seed, size, gate, samples=True),
    )
    done = [(r, slow) for r, slow in runs if r is not None]
    notes: Dict[str, object] = {"repetitions": len(runs)}
    if len(done) != len(runs) or not done:
        return {}, notes, gate, None
    first = done[0][0]
    for run, _ in done[1:]:
        if run.metrics_json != first.metrics_json:
            gate.reject(
                run.requests,
                f"{wl.name}: RunMetrics differ between repetitions",
            )
    ordered = sorted(first.samples)
    p50, _ = nearest_rank(ordered, 0.5)
    p999, beyond999 = nearest_rank(ordered, 0.999)
    energy_j = json.loads(first.metrics_json)["total_energy_j"]
    metrics = {
        "requests_per_s": statistics.median(
            r.requests * slow / r.replay_s for r, slow in done
        ),
        "setup_s": statistics.median(r.setup_s / slow for r, slow in done),
        "cells_per_s": statistics.median(
            slow / (r.setup_s + r.replay_s) for r, slow in done
        ),
        "peak_rss_mb": peak_rss_mb(),
        "sim_resp_p50_ms": p50 * 1e3,
        "sim_resp_p999_ms": p999 * 1e3,
        "sim_energy_kj": energy_j / 1e3,
    }
    notes.update(
        response_samples=len(ordered),
        beyond_p999=beyond999,
        raw_requests_per_s=statistics.median(
            r.requests / r.replay_s for r, _ in done
        ),
        raw_setup_s=statistics.median(r.setup_s for r, _ in done),
        replay_s=[r.replay_s for r, _ in done],
        setup_s=[r.setup_s for r, _ in done],
        host_slowness=[slow for _, slow in done],
    )
    return metrics, notes, gate, replay_input(wl, seed, size)


def replay_input(wl: Replay, seed: int, size: str) -> Dict:
    trace = traces.build_workload_trace(
        wl.preset, wl.scale_for(size), seed=seed, compiled=True
    )
    return characterize_inputs([trace], [wl.preset])


def trace_replay(wl: Replay, seed: int, seconds: float, size: str):
    """Untraced/traced pairs; returns (metrics, notes, gate, recorder)."""
    gate = Gate()
    kept: List[Tuple[SpanRecorder, ReplayRun]] = []

    def pair():
        base = replay_once(wl, seed, size, gate)
        recorder = SpanRecorder()
        with spantrace.install(recorder):
            traced = replay_once(
                wl, seed, size, gate, recorder=recorder, keep=not kept
            )
        if base is None or traced is None:
            return None
        if traced.metrics_json != base.metrics_json:
            gate.reject(
                traced.requests,
                f"{wl.name}: traced RunMetrics differ from untraced",
            )
        if not kept:
            kept.append((recorder, traced))
        return base.replay_s, traced.replay_s

    ratios = _time_boxed(seconds, pair)
    notes: Dict[str, object] = {"pairs": len(ratios)}
    if not kept or any(r is None for r in ratios):
        return {}, notes, gate, None
    recorder, run = kept[0]
    _check_installed(recorder, gate)
    metrics = replay_layer_metrics(recorder, run)
    untraced = statistics.median(r[0] for r in ratios)
    traced = statistics.median(r[1] for r in ratios)
    metrics.update(
        {
            "tracing.overhead_ratio": statistics.median(
                t / u for u, t in ratios
            ),
            "tracing.untraced_s": untraced,
            "tracing.traced_s": traced,
        }
    )
    notes["events_by_layer"] = spantrace.events_by_layer(
        recorder, recorder.name_counts(*recorder.subtree(run.root))
    )
    notes["replay_root_s"] = recorder.end[run.root] - recorder.start[run.root]
    return metrics, notes, gate, recorder


def _check_installed(rec: SpanRecorder, gate: Gate) -> None:
    """Fail the run if an entry point was not found to wrap: its layer's
    metrics would read 0 and look like a large improvement."""
    if rec.missing:
        gate.errors.append(
            "entry points not found: " + ", ".join(rec.missing)
        )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def replay_layer_metrics(
    rec: SpanRecorder, run: ReplayRun
) -> Dict[str, float]:
    """Per-layer metrics of one traced replay."""
    calls = rec.name_counts()
    by_layer = spantrace.calls_by_layer(rec, calls)
    self_s = rec.self_times(run.root)
    summary = json.loads(run.metrics_json)
    sim, controller = run.sim, run.controller
    requests = run.requests
    writes = summary["writes"]
    disk_ops = calls["Disk.submit"]
    disks = controller.all_disks()
    scheduled = calls["Simulator.at"]
    starts = calls["DestageProcess.start"]
    lookups = calls["LRUCache.get"]
    reclaims = calls["LogRegion.reclaim"]
    gen_s = rec.top_level_time("traces")
    out = {
        "sim.events_per_request": sim.events_processed / requests,
        "sim.cancelled_frac": _ratio(
            scheduled - sim.events_processed, scheduled
        ),
        "disk.ops_per_request": disk_ops / requests,
        "disk.util_sim": _ratio(
            sum(d.busy_time for d in disks), len(disks) * sim.now
        ),
        "disk.spin_ups": summary["spin_up_count"],
        "mechanical.calls_per_op": _ratio(by_layer["mechanical"], disk_ops),
        "power.transitions": calls["EnergyAccountant.transition"],
        "layout.segments_per_request": (
            rec.counts["layout.segments"] / requests
        ),
        "request.ops_per_request": calls["IORequest.op_complete"] / requests,
        "controller.submits": sum(
            n
            for name, n in calls.items()
            if name.endswith("Controller.submit")
        ),
        "logspace.appends_per_write": _ratio(
            calls["LogRegion.append"], writes
        ),
        "logspace.frees_per_reclaim": _ratio(
            calls["RegionAllocator.free"], reclaims
        ),
        "destage.processes": starts,
        "destage.aborted_frac": _ratio(calls["DestageProcess.abort"], starts),
        "destage.bytes_per_logged_byte": _ratio(
            summary["destaged_bytes"], summary["logged_bytes"]
        ),
        "rotation.rotations": summary["rotations"],
        "cache.lookups": lookups,
        "cache.hit_ratio": _ratio(rec.counts["cache.hits"], lookups),
        "traces.gen_s": gen_s,
        "traces.records_per_s": _ratio(requests, gen_s),
        "shm.publish_s": 0.0,
        "shm.bytes": 0,
        "shm.attach_hit_ratio": 0.0,
        "parallel.worker_busy_frac": 0.0,
        "parallel.inflight_peak": 0,
    }
    out.update(_layer_totals(by_layer, self_s))
    return out


def _layer_totals(
    by_layer: Dict[str, int], self_s: Dict[str, float]
) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for layer in LAYERS:
        if layer not in ("power", "parallel"):
            out[f"{layer}.calls"] = by_layer[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    return out


# ----------------------------------------------------------------------
# Sweep workload
# ----------------------------------------------------------------------
@dataclasses.dataclass
class SweepRun:
    wall_s: float
    setup_s: Optional[float]
    results: List
    registry: object
    recorder: SpanRecorder
    root: int


def sweep_once(
    wl: Sweep, seed: int, size: str, gate: Gate, layers: Sequence[str]
) -> Optional[SweepRun]:
    """One cold sweep, with spans on ``layers`` in the parent.

    Set-up time is the time from the start of ``execute_cells`` to the end
    of the last trace generation or shared-memory publication, which the
    dispatcher does before it starts the pool.
    """
    cells = wl.cells(seed, size)
    runner.clear_cache()
    if active_cache() is not None:
        raise RuntimeError("the persistent result cache must be off")
    recorder = SpanRecorder()
    gc.collect()
    try:
        with spantrace.install(recorder, layers):
            with recorder.span("sweep", "parallel") as root:
                stats = execute_cells(
                    cells, jobs=wl.jobs, collect_metrics=True
                )
    except Exception:  # the gate counts every cell as failed and goes on
        gate.errors.append(traceback.format_exc(limit=3))
        runner.clear_cache()
        return None
    start = recorder.start[root.idx]
    ends = [
        recorder.end[i]
        for i in range(root.idx + 1, len(recorder))
        if recorder.parent[i] == root.idx
    ]
    results = [runner.lookup_cached(cell.key()) for cell in cells]
    runner.clear_cache()
    return SweepRun(
        wall_s=recorder.end[root.idx] - start,
        setup_s=max(ends) - start if ends else None,
        results=results,
        registry=stats.metrics,
        recorder=recorder,
        root=root.idx,
    )


def _sweep_inputs(wl: Sweep, seed: int, size: str) -> Tuple[Dict, Dict]:
    """Input characterization and expected request count per cell key."""
    cells = wl.cells(seed, size)
    traces: Dict[Tuple, object] = {}
    for cell in cells:
        if cell.trace_key() not in traces:
            traces[cell.trace_key()] = cell.build_trace()
    presets = [key[1] for key in traces]
    expected = {cell.key(): len(traces[cell.trace_key()]) for cell in cells}
    return characterize_inputs(list(traces.values()), presets), expected


def _check_sweep(run: Optional[SweepRun], expected: Dict, cells, gate: Gate):
    if run is None:
        gate.fail(sum(expected.values()), "sweep raised")
        return
    for cell, result in zip(cells, run.results):
        want = expected[cell.key()]
        if result is None:
            gate.fail(want, f"{cell.label()}: no result")
        else:
            gate.record(want, min(result.requests, want))
            if result.requests != want:
                gate.errors.append(
                    f"{cell.label()}: {result.requests} of {want} requests"
                )


def measure_sweep(wl: Sweep, seed: int, seconds: float, size: str):
    """Untraced (set-up marks only) sweeps; (metrics, notes, gate, input)."""
    gate = Gate()
    runs = _calibrated(
        seconds, lambda: sweep_once(wl, seed, size, gate, SWEEP_LAYERS)
    )
    inputs, expected = _sweep_inputs(wl, seed, size)
    cells = wl.cells(seed, size)
    for run, _ in runs:
        _check_sweep(run, expected, cells, gate)
    notes: Dict[str, object] = {"repetitions": len(runs)}
    if not gate.correct:
        return {}, notes, gate, inputs
    requests = sum(expected.values())
    first = runs[0][0].results
    for run, _ in runs[1:]:
        if [r.to_dict() for r in run.results] != [r.to_dict() for r in first]:
            gate.reject(
                requests, "sweep RunMetrics differ between repetitions"
            )
    bounds = first[0].response_histogram.bounds
    counts = [
        sum(col) for col in zip(*(r.response_histogram.counts for r in first))
    ]
    metrics = {
        "requests_per_s": statistics.median(
            requests * math.sqrt(slow) / r.wall_s for r, slow in runs
        ),
        "setup_s": statistics.median(r.setup_s / slow for r, slow in runs),
        "cells_per_s": statistics.median(
            len(cells) * math.sqrt(slow) / r.wall_s for r, slow in runs
        ),
        "peak_rss_mb": peak_rss_mb(children=True),
        "sim_resp_p50_ms": histogram_quantile(bounds, counts, 0.5) * 1e3,
        "sim_resp_p999_ms": histogram_quantile(bounds, counts, 0.999) * 1e3,
        "sim_energy_kj": sum(r.total_energy_j for r in first) / 1e3,
    }
    notes.update(
        response_samples=sum(counts),
        beyond_p999=sum(counts) - math.ceil(0.999 * sum(counts)),
        percentiles="interpolated in the cells' merged response histograms",
        raw_cells_per_s=statistics.median(
            len(cells) / r.wall_s for r, _ in runs
        ),
        raw_setup_s=statistics.median(r.setup_s for r, _ in runs),
        wall_s=[r.wall_s for r, _ in runs],
        setup_s=[r.setup_s for r, _ in runs],
        host_slowness=[slow for _, slow in runs],
    )
    return metrics, notes, gate, inputs


def trace_sweep(wl: Sweep, seed: int, seconds: float, size: str):
    """Unmarked/traced sweep pairs; (metrics, notes, gate, recorder)."""
    gate = Gate()
    inputs, expected = _sweep_inputs(wl, seed, size)
    cells = wl.cells(seed, size)
    kept: List[SweepRun] = []

    def pair():
        base = sweep_once(wl, seed, size, gate, ())
        traced = sweep_once(wl, seed, size, gate, SWEEP_LAYERS)
        for run in (base, traced):
            _check_sweep(run, expected, cells, gate)
        if base is None or traced is None:
            return None
        if [r.to_dict() for r in base.results] != [
            r.to_dict() for r in traced.results
        ]:
            gate.reject(
                sum(expected.values()), "traced sweep RunMetrics differ"
            )
        if not kept:
            kept.append(traced)
        return base.wall_s, traced.wall_s

    ratios = _time_boxed(seconds, pair)
    notes: Dict[str, object] = {"pairs": len(ratios)}
    if not kept or any(r is None for r in ratios):
        return {}, notes, gate, None
    run = kept[0]
    _check_installed(run.recorder, gate)
    metrics = sweep_layer_metrics(run, inputs["requests"])
    metrics.update(
        {
            "tracing.overhead_ratio": statistics.median(
                t / u for u, t in ratios
            ),
            "tracing.untraced_s": statistics.median(r[0] for r in ratios),
            "tracing.traced_s": statistics.median(r[1] for r in ratios),
        }
    )
    notes["sweep_root_s"] = run.wall_s
    return metrics, notes, gate, run.recorder


def _registry_sums(registry) -> Tuple[Counter, Dict[str, int]]:
    """Sum of every scalar family, and label-set count per family."""
    sums: Counter = Counter()
    children: Counter = Counter()
    for name, _labels, instance in registry.samples():
        value = getattr(instance, "value", None)
        if isinstance(value, (int, float)):
            sums[name] += value
            children[name] += 1
    return sums, children


#: Per-layer metrics only a traced in-process replay can give.
_REPLAY_ONLY = (
    "sim.cancelled_frac",
    "disk.ops_per_request",
    "disk.util_sim",
    "mechanical.calls_per_op",
    "power.transitions",
    "layout.segments_per_request",
    "request.ops_per_request",
    "controller.submits",
    "logspace.appends_per_write",
    "logspace.frees_per_reclaim",
    "destage.processes",
    "destage.aborted_frac",
    "cache.lookups",
    "cache.hit_ratio",
)


def sweep_layer_metrics(run: SweepRun, trace_records: int) -> Dict[str, float]:
    """Per-layer metrics of one traced sweep.

    The parent's trace generation and publication are span-traced; the
    pool and shared-memory figures come from the dispatcher's own
    registry.  The replay layers run in pool workers and are not traced,
    so their span metrics read 0; the counts the cells' ``RunMetrics`` and
    the registry carry are filled in.
    """
    rec = run.recorder
    calls = rec.name_counts()
    by_layer = spantrace.calls_by_layer(rec, calls)
    self_s = rec.self_times(run.root)
    sums, children = _registry_sums(run.registry)
    results = run.results
    requests = sum(r.requests for r in results)
    hits = sums["shm_attach_hits_total"]
    attaches = hits + sums["shm_attach_misses_total"]
    workers = children["sweep_worker_busy_seconds_total"]
    gen_s = rec.top_level_time("traces")
    out = {name: 0 for name in _REPLAY_ONLY}
    out.update(
        {
            "sim.events_per_request": sums["sim_events_total"] / requests,
            "disk.spin_ups": sum(r.spin_up_count for r in results),
            "destage.bytes_per_logged_byte": _ratio(
                sum(r.destaged_bytes for r in results),
                sum(r.logged_bytes for r in results),
            ),
            "rotation.rotations": sum(r.rotations for r in results),
            "traces.gen_s": gen_s,
            "traces.records_per_s": _ratio(trace_records, gen_s),
            "shm.publish_s": rec.top_level_time("shm"),
            "shm.bytes": rec.counts["shm.bytes"],
            "shm.attach_hit_ratio": _ratio(hits, attaches),
            "parallel.worker_busy_frac": _ratio(
                sums["sweep_worker_busy_seconds_total"], workers * run.wall_s
            ),
            "parallel.inflight_peak": sums["sweep_inflight_window_peak"],
        }
    )
    out.update(_layer_totals(by_layer, self_s))
    return out
