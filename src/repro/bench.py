"""Pinned performance benchmark suite (`rolo bench`).

One source of perf truth for the repository:

* a **pinned scenario matrix** — all five schemes × two synthetic
  workloads, a fault-injected cell, a trace-compilation scenario, a
  long 10⁶-request hot-path replay, and the ``sweep:*`` family (the full
  five-scheme × two-workload matrix executed end-to-end through the
  parallel runner at ``--jobs`` 1/2/4, the repo's first sweep-level
  rather than per-event benchmark) — whose configurations are frozen so
  numbers are comparable across commits (``BENCH_*.json`` files form the
  repo's perf trajectory);
* a **tolerance gate** comparing a fresh run against a committed baseline
  (``benchmarks/baseline.json``), used by CI to fail on events/sec
  regressions; and
* the **micro-kernels** that ``benchmarks/test_bench_micro.py`` wraps with
  pytest-benchmark, so ad-hoc timing loops don't drift from the harness.

The scenario configurations must never change silently: edit them only
together with a baseline refresh (``rolo bench --update-baseline``) and a
note in the PR, otherwise cross-commit comparisons become meaningless.
"""

from __future__ import annotations

import json
import os
import random
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core import ArrayConfig, build_controller, run_trace
from repro.obs.export import ensure_parent
from repro.sim import Simulator
from repro.traces.synthetic import (
    Burstiness,
    SyntheticTraceConfig,
    generate_compiled,
)

KB = 1024
MB = 1024 * KB

#: Report format version (bump on field/meaning changes).
BENCH_SCHEMA_VERSION = 1

#: The five schemes of the paper's main comparison.
SCHEMES = ("raid10", "graid", "rolo-p", "rolo-r", "rolo-e")

#: Matrix workloads (names only; configs are pinned below).
WORKLOADS = ("write-heavy", "mixed")

DEFAULT_BASELINE_PATH = os.path.join("benchmarks", "baseline.json")
DEFAULT_OUT_PATH = "BENCH_10.json"
DEFAULT_TOLERANCE = 0.25

#: Hot-path replay length per mode.
HOTPATH_REQUESTS = {"full": 1_000_000, "quick": 100_000}

#: Single-failure injection time per mode (inside the trace horizon).
FAULT_TIME = {"full": 40.0, "quick": 10.0}

#: Worker counts of the sweep-level scenarios (end-to-end matrix runs
#: through the parallel executor; jobs=1 is the serial reference).
SWEEP_JOBS = (1, 2, 4)

#: ``matrix:*`` cells report best-of-N wall clock: quick-mode cells run
#: in 0.1–0.4 s, where single-shot timing swings ±15% on a busy box.
MATRIX_REPEATS = 5


# ----------------------------------------------------------------------
# Pinned scenario configurations — do not edit without a baseline refresh
# ----------------------------------------------------------------------
def matrix_trace_config(
    workload: str, quick: bool = False
) -> SyntheticTraceConfig:
    """The two pinned matrix workloads (30 s horizon in quick mode)."""
    duration = 30.0 if quick else 120.0
    if workload == "write-heavy":
        return SyntheticTraceConfig(
            duration_s=duration,
            iops=120.0,
            write_ratio=0.95,
            avg_request_bytes=64 * KB,
            size_sigma=0.5,
            footprint_bytes=96 * MB,
            burstiness=Burstiness.HIGH,
            burst_cycle_s=20.0,
            seed=77,
            name="bench-wh",
        )
    if workload == "mixed":
        return SyntheticTraceConfig(
            duration_s=duration,
            iops=80.0,
            write_ratio=0.55,
            avg_request_bytes=32 * KB,
            size_sigma=0.5,
            footprint_bytes=128 * MB,
            read_locality=0.7,
            seed=78,
            name="bench-mx",
        )
    raise ValueError(f"unknown bench workload {workload!r}")


def matrix_array_config() -> ArrayConfig:
    """The pinned array: 4 mirrored pairs at 1% capacity scale."""
    return ArrayConfig(n_pairs=4).scaled(0.01)


def hotpath_trace_config(n_requests: int) -> SyntheticTraceConfig:
    """The long open-loop replay trace (~``n_requests`` arrivals)."""
    return SyntheticTraceConfig(
        duration_s=n_requests / 500.0,
        iops=500.0,
        write_ratio=0.7,
        avg_request_bytes=64 * KB,
        size_sigma=0.5,
        footprint_bytes=256 * MB,
        seed=1234,
        name=f"bench-hotpath-{n_requests}",
    )


# ----------------------------------------------------------------------
# Timed execution
# ----------------------------------------------------------------------
def timed_replay(
    scheme: str,
    trace,
    config: ArrayConfig,
    fault_spec: Optional[str] = None,
    repeats: int = 1,
) -> Dict[str, Any]:
    """Run one simulation and report wall-clock + events/sec.

    The timed window covers controller construction, the replay itself and
    the consistency check — everything a cell costs — but not trace
    generation (measured by the ``compile:`` scenario).  With ``repeats``
    > 1 the cell is replayed that many times and the best (minimum) wall
    clock is reported: short cells on a loaded single-core box otherwise
    swing ±15% run to run, which would drown the regression gate.
    """
    from repro.faults.injector import FaultInjector
    from repro.faults.oracle import ConsistencyOracle
    from repro.faults.schedule import FaultSchedule

    best = None
    for _ in range(max(1, repeats)):
        sim = Simulator()
        started = time.perf_counter()
        if fault_spec is None:
            controller = build_controller(scheme, sim, config)
            metrics = run_trace(controller, trace)
            controller.assert_consistent()
        else:
            oracle = ConsistencyOracle()
            controller = build_controller(scheme, sim, config, oracle=oracle)
            injector = FaultInjector(
                sim, controller, FaultSchedule.parse(fault_spec), oracle=oracle
            )
            injector.arm()
            metrics = run_trace(controller, trace)
            injector._check("end")
        wall = time.perf_counter() - started
        if best is None or wall < best[0]:
            best = (wall, sim, metrics)
    wall, sim, metrics = best
    result = {
        "wall_s": round(wall, 4),
        "events": sim.events_processed,
        "events_per_sec": round(sim.events_processed / wall, 1),
        "requests": metrics.requests,
        "sim_time_s": round(sim.now, 3),
    }
    if repeats > 1:
        result["repeats"] = repeats
    return result


def timed_compile(config: SyntheticTraceConfig) -> Tuple[Any, Dict[str, Any]]:
    """Generate a compiled trace, timing the lowering throughput."""
    started = time.perf_counter()
    trace = generate_compiled(config)
    wall = time.perf_counter() - started
    return trace, {
        "wall_s": round(wall, 4),
        "records": len(trace),
        "records_per_sec": round(len(trace) / wall, 1),
        "column_bytes": trace.nbytes(),
    }


def sweep_cells(quick: bool = False) -> List[Any]:
    """The pinned end-to-end sweep: all five schemes × both workloads.

    These are real experiment cells (the matrix traces and array config
    above), executed through :func:`repro.experiments.parallel` exactly
    as ``rolo run --jobs N`` would — so the scenario measures everything
    a sweep costs: trace generation, shared-memory publication, worker
    fan-out, simulation, and result installation.
    """
    from repro.experiments.runner import synthetic_cell

    config = matrix_array_config()
    return [
        synthetic_cell(
            scheme, matrix_trace_config(workload, quick=quick), config
        )
        for workload in WORKLOADS
        for scheme in SCHEMES
    ]


def sweep_payload_bytes(cells) -> int:
    """Largest parent-to-worker payload (pickled cell + TraceRef).

    This is the number the shared-trace store pins down: it must stay a
    few hundred bytes regardless of trace length, because the columns
    travel through shared memory, not the pickle.
    """
    import pickle

    from repro.traces.shm import SharedTraceStore, available

    if not available():  # pragma: no cover - exotic builds
        return 0
    largest = 0
    with SharedTraceStore() as store:
        refs = {}
        for cell in cells:
            tkey = cell.trace_key()
            if tkey not in refs:
                refs[tkey] = store.publish(cell.build_trace())
            payload = pickle.dumps((cell, refs[tkey]))
            largest = max(largest, len(payload))
    return largest


def timed_sweep(jobs: int, quick: bool = False) -> Dict[str, Any]:
    """Run the pinned sweep cold (no caches) at one worker count.

    ``jobs=1`` executes the cells serially in-process (the reference the
    acceptance speedup is measured against); ``jobs>1`` goes through
    :func:`~repro.experiments.parallel.execute_cells` — shared-memory
    trace store, locality-grouped dispatch and all.  Both paths start
    from a cold in-memory memo with the persistent cache disabled, and
    both leave every cache layer the way they found it.
    """
    import resource

    from repro.experiments import cache as result_cache
    from repro.experiments import parallel, runner

    cells = sweep_cells(quick=quick)
    previous = result_cache.active_cache()
    result_cache.configure(enabled=False)
    runner.clear_cache()
    started = time.perf_counter()
    try:
        if jobs == 1:
            for cell in cells:
                cell.execute()
        else:
            parallel.execute_cells(cells, jobs=jobs)
    finally:
        wall = time.perf_counter() - started
        runner.clear_cache()
        result_cache.configure(
            directory=previous.directory if previous else None,
            enabled=previous is not None,
        )
    return {
        "wall_s": round(wall, 4),
        "jobs": jobs,
        "cells": len(cells),
        "cells_per_sec": round(len(cells) / wall, 3),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "payload_bytes_per_cell": sweep_payload_bytes(cells),
    }


# ----------------------------------------------------------------------
# Instrumentation-overhead family (``overhead:*``)
# ----------------------------------------------------------------------
#: The pinned overhead cell: one scheme × one workload (the mixed shape,
#: longer horizon — see :func:`overhead_trace_config`), replayed under
#: every instrumentation variant so the deltas are attributable to the
#: instrumentation alone.
OVERHEAD_SCHEME = "rolo-r"

#: Instrumentation variants, in execution order.  ``plain`` never touches
#: any observation machinery; ``disabled`` attaches the full stack and
#: detaches it again before the run (the "literally free when off"
#: claim); the rest run with one layer enabled.
OVERHEAD_VARIANTS = (
    "plain",
    "disabled",
    "traced",
    "metered",
    "verified",
    "spanned",
)

#: Wall-clock repeats per variant; the reported figure is the best run
#: (minimum wall), which filters scheduler noise out of a 2% gate.
OVERHEAD_REPEATS = 5

#: Maximum tolerated throughput cost of *disabled* instrumentation
#: relative to the plain run (the tentpole's zero-overhead budget).
OVERHEAD_MAX_DISABLED_COST = 0.02


def overhead_trace_config(quick: bool = False) -> SyntheticTraceConfig:
    """The pinned overhead trace: the mixed workload, longer horizon.

    A 2% gate needs enough events that one-off costs (hook install and
    teardown, the invariant checker's final sweep) amortize away and the
    timer's own noise stays below the budget — the 30 s quick matrix
    horizon is an order of magnitude too short for that.
    """
    duration = 120.0 if quick else 240.0
    return SyntheticTraceConfig(
        duration_s=duration,
        iops=80.0,
        write_ratio=0.55,
        avg_request_bytes=32 * KB,
        size_sigma=0.5,
        footprint_bytes=128 * MB,
        read_locality=0.7,
        seed=79,
        name="bench-oh",
    )


def _overhead_run(
    variant: str, trace, config: ArrayConfig
) -> Tuple[float, int, Any]:
    """One replay of the overhead cell under ``variant`` instrumentation.

    Returns ``(wall_s, events, metrics)``.  Unlike :func:`timed_replay`,
    the timed window covers *only* the replay and the consistency check:
    instrumentation cost that is paid once (hook fusing, observer
    registration) is run-setup work, so
    setup and teardown deliberately sit outside the window — what is
    measured is the per-event price each variant pays.
    """
    from repro.obs import (
        NULL_TRACER,
        MetricsRegistry,
        RecordingTracer,
        RunInstrumentation,
    )
    from repro.verify.invariants import InvariantChecker

    sim = Simulator()
    instrumentation = None
    checker = None
    if variant == "plain":
        controller = build_controller(OVERHEAD_SCHEME, sim, config)
    elif variant == "disabled":
        # Attach every observe-only layer, then detach it again: the run
        # itself must go through the same hook-free loop and observer-free
        # completions as ``plain``.
        controller = build_controller(
            OVERHEAD_SCHEME, sim, config, tracer=NULL_TRACER
        )
        probe = RunInstrumentation(sim, controller, MetricsRegistry())
        probe.install()
        probe.uninstall()
        sweep = InvariantChecker()
        sweep.install(sim, controller)
        sweep.uninstall()
    elif variant == "traced":
        controller = build_controller(
            OVERHEAD_SCHEME, sim, config, tracer=RecordingTracer()
        )
    elif variant == "metered":
        controller = build_controller(OVERHEAD_SCHEME, sim, config)
        instrumentation = RunInstrumentation(
            sim, controller, MetricsRegistry()
        )
        instrumentation.install()
    elif variant == "verified":
        controller = build_controller(OVERHEAD_SCHEME, sim, config)
        checker = InvariantChecker()
        checker.install(sim, controller)
    elif variant == "spanned":
        from repro.obs import SpanRecorder

        controller = build_controller(
            OVERHEAD_SCHEME, sim, config, tracer=SpanRecorder()
        )
    else:
        raise ValueError(f"unknown overhead variant {variant!r}")
    started = time.perf_counter()
    metrics = run_trace(controller, trace)
    controller.assert_consistent()
    wall = time.perf_counter() - started
    if instrumentation is not None:
        instrumentation.uninstall()
        instrumentation.harvest()
    if checker is not None:
        checker.uninstall()
    return wall, sim.events_processed, metrics


def timed_overhead(
    quick: bool = False,
    variants: Tuple[str, ...] = OVERHEAD_VARIANTS,
    repeats: int = OVERHEAD_REPEATS,
) -> Dict[str, Dict[str, Any]]:
    """Run the pinned overhead cell under each variant, best-of-N.

    Besides the timing figures every entry carries
    ``metrics_identical`` — whether all variants produced byte-identical
    :class:`~repro.core.metrics.RunMetrics` (the observe-only contract,
    asserted on real bench traffic, not just the unit suites).
    """
    config = matrix_array_config()
    trace = generate_compiled(overhead_trace_config(quick=quick))
    # One untimed warm-up absorbs cold-start costs (allocator growth,
    # code-object caches, page faults) that would otherwise be billed
    # entirely to whichever variant happens to run first.
    _overhead_run(variants[0], trace, config)
    # Repeats are interleaved round-robin rather than per-variant blocks:
    # a host-speed shift between a "plain" block and a "disabled" block
    # would skew the 2% ratio, while round-robin lets every variant
    # sample the same noise window (best-of-N then pairs fairly).
    best: Dict[str, float] = {}
    events: Dict[str, int] = {}
    requests: Dict[str, int] = {}
    digests: Dict[str, str] = {}
    for _ in range(repeats):
        for variant in variants:
            wall, run_events, metrics = _overhead_run(
                variant, trace, config
            )
            if variant not in best or wall < best[variant]:
                best[variant] = wall
            events[variant] = run_events
            requests[variant] = metrics.requests
            digests[variant] = json.dumps(
                metrics.to_dict(), sort_keys=True
            )
    results: Dict[str, Dict[str, Any]] = {}
    for variant in variants:
        results[f"overhead:{variant}"] = {
            "wall_s": round(best[variant], 4),
            "events": events[variant],
            "events_per_sec": round(events[variant] / best[variant], 1),
            "requests": requests[variant],
            "variant": variant,
            "repeats": repeats,
        }
    reference = next(iter(digests.values()), None)
    identical = all(d == reference for d in digests.values())
    for entry in results.values():
        entry["metrics_identical"] = identical
    return results


def overhead_gate(
    results: Dict[str, Dict[str, Any]],
    max_cost: float = OVERHEAD_MAX_DISABLED_COST,
) -> Optional[Dict[str, Any]]:
    """The family's own gate: disabled instrumentation must be free.

    Returns ``None`` when the family did not run (filtered suites).
    Fails when the ``disabled`` variant's throughput falls more than
    ``max_cost`` below ``plain``, or when any variant broke RunMetrics
    byte-identity.
    """
    plain = results.get("overhead:plain")
    disabled = results.get("overhead:disabled")
    if plain is None or disabled is None:
        return None
    ratio = _rate_of(disabled) / _rate_of(plain)
    identical = all(
        entry.get("metrics_identical", True)
        for name, entry in results.items()
        if name.startswith("overhead:")
    )
    return {
        "disabled_vs_plain": round(ratio, 4),
        "max_cost": max_cost,
        "metrics_identical": identical,
        "passed": ratio >= 1.0 - max_cost and identical,
    }


# ----------------------------------------------------------------------
# cProfile dump of a single scenario (CI artifact for the slowest cell)
# ----------------------------------------------------------------------
def slowest_matrix_scenario(
    results: Dict[str, Dict[str, Any]]
) -> Optional[str]:
    """The ``matrix:*`` scenario with the lowest events/sec, if any ran."""
    rates = {
        name: _rate_of(result)
        for name, result in results.items()
        if name.startswith("matrix:") and _rate_of(result) is not None
    }
    if not rates:
        return None
    return min(rates, key=rates.get)


def profile_scenario(
    name: str, quick: bool = False, top: int = 30
) -> str:
    """Re-run one ``matrix:*`` cell under cProfile; return the stats dump.

    The dump lists the ``top`` functions by cumulative time — the CI
    artifact that answers "where did the regression go" without a local
    reproduction.
    """
    import cProfile
    import io
    import pstats

    family, scheme, workload = name.split(":")
    if family != "matrix":
        raise ValueError(f"can only profile matrix scenarios, not {name!r}")
    trace = generate_compiled(matrix_trace_config(workload, quick=quick))
    profile = cProfile.Profile()
    profile.enable()
    timed_replay(scheme, trace, matrix_array_config())
    profile.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profile, stream=stream)
    stats.sort_stats("cumulative").print_stats(top)
    return f"# cProfile top-{top} (cumulative) for {name}\n" + stream.getvalue()


def scenario_names(quick: bool = False) -> List[str]:
    """Every scenario the suite runs, in execution order."""
    mode = "quick" if quick else "full"
    names = [
        f"compile:synthetic-{HOTPATH_REQUESTS[mode] // 1000}k"
        if quick
        else "compile:synthetic-1m",
        "hotpath:raid10-100k" if quick else "hotpath:raid10-1m",
    ]
    names += [
        f"matrix:{scheme}:{workload}"
        for workload in WORKLOADS
        for scheme in SCHEMES
    ]
    names.append("fault:rolo-p:write-heavy")
    names += [f"overhead:{variant}" for variant in OVERHEAD_VARIANTS]
    names += [f"sweep:matrix-full:jobs{jobs}" for jobs in SWEEP_JOBS]
    return names


def run_suite(
    quick: bool = False,
    only: Optional[Iterable[str]] = None,
    progress=None,
) -> Dict[str, Dict[str, Any]]:
    """Run the pinned matrix and return ``{scenario: result}``.

    ``only`` restricts the run to scenarios whose name contains any of the
    given substrings (used by tests and targeted investigations — a
    filtered report must not be used as a baseline).  ``progress`` is an
    optional callable receiving one line per completed scenario.
    """
    mode = "quick" if quick else "full"
    filters = tuple(only) if only else ()

    def wanted(name: str) -> bool:
        return not filters or any(f in name for f in filters)

    def note(line: str) -> None:
        if progress is not None:
            progress(line)

    results: Dict[str, Dict[str, Any]] = {}
    config = matrix_array_config()

    n = HOTPATH_REQUESTS[mode]
    compile_name = (
        f"compile:synthetic-{n // 1000}k" if quick else "compile:synthetic-1m"
    )
    hotpath_name = "hotpath:raid10-100k" if quick else "hotpath:raid10-1m"
    hotpath_trace = None
    if wanted(compile_name) or wanted(hotpath_name):
        hotpath_trace, compile_result = timed_compile(hotpath_trace_config(n))
        if wanted(compile_name):
            results[compile_name] = compile_result
            note(
                f"{compile_name}: "
                f"{compile_result['records_per_sec']:,.0f} records/s"
            )
    if wanted(hotpath_name):
        results[hotpath_name] = timed_replay("raid10", hotpath_trace, config)
        note(
            f"{hotpath_name}: "
            f"{results[hotpath_name]['events_per_sec']:,.0f} events/s"
        )
    hotpath_trace = None  # release the columns before the matrix

    for workload in WORKLOADS:
        names = [f"matrix:{scheme}:{workload}" for scheme in SCHEMES]
        if not any(wanted(name) for name in names):
            continue
        trace = generate_compiled(matrix_trace_config(workload, quick=quick))
        for scheme, name in zip(SCHEMES, names):
            if not wanted(name):
                continue
            results[name] = timed_replay(
                scheme, trace, config, repeats=MATRIX_REPEATS
            )
            note(f"{name}: {results[name]['events_per_sec']:,.0f} events/s")

    fault_name = "fault:rolo-p:write-heavy"
    if wanted(fault_name):
        trace = generate_compiled(
            matrix_trace_config("write-heavy", quick=quick)
        )
        results[fault_name] = timed_replay(
            "rolo-p",
            trace,
            config,
            fault_spec=f"fail@{FAULT_TIME[mode]:g}:M1",
        )
        note(
            f"{fault_name}: "
            f"{results[fault_name]['events_per_sec']:,.0f} events/s"
        )

    overhead_variants = tuple(
        variant
        for variant in OVERHEAD_VARIANTS
        if wanted(f"overhead:{variant}")
    )
    if overhead_variants:
        for name, result in timed_overhead(
            quick=quick, variants=overhead_variants
        ).items():
            results[name] = result
            note(f"{name}: {result['events_per_sec']:,.0f} events/s")

    for jobs in SWEEP_JOBS:
        name = f"sweep:matrix-full:jobs{jobs}"
        if not wanted(name):
            continue
        results[name] = timed_sweep(jobs, quick=quick)
        note(
            f"{name}: {results[name]['wall_s']:.2f}s wall, "
            f"{results[name]['cells_per_sec']:.2f} cells/s, "
            f"payload {results[name]['payload_bytes_per_cell']} B/cell"
        )
    return results


# ----------------------------------------------------------------------
# Reports, baselines and the regression gate
# ----------------------------------------------------------------------
def build_report(
    results: Dict[str, Dict[str, Any]],
    mode: str,
    comparison: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the JSON report written to ``BENCH_*.json``."""
    report: Dict[str, Any] = {
        "schema": BENCH_SCHEMA_VERSION,
        "mode": mode,
        "scenarios": results,
    }
    if comparison is not None:
        report["comparison"] = comparison
    return report


def write_report(report: Dict[str, Any], path: str) -> str:
    ensure_parent(path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_baseline(path: str) -> Dict[str, Dict[str, Any]]:
    """Read a baseline's scenario map.

    Accepts both full reports (``{"scenarios": {...}}``) and bare
    scenario maps, so historical snapshots remain usable.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict) and isinstance(data.get("scenarios"), dict):
        return data["scenarios"]
    if isinstance(data, dict):
        return data
    raise ValueError(f"{path}: not a bench baseline")


def _rate_of(result: Dict[str, Any]) -> Optional[float]:
    """The scenario's throughput figure (events/records/cells per sec)."""
    for field in ("events_per_sec", "records_per_sec", "cells_per_sec"):
        value = result.get(field)
        if isinstance(value, (int, float)) and value > 0:
            return float(value)
    return None


def compare(
    results: Dict[str, Dict[str, Any]],
    baseline: Dict[str, Dict[str, Any]],
    tolerance: float = DEFAULT_TOLERANCE,
) -> Dict[str, Any]:
    """Per-scenario throughput ratios vs a baseline, plus the gate verdict.

    A scenario *regresses* when its throughput falls below
    ``baseline * (1 - tolerance)``.  Scenarios present on only one side
    are reported but never gate (matrix growth must not break CI).
    """
    scenarios: Dict[str, Any] = {}
    regressions: List[str] = []
    for name in sorted(set(results) | set(baseline)):
        current = results.get(name)
        base = baseline.get(name)
        if current is None or base is None:
            # A scenario absent from the baseline is *new* — bench families
            # can grow without touching the committed baseline in the same
            # change (it never gates either way).
            scenarios[name] = {
                "status": "new" if current else "only-baseline"
            }
            continue
        cur_rate = _rate_of(current)
        base_rate = _rate_of(base)
        if cur_rate is None or base_rate is None:
            scenarios[name] = {"status": "no-rate"}
            continue
        ratio = cur_rate / base_rate
        entry = {
            "current": cur_rate,
            "baseline": base_rate,
            "speedup": round(ratio, 3),
            "status": "ok",
        }
        if ratio < 1.0 - tolerance:
            entry["status"] = "regression"
            regressions.append(name)
        scenarios[name] = entry
    return {
        "tolerance": tolerance,
        "regressions": regressions,
        "passed": not regressions,
        "scenarios": scenarios,
    }


def format_table(
    results: Dict[str, Dict[str, Any]],
    comparison: Optional[Dict[str, Any]] = None,
) -> str:
    """Human-readable scenario table for terminal output."""
    rows = []
    header = ("scenario", "wall s", "throughput", "vs baseline")
    compared = (comparison or {}).get("scenarios", {})
    for name in sorted(results):
        result = results[name]
        rate = _rate_of(result)
        if "records_per_sec" in result:
            unit = "rec/s"
        elif "cells_per_sec" in result:
            unit = "cells/s"
        else:
            unit = "ev/s"
        entry = compared.get(name, {})
        if "speedup" in entry:
            delta = f"{entry['speedup']:.2f}x"
            if entry.get("status") == "regression":
                delta += " REGRESSION"
        elif entry.get("status") == "new":
            delta = "new"
        else:
            delta = "-"
        if rate:
            magnitude = f"{rate:,.0f}" if rate >= 100 else f"{rate:,.2f}"
            rate_text = f"{magnitude} {unit}"
        else:
            rate_text = "-"
        rows.append(
            (
                name,
                f"{result.get('wall_s', 0.0):.2f}",
                rate_text,
                delta,
            )
        )
    widths = [
        max(len(str(row[i])) for row in rows + [header])
        for i in range(len(header))
    ]
    lines = [
        "  ".join(str(col).ljust(widths[i]) for i, col in enumerate(header))
    ]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            "  ".join(str(col).ljust(widths[i]) for i, col in enumerate(row))
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Cross-run trend analysis (``rolo bench trend BENCH_*.json``)
# ----------------------------------------------------------------------
#: A consecutive-run throughput change beyond this fraction is flagged.
TREND_THRESHOLD = 0.10


def trend(
    paths: List[str], threshold: float = TREND_THRESHOLD
) -> Dict[str, Any]:
    """Per-scenario throughput trajectory across an ordered run sequence.

    ``paths`` are BENCH report files in chronological order (oldest
    first).  For every scenario the rate series is extracted via
    :func:`_rate_of`; each consecutive pair of *present* rates is diffed
    and changes beyond ``threshold`` (either direction) are recorded as
    drifts — regressions when throughput fell, improvements when it rose.
    Scenarios absent from a run simply skip it (families grow over time).
    """
    if len(paths) < 2:
        raise ValueError("trend needs at least two bench reports")
    runs = []
    for path in paths:
        runs.append(
            {
                "path": path,
                "label": os.path.splitext(os.path.basename(path))[0],
                "scenarios": load_baseline(path),
            }
        )
    names: set = set()
    for run in runs:
        names.update(run["scenarios"])
    scenarios: Dict[str, Any] = {}
    flagged: List[str] = []
    for name in sorted(names):
        rates: List[Optional[float]] = []
        for run in runs:
            result = run["scenarios"].get(name)
            rates.append(_rate_of(result) if result is not None else None)
        drifts = []
        previous_index: Optional[int] = None
        for index, rate in enumerate(rates):
            if rate is None:
                continue
            if previous_index is not None:
                previous = rates[previous_index]
                change = (rate - previous) / previous
                if abs(change) > threshold:
                    drifts.append(
                        {
                            "from": runs[previous_index]["label"],
                            "to": runs[index]["label"],
                            "change": round(change, 4),
                            "direction": (
                                "regression" if change < 0 else "improvement"
                            ),
                        }
                    )
            previous_index = index
        scenarios[name] = {"rates": rates, "drifts": drifts}
        if any(d["direction"] == "regression" for d in drifts):
            flagged.append(name)
    return {
        "threshold": threshold,
        "runs": [run["label"] for run in runs],
        "scenarios": scenarios,
        "flagged": flagged,
    }


def format_trend(report: Dict[str, Any]) -> str:
    """Terminal table: one scenario per row, one column per run."""
    labels = report["runs"]
    header = ("scenario", *labels, "drift")
    rows = []
    for name in sorted(report["scenarios"]):
        entry = report["scenarios"][name]
        cells = [
            "-" if rate is None else _fmt_rate(rate)
            for rate in entry["rates"]
        ]
        if entry["drifts"]:
            notes = []
            for drift in entry["drifts"]:
                arrow = "v" if drift["direction"] == "regression" else "^"
                notes.append(f"{arrow}{abs(drift['change']) * 100:.1f}%")
            drift_text = " ".join(notes)
        else:
            drift_text = "-"
        rows.append((name, *cells, drift_text))
    widths = [
        max(len(str(row[i])) for row in rows + [header])
        for i in range(len(header))
    ]
    lines = [
        "  ".join(str(col).ljust(widths[i]) for i, col in enumerate(header))
    ]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            "  ".join(str(col).ljust(widths[i]) for i, col in enumerate(row))
        )
    if report["flagged"]:
        lines.append(
            f"flagged regressions (> {report['threshold'] * 100:.0f}%): "
            + ", ".join(report["flagged"])
        )
    else:
        lines.append(
            f"no drifts beyond {report['threshold'] * 100:.0f}% detected"
        )
    return "\n".join(lines)


def _fmt_rate(rate: float) -> str:
    return f"{rate:,.0f}" if rate >= 100 else f"{rate:,.2f}"


def render_trend_html(report: Dict[str, Any]) -> str:
    """Self-contained HTML trend report with inline SVG trajectories.

    Each scenario's rates are normalized to its first present run so
    heterogeneous magnitudes (engine ev/s vs sweep cells/s) share one
    axis; charts are chunked to the SVG palette width.
    """
    from repro.experiments.report import Series
    from repro.experiments.svg import PALETTE, render_chart_svg

    labels = report["runs"]
    series_list = []
    for name in sorted(report["scenarios"]):
        entry = report["scenarios"][name]
        first = next((r for r in entry["rates"] if r is not None), None)
        if not first:
            continue
        series = Series(
            name=name, x_label="run", y_label="relative throughput"
        )
        for index, rate in enumerate(entry["rates"]):
            if rate is not None:
                series.add(index, rate / first)
        series_list.append(series)
    charts = []
    for start in range(0, len(series_list), len(PALETTE)):
        chunk = series_list[start : start + len(PALETTE)]
        charts.append(
            render_chart_svg(
                chunk, f"throughput vs first run ({chunk[0].name} ...)"
            )
        )
    rows = []
    for name in sorted(report["scenarios"]):
        entry = report["scenarios"][name]
        cells = "".join(
            f"<td>{'-' if rate is None else _fmt_rate(rate)}</td>"
            for rate in entry["rates"]
        )
        drift = (
            " ".join(
                f"<span class={drift['direction']!r}>"
                f"{drift['change'] * 100:+.1f}%</span>"
                for drift in entry["drifts"]
            )
            or "-"
        )
        rows.append(f"<tr><td>{name}</td>{cells}<td>{drift}</td></tr>")
    heads = "".join(f"<th>{label}</th>" for label in labels)
    flagged = (
        ", ".join(report["flagged"]) if report["flagged"] else "none"
    )
    return f"""<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>bench trend</title>
<style>
body {{ font-family: -apple-system, sans-serif; margin: 2rem; }}
table {{ border-collapse: collapse; }}
td, th {{ border: 1px solid #ccc; padding: 0.3rem 0.6rem;
          text-align: right; }}
td:first-child, th:first-child {{ text-align: left; }}
.regression {{ color: #c0392b; font-weight: bold; }}
.improvement {{ color: #1e8449; }}
</style></head><body>
<h1>Bench trend</h1>
<p>runs: {" &rarr; ".join(labels)} &middot;
threshold: {report["threshold"] * 100:.0f}% &middot;
flagged regressions: {flagged}</p>
<table><tr><th>scenario</th>{heads}<th>drift</th></tr>
{chr(10).join(rows)}
</table>
{chr(10).join(charts)}
</body></html>
"""


def write_trend_html(report: Dict[str, Any], path: str) -> str:
    ensure_parent(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_trend_html(report))
    return path


# ----------------------------------------------------------------------
# Micro-kernels (wrapped by benchmarks/test_bench_micro.py)
# ----------------------------------------------------------------------
def engine_event_kernel(n_events: int = 10_000) -> int:
    """Schedule + dispatch cost of the event heap."""
    sim = Simulator()
    count = 0

    def tick() -> None:
        nonlocal count
        count += 1
        if count < n_events:
            sim.schedule(0.001, tick)

    sim.schedule(0.0, tick)
    sim.run()
    return count


def timer_rearm_kernel(n_events: int = 100_000) -> Tuple[int, int]:
    """Timer re-arm storm: each event cancels and re-schedules an expiry.

    Exercises lazy deletion, the cancelled census and automatic heap
    compaction.  Returns ``(ticks + expirations, peak_heap)``; only the
    final armed timer ever fires, and compaction keeps ``peak_heap``
    bounded regardless of ``n_events``.
    """
    from repro.sim.engine import Timer

    sim = Simulator()
    count = 0
    fired = 0
    peak_heap = 0

    def on_expire() -> None:
        nonlocal fired
        fired += 1

    timer = Timer(sim, 1.0, on_expire)

    def tick() -> None:
        nonlocal count, peak_heap
        count += 1
        timer.arm()
        if sim.heap_size > peak_heap:
            peak_heap = sim.heap_size
        if count < n_events:
            sim.schedule(0.001, tick)

    sim.schedule(0.0, tick)
    sim.run()
    return count + fired, peak_heap


def disk_random_io_kernel(n_ops: int = 2_000, seed: int = 1) -> int:
    """Full service path of random 64K writes on one disk."""
    from repro.disk.disk import Disk, DiskOp, OpKind
    from repro.disk.models import ULTRASTAR_36Z15

    rng = random.Random(seed)
    sectors = ULTRASTAR_36Z15.capacity_sectors
    offsets = [rng.randrange(sectors - 200) for _ in range(n_ops)]
    sim = Simulator()
    disk = Disk(sim, ULTRASTAR_36Z15, "D")
    for sector in offsets:
        disk.submit(DiskOp(OpKind.WRITE, sector, 64 * KB))
    sim.run()
    return disk.ops_completed


def layout_mapping_kernel(n_extents: int = 5_000, seed: int = 2) -> int:
    """Extent-to-segment mapping throughput on a spread layout."""
    from repro.raid.layout import Raid10Layout

    layout = Raid10Layout(20, 64 * KB, 512 * MB, spread=True)
    rng = random.Random(seed)
    extents = [
        (rng.randrange(layout.logical_capacity - MB), rng.randrange(1, MB))
        for _ in range(n_extents)
    ]
    total = 0
    for offset, nbytes in extents:
        total += len(layout.map_extent(offset, nbytes))
    return total


def logspace_kernel(epochs: int = 8, appends_per_epoch: int = 200) -> int:
    """Log-region append/reclaim churn; returns final used bytes (0)."""
    from repro.core.logspace import LogRegion

    region = LogRegion("bench", 0, 64 * MB)
    for epoch in range(epochs):
        for i in range(appends_per_epoch):
            region.append(32 * KB, {i % 4: 32 * KB}, epoch)
        for pair in range(4):
            region.reclaim(pair, epoch)
    region.reclaim_all()
    return region.used
