"""Process-pool execution of experiment cells.

The experiment matrix is the repo's dominant compute cost; this module
fans its cells out over a :class:`concurrent.futures.ProcessPoolExecutor`.
Workers execute cells *outside* every cache layer and ship their metrics
back as plain dicts (:meth:`RunMetrics.to_dict`); the parent installs the
results into the in-memory memo and the persistent cache.  Because the
dict round-trip is exact and each cell's simulation is single-threaded and
seeded, parallel runs are bit-for-bit identical to serial ones.

Trace bytes cross the process boundary **once per distinct trace**, not
once per cell: the parent builds each distinct trace (``Cell.trace_key``
groups cells that replay identical traces), publishes its columns into a
:class:`~repro.traces.shm.SharedTraceStore` segment, and submits cells
with a tiny :class:`~repro.traces.shm.TraceRef`.  Workers attach the
segment zero-copy behind the ordinary ``CompiledTrace`` surface and
memoize attachments per process, so consecutive same-trace cells pay
nothing.  Dispatch is locality-aware: pending cells are ordered so
same-trace cells are contiguous, and a bounded in-flight window hands
work out dynamically, keeping the submission queue short enough that
contiguous (warm) cells reach workers in order.

``jobs=1`` never touches the pool: cached/pending cells are only counted,
and the experiment's own serial code path performs the computations —
today's behavior, preserved exactly.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.metrics import RunMetrics
from repro.experiments import runner
from repro.experiments.runner import Cell
from repro.obs.metrics import MetricsRegistry, log_buckets
from repro.obs.profiler import CellProfile, ProfileReport
from repro.traces import shm
from repro.traces.shm import SharedTraceStore, TraceRef

#: Wall-clock buckets for per-cell dispatch histograms: 1 ms – ~9 min.
CELL_WALL_BUCKETS = log_buckets(1e-3, 2.0, 19)


def default_jobs() -> int:
    """Worker count when ``--jobs`` is not given.

    Respects the CPU *affinity mask* where the platform exposes one
    (``os.sched_getaffinity``), so a containerized run pinned to 2 of 64
    cores starts 2 workers, not 64.  Falls back to ``os.cpu_count()``.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        try:
            count = len(affinity(0))
        except OSError:  # pragma: no cover - platform quirk
            count = 0
        if count:
            return count
    return os.cpu_count() or 1


class CellExecutionError(RuntimeError):
    """A pool worker failed while computing one cell.

    Raised in the parent with the failing cell's human-readable label;
    the worker's original exception is chained as ``__cause__``.  By the
    time this propagates, outstanding futures have been cancelled, the
    pool has been shut down, and every shared-memory segment unlinked.
    """

    def __init__(self, label: str, cause: BaseException) -> None:
        super().__init__(f"cell {label!r} failed: {cause!r}")
        self.label = label


@dataclasses.dataclass
class CellExecution:
    """Outcome summary of one :func:`execute_cells` invocation."""

    total: int = 0
    unique: int = 0
    cached: int = 0
    computed: int = 0
    jobs: int = 1
    #: Per-cell timing, present when ``collect_profiles=True`` was passed.
    profiles: Optional[ProfileReport] = None
    #: Merged worker + dispatcher metrics, present when
    #: ``collect_metrics=True`` was passed.
    metrics: Optional[MetricsRegistry] = None

    def merged(self, other: "CellExecution") -> "CellExecution":
        profiles = None
        if self.profiles is not None or other.profiles is not None:
            profiles = ProfileReport()
            for report in (self.profiles, other.profiles):
                if report is not None:
                    profiles.cells.extend(report.cells)
            profiles.finalize()
        metrics = None
        if self.metrics is not None or other.metrics is not None:
            metrics = MetricsRegistry(sketches=False)
            for registry in (self.metrics, other.metrics):
                if registry is not None:
                    metrics.merge(registry)
        return CellExecution(
            total=self.total + other.total,
            unique=self.unique + other.unique,
            cached=self.cached + other.cached,
            computed=self.computed + other.computed,
            jobs=max(self.jobs, other.jobs),
            profiles=profiles,
            metrics=metrics,
        )


def _worker_init() -> None:
    """Pool initializer: pre-import the simulation stack.

    With ``fork`` this is a no-op (the child inherits the parent's
    modules); under ``spawn`` it front-loads the import cost once per
    worker instead of on the first submitted cell.
    """
    import repro.core  # noqa: F401
    import repro.experiments.runner  # noqa: F401
    import repro.traces.shm  # noqa: F401
    import repro.verify  # noqa: F401


def _compute_cell(cell: Cell, ref: Optional[TraceRef]) -> Dict[str, Any]:
    """Worker entry point: run one cell, return its serialized metrics."""
    trace = shm.attach_cached(ref) if ref is not None else None
    return cell.execute(trace=trace).to_dict()


def _compute_cell_profiled(
    cell: Cell, ref: Optional[TraceRef]
) -> Dict[str, Any]:
    """Worker entry point with per-cell timing attached."""
    trace = shm.attach_cached(ref) if ref is not None else None
    metrics, profile = cell.execute_profiled(trace=trace)
    return {"metrics": metrics.to_dict(), "profile": profile.to_dict()}


def _compute_cell_metered(
    cell: Cell, ref: Optional[TraceRef]
) -> Dict[str, Any]:
    """Worker entry point with a sketch-free registry instrumented in."""
    trace = shm.attach_cached(ref) if ref is not None else None
    metrics, registry = cell.execute_metered(
        trace=trace, registry=MetricsRegistry(sketches=False)
    )
    return {"metrics": metrics.to_dict(), "registry": registry.to_dict()}


def _telemetry_worker(
    worker: Callable[..., Dict[str, Any]], cell: Any, ref: Optional[TraceRef]
) -> Dict[str, Any]:
    """Envelope any worker entry point with dispatcher telemetry.

    Reports the worker pid, per-cell wall clock, and the shm attach-memo
    hit/miss delta this cell caused — the raw material for the end-of-
    sweep utilization table.  ``worker`` stays a module-level function, so
    the pair pickles like a direct submission.
    """
    before = shm.attach_stats()
    started = time.perf_counter()
    payload = worker(cell, ref)
    wall = time.perf_counter() - started
    after = shm.attach_stats()
    return {
        "payload": payload,
        "telemetry": {
            "pid": os.getpid(),
            "wall_s": wall,
            "attach_hits": after["hits"] - before["hits"],
            "attach_misses": after["misses"] - before["misses"],
        },
    }


def _record_telemetry(
    registry: MetricsRegistry, telemetry: Dict[str, Any], inflight: int
) -> None:
    """Fold one cell's dispatch envelope into the sweep registry."""
    worker = str(telemetry["pid"])
    registry.counter(
        "sweep_worker_cells_total", "cells completed per pool worker",
        worker=worker,
    ).inc()
    registry.counter(
        "sweep_worker_busy_seconds_total",
        "wall-clock busy time per pool worker",
        worker=worker,
    ).inc(telemetry["wall_s"])
    registry.histogram(
        "sweep_cell_wall_seconds", "per-cell wall clock in the pool",
        buckets=CELL_WALL_BUCKETS,
    ).observe(telemetry["wall_s"])
    hits = telemetry.get("attach_hits", 0)
    misses = telemetry.get("attach_misses", 0)
    if hits:
        registry.counter(
            "shm_attach_hits_total", "shared-trace attach memo hits",
            worker=worker,
        ).inc(hits)
    if misses:
        registry.counter(
            "shm_attach_misses_total", "shared-trace segment attaches",
            worker=worker,
        ).inc(misses)
    registry.gauge(
        "sweep_inflight_window_peak",
        "peak submitted-but-unfinished futures",
        agg="max",
    ).set_max(float(inflight))


def run_grouped(
    pending: List[Tuple[Any, Any]],
    jobs: int,
    worker: Callable[..., Dict[str, Any]],
    handle: Callable[[Any, Any, Dict[str, Any]], None],
    telemetry: Optional[MetricsRegistry] = None,
) -> None:
    """Locality-aware pool dispatch shared by experiments and campaigns.

    ``pending`` is ``[(key, cell), ...]`` where every cell exposes
    ``trace_key()`` / ``build_trace()`` / ``label()``.  The parent builds
    each distinct trace once, publishes it to a :class:`SharedTraceStore`,
    orders cells so same-trace groups are contiguous, and keeps at most
    ``2 * workers`` futures in flight (dynamic hand-out: one new
    submission per completion).  ``handle(key, cell, payload)`` runs in
    the parent per completed cell.

    With a ``telemetry`` registry, every submission is wrapped in
    :func:`_telemetry_worker` and the parent records dispatcher metrics
    (per-worker cells/busy-seconds, cell wall-clock histogram, shm attach
    hit/miss, in-flight window peak); ``handle`` still receives the bare
    payload.

    Error handling: a worker exception cancels all outstanding futures,
    shuts the pool down, unlinks every segment, and raises
    :class:`CellExecutionError` naming the failing cell.  A
    ``KeyboardInterrupt`` in the parent performs the same cleanup and
    re-raises, so neither the pool nor ``/dev/shm`` segments leak.
    """
    use_shm = shm.available()
    with SharedTraceStore() if use_shm else _NullStore() as store:
        refs: Dict[Tuple, Optional[TraceRef]] = {}
        groups: Dict[Optional[str], List[Tuple[Any, Any, Optional[TraceRef]]]] = {}
        for key, cell in pending:
            tkey = cell.trace_key()
            if tkey not in refs:
                refs[tkey] = (
                    store.publish(cell.build_trace()) if use_shm else None
                )
            ref = refs[tkey]
            group_id = ref.trace_hash if ref is not None else None
            groups.setdefault(group_id, []).append((key, cell, ref))
        queue = deque(
            item for group in groups.values() for item in group
        )

        workers = min(jobs, len(queue))
        window = 2 * workers
        futures: Dict[Future, Tuple[Any, Any]] = {}
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_worker_init
        ) as pool:
            def _submit_next() -> None:
                if queue:
                    key, cell, ref = queue.popleft()
                    if telemetry is not None:
                        future = pool.submit(
                            _telemetry_worker, worker, cell, ref
                        )
                    else:
                        future = pool.submit(worker, cell, ref)
                    futures[future] = (key, cell)

            try:
                for _ in range(min(window, len(queue))):
                    _submit_next()
                while futures:
                    done, _ = wait(futures, return_when=FIRST_COMPLETED)
                    for future in done:
                        key, cell = futures.pop(future)
                        try:
                            payload = future.result()
                        except KeyboardInterrupt:
                            raise
                        except BaseException as exc:
                            raise CellExecutionError(
                                cell.label(), exc
                            ) from exc
                        if telemetry is not None:
                            _record_telemetry(
                                telemetry,
                                payload["telemetry"],
                                len(futures) + 1,
                            )
                            payload = payload["payload"]
                        handle(key, cell, payload)
                        _submit_next()
            except BaseException:
                queue.clear()
                for future in futures:
                    future.cancel()
                pool.shutdown(wait=True, cancel_futures=True)
                raise


class _NullStore:
    """Stand-in store when shared memory is unavailable: cells ship whole."""

    def __enter__(self) -> "_NullStore":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


def execute_cells(
    cells: Iterable[Cell],
    jobs: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    collect_profiles: bool = False,
    collect_metrics: bool = False,
    registry: Optional[MetricsRegistry] = None,
) -> CellExecution:
    """Ensure every cell's result is cached, computing misses in parallel.

    Duplicate cells (same canonical key) are computed once.  With
    ``jobs=1`` nothing is computed here — the caller's serial path does it
    — but the cached/pending census is still reported.

    With ``collect_profiles=True`` each computed cell additionally returns
    a :class:`CellProfile` (wall time, event count, simulated time);
    cached cells appear in the report with ``source="cached"`` and no
    timing.  Profiling changes nothing about the metrics: workers still
    ship exact ``RunMetrics.to_dict()`` payloads.  To keep the report
    complete, profiling forces pending cells to be computed here even at
    ``jobs=1`` (serially, in-process).

    With ``collect_metrics=True`` each computed cell is metered into its
    own fresh sketch-free registry (latency/power histograms, controller
    counters; ``MetricsRegistry(sketches=False)``), which then merges
    into ``stats.metrics`` — order-independent, see
    :meth:`MetricsRegistry.merge`, so ``jobs=1`` and ``jobs=N`` give the
    same registry up to float summation order.  The pool dispatch itself
    is metered too (per-worker throughput, shm attach locality, in-flight
    window).  Histogram quantiles come from bucket interpolation.
    Metering observes only: the ``RunMetrics`` payloads stay
    byte-identical.  Like profiling, it forces pending cells to be
    computed here even at ``jobs=1``.
    """
    if collect_profiles and collect_metrics:
        raise ValueError(
            "collect_profiles and collect_metrics are mutually exclusive"
        )
    if jobs is None:
        jobs = default_jobs()
    cell_list = list(cells)
    stats = CellExecution(total=len(cell_list), jobs=jobs)
    report = ProfileReport() if collect_profiles else None
    if collect_metrics:
        stats.metrics = (
            registry if registry is not None
            else MetricsRegistry(sketches=False)
        )

    unique: Dict[Tuple, Cell] = {}
    for cell in cell_list:
        unique.setdefault(cell.key(), cell)
    stats.unique = len(unique)

    pending: List[Tuple[Tuple, Cell]] = []
    for key, cell in unique.items():
        if runner.lookup_cached(key) is not None:
            stats.cached += 1
            if report is not None:
                report.add(CellProfile(label=cell.label(), source="cached"))
        else:
            pending.append((key, cell))

    if isinstance(progress, SweepProgress):
        progress.start(stats.unique, done=stats.cached)

    def _note(key: Tuple, cell: Cell) -> None:
        stats.computed += 1
        if progress is not None:
            label = (
                f"{cell.scheme} x "
                f"{cell.workload or getattr(cell.trace_config, 'name', '?')}"
            )
            if isinstance(progress, SweepProgress):
                # The renderer prefixes its own [done/total] counter.
                progress(label)
            else:
                progress(
                    f"[{stats.computed + stats.cached}/{stats.unique}] "
                    f"{label}"
                )

    if pending and jobs == 1 and collect_profiles:
        # Serial profiled path: compute in-process so the caller's later
        # serial pass hits the cache and the report covers every cell.
        for key, cell in pending:
            metrics, profile = cell.execute_profiled()
            runner.install_result(key, metrics)
            report.add(profile)
            _note(key, cell)
    elif pending and jobs == 1 and collect_metrics:
        # Serial metered path, same rationale as the profiled one; each
        # cell gets its own registry, exactly as in a pool worker.
        for key, cell in pending:
            metrics, cell_registry = cell.execute_metered(
                registry=MetricsRegistry(sketches=False)
            )
            stats.metrics.merge(cell_registry)
            runner.install_result(key, metrics)
            _note(key, cell)
    elif pending and jobs > 1:
        if collect_profiles:
            worker = _compute_cell_profiled
        elif collect_metrics:
            worker = _compute_cell_metered
        else:
            worker = _compute_cell

        def _handle(key: Tuple, cell: Cell, payload: Dict[str, Any]) -> None:
            if collect_profiles:
                metrics = RunMetrics.from_dict(payload["metrics"])
                report.add(CellProfile.from_dict(payload["profile"]))
            elif collect_metrics:
                metrics = RunMetrics.from_dict(payload["metrics"])
                stats.metrics.merge(
                    MetricsRegistry.from_dict(payload["registry"])
                )
            else:
                metrics = RunMetrics.from_dict(payload)
            runner.install_result(key, metrics)
            _note(key, cell)

        run_grouped(pending, jobs, worker, _handle, telemetry=stats.metrics)

    if report is not None:
        report.finalize()
        stats.profiles = report
    if isinstance(progress, SweepProgress):
        progress.finish()
    return stats


class SweepProgress:
    """Throttled single-line progress/ETA renderer for long sweeps.

    Drop-in for the ``progress`` callback of :func:`execute_cells` and
    :func:`~repro.faults.campaign.run_campaign`: each call marks one cell
    done and (at most every ``min_interval`` seconds) redraws one
    ``\\r``-terminated status line with percent complete, throughput, and
    the remaining-time estimate.  :meth:`finish` ends the line, so later
    output starts clean.
    """

    def __init__(
        self,
        stream=None,
        min_interval: float = 0.2,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self._clock = clock
        self.total = 0
        self.done = 0
        self._initial_done = 0
        self._started = clock()
        self._last_emit = -float("inf")
        self._dirty = False
        self._width = 0

    def start(self, total: int, done: int = 0) -> None:
        """Reset for a sweep of ``total`` cells, ``done`` already cached."""
        self.total = total
        self.done = done
        self._initial_done = done
        self._started = self._clock()
        self._last_emit = -float("inf")

    def __call__(self, message: str = "") -> None:
        self.done += 1
        now = self._clock()
        if (
            now - self._last_emit < self.min_interval
            and self.done < self.total
        ):
            return
        self._last_emit = now
        self._emit(message, now)

    def _emit(self, message: str, now: float) -> None:
        computed = self.done - self._initial_done
        elapsed = now - self._started
        rate = computed / elapsed if elapsed > 0 else 0.0
        remaining = max(0, self.total - self.done)
        if rate > 0:
            eta = _fmt_duration(remaining / rate)
        else:
            eta = "?"
        pct = 100.0 * self.done / self.total if self.total else 100.0
        line = (
            f"[{self.done}/{self.total}] {pct:5.1f}%  "
            f"{rate:6.2f} cells/s  eta {eta}"
        )
        if message:
            line += f"  {message}"
        pad = max(0, self._width - len(line))
        self._width = len(line)
        self.stream.write("\r" + line + " " * pad)
        self.stream.flush()
        self._dirty = True

    def finish(self) -> None:
        """Terminate the status line (idempotent)."""
        if self._dirty:
            self.stream.write("\n")
            self.stream.flush()
            self._dirty = False


def _fmt_duration(seconds: float) -> str:
    seconds = int(round(seconds))
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"
