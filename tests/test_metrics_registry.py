"""Tests for the metrics registry (``repro.obs.metrics``).

Four pillars from the PR's acceptance criteria:

1. Registry arithmetic — counters, gauge aggregation modes, histogram
   bucket/sum/min/max bookkeeping, and name/label validation.
2. Quantile fidelity — the P² sketches track a sorted-sample ground
   truth within a few percent on a seeded heavy-tailed stream, and the
   bucket-interpolation fallback used after merges stays sane.
3. Merge associativity — worker registries merge into the same snapshot
   regardless of arrival order, which is what lets ``run_grouped``
   fold registries in completion order.
4. The observe-only discipline — metered runs (plain, parallel, and
   fault-injected) produce RunMetrics byte-identical to unmetered runs
   across all five schemes.
"""

import json
import math
import random

import pytest

from repro.experiments.parallel import (
    SweepProgress,
    execute_cells,
)
from repro.experiments.runner import workload_cell
from repro.faults.campaign import fault_cell, run_campaign
from repro.faults.schedule import FaultSchedule
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Gauge,
    MetricCounter,
    MetricHistogram,
    MetricsRegistry,
    P2Quantile,
    active,
    disable,
    enable,
    enabled,
    instrument,
    lint_prometheus,
    log_buckets,
    read_snapshot,
    render_registry,
)

ALL_SCHEMES = ("raid10", "graid", "rolo-p", "rolo-r", "rolo-e")


def _metrics_dump(metrics) -> str:
    """Canonical byte representation of a RunMetrics for equality checks."""
    return json.dumps(metrics.to_dict(), sort_keys=True)


# ----------------------------------------------------------------------
# Registry arithmetic
# ----------------------------------------------------------------------
class TestPrimitives:
    def test_counter_inc_and_negative_rejection(self):
        c = MetricCounter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_modes(self):
        g = Gauge()
        g.set(5.0)
        g.inc(2.0)
        g.dec(3.0)
        assert g.value == 4.0
        g.set_max(10.0)
        g.set_max(7.0)
        assert g.value == 10.0

    def test_log_buckets_monotone(self):
        bounds = log_buckets(1e-4, 1.6, 29)
        assert len(bounds) == 29
        assert all(b < a for b, a in zip(bounds, bounds[1:]))
        assert bounds == DEFAULT_LATENCY_BUCKETS

    def test_histogram_bookkeeping(self):
        h = MetricHistogram(bounds=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(105.0)
        assert h.min == 0.5
        assert h.max == 100.0
        # 0.5 -> bucket le=1.0, 1.5 -> le=2.0, 3.0 -> le=4.0, 100 -> +Inf
        assert list(h.counts) == [1, 1, 1, 1]

    def test_registry_validates_names_and_labels(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad name")
        with pytest.raises(ValueError):
            reg.counter("ok_total", **{"bad label": "x"})
        c1 = reg.counter("ops_total", scheme="RoLo-P")
        c2 = reg.counter("ops_total", scheme="RoLo-P")
        assert c1 is c2
        assert reg.get("ops_total", scheme="RoLo-P") is c1
        assert reg.get("missing_total") is None

    def test_registry_rejects_kind_conflicts(self):
        reg = MetricsRegistry()
        reg.counter("ops_total")
        with pytest.raises(ValueError):
            reg.gauge("ops_total")


# ----------------------------------------------------------------------
# Quantile fidelity
# ----------------------------------------------------------------------
class TestQuantiles:
    def test_p2_exact_below_five_samples(self):
        sketch = P2Quantile(0.5)
        for v in (3.0, 1.0, 2.0):
            sketch.observe(v)
        assert sketch.value() == 2.0

    def test_p2_tracks_sorted_ground_truth(self):
        rng = random.Random(1234)
        samples = [rng.lognormvariate(0.0, 1.0) for _ in range(20000)]
        ordered = sorted(samples)
        for q in (0.5, 0.95, 0.99):
            sketch = P2Quantile(q)
            for v in samples:
                sketch.observe(v)
            truth = ordered[int(q * (len(ordered) - 1))]
            assert sketch.value() == pytest.approx(truth, rel=0.05)

    def test_histogram_quantile_uses_sketch_then_buckets(self):
        rng = random.Random(7)
        bounds = log_buckets(1e-3, 1.3, 40)
        h = MetricHistogram(bounds=bounds)
        samples = [rng.lognormvariate(-2.0, 0.5) for _ in range(5000)]
        for v in samples:
            h.observe(v)
        truth = sorted(samples)[int(0.95 * (len(samples) - 1))]
        assert h.has_sketches
        assert h.quantile(0.95) == pytest.approx(truth, rel=0.05)
        # The bucket fallback is coarser but still within a bucket ratio.
        assert h.bucket_quantile(0.95) == pytest.approx(truth, rel=0.35)
        # Built without sketches: same exact state, bucket quantiles, and
        # the rendered source column says so although it never merged.
        bare = MetricHistogram(bounds=bounds, sketches=False)
        for v in samples:
            bare.observe(v)
        assert not bare.has_sketches
        assert bare.counts == h.counts and bare.count == h.count
        assert (bare.sum, bare.min, bare.max) == (h.sum, h.min, h.max)
        assert bare.quantile(0.95) == h.bucket_quantile(0.95)
        assert bare.to_dict()["sketches"] is None
        for sketches, source in ((True, "p2"), (False, "buckets")):
            reg = MetricsRegistry(sketches=sketches)
            reg.histogram("lat_seconds").observe(0.01)
            row = render_registry(reg).splitlines()[-1]
            assert row.split()[-1] == source

    def test_histogram_bucket_index_matches_linear_scan(self):
        bounds = [0.001, 0.01, 0.1, 1.0]
        h = MetricHistogram(bounds=bounds, sketches=False)
        values = [-1.0, 0.0, 0.0005, 0.001, 0.002, 0.01, 0.5, 1.0, 1.5, 1e9]
        for v in values:
            h.observe(v)
        expected = [0] * (len(bounds) + 1)
        for v in values:
            # Bucket i holds bounds[i-1] < v <= bounds[i]; overflow last.
            index = next(
                (i for i, b in enumerate(bounds) if v <= b), len(bounds)
            )
            expected[index] += 1
        assert h.counts == expected

    def test_p2_dict_roundtrip(self):
        sketch = P2Quantile(0.95)
        rng = random.Random(5)
        for _ in range(100):
            sketch.observe(rng.random())
        clone = P2Quantile.from_dict(sketch.to_dict())
        assert clone.value() == sketch.value()


# ----------------------------------------------------------------------
# Merge
# ----------------------------------------------------------------------
def _make_registry(seed: int) -> MetricsRegistry:
    rng = random.Random(seed)
    reg = MetricsRegistry()
    reg.counter("events_total", scheme="RoLo-P").inc(seed * 10 + 1)
    reg.gauge("peak_depth", agg="max").set(float(seed))
    reg.gauge("in_flight", agg="sum").set(float(seed) + 0.5)
    h = reg.histogram("latency_seconds", buckets=log_buckets(1e-3, 2.0, 12))
    for _ in range(200):
        h.observe(rng.lognormvariate(-3.0, 1.0))
    return reg

def _rounded(value):
    """Round floats to 9 significant digits so merge-order comparisons
    ignore the last-ULP drift of non-associative float addition."""
    if isinstance(value, float):
        return float(f"{value:.9g}")
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return value


def test_merge_is_order_independent():
    dumps = []
    for order in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
        merged = MetricsRegistry()
        for seed in order:
            merged.merge(_make_registry(seed))
        dumps.append(json.dumps(_rounded(merged.to_dict()), sort_keys=True))
    assert dumps[0] == dumps[1] == dumps[2]


def test_merge_sums_counters_and_respects_gauge_agg():
    merged = MetricsRegistry()
    merged.merge(_make_registry(1))
    merged.merge(_make_registry(4))
    assert merged.get("events_total", scheme="RoLo-P").value == 11 + 41
    assert merged.get("peak_depth").value == 4.0  # max agg
    assert merged.get("in_flight").value == 1.5 + 4.5  # sum agg


def test_merged_histograms_drop_sketches_but_keep_exact_moments():
    a = _make_registry(1)
    b = _make_registry(2)
    ha = a.get("latency_seconds")
    hb = b.get("latency_seconds")
    exact = {
        "count": ha.count + hb.count,
        "sum": ha.sum + hb.sum,
        "min": min(ha.min, hb.min),
        "max": max(ha.max, hb.max),
    }
    a.merge(b)
    hm = a.get("latency_seconds")
    assert not hm.has_sketches
    assert hm.count == exact["count"]
    assert hm.sum == pytest.approx(exact["sum"])
    assert hm.min == exact["min"]
    assert hm.max == exact["max"]
    # Quantiles still answer (bucket interpolation) and stay ordered.
    assert 0 < hm.quantile(0.5) <= hm.quantile(0.95) <= hm.quantile(0.99)
    # A sketch-free registry never takes sketches in, not even from the
    # first populated side, yet keeps the same exact moments and buckets.
    bare = MetricsRegistry(sketches=False)
    bare.histogram("latency_seconds", buckets=log_buckets(1e-3, 2.0, 12))
    bare.merge(_make_registry(1))
    assert not bare.get("latency_seconds").has_sketches
    bare.merge(_make_registry(2))
    hb = bare.get("latency_seconds")
    assert not hb.has_sketches
    assert hb.counts == hm.counts
    assert (hb.count, hb.min, hb.max) == (hm.count, hm.min, hm.max)
    assert hb.sum == pytest.approx(exact["sum"])
    copied = MetricsRegistry(sketches=False).merge(_make_registry(1))
    assert not copied.get("latency_seconds").has_sketches
    # A single populated side still hands its sketches to a sketched one.
    fresh = MetricsRegistry().merge(_make_registry(1))
    assert fresh.get("latency_seconds").has_sketches


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
class TestExporters:
    def test_prometheus_output_lints_clean(self):
        reg = _make_registry(3)
        problems = lint_prometheus(reg.to_prometheus())
        assert problems == []

    def test_lint_catches_malformed_exposition(self):
        assert lint_prometheus("no_type_decl 1.0\n")
        assert lint_prometheus(
            "# TYPE x counter\nx{unclosed 1.0\n"
        )

    def test_jsonl_roundtrip_is_exact(self, tmp_path):
        reg = _make_registry(3)
        path = tmp_path / "deep" / "dir" / "metrics.jsonl"
        families = reg.write_jsonl(str(path))
        assert families == 4
        clone = read_snapshot(str(path))
        assert json.dumps(clone.to_dict(), sort_keys=True) == json.dumps(
            reg.to_dict(), sort_keys=True
        )

    def test_read_snapshot_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"record": "family", "name": "x"}\n')
        with pytest.raises(ValueError):
            read_snapshot(str(path))

    def test_render_registry_mentions_every_family(self):
        reg = _make_registry(3)
        text = render_registry(reg)
        for name in (
            "events_total",
            "peak_depth",
            "in_flight",
            "latency_seconds",
        ):
            assert name in text


# ----------------------------------------------------------------------
# Ambient registry
# ----------------------------------------------------------------------
def test_ambient_enable_disable():
    assert active() is None
    reg = enable()
    try:
        assert active() is reg
    finally:
        disable()
    assert active() is None


def test_ambient_enabled_scope_restores_previous():
    outer = enable()
    try:
        with enabled() as inner:
            assert inner is not outer
            assert active() is inner
        assert active() is outer
    finally:
        disable()


# ----------------------------------------------------------------------
# Observe-only discipline: metered == unmetered, byte for byte
# ----------------------------------------------------------------------
class TestByteIdenticalRunMetrics:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_metered_run_matches_plain_run(self, scheme):
        cell = workload_cell(
            scheme, "wdev_0", scale=0.02, n_pairs=4, seed=3
        )
        plain = cell.execute()
        metered, registry = cell.execute_metered()
        assert _metrics_dump(metered) == _metrics_dump(plain)
        # The registry actually observed the run.
        events = [
            inst
            for name, _labels, inst in registry.samples()
            if name == "sim_events_total"
        ]
        assert events and events[0].value > 0

    @pytest.mark.parametrize("scheme", ("rolo-p", "raid10"))
    def test_metered_faulted_run_matches_plain(self, scheme):
        schedule = FaultSchedule.single_failure("P0", 50.0, rebuild=True)
        cell = fault_cell(
            scheme, "wdev_0", schedule, scale=0.02, n_pairs=4, seed=3
        )
        plain = cell.execute()
        metered, registry = cell.execute_metered()
        assert json.dumps(
            metered.to_dict(), sort_keys=True
        ) == json.dumps(plain.to_dict(), sort_keys=True)
        events = [
            inst
            for name, _labels, inst in registry.samples()
            if name == "sim_events_total"
        ]
        assert events and events[0].value > 0

    def test_instrument_with_no_registry_is_inert(self, sim):
        from repro.core import build_controller
        from tests.conftest import small_config

        controller = build_controller("raid10", sim, small_config())
        with instrument(sim, controller) as handle:
            assert handle is None
        assert sim._event_hook is None

    def test_parallel_metered_sweep_merges_worker_registries(self):
        cells = [
            workload_cell(s, "wdev_0", scale=0.01, n_pairs=2, seed=5)
            for s in ("raid10", "rolo-p", "graid")
        ]
        stats = execute_cells(cells, jobs=2, collect_metrics=True)
        assert stats.computed == 3
        reg = stats.metrics
        worker_cells = [
            inst
            for name, _labels, inst in reg.samples()
            if name == "sweep_worker_cells_total"
        ]
        assert sum(inst.value for inst in worker_cells) == 3
        # Sweep wall-time histogram saw one observation per cell.
        wall = [
            inst
            for name, _labels, inst in reg.samples()
            if name == "sweep_cell_wall_seconds"
        ]
        assert sum(inst.count for inst in wall) == 3
        # Metered parallel results equal plain serial results.
        for cell in cells:
            from repro.experiments import runner

            cached = runner.lookup_cached(cell.key())
            assert _metrics_dump(cached) == _metrics_dump(cell.execute())

    def test_metered_campaign_merges_and_stays_identical(self):
        schedule = FaultSchedule.single_failure("P0", 20.0, rebuild=True)
        cells = [
            fault_cell(
                s, "wdev_0", schedule, scale=0.01, n_pairs=2, seed=5
            )
            for s in ("raid10", "rolo-p")
        ]
        progress = SweepProgress(min_interval=0.0)
        results = run_campaign(
            cells, jobs=1, progress=progress, collect_metrics=True
        )
        assert len(results) == 2
        plain = [cell.execute() for cell in cells]
        for got, want in zip(results, plain):
            assert json.dumps(
                got.to_dict(), sort_keys=True
            ) == json.dumps(want.to_dict(), sort_keys=True)


# ----------------------------------------------------------------------
# Harvest-based metering: the work it should do, and no more
# ----------------------------------------------------------------------
#: Families that time the host or the dispatcher, not the simulation.
_HOST_FAMILIES = ("sim_wall_seconds", "sweep_", "shm_attach_")


def _sim_series(registry: MetricsRegistry):
    return {
        (name, tuple(sorted(labels.items()))): inst
        for name, labels, inst in registry.samples()
        if not name.startswith(_HOST_FAMILIES)
    }


def _assert_same_sim_metrics(a: MetricsRegistry, b: MetricsRegistry):
    """Equal registries up to float summation order (rel 1e-12)."""
    sa, sb = _sim_series(a), _sim_series(b)
    assert sorted(sa) == sorted(sb)
    for key, x in sa.items():
        y = sb[key]
        if isinstance(x, MetricHistogram):
            assert x.counts == y.counts, key
            assert x.count == y.count, key
            assert (x.min, x.max) == (y.min, y.max), key
            assert x.sum == pytest.approx(y.sum, rel=1e-12), key
            assert x.to_dict()["sketches"] == y.to_dict()["sketches"], key
        else:
            assert x.value == pytest.approx(y.value, rel=1e-12), key


@pytest.fixture
def _no_result_caches():
    from repro.experiments import cache as result_cache
    from repro.experiments import runner
    from repro.faults.campaign import clear_memo

    def _clear():
        runner.clear_cache()
        clear_memo()

    result_cache.configure(enabled=False)
    _clear()
    yield _clear
    _clear()


def _sweep_cells():
    return [
        workload_cell(s, "wdev_0", scale=0.01, n_pairs=2, seed=seed)
        for s in ("raid10", "rolo-p")
        for seed in (5, 6)
    ]


def _campaign_cells():
    return [
        fault_cell(
            s,
            "wdev_0",
            FaultSchedule.single_failure("P0", t, rebuild=True),
            scale=0.01,
            n_pairs=2,
            seed=5,
        )
        for s in ("raid10", "rolo-p")
        for t in (10.0, 20.0)
    ]


class TestHarvestedMetering:
    def test_metered_sweep_is_jobs_independent(self, _no_result_caches):
        serial = execute_cells(_sweep_cells(), jobs=1, collect_metrics=True)
        _no_result_caches()
        pooled = execute_cells(_sweep_cells(), jobs=2, collect_metrics=True)
        assert serial.computed == pooled.computed == 4
        _assert_same_sim_metrics(serial.metrics, pooled.metrics)

    def test_metered_campaign_is_jobs_independent(self, _no_result_caches):
        serial = MetricsRegistry(sketches=False)
        run_campaign(
            _campaign_cells(), jobs=1, collect_metrics=True, registry=serial
        )
        _no_result_caches()
        pooled = MetricsRegistry(sketches=False)
        run_campaign(
            _campaign_cells(), jobs=2, collect_metrics=True, registry=pooled
        )
        _assert_same_sim_metrics(serial, pooled)

    def test_sweeps_make_no_p2_observations(
        self, monkeypatch, _no_result_caches
    ):
        from repro.experiments.parallel import _compute_cell_metered
        from repro.faults.campaign import _compute_fault_cell_metered

        calls = []
        original = P2Quantile.observe

        def counting(self, value):
            calls.append(value)
            original(self, value)

        monkeypatch.setattr(P2Quantile, "observe", counting)
        cells = _sweep_cells()[:2]
        faults = _campaign_cells()[:2]
        stats = execute_cells(cells, jobs=1, collect_metrics=True)
        campaign = MetricsRegistry(sketches=False)
        run_campaign(faults, jobs=1, collect_metrics=True, registry=campaign)
        # The pool workers' entry points, run in-process.
        payloads = [_compute_cell_metered(cells[0], None)]
        payloads.append(_compute_fault_cell_metered(faults[0]))
        assert calls == []
        registries = [stats.metrics, campaign] + [
            MetricsRegistry.from_dict(p["registry"]) for p in payloads
        ]
        for registry in registries:
            histograms = [
                inst
                for _, _, inst in registry.samples()
                if isinstance(inst, MetricHistogram)
            ]
            assert histograms
            assert not any(h.has_sketches for h in histograms)
        # A single metered run keeps its sketches.
        _, single = cells[0].execute_metered()
        assert calls
        latency = [
            inst
            for name, _, inst in single.samples()
            if name == "request_latency_seconds" and inst.count
        ]
        assert latency and all(h.has_sketches for h in latency)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_event_label_series_sum_to_events_total(self, scheme):
        cell = workload_cell(scheme, "wdev_0", scale=0.01, n_pairs=2, seed=3)
        _, registry = cell.execute_metered()
        by_label = [
            inst.value
            for name, _, inst in registry.samples()
            if name == "sim_events_by_label_total"
        ]
        total = registry.get(
            "sim_events_total", scheme=_scheme_of(registry)
        ).value
        assert len(by_label) > 1
        assert sum(by_label) == total > 0

    def test_rebuild_replacement_ops_are_metered(self, monkeypatch):
        from repro.core.base import Controller

        made = []
        original = Controller._make_disk

        def recording(self, name, standby=False):
            disk = original(self, name, standby)
            made.append(disk)
            return disk

        monkeypatch.setattr(Controller, "_make_disk", recording)
        schedule = FaultSchedule.single_failure("P0", 20.0, rebuild=True)
        cell = fault_cell(
            "raid10", "wdev_0", schedule, scale=0.02, n_pairs=4, seed=3
        )
        _, registry = cell.execute_metered()
        replacement = [d for d in made if d.name == "P0-new"]
        assert replacement and replacement[0].ops_completed > 0
        scheme = _scheme_of(registry)
        ops = {
            priority: registry.get(
                "disk_ops_total", priority=priority, scheme=scheme
            ).value
            for priority in ("foreground", "background")
        }
        served = sum(
            inst.count
            for name, _, inst in registry.samples()
            if name == "disk_service_time_seconds"
        )
        completed = sum(d.ops_completed for d in made)
        assert ops["foreground"] == sum(d.foreground_ops for d in made)
        assert ops["background"] == sum(d.background_ops for d in made)
        assert sum(ops.values()) == completed == served
        # Teardown detached the observer from every disk, swapped-out
        # failed disk and replacement included.
        assert all(d.op_observer is None for d in made)


def _scheme_of(registry: MetricsRegistry) -> str:
    for name, labels, _ in registry.samples():
        if name == "sim_events_total":
            return labels["scheme"]
    raise AssertionError("registry has no sim_events_total series")


# ----------------------------------------------------------------------
# Sweep progress rendering
# ----------------------------------------------------------------------
class _FakeStream:
    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)

    def flush(self):
        pass

    def isatty(self):
        return True


def test_sweep_progress_renders_rate_and_eta():
    stream = _FakeStream()
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    progress = SweepProgress(
        stream=stream, min_interval=0.0, clock=lambda: next(ticks)
    )
    progress.start(4, done=1)
    for label in ("a", "b", "c"):
        progress(label)
    progress.finish()
    text = "".join(stream.chunks)
    assert "[4/4]" in text
    assert "100.0%" in text
    assert "cells/s" in text
    assert text.endswith("\n")


def test_sweep_progress_throttles(monkeypatch):
    stream = _FakeStream()
    progress = SweepProgress(
        stream=stream, min_interval=100.0, clock=lambda: 1.0
    )
    progress.start(10)
    progress("one")  # first update always draws
    emitted = len(stream.chunks)
    progress("two")
    progress("three")
    # Updates inside the throttle window draw nothing new.
    assert len(stream.chunks) == emitted
    progress.finish()
    assert stream.chunks[-1] == "\n" or stream.chunks[-1].endswith("\n")


# ----------------------------------------------------------------------
# Satellites: sampler export dirs, shm attach stats
# ----------------------------------------------------------------------
def test_sampler_exports_create_parent_dirs(tmp_path, sim):
    from repro.core import build_controller
    from repro.obs.sampler import TimeSeriesSampler
    from tests.conftest import small_config

    controller = build_controller("raid10", sim, small_config())
    sampler = TimeSeriesSampler(sim, controller, interval=1.0)
    sampler.samples.append(sampler.observe())
    jsonl = tmp_path / "a" / "b" / "samples.jsonl"
    csv = tmp_path / "c" / "d" / "samples.csv"
    assert sampler.to_jsonl(str(jsonl)) == 1
    assert sampler.to_csv(str(csv)) == 1
    assert jsonl.exists() and csv.exists()


def test_sampler_rejects_nonpositive_interval(sim):
    from repro.core import build_controller
    from repro.obs.sampler import TimeSeriesSampler
    from tests.conftest import small_config

    controller = build_controller("raid10", sim, small_config())
    with pytest.raises(ValueError):
        TimeSeriesSampler(sim, controller, interval=0.0)


def test_shm_attach_stats_counts_hits_and_misses():
    from repro.traces import shm

    before = shm.attach_stats()
    assert set(before) == {"hits", "misses"}
    trace = workload_cell(
        "raid10", "wdev_0", scale=0.01, n_pairs=2, seed=5
    ).build_trace()
    with shm.SharedTraceStore() as store:
        ref = store.publish(trace)
        shm.attach_cached(ref)
        mid = shm.attach_stats()
        assert mid["misses"] == before["misses"] + 1
        shm.attach_cached(ref)
        after = shm.attach_stats()
        assert after["hits"] == mid["hits"] + 1
    shm.detach_all()
