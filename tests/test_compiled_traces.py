"""Tests for the columnar trace representation.

The load-bearing property is that :func:`generate_compiled` stores the
generator's ``_iter_events`` stream verbatim: every column cell equals the
matching field of the matching ``(time, is_write, offset, size)`` tuple.
Everything else — hashing, the row surface, cache keys — builds on that.
"""

import pytest

from repro.raid.request import RequestKind
from repro.traces import (
    TRACE_COMPILER_VERSION,
    Burstiness,
    CompiledTrace,
    SyntheticTraceConfig,
    TraceRecord,
    compiled_from_events,
    generate_compiled,
)
from repro.traces.synthetic import _aligned_footprint, _iter_events

KB = 1024
MB = 1024 * KB


def _configs():
    """A spread of configs exercising every generator feature."""
    return [
        SyntheticTraceConfig(
            duration_s=20.0, iops=50, seed=7, name="plain", footprint_bytes=64 * MB
        ),
        SyntheticTraceConfig(
            duration_s=20.0,
            iops=80,
            write_ratio=0.6,
            size_sigma=0.5,
            burstiness=Burstiness.HIGH,
            burst_cycle_s=5.0,
            seed=11,
            name="bursty",
            footprint_bytes=64 * MB,
        ),
        SyntheticTraceConfig(
            duration_s=20.0,
            iops=60,
            write_ratio=0.5,
            read_locality=0.8,
            read_session_fraction=0.5,
            read_session_cycle_s=4.0,
            hotspot_fraction=0.7,
            hotspot_span=0.05,
            seed=13,
            name="sessions",
            footprint_bytes=64 * MB,
        ),
    ]


def _rows(events):
    """``(time, is_write, offset, size)`` tuples as TraceRecord rows."""
    return [
        TraceRecord(
            t, RequestKind.WRITE if is_write else RequestKind.READ, offset, size
        )
        for t, is_write, offset, size in events
    ]


@pytest.mark.parametrize("config", _configs(), ids=lambda c: c.name)
def test_generate_compiled_matches_iter_events(config):
    events = list(_iter_events(config))
    compiled = generate_compiled(config)
    assert isinstance(compiled, CompiledTrace)
    assert len(compiled) == len(events) > 0
    assert compiled.name == config.name
    assert compiled.footprint_bytes == _aligned_footprint(config)
    assert compiled.duration == events[-1][0]
    for i, (t, is_write, offset, size) in enumerate(events):
        assert compiled.arrivals[i] == t
        assert compiled.offsets[i] == offset
        assert compiled.sizes[i] == size
        assert compiled.kinds[i] == (1 if is_write else 0)


def test_drop_in_trace_surface():
    # Iteration and indexing return TraceRecord rows equal to the events.
    config = _configs()[0]
    rows = _rows(_iter_events(config))
    compiled = generate_compiled(config)
    assert list(compiled) == rows
    assert compiled[0] == rows[0]
    assert compiled[len(compiled) - 1] == rows[-1]
    assert isinstance(compiled[0], TraceRecord)


def test_events_round_trip():
    # Rebuilding a trace from its own rows reproduces it exactly.
    config = _configs()[1]
    compiled = generate_compiled(config)
    rebuilt = compiled_from_events(
        ((r.timestamp, r.is_write, r.offset, r.nbytes) for r in compiled),
        name=compiled.name,
        footprint_bytes=compiled.footprint_bytes,
    )
    assert list(rebuilt) == _rows(_iter_events(config))
    assert rebuilt.content_hash() == compiled.content_hash()


def test_content_hash_stability_and_sensitivity():
    config = _configs()[0]
    a = generate_compiled(config)
    b = generate_compiled(config)
    assert a.content_hash() == b.content_hash()

    import dataclasses

    other = generate_compiled(dataclasses.replace(config, seed=config.seed + 1))
    assert other.content_hash() != a.content_hash()

    # Mutating a single cell changes the hash (hash is over content,
    # recomputed lazily only once — so mutate before first hash call).
    c = generate_compiled(config)
    c.sizes[0] += 4096
    assert c.content_hash() != a.content_hash()


def test_cache_key_embeds_compiler_version():
    compiled = generate_compiled(_configs()[0])
    key = compiled.cache_key()
    assert key.startswith(f"ct{TRACE_COMPILER_VERSION}:")
    assert compiled.content_hash() in key


def test_compiled_from_events():
    events = [(0.0, True, 0, 4096), (1.0, False, 8192, 4096)]
    compiled = compiled_from_events(events, name="tiny", footprint_bytes=1 * MB)
    assert len(compiled) == 2
    assert compiled[0].kind is RequestKind.WRITE
    assert compiled[1].kind is RequestKind.READ
    assert compiled.duration == 1.0
    assert compiled.footprint_bytes == 1 * MB
    assert compiled.nbytes() > 0
