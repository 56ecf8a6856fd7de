"""Trace exporters and readers.

Two on-disk formats:

* **JSONL** — one :class:`~repro.obs.tracer.TraceEvent` dict per line.
  Trivially greppable / pandas-loadable.
* **Chrome trace-event JSON** — the ``{"traceEvents": [...]}`` format that
  chrome://tracing and Perfetto load directly.  Every disk gets its own
  named thread track (power-state and disk-op spans), array-level requests
  ride a dedicated ``requests`` track, and controller dynamics (rotations,
  destage windows, cycles) land on the scheme's track.  Occupancy/queue
  counters become ``"C"`` (counter) events, which Perfetto renders as
  filled line charts.

``read_events`` auto-detects either format so ``rolo trace summarize``
works on both.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, Iterator, List, Sequence

from repro.obs.tracer import REQUEST_TRACK, TraceEvent

_PID = 1

#: Chrome flow-event phases (emitted by us, skipped by the reader).
_FLOW_PHASES = ("s", "t", "f")


def ensure_parent(path: str) -> None:
    """Create the missing parent directories of output file ``path``."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)


def write_jsonl(events: Iterable[TraceEvent], path: str) -> int:
    """Write events as JSON Lines; returns the number written."""
    ensure_parent(path)
    count = 0
    with open(path, "w") as fh:
        for event in events:
            fh.write(json.dumps(event.to_dict(), sort_keys=True))
            fh.write("\n")
            count += 1
    return count


def _track_ids(events: Sequence[TraceEvent]) -> Dict[str, int]:
    """Deterministic track -> tid map: requests first, then sorted names."""
    tracks = sorted({e.track for e in events} - {REQUEST_TRACK})
    ids = {REQUEST_TRACK: 0}
    for i, track in enumerate(tracks, start=1):
        ids[track] = i
    return ids


def to_chrome_trace(events: Sequence[TraceEvent]) -> Dict:
    """Convert events to a Chrome trace-event JSON document (a dict)."""
    tids = _track_ids(events)
    out: List[Dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "tid": 0,
            "args": {"name": "rolo-sim"},
        }
    ]
    for track, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        out.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "args": {"name": track},
            }
        )
    for event in events:
        tid = tids[event.track]
        ts_us = event.ts * 1e6
        if event.kind == "span":
            out.append(
                {
                    "name": event.name,
                    "cat": event.category,
                    "ph": "X",
                    "ts": ts_us,
                    "dur": event.dur * 1e6,
                    "pid": _PID,
                    "tid": tid,
                    "args": dict(event.attrs),
                }
            )
        elif event.kind == "counter":
            value = event.attrs.get("value", 0.0)
            out.append(
                {
                    "name": event.name,
                    "cat": event.category,
                    "ph": "C",
                    "ts": ts_us,
                    "pid": _PID,
                    "tid": tid,
                    "args": {"value": value},
                }
            )
        else:
            out.append(
                {
                    "name": event.name,
                    "cat": event.category,
                    "ph": "i",
                    "s": "t",
                    "ts": ts_us,
                    "pid": _PID,
                    "tid": tid,
                    "args": dict(event.attrs),
                }
            )
    out.extend(_flow_records(events, tids))
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def _flow_records(
    events: Sequence[TraceEvent], tids: Dict[str, int]
) -> List[Dict]:
    """Flow events (``ph: "s"/"t"/"f"``) stitching a request's spans
    together across disk tracks.

    Every span carrying a ``rid`` attr (the request span plus its
    constituent disk ops, from a span-traced run) joins that rid's flow;
    rids touching fewer than two spans emit nothing — a flow needs both
    ends.  Perfetto draws these as arrows from the request lane to each
    disk that served part of it.
    """
    by_rid: Dict[int, List[TraceEvent]] = {}
    for event in events:
        if event.kind != "span":
            continue
        rid = event.attrs.get("rid")
        if rid is not None:
            by_rid.setdefault(rid, []).append(event)
    out: List[Dict] = []
    for rid in sorted(by_rid):
        chain = by_rid[rid]
        if len(chain) < 2:
            continue
        chain.sort(key=lambda e: (e.ts, e.track, e.name))
        last = len(chain) - 1
        for i, event in enumerate(chain):
            ph = "s" if i == 0 else ("f" if i == last else "t")
            record = {
                "name": f"rid-{rid}",
                "cat": "request_flow",
                "ph": ph,
                "id": rid,
                "ts": event.ts * 1e6,
                "pid": _PID,
                "tid": tids[event.track],
            }
            if ph == "f":
                record["bp"] = "e"  # bind to the enclosing slice
            out.append(record)
    return out


def write_chrome_trace(events: Sequence[TraceEvent], path: str) -> int:
    """Write Chrome trace-event JSON; returns the event count (sans
    metadata and flow records, which annotate rather than add events)."""
    doc = to_chrome_trace(events)
    ensure_parent(path)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    skip = set(_FLOW_PHASES) | {"M"}
    return sum(1 for e in doc["traceEvents"] if e["ph"] not in skip)


def _events_from_chrome(doc: Dict) -> List[TraceEvent]:
    names: Dict[int, str] = {}
    for record in doc.get("traceEvents", []):
        if record.get("ph") == "M" and record.get("name") == "thread_name":
            names[int(record["tid"])] = record["args"]["name"]
    events: List[TraceEvent] = []
    for record in doc.get("traceEvents", []):
        ph = record.get("ph")
        if ph == "M" or ph in _FLOW_PHASES:
            continue
        track = names.get(int(record.get("tid", 0)), str(record.get("tid")))
        ts = float(record.get("ts", 0.0)) / 1e6
        if ph == "X":
            events.append(
                TraceEvent(
                    ts=ts,
                    kind="span",
                    category=record.get("cat", ""),
                    name=record.get("name", ""),
                    track=track,
                    dur=float(record.get("dur", 0.0)) / 1e6,
                    attrs=dict(record.get("args", {})),
                )
            )
        elif ph == "C":
            events.append(
                TraceEvent(
                    ts=ts,
                    kind="counter",
                    category=record.get("cat", "counter"),
                    name=record.get("name", ""),
                    track=track,
                    attrs=dict(record.get("args", {})),
                )
            )
        else:
            events.append(
                TraceEvent(
                    ts=ts,
                    kind="instant",
                    category=record.get("cat", ""),
                    name=record.get("name", ""),
                    track=track,
                    attrs=dict(record.get("args", {})),
                )
            )
    return events


def read_events(path: str) -> Iterator[TraceEvent]:
    """Stream a saved trace, auto-detecting Chrome JSON vs JSONL.

    Returns a generator.  JSONL traces (the hot case for multi-million
    event runs) are decoded line by line so summarizing never
    materializes the file; only Chrome documents — a single JSON object
    with a ``traceEvents`` key — fall back to a whole-file parse.
    Detection reads just the first line: a line that parses to a
    complete event dict means JSONL; a ``traceEvents`` wrapper or a
    partial line (pretty-printed JSON) means Chrome.
    """
    with open(path) as fh:
        first = fh.readline()
        stripped = first.strip()
        doc = None
        if stripped:
            try:
                doc = json.loads(stripped)
            except json.JSONDecodeError:
                doc = None
        if isinstance(doc, dict) and "traceEvents" not in doc and "ts" in doc:
            # JSON Lines: stream the rest without buffering the file.
            yield TraceEvent.from_dict(doc)
            for line in fh:
                line = line.strip()
                if line:
                    yield TraceEvent.from_dict(json.loads(line))
            return
        # Chrome trace (possibly pretty-printed): needs the whole document.
        text = first + fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    if isinstance(doc, dict) and "traceEvents" in doc:
        yield from _events_from_chrome(doc)
        return
    # Degenerate JSONL (e.g. an empty or comment-free fragment): fall back
    # to line-wise decoding of what we buffered.
    for line in text.splitlines():
        line = line.strip()
        if line:
            yield TraceEvent.from_dict(json.loads(line))


# ----------------------------------------------------------------------
# Summaries (``rolo trace summarize``)
# ----------------------------------------------------------------------
def summarize_events(events: Iterable[TraceEvent]) -> str:
    """Human-readable cycle/rotation timeline plus per-category totals.

    Single pass over any iterable (including the :func:`read_events`
    generator), so multi-million-event JSONL traces summarize in O(1)
    memory: only the aggregates and the (small) controller timeline are
    retained.  Span-traced runs additionally report phase totals —
    queue / seek / rotation / transfer seconds summed across disk ops.
    """
    lines: List[str] = []
    counts: Dict[str, int] = {}
    total = 0
    ts_lo = ts_hi = None
    residency: Dict[str, Dict[str, float]] = {}
    phase_totals = {
        "queued": 0.0, "seek": 0.0, "rotation": 0.0, "transfer": 0.0
    }
    phased_ops = 0
    timeline: List[TraceEvent] = []
    for event in events:
        total += 1
        counts[event.category] = counts.get(event.category, 0) + 1
        end = event.ts + event.dur
        ts_lo = event.ts if ts_lo is None else min(ts_lo, event.ts)
        ts_hi = end if ts_hi is None else max(ts_hi, end)
        if event.kind == "span":
            if event.category == "power":
                states = residency.setdefault(event.track, {})
                states[event.name] = states.get(event.name, 0.0) + event.dur
            elif event.category == "disk_op" and "seek_s" in event.attrs:
                attrs = event.attrs
                phase_totals["queued"] += float(attrs.get("queued_s", 0.0))
                phase_totals["seek"] += float(attrs.get("seek_s", 0.0))
                phase_totals["rotation"] += float(attrs.get("rot_s", 0.0))
                phase_totals["transfer"] += float(
                    attrs.get("transfer_s", 0.0)
                )
                phased_ops += 1
        if event.category in (
            "rotation", "destage", "cycle", "deactivation"
        ):
            timeline.append(event)
    span = (ts_hi - ts_lo) if ts_lo is not None else 0.0
    lines.append(
        f"trace: {total} events over {span:.3f}s virtual time"
    )
    lines.append("events by category:")
    for category in sorted(counts):
        lines.append(f"  {category:10s} {counts[category]}")

    if phased_ops:
        lines.append(
            f"span phases over {phased_ops} disk ops (seconds):"
        )
        lines.append(
            "  "
            + " ".join(
                f"{name}={phase_totals[name]:.3f}"
                for name in ("queued", "seek", "rotation", "transfer")
            )
        )

    if residency:
        lines.append("power-state residency (seconds):")
        for track in sorted(residency):
            states = residency[track]
            parts = " ".join(
                f"{name}={states[name]:.2f}" for name in sorted(states)
            )
            lines.append(f"  {track:8s} {parts}")

    # Chronological controller timeline (collected in the single pass).
    timeline.sort(key=lambda e: (e.ts, e.category, e.name))
    if timeline:
        lines.append("cycle/rotation timeline:")
        for event in timeline:
            detail = " ".join(
                f"{k}={event.attrs[k]}" for k in sorted(event.attrs)
            )
            if event.kind == "span":
                lines.append(
                    f"  t={event.ts:10.3f}s  {event.category}:{event.name}"
                    f"  dur={event.dur:.3f}s  {detail}".rstrip()
                )
            else:
                lines.append(
                    f"  t={event.ts:10.3f}s  {event.category}:{event.name}"
                    f"  {detail}".rstrip()
                )
    return "\n".join(lines)
