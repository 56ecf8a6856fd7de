"""In-memory span tracing of the simulator, from outside its source.

:func:`install` wraps the public entry points of each simulator layer
(:data:`ENTRY_POINTS`) in spans and :func:`event_observer` attributes every
event the engine dispatches to the layer that owns its callback, through
the public ``Simulator.add_event_observer`` hook.  Nothing in ``src/`` is
edited: class attributes and module-level names are swapped for wrappers
and restored by :meth:`Installation.uninstall`.

A span is (name, start, end, parent span, request id).  Spans live in
parallel ``array`` columns of a :class:`SpanRecorder` and are written out
once, by :meth:`SpanRecorder.write`, after the run.  A layer's self time is
its spans' durations minus the parts covered by their child spans, so the
self times of all layers inside one root span partition that root exactly.

An event span runs from the observer call for that event to the next one
(or to the end of ``Simulator.run``), so the run loop's own pop-and-recycle
work is charged to the layer of the callback it dispatched.
"""

from __future__ import annotations

import importlib
import json
import struct
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Layers in report order.
LAYERS = (
    "sim",
    "disk",
    "mechanical",
    "power",
    "layout",
    "request",
    "controller",
    "logspace",
    "destage",
    "rotation",
    "cache",
    "traces",
    "shm",
    "parallel",
)

clock = time.perf_counter

#: Wrapped entry points: (module, qualified name, layer).
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.sim.engine", "Simulator.schedule", "sim"),
    ("repro.sim.engine", "Simulator.at", "sim"),
    ("repro.sim.engine", "Simulator.run", "sim"),
    ("repro.sim.engine", "Timer.arm", "sim"),
    ("repro.disk.disk", "Disk.submit", "disk"),
    ("repro.disk.disk", "Disk.request_spin_up", "disk"),
    ("repro.disk.disk", "Disk.request_spin_down", "disk"),
    ("repro.disk.mechanical", "MechanicalModel.service_time", "mechanical"),
    ("repro.disk.mechanical", "MechanicalModel.seek_time", "mechanical"),
    ("repro.disk.power", "EnergyAccountant.transition", "power"),
    ("repro.raid.layout", "Raid10Layout.map_extent", "layout"),
    ("repro.raid.request", "IORequest.op_complete", "request"),
    ("repro.raid.request", "acquire_request", "request"),
    ("repro.core.base", "Controller.submit", "controller"),
    ("repro.core.base", "Controller.drain", "controller"),
    ("repro.core.raid10", "Raid10Controller.submit", "controller"),
    (
        "repro.core.rolo_common",
        "RotatedLoggingController.submit",
        "controller",
    ),
    ("repro.core.rolo_common", "RotatedLoggingController.drain", "controller"),
    ("repro.core.rolo_e", "RoloEController.submit", "controller"),
    ("repro.core.rolo_e", "RoloEController.drain", "controller"),
    ("repro.core.graid", "GraidController.submit", "controller"),
    ("repro.core.graid", "GraidController.drain", "controller"),
    ("repro.core.logspace", "LogRegion.append", "logspace"),
    ("repro.core.logspace", "LogRegion.reclaim", "logspace"),
    ("repro.core.logspace", "LogRegion.charge_cache", "logspace"),
    ("repro.core.logspace", "LogRegion.release_cache", "logspace"),
    ("repro.core.logspace", "RegionAllocator.allocate", "logspace"),
    ("repro.core.logspace", "RegionAllocator.free", "logspace"),
    ("repro.core.destage", "DestageProcess.start", "destage"),
    ("repro.core.destage", "DestageProcess.abort", "destage"),
    ("repro.core.rotation", "RotationPolicy.next_logger", "rotation"),
    ("repro.cache.lru", "LRUCache.get", "cache"),
    ("repro.cache.lru", "LRUCache.put", "cache"),
    ("repro.traces.workloads", "build_workload_trace", "traces"),
    ("repro.traces.synthetic", "generate_compiled", "traces"),
    ("repro.traces.shm", "SharedTraceStore.publish", "shm"),
)

#: Event-callback module -> owning layer (other ``repro.core`` modules are
#: the controller, other ``repro.traces`` modules the trace layer).
MODULE_LAYERS = {
    "repro.sim.engine": "sim",
    "repro.disk.disk": "disk",
    "repro.disk.mechanical": "mechanical",
    "repro.disk.power": "power",
    "repro.raid.layout": "layout",
    "repro.raid.request": "request",
    "repro.core.logspace": "logspace",
    "repro.core.destage": "destage",
    "repro.core.rotation": "rotation",
    "repro.cache.lru": "cache",
    "repro.traces.shm": "shm",
    "repro.experiments.parallel": "parallel",
}


def layer_of_module(module: str) -> str:
    layer = MODULE_LAYERS.get(module)
    if layer is not None:
        return layer
    if module.startswith("repro.core."):
        return "controller"
    if module.startswith("repro.traces."):
        return "traces"
    return "sim"


class SpanRecorder:
    """Columnar in-memory span store (one row per span)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_layer: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.rid = array("i")
        self.start = array("d")
        self.end = array("d")
        #: Open-span stack; ``-1`` is the virtual top-level parent.
        self.stack: List[int] = [-1]
        #: The event span currently open, or ``-1``.
        self.open_event = [-1]
        #: Result-derived counts (layout segments, cache hits, shm bytes).
        self.counts: Counter = Counter()
        #: IORequest -> request id, assigned at ``acquire_request``.
        self.rid_of: Dict[object, int] = {}
        self.next_rid = 0
        #: Entry points :func:`install` did not find in this simulator.
        self.missing: List[str] = []

    def __len__(self) -> int:
        return len(self.name)

    def name_id(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(layer)
        return nid

    def span(self, name: str, layer: str):
        """Context manager recording one span around a ``with`` body."""
        return _Span(self, self.name_id(name, layer))

    # ------------------------------------------------------------------
    def durations(self, lo: int, hi: int) -> List[float]:
        start, end = self.start, self.end
        return [end[i] - start[i] for i in range(lo, hi)]

    def subtree(self, root: int) -> Tuple[int, int]:
        """Index range ``[root, stop)`` of ``root`` and its descendants.

        Spans are numbered when they open, so a span's descendants are the
        spans right after it whose parent is the root or a descendant;
        the first later span outside the subtree has an older parent.
        """
        parent = self.parent
        stop = root + 1
        n = len(parent)
        while stop < n and parent[stop] >= root:
            stop += 1
        return root, stop

    def self_times(self, root: int) -> Dict[str, float]:
        """Per-layer self time inside ``root``'s subtree."""
        lo, hi = self.subtree(root)
        durations = self.durations(lo, hi)
        child = [0.0] * (hi - lo)
        parent = self.parent
        for i in range(lo + 1, hi):
            child[parent[i] - lo] += durations[i - lo]
        out = {layer: 0.0 for layer in LAYERS}
        name, name_layer = self.name, self.name_layer
        for i in range(lo, hi):
            out[name_layer[name[i]]] += durations[i - lo] - child[i - lo]
        return out

    def name_counts(self, lo: int = 0, hi: Optional[int] = None) -> Counter:
        """Span count per span name over ``[lo, hi)``."""
        ids = Counter(self.name[lo:hi])
        return Counter({self.names[k]: v for k, v in ids.items()})

    def top_level_time(self, layer: str) -> float:
        """Total duration of spans of ``layer`` not nested in that layer."""
        name, name_layer, parent = self.name, self.name_layer, self.parent
        total = 0.0
        for i in range(len(name)):
            if name_layer[name[i]] != layer:
                continue
            p = parent[i]
            if p >= 0 and name_layer[name[p]] == layer:
                continue
            total += self.end[i] - self.start[i]
        return total

    # ------------------------------------------------------------------
    def write(self, path: str) -> None:
        """Write every span: a JSON header line, then the raw columns."""
        header = {
            "names": self.names,
            "layers": self.name_layer,
            "spans": len(self),
            "columns": [
                [col, getattr(self, col).typecode]
                for col in ("name", "parent", "rid", "start", "end")
            ],
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for col, _ in header["columns"]:
                getattr(self, col).tofile(out)

    @classmethod
    def read(cls, path: str) -> "SpanRecorder":
        """Load a file written by :meth:`write`."""
        rec = cls()
        with open(path, "rb") as src:
            header = json.loads(src.readline())
            for name, layer in zip(header["names"], header["layers"]):
                rec.name_id(name, layer)
            for col, typecode in header["columns"]:
                column = array(typecode)
                column.fromfile(src, header["spans"])
                setattr(rec, col, column)
        return rec


class _Span:
    __slots__ = ("rec", "nid", "idx")

    def __init__(self, rec: SpanRecorder, nid: int) -> None:
        self.rec = rec
        self.nid = nid
        self.idx = -1

    def __enter__(self) -> "_Span":
        rec = self.rec
        self.idx = idx = len(rec.name)
        rec.name.append(self.nid)
        rec.parent.append(rec.stack[-1])
        rec.rid.append(-1)
        rec.end.append(0.0)
        rec.stack.append(idx)
        rec.start.append(clock())
        return self

    def __exit__(self, *exc_info) -> None:
        rec = self.rec
        rec.end[self.idx] = clock()
        rec.stack.pop()


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _wrap(
    rec: SpanRecorder,
    fn: Callable,
    nid: int,
    rid_of_args: Optional[Callable[[tuple], int]] = None,
    after: Optional[Callable[[object, int], None]] = None,
) -> Callable:
    """A span-recording stand-in for ``fn`` (same arguments and result)."""
    names, parents, rids = rec.name, rec.parent, rec.rid
    starts, ends, stack = rec.start, rec.end, rec.stack
    push, pop = stack.append, stack.pop

    def wrapper(*args, **kwargs):
        idx = len(names)
        names.append(nid)
        parents.append(stack[-1])
        rids.append(rid_of_args(args) if rid_of_args is not None else -1)
        ends.append(0.0)
        push(idx)
        starts.append(clock())
        try:
            result = fn(*args, **kwargs)
        finally:
            ends[idx] = clock()
            pop()
        if after is not None:
            after(result, idx)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_run(rec: SpanRecorder, fn: Callable, nid: int) -> Callable:
    """``Simulator.run`` wrapper: closes the last event span on exit."""
    names, parents, rids = rec.name, rec.parent, rec.rid
    starts, ends, stack = rec.start, rec.end, rec.stack
    open_event = rec.open_event

    def run(*args, **kwargs):
        idx = len(names)
        names.append(nid)
        parents.append(stack[-1])
        rids.append(-1)
        ends.append(0.0)
        stack.append(idx)
        starts.append(clock())
        try:
            return fn(*args, **kwargs)
        finally:
            now = clock()
            current = open_event[0]
            if current >= 0:
                ends[current] = now
                stack.pop()
                open_event[0] = -1
            ends[idx] = now
            stack.pop()

    run.__wrapped__ = fn
    return run


def event_observer(rec: SpanRecorder) -> Callable:
    """Per-event observer opening one span per dispatched event."""
    names, parents, rids = rec.name, rec.parent, rec.rid
    starts, ends, stack = rec.start, rec.end, rec.stack
    open_event = rec.open_event
    ids: Dict[object, int] = {}

    def _name_id(callback) -> int:
        fn = getattr(callback, "__func__", callback)
        key = getattr(fn, "__code__", None) or type(fn)
        nid = ids.get(key)
        if nid is None:
            qualname = getattr(fn, "__qualname__", type(fn).__name__)
            module = getattr(fn, "__module__", None) or ""
            nid = ids[key] = rec.name_id(
                f"event:{qualname}", layer_of_module(module)
            )
        return nid

    def observe(event) -> None:
        now = clock()
        current = open_event[0]
        if current >= 0:
            ends[current] = now
            stack.pop()
        idx = len(names)
        names.append(_name_id(event.callback))
        parents.append(stack[-1])
        rids.append(-1)
        ends.append(0.0)
        stack.append(idx)
        starts.append(now)
        open_event[0] = idx

    return observe


def _rid_hooks(rec: SpanRecorder, qualname: str):
    """(rid_of_args, after) for entry points that know their request."""
    rid_of, counts, rids = rec.rid_of, rec.counts, rec.rid

    if qualname == "acquire_request":

        def assign(request, idx: int) -> None:
            rid = rec.next_rid
            rec.next_rid = rid + 1
            rid_of[request] = rid
            rids[idx] = rid

        return None, assign
    if qualname == "IORequest.op_complete":
        return (lambda args: rid_of.get(args[0], -1)), None
    if qualname.endswith(".submit") and qualname.split(".")[0].endswith(
        "Controller"
    ):
        return (lambda args: rid_of.get(args[1], -1)), None
    if qualname == "Raid10Layout.map_extent":

        def segments(result, idx: int) -> None:
            counts["layout.segments"] += len(result)

        return None, segments
    if qualname == "LRUCache.get":

        def hit(result, idx: int) -> None:
            if result is not None:
                counts["cache.hits"] += 1

        return None, hit
    if qualname == "SharedTraceStore.publish":

        def nbytes(ref, idx: int) -> None:
            counts["shm.bytes"] += sum(
                length * struct.calcsize(typecode)
                for typecode, length, _ in ref.columns
            )

        return None, nbytes
    return None, None


class Installation:
    """The set of swapped attributes; :meth:`uninstall` restores them."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Installation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


def install(
    rec: SpanRecorder, layers: Optional[Iterable[str]] = None
) -> Installation:
    """Wrap every entry point of ``layers`` (all when ``None``).

    Install before building the simulator objects: some of them bind
    entry points (e.g. the disk's service-time method) at construction.
    An entry point this version of the simulator lacks is skipped and
    listed in ``rec.missing``; the caller fails the run on it, since its
    layer's metrics would read 0.
    """
    wanted = set(LAYERS if layers is None else layers)
    inst = Installation()
    try:
        for module_name, qualname, layer in ENTRY_POINTS:
            if layer not in wanted:
                continue
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or attr not in owner.__dict__:
                if f"{module_name}.{qualname}" not in rec.missing:
                    rec.missing.append(f"{module_name}.{qualname}")
                continue
            nid = rec.name_id(qualname, layer)
            rid_of_args, after = _rid_hooks(rec, qualname)
            if owner_name:
                cls = owner
                original = cls.__dict__[attr]
                if qualname == "Simulator.run":
                    wrapper = _wrap_run(rec, original, nid)
                else:
                    wrapper = _wrap(rec, original, nid, rid_of_args, after)
                inst.replace(cls, attr, wrapper)
                continue
            original = getattr(module, qualname)
            wrapper = _wrap(rec, original, nid, rid_of_args, after)
            # Rebind the name everywhere it was imported by value.
            for name, mod in list(sys.modules.items()):
                if (name == "repro" or name.startswith("repro.")) and (
                    mod is not None
                    and mod.__dict__.get(qualname) is original
                ):
                    inst.replace(mod, qualname, wrapper)
    except BaseException:
        inst.uninstall()
        raise
    return inst


def calls_by_layer(rec: SpanRecorder, counts: Counter) -> Dict[str, int]:
    """Entry-point calls per layer (event spans excluded)."""
    out = {layer: 0 for layer in LAYERS}
    layer_of = dict(zip(rec.names, rec.name_layer))
    for name, n in counts.items():
        if not name.startswith("event:"):
            out[layer_of[name]] += n
    return out


def events_by_layer(rec: SpanRecorder, counts: Counter) -> Dict[str, int]:
    """Dispatched events per owning layer."""
    out = {layer: 0 for layer in LAYERS}
    layer_of = dict(zip(rec.names, rec.name_layer))
    for name, n in counts.items():
        if name.startswith("event:"):
            out[layer_of[name]] += n
    return out
