"""Causal span recording: per-request lifecycle with phase decomposition.

:class:`SpanRecorder` extends :class:`~repro.obs.tracer.RecordingTracer`
with *causal* structure: every disk-op span carries the mechanical phase
breakdown of its service interval (seek / rotation / transfer, exact by
construction — the disk's phase-splitting op observer derives them from
the same :class:`~repro.disk.mechanical.MechanicalModel` arithmetic that
costed the op) and a link back to its owner: the admitted
:class:`~repro.raid.request.IORequest` (as a ``rid`` attr) or the
background process that issued it (destage process, parity pump, cache
fill — as a ``proc`` attr).

Owner resolution is zero-cost on the simulation side: controllers hand
disks either a bound method (whose ``__self__`` *is* the owner) or a
closure tagged with ``_span_owner`` at creation time; the recorder walks
that linkage only at completion, so span-traced runs stay byte-identical
to plain runs (``wants_phases`` picks the phase-splitting op observer
when the disk is built; an untraced disk has no op observer at all).

The resulting event stream is a plain list of
:class:`~repro.obs.tracer.TraceEvent` records — the existing JSONL /
Chrome exporters, :mod:`repro.obs.attribution` and the timeline explorer
all consume it unchanged.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.tracer import RecordingTracer, TraceEvent


class SpanRecorder(RecordingTracer):
    """A :class:`RecordingTracer` that records causal, phase-decomposed
    disk-op spans.

    Setting :attr:`wants_phases` makes every disk built with this tracer
    report completions through :meth:`disk_op_phases` instead of
    ``disk_op``.  The span attrs gain:

    ``seek_s`` / ``rot_s`` / ``transfer_s``
        Mechanical phase durations; their sum equals the span's ``dur``
        exactly (slowdown factors included, transfer is the residual).
    ``rid``
        The owning request's trace id, when the op belongs to an admitted
        foreground request (fan-out edges of one logical I/O share a rid —
        this is the causal join key across disks).
    ``proc``
        The owning background process name (``rolo-p-destage-3``,
        ``rolo5-parity-pump``, ``rolo-e:cache-fill``) when the op is
        background work — the explicit causal edge from a delayed request
        to its interference culprit.
    """

    wants_phases = True

    def __init__(self) -> None:
        super().__init__()
        #: id(request) -> rid for requests currently in flight.  Pooled
        #: request objects recycle ids, so entries live only from admit to
        #: completion (the reverse map makes cleanup O(1)).
        self._rid_by_obj: Dict[int, int] = {}
        self._obj_by_rid: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Request linkage
    # ------------------------------------------------------------------
    def request_admitted(self, rid: int, request: object) -> None:
        key = id(request)
        self._rid_by_obj[key] = rid
        self._obj_by_rid[rid] = key

    def request_completed(self, rid: int, ts: float) -> None:
        super().request_completed(rid, ts)
        key = self._obj_by_rid.pop(rid, None)
        if key is not None and self._rid_by_obj.get(key) == rid:
            del self._rid_by_obj[key]

    # ------------------------------------------------------------------
    # Phase-decomposed disk ops
    # ------------------------------------------------------------------
    def _resolve_owner(self, op: Any) -> Optional[Dict[str, Any]]:
        """Map a completing op to ``{"rid": n}`` or ``{"proc": name}``.

        The op's completion callback is either a bound method (request
        fan-in, destage/pump step) whose ``__self__`` is the owner, or a
        closure tagged ``_span_owner`` at creation.  Raw fire-and-forget
        ops (RoLo-E cache fills) carry a string ``tag`` instead.
        """
        callback = op.on_complete
        owner: Any = None
        if callback is not None:
            owner = getattr(callback, "__self__", None)
            if owner is None:
                owner = getattr(callback, "_span_owner", None)
        if owner is not None:
            rid = self._rid_by_obj.get(id(owner))
            if rid is not None:
                return {"rid": rid}
            name = getattr(owner, "name", None)
            if name is not None:
                return {"proc": name}
        tag = op.tag
        if isinstance(tag, str):
            return {"proc": tag}
        return None

    def disk_op_phases(
        self,
        disk: str,
        kind: str,
        priority: str,
        sector: int,
        nbytes: int,
        submit_ts: float,
        start_ts: float,
        finish_ts: float,
        seek_s: float,
        rot_s: float,
        transfer_s: float,
        op: object,
    ) -> None:
        attrs: Dict[str, Any] = {
            "sector": sector,
            "nbytes": nbytes,
            "queued_s": start_ts - submit_ts,
            "seek_s": seek_s,
            "rot_s": rot_s,
            "transfer_s": transfer_s,
        }
        owner = self._resolve_owner(op)
        if owner is not None:
            attrs.update(owner)
        self._emit(
            TraceEvent(
                ts=start_ts,
                kind="span",
                category="disk_op",
                name=f"{kind}:{priority}",
                track=disk,
                dur=finish_ts - start_ts,
                attrs=attrs,
            )
        )
