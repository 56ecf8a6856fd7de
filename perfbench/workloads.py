"""The benchmark's workloads and the characterization of their inputs.

Every workload is a batch job driven from one process.  The three replay
workloads replay one MSR-trace replica (paper §V, Tables III/VI) against
one scheme, with open-loop arrivals at the trace timestamps.  The sweep
workload runs all seven replicas against all five schemes through the
parallel dispatcher.  ``--seed`` is the trace generator's seed; the
simulator sees only the generated traces.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, List, Sequence, Union

from repro.core import SCHEMES
from repro.experiments.runner import DEFAULT_SCALES, Cell, workload_cell
from repro.traces import PAPER_WORKLOADS
from repro.traces.analysis import burstiness_index, characterize

#: Mirrored pairs in every array (the paper's main setup, §V-A).
N_PAIRS = 20

#: Trace-length multipliers: ``full`` is the measured size, ``tiny`` is
#: for the benchmark's own tests.
SIZES = {"full": 1.0, "tiny": 0.02}


@dataclasses.dataclass(frozen=True)
class Replay:
    """One trace replica replayed against one scheme."""

    name: str
    preset: str
    scheme: str
    #: Trace time-scale at ``full`` size (DESIGN.md §3).
    scale: float
    why: str

    def scale_for(self, size: str) -> float:
        return self.scale * SIZES[size]

    def describe(self, size: str) -> str:
        return (
            f"{self.preset} replica on {self.scheme}, "
            f"scale {self.scale_for(size):g}, {N_PAIRS} mirrored pairs"
        )


@dataclasses.dataclass(frozen=True)
class Sweep:
    """All paper presets x all schemes through ``execute_cells``."""

    name: str
    #: Multiplier on each preset's default experiment scale.
    scale_factor: float
    jobs: int
    why: str

    def cells(self, seed: int, size: str) -> List[Cell]:
        factor = self.scale_factor * SIZES[size]
        return [
            workload_cell(
                scheme,
                preset,
                scale=DEFAULT_SCALES[preset] * factor,
                n_pairs=N_PAIRS,
                seed=seed,
            )
            for preset in PAPER_WORKLOADS
            for scheme in SCHEMES
        ]

    def describe(self, size: str) -> str:
        return (
            f"{len(PAPER_WORKLOADS)} presets x {len(SCHEMES)} schemes at "
            f"{self.scale_factor * SIZES[size]:g} x default scale, "
            f"execute_cells(jobs={self.jobs}, collect_metrics=True), "
            "result caches cold"
        )


Workload = Union[Replay, Sweep]

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Replay(
            "log-write",
            "src2_2",
            "rolo-p",
            0.05,
            "The paper's headline path: a 99.6%-write, very bursty trace on "
            "RoLo-P, where log append, reclaim, destage and rotation do most "
            "of the work.",
        ),
        Replay(
            "read-home",
            "hm_1",
            "raid10",
            0.05,
            "95% reads at low IOPS on RAID10: engine, disk queue, mechanics, "
            "layout, fan-in and read routing only; the no-change side for "
            "every log-path optimisation.",
        ),
        Replay(
            "spin-energy",
            "proj_0",
            "rolo-e",
            0.01,
            "95% writes with read sessions on RoLo-E: the only workload "
            "dominated by spin-ups, power transitions, the LRU read cache "
            "and centralised destage.",
        ),
        Sweep(
            "sweep-metered",
            0.03,
            2,
            "35 short cells through the metered 2-worker dispatcher: trace "
            "generation, shared-memory publication, pool dispatch and the "
            "metrics registry, which no replay uses.",
        ),
    )
}


def trace_digest(traces: Sequence) -> str:
    """sha256 over the content hashes of ``traces``, in order."""
    digest = hashlib.sha256()
    for trace in traces:
        digest.update(trace.content_hash().encode())
    return digest.hexdigest()


def characterize_inputs(traces: Sequence, presets: Sequence[str]) -> Dict:
    """Request count, write ratio, read locality, burstiness, distinctness.

    ``traces[i]`` is a replica of ``presets[i]``; the ratios and the
    burstiness index are request-weighted over all traces.
    """
    per_trace = []
    for trace, preset in zip(traces, presets):
        stats = characterize(trace)
        per_trace.append(
            {
                "preset": preset,
                "requests": stats.records,
                "write_ratio": stats.write_ratio,
                "read_locality": PAPER_WORKLOADS[preset].read_locality,
                "burstiness_index": burstiness_index(trace),
                "content_hash": trace.content_hash(),
            }
        )
    requests = sum(t["requests"] for t in per_trace)

    def weighted(key: str) -> float:
        if not requests:
            return 0.0
        return sum(t[key] * t["requests"] for t in per_trace) / requests

    return {
        "requests": requests,
        "write_ratio": weighted("write_ratio"),
        "read_locality": weighted("read_locality"),
        "burstiness_index": weighted("burstiness_index"),
        "distinct_traces": len({t["content_hash"] for t in per_trace}),
        "digest": trace_digest(traces),
        "traces": per_trace,
    }
