r"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload log-write --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``, from
untraced runs; ``--trace 1`` prints every per-layer metric, from a traced
run paired with an untraced one.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every correctness check passed.  A report with the inputs'
characterization, the per-repetition times and (for traced runs) every
span is written under ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        default="full",
        help="trace-length preset: full (measured) or tiny (self-tests)",
    )
    parser.add_argument(
        "--out",
        default=str(ROOT / ".perfbench-out"),
        help="directory for the run report and the span file",
    )
    return parser.parse_args(argv)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as spec:
        return json.load(spec)


def run(args: argparse.Namespace) -> dict:
    """Measure one workload; returns the full report."""
    from perfbench import measure
    from perfbench.workloads import SIZES, WORKLOADS, Replay

    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"unknown workload {args.workload!r}; "
            f"known: {', '.join(WORKLOADS)}"
        )
    if args.size not in SIZES:
        raise SystemExit(f"unknown size {args.size!r}")
    spec = load_spec()
    wl = WORKLOADS[args.workload]
    replay = isinstance(wl, Replay)
    recorder = None
    inputs = None
    if args.trace:
        wanted = spec["per_layer"]
        fn = measure.trace_replay if replay else measure.trace_sweep
        metrics, notes, gate, recorder = fn(
            wl, args.seed, args.seconds, args.size
        )
    else:
        wanted = spec["end_to_end"]
        fn = measure.measure_replay if replay else measure.measure_sweep
        metrics, notes, gate, inputs = fn(
            wl, args.seed, args.seconds, args.size
        )
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if metrics and missing:
        gate.errors.append(f"metrics not computed: {', '.join(missing)}")
    report = {
        "workload": wl.name,
        "description": wl.describe(args.size),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "input": inputs,
        "notes": notes,
        "errors": gate.errors,
        "result": {
            "correct": gate.correct and not missing,
            "attempted": max(gate.attempted, 1),
            "failed": gate.failed if gate.attempted else 1,
            "metrics": {
                m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                for m in wanted
                if m["name"] in metrics
            },
        },
    }
    os.makedirs(args.out, exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if recorder is not None:
        recorder.write(os.path.join(args.out, f"spans-{wl.name}.bin"))
    with open(os.path.join(args.out, stem + ".json"), "w") as out:
        json.dump(report, out, indent=1, default=str)
    return report


def print_report(report: dict) -> None:
    result = report["result"]
    print(f"workload {report['workload']}: {report['description']}")
    print(
        f"seed {report['seed']}, {report['seconds']:g} s budget, "
        f"trace {report['trace']}, size {report['size']}"
    )
    inputs = report["input"]
    if inputs:
        print(
            "input: requests={requests} write_ratio={write_ratio:.4f} "
            "read_locality={read_locality:.3f} "
            "burstiness_index={burstiness_index:.2f} "
            "distinct_traces={distinct_traces} digest={digest:.16}".format(
                **inputs
            )
        )
    notes = report["notes"]
    for key, value in notes.items():
        if key != "events_by_layer":
            print(f"note {key}: {value}")
    events = notes.get("events_by_layer")
    if events:
        print(
            "events by owning layer: "
            + " ".join(f"{k}={v}" for k, v in events.items() if v)
        )
    samples = notes.get("response_samples")
    beside = {
        "sim_resp_p50_ms": f"(n={samples})",
        "sim_resp_p999_ms": (
            f"(n={samples}, {notes.get('beyond_p999')} beyond)"
        ),
    }
    for name, metric in result["metrics"].items():
        print(
            f"{name} = {metric['value']!r} {metric['unit']} "
            f"{beside.get(name, '')}".rstrip()
        )
    failed, attempted = result["failed"], result["attempted"]
    print(f"failed_frac = {failed / attempted!r} ({failed} of {attempted})")
    for error in report["errors"]:
        print(f"ERROR: {error}", file=sys.stderr)


def stop_children() -> None:
    """Stop and reap every process the run started.

    Pool workers are joined by the dispatcher, but creating a shared-memory
    segment also starts multiprocessing's resource tracker, which would
    otherwise outlive this process.
    """
    import multiprocessing
    from multiprocessing import forkserver, resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()
    forkserver._forkserver._stop()
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:  # no child left
            return


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: simulator source not found at {SRC}",
            file=sys.stderr,
        )
        return 2
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    report = run(args)
    print_report(report)
    print(json.dumps(report["result"]), flush=True)
    return 0 if report["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
