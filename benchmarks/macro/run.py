"""The macro-benchmark's one command.

    python3 benchmarks/macro/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
    PYTHONPATH=src python -m benchmarks.macro.run ...

Every selected workload gets an untraced pass, which gives the end-to-end
metrics.  ``--trace 1`` (the default) adds a second, shorter pass with the
span wrappers installed, which gives the per-layer table.  The last line of
standard output is one JSON object; for a single workload it has exactly
the keys ``correct``, ``attempted``, ``failed`` and ``metrics`` that
``BENCHMARK.json``'s contract asks for, the metrics being the end-to-end
ones with ``--trace 0`` and the per-layer ones with ``--trace 1``.  The exit
code is non-zero when an output check failed.  See ``README.md`` in this
directory.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

if __package__ in (None, ""):
    # Started as a script: make ``benchmarks.macro`` and ``repro`` importable.
    _root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    sys.path[:0] = [os.path.join(_root, "src"), _root]
    import benchmarks.macro  # noqa: F401 - parent package of the relative imports

    __package__ = "benchmarks.macro"

from . import ROOT, harness, stats, trace  # noqa: E402 - after the path set-up
from .workloads import WORKLOADS, Workload  # noqa: E402

SCHEMA = "hilda-macro/1"
#: Measured seconds of the traced pass (or the untraced pass's, if shorter).
TRACED_SECONDS = 10.0
#: Set-ups per untraced pass; ``setup_s`` is their median.
SETUP_REPEATS = 3
REQUEST_CLASSES = ("get_admin", "get_student", "post_local", "post_persist")

Metric = Dict[str, Any]


def load_contract() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def calibration_ms() -> float:
    """A fixed pure-Python loop: how fast this machine is right now."""
    samples = []
    for _ in range(5):
        begin = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value % 7
        samples.append((time.perf_counter() - begin) * 1000.0)
    return statistics.median(samples)


def metric(value: float, unit: str, n: int) -> Metric:
    return {"value": value, "unit": unit, "n": n}


# -- passes ---------------------------------------------------------------------------


def client_metrics(phase: Dict[str, Any]) -> Tuple[Dict[str, Metric], Dict[str, Any]]:
    """Latency per request class, throughput and failure rates of one phase."""
    measured = [record for record in phase["records"] if record.measured]
    metrics: Dict[str, Metric] = {}
    info: Dict[str, Any] = {}
    for cls in REQUEST_CLASSES:
        latencies = [(r.end - r.start) * 1000.0 for r in measured if r.cls == cls]
        if not latencies:
            continue
        summary = stats.timing(latencies)
        metrics[f"{cls}_p50_ms"] = metric(summary["p50"], "ms", summary["n"])
        metrics[f"{cls}_p95_ms"] = metric(summary["p95"], "ms", summary["n"])
        info[f"{cls}_p99_ms"] = summary["p99"]
        info[f"{cls}_supported_tail"] = summary["supported_tail"]
    attempted = len(measured)
    # Each client's own rate over its own elapsed time, summed.
    throughput = sum(
        sum(1 for r in measured if r.client == index) / elapsed
        for index, elapsed in enumerate(phase["elapsed"])
        if elapsed > 0
    )
    metrics["throughput_rps"] = metric(throughput, "1/s", attempted)
    failed = sum(1 for r in measured if not r.ok)
    posts = sum(1 for r in measured if r.cls.startswith("post_"))
    conflicts = sum(1 for r in measured if r.conflict)
    metrics["error_rate"] = metric(failed / attempted if attempted else 1.0, "ratio", attempted)
    if posts:
        metrics["conflict_rate"] = metric(conflicts / posts, "ratio", posts)
    info["attempted"] = attempted
    info["failed"] = failed
    return metrics, info


def untraced_pass(workload: Workload, seed: int, seconds: float, workdir: str) -> Dict[str, Any]:
    """End-to-end metrics: ``SETUP_REPEATS`` set-ups, the last one measured."""
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        setups.append(harness.run_phase(workload, seed, 0.0, workdir)["setup_s"])
    phase = harness.run_phase(workload, seed, seconds, workdir)
    setups.append(phase["setup_s"])
    metrics, info = client_metrics(phase)
    metrics["setup_s"] = metric(statistics.median(setups), "s", len(setups))
    metrics["peak_rss_mb"] = metric(phase["report"]["peak_rss_mb"], "MiB", 1)
    wal = phase["report"].get("wal")
    if wal and wal["commits"]:
        metrics["wal_bytes_per_commit"] = metric(wal["bytes"] / wal["commits"], "bytes", wal["commits"])
    info["setup_samples_s"] = setups
    return {"metrics": metrics, "info": info, "problems": phase["problems"]}


def traced_pass(workload: Workload, seed: int, seconds: float, workdir: str,
                reference_p50: float) -> Dict[str, Any]:
    """Per-layer metrics from a phase with the span wrappers installed.

    ``reference_p50`` is the untraced pass's ``get_student_p50_ms``, which
    ``trace.overhead_ratio`` is taken against.
    """
    calibration = calibration_ms()
    trace_dir = os.path.join(workdir, f"trace-{workload.name}")
    os.makedirs(trace_dir, exist_ok=True)
    tracer = None
    if workload.deployment == "inproc":
        tracer = trace.Tracer("server")
        trace.install(tracer)
    try:
        phase = harness.run_phase(workload, seed, seconds, workdir, trace_dir, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.flush(trace_dir)
    spans = trace.load_spans(trace_dir)
    measured = [record for record in phase["records"] if record.measured]
    metrics, info = trace.layer_metrics(
        spans, measured, phase["window"], sockets=workload.deployment != "inproc"
    )
    for name, durations in trace.setup_durations(spans).items():
        metrics[name] = metric(statistics.median(durations) * 1000.0 if durations else 0.0,
                               "ms", len(durations))
    for role in ("admin", "student"):
        logins = phase["logins"][role]
        metrics[f"web.login_{role}_ms"] = metric(logins[0] if logins else 0.0, "ms", len(logins))
    metrics["calibration_ms"] = metric(calibration, "ms", 5)
    # The traced phase's client-side latencies serve this ratio only; the
    # end-to-end numbers are the untraced pass's.
    client, client_info = client_metrics(phase)
    traced_p50 = client["get_student_p50_ms"]
    metrics["trace.overhead_ratio"] = metric(
        traced_p50["value"] / reference_p50, "ratio", traced_p50["n"]
    )
    info["attempted"] = client_info["attempted"]
    info["failed"] = client_info["failed"]
    info["trace_dir"] = trace_dir
    return {"metrics": metrics, "info": info, "problems": phase["problems"]}


# -- output ---------------------------------------------------------------------------


def print_metrics(title: str, metrics: Dict[str, Metric]) -> None:
    print(f"\n{title}")
    for name, entry in sorted(metrics.items()):
        print(f"  {name:<44} {entry['value']:>14.4f} {entry['unit']:<6} n={entry['n']}")


def print_info(info: Dict[str, Any]) -> None:
    for cls in REQUEST_CLASSES:
        if f"{cls}_p99_ms" in info:
            tail = info[f"{cls}_supported_tail"]
            print(f"  (info) {cls}_p99_ms {info[f'{cls}_p99_ms']:.4f} ms; "
                  f"highest percentile with >=10 samples beyond: "
                  f"{'p%d' % tail if tail else 'none'}")
    if "self_time_share" in info:
        print(f"  (info) spans={info['spans']} paired_requests={info['paired_requests']} "
              f"self-time sum / container span = {info['self_sum_ratio']:.4f}")
        print("  (info) self-time share of the container span, by span name:")
        for name, share in info["self_time_share"].items():
            print(f"           {name:<32} {share:>7.2%}")


def contract_line(result: Dict[str, Any], names: Sequence[str], problems: Sequence[str]) -> Dict[str, Any]:
    """The result object of BENCHMARK.json's contract: ``names`` out of one pass."""
    metrics = result["metrics"]
    info = result["info"]
    return {
        "correct": not problems and info["failed"] == 0 and all(name in metrics for name in names),
        "attempted": max(1, info["attempted"]),
        "failed": info["failed"],
        "metrics": {
            name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
            for name in names
            if name in metrics
        },
    }


def append_result(path: str, run: Dict[str, Any]) -> None:
    """Add one run to a result file (``{"schema", "runs": [...]}``)."""
    document = {"schema": SCHEMA, "runs": []}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    document["runs"].append(run)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)


def main(argv: Optional[List[str]] = None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]),
                        help="measured seconds of the untraced pass (default: BENCHMARK.json's "
                             "run_seconds; compare only runs of equal length)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=1,
                        help="1 adds the traced pass and its per-layer table (default 1)")
    parser.add_argument("--out", help="append this run to a result file (see compare.py)")
    parser.add_argument("--keep-trace", action="store_true",
                        help="keep the span files of the traced pass")
    args = parser.parse_args(argv)

    # The deployments are part of the experiment: ignore the overrides that
    # re-base every engine onto a WAL or every server onto a cluster.
    for name in harness.PINNED_ENV:
        os.environ.pop(name, None)
    end_to_end = [entry["name"] for entry in contract["end_to_end"]]
    per_layer = [entry["name"] for entry in contract["per_layer"]]
    selected = list(WORKLOADS.values()) if args.workload == "all" else [WORKLOADS[args.workload]]
    workdir = harness.make_workdir()
    run: Dict[str, Any] = {
        "schema": SCHEMA,
        "seed": args.seed,
        "seconds": args.seconds,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "python": platform.python_version(),
        "workloads": {},
    }
    last: Dict[str, Any] = {}
    try:
        for workload in selected:
            print(f"\n=== {workload.name} (seed {args.seed}) ===\n{workload.why}")
            result = untraced_pass(workload, args.seed, args.seconds, workdir)
            print_metrics(f"end-to-end, tracing off, {args.seconds:g} s measured",
                          result["metrics"])
            print_info(result["info"])
            entry: Dict[str, Any] = {
                "end_to_end": result["metrics"],
                "info": result["info"],
                "problems": list(result["problems"]),
            }
            last = contract_line(result, end_to_end, entry["problems"])
            if args.trace:
                traced = traced_pass(
                    workload, args.seed, min(TRACED_SECONDS, args.seconds), workdir,
                    result["metrics"]["get_student_p50_ms"]["value"],
                )
                print_metrics("per-layer, traced pass", traced["metrics"])
                print_info(traced["info"])
                entry["per_layer"] = traced["metrics"]
                entry["trace_info"] = traced["info"]
                entry["problems"] += traced["problems"]
                last = contract_line(traced, per_layer, entry["problems"])
            for problem in entry["problems"]:
                print(f"  CHECK FAILED: {problem}")
            run["workloads"][workload.name] = entry
        if args.out:
            append_result(args.out, run)
    finally:
        if args.keep_trace:
            print(f"\nspan files kept under {workdir}")
        else:
            harness.remove_workdir(workdir)
    correct = not any(entry["problems"] for entry in run["workloads"].values())
    if len(selected) == 1:
        correct = last["correct"]
    else:
        last = {"correct": correct, "workloads": sorted(run["workloads"])}
    print()
    print(json.dumps(last))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
