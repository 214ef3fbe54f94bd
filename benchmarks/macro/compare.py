"""Compare result files of the macro-benchmark: the A/A check and the gate.

    python3 benchmarks/macro/compare.py A.json B.json [C.json ...]

Each file holds the runs appended by ``run.py --out FILE``.  For every
workload x end-to-end metric the first file is the base; each further file
is compared with it.  One row prints both medians with their quartiles and
a verdict:

* ``unresolved`` — the run-to-run spread of either side (interquartile
  range over the base median) exceeds the metric's bound, so the comparison
  cannot tell a change from noise.  This is *not* ``unchanged``.
* ``REGRESSED`` / ``improved`` — the medians differ by more than the bound.
* ``unchanged`` — they do not.

Every row counts: the exit code is 1 when any row is regressed or unresolved.
Bounds come from ``BENCHMARK.json`` for the metrics every workload reports.
That file's schema has no place for a metric only some workloads report or
one that is 0 on a healthy run, so the bounds of those are in
:data:`WORKLOAD_BOUNDS` here, and nowhere else.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))
    import benchmarks.macro  # noqa: F401 - parent package of the relative import

    __package__ = "benchmarks.macro"

from . import ROOT, stats  # noqa: E402 - after the path set-up

class Bound(NamedTuple):
    better: str  # "lower" | "higher"
    limit: float
    #: ``rel``: a share of the base median; ``abs``: in the metric's own unit.
    kind: str = "rel"


#: End-to-end metrics ``BENCHMARK.json`` cannot list (see the module text).
WORKLOAD_BOUNDS: Dict[str, Bound] = {
    "post_local_p50_ms": Bound("lower", 0.10),
    "post_persist_p50_ms": Bound("lower", 0.15),
    "post_local_p95_ms": Bound("lower", 0.25),
    "post_persist_p95_ms": Bound("lower", 0.25),
    "get_admin_p95_ms": Bound("lower", 0.25),
    "get_student_p95_ms": Bound("lower", 0.25),
    "error_rate": Bound("lower", 0.0, "abs"),
    "conflict_rate": Bound("lower", 0.01, "abs"),
    "wal_bytes_per_commit": Bound("lower", 0.02),
}


def load_bounds() -> Dict[str, Bound]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    bounds = dict(WORKLOAD_BOUNDS)
    for entry in contract["end_to_end"]:
        bounds[entry["name"]] = Bound(entry["better"], float(entry["bound"]))
    return bounds


def collect(path: str) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> that metric's value in every run of the file."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    values: Dict[str, Dict[str, List[float]]] = {}
    for run in document["runs"]:
        for workload, entry in run["workloads"].items():
            for name, metric in entry.get("end_to_end", {}).items():
                values.setdefault(workload, {}).setdefault(name, []).append(metric["value"])
    return values


def verdict(base: Sequence[float], other: Sequence[float], bound: Bound) -> Tuple[str, Dict[str, Any]]:
    """Judge one metric of one workload; returns (verdict, numbers shown)."""
    better, limit, kind = bound
    a, b = stats.quartiles(base), stats.quartiles(other)
    scale = abs(a["median"]) if kind == "rel" else 1.0
    worse = (b["median"] - a["median"]) * (1.0 if better == "lower" else -1.0)
    noise = max(a["q3"] - a["q1"], b["q3"] - b["q1"])
    if scale == 0.0:
        worse_share = noise_share = 0.0 if worse == 0 and noise == 0 else float("inf")
    else:
        worse_share, noise_share = worse / scale, noise / scale
    numbers = {"base": a, "other": b, "worse": worse_share, "noise": noise_share}
    if noise_share > limit:
        return "unresolved", numbers
    if worse_share > limit:
        return "REGRESSED", numbers
    if kind == "rel" and -worse_share > limit:
        return "improved", numbers
    return "unchanged", numbers


def compare(paths: Sequence[str], bounds: Optional[Dict[str, Bound]] = None) -> Tuple[List[str], bool]:
    """The report lines for ``paths`` and whether every row is resolved and unregressed."""
    bounds = bounds if bounds is not None else load_bounds()
    base = collect(paths[0])
    lines = [
        f"base: {paths[0]}",
        f"{'workload':<14} {'metric':<22} {'base median [q1..q3]':>34} "
        f"{'other median [q1..q3]':>34} {'worse by':>9} {'noise':>7} {'bound':>6}  verdict",
    ]
    clean = True
    for path in paths[1:]:
        other = collect(path)
        lines.append(f"against: {path}")
        for workload in sorted(base):
            for name in sorted(base[workload]):
                if name not in bounds or name not in other.get(workload, {}):
                    continue
                bound = bounds[name]
                word, n = verdict(base[workload][name], other[workload][name], bound)
                clean = clean and word in ("unchanged", "improved")
                a, b = n["base"], n["other"]
                lines.append(
                    f"{workload:<14} {name:<22} "
                    f"{a['median']:>12.4f} [{a['q1']:>8.3f}..{a['q3']:>8.3f}] "
                    f"{b['median']:>12.4f} [{b['q1']:>8.3f}..{b['q3']:>8.3f}] "
                    f"{n['worse']:>+9.3f} {n['noise']:>7.3f} {bound.limit:>6.2f}  {word}"
                )
    return lines, clean


def main(argv: Optional[List[str]] = None) -> int:
    paths = list(sys.argv[1:] if argv is None else argv)
    if len(paths) < 2:
        print(__doc__)
        return 2
    lines, clean = compare(paths)
    print("\n".join(lines))
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
