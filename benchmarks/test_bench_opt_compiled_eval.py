"""Query compilation and secondary indexes on the SQL hot path.

Hilda's thesis is that the declarative program should *compile* into an
efficient runtime.  Two engine-level optimizations are measured here on
scaled MiniCMS persistent data:

* **expression compilation** — filters/projections run as plain Python
  closures over tuple offsets instead of tree-walking the AST per row
  (``ExecutionStats.interpreted_evals`` vs ``compiled_evals``);
* **secondary hash indexes** — equality predicates and equi-join keys are
  answered with index lookups instead of full scans
  (``rows_scanned`` / ``index_hits``, IndexScan in EXPLAIN).

Shape: compilation cuts per-row interpreter dispatches by well over 3x and
wins wall-clock on filter-heavy queries; index selection turns the
point-lookup workload's scan cost from O(rows) into O(result).
"""

from __future__ import annotations

import time

from repro.config import EngineConfig
from repro.runtime.context import DictCatalog
from repro.sql.executor import SQLExecutor

from .conftest import print_series, quick, scaled_engine, write_bench_json

#: Point-lookup / filter-heavy statements modeled on MiniCMS page queries.
FILTER_QUERY = (
    "SELECT S.sid, S.sname FROM student S "
    "WHERE S.cid = 10 AND S.sname LIKE 'stu%' AND S.sid > 0"
)
JOIN_QUERY = (
    "SELECT C.cname, S.sname, M.grade "
    "FROM course C, student S, groupmember M "
    "WHERE C.cid = S.cid AND M.sid = S.sid AND C.cid = 10"
)
REPEATS = quick(40, 15)


def _catalog(minicms_program) -> DictCatalog:
    engine = scaled_engine(
        minicms_program, n_courses=6, n_students=quick(150, 60), n_assignments=3
    )
    tables = {
        name: engine.persistent_table(name)
        for name in ("course", "staff", "student", "assign", "problem", "group", "groupmember")
    }
    return DictCatalog(tables)


def _run(executor: SQLExecutor, query: str, repeats: int = REPEATS):
    executor.query_rows(query)  # warm parse/plan/compile caches
    executor.reset_stats()
    start = time.perf_counter()
    for _ in range(repeats):
        rows = executor.query_rows(query)
    elapsed = (time.perf_counter() - start) * 1000
    return elapsed, rows, executor.reset_stats()


def test_bench_compiled_vs_interpreted_filter(benchmark, minicms_program):
    """Compiled closures vs tree-walking evaluation on a filter-heavy query."""
    catalog = _catalog(minicms_program)
    interpreted = SQLExecutor(catalog, config=EngineConfig(compile_expressions=False))
    compiled = SQLExecutor(catalog, config=EngineConfig(compile_expressions=True))

    interp_ms, interp_rows, interp_stats = _run(interpreted, FILTER_QUERY)
    comp_ms, comp_rows, comp_stats = _run(compiled, FILTER_QUERY)
    assert sorted(comp_rows) == sorted(interp_rows)

    benchmark.pedantic(lambda: compiled.query_rows(FILTER_QUERY), rounds=5, iterations=2)

    dispatch_ratio = interp_stats.interpreted_evals / max(1, comp_stats.interpreted_evals)
    print_series(
        "perf_opt — compiled vs interpreted filter/projection "
        f"({REPEATS}x, {len(comp_rows)} rows out)",
        [
            ("interpreted", f"{interp_ms:.1f} ms", interp_stats.interpreted_evals, 0),
            ("compiled", f"{comp_ms:.1f} ms", comp_stats.interpreted_evals,
             comp_stats.compiled_evals),
            ("ratio", f"{interp_ms / comp_ms:.2f}x" if comp_ms else "inf",
             f"{dispatch_ratio:.0f}x fewer", "-"),
        ],
        ["variant", "time", "interp dispatches", "compiled evals"],
    )
    write_bench_json(
        "compiled_eval",
        {
            "repeats": REPEATS,
            "interpreted": {"elapsed_ms": interp_ms, "stats": interp_stats.as_dict()},
            "compiled": {"elapsed_ms": comp_ms, "stats": comp_stats.as_dict()},
            "speedup": interp_ms / comp_ms if comp_ms else None,
            "dispatch_ratio": dispatch_ratio,
            "ops_per_sec": REPEATS / (comp_ms / 1000) if comp_ms else None,
        },
    )
    # Acceptance: >= 3x fewer per-row interpreter dispatches and no slowdown.
    assert interp_stats.interpreted_evals >= 3 * max(1, comp_stats.interpreted_evals)
    assert comp_stats.compiled_evals > 0
    assert comp_ms <= interp_ms * 1.2  # compiled must win (slack for CI noise)


def test_bench_indexed_vs_full_scan_selection(benchmark, minicms_program):
    """Point lookups: secondary-index selection vs full scans."""
    catalog = _catalog(minicms_program)
    scanning = SQLExecutor(catalog, config=EngineConfig(auto_index=False))
    indexed = SQLExecutor(catalog, config=EngineConfig(auto_index=True))

    queries = [f"SELECT sname FROM student WHERE sid = {sid}" for sid in range(1, 41)]

    def lookup_workload(executor: SQLExecutor):
        executor.reset_stats()
        start = time.perf_counter()
        results = [executor.query_rows(query) for query in queries]
        elapsed = (time.perf_counter() - start) * 1000
        return elapsed, results, executor.reset_stats()

    lookup_workload(scanning)  # warm parse caches
    lookup_workload(indexed)
    scan_ms, scan_rows, scan_stats = lookup_workload(scanning)
    index_ms, index_rows, index_stats = lookup_workload(indexed)
    assert index_rows == scan_rows

    explain = indexed.explain(queries[0])
    assert "IndexScan" in explain

    benchmark.pedantic(lambda: lookup_workload(indexed), rounds=3, iterations=1)
    print_series(
        f"perf_opt — {len(queries)} point lookups on {len(catalog.resolve_table('student'))} students",
        [
            ("full scan", f"{scan_ms:.2f} ms", scan_stats.rows_scanned, 0),
            ("index scan", f"{index_ms:.2f} ms", index_stats.rows_scanned,
             index_stats.index_hits),
            ("speedup", f"{scan_ms / index_ms:.2f}x" if index_ms else "inf", "-", "-"),
        ],
        ["variant", "time", "rows scanned", "index hits"],
    )
    write_bench_json(
        "compiled_eval_point_lookups",
        {
            "queries": len(queries),
            "full_scan": {"elapsed_ms": scan_ms, "stats": scan_stats.as_dict()},
            "index_scan": {"elapsed_ms": index_ms, "stats": index_stats.as_dict()},
            "speedup": scan_ms / index_ms if index_ms else None,
            "ops_per_sec": len(queries) / (index_ms / 1000) if index_ms else None,
        },
    )
    assert index_stats.rows_scanned < scan_stats.rows_scanned / 10
    assert index_stats.index_hits == len(queries)


def test_bench_index_join_on_minicms_shape(benchmark, minicms_program):
    """The activation-query join shape with hash joins vs index-NL joins."""
    catalog = _catalog(minicms_program)
    hashed = SQLExecutor(catalog, config=EngineConfig(auto_index=False))
    indexed = SQLExecutor(catalog, config=EngineConfig(auto_index=True))

    hash_ms, hash_rows, hash_stats = _run(hashed, JOIN_QUERY, repeats=20)
    index_ms, index_rows, index_stats = _run(indexed, JOIN_QUERY, repeats=20)
    assert sorted(index_rows) == sorted(hash_rows)

    benchmark.pedantic(lambda: indexed.query_rows(JOIN_QUERY), rounds=5, iterations=2)
    print_series(
        "perf_opt — 3-way join: hash joins vs index-nested-loop joins (20x)",
        [
            ("hash join", f"{hash_ms:.1f} ms", hash_stats.rows_scanned, 0),
            ("index join", f"{index_ms:.1f} ms", index_stats.rows_scanned,
             index_stats.index_hits),
        ],
        ["variant", "time", "rows scanned", "index hits"],
    )
    # The index plan must avoid materialising full scans of the probed tables.
    assert index_stats.rows_scanned < hash_stats.rows_scanned
