"""E10 (Section 6.2): data caching.

The paper's cross-layer optimization discussion proposes caching read-mostly
data — including "entire HTML pages or fragments of pages" — to avoid
rebuilding them on every access.  Two caches implemented here are measured
under a read-mostly workload:

* HTML fragment caching in the renderer (pages are re-rendered only when the
  engine state version changes);
* activation-query result caching in the engine (reactivation reuses
  memoised activation tuples while no state change occurred).

Shape: with ~20 reads per write, caching wins clearly on the read path and
the hit rate tracks the read/write ratio.
"""

from __future__ import annotations

import time

import pytest

from repro.apps.minicms import ADMIN_USER
from repro.config import CacheConfig, EngineConfig
from repro.presentation.renderer import PageRenderer
from repro.runtime.engine import HildaEngine

from .conftest import fresh_engine, print_series, quick, scaled_engine


def _render_workload(renderer, engine, session, reads_per_write=quick(20, 8), writes=3):
    """Render pages read-mostly, interleaving a few state-changing actions."""
    import datetime

    pages = 0
    for _ in range(writes):
        for _ in range(reads_per_write):
            renderer.render_session(session)
            pages += 1
        create = engine.find_instances("CreateAssignment", session_id=session)[0]
        update = create.find_children("UpdateRow")[0]
        engine.perform(
            update.instance_id,
            ["touch", datetime.date(2006, 4, 1), datetime.date(2006, 4, 2)],
        )
    return pages


def test_bench_page_rendering_without_cache(benchmark, minicms_program):
    engine = fresh_engine(minicms_program)
    session = engine.start_session({"user": [(ADMIN_USER,)]})
    renderer = PageRenderer(engine, cache_fragments=False)
    benchmark(renderer.render_session, session)


def test_bench_page_rendering_with_fragment_cache(benchmark, minicms_program):
    engine = fresh_engine(minicms_program)
    session = engine.start_session({"user": [(ADMIN_USER,)]})
    renderer = PageRenderer(engine, cache_fragments=True)
    renderer.render_session(session)  # warm the cache
    benchmark(renderer.render_session, session)
    assert renderer.stats.cache_hits > 0


def test_bench_read_mostly_workload_cache_ablation(benchmark, minicms_program):
    """The full read-mostly workload with and without the fragment cache."""

    def run(cache_fragments: bool):
        engine = fresh_engine(minicms_program)
        session = engine.start_session({"user": [(ADMIN_USER,)]})
        renderer = PageRenderer(engine, cache_fragments=cache_fragments)
        start = time.perf_counter()
        pages = _render_workload(renderer, engine, session)
        elapsed = (time.perf_counter() - start) * 1000
        return elapsed, pages, renderer.stats

    cold_ms, pages, _ = run(False)
    warm_ms, _, stats = run(True)

    benchmark.pedantic(lambda: run(True), rounds=1, iterations=1)
    hit_rate = stats.cache_hits / max(1, stats.cache_hits + stats.cache_misses)
    print_series(
        "E10 Section 6.2 — fragment caching under a read-mostly workload",
        [
            ("pages rendered", pages),
            ("no cache", f"{cold_ms:.1f} ms"),
            ("fragment cache", f"{warm_ms:.1f} ms"),
            ("speedup", f"{cold_ms / warm_ms:.1f}x" if warm_ms else "inf"),
            ("cache hit rate", f"{hit_rate:.0%}"),
        ],
        ["metric", "value"],
    )
    assert warm_ms <= cold_ms * 1.5  # caching must not be slower


def test_bench_activation_query_cache_ablation(benchmark, minicms_program):
    """Reactivation cost with and without activation-query caching."""

    def refresh_many(cache: bool) -> float:
        engine = scaled_engine(
            minicms_program,
            n_courses=quick(4, 2),
            n_students=quick(8, 4),
            n_assignments=3,
            config=EngineConfig(cache=CacheConfig(activation_queries=cache)),
        )
        engine.start_session({"user": [(ADMIN_USER,)]})
        start = time.perf_counter()
        for _ in range(5):
            engine.reactivate_all()
        return (time.perf_counter() - start) * 1000

    without_cache = refresh_many(False)
    with_cache = refresh_many(True)
    benchmark.pedantic(lambda: refresh_many(True), rounds=1, iterations=1)
    print_series(
        "E10 Section 6.2 — activation-query caching (5 refreshes, no writes)",
        [
            ("no cache", f"{without_cache:.1f} ms"),
            ("activation cache", f"{with_cache:.1f} ms"),
            ("speedup", f"{without_cache / with_cache:.2f}x" if with_cache else "inf"),
        ],
        ["variant", "time"],
    )
