"""EXPLAIN / EXPLAIN ANALYZE output: estimates, actuals and the footprint."""

from __future__ import annotations

import re

from repro.config import EngineConfig, OptimizerConfig
from repro.relational.database import Database
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType
from repro.sql.executor import SQLExecutor


def sample_db() -> Database:
    db = Database()
    db.create_table(
        TableSchema(
            "zebra", [Column("zid", DataType.INT), Column("aid", DataType.INT)], ["zid"]
        )
    )
    db.create_table(
        TableSchema(
            "ant", [Column("aid", DataType.INT), Column("name", DataType.STRING)], ["aid"]
        )
    )
    db.insert_many("ant", [(aid, f"a{aid}") for aid in range(10)])
    db.insert_many("zebra", [(zid, zid % 10) for zid in range(50)])
    return db


JOIN = "SELECT Z.zid, A.name FROM zebra Z, ant A WHERE Z.aid = A.aid"


class TestExplainAnalyze:
    def test_actual_rows_and_loops_are_reported(self):
        executor = SQLExecutor(sample_db())
        text = executor.explain(JOIN, analyze=True)
        assert "[actual rows=" in text
        assert "loops=1]" in text
        # The join's actual output is every zebra row.
        join_line = next(line for line in text.splitlines() if "Join" in line)
        assert "[actual rows=50 loops=1]" in join_line

    def test_estimates_sit_next_to_actuals(self):
        text = SQLExecutor(sample_db()).explain(JOIN, analyze=True)
        join_line = next(line for line in text.splitlines() if "Join" in line)
        assert re.search(r"\(est rows=\d+ cost=[\d.]+\)\s+\[actual rows=", join_line)

    def test_estimation_error_counters(self):
        executor = SQLExecutor(sample_db())
        executor.explain(JOIN, analyze=True)
        stats = executor.stats
        assert stats.estimation_checks > 0
        # The equi-join estimate on this uniform data is accurate: nothing
        # should be off by more than a q-error of 2.
        assert stats.estimation_underestimates == 0
        assert stats.estimation_overestimates == 0

    def test_bad_estimates_are_counted(self):
        db = sample_db()
        executor = SQLExecutor(db)
        # A predicate the estimator cannot see through: the default
        # selectivity (25%) badly overestimates an empty result.
        executor.explain(
            "SELECT Z.zid FROM zebra Z, ant A WHERE Z.aid = A.aid AND Z.zid + A.aid < -1",
            analyze=True,
        )
        assert executor.stats.estimation_overestimates > 0

    def test_analyze_does_not_poison_the_plan_cache(self):
        executor = SQLExecutor(sample_db())
        text = executor.explain(JOIN, analyze=True)
        assert "[actual rows=" in text
        # The cached plan used for execution afterwards is uninstrumented.
        assert sorted(executor.query_rows(JOIN))[0] == (0, "a0")
        assert "[actual rows=" not in executor.explain(JOIN)

    def test_analyze_works_under_the_heuristic_strategy(self):
        executor = SQLExecutor(
            sample_db(), config=EngineConfig(optimizer=OptimizerConfig.heuristic())
        )
        text = executor.explain(JOIN, analyze=True)
        assert "[actual rows=50 loops=1]" in text
        assert "(est rows=" not in text  # heuristic plans carry no estimates
        assert executor.stats.estimation_checks == 0
        # No estimate -> no q-error to print either.
        assert " q=" not in text

    def test_per_operator_q_error_is_printed(self):
        text = SQLExecutor(sample_db()).explain(JOIN, analyze=True)
        join_line = next(line for line in text.splitlines() if "Join" in line)
        # est 50, actual 50: a perfect estimate prints q=1.00 after the
        # actual-rows bracket so mis-planned nodes are visible inline.
        assert re.search(r"\[actual rows=50 loops=1\] q=1\.00$", join_line)

    def test_q_error_flags_the_misestimated_operator(self):
        executor = SQLExecutor(sample_db())
        text = executor.explain(
            "SELECT Z.zid FROM zebra Z, ant A WHERE Z.aid = A.aid AND Z.zid + A.aid < -1",
            analyze=True,
        )
        values = [
            float(match.group(1)) for match in re.finditer(r" q=([\d.]+)", text)
        ]
        assert values, "analyze output should print per-operator q-errors"
        # The impossible predicate's operator overestimates by far more
        # than the q-error-of-2 reporting threshold.
        assert max(values) > 2.0

    def test_estimation_stats_are_engine_scoped(self):
        # EXPLAIN ANALYZE feeds the totals of the caches it plans through,
        # so two engines (two SQLCaches) count independently.
        first = SQLExecutor(sample_db())
        second = SQLExecutor(sample_db())
        first.explain(JOIN, analyze=True)
        assert first.caches.estimation.checks > 0
        assert second.caches.estimation.checks == 0
        first.caches.estimation.reset()
        assert first.caches.estimation.as_dict() == {
            "checks": 0,
            "underestimates": 0,
            "overestimates": 0,
        }


class TestTablesReadLine:
    def test_footprint_is_deterministically_sorted(self):
        # Built from a frozenset internally; the rendered line must not
        # depend on set iteration order.
        db = sample_db()
        db.create_table(TableSchema("mule", [Column("mid", DataType.INT)], ["mid"]))
        query = (
            "SELECT count(*) FROM zebra Z, mule M, ant A "
            "WHERE Z.aid = A.aid AND M.mid = Z.zid"
        )
        for executor in (
            SQLExecutor(db),
            SQLExecutor(db, config=EngineConfig(optimizer=OptimizerConfig.heuristic())),
        ):
            text = executor.explain(query)
            assert text.splitlines()[-1] == "Tables read: ant, mule, zebra"

    def test_footprint_present_under_analyze(self):
        text = SQLExecutor(sample_db()).explain(JOIN, analyze=True)
        assert text.splitlines()[-1] == "Tables read: ant, zebra"
