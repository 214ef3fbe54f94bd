"""Tests for plan-derived table read sets (dependency footprints)."""

from __future__ import annotations

import pytest

from repro.config import EngineConfig
from repro.sql.executor import SQLExecutor
from repro.sql.planner import tables_read


class TestReadSets:
    def test_single_table(self, sql):
        assert sql.read_set("SELECT cname FROM course") == {"course"}

    def test_comma_join(self, sql):
        reads = sql.read_set(
            "SELECT C.cname FROM course C, staff S WHERE C.cid = S.cid"
        )
        assert reads == {"course", "staff"}

    def test_in_subquery_tables_are_included(self, sql):
        reads = sql.read_set(
            "SELECT C.cname FROM course C "
            "WHERE C.cid IN (SELECT S.cid FROM staff S WHERE S.role = 'admin')"
        )
        assert reads == {"course", "staff"}

    def test_exists_subquery_tables_are_included(self, sql):
        reads = sql.read_set(
            "SELECT C.cname FROM course C "
            "WHERE EXISTS (SELECT S.sid FROM student S WHERE S.cid = C.cid)"
        )
        assert reads == {"course", "student"}

    def test_scalar_subquery_in_select_list(self, sql):
        reads = sql.read_set(
            "SELECT C.cname, (SELECT COUNT(*) FROM student S WHERE S.cid = C.cid) "
            "FROM course C"
        )
        assert reads == {"course", "student"}

    def test_derived_table(self, sql):
        reads = sql.read_set(
            "SELECT X.cname FROM (SELECT cname FROM course) X"
        )
        assert reads == {"course"}

    def test_union_covers_both_branches(self, sql):
        reads = sql.read_set(
            "SELECT sname FROM staff UNION SELECT sname FROM student"
        )
        assert reads == {"staff", "student"}

    def test_index_scan_plan_reports_its_table(self, sample_db):
        executor = SQLExecutor(sample_db, config=EngineConfig(auto_index=True))
        query = "SELECT cname FROM course WHERE cid = 10"
        assert "IndexScan" in executor.explain(query)
        assert executor.read_set(query) == {"course"}

    def test_implicit_qualifier_table(self, sql):
        # Hilda's activationTuple pattern: the table appears only through a
        # column qualifier, and only the planner resolves it.
        reads = sql.read_set("SELECT course.cname FROM staff S WHERE S.cid = 10")
        assert reads == {"staff", "course"}

    def test_read_set_is_cached_per_plan(self, sql):
        query = "SELECT cname FROM course"
        first = sql.read_set(query)
        assert sql.read_set(query) is first

    def test_tables_read_without_planner_uses_syntactic_fallback(self, sql):
        plan = sql._plan(sql._parse_query("SELECT C.cname FROM course C"))
        assert tables_read(plan) == {"course"}


class TestExplainFootprint:
    def test_explain_reports_tables_read(self, sql):
        text = sql.explain(
            "SELECT C.cname FROM course C, staff S WHERE C.cid = S.cid"
        )
        assert "Tables read: course, staff" in text

    def test_explain_reports_empty_footprint(self, sql):
        assert "Tables read: (none)" in sql.explain("SELECT 1")


class TestDeltaFootprint:
    """Read sets drive incremental-maintenance classification.

    ``classify_plan`` consumes the same plan-derived footprint the
    dependency tracker uses; these tests pin that the delta spine's
    *source* table is always part of the read set (otherwise a mutation
    could patch a cache entry the invalidator never flagged) and that
    footprints with subqueries stay on the recompute path.
    """

    def _classify(self, sql, query):
        from repro.sql.delta import classify_plan

        ast = sql._parse_query(query)
        plan = sql._plan(ast)
        return classify_plan(ast, plan, frozenset(sql.read_set(query))), plan

    def test_delta_source_is_in_read_set(self, sql):
        query = "SELECT cname FROM course WHERE cid > 10"
        (program, reason), _ = self._classify(sql, query)
        assert program is not None, reason
        assert program.source in sql.read_set(query)

    def test_join_spine_source_is_in_read_set(self, sql):
        query = (
            "SELECT S.sname FROM staff S, course C "
            "WHERE S.cid = C.cid AND S.role = 'admin'"
        )
        (program, reason), _ = self._classify(sql, query)
        assert program is not None, reason
        reads = sql.read_set(query)
        assert program.source in reads
        # Every table the delta program touches is visible to the
        # dependency tracker — nothing escapes the footprint.
        assert {"staff", "course"} <= reads

    def test_index_join_inner_table_is_in_read_set(self, sample_db):
        executor = SQLExecutor(sample_db, config=EngineConfig(auto_index=True))
        query = (
            "SELECT S.sname FROM student S, course C WHERE S.cid = C.cid"
        )
        explained = executor.explain(query)
        reads = executor.read_set(query)
        assert {"student", "course"} <= reads
        if "IndexNestedLoopJoin" in explained:
            from repro.sql.delta import classify_plan

            ast = executor._parse_query(query)
            plan = executor._plan(ast)
            program, reason = classify_plan(ast, plan, frozenset(reads))
            assert program is not None, reason

    def test_subquery_footprint_forces_recompute(self, sql):
        query = (
            "SELECT C.cname FROM course C "
            "WHERE C.cid IN (SELECT S.cid FROM staff S)"
        )
        (program, reason), _ = self._classify(sql, query)
        assert program is None
        # The subquery's table still shows up in the footprint, so the
        # plain invalidation path keeps covering what delta rules cannot.
        assert sql.read_set(query) == {"course", "staff"}
