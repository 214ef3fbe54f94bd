"""Property-based tests for the SQL engine (hypothesis)."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.config import EngineConfig
from repro.relational.database import Database
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType
from repro.sql.executor import SQLExecutor

#: Small integer values keep the cross products manageable.
values = st.integers(min_value=-5, max_value=5)
rows = st.lists(st.tuples(values, values), min_size=0, max_size=12)


def make_db(rows_r, rows_s):
    db = Database()
    db.create_table(TableSchema("r", [Column("a", DataType.INT), Column("b", DataType.INT)]))
    db.create_table(TableSchema("s", [Column("c", DataType.INT), Column("d", DataType.INT)]))
    db.insert_many("r", rows_r)
    db.insert_many("s", rows_s)
    return db


@settings(max_examples=60, deadline=None)
@given(rows_r=rows, rows_s=rows)
def test_hash_join_equals_nested_loop_join(rows_r, rows_s):
    """The optimizer's hash join must produce exactly the nested-loop result."""
    db = make_db(rows_r, rows_s)
    query = "SELECT r.a, r.b, s.c, s.d FROM r, s WHERE r.a = s.c"
    optimized = sorted(SQLExecutor(db, config=EngineConfig(optimize=True)).query_rows(query))
    naive = sorted(SQLExecutor(db, config=EngineConfig(optimize=False)).query_rows(query))
    assert optimized == naive


@settings(max_examples=60, deadline=None)
@given(rows_r=rows)
def test_union_is_duplicate_free_superset(rows_r):
    """r UNION r has the same distinct rows as r and no duplicates."""
    db = make_db(rows_r, [])
    union_rows = SQLExecutor(db).query_rows("SELECT a, b FROM r UNION SELECT a, b FROM r")
    assert len(union_rows) == len(set(union_rows))
    assert set(union_rows) == set(rows_r)


@settings(max_examples=60, deadline=None)
@given(rows_r=rows)
def test_selection_is_subset_and_complement_partitions(rows_r):
    """WHERE a > 0 and WHERE NOT (a > 0) partition the non-null rows."""
    db = make_db(rows_r, [])
    executor = SQLExecutor(db)
    positive = executor.query_rows("SELECT a, b FROM r WHERE a > 0")
    non_positive = executor.query_rows("SELECT a, b FROM r WHERE NOT (a > 0)")
    assert len(positive) + len(non_positive) == len(rows_r)
    for row in positive:
        assert row[0] > 0


@settings(max_examples=60, deadline=None)
@given(rows_r=rows)
def test_count_matches_python(rows_r):
    db = make_db(rows_r, [])
    executor = SQLExecutor(db)
    assert executor.query_scalar("SELECT count(*) FROM r") == len(rows_r)
    assert executor.query_scalar("SELECT sum(a) FROM r") == (
        sum(row[0] for row in rows_r) if rows_r else None
    )


@settings(max_examples=60, deadline=None)
@given(rows_r=rows)
def test_distinct_count_matches_set(rows_r):
    db = make_db(rows_r, [])
    executor = SQLExecutor(db)
    distinct_rows = executor.query_rows("SELECT DISTINCT a, b FROM r")
    assert len(distinct_rows) == len(set(rows_r))


@settings(max_examples=40, deadline=None)
@given(rows_r=rows, rows_s=rows)
def test_left_join_preserves_left_rows(rows_r, rows_s):
    """Every left row appears at least once in a LEFT OUTER JOIN result."""
    db = make_db(rows_r, rows_s)
    joined = SQLExecutor(db).query_rows(
        "SELECT r.a, r.b, s.c FROM r LEFT OUTER JOIN s ON r.a = s.c"
    )
    left_multiset = {}
    for row in rows_r:
        left_multiset[row] = left_multiset.get(row, 0) + 1
    seen = {}
    for a, b, _ in joined:
        seen[(a, b)] = seen.get((a, b), 0) + 1
    for row, count in left_multiset.items():
        assert seen.get(row, 0) >= count
