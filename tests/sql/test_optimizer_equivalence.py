"""Property test: every optimizer strategy returns the same result sets.

Across generated multi-join queries on the MiniCMS persistent schemas,
cost-based plans, heuristic plans and unoptimized plans must agree on the
row *multiset* — and on the exact row order when the query has an ORDER BY
over a total ordering of the output.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.config import EngineConfig, OptimizerConfig
from repro.relational.database import Database
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType
from repro.sql.executor import SQLExecutor

#: The MiniCMS persistent schema slice the generated queries join over
#: (course <- staff / student / assign, exactly the paper's shapes).
COURSE = TableSchema(
    "course", [Column("cid", DataType.INT), Column("cname", DataType.STRING)], ["cid"]
)
STAFF = TableSchema(
    "staff",
    [
        Column("stid", DataType.INT),
        Column("cid", DataType.INT),
        Column("sname", DataType.STRING),
        Column("role", DataType.STRING),
    ],
    ["stid"],
)
STUDENT = TableSchema(
    "student",
    [Column("sid", DataType.INT), Column("cid", DataType.INT), Column("sname", DataType.STRING)],
    ["sid"],
)
ASSIGN = TableSchema(
    "assign",
    [Column("aid", DataType.INT), Column("cid", DataType.INT), Column("name", DataType.STRING)],
    ["aid"],
)

cids = st.integers(min_value=0, max_value=4)
courses = st.lists(
    st.tuples(cids, st.sampled_from(["cs433", "cs501", "kayaking"])),
    max_size=5,
    unique_by=lambda row: row[0],
)
staff_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=20),
        cids,
        st.sampled_from(["alice", "bob"]),
        st.sampled_from(["prof", "ta"]),
    ),
    max_size=8,
    unique_by=lambda row: row[0],
)
student_rows = st.lists(
    st.tuples(st.integers(min_value=0, max_value=20), cids, st.sampled_from(["carol", "dan"])),
    max_size=8,
    unique_by=lambda row: row[0],
)
assign_rows = st.lists(
    st.tuples(st.integers(min_value=0, max_value=20), cids, st.sampled_from(["hw1", "hw2"])),
    max_size=6,
    unique_by=lambda row: row[0],
)


def build_db(course, staff, student, assign) -> Database:
    db = Database()
    for schema, rows in (
        (COURSE, course),
        (STAFF, staff),
        (STUDENT, student),
        (ASSIGN, assign),
    ):
        db.create_table(schema)
        db.insert_many(schema.name, rows)
    return db


def build_query(from_order, include_assign, predicate, order_by) -> str:
    aliases = {"course": "C", "staff": "S", "student": "T", "assign": "A"}
    tables = [name for name in from_order if include_assign or name != "assign"]
    from_clause = ", ".join(f"{name} {aliases[name]}" for name in tables)
    conjuncts = ["S.cid = C.cid", "T.cid = C.cid"]
    select = ["C.cid", "S.stid", "T.sid", "S.role"]
    if include_assign:
        conjuncts.append("A.cid = C.cid")
        select.append("A.aid")
    if predicate:
        conjuncts.append("S.role = 'ta'")
    sql = f"SELECT {', '.join(select)} FROM {from_clause} WHERE {' AND '.join(conjuncts)}"
    if order_by:
        # The key prefix (cid, stid, sid[, aid]) totally orders the output,
        # so the three strategies must agree on the exact sequence.
        keys = ["C.cid", "S.stid", "T.sid"] + (["A.aid"] if include_assign else [])
        sql += f" ORDER BY {', '.join(keys)}"
    return sql


@settings(max_examples=60, deadline=None)
@given(
    course=courses,
    staff=staff_rows,
    student=student_rows,
    assign=assign_rows,
    from_order=st.permutations(["course", "staff", "student", "assign"]),
    include_assign=st.booleans(),
    predicate=st.booleans(),
    order_by=st.booleans(),
)
def test_all_strategies_return_identical_result_sets(
    course, staff, student, assign, from_order, include_assign, predicate, order_by
):
    db = build_db(course, staff, student, assign)
    query = build_query(from_order, include_assign, predicate, order_by)

    cost = SQLExecutor(db).query_rows(query)
    heuristic = SQLExecutor(
        db, config=EngineConfig(optimizer=OptimizerConfig.heuristic())
    ).query_rows(query)
    unoptimized = SQLExecutor(db, config=EngineConfig(optimize=False)).query_rows(query)

    assert Counter(cost) == Counter(heuristic) == Counter(unoptimized)
    if order_by:
        assert cost == heuristic == unoptimized


@settings(max_examples=25, deadline=None)
@given(
    course=courses,
    staff=staff_rows,
    student=student_rows,
    from_order=st.permutations(["course", "staff", "student"]),
)
def test_auto_indexed_cost_plans_agree_with_unoptimized(course, staff, student, from_order):
    """Index-nested-loop choices must not change results either."""
    db = build_db(course, staff, student, [])
    query = build_query(from_order + ["assign"], False, False, False)
    indexed = SQLExecutor(db, config=EngineConfig(auto_index=True)).query_rows(query)
    unoptimized = SQLExecutor(db, config=EngineConfig(optimize=False)).query_rows(query)
    assert Counter(indexed) == Counter(unoptimized)
