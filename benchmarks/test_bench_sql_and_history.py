"""SQL-engine ablation and E13 (Section 5): execution-history checking.

Two supporting measurements:

* the SQL engine's join-strategy ablation (hash join vs nested loop) on the
  activation-query shape MiniCMS uses — this is the engine-level choice the
  planner makes for every activation and input query;
* the cost of checking an execution history against the Section 5
  correctness criterion, and confirmation that engine-produced histories are
  always correct (shape: checking is linear in the number of operations).
"""

from __future__ import annotations

import time

import pytest

from repro.apps.minicms import ADMIN_USER, STUDENT1_USER, STUDENT2_USER, seed_scaled
from repro.config import EngineConfig
from repro.relational.database import Database
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType
from repro.runtime.engine import HildaEngine
from repro.runtime.history import HistoryChecker
from repro.sql.executor import SQLExecutor

from .conftest import fresh_engine, print_series


def _join_database(n_rows: int) -> Database:
    db = Database()
    db.create_table(
        TableSchema("course", [Column("cid", DataType.INT), Column("cname", DataType.STRING)])
    )
    db.create_table(
        TableSchema(
            "staff",
            [
                Column("stid", DataType.INT),
                Column("cid", DataType.INT),
                Column("sname", DataType.STRING),
                Column("role", DataType.STRING),
            ],
        )
    )
    for index in range(n_rows):
        db.insert("course", (index, f"Course {index}"))
        db.insert("staff", (index, index % max(1, n_rows // 2), f"user{index % 7}", "admin"))
    return db


_JOIN_QUERY = (
    "SELECT C.cid FROM course C, staff S "
    "WHERE C.cid = S.cid AND S.role = 'admin'"
)


def test_bench_activation_query_hash_join(benchmark):
    executor = SQLExecutor(_join_database(300), config=EngineConfig(optimize=True))
    rows = benchmark(executor.query_rows, _JOIN_QUERY)
    assert rows


def test_bench_activation_query_nested_loop(benchmark):
    executor = SQLExecutor(_join_database(300), config=EngineConfig(optimize=False))
    rows = benchmark(executor.query_rows, _JOIN_QUERY)
    assert rows


def test_bench_join_strategy_shape(benchmark):
    def sweep():
        rows = []
        for size in (100, 300, 900):
            db = _join_database(size)
            start = time.perf_counter()
            SQLExecutor(db, config=EngineConfig(optimize=False)).query_rows(_JOIN_QUERY)
            nested = (time.perf_counter() - start) * 1000
            start = time.perf_counter()
            SQLExecutor(db, config=EngineConfig(optimize=True)).query_rows(_JOIN_QUERY)
            hashed = (time.perf_counter() - start) * 1000
            rows.append((size, f"{nested:.1f} ms", f"{hashed:.1f} ms", f"{nested / hashed:.1f}x"))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_series(
        "SQL ablation — nested-loop vs hash join on the admin activation query",
        rows,
        ["rows/table", "nested loop", "hash join", "speedup"],
    )


def _engine_with_operation_log(program, operations: int) -> HildaEngine:
    engine = fresh_engine(program)
    session1 = engine.start_session({"user": [(STUDENT1_USER,)]})
    session2 = engine.start_session({"user": [(STUDENT2_USER,)]})
    for index in range(operations):
        # Alternate valid accepts/withdraw-conflicts by re-placing invitations.
        accepts = engine.find_instances(
            "SelectRow", session_id=session2, activator="ActAcceptInv"
        )
        if accepts:
            engine.perform(accepts[0].instance_id)
        else:
            students = [
                node
                for node in engine.find_instances("Student", session_id=session1)
                if node.activation_tuple == (10,)
            ]
            place = students[0].find_children("SelectRow", activator="ActPlaceInv")[0]
            row = place.input_tables["input"].rows[0]
            engine.perform(place.instance_id, list(row))
    return engine


def test_bench_history_checker(benchmark, minicms_program):
    """E13 Section 5 — checking an engine history is cheap and always passes."""
    engine = _engine_with_operation_log(minicms_program, operations=10)
    checker = HistoryChecker(engine.history)
    correct = benchmark(checker.check)
    assert correct, checker.explain()
    print_series(
        "E13 Section 5 — execution history of 10 operations",
        [
            ("operations recorded", len(engine.history)),
            ("applied", len(engine.history.applied())),
            ("conflicts", len(engine.history.conflicts())),
            ("history correct", correct),
        ],
        ["metric", "value"],
    )
