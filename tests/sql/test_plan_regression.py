"""PostBOUND-style optimizer plan-regression suite.

A corpus of pinned query -> plan cases over a deterministic skewed
database: each case's full EXPLAIN output (join order, operator choice,
row estimates, costs) is compared line-for-line against the checked-in
``plan_expectations.json``.  Estimator/statistics changes that flip a
join order or shift an estimate fail loudly here instead of silently
regressing production plans.

When a change is *intentional*, refresh the expectations and review the
diff like any other code change::

    PYTHONPATH=src python -m pytest tests/sql/test_plan_regression.py --update-plans

Only the executed cases are rewritten, so ``-k`` selections compose.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.config import EngineConfig, OptimizerConfig
from repro.relational.database import Database
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType
from repro.sql.executor import SQLExecutor

EXPECTATIONS_PATH = os.path.join(os.path.dirname(__file__), "plan_expectations.json")

#: Named optimizer configurations the corpus sweeps (the JSON records the
#: label so expectation diffs stay readable).
CONFIGS = {
    "systemr": EngineConfig(optimizer=OptimizerConfig(strategy="cost")),
    "heuristic": EngineConfig(optimizer=OptimizerConfig.heuristic()),
    "auto_index": EngineConfig(auto_index=True),
}

#: (case name, config label, SQL) — the pinned corpus.  Queries cover
#: uniform joins, skewed joins, MCV-able equality filters, and multi-join
#: orderings.
CASES = [
    (
        "uniform_two_way_systemr",
        "systemr",
        "SELECT I.sku, O.status FROM items I, orders O WHERE I.oid = O.oid",
    ),
    (
        "mcv_filter_join_systemr",
        "systemr",
        "SELECT O.oid, U.uname FROM orders O, users U "
        "WHERE O.uid = U.uid AND O.status = 'open'",
    ),
    (
        "skewed_three_way_systemr",
        "systemr",
        "SELECT U.uname, I.sku FROM users U, orders O, items I "
        "WHERE O.uid = U.uid AND I.oid = O.oid AND U.rid = 0",
    ),
    (
        "four_way_snowflake_systemr",
        "systemr",
        "SELECT R.rname, I.sku FROM region R, users U, orders O, items I "
        "WHERE U.rid = R.rid AND O.uid = U.uid AND I.oid = O.oid "
        "AND R.rname = 'apac'",
    ),
    (
        "four_way_snowflake_heuristic",
        "heuristic",
        "SELECT R.rname, I.sku FROM region R, users U, orders O, items I "
        "WHERE U.rid = R.rid AND O.uid = U.uid AND I.oid = O.oid "
        "AND R.rname = 'apac'",
    ),
    (
        "point_probe_auto_index",
        "auto_index",
        "SELECT O.oid, I.sku FROM orders O, items I "
        "WHERE I.oid = O.oid AND O.uid = 0",
    ),
    (
        "order_by_limit_systemr",
        "systemr",
        "SELECT O.oid, O.uid FROM orders O WHERE O.status = 'done' "
        "ORDER BY O.oid LIMIT 10",
    ),
]


def corpus_db() -> Database:
    """The deterministic skewed corpus: region <- users <- orders <- items.

    ``orders.uid`` is Zipf-ish (half of all orders belong to user 0) and
    ``orders.status`` is a two-value MCV shape (90% ``done``) — the skew
    the System-R uniformity assumption misprices and MCVs capture.
    """
    db = Database("plan_corpus")
    db.create_table(
        TableSchema(
            "region",
            [Column("rid", DataType.INT), Column("rname", DataType.STRING)],
            ["rid"],
        )
    )
    db.create_table(
        TableSchema(
            "users",
            [
                Column("uid", DataType.INT),
                Column("rid", DataType.INT),
                Column("uname", DataType.STRING),
            ],
            ["uid"],
        )
    )
    db.create_table(
        TableSchema(
            "orders",
            [
                Column("oid", DataType.INT),
                Column("uid", DataType.INT),
                Column("status", DataType.STRING),
            ],
            ["oid"],
        )
    )
    db.create_table(
        TableSchema(
            "items",
            [
                Column("iid", DataType.INT),
                Column("oid", DataType.INT),
                Column("sku", DataType.STRING),
            ],
            ["iid"],
        )
    )
    db.insert_many(
        "region", [(rid, name) for rid, name in enumerate(["apac", "emea", "amer"])]
    )
    db.insert_many("users", [(uid, uid % 3, f"u{uid}") for uid in range(120)])
    db.insert_many(
        "orders",
        [
            (oid, 0 if oid % 2 == 0 else oid % 120, "done" if oid % 10 else "open")
            for oid in range(900)
        ],
    )
    db.insert_many("items", [(iid, iid % 900, f"sku{iid % 7}") for iid in range(1800)])
    return db


def load_expectations() -> dict:
    if not os.path.exists(EXPECTATIONS_PATH):
        return {}
    with open(EXPECTATIONS_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def record_expectation(name: str, document: dict) -> None:
    """Rewrite one case's expectation in place (used by ``--update-plans``)."""
    expectations = load_expectations()
    expectations[name] = document
    with open(EXPECTATIONS_PATH, "w", encoding="utf-8") as handle:
        json.dump(expectations, handle, indent=2, sort_keys=True)
        handle.write("\n")


@pytest.mark.parametrize(
    ("name", "config_label", "query"), CASES, ids=[case[0] for case in CASES]
)
def test_plan_is_pinned(request, name, config_label, query):
    # Each case plans against a *fresh* corpus so auto-created indexes
    # from one case can never leak into another's plan.
    executor = SQLExecutor(corpus_db(), config=CONFIGS[config_label])
    plan = executor.explain(query).splitlines()
    document = {"config": config_label, "query": query, "plan": plan}

    if request.config.getoption("--update-plans"):
        record_expectation(name, document)
        return

    expectations = load_expectations()
    assert name in expectations, (
        f"no pinned plan for {name!r}; run with --update-plans to record it"
    )
    expected = expectations[name]
    assert expected["query"] == query, "query text drifted from the expectations file"
    assert plan == expected["plan"], (
        "optimizer plan changed for "
        f"{name!r} ({config_label}).\n--- pinned ---\n"
        + "\n".join(expected["plan"])
        + "\n--- current ---\n"
        + "\n".join(plan)
        + "\nIf intentional, refresh with --update-plans and review the diff."
    )
