"""Shared fixtures for the test suite."""

from __future__ import annotations

import datetime

import pytest

from repro.apps.minicms import load_minicms, load_navcms, seed_paper_scenario
from repro.relational.database import Database
from repro.relational.functions import FunctionRegistry
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType
from repro.runtime.engine import HildaEngine
from repro.sql.executor import SQLExecutor


def pytest_addoption(parser):
    parser.addoption(
        "--update-plans",
        action="store_true",
        default=False,
        help=(
            "Refresh tests/sql/plan_expectations.json from the plans the "
            "optimizer produces now instead of asserting against it "
            "(the plan-regression suite's update tool)."
        ),
    )
    parser.addoption(
        "--update-budgets",
        action="store_true",
        default=False,
        help=(
            "Refresh tests/runtime/reactivation_budget.json from the work "
            "counts measured now instead of asserting against it."
        ),
    )


@pytest.fixture(scope="session")
def minicms_program():
    """The resolved MiniCMS program (expensive to build; shared read-only)."""
    return load_minicms()


@pytest.fixture(scope="session")
def navcms_program():
    """The resolved NavCMS program (inheritance-flattened)."""
    return load_navcms()


@pytest.fixture
def minicms_engine(minicms_program):
    """A fresh engine over MiniCMS with the paper's scenario data loaded."""
    engine = HildaEngine(minicms_program)
    seed_paper_scenario(engine)
    return engine


@pytest.fixture
def deterministic_functions():
    """A function registry with sequential keys and a fixed clock."""
    registry = FunctionRegistry()
    registry.use_sequential_keys(start=1)
    registry.use_fixed_clock(datetime.date(2006, 4, 3))
    return registry


@pytest.fixture
def sample_db():
    """A small relational database with courses/staff/students used by SQL tests."""
    db = Database("sample")
    db.create_table(
        TableSchema(
            "course",
            [Column("cid", DataType.INT), Column("cname", DataType.STRING)],
            ["cid"],
        )
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
            ["stid"],
        )
    )
    db.create_table(
        TableSchema(
            "student",
            [
                Column("sid", DataType.INT),
                Column("cid", DataType.INT),
                Column("sname", DataType.STRING),
            ],
            ["sid"],
        )
    )
    db.create_table(
        TableSchema(
            "grade",
            [
                Column("sid", DataType.INT),
                Column("aid", DataType.INT),
                Column("score", DataType.FLOAT),
            ],
        )
    )
    db.insert_many(
        "course", [(10, "Databases"), (11, "Operating Systems"), (12, "Networks")]
    )
    db.insert_many(
        "staff",
        [
            (1, 10, "alice", "admin"),
            (2, 11, "alice", "admin"),
            (3, 10, "bob", "ta"),
            (4, 12, "carol", "admin"),
        ],
    )
    db.insert_many(
        "student",
        [(1, 10, "s1"), (2, 10, "s2"), (3, 11, "s1"), (4, 12, "s3")],
    )
    db.insert_many(
        "grade",
        [(1, 100, 80.0), (2, 100, 90.0), (1, 101, 70.0), (4, 102, None)],
    )
    return db


@pytest.fixture
def sql(sample_db):
    """A SQL executor over the sample database."""
    return SQLExecutor(sample_db)
