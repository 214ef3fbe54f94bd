"""Work budgets: what one step of the macro assignment cycle may cost.

The macro-benchmark's ``write_wal`` cycle (``benchmarks/macro``) is driven
in process — default :class:`HildaApplication`, ``seed_scaled(10, 10, 4)``,
two sessions of the administrator and four students — and the *work* each
POST causes is pinned exactly: counts repeat on any machine, so an
accidental O(tree) regression fails here in a second instead of showing up
as a noisy median.  The pinned counts live in ``reactivation_budget.json``.

When a change moves them *intentionally*, refresh the file and review the
diff like any other code change (a lowered budget is the gain)::

    PYTHONPATH=src python -m pytest tests/runtime/test_reactivation_budget.py --update-budgets
"""

from __future__ import annotations

import json
import os

import pytest

from benchmarks.macro.client import BrowserSession, InprocClient
from benchmarks.macro.harness import AssignmentCycle
from repro.apps.minicms import seed_scaled
from repro.runtime.activation import ActivationBuilder
from repro.sql.executor import SQLExecutor
from repro.web.container import HildaApplication

BUDGET_PATH = os.path.join(os.path.dirname(__file__), "reactivation_budget.json")

#: (session key, user); the writer is ``admin0``, everyone else stands by.
SESSIONS = [
    ("admin0", "alice"), ("admin1", "alice"),
    ("stu1", "stu1"), ("stu2", "stu2"), ("stu4", "stu4"), ("stu5", "stu5"),
]
#: The pages ``write_wal`` fetches after a persistent POST.
POST_WRITE_GETS = ("stu1", "stu2", "admin1")


class _Work:
    """Counters around the public callables the macro trace wraps."""

    def __init__(self, application, monkeypatch) -> None:
        self.application = application
        self.input_assignments = 0
        self.execute_query = 0
        self.tree_builds = 0
        input_queries = {
            id(assignment.query.query)
            for decl in application.program.aunits.values()
            for activator in decl.activators
            for assignment in activator.input_query
        }
        execute_query = SQLExecutor.execute_query
        build_session_tree = ActivationBuilder.build_session_tree
        work = self

        def counted_query(executor, query, *args, **kwargs):
            work.execute_query += 1
            work.input_assignments += id(query) in input_queries
            return execute_query(executor, query, *args, **kwargs)

        def counted_build(builder, *args, **kwargs):
            work.tree_builds += 1
            return build_session_tree(builder, *args, **kwargs)

        monkeypatch.setattr(SQLExecutor, "execute_query", counted_query)
        monkeypatch.setattr(ActivationBuilder, "build_session_tree", counted_build)

    def snapshot(self):
        builder = self.application.engine._builder
        return {
            "input_assignments": self.input_assignments,
            "execute_query": self.execute_query,
            "instances_built": builder.instances_built,
            "instances_reused": builder.instances_reused,
            "tree_builds": self.tree_builds,
            "fragments_rendered": self.application.renderer.stats.fragments_rendered,
        }


def _since(before, after):
    return {name: after[name] - before[name] for name in before}


def _measure_cycle(minicms_program, monkeypatch):
    """Work per step of the second cycle (the first warms every cache)."""
    application = HildaApplication(minicms_program)
    seed_scaled(application.engine, n_courses=10, n_students=10, n_assignments=4)
    work = _Work(application, monkeypatch)
    client = InprocClient(application)
    sessions = {}
    for key, user in SESSIONS:
        sessions[key] = BrowserSession(user, "admin" if user == "alice" else "student")
        assert client.login(sessions[key]).status == 200
    cycle = AssignmentCycle(client, sessions["admin0"], 0, 24, client.get(sessions["admin0"]).body)
    measured = {}
    for warm in (True, False):
        for kind in AssignmentCycle.STEPS:
            before = work.snapshot()
            _cls, _reply, problem = cycle.step()
            assert not problem, problem
            step = _since(before, work.snapshot())
            if AssignmentCycle.CLASS_OF[kind] == "post_persist":
                before = work.snapshot()
                for key in POST_WRITE_GETS:
                    assert client.get(sessions[key]).status == 200
                step["post_write_get_fragments"] = _since(before, work.snapshot())[
                    "fragments_rendered"
                ]
            if not warm:
                measured[kind] = step
    application.close()
    return measured


def test_assignment_cycle_stays_within_its_work_budget(minicms_program, monkeypatch, request):
    measured = _measure_cycle(minicms_program, monkeypatch)
    with open(BUDGET_PATH, encoding="utf-8") as handle:
        pinned = json.load(handle)
    if request.config.getoption("--update-budgets"):
        pinned["budgets"] = measured
        with open(BUDGET_PATH, "w", encoding="utf-8") as handle:
            json.dump(pinned, handle, indent=2)
            handle.write("\n")
        return
    assert measured == pinned["budgets"], (
        "the assignment cycle's work moved; if intentional, refresh with "
        "--update-budgets and review the diff"
    )
    # A local POST rebuilds the acting session only (rule 3).
    assert measured["update"]["tree_builds"] == measured["getrow"]["tree_builds"] == 1
