"""Lockstep walk: reactivation proportional to the change changes only work.

A seeded walk over MiniCMS is executed on two stacks in lockstep — the
server's default configuration (every cache, incremental maintenance, the
four reactivation rules of ``docs/caching.md`` § 4) and the
``CacheConfig.disabled()`` reference, which recomputes everything.  After
every step the pages of every session must be byte-identical, every label
must carry the same instance ID, and every operation must have the same
outcome (status, returned instances, the step that won a conflict).

The walk covers what the rules could get wrong: assignment cycles by two
sessions of one administrator, the invitation lifecycle, actions on
instance IDs remembered from earlier pages (the conflict path), logins and
logouts, a role-less guest, and the enrol / appoint steps that take an
activator from no children to some.
"""

from __future__ import annotations

import datetime
import random

import pytest

from repro.apps.minicms import (
    ADMIN_USER,
    STUDENT1_USER,
    STUDENT2_USER,
    SYSADMIN_USER,
    seed_paper_scenario,
)
from repro.config import CacheConfig, EngineConfig
from repro.presentation.renderer import PageRenderer
from repro.runtime.engine import HildaEngine
from repro.runtime.operations import OperationStatus

_RELEASE = datetime.date(2006, 4, 1)
_DUE = datetime.date(2006, 4, 15)
_USERS = (ADMIN_USER, STUDENT1_USER, STUDENT2_USER, "guest")
MAX_STEPS = 60

#: Run first, so every walk takes activators from no children to some:
#: alice becomes a student of course 10 and s1 an administrator of course
#: 11, then an assignment is created in each of those courses.
_PRELUDE = [
    ("enrol", 10, ADMIN_USER),
    ("edit", "adminA", 0), ("problem", "adminA", 0), ("submit", "adminA", 0),
    ("appoint", 11, STUDENT1_USER),
    ("remember", "adminB", 0),
    ("edit", "adminB", 1), ("submit", "adminB", 1),
    ("replay", 0),
    ("enrol", 11, "guest"),
    ("login", ADMIN_USER),
]


class _Stack:
    """One engine and renderer, and the sessions of the walk by key."""

    def __init__(self, program, cache: CacheConfig, lazy: bool) -> None:
        config = EngineConfig(cache=cache, reactivation="lazy" if lazy else "eager")
        self.engine = HildaEngine(program, config=config)
        seed_paper_scenario(self.engine)
        self.renderer = PageRenderer(
            self.engine,
            cache_fragments=cache.fragments,
            fragment_cache_size=cache.fragment_cache_size,
        )
        self.sessions = {}
        self.logins = 0
        #: operation id -> the step that issued it (ids are process-global).
        self.step_of_operation = {}
        self.step = 0
        for key, user in (
            ("adminA", ADMIN_USER), ("adminB", ADMIN_USER), ("s1", STUDENT1_USER),
            ("s2", STUDENT2_USER), ("root", SYSADMIN_USER), ("guest", "guest"),
        ):
            self.sessions[key] = self.engine.start_session({"user": [(user,)]})

    def _pick(self, key, aunit, activator, index):
        session = self.sessions.get(key)
        if session is None:
            return None
        instances = self.engine.find_instances(aunit, session_id=session, activator=activator)
        return instances[index % len(instances)] if instances else None

    def _perform(self, instance_id, values=None) -> str:
        result = self.engine.perform(instance_id, values)
        self.step_of_operation[result.operation.operation_id] = self.step
        winner = self.step_of_operation.get(result.conflict_with)
        return f"{result.status}:{sorted(result.returned_instance_ids)}:{winner}"

    def target(self, step):
        """The (instance, values) a step acts on, or None when not applicable."""
        kind, key, index = step
        if kind in ("edit", "problem", "submit"):
            create = self._pick(key, "CreateAssignment", None, index)
            if create is None:
                return None
            if kind == "edit":
                return create.find_children("UpdateRow")[0], [f"W{self.step}", _RELEASE, _DUE]
            if kind == "problem":
                return create.find_children("GetRow")[0], [f"P{self.step}", 10.0 + index]
            return create.find_children("SubmitBasic")[0], None
        activator = {
            "delete": "ActDeleteAssign", "place": "ActPlaceInv", "withdraw": "ActWithdrawInv",
            "accept": "ActAcceptInv", "decline": "ActDeclineInv",
        }[kind]
        instance = self._pick(key, "SelectRow", activator, index)
        if instance is None:
            return None
        rows = instance.input_tables["input"].rows
        return (instance, rows[index % len(rows)]) if rows else None

    def run(self, step, remembered) -> str:
        """Execute one step; returns a comparable outcome summary."""
        self.step += 1
        kind = step[0]
        if kind == "login":
            self.logins += 1
            self.sessions[f"late{self.logins}"] = self.engine.start_session(
                {"user": [(step[1],)]}
            )
            return "login"
        if kind == "logout":
            late = sorted(key for key in self.sessions if key.startswith("late"))
            if not late:
                return "noop"
            self.engine.close_session(self.sessions.pop(late[step[1] % len(late)]))
            return "logout"
        if kind == "refresh":
            keys = sorted(self.sessions)
            self.engine.refresh(self.sessions[keys[step[1] % len(keys)]])
            return "refreshed"
        if kind in ("enrol", "appoint"):
            table, activator, values = (
                ("student", "ActAddStudent", [step[1], step[2]])
                if kind == "enrol"
                else ("staff", "ActAddStaff", [step[1], step[2], "admin"])
            )
            # A second row for the same (course, user) would activate two
            # children under one label, which Definition 6 rules out.
            if any(row[1:3] == (step[1], step[2]) for row in self.engine.persistent_table(table).rows):
                return "noop"
            form = self._pick("root", "GetRow", activator, 0)
            return self._perform(form.instance_id, values)
        if kind == "replay":
            if not remembered:
                return "noop"
            instance_id, values = remembered[step[1] % len(remembered)]
            return self._perform(instance_id, values)
        target = self.target(step)
        if target is None:
            return "noop"
        return self._perform(target[0].instance_id, target[1])

    def pages(self):
        return {
            key: self.renderer.render_session(session)
            for key, session in self.sessions.items()
        }

    def ids_by_label(self):
        return {
            node.label: node.instance_id
            for session in self.sessions.values()
            for node in self.engine.session_tree(session).walk()
        }


def _walk(seed: int):
    """The prelude, then seeded steps up to :data:`MAX_STEPS`."""
    rng = random.Random(seed)
    steps = list(_PRELUDE)
    while len(steps) < MAX_STEPS:
        kind = rng.choice(
            ["edit", "problem", "submit", "submit", "delete", "delete", "place", "withdraw",
             "accept", "decline", "remember", "replay", "replay", "login", "logout",
             "refresh", "enrol", "appoint"]
        )
        index = rng.randrange(8)
        if kind in ("edit", "problem", "submit", "delete"):
            steps.append((kind, rng.choice(["adminA", "adminB", "s1", "late1"]), index))
        elif kind in ("place", "withdraw", "accept", "decline"):
            steps.append((kind, rng.choice(["s1", "s2", "adminA", "guest"]), index))
        elif kind == "remember":
            steps.append((kind, rng.choice(["adminA", "adminB", "s1", "s2"]), index))
        elif kind == "login":
            steps.append((kind, rng.choice(_USERS)))
        elif kind in ("enrol", "appoint"):
            steps.append((kind, rng.choice([10, 11]), rng.choice(_USERS)))
        else:
            steps.append((kind, index))
    return steps


@pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
@pytest.mark.parametrize("seed", [24, 2006])
def test_default_config_matches_the_recompute_reference(minicms_program, seed, lazy):
    default = _Stack(minicms_program, CacheConfig.server_defaults(), lazy)
    reference = _Stack(minicms_program, CacheConfig.disabled(), lazy)
    #: (instance id, values) of forms seen on earlier pages; ids are equal
    #: on both stacks, so one list serves both.
    remembered = []
    outcomes = set()

    assert default.pages() == reference.pages()
    for step in _walk(seed):
        if step[0] == "remember":
            for kind in ("delete", "submit", "withdraw", "accept"):
                target = default.target((kind, step[1], step[2]))
                if target is not None:
                    remembered.append((target[0].instance_id, target[1]))
            continue
        outcome = default.run(step, remembered)
        assert outcome == reference.run(step, remembered), step
        outcomes.add(outcome.split(":")[0])
        assert default.pages() == reference.pages(), step
        assert default.ids_by_label() == reference.ids_by_label(), step

    # The walk reached what it is there for.
    assert {OperationStatus.APPLIED, OperationStatus.CONFLICT} <= outcomes
    alice_page = default.pages()["adminA"]
    assert 'class="student"' in alice_page and 'class="course-admin"' in alice_page
    assert default.engine._builder.instances_reused > 0
    assert reference.engine._builder.instances_reused == 0
    default_persist = default.engine.persist_tables("CMSRoot")
    reference_persist = reference.engine.persist_tables("CMSRoot")
    for name, table in default_persist.items():
        assert table.check_integrity() == []
        assert table.rows == reference_persist[name].rows, name
