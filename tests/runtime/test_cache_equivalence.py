"""Property test: dependency-tracked caching is observationally equivalent.

A randomized multi-session workload (admin edits, submissions, the
invitation lifecycle, explicit refreshes) is executed twice in lockstep:

* the **optimized** stack — activation-query cache + fragment cache +
  dependency tracking + delta reactivation, i.e. everything this repo's
  Section 6.2 reproduction turns on for the server path;
* the **baseline** stack — every cache off, full recomputation everywhere.

After every step the rendered HTML of every session must be byte-identical
between the stacks (instance IDs included, which pins the reactivation
behaviour), operation outcomes must agree, and at the end the persistent
tables must hold the same contents with clean :meth:`Table.check_integrity`
reports.
"""

from __future__ import annotations

import datetime

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.minicms import (
    ADMIN_USER,
    STUDENT1_USER,
    STUDENT2_USER,
    seed_paper_scenario,
)
from repro.config import CacheConfig, EngineConfig
from repro.presentation.renderer import PageRenderer
from repro.runtime.engine import HildaEngine

_DATE_A = datetime.date(2006, 4, 1)
_DATE_B = datetime.date(2006, 4, 15)

#: The action vocabulary: (kind, payload index).  Indexes are reduced modulo
#: the number of matching instances at execution time, so every drawn action
#: is applicable to whatever state the workload reached.
_ACTIONS = st.tuples(
    st.sampled_from(
        [
            "admin_edit",
            "admin_edit_invalid",
            "admin_submit",
            "place",
            "withdraw",
            "accept",
            "decline",
            "refresh",
        ]
    ),
    st.integers(min_value=0, max_value=7),
)


class _Stack:
    """One engine + renderer + the three scenario sessions."""

    def __init__(self, program, optimized: bool, lazy: bool) -> None:
        self.engine = HildaEngine(
            program,
            config=EngineConfig(
                cache=CacheConfig(
                    activation_queries=optimized, dependency_tracking=optimized
                ),
                reactivation="lazy" if lazy else "eager",
            ),
        )
        seed_paper_scenario(self.engine)
        self.renderer = PageRenderer(self.engine, cache_fragments=optimized)
        self.sessions = {
            "admin": self.engine.start_session({"user": [(ADMIN_USER,)]}),
            "s1": self.engine.start_session({"user": [(STUDENT1_USER,)]}),
            "s2": self.engine.start_session({"user": [(STUDENT2_USER,)]}),
        }

    def _pick(self, session_key, aunit, activator, index):
        instances = self.engine.find_instances(
            aunit, session_id=self.sessions[session_key], activator=activator
        )
        if not instances:
            return None
        return instances[index % len(instances)]

    def run(self, action) -> str:
        """Execute one action; returns a comparable outcome summary."""
        kind, index = action
        if kind == "refresh":
            session = list(self.sessions.values())[index % len(self.sessions)]
            self.engine.refresh(session)
            return "refreshed"
        if kind in ("admin_edit", "admin_edit_invalid"):
            create = self._pick("admin", "CreateAssignment", None, index)
            if create is None:
                return "noop"
            update = create.find_children("UpdateRow")[0]
            dates = (_DATE_A, _DATE_B) if kind == "admin_edit" else (_DATE_B, _DATE_A)
            result = self.engine.perform(
                update.instance_id, [f"A{index}", dates[0], dates[1]]
            )
        elif kind == "admin_submit":
            create = self._pick("admin", "CreateAssignment", None, index)
            if create is None:
                return "noop"
            submit = create.find_children("SubmitBasic")[0]
            result = self.engine.perform(submit.instance_id)
        elif kind == "place":
            target = self._pick("s1", "SelectRow", "ActPlaceInv", index)
            if target is None:
                return "noop"
            rows = target.input_tables["input"].rows
            if not rows:
                return "noop"
            result = self.engine.perform(target.instance_id, rows[index % len(rows)])
        else:
            session_key, activator = {
                "withdraw": ("s1", "ActWithdrawInv"),
                "accept": ("s2", "ActAcceptInv"),
                "decline": ("s2", "ActDeclineInv"),
            }[kind]
            target = self._pick(session_key, "SelectRow", activator, index)
            if target is None:
                return "noop"
            result = self.engine.perform(target.instance_id)
        return f"{result.status}:{sorted(result.returned_instance_ids)}"

    def pages(self):
        return {
            key: self.renderer.render_session(session)
            for key, session in self.sessions.items()
        }


@settings(max_examples=15, deadline=None)
@given(actions=st.lists(_ACTIONS, max_size=8), lazy=st.booleans())
def test_cached_stack_is_observationally_equivalent(minicms_program, actions, lazy):
    optimized = _Stack(minicms_program, optimized=True, lazy=lazy)
    baseline = _Stack(minicms_program, optimized=False, lazy=lazy)

    assert optimized.pages() == baseline.pages()
    for action in actions:
        outcome_optimized = optimized.run(action)
        outcome_baseline = baseline.run(action)
        assert outcome_optimized == outcome_baseline, action
        assert optimized.pages() == baseline.pages(), action

    for engine in (optimized.engine, baseline.engine):
        for table in engine.persist_tables(engine.program.root_name).values():
            assert table.check_integrity() == []
    optimized_persist = optimized.engine.persist_tables("CMSRoot")
    baseline_persist = baseline.engine.persist_tables("CMSRoot")
    for name, table in optimized_persist.items():
        assert table.same_contents(baseline_persist[name]), name
