"""Tests for dependency-tracked caching and delta reactivation.

The scenario throughout: MiniCMS with an admin session (reads course /
staff / assign / problem) and student sessions (additionally read group /
groupmember / invitation).  A student's invitation action writes only the
invitation-side tables, so the admin session's whole tree is dependency-
clean and must be reused, while the stale student instances still conflict.
"""

from __future__ import annotations

import datetime
from dataclasses import replace

import pytest

from repro.apps.minicms import (
    ADMIN_USER,
    STUDENT1_USER,
    STUDENT2_USER,
    load_minicms,
    seed_paper_scenario,
)
from repro.config import CacheConfig, EngineConfig
from repro.presentation.renderer import PageRenderer
from repro.runtime.engine import HildaEngine
from repro.runtime.operations import OperationStatus

#: The engine configuration most tests here run: activation-query caching on
#: top of the default dependency tracking.
CACHED = EngineConfig(cache=CacheConfig(activation_queries=True))


@pytest.fixture
def engine(minicms_program):
    engine = HildaEngine(minicms_program, config=CACHED)
    seed_paper_scenario(engine)
    return engine


def _sessions(engine):
    admin = engine.start_session({"user": [(ADMIN_USER,)]})
    s1 = engine.start_session({"user": [(STUDENT1_USER,)]})
    s2 = engine.start_session({"user": [(STUDENT2_USER,)]})
    return admin, s1, s2


def _withdraw(engine, session):
    instance = engine.find_instances(
        "SelectRow", session_id=session, activator="ActWithdrawInv"
    )[0]
    return engine.perform(instance.instance_id)


class TestDeltaReactivation:
    def test_disjoint_write_reuses_untouched_session_tree(self, engine):
        admin, s1, _ = _sessions(engine)
        before = engine.find_instances("CourseAdmin", session_id=admin)
        result = _withdraw(engine, s1)
        assert result.status == OperationStatus.APPLIED
        assert result.instances_reused > 0
        after = engine.find_instances("CourseAdmin", session_id=admin)
        # The admin subtrees were adopted wholesale: same objects, same ids.
        assert [node.instance_id for node in after] == [
            node.instance_id for node in before
        ]
        assert [id(node) for node in after] == [id(node) for node in before]

    def test_conflict_detection_survives_reuse(self, engine):
        _, s1, s2 = _sessions(engine)
        accept = engine.find_instances(
            "SelectRow", session_id=s2, activator="ActAcceptInv"
        )[0]
        assert _withdraw(engine, s1).status == OperationStatus.APPLIED
        result = engine.perform(accept.instance_id)
        assert result.status == OperationStatus.CONFLICT
        assert result.conflict_with is not None

    def test_affected_write_rebuilds_dependent_subtree(self, engine):
        admin, _, _ = _sessions(engine)
        create = engine.find_instances("CreateAssignment", session_id=admin)[0]
        update = create.find_children("UpdateRow")[0]
        # Submitting the assignment writes the persist assign/problem tables,
        # which the admin's own subtree reads: it must be rebuilt, not reused.
        engine.perform(
            update.instance_id,
            ["HW9", datetime.date(2006, 4, 1), datetime.date(2006, 4, 20)],
        )
        submit = create.find_children("SubmitBasic")[0]
        result = engine.perform(submit.instance_id)
        assert result.status == OperationStatus.APPLIED
        names = {
            node.activation_tuple[1]
            for node in engine.find_instances("ShowRow", session_id=admin, activator="ActShowAssignment")
        }
        assert "HW9" in names

    def test_delta_disabled_rebuilds_everything(self, minicms_program):
        engine = HildaEngine(
            minicms_program, config=EngineConfig(cache=CacheConfig(dependency_tracking=False))
        )
        seed_paper_scenario(engine)
        _, s1, _ = _sessions(engine)
        result = _withdraw(engine, s1)
        assert result.status == OperationStatus.APPLIED
        assert result.instances_reused == 0
        assert result.instances_rebuilt > 0

    def test_failed_rebuild_leaves_installed_tree_untouched(self):
        # One activator is dependency-clean (adopted first), the next raises
        # during its re-run.  The rebuild must abort without mutating the
        # still-installed old tree — in particular the adopted subtree's
        # parent pointers must not leak into the abandoned new tree.
        from repro.errors import ActivationError
        from repro.hilda.program import load_program

        source = """
        root aunit R {
            input schema { user(name:string) }
            persist schema { left(lid:int key) right(rid:int key, denom:int) }
            activator ActLeft : ShowRow(int) {
                activation schema { a(lid:int) }
                activation query { SELECT L.lid FROM left L }
                input query { ShowRow.input :- SELECT activationTuple.lid }
            }
            activator ActRight : ShowRow(int) {
                activation schema { b(rid:int) }
                activation query {
                    SELECT R0.rid FROM right R0 WHERE (100 / R0.denom) > 0
                }
                input query { ShowRow.input :- SELECT activationTuple.rid }
            }
        }
        """
        engine = HildaEngine(load_program(source), config=CACHED)
        engine.seed_persistent({"left": [(1,)], "right": [(1, 1)]})
        session = engine.start_session({"user": [("u",)]})
        root = engine.session_tree(session)
        left_child = root.find_children(activator="ActLeft")[0]
        tables = [
            table
            for node in root.walk()
            for table in (*node.input_tables.values(), *node.local_tables.values())
        ]
        before = [(table.version, list(table.rows)) for table in tables]

        with pytest.raises(ActivationError):
            engine.seed_persistent({"right": [(2, 0)]})  # 100/0 on rebuild

        assert engine.session_tree(session) is root
        assert left_child.parent is root
        assert root.find_children(activator="ActLeft")[0] is left_child
        # No table of the installed tree was written, not even its stamp,
        # and the pass's memo of shared inputs did not outlive the pass.
        assert [(table.version, list(table.rows)) for table in tables] == before
        assert engine._builder._memo is None

    def test_lazy_mode_delta_refresh(self, minicms_program):
        engine = HildaEngine(minicms_program, config=replace(CACHED, reactivation="lazy"))
        seed_paper_scenario(engine)
        admin, s1, _ = _sessions(engine)
        before = [
            node.instance_id
            for node in engine.session_tree(admin).walk()
        ]
        _withdraw(engine, s1)
        # The admin session is stale; its deferred rebuild reuses the tree.
        reused_before = engine._builder.instances_reused
        after = [node.instance_id for node in engine.session_tree(admin).walk()]
        assert after == before
        assert engine._builder.instances_reused > reused_before


#: One activator per way an input assignment can be un-flat, plus a flat one
#: whose child's inputs depend on a non-key activation column.
_RULES_SOURCE = """
root aunit R {
    input schema { user(name:string) }
    persist schema { item(iid:int key, label:string) }
    activator ActLabel : ShowRow(string) {
        activation schema { a(iid:int, label:string) }
        activation query { SELECT I.iid, I.label FROM item I }
        input query { ShowRow.input :- SELECT activationTuple.label }
    }
    activator ActKey : ShowRow(int) {
        activation schema { b(iid:int) }
        activation query { SELECT I.iid FROM item I }
        input query { ShowRow.input :- SELECT genkey() }
    }
    activator ActToday : ShowRow(date) {
        activation schema { c(iid:int) }
        activation query { SELECT I.iid FROM item I }
        input query { ShowRow.input :- SELECT curr_date() }
    }
}
"""


def _count_queries(monkeypatch, queries):
    """Count ``execute_query`` calls per query AST in ``queries`` (name -> AST)."""
    from repro.sql.executor import SQLExecutor

    counts = {name: 0 for name in queries}
    names = {id(query): name for name, query in queries.items()}
    original = SQLExecutor.execute_query

    def counted(executor, query, *args, **kwargs):
        if id(query) in names:
            counts[names[id(query)]] += 1
        return original(executor, query, *args, **kwargs)

    monkeypatch.setattr(SQLExecutor, "execute_query", counted)
    return counts


class TestReactivationRules:
    """The four rules of docs/caching.md § 4, where each could go wrong."""

    @pytest.fixture
    def rules_engine(self):
        from repro.hilda.program import load_program

        engine = HildaEngine(load_program(_RULES_SOURCE), config=CACHED)
        engine.seed_persistent({"item": [(1, "one"), (2, "two")]})
        return engine

    def test_first_child_of_a_childless_activator_tracks_what_its_inputs_read(self, engine):
        # alice administers both courses and takes none: her ActStudent has
        # no children, so it must record *no* input vectors.  If it recorded
        # the empty vector ("depends on nothing"), the first Student child
        # would keep it, and no later write to assign would ever reach that
        # child's inputs.
        from repro.apps.minicms import SYSADMIN_USER

        admin, _, _ = _sessions(engine)
        sysadmin = engine.start_session({"user": [(SYSADMIN_USER,)]})
        assert engine.session_tree(admin).activator_records["ActStudent"].inputs is None

        enrol = engine.find_instances("GetRow", session_id=sysadmin, activator="ActAddStudent")[0]
        assert engine.perform(enrol.instance_id, [10, ADMIN_USER]).status == OperationStatus.APPLIED
        student = engine.find_instances("Student", session_id=admin)[0]
        assert [row[1] for row in student.input_tables["assign"].rows] == ["Homework 1"]

        create = engine.find_instances("CreateAssignment", session_id=admin)[0]
        engine.perform(
            create.find_children("UpdateRow")[0].instance_id,
            ["HW9", datetime.date(2006, 4, 1), datetime.date(2006, 4, 20)],
        )
        assert engine.perform(create.find_children("SubmitBasic")[0].instance_id).accepted
        student = engine.find_instances("Student", session_id=admin)[0]
        assert [row[1] for row in student.input_tables["assign"].rows] == ["Homework 1", "HW9"]
        inputs = engine.session_tree(admin).activator_records["ActStudent"].inputs
        assert inputs is not None and () not in inputs
        page = PageRenderer(engine).render_session(admin)
        assert page.count("HW9") >= 2  # the admin's course block and the student's

    def test_function_calling_assignments_run_per_child_every_time(
        self, rules_engine, monkeypatch
    ):
        engine = rules_engine
        root_decl = engine.program.root
        counts = _count_queries(
            monkeypatch,
            {
                name: root_decl.activator(name).input_query[0].query.query
                for name in ("ActLabel", "ActKey", "ActToday")
            },
        )
        first = engine.start_session({"user": [("u",)]})
        second = engine.start_session({"user": [("v",)]})
        refusals = {
            activator: [refusal for _names, refusal in plan]
            for (_aunit, activator), plan in engine._builder._input_plans.items()
        }
        assert refusals == {
            "ActLabel": [None], "ActKey": ["calls genkey()"], "ActToday": ["calls curr_date()"],
        }
        assert counts == {"ActLabel": 4, "ActKey": 4, "ActToday": 4}
        today = [
            child.input_tables["input"]
            for child in engine.session_tree(first).find_children(activator="ActToday")
        ]

        engine.reactivate_all()
        engine.reactivate_all()
        # 2 sessions x 2 children x 2 passes: never skipped, never shared —
        # while the flat assignment next to them did not run again at all.
        assert counts == {"ActLabel": 4, "ActKey": 12, "ActToday": 12}
        keys = [
            child.input_tables["input"].rows[0][0]
            for session in (first, second)
            for child in engine.session_tree(session).find_children(activator="ActKey")
        ]
        assert len(set(keys)) == 4
        # Rule 1 still holds for them: the same date came out, so the old
        # table (and its stamp) was kept.
        assert [
            child.input_tables["input"]
            for child in engine.session_tree(first).find_children(activator="ActToday")
        ] == today
        assert not engine.session_tree(first).fully_tracked

    def test_changed_non_key_activation_column_reruns_the_input_query(self, rules_engine):
        # ActLabel's input reads nothing but activationTuple, so its vector
        # is () and never moves; only comparing the *full* tuple notices
        # that the old child's input is stale.
        engine = rules_engine
        session = engine.start_session({"user": [("u",)]})
        old = engine.session_tree(session).find_children(activator="ActLabel")
        engine.persistent_table("item").update_where(
            lambda row: row[0] == 2, lambda row: (2, "deux")
        )
        engine.reactivate_all()
        new = engine.session_tree(session).find_children(activator="ActLabel")
        assert [child.input_tables["input"].rows for child in new] == [[("one",)], [("deux",)]]
        assert [child.instance_id for child in new] == [child.instance_id for child in old]
        assert new[0] is old[0] and new[1] is not old[1]

    def test_local_post_visits_only_the_acting_session(self, engine, monkeypatch):
        from repro.runtime.activation import ActivationBuilder

        admin, s1, s2 = _sessions(engine)
        create = engine.find_instances("CreateAssignment", session_id=admin)[0]
        update = create.find_children("UpdateRow")[0]
        values = ["Draft", datetime.date(2006, 4, 1), datetime.date(2006, 4, 2)]
        engine.perform(update.instance_id, values)  # settles every session
        roots = {session: engine.session_tree(session) for session in (s1, s2)}
        assert all(root.fully_tracked for root in roots.values())

        built = []
        original = ActivationBuilder.build_session_tree

        def recording(builder, session_id, *args, **kwargs):
            built.append(session_id)
            return original(builder, session_id, *args, **kwargs)

        monkeypatch.setattr(ActivationBuilder, "build_session_tree", recording)
        update = engine.find_instances("UpdateRow", session_id=admin)[0]
        assert engine.perform(update.instance_id, values).accepted
        assert built == [admin]
        assert all(engine.session_tree(session) is root for session, root in roots.items())
        # A persistent write visits everyone again.
        assert _withdraw(engine, s1).accepted
        assert sorted(built[1:]) == sorted([admin, s1, s2])

    def test_untrackable_session_is_rebuilt_after_another_sessions_local_post(
        self, navcms_program
    ):
        # NavCMS filters its activators (Figure 13); filters run per-row
        # queries whose reads are not recorded, so its sessions are never
        # fully tracked and must be rebuilt on every pass.
        engine = HildaEngine(navcms_program, config=CACHED)
        seed_paper_scenario(engine)
        acting = engine.start_session({"user": [(ADMIN_USER,)]})
        bystander = engine.start_session({"user": [(ADMIN_USER,)]})
        select = engine.find_instances("SelectRow", session_id=acting, activator="ActSelectCourse")[0]
        row = select.input_tables["input"].rows[0]
        engine.perform(select.instance_id, row)
        root = engine.session_tree(bystander)
        assert not root.fully_tracked

        select = engine.find_instances("SelectRow", session_id=acting, activator="ActSelectCourse")[0]
        result = engine.perform(select.instance_id, row)  # writes only local currcourse
        assert result.accepted
        assert engine.session_tree(bystander) is not root

    def test_lazy_local_post_marks_no_tracked_bystander_dirty(self, minicms_program):
        engine = HildaEngine(minicms_program, config=replace(CACHED, reactivation="lazy"))
        seed_paper_scenario(engine)
        admin, s1, s2 = _sessions(engine)
        values = ["Draft", datetime.date(2006, 4, 1), datetime.date(2006, 4, 2)]
        update = engine.find_instances("UpdateRow", session_id=admin)[0]
        engine.perform(update.instance_id, values)
        for session in (s1, s2):
            engine.session_tree(session)  # refresh whatever the first pass staled
        assert engine._dirty_sessions == set()

        update = engine.find_instances("UpdateRow", session_id=admin)[0]
        assert engine.perform(update.instance_id, values).accepted
        assert engine._dirty_sessions == set()
        # ... while a persistent write still stales them.
        assert _withdraw(engine, s1).accepted
        assert engine._dirty_sessions == {admin, s2}


class TestActivationCache:
    def test_disjoint_write_keeps_entries_valid(self, engine):
        admin, s1, _ = _sessions(engine)
        stats = engine.activation_cache_stats
        stats.reset()
        _withdraw(engine, s1)
        engine.refresh(admin)  # forced rebuild: activation queries re-consulted
        assert stats.hits > 0

    def test_global_version_mode_invalidates_everything(self, minicms_program):
        engine = HildaEngine(
            minicms_program,
            config=EngineConfig(
                cache=CacheConfig(activation_queries=True, dependency_tracking=False)
            ),
        )
        seed_paper_scenario(engine)
        admin, s1, _ = _sessions(engine)
        stats = engine.activation_cache_stats
        stats.reset()
        _withdraw(engine, s1)
        # During the write's own reactivation every pre-write entry is stale:
        # stamped with an older state version, nothing can hit.
        assert stats.hits == 0
        assert stats.invalidations > 0

    def test_cache_is_lru_bounded(self, minicms_program):
        engine = HildaEngine(
            minicms_program,
            config=EngineConfig(
                cache=CacheConfig(activation_queries=True, activation_cache_size=4)
            ),
        )
        seed_paper_scenario(engine)
        _sessions(engine)
        assert len(engine._activation_cache) <= 4
        assert engine.activation_cache_stats.evictions > 0


class TestFragmentCache:
    def test_fragment_cache_is_lru_bounded(self, engine):
        admin, _, _ = _sessions(engine)
        renderer = PageRenderer(engine, cache_fragments=True, fragment_cache_size=5)
        renderer.render_session(admin)
        assert len(renderer._fragment_cache) <= 5
        assert renderer.stats.evictions > 0
        # One slot per (instance id, PUnit name), holding (stamp, html).
        for (instance_id, _punit), (_stamp, html) in renderer._fragment_cache.items():
            assert engine.forest.has_instance(instance_id) and html

    def test_disjoint_write_keeps_fragments_warm(self, engine):
        admin, s1, _ = _sessions(engine)
        renderer = PageRenderer(engine, cache_fragments=True)
        renderer.render_session(admin)
        _withdraw(engine, s1)
        renderer.stats.reset()
        renderer.render_session(admin)
        # The whole admin page comes from the cache: one hit at the root,
        # nothing re-rendered.
        assert renderer.stats.hits == 1
        assert renderer.stats.fragments_rendered == 0

    def test_dependent_write_re_renders(self, engine):
        admin, _, _ = _sessions(engine)
        renderer = PageRenderer(engine, cache_fragments=True)
        renderer.render_session(admin)
        create = engine.find_instances("CreateAssignment", session_id=admin)[0]
        update = create.find_children("UpdateRow")[0]
        engine.perform(
            update.instance_id,
            ["Fresh", datetime.date(2006, 4, 1), datetime.date(2006, 4, 2)],
        )
        html = renderer.render_session(admin)
        assert "Fresh" in html

    def test_punit_name_distinguishes_cached_fragments(self, engine):
        # Two renders of the same instance through different PUnit names must
        # not collide in the cache (the key includes the PUnit name).
        admin, _, _ = _sessions(engine)
        renderer = PageRenderer(engine, cache_fragments=True)
        instance = engine.find_instances("CourseAdmin", session_id=admin)[0]
        with_default = renderer.render_instance(instance)
        named = renderer.render_instance(instance, punit_name="nonexistent")
        assert with_default == named  # unknown name falls back to the default
        slots = {
            key for key in renderer._fragment_cache if key[0] == instance.instance_id
        }
        # ... but occupies a distinct (instance id, PUnit name) cache slot.
        assert slots == {(instance.instance_id, None), (instance.instance_id, "nonexistent")}

    def test_superseded_fragments_do_not_accumulate(self, engine):
        # Net-zero assignment cycles with fixed sessions: every cycle
        # re-renders the admin pages, and each new version of a fragment
        # must overwrite the old one, while fragments of instances that
        # left the forest are swept — with no help from the LRU bound.
        admin, s1, _ = _sessions(engine)
        other = engine.start_session({"user": [(ADMIN_USER,)]})
        renderer = PageRenderer(engine, cache_fragments=True, fragment_cache_size=None)
        sizes = []
        for cycle in range(80):
            create = engine.find_instances("CreateAssignment", session_id=admin)[0]
            engine.perform(
                create.find_children("UpdateRow")[0].instance_id,
                [f"Cycle {cycle}", datetime.date(2006, 4, 1), datetime.date(2006, 4, 2)],
            )
            engine.perform(create.find_children("SubmitBasic")[0].instance_id)
            for session in (admin, other, s1):
                renderer.render_session(session)
            delete = engine.find_instances(
                "SelectRow", session_id=admin, activator="ActDeleteAssign"
            )[0]
            row = next(r for r in delete.input_tables["input"].rows if r[1] == f"Cycle {cycle}")
            assert engine.perform(delete.instance_id, row).accepted
            for session in (admin, other, s1):
                renderer.render_session(session)
            sizes.append(len(renderer._fragment_cache))
        live = engine.forest.size()
        assert max(sizes) <= 2 * live + 64
        # The size saw-tooths between sweeps; whole periods do not grow.
        assert max(sizes[50:]) <= max(sizes[20:50])
        assert renderer.stats.evictions == 0
