"""Property test: incremental view maintenance is observationally equivalent.

A randomized mutation workload over a single-table activation query — the
shape where the delta patcher genuinely fires — is executed in lockstep on
three stacks:

* **incremental** — full caches with ``maintenance="incremental"``: stale
  activation-cache entries are patched in place from the delta log;
* **recompute** — the same caches with ``maintenance="recompute"``: every
  stale entry is re-executed from scratch (the pre-IVM behaviour);
* **off** — every cache disabled.

The action vocabulary deliberately includes the delta rules' boundary
cases: no-op updates (must emit no delta and invalidate nothing), deletes
that re-insert an equal row, updates that *admit* a previously filtered
row (a designed scan-order bailout), whole-table reorders (a barrier
record), and bulk inserts past the cost bound (``|delta| × fanout``
bailout).  After every step the rendered pages of every session must be
byte-identical across the three stacks, and at the end the persistent
tables must hold the same contents with clean integrity reports.

A separate deterministic test drives concurrent writer threads through the
incremental stack and pins the patched cache against a from-scratch
recompute of the final state.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import build_program
from repro.config import CacheConfig, EngineConfig
from repro.presentation.renderer import PageRenderer
from repro.runtime.engine import HildaEngine

SOURCE = """
root aunit R {
    input schema { user(name:string) }
    persist schema { course(cid:int key, cname:string, load:int) }
    activator ActCourse : ShowRow(int) {
        activation schema { a(cid:int) }
        activation query { SELECT C.cid FROM course C WHERE C.load > 0 }
        input query { ShowRow.input :- SELECT activationTuple.cid }
    }
}
"""

_KINDS = [
    "insert",           # fresh row, sometimes filtered out by load = 0
    "delete",           # remove an existing row
    "update",           # move a row's load between view membership states
    "noop_update",      # identity update: no delta, no version bump
    "delete_reinsert",  # net no-op across two records
    "admit_update",     # load 0 -> 1: designed scan-order bailout
    "bulk_insert",      # |delta| x fanout blows past the cost bound
    "replace_reversed", # whole-table reorder: barrier record
    "refresh",
]

_ACTIONS = st.tuples(st.sampled_from(_KINDS), st.integers(min_value=0, max_value=7))


@pytest.fixture(scope="module")
def ivm_program():
    return build_program(SOURCE)


def _cache_config(variant: str) -> CacheConfig:
    if variant == "off":
        return CacheConfig()
    return CacheConfig(
        activation_queries=True,
        dependency_tracking=True,
        maintenance="incremental" if variant == "incremental" else "recompute",
    )


class _Stack:
    """One engine + renderer + two sessions over the synthetic program."""

    def __init__(self, program, variant: str) -> None:
        self.engine = HildaEngine(
            program, config=EngineConfig(cache=_cache_config(variant))
        )
        self.engine.seed_persistent(
            {"course": [(i, f"C{i}", i % 3) for i in range(10)]}
        )
        self.table = self.engine.persistent_table("course")
        self.renderer = PageRenderer(
            self.engine, cache_fragments=variant != "off"
        )
        self.sessions = {
            "a": self.engine.start_session({"user": [("a",)]}),
            "b": self.engine.start_session({"user": [("b",)]}),
        }
        self.next_id = 100

    def _mutate(self, fn) -> None:
        with self.engine._durable_write():
            fn(self.table)
        self.engine.bump_state_version()
        self.engine.reactivate_all()

    def _pick_cid(self, index):
        rows = self.table.rows
        if not rows:
            return None
        return rows[index % len(rows)][0]

    def run(self, action) -> str:
        kind, index = action
        if kind == "refresh":
            session = list(self.sessions.values())[index % len(self.sessions)]
            self.engine.refresh(session)
            return "refreshed"
        if kind == "insert":
            cid = self.next_id
            self.next_id += 1
            self._mutate(lambda t: t.insert((cid, f"N{cid}", index % 3)))
            return f"inserted:{cid}"
        if kind == "bulk_insert":
            base = self.next_id
            self.next_id += 40
            self._mutate(
                lambda t: t.insert_many(
                    [(base + i, f"B{base + i}", 1) for i in range(40)]
                )
            )
            return f"bulk:{base}"
        if kind == "replace_reversed":
            self._mutate(lambda t: t.replace(list(reversed(t.rows))))
            return "reversed"
        cid = self._pick_cid(index)
        if cid is None:
            return "noop"
        if kind == "delete":
            self._mutate(lambda t: t.delete_where(lambda row: row[0] == cid))
            return f"deleted:{cid}"
        if kind == "delete_reinsert":
            row = self.table.find_by_key((cid,))
            self._mutate(lambda t: t.delete_where(lambda r: r[0] == cid))
            self._mutate(lambda t: t.insert(row))
            return f"bounced:{cid}"
        if kind == "update":
            self._mutate(
                lambda t: t.update_where(
                    lambda row: row[0] == cid,
                    lambda row: (row[0], row[1], (row[2] + 1) % 3),
                )
            )
            return f"updated:{cid}"
        if kind == "noop_update":
            self._mutate(
                lambda t: t.update_where(lambda row: row[0] == cid, lambda row: row)
            )
            return f"noop_updated:{cid}"
        if kind == "admit_update":
            hidden = [row for row in self.table.rows if row[2] == 0]
            if not hidden:
                return "noop"
            target = hidden[index % len(hidden)][0]
            self._mutate(
                lambda t: t.update_where(
                    lambda row: row[0] == target,
                    lambda row: (row[0], row[1], 1),
                )
            )
            return f"admitted:{target}"
        raise AssertionError(kind)

    def pages(self):
        return {
            key: self.renderer.render_session(session)
            for key, session in self.sessions.items()
        }


@settings(max_examples=10, deadline=None)
@given(actions=st.lists(_ACTIONS, max_size=6))
def test_incremental_maintenance_is_observationally_equivalent(ivm_program, actions):
    stacks = [
        _Stack(ivm_program, "incremental"),
        _Stack(ivm_program, "recompute"),
        _Stack(ivm_program, "off"),
    ]
    incremental, recompute, off = stacks

    assert incremental.pages() == recompute.pages() == off.pages()
    for action in actions:
        outcomes = [stack.run(action) for stack in stacks]
        assert outcomes[0] == outcomes[1] == outcomes[2], action
        assert incremental.pages() == recompute.pages() == off.pages(), action

    for stack in stacks:
        assert stack.table.check_integrity() == []
    assert incremental.table.same_contents(recompute.table)
    assert incremental.table.same_contents(off.table)


def test_boundary_script_patches_and_bails(ivm_program):
    """A fixed script that walks both sides of every delta rule."""
    incremental = _Stack(ivm_program, "incremental")
    recompute = _Stack(ivm_program, "recompute")
    script = [
        ("insert", 1),            # patched insert (load = 1, in view)
        ("update", 2),            # patched membership flip
        ("noop_update", 0),       # no delta, caches stay warm
        ("delete", 3),            # patched delete
        ("delete_reinsert", 4),   # two records, net no-op
        ("admit_update", 0),      # designed bailout: filtered row admitted
        ("insert", 0),            # load = 0: patched to zero new rows
        ("bulk_insert", 0),       # cost-bound bailout
        ("replace_reversed", 0),  # barrier record
        ("insert", 1),            # post-barrier: uncovered span, recompute
    ]
    for action in script:
        assert incremental.run(action) == recompute.run(action), action
        assert incremental.pages() == recompute.pages(), action
    stats = incremental.engine.maintenance_stats
    assert stats.patched > 0
    assert stats.bailouts > 0
    assert incremental.table.same_contents(recompute.table)


def test_concurrent_writers_keep_patched_caches_consistent(ivm_program):
    """Writer threads racing the patcher never leave a stale view behind."""
    stack = _Stack(ivm_program, "incremental")
    engine = stack.engine
    errors = []

    def writer(base: int) -> None:
        try:
            for i in range(8):
                cid = base + i
                with engine._durable_write():
                    stack.table.insert((cid, f"W{cid}", 1))
                engine.bump_state_version()
                engine.reactivate_all()
        except Exception as exc:  # pragma: no cover - surfaced via errors
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(1000 * k,)) for k in (1, 2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    engine.reactivate_all()

    assert stack.table.check_integrity() == []
    # The patched activation caches must agree with a from-scratch engine
    # rebuilt over the exact final contents (same insertion order).
    verify = _Stack(ivm_program, "recompute")
    with verify.engine._durable_write():
        verify.table.replace(list(stack.table.rows))
    verify.engine.bump_state_version()
    verify.engine.reactivate_all()
    for key in stack.sessions:
        patched = [
            child.activation_tuple
            for child in engine.session_tree(stack.sessions[key]).children
        ]
        rebuilt = [
            child.activation_tuple
            for child in verify.engine.session_tree(verify.sessions[key]).children
        ]
        assert patched == rebuilt, key
