"""Incremental maintenance composes with the WAL backend.

The delta hook (:meth:`Table.set_delta_hook`) and the WAL journal
(:meth:`Table.set_journal`) share the same emission seam inside the table
but occupy *separate* slots, so running ``maintenance="incremental"`` over
the WAL backend must deliver every logical mutation to each layer exactly
once — one WAL record for durability, one delta record for patching — and
the patched activation cache must never leak into the recovered state.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import pytest

from repro.api import build_program
from repro.config import CacheConfig, EngineConfig, StorageConfig
from repro.runtime.engine import HildaEngine
from repro.storage.wal import read_wal
from repro.storage.wal_backend import WAL_FILENAME

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


@pytest.fixture
def data_dir():
    path = tempfile.mkdtemp(prefix="ivm-wal-")
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _engine(data_dir: str) -> HildaEngine:
    config = EngineConfig(
        cache=CacheConfig(
            activation_queries=True,
            dependency_tracking=True,
            maintenance="incremental",
        ),
        storage=StorageConfig.wal(data_dir, checkpoint_every=None),
    )
    return HildaEngine(build_program(SOURCE), config=config)


def _course_ops(data_dir: str):
    records, _ = read_wal(os.path.join(data_dir, WAL_FILENAME))
    return [
        op
        for record in records
        if isinstance(record, dict) and record.get("kind") == "txn"
        for op in record["ops"]
        if len(op) >= 3 and op[2] == "course"
    ]


class TestWalCompose:
    def test_each_mutation_reaches_wal_and_delta_log_exactly_once(self, data_dir):
        engine = _engine(data_dir)
        engine.seed_persistent({"course": [(i, f"C{i}", 1) for i in range(6)]})
        engine.start_session({"user": [("u",)]})
        course = engine.persist_tables("R")["course"]

        wal_before = len(_course_ops(data_dir))
        delta_before = len(engine.delta_log.records_for(course))
        with engine._durable_write():
            course.insert((100, "New", 1))
        engine.bump_state_version()
        engine.reactivate_all()

        inserts = [
            op for op in _course_ops(data_dir)[wal_before:] if op[0] == "insert"
        ]
        assert len(inserts) == 1  # journaled once, not twice
        assert inserts[0][3] == (100, "New", 1)
        fresh = engine.delta_log.records_for(course)[delta_before:]
        assert len(fresh) == 1
        assert fresh[0].inserted == ((100, "New", 1),)
        engine.close()

    def test_patched_cache_and_recovery_agree(self, data_dir):
        engine = _engine(data_dir)
        engine.seed_persistent({"course": [(i, f"C{i}", 1) for i in range(6)]})
        session = engine.start_session({"user": [("u",)]})
        course = engine.persist_tables("R")["course"]
        for i in range(3):
            with engine._durable_write():
                course.insert((100 + i, f"N{i}", 1))
            engine.bump_state_version()
            engine.reactivate_all()
        assert engine.maintenance_stats.patched > 0
        expected = list(course.rows)
        tuples = [
            child.activation_tuple
            for child in engine.session_tree(session).children
        ]
        assert tuples == [(row[0],) for row in expected]

        engine.close()
        recovered = _engine(data_dir)
        recovered_course = recovered.persistent_table("course")
        assert list(recovered_course.rows) == expected
        assert recovered_course.check_integrity() == []
