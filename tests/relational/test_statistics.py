"""Incremental table statistics: the optimizer pipeline's stage 1."""

from __future__ import annotations

import datetime

from repro.relational.database import Database
from repro.relational.schema import Column, TableSchema
from repro.relational.statistics import size_class
from repro.relational.table import Table
from repro.relational.types import DataType


def _people() -> Table:
    return Table(
        TableSchema(
            "people",
            [
                Column("pid", DataType.INT),
                Column("city", DataType.STRING),
                Column("born", DataType.DATE),
            ],
            ["pid"],
        )
    )


class TestIncrementalMaintenance:
    def test_insert_updates_counts_distinct_and_minmax(self):
        table = _people()
        table.insert((1, "ithaca", datetime.date(2000, 1, 1)))
        table.insert((2, "ithaca", None))
        table.insert((3, "boston", datetime.date(1990, 5, 5)))
        stats = table.statistics()
        assert stats.row_count == 3
        assert stats.column("city").distinct == 2
        assert stats.column("born").nulls == 1
        assert stats.column("pid").min_value == 1
        assert stats.column("pid").max_value == 3

    def test_delete_maintains_histograms(self):
        table = _people()
        for pid in range(10):
            table.insert((pid, f"c{pid % 3}", None))
        table.delete_where(lambda row: row[0] >= 5)
        stats = table.statistics()
        assert stats.row_count == 5
        assert stats.column("pid").max_value == 4
        assert stats.column("city").distinct == 3

    def test_update_maintains_histograms(self):
        table = _people()
        table.insert((1, "ithaca", None))
        table.insert((2, "boston", None))
        table.update_where(lambda row: row[0] == 2, lambda row: (2, "ithaca", None))
        stats = table.statistics()
        assert stats.column("city").distinct == 1
        assert stats.row_count == 2

    def test_replace_rebuilds_lazily(self):
        table = _people()
        table.insert((1, "ithaca", None))
        table.replace([(pid, "x", None) for pid in range(4)])
        stats = table.statistics()
        assert stats.row_count == 4
        assert stats.column("city").distinct == 1

    def test_copy_carries_statistics_content(self):
        table = _people()
        for pid in range(6):
            table.insert((pid, f"c{pid}", None))
        clone = table.copy()
        assert clone.statistics().row_count == 6
        assert clone.statistics().column("city").distinct == 6

    def test_snapshot_is_cached_until_mutation(self):
        table = _people()
        table.insert((1, "ithaca", None))
        first = table.statistics()
        assert table.statistics() is first
        table.insert((2, "boston", None))
        assert table.statistics() is not first


class TestEpochs:
    def test_epoch_advances_on_size_class_change_only(self):
        table = _people()
        table.insert((0, "a", None))
        epoch = table.stats_epoch
        table.insert((1, "b", None))  # 1 -> 2 rows: new size class
        assert table.stats_epoch > epoch
        epoch = table.stats_epoch
        table.insert((2, "c", None))  # 2 -> 3 rows: same class (2..3)
        assert table.stats_epoch == epoch
        table.insert((3, "d", None))  # 3 -> 4 rows: new class
        assert table.stats_epoch > epoch

    def test_size_class_doubles(self):
        assert size_class(0) == 0
        assert size_class(1) == 1
        assert size_class(2) == size_class(3)
        assert size_class(4) == size_class(7)
        assert size_class(7) != size_class(8)

    def test_snapshot_restore_keeps_size_class(self):
        db = Database()
        table = db.create_table(
            TableSchema("t", [Column("x", DataType.INT)], ["x"])
        )
        for x in range(10):
            table.insert((x,))
        snapshot = db.snapshot()
        db.restore(snapshot)
        assert db.table("t").statistics().size_class == size_class(10)


class TestMostCommonValues:
    def test_mcv_tracks_top_frequencies(self):
        table = _people()
        pid = 0
        for city, count in (("ithaca", 5), ("boston", 3), ("nyc", 1)):
            for _ in range(count):
                table.insert((pid, city, None))
                pid += 1
        column = table.statistics().column("city")
        assert dict(column.mcv) == {"ithaca": 5, "boston": 3, "nyc": 1}
        assert column.mcv[0] == ("ithaca", 5)  # most frequent first
        assert column.mcv_total == 9
        assert column.mcv_frequency("boston") == 3
        assert column.mcv_frequency("chicago") is None

    def test_mcv_is_bounded_and_keeps_the_heaviest(self):
        from repro.relational.statistics import MCV_SIZE

        table = _people()
        pid = 0
        for value in range(MCV_SIZE + 5):
            for _ in range(value + 1):  # city c14 is the most frequent
                table.insert((pid, f"c{value}", None))
                pid += 1
        column = table.statistics().column("city")
        assert len(column.mcv) == MCV_SIZE
        counts = dict(column.mcv)
        assert counts[f"c{MCV_SIZE + 4}"] == MCV_SIZE + 5
        assert all(count > 5 for count in counts.values())

    def test_mcv_follows_deletes(self):
        table = _people()
        for pid in range(8):
            table.insert((pid, "ithaca" if pid < 6 else "boston", None))
        table.delete_where(lambda row: row[1] == "ithaca" and row[0] >= 2)
        column = table.statistics().column("city")
        assert dict(column.mcv) == {"ithaca": 2, "boston": 2}
        assert column.mcv[0][1] == 2


class TestLazyArming:
    def test_maintenance_starts_on_first_read(self):
        # Tables whose statistics are never consulted (heuristic strategy,
        # optimize=False) must pay nothing on the mutation path.
        table = _people()
        table.insert((1, "ithaca", None))
        assert table._stats is None
        assert table.statistics().row_count == 1  # arms maintenance
        table.insert((2, "boston", None))  # incremental from here on
        assert table.statistics().row_count == 2
        assert table.statistics().column("city").distinct == 2


class TestLazyRebuild:
    def test_statistics_rebuild_from_rows_when_marked_stale(self):
        table = Table(TableSchema("t", [Column("x", DataType.STRING)]))
        table.insert(("a",))
        table._stats = None  # what replace()/copy() do internally
        stats = table.statistics()
        assert stats.row_count == 1
        assert stats.column("x").min_value == "a"
