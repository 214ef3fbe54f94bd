"""Table statistics: the first stage of the cost-based optimizer pipeline.

Every :class:`~repro.relational.table.Table` incrementally maintains, under
its existing lock, the raw material the SQL optimizer's cardinality
estimator consumes (see ``docs/optimizer.md``):

* the **row count**;
* per-column **value histograms** (value -> occurrence count, NULLs counted
  separately), from which distinct counts and min/max are derived;
* a **stats epoch** that advances whenever the table's *size class* changes
  (the floor-log2 bucket of its row count).

The epoch is deliberately coarse: plans cached by
:class:`~repro.sql.executor.SQLCaches` are validated against the size
classes recorded at plan time, so a table must roughly double or halve
before cached plans re-optimize.  Row-level churn that leaves the
distribution in the same ballpark never invalidates a plan, which keeps the
Hilda hot path (activation queries re-planned never, re-executed per
request) cache-friendly while still reacting when a dataset outgrows the
shape it was planned for.

Maintenance cost is O(arity) per point mutation (one dict update per
column) and O(rows * arity) for whole-table replacement — the same orders
the schema coercion and secondary-index maintenance already pay.  Memory
is O(total distinct values) for the exact histograms — comparable to one
secondary index per column — which is why maintenance is *armed lazily*:
a table pays nothing until the first ``Table.statistics()`` call (i.e.
until a cost-based plan actually consults it).  The estimator only reads
distinct/null counts and min/max, so bounded sketches (HyperLogLog-style
distinct counters) are the natural replacement if the exact histograms
ever dominate at scale.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Tuple

__all__ = [
    "ColumnStatistics",
    "TableStatistics",
    "StatisticsMaintainer",
    "size_class",
    "MCV_SIZE",
]

#: How many most-common values each column snapshot retains.  Ten entries
#: cover the hot head of the Zipf-like distributions Hilda workloads show
#: while keeping snapshots O(columns) beyond the histograms themselves.
MCV_SIZE = 10


def size_class(row_count: int) -> int:
    """The floor-log2 size bucket of a row count (0 rows -> 0, 1 -> 1, ...).

    Two tables in the same size class are "the same size" as far as cached
    plans are concerned; crossing a class boundary bumps the stats epoch.
    """
    return row_count.bit_length()


@dataclass(frozen=True)
class ColumnStatistics:
    """Summary statistics of one column (derived from its value histogram)."""

    #: Number of distinct non-NULL values currently stored.
    distinct: int
    #: Number of NULLs currently stored.
    nulls: int
    #: Smallest / largest non-NULL value (None when the column is all-NULL).
    min_value: Any = None
    max_value: Any = None
    #: The most-common values: up to :data:`MCV_SIZE` ``(value, count)``
    #: pairs, most frequent first.  Feeds exact equality selectivities for
    #: literals in the list (``docs/optimizer.md`` § "MCV statistics").
    mcv: Tuple[Tuple[Any, int], ...] = ()

    def selectivity_of_equality(self, row_count: int) -> float:
        """Estimated fraction of rows matching ``column = <some value>``."""
        if row_count <= 0 or self.distinct <= 0:
            return 0.0
        return max(0.0, (row_count - self.nulls) / row_count) / self.distinct

    @property
    def mcv_total(self) -> int:
        """Rows covered by the most-common-value list."""
        return sum(count for _, count in self.mcv)

    def mcv_frequency(self, value: Any) -> Optional[int]:
        """The exact count of ``value`` when it is in the MCV list."""
        for candidate, count in self.mcv:
            if candidate is value or candidate == value:
                return count
        return None


@dataclass(frozen=True)
class TableStatistics:
    """An immutable snapshot of a table's statistics at one point in time."""

    table_name: str
    row_count: int
    #: Advances when the table's size class changes (see :func:`size_class`).
    epoch: int
    #: The current size class (recorded in plan-cache fingerprints).
    size_class: int
    columns: Mapping[str, ColumnStatistics]

    def column(self, name: str) -> Optional[ColumnStatistics]:
        """The statistics of ``name`` (None for unknown columns)."""
        return self.columns.get(name)

    def distinct(self, name: str) -> Optional[int]:
        """Distinct-value count of ``name`` (None when untracked)."""
        stats = self.columns.get(name)
        return stats.distinct if stats is not None else None


class StatisticsMaintainer:
    """Incremental per-table statistics, owned by one :class:`Table`.

    The table calls :meth:`add_row` / :meth:`remove_row` / :meth:`rebuild`
    from inside its own lock, so no additional synchronisation is needed
    here.  :meth:`snapshot` is cheap when nothing changed (the previous
    snapshot is cached) and O(total distinct values) otherwise (min/max are
    recomputed from the histogram keys).
    """

    __slots__ = ("_column_names", "_histograms", "_nulls", "_row_count",
                 "_epoch", "_size_class", "_snapshot", "_table_name")

    def __init__(self, table_name: str, column_names: Sequence[str]) -> None:
        self._table_name = table_name
        self._column_names: Tuple[str, ...] = tuple(column_names)
        #: One value -> count histogram per column (NULLs kept separately).
        self._histograms: Tuple[Dict[Any, int], ...] = tuple(
            {} for _ in self._column_names
        )
        self._nulls = [0] * len(self._column_names)
        self._row_count = 0
        self._epoch = 1
        self._size_class = size_class(0)
        self._snapshot: Optional[TableStatistics] = None

    # -- incremental maintenance (called under the table lock) ---------------

    def add_row(self, row: Sequence[Any]) -> None:
        for position, value in enumerate(row):
            if value is None:
                self._nulls[position] += 1
            else:
                histogram = self._histograms[position]
                histogram[value] = histogram.get(value, 0) + 1
        self._row_count += 1
        self._changed()

    def remove_row(self, row: Sequence[Any]) -> None:
        for position, value in enumerate(row):
            if value is None:
                self._nulls[position] -= 1
            else:
                histogram = self._histograms[position]
                remaining = histogram.get(value, 0) - 1
                if remaining <= 0:
                    histogram.pop(value, None)
                else:
                    histogram[value] = remaining
        self._row_count -= 1
        self._changed()

    def replace_row(self, old: Sequence[Any], new: Sequence[Any]) -> None:
        self.remove_row(old)
        self.add_row(new)

    def rebuild(self, rows: Iterable[Sequence[Any]]) -> None:
        """Recompute everything from scratch (whole-table replacement)."""
        for histogram in self._histograms:
            histogram.clear()
        self._nulls = [0] * len(self._column_names)
        self._row_count = 0
        for row in rows:
            for position, value in enumerate(row):
                if value is None:
                    self._nulls[position] += 1
                else:
                    histogram = self._histograms[position]
                    histogram[value] = histogram.get(value, 0) + 1
            self._row_count += 1
        self._changed()

    def _changed(self) -> None:
        self._snapshot = None
        current_class = size_class(self._row_count)
        if current_class != self._size_class:
            self._size_class = current_class
            self._epoch += 1

    # -- snapshots -------------------------------------------------------------

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def row_count(self) -> int:
        return self._row_count

    def snapshot(self) -> TableStatistics:
        """The current statistics (cached until the next mutation)."""
        if self._snapshot is None:
            columns: Dict[str, ColumnStatistics] = {}
            for name, histogram, nulls in zip(
                self._column_names, self._histograms, self._nulls
            ):
                columns[name] = ColumnStatistics(
                    distinct=len(histogram),
                    nulls=nulls,
                    min_value=_safe_extreme(histogram, min),
                    max_value=_safe_extreme(histogram, max),
                    mcv=_most_common(histogram),
                )
            self._snapshot = TableStatistics(
                table_name=self._table_name,
                row_count=self._row_count,
                epoch=self._epoch,
                size_class=self._size_class,
                columns=columns,
            )
        return self._snapshot


def _most_common(histogram: Dict[Any, int]) -> Tuple[Tuple[Any, int], ...]:
    """The :data:`MCV_SIZE` most frequent ``(value, count)`` pairs.

    Ties are broken by insertion order (``heapq.nlargest`` is stable over
    dict iteration order), so repeated snapshots of the same histogram are
    deterministic.
    """
    if not histogram:
        return ()
    top = heapq.nlargest(MCV_SIZE, histogram.items(), key=lambda item: item[1])
    return tuple(top)


def _safe_extreme(histogram: Dict[Any, int], picker) -> Any:
    """min/max over histogram keys, tolerating mixed un-orderable types."""
    if not histogram:
        return None
    try:
        return picker(histogram.keys())
    except TypeError:
        return None
