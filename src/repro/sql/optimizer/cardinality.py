"""Cardinality estimation over the tables' incremental statistics.

Stage 2 of the optimizer pipeline (``docs/optimizer.md``): turns the raw
:class:`~repro.relational.statistics.TableStatistics` maintained by the
relational layer into row-count estimates for scans, filtered scans and
joins.  :class:`CardinalityEstimator` implements the classic System-R
formulas, sharpened by most-common-value lists:

* equality against a constant: the MCV entry's exact frequency when the
  literal is in the column's MCV list, the average frequency of the values
  *outside* the list when it is not, ``1 / distinct(column)`` without MCVs;
* range comparison: a fixed 1/3;
* equi-join: ``1 / max(distinct(left key), distinct(right key))``;
* anything unrecognised: a fixed default selectivity.

Estimates are never exact — their only job is to order candidate join
trees.  EXPLAIN ANALYZE (``docs/optimizer.md`` § "Reading estimates")
reports the q-error of every estimate against actual rows.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from repro.errors import UnknownTableError
from repro.relational.statistics import ColumnStatistics, TableStatistics
from repro.sql.ast import (
    BinaryOp,
    ColumnRef,
    Expression,
    IsNullExpression,
    Literal,
    UnaryOp,
)

__all__ = ["CardinalityEstimator"]

#: Comparison operators estimated with the fixed range selectivity.
_RANGE_OPERATORS = {"<", "<=", ">", ">="}


class CardinalityEstimator:
    """Estimates row counts from per-table statistics.

    The estimator resolves base tables through ``catalog`` and tolerates
    missing statistics everywhere (derived tables, catalogs serving
    non-:class:`~repro.relational.table.Table` objects), falling back to
    fixed default selectivities, so it can run against any catalog the
    executor accepts.
    """

    #: Selectivity of an equality whose column has no statistics.
    DEFAULT_EQUALITY = 0.1
    #: Selectivity of a range comparison.
    RANGE = 1.0 / 3.0
    #: Selectivity of ``<>``.
    INEQUALITY = 0.9
    #: Selectivity of an unrecognised predicate.
    DEFAULT = 0.25
    #: Selectivity of an equi-join whose keys have no statistics.
    DEFAULT_JOIN = 0.1
    #: Assumed size of a relation without statistics (derived tables).
    DEFAULT_ROWS = 1000.0

    def __init__(self, catalog) -> None:
        self.catalog = catalog
        self._stats_cache: Dict[str, Optional[TableStatistics]] = {}

    # -- base tables ----------------------------------------------------------

    def table_statistics(self, table_name: Optional[str]) -> Optional[TableStatistics]:
        """The statistics snapshot of a base table (None when unavailable)."""
        if table_name is None or self.catalog is None:
            return None
        if table_name not in self._stats_cache:
            stats: Optional[TableStatistics] = None
            try:
                table = self.catalog.resolve_table(table_name)
            except UnknownTableError:
                table = None
            if table is not None and hasattr(table, "statistics"):
                stats = table.statistics()
            self._stats_cache[table_name] = stats
        return self._stats_cache[table_name]

    def base_rows(self, table_name: Optional[str]) -> float:
        stats = self.table_statistics(table_name)
        return float(stats.row_count) if stats is not None else self.DEFAULT_ROWS

    # -- single-relation predicates -------------------------------------------

    def conjunction_selectivity(
        self, conjuncts, stats: Optional[TableStatistics]
    ) -> float:
        """Combined selectivity of ANDed conjuncts (assumes independence)."""
        selectivity = 1.0
        for conjunct in conjuncts:
            selectivity *= self.predicate_selectivity(conjunct, stats)
        return selectivity

    def predicate_selectivity(
        self, conjunct: Expression, stats: Optional[TableStatistics]
    ) -> float:
        """Estimated fraction of one relation's rows satisfying ``conjunct``."""
        if isinstance(conjunct, BinaryOp):
            operator = conjunct.operator.upper()
            if operator == "=":
                return self._equality_selectivity(conjunct, stats)
            if operator in _RANGE_OPERATORS:
                return self.RANGE
            if operator in ("<>", "!="):
                return self.INEQUALITY
            if operator == "OR":
                left = self.predicate_selectivity(conjunct.left, stats)
                right = self.predicate_selectivity(conjunct.right, stats)
                return min(1.0, left + right - left * right)
            if operator == "AND":
                return self.predicate_selectivity(
                    conjunct.left, stats
                ) * self.predicate_selectivity(conjunct.right, stats)
        if isinstance(conjunct, UnaryOp) and conjunct.operator.upper() == "NOT":
            return max(0.0, 1.0 - self.predicate_selectivity(conjunct.operand, stats))
        if isinstance(conjunct, IsNullExpression):
            return self._null_selectivity(conjunct, stats)
        return self.DEFAULT

    def _equality_selectivity(
        self, conjunct: BinaryOp, stats: Optional[TableStatistics]
    ) -> float:
        for column_side, other_side in (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ):
            if isinstance(column_side, ColumnRef) and not column_side.is_positional:
                column_stats = (
                    stats.column(column_side.name) if stats is not None else None
                )
                if column_stats is not None and stats is not None:
                    if isinstance(other_side, Literal):
                        mcv = self._mcv_equality(
                            column_stats, stats.row_count, other_side.value
                        )
                        if mcv is not None:
                            return mcv
                    selectivity = column_stats.selectivity_of_equality(stats.row_count)
                    if selectivity > 0.0:
                        return min(1.0, selectivity)
                    return 1.0 / max(1.0, float(stats.row_count or 1))
        return self.DEFAULT_EQUALITY

    def _mcv_equality(
        self, column_stats: ColumnStatistics, row_count: int, value: Any
    ) -> Optional[float]:
        """MCV-driven selectivity of ``column = literal`` (None without MCVs).

        A literal *in* the list matches exactly its recorded count of rows;
        a literal outside it matches, on average, the rows not covered by
        the list divided by the distinct values outside it — the standard
        Postgres-style split that stops one hot value from inflating every
        equality estimate on a skewed column.
        """
        if row_count <= 0 or not column_stats.mcv:
            return None
        count = column_stats.mcv_frequency(value)
        if count is not None:
            return min(1.0, count / row_count)
        outside_distinct = column_stats.distinct - len(column_stats.mcv)
        if outside_distinct <= 0:
            # The list covers every stored value: the literal matches nothing.
            return 1.0 / max(1.0, float(row_count))
        non_null_rows = row_count - column_stats.nulls
        outside_rows = max(0, non_null_rows - column_stats.mcv_total)
        average = max(1.0, outside_rows / outside_distinct)
        return min(1.0, average / row_count)

    def _null_selectivity(
        self, conjunct: IsNullExpression, stats: Optional[TableStatistics]
    ) -> float:
        operand = conjunct.operand
        if (
            stats is not None
            and stats.row_count > 0
            and isinstance(operand, ColumnRef)
            and not operand.is_positional
        ):
            column_stats = stats.column(operand.name)
            if column_stats is not None:
                fraction = column_stats.nulls / stats.row_count
                return max(0.0, 1.0 - fraction) if conjunct.negated else fraction
        return self.DEFAULT

    # -- joins ----------------------------------------------------------------

    def join_rows(
        self,
        left_rows: float,
        candidate,
        left_keys,
        right_keys,
        stats_by_qualifier: Mapping[str, Optional[TableStatistics]],
    ) -> float:
        """Estimated output rows of joining an intermediate with one leaf.

        ``candidate`` is the :class:`~repro.sql.optimizer.joins.BaseRelation`
        being attached; empty ``right_keys`` means a cross join.
        """
        cross = left_rows * candidate.est_rows
        if not right_keys:
            return cross
        selectivity = self.join_selectivity(left_keys, right_keys, stats_by_qualifier)
        return max(0.0, min(cross * selectivity, cross))

    def join_selectivity(
        self,
        left_exprs,
        right_exprs,
        stats_by_qualifier: Mapping[str, Optional[TableStatistics]],
    ) -> float:
        """Combined selectivity of equi-join key pairs (multiplied)."""
        selectivity = 1.0
        for left_expr, right_expr in zip(left_exprs, right_exprs):
            left_distinct = self._key_distinct(left_expr, stats_by_qualifier)
            right_distinct = self._key_distinct(right_expr, stats_by_qualifier)
            domain = max(
                left_distinct or 0, right_distinct or 0
            )  # the larger side bounds the match probability
            selectivity *= 1.0 / domain if domain > 0 else self.DEFAULT_JOIN
        return selectivity

    def _key_distinct(
        self, expression: Expression, stats_by_qualifier: Mapping[str, Optional[TableStatistics]]
    ) -> Optional[int]:
        if not isinstance(expression, ColumnRef) or expression.is_positional:
            return None
        if expression.qualifier is None:
            return None
        stats = stats_by_qualifier.get(expression.qualifier)
        if stats is None:
            return None
        return stats.distinct(expression.name)
