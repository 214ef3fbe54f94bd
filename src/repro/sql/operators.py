"""Physical operators for SQL execution.

Operators form a tree; each node's :meth:`execute` produces a
:class:`~repro.sql.relation.Relation`.  The operator set covers what Hilda
programs need (scans, index scans, selections, projections, nested-loop /
hash / index-nested-loop joins, left outer joins, unions, distinct,
grouping/aggregation, sorting, limits) plus derived tables.

Operators receive an :class:`ExecutionContext` that carries the catalog,
function registry, evaluator, the compiled-closure cache and per-query
statistics.  ``outer_scope`` is the row scope of an enclosing query for
correlated subqueries.

Per-row expression work goes through :meth:`ExecutionContext.compiled`
first: when the expression compiles against the input relation's layout
(see :mod:`repro.sql.compile`) the operator runs a plain closure per row;
otherwise it falls back to the tree-walking evaluator with a chained
:class:`RowScope`.  ``ExecutionStats.compiled_evals`` /
``interpreted_evals`` record which path served each evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import SQLExecutionError
from repro.sql.ast import (
    AGGREGATE_FUNCTIONS,
    ColumnRef,
    Expression,
    FunctionCall,
    OrderItem,
    SelectItem,
    Star,
)
from repro.sql.compile import cached_compile
from repro.sql.evaluator import Evaluator, RowScope
from repro.sql.relation import ColumnInfo, Relation
from repro.sql.stats import ExecutionStats

__all__ = [
    "ExecutionContext",
    "ExecutionStats",
    "Operator",
    "explain_plan",
    "q_error",
    "ScanOp",
    "IndexScanOp",
    "ValuesOp",
    "FilterOp",
    "ProjectOp",
    "NestedLoopJoinOp",
    "HashJoinOp",
    "IndexNestedLoopJoinOp",
    "UnionOp",
    "DistinctOp",
    "SortOp",
    "LimitOp",
    "AggregateOp",
    "SubqueryScanOp",
]


class ExecutionContext:
    """Everything an operator needs to run."""

    def __init__(
        self,
        catalog,
        functions,
        subquery_executor,
        stats: Optional[ExecutionStats] = None,
        compile_cache: Optional[Dict] = None,
        compile_expressions: bool = True,
    ):
        self.catalog = catalog
        self.functions = functions
        self.stats = stats or ExecutionStats()
        self.evaluator = Evaluator(functions, subquery_executor, stats=self.stats)
        self.compile_cache = {} if compile_cache is None else compile_cache
        self.compile_expressions = compile_expressions

    def predicate(self, expression: Optional[Expression], scope: Optional[RowScope]) -> bool:
        if expression is None:
            return True
        return self.evaluator.evaluate_predicate(expression, scope)

    def compiled(self, expression: Optional[Expression], relation: Relation):
        """A compiled row closure for ``expression`` over ``relation``, or None."""
        if not self.compile_expressions or expression is None:
            return None
        return cached_compile(self.compile_cache, expression, relation.columns, self.functions)


class Operator:
    """Base class for physical operators."""

    #: Optimizer annotations: estimated output rows and cumulative cost of
    #: this subtree.  Set by the cost-based planner; ``None`` under the
    #: heuristic strategy (whose EXPLAIN output is unchanged).
    estimated_rows: Optional[float] = None
    estimated_cost: Optional[float] = None

    def execute(self, context: ExecutionContext, outer_scope: Optional[RowScope]) -> Relation:
        raise NotImplementedError

    def children(self) -> Sequence["Operator"]:
        return ()

    def describe(self) -> str:
        """One-line description used in EXPLAIN-style output."""
        return type(self).__name__

    def explain(self, indent: int = 0) -> str:
        return explain_plan(self, indent=indent)


def explain_plan(
    plan: Operator,
    actuals: Optional[Dict[int, Tuple[int, int]]] = None,
    indent: int = 0,
) -> str:
    """Render a plan tree, one operator per line, with its annotations.

    Each line is ``describe()`` plus, when the optimizer annotated the
    operator, ``(est rows=N cost=C)``.  ``actuals`` (from EXPLAIN ANALYZE)
    maps ``id(operator)`` to ``(executions, total output rows)`` and adds
    ``[actual rows=R loops=L]`` so estimates can be read against reality;
    operators carrying an estimate additionally print ``q=N.NN`` — the
    per-operator q-error (the larger of actual/estimated and
    estimated/actual, +1-smoothed) — so a mis-planned node is visible from
    the output alone.
    """
    line = "  " * indent + plan.describe()
    if plan.estimated_rows is not None:
        cost = "" if plan.estimated_cost is None else f" cost={plan.estimated_cost:.1f}"
        line += f"  (est rows={_format_rows(plan.estimated_rows)}{cost})"
    if actuals is not None:
        loops, total_rows = actuals.get(id(plan), (0, 0))
        line += f"  [actual rows={total_rows} loops={loops}]"
        if plan.estimated_rows is not None:
            actual = total_rows / max(1, loops)
            line += f" q={q_error(plan.estimated_rows, actual):.2f}"
    lines = [line]
    for child in plan.children():
        lines.append(explain_plan(child, actuals, indent + 1))
    return "\n".join(lines)


def _format_rows(estimate: float) -> str:
    """Row estimates print as integers (they are counts, not measurements)."""
    return str(int(round(estimate)))


def q_error(estimated: float, actual: float) -> float:
    """The +1-smoothed q-error of an estimate (1.0 is a perfect estimate).

    The same smoothing :meth:`ExecutionStats.record_estimation` applies, so
    the values EXPLAIN ANALYZE prints line up with the counters it bumps.
    """
    smoothing = 1.0
    return max(
        (actual + smoothing) / (estimated + smoothing),
        (estimated + smoothing) / (actual + smoothing),
    )


@dataclass
class ScanOp(Operator):
    """Full scan of a base table under a binding name."""

    table_name: str
    binding_name: str

    def execute(self, context: ExecutionContext, outer_scope: Optional[RowScope]) -> Relation:
        context.stats.operators_executed += 1
        table = context.catalog.resolve_table(self.table_name)
        relation = Relation.from_table(table, self.binding_name)
        context.stats.rows_scanned += len(relation.rows)
        return relation

    def describe(self) -> str:
        alias = f" AS {self.binding_name}" if self.binding_name != self.table_name else ""
        return f"Scan({self.table_name}{alias})"


#: Sentinel: an index probe value that can never match any stored row.
_NO_MATCH = object()


def _indexable_literal(value: Any, dtype) -> bool:
    """True when a hash probe for ``value`` matches the filter semantics.

    The interpreter compares with :func:`~repro.sql.evaluator._compare`,
    which coerces numeric strings; a hash lookup must reach the same rows.
    Combinations where the two could diverge (numbers probing string
    columns, string literals probing dates/bools) must stay on the
    scan+filter path.  Used by the planner to admit index scans and
    re-checked by :class:`IndexScanOp` against the table it actually
    resolves, in case a cached plan meets a different schema.
    """
    import datetime

    from repro.relational.types import DataType

    if value is None:
        return True  # NULL equality matches nothing on either path
    if dtype is DataType.INT or dtype is DataType.FLOAT:
        # Numeric strings are normalized at probe time; non-numeric strings
        # can never equal a rendered number, matching the filter's verdict.
        return isinstance(value, (int, float, str))
    if dtype is DataType.STRING:
        return isinstance(value, str)
    if dtype is DataType.BOOL:
        return isinstance(value, (bool, int))
    if dtype is DataType.DATE:
        return isinstance(value, datetime.date)
    return False


def _index_probe_value(value: Any, dtype) -> Any:
    """Normalize an equality-key value for a hash-index probe.

    Mirrors the interpreter's :func:`~repro.sql.evaluator._normalize_pair`
    coercions for the cases :func:`_indexable_literal` admits: numeric
    strings probe numeric columns, everything incompatible becomes
    :data:`_NO_MATCH` — exactly the rows a filter comparison would reject.
    """
    from repro.relational.types import DataType

    if value is None:
        return _NO_MATCH  # NULL equality is never true
    if dtype in (DataType.INT, DataType.FLOAT) and isinstance(value, str):
        try:
            return float(value) if ("." in value or "e" in value.lower()) else int(value)
        except ValueError:
            return _NO_MATCH
    return value


@dataclass
class IndexScanOp(Operator):
    """Equality lookup on a table's secondary hash index.

    ``key_values`` are plan-time constants (the planner only selects this
    operator for literal equality predicates).  The index is created on
    first use via :meth:`Table.ensure_index` and maintained incrementally by
    the table afterwards.
    """

    table_name: str
    binding_name: str
    key_columns: Tuple[str, ...]
    key_values: Tuple[Any, ...]

    def execute(self, context: ExecutionContext, outer_scope: Optional[RowScope]) -> Relation:
        context.stats.operators_executed += 1
        table = context.catalog.resolve_table(self.table_name)
        columns = [
            ColumnInfo(name=name, qualifier=self.binding_name)
            for name in table.schema.column_names
        ]
        # The planner admitted these key values against the schema it saw; a
        # shared plan cache may hand this plan a same-named table with a
        # different schema, so re-validate before trusting hash equality.
        if not all(
            table.schema.has_column(name)
            and _indexable_literal(value, table.schema.column(name).dtype)
            for name, value in zip(self.key_columns, self.key_values)
        ):
            return self._filtered_scan(context, table, columns)
        table.ensure_index(self.key_columns)
        probe: List[Any] = []
        for name, value in zip(self.key_columns, self.key_values):
            value = _index_probe_value(value, table.schema.column(name).dtype)
            if value is _NO_MATCH:
                return Relation(columns, [])
            probe.append(value)
        context.stats.index_lookups += 1
        rows = table.index_lookup(self.key_columns, tuple(probe))
        context.stats.index_hits += len(rows)
        context.stats.rows_scanned += len(rows)
        return Relation(columns, list(rows))

    def _filtered_scan(self, context: ExecutionContext, table, columns) -> Relation:
        """Scan + compare fallback with the interpreter's equality semantics."""
        from repro.sql.evaluator import _compare

        positions = [
            table.schema.column_position(name) if table.schema.has_column(name) else None
            for name in self.key_columns
        ]
        if any(position is None for position in positions):
            raise SQLExecutionError(
                f"index scan key columns {self.key_columns!r} missing from "
                f"table {self.table_name!r}"
            )
        rows = [
            row
            for row in table.rows
            if all(
                _compare("=", row[position], value) is True
                for position, value in zip(positions, self.key_values)
            )
        ]
        context.stats.rows_scanned += len(table.rows)
        return Relation(columns, rows)

    def describe(self) -> str:
        alias = f" AS {self.binding_name}" if self.binding_name != self.table_name else ""
        keys = ", ".join(
            f"{column}={value!r}" for column, value in zip(self.key_columns, self.key_values)
        )
        return f"IndexScan({self.table_name}{alias} ON {keys})"


@dataclass
class ValuesOp(Operator):
    """A constant relation; with no columns and one row it models SELECT-without-FROM."""

    columns: Tuple[ColumnInfo, ...] = ()
    rows: Tuple[Tuple[Any, ...], ...] = ((),)

    def execute(self, context: ExecutionContext, outer_scope: Optional[RowScope]) -> Relation:
        context.stats.operators_executed += 1
        return Relation(self.columns, list(self.rows))

    def describe(self) -> str:
        return f"Values({len(self.rows)} rows)"


@dataclass
class FilterOp(Operator):
    """Select rows of the child satisfying a predicate."""

    child: Operator
    predicate: Expression

    def children(self) -> Sequence[Operator]:
        return (self.child,)

    def execute(self, context: ExecutionContext, outer_scope: Optional[RowScope]) -> Relation:
        context.stats.operators_executed += 1
        relation = self.child.execute(context, outer_scope)
        rows = relation.rows
        fn = context.compiled(self.predicate, relation)
        if fn is not None:
            context.stats.compiled_evals += len(rows)
            kept = [row for row in rows if fn(row) is True]
        else:
            predicate = self.predicate
            evaluate = context.evaluator.evaluate
            kept = [
                row
                for row in rows
                if evaluate(predicate, RowScope(relation, row, outer_scope)) is True
            ]
        return Relation(relation.columns, kept)

    def describe(self) -> str:
        return f"Filter({self.predicate.to_sql()})"


@dataclass
class ProjectOp(Operator):
    """Compute the output columns of a SELECT list."""

    child: Operator
    items: Tuple[Union[SelectItem, Star], ...]

    def children(self) -> Sequence[Operator]:
        return (self.child,)

    def execute(self, context: ExecutionContext, outer_scope: Optional[RowScope]) -> Relation:
        context.stats.operators_executed += 1
        relation = self.child.execute(context, outer_scope)
        columns, extractors, needs_scope, n_compiled = _projection_plan(
            self.items, relation, context
        )
        context.stats.compiled_evals += n_compiled * len(relation.rows)
        rows = []
        for row in relation.rows:
            scope = RowScope(relation, row, outer_scope) if needs_scope else None
            rows.append(tuple(extract(context, scope, row) for extract in extractors))
        return Relation(columns, rows)

    def describe(self) -> str:
        return "Project(" + ", ".join(item.to_sql() for item in self.items) + ")"


def _projection_plan(
    items: Sequence[Union[SelectItem, Star]], relation: Relation, context: ExecutionContext
) -> Tuple[List[ColumnInfo], List[Callable], bool, int]:
    """Expand stars and build per-output-column extraction callables.

    Returns (columns, extractors, needs_scope, n_compiled): ``needs_scope``
    is True when at least one extractor still needs a per-row
    :class:`RowScope` (interpreter fallback); ``n_compiled`` counts the
    select expressions served by compiled closures.
    """
    columns: List[ColumnInfo] = []
    extractors: List[Callable] = []
    needs_scope = False
    n_compiled = 0

    def add_passthrough(index: int, column: ColumnInfo) -> None:
        columns.append(column)
        extractors.append(lambda context, scope, row, i=index: row[i])

    position = 0
    for item in items:
        if isinstance(item, Star):
            if item.qualifier is None:
                indices = range(len(relation.columns))
            else:
                indices = relation.qualifier_columns(item.qualifier)
                if not indices:
                    raise SQLExecutionError(
                        f"unknown table alias {item.qualifier!r} in select list"
                    )
            for index in indices:
                source = relation.columns[index]
                add_passthrough(index, ColumnInfo(name=source.name, qualifier=None))
            continue
        expression = item.expression
        name = item.alias or _default_column_name(expression, position)
        columns.append(ColumnInfo(name=name, qualifier=None))
        fn = context.compiled(expression, relation)
        if fn is not None:
            n_compiled += 1
            extractors.append(lambda context, scope, row, f=fn: f(row))
        else:
            needs_scope = True
            extractors.append(
                lambda context, scope, row, expr=expression: context.evaluator.evaluate(expr, scope)
            )
        position += 1
    return columns, extractors, needs_scope, n_compiled


def _default_column_name(expression: Expression, position: int) -> str:
    if isinstance(expression, ColumnRef):
        return expression.name
    if isinstance(expression, FunctionCall):
        return expression.name.lower()
    return f"col{position + 1}"


def _tuple_evaluator(
    context: ExecutionContext,
    keys: Tuple[Expression, ...],
    relation: Relation,
    outer_scope: Optional[RowScope],
) -> Tuple[Callable[[Tuple[Any, ...]], Tuple[Any, ...]], bool]:
    """A row -> key-tuple function; compiled per key expression when possible.

    Returns (function, fully_compiled).
    """
    fns = [context.compiled(expr, relation) for expr in keys]
    if all(fn is not None for fn in fns):
        compiled = tuple(fns)

        def compiled_key(row):
            return tuple(fn(row) for fn in compiled)

        return compiled_key, True

    evaluate = context.evaluator.evaluate
    pairs = tuple(zip(fns, keys))

    def mixed_key(row):
        scope = RowScope(relation, row, outer_scope)
        return tuple(
            fn(row) if fn is not None else evaluate(expr, scope) for fn, expr in pairs
        )

    return mixed_key, False


@dataclass
class NestedLoopJoinOp(Operator):
    """Nested-loop join supporting CROSS, INNER and LEFT outer joins."""

    left: Operator
    right: Operator
    join_type: str = "CROSS"  # CROSS | INNER | LEFT
    condition: Optional[Expression] = None

    def children(self) -> Sequence[Operator]:
        return (self.left, self.right)

    def execute(self, context: ExecutionContext, outer_scope: Optional[RowScope]) -> Relation:
        context.stats.operators_executed += 1
        left_relation = self.left.execute(context, outer_scope)
        right_relation = self.right.execute(context, outer_scope)
        columns = tuple(left_relation.columns) + tuple(right_relation.columns)
        combined = Relation(columns, [])
        null_right = (None,) * right_relation.arity
        condition_fn = None
        if self.join_type != "CROSS" and self.condition is not None:
            condition_fn = context.compiled(self.condition, combined)
        rows: List[Tuple[Any, ...]] = []
        for left_row in left_relation.rows:
            matched = False
            for right_row in right_relation.rows:
                context.stats.join_probes += 1
                candidate = left_row + right_row
                if self.join_type == "CROSS":
                    accept = True
                elif condition_fn is not None:
                    context.stats.compiled_evals += 1
                    accept = condition_fn(candidate) is True
                else:
                    scope = RowScope(combined, candidate, outer_scope)
                    accept = context.predicate(self.condition, scope)
                if accept:
                    rows.append(candidate)
                    matched = True
            if self.join_type == "LEFT" and not matched:
                rows.append(left_row + null_right)
        context.stats.rows_joined += len(rows)
        return Relation(columns, rows)

    def describe(self) -> str:
        condition = f" ON {self.condition.to_sql()}" if self.condition else ""
        return f"NestedLoopJoin[{self.join_type}]{condition}"


@dataclass
class HashJoinOp(Operator):
    """Equi-join using a hash table built on the right input.

    ``left_keys`` / ``right_keys`` are expressions evaluated against the left
    and right inputs respectively; ``residual`` is an optional extra
    predicate applied to joined rows.
    """

    left: Operator
    right: Operator
    left_keys: Tuple[Expression, ...]
    right_keys: Tuple[Expression, ...]
    join_type: str = "INNER"  # INNER | LEFT
    residual: Optional[Expression] = None

    def children(self) -> Sequence[Operator]:
        return (self.left, self.right)

    def execute(self, context: ExecutionContext, outer_scope: Optional[RowScope]) -> Relation:
        context.stats.operators_executed += 1
        left_relation = self.left.execute(context, outer_scope)
        right_relation = self.right.execute(context, outer_scope)
        columns = tuple(left_relation.columns) + tuple(right_relation.columns)
        combined = Relation(columns, [])
        null_right = (None,) * right_relation.arity

        # Build phase over the right input.
        right_key, right_compiled = _tuple_evaluator(
            context, self.right_keys, right_relation, outer_scope
        )
        if right_compiled:
            context.stats.compiled_evals += len(right_relation.rows) * len(self.right_keys)
        build: Dict[Tuple[Any, ...], List[Tuple[Any, ...]]] = {}
        for right_row in right_relation.rows:
            key = right_key(right_row)
            if any(value is None for value in key):
                continue
            build.setdefault(key, []).append(right_row)

        left_key, left_compiled = _tuple_evaluator(
            context, self.left_keys, left_relation, outer_scope
        )
        if left_compiled:
            context.stats.compiled_evals += len(left_relation.rows) * len(self.left_keys)
        residual_fn = (
            context.compiled(self.residual, combined) if self.residual is not None else None
        )
        rows: List[Tuple[Any, ...]] = []
        for left_row in left_relation.rows:
            key = left_key(left_row)
            matches = [] if any(value is None for value in key) else build.get(key, [])
            matched = False
            for right_row in matches:
                context.stats.join_probes += 1
                candidate = left_row + right_row
                if self.residual is None:
                    accept = True
                elif residual_fn is not None:
                    context.stats.compiled_evals += 1
                    accept = residual_fn(candidate) is True
                else:
                    joined_scope = RowScope(combined, candidate, outer_scope)
                    accept = context.predicate(self.residual, joined_scope)
                if accept:
                    rows.append(candidate)
                    matched = True
            if self.join_type == "LEFT" and not matched:
                rows.append(left_row + null_right)
        context.stats.rows_joined += len(rows)
        return Relation(columns, rows)

    def describe(self) -> str:
        keys = ", ".join(
            f"{l.to_sql()}={r.to_sql()}" for l, r in zip(self.left_keys, self.right_keys)
        )
        return f"HashJoin[{self.join_type}]({keys})"


@dataclass
class IndexNestedLoopJoinOp(Operator):
    """Inner equi-join probing a base table's secondary hash index per left row.

    The right side never materialises a full scan: for every left row the
    join key is evaluated (compiled when possible) and looked up in the
    index on ``right_columns``, which :meth:`Table.ensure_index` creates on
    first use.  Probe semantics match :class:`HashJoinOp` (raw hash
    equality, NULL keys never match).
    """

    left: Operator
    table_name: str
    binding_name: str
    left_keys: Tuple[Expression, ...]
    right_columns: Tuple[str, ...]
    residual: Optional[Expression] = None

    def children(self) -> Sequence[Operator]:
        return (self.left,)

    def execute(self, context: ExecutionContext, outer_scope: Optional[RowScope]) -> Relation:
        context.stats.operators_executed += 1
        left_relation = self.left.execute(context, outer_scope)
        table = context.catalog.resolve_table(self.table_name)
        table.ensure_index(self.right_columns)
        right_columns = tuple(
            ColumnInfo(name=name, qualifier=self.binding_name)
            for name in table.schema.column_names
        )
        columns = tuple(left_relation.columns) + right_columns
        combined = Relation(columns, [])
        left_key, left_compiled = _tuple_evaluator(
            context, self.left_keys, left_relation, outer_scope
        )
        if left_compiled:
            context.stats.compiled_evals += len(left_relation.rows) * len(self.left_keys)
        residual_fn = (
            context.compiled(self.residual, combined) if self.residual is not None else None
        )
        rows: List[Tuple[Any, ...]] = []
        for left_row in left_relation.rows:
            key = left_key(left_row)
            if any(value is None for value in key):
                continue
            context.stats.index_lookups += 1
            matches = table.index_lookup(self.right_columns, key)
            context.stats.index_hits += len(matches)
            for right_row in matches:
                context.stats.join_probes += 1
                candidate = left_row + right_row
                if self.residual is None:
                    accept = True
                elif residual_fn is not None:
                    context.stats.compiled_evals += 1
                    accept = residual_fn(candidate) is True
                else:
                    scope = RowScope(combined, candidate, outer_scope)
                    accept = context.predicate(self.residual, scope)
                if accept:
                    rows.append(candidate)
        context.stats.rows_joined += len(rows)
        return Relation(columns, rows)

    def describe(self) -> str:
        alias = f" AS {self.binding_name}" if self.binding_name != self.table_name else ""
        keys = ", ".join(
            f"{expr.to_sql()}={column}"
            for expr, column in zip(self.left_keys, self.right_columns)
        )
        return f"IndexNestedLoopJoin({self.table_name}{alias} ON {keys})"


@dataclass
class UnionOp(Operator):
    """UNION / UNION ALL of two inputs; plain UNION removes duplicates."""

    left: Operator
    right: Operator
    all: bool = False

    def children(self) -> Sequence[Operator]:
        return (self.left, self.right)

    def execute(self, context: ExecutionContext, outer_scope: Optional[RowScope]) -> Relation:
        context.stats.operators_executed += 1
        left_relation = self.left.execute(context, outer_scope)
        right_relation = self.right.execute(context, outer_scope)
        if left_relation.arity != right_relation.arity:
            raise SQLExecutionError(
                "UNION branches have different arities: "
                f"{left_relation.arity} vs {right_relation.arity}"
            )
        rows = list(left_relation.rows) + list(right_relation.rows)
        if not self.all:
            rows = _dedupe(rows)
        return Relation(left_relation.columns, rows)

    def describe(self) -> str:
        return "UnionAll" if self.all else "Union"


@dataclass
class DistinctOp(Operator):
    """Remove duplicate rows."""

    child: Operator

    def children(self) -> Sequence[Operator]:
        return (self.child,)

    def execute(self, context: ExecutionContext, outer_scope: Optional[RowScope]) -> Relation:
        context.stats.operators_executed += 1
        relation = self.child.execute(context, outer_scope)
        return Relation(relation.columns, _dedupe(relation.rows))

    def describe(self) -> str:
        return "Distinct"


@dataclass
class SortOp(Operator):
    """ORDER BY implementation (stable sort, NULLs last for ascending)."""

    child: Operator
    order_by: Tuple[OrderItem, ...]

    def children(self) -> Sequence[Operator]:
        return (self.child,)

    def execute(self, context: ExecutionContext, outer_scope: Optional[RowScope]) -> Relation:
        context.stats.operators_executed += 1
        relation = self.child.execute(context, outer_scope)
        rows = list(relation.rows)
        # Apply sort keys from the last to the first to keep stability.
        for item in reversed(self.order_by):
            fn = context.compiled(item.expression, relation)
            if fn is not None:
                context.stats.compiled_evals += len(rows)

                def sort_key(row, fn=fn):
                    value = fn(row)
                    return (value is None, _orderable(value))

            else:
                def sort_key(row, expr=item.expression):
                    scope = RowScope(relation, row, outer_scope)
                    value = context.evaluator.evaluate(expr, scope)
                    return (value is None, _orderable(value))

            rows.sort(key=sort_key, reverse=item.descending)
        return Relation(relation.columns, rows)

    def describe(self) -> str:
        return "Sort(" + ", ".join(item.to_sql() for item in self.order_by) + ")"


@dataclass
class LimitOp(Operator):
    """Keep at most ``limit`` rows."""

    child: Operator
    limit: int

    def children(self) -> Sequence[Operator]:
        return (self.child,)

    def execute(self, context: ExecutionContext, outer_scope: Optional[RowScope]) -> Relation:
        context.stats.operators_executed += 1
        relation = self.child.execute(context, outer_scope)
        return Relation(relation.columns, relation.rows[: self.limit])

    def describe(self) -> str:
        return f"Limit({self.limit})"


@dataclass
class AggregateOp(Operator):
    """GROUP BY + aggregate evaluation.

    Each select item is evaluated once per group: aggregate function calls
    are computed over the group's rows, other expressions over the group's
    first row (which is well-defined for grouping columns).
    """

    child: Operator
    group_by: Tuple[Expression, ...]
    items: Tuple[SelectItem, ...]
    having: Optional[Expression] = None

    def children(self) -> Sequence[Operator]:
        return (self.child,)

    def execute(self, context: ExecutionContext, outer_scope: Optional[RowScope]) -> Relation:
        context.stats.operators_executed += 1
        relation = self.child.execute(context, outer_scope)

        groups: Dict[Tuple[Any, ...], List[Tuple[Any, ...]]] = {}
        if self.group_by:
            group_key, compiled = _tuple_evaluator(
                context, self.group_by, relation, outer_scope
            )
            if compiled:
                context.stats.compiled_evals += len(relation.rows) * len(self.group_by)
            for row in relation.rows:
                groups.setdefault(group_key(row), []).append(row)
        else:
            # A global aggregate always produces exactly one group, possibly empty.
            groups[()] = list(relation.rows)

        columns = [
            ColumnInfo(name=item.alias or _default_column_name(item.expression, index))
            for index, item in enumerate(self.items)
        ]
        output_rows: List[Tuple[Any, ...]] = []
        for key, group_rows in groups.items():
            if self.having is not None:
                value = _evaluate_aggregate_expression(
                    context, self.having, relation, group_rows, outer_scope
                )
                if value is not True:
                    continue
            output_rows.append(
                tuple(
                    _evaluate_aggregate_expression(
                        context, item.expression, relation, group_rows, outer_scope
                    )
                    for item in self.items
                )
            )
        return Relation(columns, output_rows)

    def describe(self) -> str:
        by = ", ".join(expr.to_sql() for expr in self.group_by)
        return f"Aggregate(group by {by})" if by else "Aggregate(global)"


@dataclass
class SubqueryScanOp(Operator):
    """A derived table: execute a planned subquery and re-qualify its columns."""

    plan: Operator
    binding_name: str

    def children(self) -> Sequence[Operator]:
        return (self.plan,)

    def execute(self, context: ExecutionContext, outer_scope: Optional[RowScope]) -> Relation:
        context.stats.operators_executed += 1
        relation = self.plan.execute(context, outer_scope)
        columns = [
            ColumnInfo(name=column.name, qualifier=self.binding_name)
            for column in relation.columns
        ]
        return Relation(columns, relation.rows)

    def describe(self) -> str:
        return f"SubqueryScan({self.binding_name})"


# ---------------------------------------------------------------------------
# Aggregate expression evaluation
# ---------------------------------------------------------------------------


def _evaluate_aggregate_expression(
    context: ExecutionContext,
    expression: Expression,
    relation: Relation,
    group_rows: List[Tuple[Any, ...]],
    outer_scope: Optional[RowScope],
) -> Any:
    """Evaluate an expression in grouping context."""
    if isinstance(expression, FunctionCall) and expression.is_aggregate:
        return _compute_aggregate(context, expression, relation, group_rows, outer_scope)
    if isinstance(expression, (ColumnRef, Star)) or not _contains_aggregate(expression):
        if not group_rows:
            return None
        scope = RowScope(relation, group_rows[0], outer_scope)
        return context.evaluator.evaluate(expression, scope)
    # Composite expression containing aggregates, e.g. SUM(x) / COUNT(x).
    if isinstance(expression, FunctionCall):
        arguments = [
            _evaluate_aggregate_expression(context, arg, relation, group_rows, outer_scope)
            for arg in expression.arguments
        ]
        return context.functions.call(expression.name, arguments)
    from repro.sql.ast import BinaryOp as _BinaryOp
    from repro.sql.ast import UnaryOp as _UnaryOp

    if isinstance(expression, _BinaryOp):
        left = _evaluate_aggregate_expression(
            context, expression.left, relation, group_rows, outer_scope
        )
        right = _evaluate_aggregate_expression(
            context, expression.right, relation, group_rows, outer_scope
        )
        from repro.sql.ast import Literal as _Literal

        rewritten = _BinaryOp(expression.operator, _Literal(left), _Literal(right))
        return context.evaluator.evaluate(rewritten, None)
    if isinstance(expression, _UnaryOp):
        operand = _evaluate_aggregate_expression(
            context, expression.operand, relation, group_rows, outer_scope
        )
        from repro.sql.ast import Literal as _Literal

        rewritten = _UnaryOp(expression.operator, _Literal(operand))
        return context.evaluator.evaluate(rewritten, None)
    raise SQLExecutionError(
        f"unsupported aggregate expression: {expression.to_sql()}"
    )


def _compute_aggregate(
    context: ExecutionContext,
    call: FunctionCall,
    relation: Relation,
    group_rows: List[Tuple[Any, ...]],
    outer_scope: Optional[RowScope],
) -> Any:
    name = call.name.lower()
    argument = call.arguments[0] if call.arguments else None
    if argument is None or isinstance(argument, Star):
        # COUNT(*): every row counts; no per-row evaluation needed.
        values: List[Any] = [1] * len(group_rows)
        non_null = values
    else:
        fn = context.compiled(argument, relation)
        if fn is not None:
            context.stats.compiled_evals += len(group_rows)
            values = [fn(row) for row in group_rows]
        else:
            values = [
                context.evaluator.evaluate(argument, RowScope(relation, row, outer_scope))
                for row in group_rows
            ]
        non_null = [value for value in values if value is not None]
    if call.distinct:
        non_null = _dedupe_values(non_null)
    if name == "count":
        return len(non_null)
    if not non_null:
        return None
    if name == "sum":
        return sum(non_null)
    if name == "avg":
        return sum(non_null) / len(non_null)
    if name == "min":
        return min(non_null)
    if name == "max":
        return max(non_null)
    raise SQLExecutionError(f"unknown aggregate function {call.name!r}")  # pragma: no cover


def _contains_aggregate(expression: Expression) -> bool:
    return any(
        isinstance(node, FunctionCall) and node.is_aggregate for node in expression.walk()
    )


# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------


def _hashable(value: Any) -> Any:
    return value


def _dedupe(rows: List[Tuple[Any, ...]]) -> List[Tuple[Any, ...]]:
    seen = set()
    unique: List[Tuple[Any, ...]] = []
    for row in rows:
        if row not in seen:
            seen.add(row)
            unique.append(row)
    return unique


def _dedupe_values(values: List[Any]) -> List[Any]:
    seen = set()
    unique: List[Any] = []
    for value in values:
        if value not in seen:
            seen.add(value)
            unique.append(value)
    return unique


def _orderable(value: Any) -> Any:
    """A sort key usable across the value types the substrate stores."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return int(value)
    return value
