"""The SQL executor: the public entry point of the SQL engine.

:class:`SQLExecutor` parses, plans and runs queries and DML statements
against a :class:`~repro.relational.database.Catalog`.  Three caches back
the hot path, bundled in :class:`SQLCaches` so the Hilda runtime (which
builds a short-lived executor per instance context) can share them across
executors:

* the **AST cache** maps SQL text to parsed statements;
* the **plan cache** maps parsed queries to physical plans;
* the **compile cache** maps (expression, row layout) pairs to the compiled
  closures produced by :mod:`repro.sql.compile`.

A shared :class:`SQLCaches` must only be used by executors with the same
``optimize`` / ``auto_index`` / optimizer-strategy settings and the same
function registry,
since plans and closures bake those decisions in.  Catalogs served by a
shared cache should also agree on the schemas of same-named tables: plans
are keyed by query identity, so a plan built against one schema is reused
against the others (resolution happens by name at execution time, and
:class:`~repro.sql.operators.IndexScanOp` re-validates its keys against
the table it actually resolves).  The Hilda runtime satisfies this because
each declaration's queries are distinct AST objects that always run in
identically-shaped contexts.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.config import EngineConfig, typed_config
from repro.errors import SQLExecutionError, UnknownTableError
from repro.relational.database import Catalog
from repro.relational.functions import FunctionRegistry, default_registry
from repro.relational.statistics import size_class as stats_size_class
from repro.sql.ast import (
    DeleteStatement,
    Expression,
    InsertStatement,
    Query,
    SelectQuery,
    Statement,
    UnionQuery,
    UpdateStatement,
)
from repro.sql.compile import cached_compile
from repro.sql.evaluator import Evaluator, RowScope
from repro.sql.operators import (
    ExecutionContext,
    ExecutionStats,
    Operator,
    explain_plan,
)
from repro.sql.delta import describe_maintenance
from repro.sql.parser import parse_query, parse_statement
from repro.sql.stats import EstimationStats
from repro.sql.planner import Planner, tables_read
from repro.sql.relation import ColumnInfo, Relation

__all__ = ["SQLExecutor", "SQLCaches"]

QueryLike = Union[str, SelectQuery, UnionQuery]


class SQLCaches:
    """Parse/plan/compile caches shareable across executors (see module doc).

    The caches are shared by every executor the Hilda engine builds, across
    all concurrently-served sessions, so mutation is guarded by ``lock``:
    lookups and publications are brief critical sections while the actual
    parse/plan/compile work happens outside the lock (two threads may
    duplicate work on a cold cache; the last publication wins, which is
    harmless because entries for one key are interchangeable).
    """

    __slots__ = (
        "asts",
        "plans",
        "compiled",
        "read_sets",
        "live_plans",
        "estimation",
        "lock",
    )

    def __init__(self) -> None:
        self.asts: Dict[str, Statement] = {}
        #: id(query) -> (query, [(stats fingerprint, plan), ...]); the AST
        #: is stored to pin its identity.  A fingerprint is the ``(table
        #: name, size class)`` pairs the cost-based planner consulted (None
        #: under the heuristic strategy, which matches unconditionally): on
        #: every cache hit the executor re-resolves those tables and uses
        #: the entry whose size classes are current, planning a fresh one
        #: when none is — so plans re-optimize when the data distribution
        #: shifts (docs/optimizer.md § "Plan caching and stats epochs").
        #: One entry is kept per observed fingerprint (bounded, oldest
        #: evicted): layered Hilda catalogs resolve the same query against
        #: differently-sized same-named tables per context, and each size
        #: shape keeps its own plan instead of thrashing a single slot.
        self.plans: Dict[int, Tuple[Query, List[Tuple[Optional[Tuple], Operator]]]] = {}
        #: (id(expression), columns) -> (expression, closure-or-None).
        self.compiled: Dict[Any, Tuple[Expression, Optional[Callable]]] = {}
        #: id(plan) -> (plan, table read set); the plan is stored to pin its
        #: identity.  Read sets feed dependency-tracked cache invalidation.
        self.read_sets: Dict[int, Tuple[Operator, frozenset]] = {}
        #: ids of plans currently published in ``plans``.  Read sets are
        #: cached only for live plans, so a thread that computed one for a
        #: concurrently evicted plan cannot re-pin it after its cleanup.
        self.live_plans: set = set()
        #: Engine-scoped estimate-vs-actual totals (EXPLAIN ANALYZE),
        #: surfaced in benchmark artifacts.
        self.estimation = EstimationStats()
        self.lock = threading.Lock()


class SQLExecutor:
    """Executes SQL against a catalog of tables.

    Parameters
    ----------
    catalog:
        Any object implementing the :class:`Catalog` protocol (a
        :class:`~repro.relational.database.Database` or a layered catalog
        built by the Hilda runtime).
    functions:
        Scalar function registry; defaults to the process-wide registry.
    config:
        A typed :class:`~repro.config.EngineConfig`; the executor reads its
        planner/compiler switches.  ``optimize`` builds hash joins for
        equality join predicates (nested loops otherwise), ``auto_index``
        lets the planner answer equality predicates and equi-join keys with
        secondary hash indexes created on first use (declared indexes are
        always considered), and ``compile_expressions`` compiles per-row
        expressions to closures over the row layout instead of running the
        tree-walking evaluator.
    caches:
        A shared :class:`SQLCaches`; a private one is created when omitted.
    scatter:
        Optional cross-shard read provider (docs/cluster.md).  An object
        with ``overlay_for(ast, read_names) -> Optional[dict]`` returning
        merged replacement tables for queries that must read beyond the
        local shard; queries it declines run purely locally.  None (the
        default) outside cluster workers.
    """

    def __init__(
        self,
        catalog: Catalog,
        functions: Optional[FunctionRegistry] = None,
        config: Optional[EngineConfig] = None,
        caches: Optional[SQLCaches] = None,
        scatter: Optional[Any] = None,
    ) -> None:
        config = typed_config("SQLExecutor", "config", config, EngineConfig)
        self.config = config
        self.catalog = catalog
        self.functions = functions or default_registry()
        self.optimize = config.optimize
        self.auto_index = config.auto_index
        self.compile_expressions = config.compile_expressions
        self.optimizer_config = config.optimizer
        self.stats = ExecutionStats()
        self.scatter = scatter
        self.caches = caches if caches is not None else SQLCaches()
        self._ast_cache = self.caches.asts
        self._plan_cache = self.caches.plans
        self._compile_cache = self.caches.compiled

    # -- queries --------------------------------------------------------------

    def execute_query(
        self, query: QueryLike, outer_scope: Optional[RowScope] = None
    ) -> Relation:
        """Execute a SELECT/UNION query and return the result relation."""
        ast = self._parse_query(query)
        plan = self._plan(ast)
        overlay = None
        if self.scatter is not None:
            # Cluster hook: a query reading beyond the local shard executes
            # against an overlay catalog whose named tables were merged from
            # every shard's scan (scatter-gather); running the *whole* plan
            # over the merged contents re-applies joins/ORDER BY/LIMIT with
            # single-process semantics (docs/cluster.md).
            overlay = self.scatter.overlay_for(ast, self._plan_read_set(plan))
        context = self._context(overlay)
        return plan.execute(context, outer_scope)

    def query_rows(self, query: QueryLike) -> List[Tuple[Any, ...]]:
        """Execute a query and return its rows as tuples."""
        return self.execute_query(query).as_tuples()

    def query_dicts(self, query: QueryLike) -> List[Dict[str, Any]]:
        """Execute a query and return its rows as dictionaries."""
        return self.execute_query(query).as_dicts()

    def query_scalar(self, query: QueryLike) -> Any:
        """Execute a query and return the first column of its first row."""
        return self.execute_query(query).scalar()

    def explain(self, query: QueryLike, analyze: bool = False) -> str:
        """Render the physical plan chosen for a query, plus its table read set.

        Under the cost-based optimizer each operator line carries its
        estimated output rows and cumulative cost.  With ``analyze=True``
        the plan is also *executed* and every line additionally reports the
        rows the operator actually produced and how often it ran, while the
        ``estimation_*`` counters of :attr:`stats` record how many
        estimates were off by more than a q-error of 2 (EXPLAIN ANALYZE).
        The trailing ``Tables read:`` line is deterministically sorted.
        """
        if analyze:
            return self._explain_analyze(self._parse_query(query))
        plan = self._plan(self._parse_query(query))
        return explain_plan(plan) + self._footprint_line(plan)

    def _footprint_line(self, plan: Operator) -> str:
        reads = sorted(self._plan_read_set(plan))
        footprint = ", ".join(reads) if reads else "(none)"
        return f"\nTables read: {footprint}"

    def _explain_analyze(self, ast: Query) -> str:
        """EXPLAIN ANALYZE: execute an instrumented private copy of the plan.

        The plan is built fresh (never published to the shared cache)
        because instrumentation rebinds each operator's ``execute``; cached
        plans are shared across threads and must stay pristine.
        """
        plan = self._make_planner().plan(ast)
        # Footprint computed before instrumentation and without touching
        # caches.read_sets: this plan is throwaway and must not be pinned
        # there (the cache has no eviction for never-again-seen plans).
        reads = sorted(tables_read(plan, plan_subquery=self._plan))
        footprint = ", ".join(reads) if reads else "(none)"
        maintenance = describe_maintenance(ast, plan, frozenset(reads))
        actuals: Dict[int, Tuple[int, int]] = {}
        _instrument_plan(plan, actuals)
        checks = self.stats.estimation_checks
        under = self.stats.estimation_underestimates
        over = self.stats.estimation_overestimates
        plan.execute(self._context(), None)
        for operator, (loops, total_rows) in _collect_estimates(plan, actuals):
            actual = total_rows / max(1, loops)
            self.stats.record_estimation(operator.estimated_rows, actual)
        self.caches.estimation.add(
            self.stats.estimation_checks - checks,
            self.stats.estimation_underestimates - under,
            self.stats.estimation_overestimates - over,
        )
        estimation = (
            f"Estimation: {self.stats.estimation_checks - checks} checked, "
            f"{self.stats.estimation_underestimates - under} underestimated, "
            f"{self.stats.estimation_overestimates - over} overestimated "
            "(q-error > 2)"
        )
        return (
            explain_plan(plan, actuals=actuals)
            + f"\n{estimation}"
            + f"\nMaintenance: {maintenance}"
            + f"\nTables read: {footprint}"
        )

    def read_set(self, query: QueryLike) -> frozenset:
        """The names of the tables a query reads (its dependency footprint).

        Derived from the physical plan (including subquery scans, index
        operators and expression subqueries) and cached per plan, so after
        the first call this is a dictionary lookup.  The Hilda runtime
        records this footprint for every executed activation query and keys
        its caches on the version vector of exactly these tables.
        """
        return self._plan_read_set(self._plan(self._parse_query(query)))

    def _plan_read_set(self, plan: Operator) -> frozenset:
        key = id(plan)
        with self.caches.lock:
            entry = self.caches.read_sets.get(key)
        if entry is None:
            names = tables_read(plan, plan_subquery=self._plan)
            with self.caches.lock:
                # Publish only while the plan is still in the plan cache: a
                # concurrent eviction has already popped this slot, and
                # re-inserting would pin the dead plan tree forever.
                if key in self.caches.live_plans:
                    self.caches.read_sets[key] = (plan, names)
            return names
        return entry[1]

    # -- statements -------------------------------------------------------------

    def execute(self, statement: Union[str, Statement]) -> Union[Relation, int]:
        """Execute any supported statement.

        SELECT returns a :class:`Relation`; DML statements return the number
        of affected rows.
        """
        ast = self._parse_statement(statement)
        if isinstance(ast, (SelectQuery, UnionQuery)):
            return self.execute_query(ast)
        if isinstance(ast, InsertStatement):
            return self._execute_insert(ast)
        if isinstance(ast, DeleteStatement):
            return self._execute_delete(ast)
        if isinstance(ast, UpdateStatement):
            return self._execute_update(ast)
        raise SQLExecutionError(f"unsupported statement {type(ast).__name__}")

    # -- DML ------------------------------------------------------------------------

    def _execute_insert(self, statement: InsertStatement) -> int:
        table = self.catalog.resolve_table(statement.table)
        evaluator = self._bare_evaluator()
        inserted = 0
        if statement.query is not None:
            relation = self.execute_query(statement.query)
            rows = relation.as_tuples()
        else:
            rows = [
                tuple(evaluator.evaluate(value, None) for value in row)
                for row in statement.rows
            ]
        for row in rows:
            if statement.columns:
                mapping = dict(zip(statement.columns, row))
                table.insert_mapping(mapping)
            else:
                table.insert(row)
            inserted += 1
        return inserted

    def _execute_delete(self, statement: DeleteStatement) -> int:
        table = self.catalog.resolve_table(statement.table)
        if statement.where is None:
            removed = len(table)
            table.clear()
            return removed
        binding = statement.alias or statement.table
        columns = _table_columns(table, binding)
        predicate = self._row_predicate(statement.where, columns, len(table))
        return table.delete_where(predicate)

    def _execute_update(self, statement: UpdateStatement) -> int:
        table = self.catalog.resolve_table(statement.table)
        binding = statement.alias or statement.table
        columns = _table_columns(table, binding)
        if statement.where is None:
            predicate = lambda row: True  # noqa: E731 - trivial match-all
        else:
            predicate = self._row_predicate(statement.where, columns, len(table))
        positions = {
            column: table.schema.column_position(column)
            for column, _ in statement.assignments
        }
        assignment_fns = [
            (positions[column], expression, self._compiled(expression, columns))
            for column, expression in statement.assignments
        ]
        scope_relation = Relation(columns, ())
        evaluator = self._bare_evaluator()

        def updater(row: Tuple[Any, ...]) -> List[Any]:
            values = list(row)
            scope: Optional[RowScope] = None
            for position, expression, fn in assignment_fns:
                if fn is not None:
                    self.stats.compiled_evals += 1
                    values[position] = fn(row)
                else:
                    if scope is None:
                        scope = RowScope(scope_relation, row, None)
                    values[position] = evaluator.evaluate(expression, scope)
            return values

        return table.update_where(predicate, updater)

    def _row_predicate(
        self, where: Expression, columns: Tuple[ColumnInfo, ...], n_rows: int
    ) -> Callable[[Tuple[Any, ...]], bool]:
        """A row -> bool predicate, compiled against the table layout if possible."""
        fn = self._compiled(where, columns)
        if fn is not None:
            self.stats.compiled_evals += n_rows
            return lambda row: fn(row) is True
        scope_relation = Relation(columns, ())
        evaluator = self._bare_evaluator()
        return lambda row: (
            evaluator.evaluate(where, RowScope(scope_relation, row, None)) is True
        )

    # -- internals ------------------------------------------------------------------------

    def _parse_query(self, query: QueryLike) -> Query:
        if isinstance(query, str):
            with self.caches.lock:
                cached = self._ast_cache.get(query)
            if cached is None:
                cached = parse_query(query)
                with self.caches.lock:
                    self._ast_cache[query] = cached
            if not isinstance(cached, (SelectQuery, UnionQuery)):
                raise SQLExecutionError("statement is not a query")
            return cached
        return query

    def _parse_statement(self, statement: Union[str, Statement]) -> Statement:
        if isinstance(statement, str):
            with self.caches.lock:
                cached = self._ast_cache.get(statement)
            if cached is None:
                cached = parse_statement(statement)
                with self.caches.lock:
                    self._ast_cache[statement] = cached
            return cached
        return statement

    def _make_planner(self) -> Planner:
        """The planner for the configured optimizer strategy."""
        if self.optimizer_config.strategy == "cost":
            from repro.sql.optimizer import CostBasedPlanner

            return CostBasedPlanner(
                self.catalog,
                optimize=self.optimize,
                auto_index=self.auto_index,
                config=self.optimizer_config,
            )
        return Planner(self.catalog, optimize=self.optimize, auto_index=self.auto_index)

    #: Plans kept per query: one per distinct stats fingerprint (size
    #: shape) seen recently; beyond this the oldest entry is evicted.
    MAX_PLANS_PER_QUERY = 4

    def _plan(self, query: Query) -> Operator:
        """The cached plan whose stats fingerprint is current, or a fresh one."""
        key = id(query)
        with self.caches.lock:
            entry = self._plan_cache.get(key)
            candidates = list(entry[1]) if entry is not None else []
        # Fingerprint validation resolves tables through this executor's
        # catalog; it runs outside the shared lock so a layered-catalog
        # walk never blocks other executors' cache hits.
        for fingerprint, plan in candidates:
            if self._fingerprint_current(fingerprint):
                return plan
        planner = self._make_planner()
        plan = planner.plan(query)
        fingerprint = getattr(planner, "stats_fingerprint", None) or None
        if fingerprint is not None:
            fingerprint = tuple(sorted(fingerprint.items()))
        with self.caches.lock:
            entry = self._plan_cache.get(key)
            plans = list(entry[1]) if entry is not None else []
            # Planning happened outside the lock: another thread may have
            # published this fingerprint already.  Replace its slot rather
            # than appending a duplicate that would crowd out (and FIFO-
            # evict) plans for genuinely different size shapes.
            for index, (existing_fingerprint, existing_plan) in enumerate(plans):
                if existing_fingerprint == fingerprint:
                    plans[index] = (fingerprint, plan)
                    self._drop_plan_locked(existing_plan)
                    break
            else:
                plans.append((fingerprint, plan))
            while len(plans) > self.MAX_PLANS_PER_QUERY:
                _, evicted = plans.pop(0)
                self._drop_plan_locked(evicted)
            self.caches.live_plans.add(id(plan))
            self._plan_cache[key] = (query, plans)
        return plan

    def _drop_plan_locked(self, plan: Operator) -> None:
        """Forget a superseded plan's cache footprint (caller holds the lock)."""
        self.caches.live_plans.discard(id(plan))
        self.caches.read_sets.pop(id(plan), None)

    def _fingerprint_current(self, fingerprint: Optional[Tuple]) -> bool:
        """True while every table a cached plan depends on keeps its size class.

        The size class is a pure function of the row count
        (:func:`~repro.relational.statistics.size_class`), so validation is
        O(1) per table and never forces the statistics rebuild that
        whole-table replacement defers.  A name that no longer resolves
        (layered Hilda catalogs differ per instance context) counts as
        current: name-based plan sharing across contexts is the established
        contract, and re-planning there would thrash the cache.
        """
        if not fingerprint:
            return True
        for table_name, recorded_class in fingerprint:
            try:
                table = self.catalog.resolve_table(table_name)
            except UnknownTableError:
                continue
            if stats_size_class(len(table)) != recorded_class:
                return False
        return True

    def _compiled(
        self, expression: Expression, columns: Tuple[ColumnInfo, ...]
    ) -> Optional[Callable]:
        if not self.compile_expressions:
            return None
        return cached_compile(self._compile_cache, expression, columns, self.functions)

    def _context(self, overlay: Optional[Dict[str, Any]] = None) -> ExecutionContext:
        if overlay:
            catalog: Catalog = _OverlayCatalog(self.catalog, overlay)

            def subquery_executor(
                query: Query, outer_scope: Optional[RowScope], _overlay=overlay
            ) -> Relation:
                # Subqueries of a scatter-gathered query read the same
                # merged tables as the enclosing plan.
                return self._plan(query).execute(self._context(_overlay), outer_scope)

        else:
            catalog = self.catalog
            subquery_executor = self._execute_subquery
        return ExecutionContext(
            catalog=catalog,
            functions=self.functions,
            subquery_executor=subquery_executor,
            stats=self.stats,
            compile_cache=self._compile_cache,
            compile_expressions=self.compile_expressions,
        )

    def _execute_subquery(self, query: Query, outer_scope: Optional[RowScope]) -> Relation:
        plan = self._plan(query)
        context = self._context()
        return plan.execute(context, outer_scope)

    def _bare_evaluator(self) -> Evaluator:
        return Evaluator(self.functions, self._execute_subquery, stats=self.stats)

    def reset_stats(self) -> ExecutionStats:
        """Replace and return the statistics accumulator (benchmark helper)."""
        previous = self.stats
        self.stats = ExecutionStats()
        return previous


class _OverlayCatalog(Catalog):
    """A catalog whose named tables are shadowed by scatter-gathered merges.

    Physical plans resolve base tables *by name at execution time*, so
    swapping the catalog under an already-planned query is all it takes to
    run it over merged cross-shard contents (docs/cluster.md).
    """

    __slots__ = ("_base", "_overlay")

    def __init__(self, base: Catalog, overlay: Dict[str, Any]) -> None:
        self._base = base
        self._overlay = overlay

    def resolve_table(self, name: str):
        table = self._overlay.get(name)
        if table is not None:
            return table
        return self._base.resolve_table(name)

    def table_names(self) -> List[str]:
        names = list(self._base.table_names())
        names.extend(name for name in self._overlay if name not in names)
        return names


def _instrument_plan(plan: Operator, actuals: Dict[int, Tuple[int, int]]) -> None:
    """Shadow each operator's ``execute`` to record (loops, total rows).

    Only ever applied to a plan private to one EXPLAIN ANALYZE call: the
    shadowing instance attribute would leak counts (and a dead dict) if the
    plan were shared.
    """
    original = plan.execute

    def recording_execute(context, outer_scope, _original=original, _node=plan):
        relation = _original(context, outer_scope)
        loops, total_rows = actuals.get(id(_node), (0, 0))
        actuals[id(_node)] = (loops + 1, total_rows + len(relation.rows))
        return relation

    plan.execute = recording_execute  # type: ignore[method-assign]
    for child in plan.children():
        _instrument_plan(child, actuals)


def _collect_estimates(plan: Operator, actuals: Dict[int, Tuple[int, int]]):
    """Yield (operator, actual) pairs for operators carrying an estimate."""
    if plan.estimated_rows is not None and id(plan) in actuals:
        yield plan, actuals[id(plan)]
    for child in plan.children():
        yield from _collect_estimates(child, actuals)


def _table_columns(table, binding: str) -> Tuple[ColumnInfo, ...]:
    """The column layout of a base table under a binding name."""
    return tuple(
        ColumnInfo(name=name, qualifier=binding) for name in table.schema.column_names
    )
