"""The cost-based planner: orchestrates the staged optimizer pipeline.

:class:`CostBasedPlanner` subclasses the heuristic
:class:`~repro.sql.planner.Planner` and overrides exactly one hook —
:meth:`~repro.sql.planner.Planner._optimize_access_paths` — so every other
planning concern (aggregates, ordering, implicit tables, derived tables,
explicit ``JOIN ... ON`` shapes) is shared between the two strategies.

For the comma-join shape (a cross chain of FROM leaves, which is how Hilda
programs and the paper's activation queries express multi-table joins) the
hook runs the four stages of ``docs/optimizer.md``:

1. **statistics** — each base table's incrementally maintained
   :class:`~repro.relational.statistics.TableStatistics`;
2. **cardinality & cost** — selectivity of pushed-down predicates, join
   selectivities, per-operator cost formulas;
3. **join ordering** — DP/greedy enumeration over the join graph;
4. **physical operator selection** — chainable PostBOUND-style assignment
   of scan/index-scan and hash/index-NL/nested-loop operators.

Single-relation predicates are pushed below the joins they precede
(conservatively: only fully qualified, subquery-free conjuncts move), and
each constructed operator is annotated with estimated rows and cumulative
cost, which EXPLAIN renders.

Queries whose shape the pipeline does not cover (explicit joins, single
relations) fall back to the heuristic rewrites, so the cost-based planner
is a strict superset of the heuristic one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple, Union

from repro.config import OptimizerConfig
from repro.errors import UnknownTableError
from repro.sql.ast import ColumnRef, Expression, SelectQuery, Star
from repro.sql.operators import (
    FilterOp,
    HashJoinOp,
    IndexNestedLoopJoinOp,
    IndexScanOp,
    NestedLoopJoinOp,
    Operator,
    ScanOp,
    SubqueryScanOp,
    ValuesOp,
)
from repro.sql.optimizer.cardinality import CardinalityEstimator
from repro.sql.optimizer.cost import CostModel
from repro.sql.optimizer.joins import BaseRelation, JoinOrderEnumerator, JoinTree
from repro.sql.optimizer.physical import (
    CostBasedOperatorSelection,
    PhysicalOperatorSelection,
    SelectionContext,
)
from repro.sql.planner import (
    Planner,
    _combine_conjuncts,
    _expression_subquery,
    _find_equi_keys,
    _flatten_cross_chain,
    _operator_binding_names,
)

__all__ = ["CostBasedPlanner"]


class CostBasedPlanner(Planner):
    """Statistics-driven planner; see the module docstring.

    Parameters mirror :class:`~repro.sql.planner.Planner`, plus the
    :class:`~repro.config.OptimizerConfig` (DP threshold) and an optional
    :class:`~repro.sql.optimizer.PhysicalOperatorSelection` chain replacing
    the default cost-based one (``docs/optimizer.md`` § "Plugging in a
    custom physical selection").

    After :meth:`plan` returns, :attr:`stats_fingerprint` holds the
    ``table name -> size class`` pairs the plan's decisions depend on; the
    executor stores it next to the cached plan and re-plans when any
    table's size class has moved (see ``SQLCaches``).
    """

    def __init__(
        self,
        catalog,
        optimize: bool = True,
        auto_index: bool = False,
        config: Optional[OptimizerConfig] = None,
        physical_selection: Optional[PhysicalOperatorSelection] = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        super().__init__(catalog, optimize=optimize, auto_index=auto_index)
        self.optimizer_config = config if config is not None else OptimizerConfig()
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.estimator = CardinalityEstimator(catalog)
        self.physical_selection = (
            physical_selection
            if physical_selection is not None
            else CostBasedOperatorSelection()
        )
        #: table name -> size class consulted while planning (plan-cache key).
        self.stats_fingerprint: Dict[str, int] = {}
        #: id(BaseRelation) -> (IndexScanOp, remaining pushed, matched rows).
        self._leaf_index_plans: Dict[int, Tuple[Operator, List[Expression], float]] = {}
        #: True while inside a plan() call (it re-enters itself for FROM
        #: subqueries and UNION branches; only the outermost entry resets
        #: the fingerprint, so a reused planner starts each plan fresh).
        self._planning = False

    # -- entry point ----------------------------------------------------------

    def plan(self, query) -> Operator:
        outermost = not self._planning
        if outermost:
            self._planning = True
            self.stats_fingerprint = {}
            # Fresh statistics snapshots per plan: a reused planner must
            # see current table sizes, not the ones cached last time.
            self.estimator = CardinalityEstimator(self.catalog)
        try:
            plan = super().plan(query)
        finally:
            if outermost:
                self._planning = False
        self._propagate_estimates(plan)
        return plan

    # -- the staged pipeline ---------------------------------------------------

    def _optimize_access_paths(
        self,
        plan: Operator,
        conjuncts: List[Expression],
        bound_names: Set[str],
        query: SelectQuery,
    ) -> Tuple[Operator, List[Expression]]:
        chain = _flatten_cross_chain(plan)
        if chain is None or len(chain) < 2:
            # Not the comma-join shape (single relation, explicit JOIN ... ON):
            # the heuristic rewrites already handle it optimally enough.
            return super()._optimize_access_paths(plan, conjuncts, bound_names, query)
        if any(isinstance(item, Star) and item.qualifier is None for item in query.items):
            # SELECT * materializes columns in join order; reordering the
            # joins would permute the output, so an unqualified star pins
            # the syntactic (heuristic) plan.  Qualified stars (``S.*``)
            # expand per binding and are safe to reorder under.
            return super()._optimize_access_paths(plan, conjuncts, bound_names, query)

        # Stage 1+2: build the join graph with statistics and estimates.
        # The leaf-index memo is keyed by object identity, so it must not
        # survive into a later invocation where a recycled id could alias.
        self._leaf_index_plans.clear()
        relations = [
            self._base_relation(position, leaf) for position, leaf in enumerate(chain)
        ]
        residual: List[Expression] = []
        join_conjuncts: List[Expression] = []
        for conjunct in conjuncts:
            target = self._pushdown_target(conjunct, relations)
            if target is _RESIDUAL:
                residual.append(conjunct)
            elif target is _JOIN:
                join_conjuncts.append(conjunct)
            else:
                target.pushed.append(conjunct)
        for relation in relations:
            self._estimate_leaf(relation)
        stats_by_qualifier = {
            name: relation.statistics
            for relation in relations
            for name in relation.names
        }

        # Stage 3: join-order enumeration.
        enumerator = JoinOrderEnumerator(
            estimator=self.estimator,
            cost_model=self.cost_model,
            dp_threshold=self.optimizer_config.dp_threshold,
            index_joinable=self._index_join_admissible,
            find_equi_keys=_find_equi_keys,
        )
        tree, leftover = enumerator.order(relations, join_conjuncts, stats_by_qualifier)

        # Stage 4: physical operator selection (chainable) and plan build.
        context = SelectionContext(
            cost_model=self.cost_model,
            index_joinable=self._index_join_admissible,
            index_scannable=lambda rel: id(rel) in self._leaf_index_plans,
        )
        assignment = self.physical_selection.select_operators(tree, context)
        built = self._build_tree(tree, assignment)
        return built, leftover + residual

    # -- stage 1: the join graph ------------------------------------------------

    def _base_relation(self, position: int, leaf: Operator) -> BaseRelation:
        names = frozenset(_operator_binding_names(leaf))
        table_name = leaf.table_name if isinstance(leaf, ScanOp) else None
        statistics = self.estimator.table_statistics(table_name)
        if statistics is not None and table_name is not None:
            self.stats_fingerprint[table_name] = statistics.size_class
        return BaseRelation(
            position=position,
            operator=leaf,
            names=names,
            table_name=table_name,
            statistics=statistics,
        )

    def _pushdown_target(self, conjunct: Expression, relations: List[BaseRelation]):
        """Where a WHERE conjunct may run: one relation, the joins, or on top.

        Pushdown is conservative: a conjunct moves below the joins only
        when every column reference is qualified and all qualifiers bind a
        single relation, and it contains no subquery (whose table
        references :meth:`Expression.walk` does not expose).
        """
        qualifiers: Set[str] = set()
        for node in conjunct.walk():
            if _expression_subquery(node) is not None:
                return _RESIDUAL
            if isinstance(node, ColumnRef):
                if node.qualifier is None or node.is_positional:
                    return _RESIDUAL
                qualifiers.add(node.qualifier)
        if not qualifiers:
            return _RESIDUAL
        owners = [
            relation for relation in relations if qualifiers & set(relation.names)
        ]
        if len(owners) == 1 and qualifiers <= set(owners[0].names):
            return owners[0]
        covered = set()
        for owner in owners:
            covered |= set(owner.names)
        if len(owners) >= 2 and qualifiers <= covered:
            return _JOIN
        return _RESIDUAL  # references an enclosing scope or unknown names

    # -- stage 2: leaf estimates -------------------------------------------------

    def _estimate_leaf(self, relation: BaseRelation) -> None:
        leaf = relation.operator
        if isinstance(leaf, ScanOp):
            base_rows = (
                float(relation.statistics.row_count)
                if relation.statistics is not None
                else self.estimator.DEFAULT_ROWS
            )
        elif isinstance(leaf, ValuesOp):
            base_rows = float(len(leaf.rows))
        elif isinstance(leaf, SubqueryScanOp) and leaf.plan.estimated_rows is not None:
            base_rows = float(leaf.plan.estimated_rows)
        else:
            base_rows = self.estimator.DEFAULT_ROWS
        relation.est_base_rows = base_rows

        selectivity = self.estimator.conjunction_selectivity(
            relation.pushed, relation.statistics
        )
        relation.est_rows = base_rows * selectivity
        scan_cost = self.cost_model.scan(base_rows)
        if relation.pushed:
            scan_cost += self.cost_model.filter(base_rows, len(relation.pushed))
        relation.est_cost = scan_cost

        # An index scan may answer some pushed equality conjuncts directly.
        if isinstance(leaf, ScanOp) and relation.pushed:
            index_op, remaining = self._try_index_scan(
                leaf, relation.pushed, allow_unqualified=False
            )
            if index_op is not None:
                consumed = len(relation.pushed) - len(remaining)
                matched = base_rows * self._consumed_selectivity(relation, remaining)
                index_cost = self.cost_model.index_scan(matched)
                if remaining:
                    index_cost += self.cost_model.filter(matched, len(remaining))
                self._leaf_index_plans[id(relation)] = (index_op, remaining, matched)
                if consumed and index_cost < relation.est_cost:
                    relation.est_cost = index_cost

    def _consumed_selectivity(
        self, relation: BaseRelation, remaining: List[Expression]
    ) -> float:
        """Selectivity of the pushed conjuncts an index scan consumed."""
        remaining_ids = {id(conjunct) for conjunct in remaining}
        consumed = [
            conjunct
            for conjunct in relation.pushed
            if id(conjunct) not in remaining_ids
        ]
        return self.estimator.conjunction_selectivity(consumed, relation.statistics)

    # -- index-join admission (shared with stages 3 and 4) ------------------------

    def _index_join_admissible(self, relation: BaseRelation, right_keys) -> bool:
        """May an index-nested-loop join probe ``relation`` on these keys?

        Mirrors :meth:`Planner._try_index_join`'s checks without building
        the operator: the relation must be a bare base-table scan and every
        key a plain column of it, with an existing index or ``auto_index``.
        """
        if not isinstance(relation.operator, ScanOp) or self.catalog is None:
            return False
        try:
            table = self.catalog.resolve_table(relation.operator.table_name)
        except UnknownTableError:
            return False
        columns: List[str] = []
        for expr in right_keys:
            if (
                not isinstance(expr, ColumnRef)
                or expr.is_positional
                or expr.qualifier not in relation.names
                or not table.schema.has_column(expr.name)
            ):
                return False
            columns.append(expr.name)
        if len(set(columns)) != len(columns):
            return False
        return table.has_index(tuple(sorted(columns, key=table.schema.column_position))) or (
            self.auto_index
        )

    # -- plan construction --------------------------------------------------------

    def _build_tree(self, node, assignment) -> Operator:
        if isinstance(node, BaseRelation):
            return self._build_leaf(node, assignment)
        left_op = self._build_tree(node.left, assignment)
        method = assignment.join_method(node) or node.method
        has_keys = bool(node.left_keys)

        if method == "index_nl" and has_keys and not node.right.pushed:
            index_join = self._try_index_join(
                left_op,
                node.right.operator,
                node.left_keys,
                node.right_keys,
                residual=None,
            )
            if index_join is not None:
                return self._annotate(index_join, node.est_rows, node.est_cost)
            method = "hash"  # repair an inadmissible assignment
        elif method == "index_nl":
            method = "hash"

        right_op = self._build_leaf(node.right, assignment)
        if has_keys and method == "hash":
            joined: Operator = HashJoinOp(
                left_op,
                right_op,
                left_keys=node.left_keys,
                right_keys=node.right_keys,
                join_type="INNER",
            )
        elif has_keys:
            # nested_loop (or a repaired "cross" that must still apply its
            # consumed conjuncts): evaluate the keys as a join condition.
            joined = NestedLoopJoinOp(
                left_op,
                right_op,
                join_type="INNER",
                condition=_combine_conjuncts(list(node.conjuncts)),
            )
        else:
            joined = NestedLoopJoinOp(left_op, right_op, join_type="CROSS")
        return self._annotate(joined, node.est_rows, node.est_cost)

    def _build_leaf(self, relation: BaseRelation, assignment) -> Operator:
        method = assignment.scan_method(relation) or "scan"
        index_plan = self._leaf_index_plans.get(id(relation))
        if method == "index_scan" and index_plan is not None:
            index_op, remaining, matched = index_plan
            op = self._annotate(index_op, matched, self.cost_model.index_scan(matched))
            if remaining:
                op = FilterOp(op, _combine_conjuncts(remaining))
                op = self._annotate(op, relation.est_rows, relation.est_cost)
            return op
        op = self._annotate(
            relation.operator,
            relation.est_base_rows,
            self.cost_model.scan(relation.est_base_rows),
        )
        if relation.pushed:
            op = FilterOp(op, _combine_conjuncts(relation.pushed))
            op = self._annotate(op, relation.est_rows, relation.est_cost)
        return op

    @staticmethod
    def _annotate(op: Operator, rows: float, cost: float) -> Operator:
        op.estimated_rows = rows
        op.estimated_cost = cost
        return op

    # -- estimate propagation ------------------------------------------------------

    def _propagate_estimates(self, plan: Operator) -> None:
        """Fill in estimates for operators above (or outside) the join tree.

        The staged pipeline annotates what it builds; the surrounding
        structure (projection, sort, aggregation, the residual filter) and
        heuristic-fallback shapes get rough estimates here so EXPLAIN reads
        uniformly under the cost strategy.
        """
        for child in plan.children():
            self._propagate_estimates(child)
        if plan.estimated_rows is not None:
            return
        child_rows = [
            child.estimated_rows
            for child in plan.children()
            if child.estimated_rows is not None
        ]
        child_cost = sum(
            child.estimated_cost or 0.0
            for child in plan.children()
            if child.estimated_rows is not None
        )
        rows: Optional[float] = None
        if isinstance(plan, ScanOp):
            rows = self.estimator.base_rows(plan.table_name)
            child_cost = self.cost_model.scan(rows)
        elif isinstance(plan, IndexScanOp):
            stats = self.estimator.table_statistics(plan.table_name)
            base = float(stats.row_count) if stats is not None else self.estimator.DEFAULT_ROWS
            rows = base * (self.estimator.DEFAULT_EQUALITY ** len(plan.key_columns))
            child_cost = self.cost_model.index_scan(rows)
        elif isinstance(plan, ValuesOp):
            rows = float(len(plan.rows))
        elif len(child_rows) != len(plan.children()) or not child_rows:
            return  # some child has no estimate: leave this subtree blank
        elif isinstance(plan, FilterOp):
            rows = child_rows[0] * self.estimator.DEFAULT
        elif isinstance(plan, IndexNestedLoopJoinOp):
            right = self.estimator.base_rows(plan.table_name)
            rows = child_rows[0] * right * self.estimator.DEFAULT_JOIN
        elif isinstance(plan, HashJoinOp):
            rows = child_rows[0] * child_rows[1] * self.estimator.DEFAULT_JOIN
        elif isinstance(plan, NestedLoopJoinOp):
            pairs = child_rows[0] * child_rows[1]
            if plan.join_type == "CROSS":
                rows = pairs
            else:
                rows = pairs * self.estimator.DEFAULT_JOIN
                if plan.join_type == "LEFT":
                    rows = max(rows, child_rows[0])
        else:
            rows = self._structural_estimate(plan, child_rows)
        if rows is None:
            return
        self._annotate(plan, rows, child_cost + rows * self.cost_model.OUTPUT_ROW)

    def _structural_estimate(
        self, plan: Operator, child_rows: List[float]
    ) -> Optional[float]:
        from repro.sql.operators import (
            AggregateOp,
            DistinctOp,
            LimitOp,
            ProjectOp,
            SortOp,
            UnionOp,
        )

        if isinstance(plan, (ProjectOp, SortOp, DistinctOp, SubqueryScanOp)):
            return child_rows[0]
        if isinstance(plan, LimitOp):
            return min(float(plan.limit), child_rows[0])
        if isinstance(plan, AggregateOp):
            if plan.group_by:
                return max(1.0, child_rows[0] * 0.1)
            return 1.0
        if isinstance(plan, UnionOp):
            return sum(child_rows)
        return None


#: Sentinels for conjunct classification.
_RESIDUAL = object()
_JOIN = object()
