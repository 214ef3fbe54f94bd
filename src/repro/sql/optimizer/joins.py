"""Join-order enumeration: stage 3 of the optimizer pipeline.

Works over a *join graph*: one :class:`BaseRelation` per FROM-list leaf
(with its pushed-down single-relation predicates and estimated rows) and
the WHERE equality conjuncts as edges.  Produces a left-deep
:class:`JoinTree` minimizing estimated cost:

* **Dynamic programming** over relation subsets for FROM lists up to
  ``dp_threshold`` relations (the classic System-R left-deep enumeration,
  exact within the cost model);
* a **greedy** ordering above the threshold (start from the cheapest
  relation, repeatedly attach the candidate with the cheapest join step).

Both explore every join method the cost model admits at each step
(hash / index-nested-loop / nested-loop / cross), so the order search and
the operator choice see the same costs; the physical operator selection
(stage 4) re-derives or overrides the per-node choice afterwards.

Ties are broken toward the syntactic FROM order, so equal-cost plans come
out exactly as the heuristic planner would build them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.relational.statistics import TableStatistics
from repro.sql.ast import Expression
from repro.sql.operators import Operator

__all__ = ["BaseRelation", "JoinTree", "JoinOrderEnumerator"]


@dataclass
class BaseRelation:
    """One leaf of the join graph (a FROM-list item plus pushed predicates)."""

    #: Syntactic position in the FROM list (tie-breaking, diagnostics).
    position: int
    #: The planned leaf operator (ScanOp / SubqueryScanOp / ValuesOp).
    operator: Operator
    #: Every name that binds this relation (alias and/or table name).
    names: FrozenSet[str]
    #: The base-table name, when the leaf is a plain scan (else None).
    table_name: Optional[str]
    #: Statistics of the base table (None for derived tables / no stats).
    statistics: Optional[TableStatistics]
    #: Single-relation WHERE conjuncts pushed down onto this leaf.
    pushed: List[Expression] = field(default_factory=list)
    #: Estimated rows before / after the pushed predicates.
    est_base_rows: float = 0.0
    est_rows: float = 0.0
    #: Estimated cost of materializing this leaf (scan or index scan + filter).
    est_cost: float = 0.0


@dataclass
class JoinTree:
    """A left-deep join node: an inner tree joined with one base relation.

    ``method`` is the join method the enumerator found cheapest — the
    *initial* physical assignment in PostBOUND's sense, which the physical
    operator selection stage may confirm or override.
    """

    left: Union["JoinTree", BaseRelation]
    right: BaseRelation
    #: Equi-join key expressions (empty for cross joins).
    left_keys: Tuple[Expression, ...] = ()
    right_keys: Tuple[Expression, ...] = ()
    #: The WHERE conjuncts consumed by this join's keys.
    conjuncts: Tuple[Expression, ...] = ()
    method: str = "hash"  # hash | index_nl | nested_loop | cross
    est_rows: float = 0.0
    est_cost: float = 0.0

    def leaf_order(self) -> Tuple[int, ...]:
        """The syntactic positions of the leaves, left to right."""
        left = (
            self.left.leaf_order()
            if isinstance(self.left, JoinTree)
            else (self.left.position,)
        )
        return left + (self.right.position,)


@dataclass
class _State:
    """Best plan found for one subset of relations."""

    tree: Union[JoinTree, BaseRelation]
    names: FrozenSet[str]
    rows: float
    cost: float
    used: FrozenSet[int]  # ids of consumed conjuncts
    order: Tuple[int, ...]


class JoinOrderEnumerator:
    """Searches join orders; see the module docstring.

    ``index_joinable(relation, right_keys)`` reports whether an
    index-nested-loop join may probe ``relation`` on ``right_keys`` (the
    planner supplies the catalog/auto-index admission rules), letting the
    enumerator price that method only where stage 4 could actually build it.
    """

    def __init__(
        self,
        estimator,
        cost_model,
        dp_threshold: int,
        index_joinable: Callable[[BaseRelation, Sequence[Expression]], bool],
        find_equi_keys: Callable,
    ) -> None:
        self.estimator = estimator
        self.cost_model = cost_model
        self.dp_threshold = dp_threshold
        self.index_joinable = index_joinable
        self.find_equi_keys = find_equi_keys

    # -- entry point ----------------------------------------------------------

    def order(
        self,
        relations: Sequence[BaseRelation],
        join_conjuncts: List[Expression],
        stats_by_qualifier: Dict[str, Optional[TableStatistics]],
    ) -> Tuple[Union[JoinTree, BaseRelation], List[Expression]]:
        """The cheapest left-deep join tree and the conjuncts it left over."""
        self._stats_by_qualifier = stats_by_qualifier
        if len(relations) == 1:
            return relations[0], list(join_conjuncts)
        if len(relations) <= self.dp_threshold:
            final = self._dynamic_programming(relations, join_conjuncts)
        else:
            final = self._greedy(relations, join_conjuncts)
        remaining = [
            conjunct for conjunct in join_conjuncts if id(conjunct) not in final.used
        ]
        return final.tree, remaining

    # -- the two search strategies -------------------------------------------

    def _dynamic_programming(
        self, relations: Sequence[BaseRelation], conjuncts: List[Expression]
    ) -> _State:
        best: Dict[FrozenSet[int], _State] = {
            frozenset({relation.position}): self._leaf_state(relation)
            for relation in relations
        }
        by_position = {relation.position: relation for relation in relations}
        positions = frozenset(by_position)
        for size in range(2, len(relations) + 1):
            layer: Dict[FrozenSet[int], _State] = {}
            for subset, state in best.items():
                if len(subset) != size - 1:
                    continue
                for position in positions - subset:
                    candidate = by_position[position]
                    new_state = self._extend(state, candidate, conjuncts)
                    key = subset | {position}
                    incumbent = layer.get(key)
                    if incumbent is None or self._better(new_state, incumbent):
                        layer[key] = new_state
            best.update(layer)
        return best[positions]

    def _greedy(
        self, relations: Sequence[BaseRelation], conjuncts: List[Expression]
    ) -> _State:
        remaining = list(relations)
        # Start from the relation with the fewest estimated rows (syntactic
        # position breaks ties), the standard greedy seed.
        start = min(remaining, key=lambda rel: (rel.est_rows, rel.position))
        remaining.remove(start)
        state = self._leaf_state(start)
        while remaining:
            scored = [
                (self._extend(state, candidate, conjuncts), candidate)
                for candidate in remaining
            ]
            next_state, chosen = min(
                scored, key=lambda pair: (pair[0].cost, pair[1].position)
            )
            state = next_state
            remaining.remove(chosen)
        return state

    # -- state transitions ----------------------------------------------------

    def _leaf_state(self, relation: BaseRelation) -> _State:
        return _State(
            tree=relation,
            names=relation.names,
            rows=relation.est_rows,
            cost=relation.est_cost,
            used=frozenset(),
            order=(relation.position,),
        )

    def _extend(
        self, state: _State, candidate: BaseRelation, conjuncts: List[Expression]
    ) -> _State:
        available = [
            conjunct for conjunct in conjuncts if id(conjunct) not in state.used
        ]
        keys = self.find_equi_keys(available, state.names, candidate.names)
        if keys is None:
            left_keys: Tuple[Expression, ...] = ()
            right_keys: Tuple[Expression, ...] = ()
            used_conjuncts: Tuple[Expression, ...] = ()
        else:
            left_list, right_list, used_list = keys
            left_keys = tuple(left_list)
            right_keys = tuple(right_list)
            used_conjuncts = tuple(used_list)

        output_rows = self.estimator.join_rows(
            left_rows=state.rows,
            candidate=candidate,
            left_keys=left_keys,
            right_keys=right_keys,
            stats_by_qualifier=self._stats_by_qualifier,
        )

        index_ok = (
            bool(right_keys)
            and not candidate.pushed
            and self.index_joinable(candidate, right_keys)
        )
        methods = self.cost_model.join_candidates(
            left_rows=state.rows,
            right_rows=candidate.est_rows,
            output_rows=output_rows,
            has_equi_keys=bool(right_keys),
            index_joinable=index_ok,
        )
        chosen = min(methods, key=lambda method: method.cost)
        step_cost = chosen.cost + (candidate.est_cost if chosen.materializes_right else 0.0)
        tree = JoinTree(
            left=state.tree,
            right=candidate,
            left_keys=left_keys,
            right_keys=right_keys,
            conjuncts=used_conjuncts,
            method=chosen.method,
            est_rows=output_rows,
            est_cost=state.cost + step_cost,
        )
        return _State(
            tree=tree,
            names=state.names | candidate.names,
            rows=output_rows,
            cost=state.cost + step_cost,
            used=state.used | {id(conjunct) for conjunct in used_conjuncts},
            order=state.order + (candidate.position,),
        )

    @staticmethod
    def _better(challenger: _State, incumbent: _State) -> bool:
        """Strictly cheaper, or equal cost and closer to syntactic order."""
        if challenger.cost < incumbent.cost - 1e-9:
            return True
        if challenger.cost > incumbent.cost + 1e-9:
            return False
        return challenger.order < incumbent.order
