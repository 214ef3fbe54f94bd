"""The staged, statistics-driven SQL query optimizer (``docs/optimizer.md``).

Four explicit, separable stages replace the former single-file planner:

1. **Statistics** (:mod:`repro.relational.statistics`) — every table
   incrementally maintains row counts, per-column distinct counts and
   min/max under its own lock, snapshotted as ``TableStatistics``.
2. **Cardinality & cost** (:mod:`~repro.sql.optimizer.cardinality`,
   :mod:`~repro.sql.optimizer.cost`) — selectivity and row estimates over
   those statistics, and the abstract cost formulas ranking plans.
3. **Join ordering** (:mod:`~repro.sql.optimizer.joins`) — dynamic
   programming over small FROM lists, greedy ordering above the threshold.
4. **Physical operator selection** (:mod:`~repro.sql.optimizer.physical`)
   — chainable PostBOUND-style assignment of scan/index-scan and
   hash/index-nested-loop/nested-loop operators.

:class:`CostBasedPlanner` ties the stages together and is the default
planning strategy (``OptimizerConfig(strategy="cost")``); the legacy
syntactic-order planner remains available as ``strategy="heuristic"``.
"""

from repro.sql.optimizer.cardinality import CardinalityEstimator
from repro.sql.optimizer.cost import CostModel
from repro.sql.optimizer.joins import BaseRelation, JoinOrderEnumerator, JoinTree
from repro.sql.optimizer.physical import (
    CostBasedOperatorSelection,
    ForcedJoinMethodSelection,
    OperatorAssignment,
    PhysicalOperatorSelection,
    SelectionContext,
)
from repro.sql.optimizer.planner import CostBasedPlanner

__all__ = [
    "BaseRelation",
    "CardinalityEstimator",
    "CostBasedOperatorSelection",
    "CostBasedPlanner",
    "CostModel",
    "ForcedJoinMethodSelection",
    "JoinOrderEnumerator",
    "JoinTree",
    "OperatorAssignment",
    "PhysicalOperatorSelection",
    "SelectionContext",
]
