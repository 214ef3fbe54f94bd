"""Execution counters shared by the evaluator, operators and executor.

:class:`ExecutionStats` lives in its own module so the evaluator (which
counts per-node interpreter dispatches) does not have to import the operator
module that imports it.  ``repro.sql.operators`` re-exports the class, so
existing imports keep working.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

__all__ = ["ExecutionStats", "CacheStats", "EstimationStats", "MaintenanceStats"]


@dataclass
class ExecutionStats:
    """Counters collected while executing a query (used by benchmarks).

    ``interpreted_evals`` counts AST-node dispatches through the tree-walking
    :class:`~repro.sql.evaluator.Evaluator`; ``compiled_evals`` counts row
    evaluations served by compiled closures instead.  ``index_lookups`` /
    ``index_hits`` count secondary-index probes and the rows they returned.

    The ``estimation_*`` counters are filled by ``EXPLAIN ANALYZE``
    (:meth:`~repro.sql.executor.SQLExecutor.explain` with ``analyze=True``):
    every operator carrying a cost-based row estimate is compared against
    the rows it actually produced, and counts as an under- or over-estimate
    when its q-error (the larger of actual/estimated and estimated/actual)
    exceeds 2.
    """

    rows_scanned: int = 0
    rows_joined: int = 0
    join_probes: int = 0
    operators_executed: int = 0
    compiled_evals: int = 0
    interpreted_evals: int = 0
    index_lookups: int = 0
    index_hits: int = 0
    #: Operators whose estimates EXPLAIN ANALYZE checked against actual rows.
    estimation_checks: int = 0
    #: Of those, how many under-/over-estimated by more than a q-error of 2.
    estimation_underestimates: int = 0
    estimation_overestimates: int = 0
    #: Incremental view maintenance (docs/caching.md § Incremental
    #: maintenance): cached activation results patched in place by a delta
    #: program, version misses that bailed out to full recomputation, and
    #: the source delta rows propagated through delta programs.
    maintenance_patches: int = 0
    maintenance_bailouts: int = 0
    maintenance_delta_rows: int = 0

    def merge(self, other: "ExecutionStats") -> None:
        self.rows_scanned += other.rows_scanned
        self.rows_joined += other.rows_joined
        self.join_probes += other.join_probes
        self.operators_executed += other.operators_executed
        self.compiled_evals += other.compiled_evals
        self.interpreted_evals += other.interpreted_evals
        self.index_lookups += other.index_lookups
        self.index_hits += other.index_hits
        self.estimation_checks += other.estimation_checks
        self.estimation_underestimates += other.estimation_underestimates
        self.estimation_overestimates += other.estimation_overestimates
        self.maintenance_patches += other.maintenance_patches
        self.maintenance_bailouts += other.maintenance_bailouts
        self.maintenance_delta_rows += other.maintenance_delta_rows

    def record_estimation(self, estimated: float, actual: float) -> None:
        """Record one estimate-vs-actual comparison (EXPLAIN ANALYZE)."""
        self.estimation_checks += 1
        q_error_floor = 1.0  # +1 smoothing keeps empty results comparable
        under = (actual + q_error_floor) / (estimated + q_error_floor)
        over = (estimated + q_error_floor) / (actual + q_error_floor)
        if under > 2.0:
            self.estimation_underestimates += 1
        elif over > 2.0:
            self.estimation_overestimates += 1

    def as_dict(self) -> dict:
        """A plain-dict view (benchmark JSON artifacts)."""
        return asdict(self)


@dataclass
class EstimationStats:
    """Engine-scoped estimate-vs-actual totals (docs/optimizer.md).

    Replaces the old process-global counter dict: each engine accumulates
    its own totals on its :class:`~repro.sql.executor.SQLCaches` (executors
    are short-lived per Hilda context, so per-executor
    :class:`ExecutionStats` counters vanish with them), forked cluster
    workers count independently, and :meth:`reset` is the explicit hook
    benchmarks use between phases.  ``checks`` counts every
    estimate-vs-actual comparison made by EXPLAIN ANALYZE;
    ``underestimates`` / ``overestimates`` count the comparisons off by
    more than a q-error of 2 (mutation is plain int arithmetic under the
    GIL, matching the other informational counters).
    """

    checks: int = 0
    underestimates: int = 0
    overestimates: int = 0

    def add(self, checks: int, underestimates: int, overestimates: int) -> None:
        """Accumulate one instrumented execution's estimation counters."""
        self.checks += checks
        self.underestimates += underestimates
        self.overestimates += overestimates

    def reset(self) -> None:
        self.checks = 0
        self.underestimates = 0
        self.overestimates = 0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class MaintenanceStats:
    """Engine-wide incremental-maintenance counters (docs/caching.md).

    ``patched`` counts activation-cache entries repaired in place by a delta
    program on a version miss; ``bailouts`` counts the misses where the
    delta path gave up (uncovered deltas, unsupported shape, cost bound)
    and fell back to full recomputation; ``delta_rows`` is the total number
    of source delta rows propagated through delta programs;
    ``results_unchanged`` counts reactivations that adopted a subtree
    because its *results* were proven unchanged even though its input
    tables' versions moved.
    """

    patched: int = 0
    bailouts: int = 0
    delta_rows: int = 0
    results_unchanged: int = 0

    def reset(self) -> None:
        self.patched = 0
        self.bailouts = 0
        self.delta_rows = 0
        self.results_unchanged = 0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class CacheStats:
    """Hit/miss/evict counters for one cache (observability of invalidation).

    ``invalidations`` counts the misses caused by a *stale* entry (the key
    was present but its dependency versions no longer matched), as opposed to
    plain misses on absent keys; ``evictions`` counts entries dropped by the
    LRU bound.  Used by the engine's activation-query cache and the
    renderer's fragment cache (see ``docs/caching.md``).
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup (0.0 on an untouched cache)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def as_dict(self) -> dict:
        data = asdict(self)
        data["hit_rate"] = self.hit_rate
        return data
