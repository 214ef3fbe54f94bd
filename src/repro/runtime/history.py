"""Execution histories and the Section 5 correctness criterion.

Section 5 of the paper defines the semantics of concurrent Hilda execution
through *execution histories*: a sequence of (state, operation-set) pairs
with a partial order on operations.  A history is *correct* when there is a
sequential ordering of the requested operations such that each operation was
``allowable`` (its Basic AUnit instance still active) in the state it was
applied to, the ordering respects the partial order, and each state is the
result of applying the chosen operation to the previous state.

The runtime applies operations one at a time, so the history it produces is
correct by construction; the :class:`HistoryChecker` verifies that property
after the fact and is used by the property-based tests and by the
concurrency benchmarks to validate simulated interleavings.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Set

from repro.runtime.operations import ApplyResult, Operation, OperationStatus

__all__ = ["HistoryEntry", "ExecutionHistory", "HistoryChecker", "HISTORY_LIMIT"]

#: How many of the most recent entries an :class:`ExecutionHistory` keeps.
#: Each entry copies the active-instance set, so an unbounded log would grow
#: with operations x forest size on a long-running server.
HISTORY_LIMIT = 4096


@dataclass
class HistoryEntry:
    """One applied (or rejected) operation together with the observable state.

    ``active_ids_before`` is the set of active Basic AUnit instance IDs just
    before the operation was applied — the ``allowable`` relation of
    Definition 9 reduces to membership in this set.
    """

    operation: Operation
    status: str
    active_ids_before: Set[int]
    state_version_before: int
    state_version_after: int
    forest_size_after: int


class ExecutionHistory:
    """A log of the last :data:`HISTORY_LIMIT` operations applied by an engine.

    Older entries are evicted and counted in :attr:`dropped`.  Every check
    :class:`HistoryChecker` makes is per entry or between adjacent entries,
    so it stays sound on the retained suffix.
    """

    def __init__(self) -> None:
        self.entries: Deque[HistoryEntry] = deque(maxlen=HISTORY_LIMIT)
        #: Entries evicted from the front of :attr:`entries`.
        self.dropped = 0

    def record(
        self,
        operation: Operation,
        result: ApplyResult,
        active_ids_before: Set[int],
        state_version_before: int,
        state_version_after: int,
        forest_size_after: int,
    ) -> HistoryEntry:
        entry = HistoryEntry(
            operation=operation,
            status=result.status,
            active_ids_before=set(active_ids_before),
            state_version_before=state_version_before,
            state_version_after=state_version_after,
            forest_size_after=forest_size_after,
        )
        if len(self.entries) == self.entries.maxlen:
            self.dropped += 1
        self.entries.append(entry)
        return entry

    # -- views ---------------------------------------------------------------------

    def applied(self) -> List[HistoryEntry]:
        return [entry for entry in self.entries if entry.status == OperationStatus.APPLIED]

    def conflicts(self) -> List[HistoryEntry]:
        return [entry for entry in self.entries if entry.status == OperationStatus.CONFLICT]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


class HistoryChecker:
    """Checks an execution history against the Section 5 correctness criterion."""

    def __init__(self, history: ExecutionHistory) -> None:
        self.history = history
        self.violations: List[str] = []

    def check(self) -> bool:
        """True when the history satisfies the correctness criterion."""
        self.violations = []
        previous_version: Optional[int] = None
        for index, entry in enumerate(self.history.entries, start=self.history.dropped):
            operation = entry.operation

            # Allowability: an applied operation's instance must have been
            # active in the state it was applied to (Definition 9/11).
            if entry.status == OperationStatus.APPLIED:
                if operation.instance_id not in entry.active_ids_before:
                    self.violations.append(
                        f"entry {index}: operation {operation.operation_id} was applied "
                        f"but instance {operation.instance_id} was not active"
                    )
            elif entry.status == OperationStatus.CONFLICT:
                if operation.instance_id in entry.active_ids_before:
                    self.violations.append(
                        f"entry {index}: operation {operation.operation_id} was rejected "
                        f"as a conflict although instance {operation.instance_id} was active"
                    )

            # State monotonicity: operations are applied one at a time, so the
            # observable state versions must be non-decreasing (the analogue of
            # the ordering constraint on the sequence of states).
            if previous_version is not None and entry.state_version_before < previous_version:
                self.violations.append(
                    f"entry {index}: state version went backwards "
                    f"({previous_version} -> {entry.state_version_before})"
                )
            previous_version = entry.state_version_after

            # An applied operation must not leave the state version behind the
            # one it started from.
            if entry.state_version_after < entry.state_version_before:
                self.violations.append(
                    f"entry {index}: state version decreased while applying "
                    f"operation {operation.operation_id}"
                )
        return not self.violations

    def explain(self) -> str:
        if not self.violations:
            return "history is correct (serializable in the Section 5 sense)"
        return "\n".join(self.violations)


def equivalent_serial_order(history: ExecutionHistory) -> List[Operation]:
    """The serial order the runtime actually produced (applied operations only).

    Because the engine applies operations one at a time, the list of applied
    operations *is* an equivalent serial schedule; exposing it makes the
    benchmarks' reporting straightforward.
    """
    return [entry.operation for entry in history.applied()]
