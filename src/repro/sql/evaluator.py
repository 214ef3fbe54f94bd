"""Expression evaluation over relation rows.

The evaluator implements a pragmatic subset of SQL semantics:

* comparisons involving NULL yield NULL (which behaves as false in WHERE);
* ``AND``/``OR`` use three-valued logic;
* string/number/date comparisons use natural Python ordering, and comparing
  incompatible types yields NULL rather than raising;
* ``IN`` with a multi-column subquery compares against the subquery's first
  column when the left operand is scalar (the paper's examples write
  ``aid NOT IN (SELECT * FROM ...)`` with that intent).
"""

from __future__ import annotations

import functools
import re
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SQLExecutionError
from repro.sql.ast import (
    BetweenExpression,
    BinaryOp,
    CaseExpression,
    ColumnRef,
    ExistsExpression,
    Expression,
    FunctionCall,
    InExpression,
    IsNullExpression,
    LikeExpression,
    Literal,
    Query,
    ScalarSubquery,
    Star,
    UnaryOp,
)
from repro.sql.relation import Relation
from repro.sql.stats import ExecutionStats

__all__ = ["RowScope", "Evaluator"]


class RowScope:
    """Binds the columns of a relation to one concrete row.

    Scopes chain to an optional ``parent`` scope so correlated subqueries can
    reference columns of the enclosing query.
    """

    __slots__ = ("relation", "row", "parent")

    def __init__(
        self,
        relation: Relation,
        row: Tuple[Any, ...],
        parent: Optional["RowScope"] = None,
    ) -> None:
        self.relation = relation
        self.row = row
        self.parent = parent

    def lookup(self, name: str, qualifier: Optional[str]) -> Tuple[bool, Any]:
        """Return (found, value) for a column reference, consulting parents."""
        index = self.relation.try_find_column(name, qualifier)
        if index is not None:
            return True, self.row[index]
        if self.parent is not None:
            return self.parent.lookup(name, qualifier)
        return False, None

    def lookup_positional(self, qualifier: str, position: int) -> Tuple[bool, Any]:
        if self.relation.has_qualifier(qualifier):
            index = self.relation.find_positional(qualifier, position)
            return True, self.row[index]
        if self.parent is not None:
            return self.parent.lookup_positional(qualifier, position)
        return False, None

    def has_qualifier(self, qualifier: str) -> bool:
        if self.relation.has_qualifier(qualifier):
            return True
        if self.parent is not None:
            return self.parent.has_qualifier(qualifier)
        return False


class Evaluator:
    """Evaluates expression ASTs against row scopes.

    ``subquery_executor`` is a callback ``(query, outer_scope) -> Relation``
    provided by the executor so that subqueries (IN, EXISTS, scalar) can be
    evaluated with access to the current row for correlation.
    """

    def __init__(
        self,
        functions,
        subquery_executor: Callable[[Query, Optional[RowScope]], Relation],
        stats: Optional[ExecutionStats] = None,
    ) -> None:
        self.functions = functions
        self.subquery_executor = subquery_executor
        self.stats = stats if stats is not None else ExecutionStats()

    # -- public API -------------------------------------------------------------

    def evaluate(self, expression: Expression, scope: Optional[RowScope]) -> Any:
        self.stats.interpreted_evals += 1
        method = self._DISPATCH.get(type(expression))
        if method is None:
            raise SQLExecutionError(
                f"cannot evaluate expression node {type(expression).__name__}"
            )
        return method(self, expression, scope)

    def evaluate_predicate(self, expression: Expression, scope: Optional[RowScope]) -> bool:
        """Evaluate a boolean expression; NULL is treated as false."""
        return self.evaluate(expression, scope) is True

    # -- node handlers ------------------------------------------------------------

    def _eval_literal(self, node: Literal, scope: Optional[RowScope]) -> Any:
        return node.value

    def _eval_column(self, node: ColumnRef, scope: Optional[RowScope]) -> Any:
        if scope is None:
            raise SQLExecutionError(f"column reference {node.to_sql()!r} outside of a row context")
        if node.is_positional and node.qualifier is not None:
            found, value = scope.lookup_positional(node.qualifier, node.position)
        else:
            found, value = scope.lookup(node.name, node.qualifier)
        if not found:
            raise SQLExecutionError(f"cannot resolve column reference {node.to_sql()!r}")
        return value

    def _eval_star(self, node: Star, scope: Optional[RowScope]) -> Any:
        # Star only appears inside COUNT(*); represent it by a non-null marker.
        return 1

    def _eval_function(self, node: FunctionCall, scope: Optional[RowScope]) -> Any:
        if node.is_aggregate:
            raise SQLExecutionError(
                f"aggregate function {node.name}() used outside of an aggregation context"
            )
        arguments = [self.evaluate(argument, scope) for argument in node.arguments]
        return self.functions.call(node.name, arguments)

    def _eval_unary(self, node: UnaryOp, scope: Optional[RowScope]) -> Any:
        value = self.evaluate(node.operand, scope)
        if node.operator.upper() == "NOT":
            if value is None:
                return None
            return not bool(value)
        if node.operator == "-":
            return None if value is None else -value
        raise SQLExecutionError(f"unsupported unary operator {node.operator!r}")

    def _eval_binary(self, node: BinaryOp, scope: Optional[RowScope]) -> Any:
        operator = node.operator.upper()
        if operator == "AND":
            return _and3(
                _as_bool3(self.evaluate(node.left, scope)),
                lambda: _as_bool3(self.evaluate(node.right, scope)),
            )
        if operator == "OR":
            return _or3(
                _as_bool3(self.evaluate(node.left, scope)),
                lambda: _as_bool3(self.evaluate(node.right, scope)),
            )

        left = self.evaluate(node.left, scope)
        right = self.evaluate(node.right, scope)

        if operator in ("=", "<>", "<", "<=", ">", ">="):
            return _compare(operator, left, right)
        if left is None or right is None:
            return None
        try:
            if operator == "+":
                return left + right
            if operator == "-":
                return left - right
            if operator == "*":
                return left * right
            if operator == "/":
                if right == 0:
                    raise SQLExecutionError("division by zero")
                result = left / right
                return result
            if operator == "%":
                return left % right
        except TypeError as exc:
            raise SQLExecutionError(
                f"type error evaluating {node.to_sql()}: {exc}"
            ) from exc
        raise SQLExecutionError(f"unsupported operator {node.operator!r}")

    def _eval_in(self, node: InExpression, scope: Optional[RowScope]) -> Any:
        left = self.evaluate(node.operand, scope)
        if node.subquery is not None:
            relation = self.subquery_executor(node.subquery, scope)
            if relation.arity == 0:
                candidates: List[Any] = []
            elif relation.arity == 1:
                candidates = [row[0] for row in relation.rows]
            else:
                # Lenient behaviour for "x IN (SELECT * FROM t)": use column 1.
                candidates = [row[0] for row in relation.rows]
        else:
            candidates = [self.evaluate(value, scope) for value in node.values]

        if left is None:
            # NULL matches nothing, but over an empty set the answer is
            # known: IN is FALSE and NOT IN is TRUE.
            return node.negated if not candidates else None
        found = False
        saw_null = False
        for candidate in candidates:
            if candidate is None:
                saw_null = True
                continue
            if _compare("=", left, candidate) is True:
                found = True
                break
        if node.negated:
            if found:
                return False
            return None if saw_null else True
        if found:
            return True
        return None if saw_null else False

    def _eval_exists(self, node: ExistsExpression, scope: Optional[RowScope]) -> Any:
        relation = self.subquery_executor(node.subquery, scope)
        result = bool(relation.rows)
        return (not result) if node.negated else result

    def _eval_is_null(self, node: IsNullExpression, scope: Optional[RowScope]) -> Any:
        value = self.evaluate(node.operand, scope)
        return (value is not None) if node.negated else (value is None)

    def _eval_between(self, node: BetweenExpression, scope: Optional[RowScope]) -> Any:
        value = self.evaluate(node.operand, scope)
        low = self.evaluate(node.low, scope)
        high = self.evaluate(node.high, scope)
        lower = _compare(">=", value, low)
        upper = _compare("<=", value, high)
        result = _and3(lower, lambda: upper)
        if node.negated:
            return None if result is None else not result
        return result

    def _eval_like(self, node: LikeExpression, scope: Optional[RowScope]) -> Any:
        value = self.evaluate(node.operand, scope)
        pattern = self.evaluate(node.pattern, scope)
        if value is None or pattern is None:
            return None
        regex = _like_to_regex(str(pattern))
        matched = bool(regex.fullmatch(str(value)))
        return (not matched) if node.negated else matched

    def _eval_case(self, node: CaseExpression, scope: Optional[RowScope]) -> Any:
        for condition, value in node.whens:
            if self.evaluate(condition, scope) is True:
                return self.evaluate(value, scope)
        if node.default is not None:
            return self.evaluate(node.default, scope)
        return None

    def _eval_scalar_subquery(self, node: ScalarSubquery, scope: Optional[RowScope]) -> Any:
        relation = self.subquery_executor(node.query, scope)
        if not relation.rows:
            return None
        if len(relation.rows) > 1:
            raise SQLExecutionError("scalar subquery returned more than one row")
        return relation.rows[0][0]

    _DISPATCH = {
        Literal: _eval_literal,
        ColumnRef: _eval_column,
        Star: _eval_star,
        FunctionCall: _eval_function,
        UnaryOp: _eval_unary,
        BinaryOp: _eval_binary,
        InExpression: _eval_in,
        ExistsExpression: _eval_exists,
        IsNullExpression: _eval_is_null,
        BetweenExpression: _eval_between,
        LikeExpression: _eval_like,
        CaseExpression: _eval_case,
        ScalarSubquery: _eval_scalar_subquery,
    }


# ---------------------------------------------------------------------------
# Value comparison helpers (three-valued logic)
# ---------------------------------------------------------------------------


def _as_bool3(value: Any) -> Optional[bool]:
    if value is None:
        return None
    return bool(value)


def _and3(left: Optional[bool], right_thunk: Callable[[], Optional[bool]]) -> Optional[bool]:
    if left is False:
        return False
    right = right_thunk()
    if right is False:
        return False
    if left is None or right is None:
        return None
    return True


def _or3(left: Optional[bool], right_thunk: Callable[[], Optional[bool]]) -> Optional[bool]:
    if left is True:
        return True
    right = right_thunk()
    if right is True:
        return True
    if left is None or right is None:
        return None
    return False


def _compare(operator: str, left: Any, right: Any) -> Optional[bool]:
    """Compare two values with SQL semantics; NULL operands yield NULL."""
    if left is None or right is None:
        return None
    left, right = _normalize_pair(left, right)
    try:
        if operator == "=":
            return left == right
        if operator == "<>":
            return left != right
        if operator == "<":
            return left < right
        if operator == "<=":
            return left <= right
        if operator == ">":
            return left > right
        if operator == ">=":
            return left >= right
    except TypeError:
        return None
    raise SQLExecutionError(f"unsupported comparison operator {operator!r}")  # pragma: no cover


def _normalize_pair(left: Any, right: Any) -> Tuple[Any, Any]:
    """Make mixed numeric / numeric-string comparisons behave naturally."""
    if isinstance(left, bool) or isinstance(right, bool):
        return left, right
    if isinstance(left, (int, float)) and isinstance(right, str):
        try:
            return left, float(right) if ("." in right or "e" in right.lower()) else int(right)
        except ValueError:
            return str(left), right
    if isinstance(right, (int, float)) and isinstance(left, str):
        normalized_right, normalized_left = _normalize_pair(right, left)
        return normalized_left, normalized_right
    return left, right


@functools.lru_cache(maxsize=512)
def _like_to_regex(pattern: str) -> "re.Pattern":
    """Translate a SQL LIKE pattern into a compiled regular expression."""
    parts: List[str] = []
    for char in pattern:
        if char == "%":
            parts.append(".*")
        elif char == "_":
            parts.append(".")
        else:
            parts.append(re.escape(char))
    return re.compile("".join(parts), re.DOTALL)
