"""Compile expression ASTs into plain Python closures over a fixed row layout.

The tree-walking :class:`~repro.sql.evaluator.Evaluator` resolves every
column reference and dispatches on every AST node *per row*.  This module
does that work once per (expression, layout) pair instead: column references
become tuple-offset reads, three-valued logic is inlined into the closures,
and LIKE patterns with literal text get their regex compiled at plan time.
The resulting closure takes one row tuple and returns the SQL value.

Compilation is *best effort* and semantics-preserving: any construct whose
evaluation needs more than the current row — correlated or positional column
references, subqueries (IN/EXISTS/scalar), aggregates — makes
:func:`compile_expression` return ``None`` and the caller falls back to the
interpreter, which chains row scopes to outer queries.  The property tests
in ``tests/sql/test_compile.py`` assert closure-vs-interpreter agreement on
randomized expressions, including NULL three-valued logic, LIKE, BETWEEN
and IN.
"""

from __future__ import annotations

import operator as _operator
from typing import Any, Callable, Dict, Optional, Tuple

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
    ScalarSubquery,
    Star,
    UnaryOp,
)
from repro.sql.evaluator import _and3, _compare, _like_to_regex, _or3
from repro.sql.relation import AMBIGUOUS, ColumnInfo, layout_for

__all__ = ["compile_expression", "compile_predicate", "cached_compile"]

#: A compiled expression: one row tuple in, one SQL value out.
RowFn = Callable[[Tuple[Any, ...]], Any]


class _Unsupported(Exception):
    """Internal signal: this subtree needs the interpreter."""


def compile_expression(
    expression: Expression,
    columns: Tuple[ColumnInfo, ...],
    functions,
) -> Optional[RowFn]:
    """Compile ``expression`` against a column layout, or None when unsupported."""
    layout = layout_for(tuple(columns))
    try:
        return _compile(expression, layout, functions)
    except _Unsupported:
        return None


def compile_predicate(
    expression: Expression,
    columns: Tuple[ColumnInfo, ...],
    functions,
) -> Optional[Callable[[Tuple[Any, ...]], bool]]:
    """Compile a WHERE-style predicate; NULL results behave as false."""
    fn = compile_expression(expression, columns, functions)
    if fn is None:
        return None
    return lambda row: fn(row) is True


def cached_compile(
    cache: Dict[Any, Tuple[Expression, Optional[RowFn]]],
    expression: Expression,
    columns: Tuple[ColumnInfo, ...],
    functions,
) -> Optional[RowFn]:
    """Memoized :func:`compile_expression` keyed by (AST identity, layout).

    The cache stores the expression object alongside the closure so the AST
    stays alive for as long as its ``id()`` is used as a key.  Failed
    compilations are cached too (as ``None``) so interpreter-only
    expressions are probed once, not per execution.

    Thread safety: the single ``get`` and single assignment below are each
    atomic under the GIL; two threads racing on a cold key at worst compile
    the expression twice, and the entries are interchangeable, so no lock is
    taken on this per-row-hot path (see docs/concurrency.md).
    """
    key = (id(expression), columns)
    entry = cache.get(key)
    if entry is None:
        entry = (expression, compile_expression(expression, columns, functions))
        cache[key] = entry
    return entry[1]


# ---------------------------------------------------------------------------
# Node compilers
# ---------------------------------------------------------------------------


def _compile(node: Expression, layout, functions) -> RowFn:
    handler = _HANDLERS.get(type(node))
    if handler is None:
        raise _Unsupported
    return handler(node, layout, functions)


def _compile_literal(node: Literal, layout, functions) -> RowFn:
    value = node.value
    return lambda row: value


def _compile_column(node: ColumnRef, layout, functions) -> RowFn:
    if node.is_positional:
        raise _Unsupported  # positional refs keep the interpreter's scope chain
    index = layout.resolve(node.name, node.qualifier)
    if index is None or index is AMBIGUOUS:
        raise _Unsupported  # unknown here: may be a correlated outer reference
    return _operator.itemgetter(index)


def _compile_star(node: Star, layout, functions) -> RowFn:
    # Star only appears inside COUNT(*); the interpreter yields a non-null marker.
    return lambda row: 1


def _compile_function(node: FunctionCall, layout, functions) -> RowFn:
    if node.is_aggregate:
        raise _Unsupported  # aggregates are computed by AggregateOp, not per row
    argument_fns = tuple(_compile(argument, layout, functions) for argument in node.arguments)
    call = functions.call
    name = node.name
    return lambda row: call(name, [fn(row) for fn in argument_fns])


def _compile_unary(node: UnaryOp, layout, functions) -> RowFn:
    operand = _compile(node.operand, layout, functions)
    if node.operator.upper() == "NOT":
        def _not(row):
            value = operand(row)
            if value is None:
                return None
            return not bool(value)

        return _not
    if node.operator == "-":
        def _neg(row):
            value = operand(row)
            return None if value is None else -value

        return _neg
    raise _Unsupported


_ARITHMETIC = {
    "+": _operator.add,
    "-": _operator.sub,
    "*": _operator.mul,
    "%": _operator.mod,
}


def _compile_binary(node: BinaryOp, layout, functions) -> RowFn:
    op = node.operator.upper()
    if op in ("AND", "OR"):
        left = _compile(node.left, layout, functions)
        right = _compile(node.right, layout, functions)
        combine = _and3 if op == "AND" else _or3

        def _logic(row):
            left_value = left(row)
            return combine(
                None if left_value is None else bool(left_value),
                lambda: (lambda v: None if v is None else bool(v))(right(row)),
            )

        return _logic

    left = _compile(node.left, layout, functions)
    right = _compile(node.right, layout, functions)

    if op in ("=", "<>", "<", "<=", ">", ">="):
        return lambda row: _compare(op, left(row), right(row))

    if op == "/":
        def _divide(row):
            left_value = left(row)
            right_value = right(row)
            if left_value is None or right_value is None:
                return None
            if right_value == 0:
                raise SQLExecutionError("division by zero")
            try:
                return left_value / right_value
            except TypeError as exc:
                raise SQLExecutionError(
                    f"type error evaluating {node.to_sql()}: {exc}"
                ) from exc

        return _divide

    arith = _ARITHMETIC.get(op)
    if arith is None:
        raise _Unsupported  # the interpreter reports the unsupported operator

    def _arith(row):
        left_value = left(row)
        right_value = right(row)
        if left_value is None or right_value is None:
            return None
        try:
            return arith(left_value, right_value)
        except TypeError as exc:
            raise SQLExecutionError(
                f"type error evaluating {node.to_sql()}: {exc}"
            ) from exc

    return _arith


def _compile_in(node: InExpression, layout, functions) -> RowFn:
    if node.subquery is not None:
        raise _Unsupported
    operand = _compile(node.operand, layout, functions)
    value_fns = tuple(_compile(value, layout, functions) for value in node.values)
    negated = node.negated

    def _in(row):
        left = operand(row)
        # Candidates are evaluated eagerly, as the interpreter does, so that
        # evaluation errors surface even when the operand is NULL.
        candidates = [fn(row) for fn in value_fns]
        if left is None:
            # NULL matches nothing, but over an empty set the answer is
            # known: IN is FALSE and NOT IN is TRUE.
            return negated if not candidates else None
        found = False
        saw_null = False
        for candidate in candidates:
            if candidate is None:
                saw_null = True
                continue
            if _compare("=", left, candidate) is True:
                found = True
                break
        if negated:
            if found:
                return False
            return None if saw_null else True
        if found:
            return True
        return None if saw_null else False

    return _in


def _compile_is_null(node: IsNullExpression, layout, functions) -> RowFn:
    operand = _compile(node.operand, layout, functions)
    if node.negated:
        return lambda row: operand(row) is not None
    return lambda row: operand(row) is None


def _compile_between(node: BetweenExpression, layout, functions) -> RowFn:
    operand = _compile(node.operand, layout, functions)
    low = _compile(node.low, layout, functions)
    high = _compile(node.high, layout, functions)
    negated = node.negated

    def _between(row):
        value = operand(row)
        lower = _compare(">=", value, low(row))
        upper = _compare("<=", value, high(row))
        result = _and3(lower, lambda: upper)
        if negated:
            return None if result is None else not result
        return result

    return _between


def _compile_like(node: LikeExpression, layout, functions) -> RowFn:
    operand = _compile(node.operand, layout, functions)
    negated = node.negated
    if isinstance(node.pattern, Literal):
        if node.pattern.value is None:
            # Still evaluate the operand: its errors must surface as they
            # do in the interpreter, which evaluates it before the pattern.
            return lambda row: (operand(row), None)[1]
        regex = _like_to_regex(str(node.pattern.value))

        def _like_const(row):
            value = operand(row)
            if value is None:
                return None
            matched = bool(regex.fullmatch(str(value)))
            return (not matched) if negated else matched

        return _like_const

    pattern = _compile(node.pattern, layout, functions)

    def _like(row):
        value = operand(row)
        pattern_value = pattern(row)
        if value is None or pattern_value is None:
            return None
        matched = bool(_like_to_regex(str(pattern_value)).fullmatch(str(value)))
        return (not matched) if negated else matched

    return _like


def _compile_case(node: CaseExpression, layout, functions) -> RowFn:
    whens = tuple(
        (_compile(condition, layout, functions), _compile(value, layout, functions))
        for condition, value in node.whens
    )
    default = _compile(node.default, layout, functions) if node.default is not None else None

    def _case(row):
        for condition, value in whens:
            if condition(row) is True:
                return value(row)
        if default is not None:
            return default(row)
        return None

    return _case


def _unsupported(node, layout, functions) -> RowFn:
    raise _Unsupported


_HANDLERS = {
    Literal: _compile_literal,
    ColumnRef: _compile_column,
    Star: _compile_star,
    FunctionCall: _compile_function,
    UnaryOp: _compile_unary,
    BinaryOp: _compile_binary,
    InExpression: _compile_in,
    IsNullExpression: _compile_is_null,
    BetweenExpression: _compile_between,
    LikeExpression: _compile_like,
    CaseExpression: _compile_case,
    ExistsExpression: _unsupported,
    ScalarSubquery: _unsupported,
}
