"""Gather-side merging: partial-aggregate combination and final evaluation.

The scatter phase leaves the coordinator with per-shard rows; this module
turns them back into the single-backend answer:

* :class:`PartialAggregateState` / :func:`merge_partial_rows` — combine the
  shards' partial aggregates per group (``SUM``/``COUNT`` add, ``MIN``/
  ``MAX`` keep the extremum, ``AVG`` divides total ``SUM`` by total
  ``COUNT``), preserving SQL NULL semantics (``SUM`` of an all-NULL group is
  NULL, ``AVG`` of an empty group is NULL),
* :class:`MergeCompiler` — evaluate the query's final SELECT list,
  ``HAVING`` and ``ORDER BY`` expressions over the merged values: residual
  expressions are rewritten against the merged binding/alias columns and
  compiled *once per statement* into the engine's batch kernels
  (:class:`repro.engine.vector.BatchExpressionCompiler`), then evaluated
  over all merged groups in one pass with the engine's own SQL semantics
  (three-valued logic, NULL propagation, division by zero),
* :func:`sort_rows` — the engine's ``ORDER BY`` algorithm (stable per-key
  sorts over :func:`repro.sql.types.sort_key`) on gathered rows.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterable, Optional, Sequence

from ..engine.expressions import Scope
from ..engine.vector import BatchExpressionCompiler
from ..errors import ExecutionError
from ..sql import ast
from ..sql.printer import to_sql
from ..sql.transform import PartialAggregate
from ..sql.types import sort_key

# ---------------------------------------------------------------------------
# Partial-aggregate states
# ---------------------------------------------------------------------------


class PartialAggregateState:
    """Accumulates one aggregate's per-shard partials into the global value."""

    def __init__(self, spec: PartialAggregate) -> None:
        self.spec = spec
        self._sum: Any = None
        self._count = 0
        self._extremum: Any = None

    def merge(self, row: tuple) -> None:
        """Fold one shard row's partial column(s) into the state."""
        kind = self.spec.kind
        if kind == "avg":
            partial_sum, partial_count = (row[index] for index in self.spec.columns)
            self._add_sum(partial_sum)
            self._count += int(partial_count or 0)
            return
        value = row[self.spec.columns[0]]
        if kind == "sum":
            self._add_sum(value)
        elif kind == "count":
            self._count += int(value or 0)
        elif kind in ("min", "max"):
            if value is None:
                return
            if self._extremum is None:
                self._extremum = value
            elif kind == "min":
                self._extremum = min(self._extremum, value)
            else:
                self._extremum = max(self._extremum, value)
        else:  # pragma: no cover - the split rejects unknown kinds
            raise ExecutionError(f"unknown partial-aggregate kind {kind!r}")

    def _add_sum(self, value: Any) -> None:
        if value is None:
            return
        self._sum = value if self._sum is None else self._sum + value

    def result(self) -> Any:
        """The merged aggregate value (matching single-backend semantics)."""
        kind = self.spec.kind
        if kind == "sum":
            return self._sum
        if kind == "count":
            return self._count
        if kind in ("min", "max"):
            return self._extremum
        # AVG: the engine accumulates into a float and divides by the count
        if self._count == 0:
            return None
        return (self._sum if self._sum is not None else 0.0) / self._count


def merge_partial_rows(
    shard_rows: Iterable[tuple],
    key_width: int,
    partials: Sequence[PartialAggregate],
) -> dict[tuple, list[PartialAggregateState]]:
    """Merge gathered partial rows into per-group aggregate states.

    Groups are keyed on the leading ``key_width`` columns; for a global
    aggregate (no GROUP BY) every shard contributes exactly one row to the
    ``()`` group.
    """
    groups: dict[tuple, list[PartialAggregateState]] = {}
    for row in shard_rows:
        key = tuple(row[:key_width])
        states = groups.get(key)
        if states is None:
            states = [PartialAggregateState(spec) for spec in partials]
            groups[key] = states
        for state in states:
            state.merge(row)
    return groups


# ---------------------------------------------------------------------------
# Final-expression evaluation
# ---------------------------------------------------------------------------


def default_scalar_functions() -> dict[str, Any]:
    """The coordinator's scalar-function registry seed: the engine builtins.

    The optimizer's conversion push-up leaves ``COALESCE`` and constant-arg
    rate look-ups *outside* the aggregates, so the coordinator must evaluate
    them after re-aggregation exactly as a backend would.
    """
    from ..engine.functions import BUILTIN_SCALARS

    return dict(BUILTIN_SCALARS)


class _RefusedResidual(Exception):
    """Internal: a residual subtree cannot bind to the merged columns.

    Raised during residual rewriting for constructs outside the node types
    the cluster planner's evaluability check admits, unbound parameters,
    unregistered functions and unknown columns.  ``message`` is the
    :class:`~repro.errors.ExecutionError` text the compiled kernel raises
    once it is given a group to evaluate.
    """

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message


def _raising_kernel(message: str):
    """A kernel that refuses every non-empty batch with ``message``.

    An empty batch (no merged group survived) evaluates to an empty column,
    so a statement whose residual is never needed does not fail.
    """

    def kernel(batch, outers) -> list:
        if batch.n:
            raise ExecutionError(message)
        return []

    return kernel


class _BatchFunctionContext:
    """The minimal execution-context surface merge-side kernels need.

    Batch kernels dispatch scalar calls through ``batch_call_function``, the
    row interpreter (:class:`~repro.engine.vector.RowOracleCompiler`)
    through ``call_function``; on the coordinator the registry holds plain
    Python callables (builtins plus registered Python UDFs), applied
    positionally with no memoization.
    """

    def __init__(self, functions: dict[str, Any]) -> None:
        self._functions = functions

    def call_function(self, name: str, args: list) -> Any:
        """Apply one scalar function to one row's argument values."""
        return self._functions[name.lower()](*args)

    def batch_call_function(self, name: str, columns: list, n: int) -> list:
        """Apply one scalar function over argument columns of length ``n``."""
        fn = self._functions[name.lower()]
        if not columns:
            return [fn() for _ in range(n)]
        return [fn(*values) for values in zip(*columns)]


class MergeCompiler:
    """Compiles residual expressions into batch kernels over merged groups.

    The coordinator compiles each SELECT-item / ``HAVING`` / ``ORDER BY``
    expression *once per statement*.  Compilation rewrites the tree
    bottom-up — any subtree whose printed form matches a binding text (a
    group-key text or an aggregate-call text) becomes a synthetic column
    reference, alias references become alias columns, parameters are
    pre-bound to literals — and hands the result to :attr:`kernel_compiler`,
    the engine's :class:`~repro.engine.vector.BatchExpressionCompiler`, so
    the kernels (NULL semantics, comparison coercion, CASE short-circuiting)
    are the very ones the engine itself executes.  A residual the rewrite
    refuses compiles to a kernel raising :class:`~repro.errors.ExecutionError`
    for any non-empty batch.

    A kernel's batch rows are ``binding values + alias values`` in the
    constructor's order; alias columns exist only on compilers constructed
    with ``alias_names`` (the items-compiler omits them: SELECT items cannot
    see their own aliases).
    """

    #: compiles the rewritten residual trees into batch kernels
    kernel_compiler = BatchExpressionCompiler

    def __init__(
        self,
        binding_texts: Sequence[str],
        alias_names: Sequence[str] = (),
        functions: Optional[dict[str, Any]] = None,
        parameters: Optional[Sequence[Any]] = None,
    ) -> None:
        self.binding_texts = list(binding_texts)
        self.alias_names = [name.lower() for name in alias_names]
        self.functions = functions if functions is not None else {}
        self.parameters = tuple(parameters) if parameters is not None else None
        self._slots = {text: index for index, text in enumerate(self.binding_texts)}
        base = len(self.binding_texts)
        self._alias_slots = {
            name: base + offset for offset, name in enumerate(self.alias_names)
        }
        # synthetic scope: one unqualified column per binding, then per alias
        # ('#' keeps the names out of any parsable identifier space)
        self._names = [f"#m{index}" for index in range(base)] + [
            f"#a{offset}" for offset in range(len(self.alias_names))
        ]
        scope = Scope([(None, name) for name in self._names])
        self._compiler = self.kernel_compiler(
            scope, _BatchFunctionContext(self.functions)
        )

    def compile(self, expr: ast.Expression):
        """Compile one residual expression into ``kernel(batch, ()) -> column``."""
        try:
            rewritten = self._rewrite(expr)
        except _RefusedResidual as refused:
            return _raising_kernel(refused.message)
        return self._compiler.compile(rewritten)

    # -- residual rewriting --------------------------------------------------

    def _rewrite(self, expr: ast.Expression) -> ast.Expression:
        """Rewrite a residual tree against the synthetic merge columns.

        Resolution order: the binding texts win over everything (an
        aggregate-call subtree inside a larger expression resolves as a
        whole), then literals / pre-bound parameters / alias columns, then
        the structural node types the cluster planner admits.  Anything
        else raises :class:`_RefusedResidual`.
        """
        slot = self._slots.get(to_sql(expr))
        if slot is not None:
            return ast.Column(name=self._names[slot])
        if isinstance(expr, ast.Literal):
            return expr
        if isinstance(expr, ast.Parameter):
            if self.parameters is None or not 1 <= expr.index <= len(self.parameters):
                raise _RefusedResidual(
                    f"merge evaluator has no value for parameter {to_sql(expr)}"
                )
            return ast.Literal(value=self.parameters[expr.index - 1])
        if isinstance(expr, ast.Column):
            if expr.table is None:
                alias_slot = self._alias_slots.get(expr.name.lower())
                if alias_slot is not None:
                    return ast.Column(name=self._names[alias_slot])
            raise _RefusedResidual(f"unbound merge column {to_sql(expr)!r}")
        if isinstance(expr, ast.BinaryOp):
            return dataclasses.replace(
                expr, left=self._rewrite(expr.left), right=self._rewrite(expr.right)
            )
        if isinstance(expr, ast.UnaryOp):
            return dataclasses.replace(expr, operand=self._rewrite(expr.operand))
        if isinstance(expr, ast.Case):
            whens = tuple(
                dataclasses.replace(
                    when,
                    condition=self._rewrite(when.condition),
                    result=self._rewrite(when.result),
                )
                for when in expr.whens
            )
            else_result = (
                None
                if expr.else_result is None
                else self._rewrite(expr.else_result)
            )
            return dataclasses.replace(expr, whens=whens, else_result=else_result)
        if isinstance(expr, ast.IsNull):
            return dataclasses.replace(expr, expr=self._rewrite(expr.expr))
        if isinstance(expr, ast.Between):
            return dataclasses.replace(
                expr,
                expr=self._rewrite(expr.expr),
                low=self._rewrite(expr.low),
                high=self._rewrite(expr.high),
            )
        if isinstance(expr, ast.InList):
            return dataclasses.replace(
                expr,
                expr=self._rewrite(expr.expr),
                items=tuple(self._rewrite(item) for item in expr.items),
            )
        if isinstance(expr, ast.FunctionCall) and not expr.is_aggregate:
            if self.functions.get(expr.name.lower()) is not None:
                return dataclasses.replace(
                    expr, args=tuple(self._rewrite(argument) for argument in expr.args)
                )
        raise _RefusedResidual(
            f"merge evaluator cannot evaluate {type(expr).__name__}: {to_sql(expr)}"
        )


# ---------------------------------------------------------------------------
# Gathered-row ordering
# ---------------------------------------------------------------------------


def distinct_rows(rows: list, key: Optional[Any] = None) -> list:
    """First-occurrence-wins deduplication, matching the engine's DISTINCT.

    ``key`` extracts the identity to deduplicate on (default: the row
    itself) while the returned list keeps the full entries.
    """
    seen: set = set()
    unique = []
    for row in rows:
        identity = row if key is None else key(row)
        if identity in seen:
            continue
        seen.add(identity)
        unique.append(row)
    return unique


def sort_rows(
    rows: list[tuple], sort_columns: Sequence[tuple[int, bool]]
) -> list[tuple]:
    """Sort gathered rows exactly like the engine sorts projected rows.

    Stable per-key passes from the minor key to the major key over the
    mixed-type total order of :func:`repro.sql.types.sort_key`.
    """
    if not sort_columns:
        return rows
    ordered = list(rows)
    for position, descending in reversed(list(sort_columns)):
        ordered.sort(key=lambda row: sort_key(row[position]), reverse=descending)
    return ordered
