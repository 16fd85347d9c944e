"""Vectorized expression evaluation: row batches and batch kernels.

The row-at-a-time interpreter in :mod:`repro.engine.expressions` pays one
Python closure dispatch *per AST node per row*; at bench scale that dispatch
dominates execution.  This module compiles the same expression trees into
*batch kernels* — closures with the signature ``kernel(batch, outers) ->
column`` that evaluate one node over a whole :class:`RowBatch` in a single
call, looping over column arrays in tight inner loops.  The executor, the
planner's scans/joins and the cluster's post-merge evaluation all ride these
kernels: there is one operator pipeline.  The row interpreter survives as a
kernel compiler, :class:`RowOracleCompiler`, whose kernels call it once per
batch row — the independent evaluator the differential tests compare the
batch kernels against; :class:`GenericKernelCompiler` likewise isolates the
generic kernels from their typed specializations.

Semantics are bit-identical to the row interpreter: three-valued logic,
NULL propagation, SQL comparison coercion (via the shared
:func:`repro.sql.types.sql_compare` / :func:`~repro.sql.types.sql_equal`
helpers on mixed types, with monomorphic fast paths for the common
numeric/date/string columns), ``CASE`` branch short-circuiting (result
branches only ever see the rows their condition selected) and sequential
conjunct compaction in the callers.  Conversion-UDF calls are *memo-batched*
through :meth:`repro.engine.executor.ExecutionContext.batch_call_function`:
duplicate ``(function, args)`` keys inside a batch hit the memo once per
distinct key and scatter the result, with counter parity to the row oracle.

Sub-query nodes (scalar, ``IN``, ``EXISTS``) are evaluated through the row
compiler inside the batch (the *rowwise fallback*): their per-row cost is an
uncorrelated-cache lookup either way, and correlated sub-queries are
inherently row-at-a-time.

On top of the generic object-list kernels sits the **typed specialization
layer**: where a base-table column is provably type-stable
(:mod:`repro.engine.columns`), numeric comparison / arithmetic / BETWEEN /
IN-list kernels are code-generated as tight loops over ``array('q')`` /
``array('d')`` payloads — no ``sql_compare`` coercion, no per-element type
guard — with a null-aware variant when the column carries a null set, and
date-vs-literal comparisons reduced to integer day-ordinal comparisons.
Every specialized kernel keeps its generic twin and falls back *per batch*
whenever a referenced column is not typed (join intermediates, post-UDF
values, mixed-type columns), so semantics never depend on the data.  Filter
compaction is selection-index based: :meth:`RowBatch.filter` produces an
index view over the shared payload instead of rebuilding row-tuple lists
between conjuncts.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Optional, Sequence

from ..errors import ExecutionError
from ..sql import ast
from ..sql.types import Date, sql_compare, sql_equal
from .columns import NUMERIC_KINDS, TypedColumn
from .expressions import (
    ExpressionCompiler,
    Scope,
    _date_arithmetic,
    _like_regex,
)

#: rows per batch unless a :class:`~repro.engine.database.Database` is
#: constructed with another ``batch_size``
DEFAULT_BATCH_SIZE = 1024

#: a compiled batch kernel: one call evaluates a node over a whole batch
BatchKernel = Callable[["RowBatch", tuple], list]


class RowBatch:
    """A window of rows processed as one unit: a shared payload + lazy views.

    A batch is either *dense* (``sel`` is None — its payload rows in payload
    order) or a *selection* — an index array into a payload shared with its
    parent batch.  Filters compact by composing selections instead of
    rebuilding row-tuple lists, so a conjunct chain over a scan touches row
    tuples zero times; ``rows`` gathers (and caches) the tuples only when a
    consumer actually asks for them.

    Columns materialize on first access via :meth:`column` — from the
    ``typed_source`` payload when it is zero-copy usable, from the table's
    version-cached object columns (``col_source``), or by gathering
    ``row[index]``.  Specialized kernels bypass the object columns entirely
    through :meth:`typed_column` + :attr:`sel`.  Invariant: a batch with
    sources and ``sel is None`` spans its table payload *in full, in payload
    order* (windows and filters over it always carry a selection).
    """

    __slots__ = ("n", "_rows", "_mat", "_sel", "_cols", "_col_source", "_typed_source")

    def __init__(
        self,
        rows: Sequence[tuple],
        col_source: Optional[Callable[[int], list]] = None,
        typed_source: Optional[Callable[[int], Optional[TypedColumn]]] = None,
    ) -> None:
        self._rows = rows
        self.n = len(rows)
        self._mat: Optional[list] = None
        self._sel: Optional[Sequence[int]] = None
        self._cols: dict[int, list] = {}
        self._col_source = col_source
        self._typed_source = typed_source

    @classmethod
    def _selection(cls, parent: "RowBatch", sel: Sequence[int]) -> "RowBatch":
        """A view keeping the payload positions in ``sel`` (payload-space)."""
        batch = cls.__new__(cls)
        batch._rows = parent._rows
        batch.n = len(sel)
        batch._mat = None
        batch._sel = sel
        batch._cols = {}
        batch._col_source = parent._col_source
        batch._typed_source = parent._typed_source
        return batch

    @property
    def rows(self) -> Sequence[tuple]:
        """The row tuples of this batch (gathered lazily for selections)."""
        sel = self._sel
        if sel is None:
            return self._rows
        mat = self._mat
        if mat is None:
            payload = self._rows
            mat = [payload[i] for i in sel]
            self._mat = mat
        return mat

    @property
    def sel(self) -> Optional[Sequence[int]]:
        """Selection indices into the shared payload; None = payload order."""
        return self._sel

    def column(self, index: int) -> Sequence[Any]:
        """The column array for slot ``index`` (gathered once, then cached).

        Resolution order: typed payload when its elements *are* the objects
        (strings, null-free numerics), then the table's cached object
        column, then the row tuples — selections gather through their index
        array either way.
        """
        col = self._cols.get(index)
        if col is not None:
            return col
        sel = self._sel
        typed = self._typed_source
        payload = None
        if typed is not None:
            typed_col = typed(index)
            if typed_col is not None:
                payload = typed_col.object_values()
        if payload is None and self._col_source is not None:
            payload = self._col_source(index)
        if payload is not None:
            col = payload if sel is None else [payload[i] for i in sel]
        elif sel is None:
            col = [row[index] for row in self._rows]
        else:
            payload_rows = self._rows
            col = [payload_rows[i][index] for i in sel]
        self._cols[index] = col
        return col

    def typed_column(self, index: int) -> Optional[TypedColumn]:
        """The :class:`TypedColumn` behind slot ``index``, if any.

        Payload-order (not batch-order): specialized kernels combine it
        with :attr:`sel`.  ``None`` whenever the batch has no typed source
        (join intermediates, sub-queries) or the column is not stable.
        """
        source = self._typed_source
        return source(index) if source is not None else None

    def filter(self, mask: Sequence[Any]) -> "RowBatch":
        """A batch keeping exactly the rows whose mask entry ``is True``
        (SQL predicates: NULL and False both drop the row).

        Compaction is selection-index based: the result is a view over the
        shared payload, and the incoming batch is returned unchanged (cached
        columns intact) when the mask keeps every row.
        """
        sel = self._sel
        if sel is None:
            kept = [i for i, keep in enumerate(mask) if keep is True]
        else:
            kept = [sel[i] for i, keep in enumerate(mask) if keep is True]
        if len(kept) == self.n:
            return self
        return RowBatch._selection(self, kept)

    def select(self, indices: Sequence[int]) -> "RowBatch":
        """A view of the rows at batch-local ``indices`` (CASE sub-batches).

        The index list is captured by reference and must not be mutated by
        the caller afterwards.
        """
        sel = self._sel
        if sel is not None:
            return RowBatch._selection(self, [sel[i] for i in indices])
        return RowBatch._selection(self, indices)

    def window(self, start: int, stop: int) -> "RowBatch":
        """The sub-batch of batch positions ``[start, stop)`` (clamped).

        The executor's bounded unit: selections slice their index array,
        source-backed dense batches window by ``range`` (keeping typed
        payload access), and plain row-list batches slice their rows.
        """
        stop = min(stop, self.n)
        sel = self._sel
        if sel is not None:
            return RowBatch._selection(self, sel[start:stop])
        if self._col_source is not None or self._typed_source is not None:
            return RowBatch._selection(self, range(start, stop))
        return RowBatch(self._rows[start:stop])


def apply_batch_predicates(
    batch: RowBatch, kernels: Sequence[BatchKernel], outers: tuple
) -> RowBatch:
    """Apply predicate kernels sequentially, compacting between them.

    Mirrors the row interpreter's conjunct short-circuit: a row dropped by an
    earlier predicate is never evaluated by a later one, so errors a later
    predicate would raise on filtered-out rows cannot surface, whichever
    compiler built the kernels.  Compaction is
    :meth:`RowBatch.filter` — the one selection-index seam — so no row-tuple
    list is rebuilt between conjuncts.
    """
    for kernel in kernels:
        if batch.n == 0:
            return batch
        batch = batch.filter(kernel(batch, outers))
    return batch


# ---------------------------------------------------------------------------
# kernel compiler
# ---------------------------------------------------------------------------

_PY_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_ORDERING_TESTS = {
    "<": lambda ordering: ordering < 0,
    "<=": lambda ordering: ordering <= 0,
    ">": lambda ordering: ordering > 0,
    ">=": lambda ordering: ordering >= 0,
}


class BatchExpressionCompiler:
    """Compiles AST expressions against a scope into batch kernels.

    The mirror image of :class:`repro.engine.expressions.ExpressionCompiler`
    — same :class:`~repro.engine.expressions.Scope` resolution (so
    correlation flags behave identically), same NULL/error semantics, one
    kernel call per node per *batch* instead of one closure call per node
    per *row*.  ``context`` must provide ``batch_call_function`` (scalar
    function dispatch over argument columns); sub-query nodes additionally
    need ``prepare_subquery`` because they compile through the row
    interpreter (see the module docstring).

    When the context exposes an engine database (``context.database``),
    eligible kernels are additionally compiled with a typed fast path and
    per-batch generic fallback, tallied in the database's
    :class:`~repro.result.KernelCounters`; contexts without a database
    (e.g. the cluster's ``MergeCompiler``, whose rows never come from a base
    table) compile pure-generic kernels.
    """

    def __init__(self, scope: Scope, context) -> None:
        self.scope = scope
        self.context = context
        database = getattr(context, "database", None)
        self._kernels = database.stats.kernels if database is not None else None
        self._typed = self._kernels is not None

    # -- public API ---------------------------------------------------------

    def compile(self, expr: ast.Expression) -> BatchKernel:
        """Compile one expression tree into a batch kernel."""
        method = getattr(self, f"_compile_{type(expr).__name__.lower()}", None)
        if method is None:
            raise ExecutionError(
                f"cannot evaluate expression of type {type(expr).__name__}"
            )
        return method(expr)

    def compile_predicate(self, expr: ast.Expression) -> BatchKernel:
        """Compile a predicate; callers keep rows whose mask entry is True."""
        return self.compile(expr)

    # -- fallback -----------------------------------------------------------

    def _rowwise(self, expr: ast.Expression) -> BatchKernel:
        """Evaluate through the row interpreter, one call per batch row.

        Used for sub-query nodes: uncorrelated sub-queries answer from their
        per-statement cache (one lookup per row), correlated ones re-run per
        row by definition.  :class:`RowOracleCompiler` uses it for every node.
        """
        row_fn = ExpressionCompiler(self.scope, self.context).compile(expr)
        return lambda batch, outers: [row_fn(row, outers) for row in batch.rows]

    # -- leaves -------------------------------------------------------------

    def _compile_literal(self, expr: ast.Literal) -> BatchKernel:
        value = expr.value
        return lambda batch, outers: [value] * batch.n

    def _compile_column(self, expr: ast.Column) -> BatchKernel:
        resolved = self.scope.resolve(expr.name, expr.table)
        if resolved is None:
            raise ExecutionError(f"unknown column {expr.qualified!r}")
        depth, index = resolved
        if depth == 0:
            return lambda batch, outers: batch.column(index)
        outer_index = depth - 1
        return lambda batch, outers: [outers[outer_index][index]] * batch.n

    def _compile_star(self, expr: ast.Star) -> BatchKernel:
        raise ExecutionError("'*' is only valid in SELECT lists and COUNT(*)")

    def _compile_parameter(self, expr: ast.Parameter) -> BatchKernel:
        name = f":{expr.name}" if expr.name else f"?{expr.index}"
        raise ExecutionError(
            f"statement has an unbound parameter {name}; supply values via "
            f"execute(..., parameters=...) or the repro.api cursor"
        )

    # -- operators ----------------------------------------------------------

    def _compile_binaryop(self, expr: ast.BinaryOp) -> BatchKernel:
        op = expr.op.upper()
        if op in ("AND", "OR"):
            left, right = self.compile(expr.left), self.compile(expr.right)
            return _logic_kernel(left, right, op)
        if op == "=" or op == "<>":
            return self._equality_kernel(expr, negated=op == "<>")
        if op in ("<", "<=", ">", ">="):
            return self._comparison_kernel(expr, op)
        if op in ("+", "-", "*", "/"):
            return self._arithmetic_kernel(expr, op)
        left, right = self.compile(expr.left), self.compile(expr.right)
        if op == "||":
            def concat(batch: RowBatch, outers: tuple) -> list:
                return [
                    None if a is None or b is None else str(a) + str(b)
                    for a, b in zip(left(batch, outers), right(batch, outers))
                ]

            return concat
        if op == "%":
            def modulo(batch: RowBatch, outers: tuple) -> list:
                return [
                    None if a is None or b is None else a % b
                    for a, b in zip(left(batch, outers), right(batch, outers))
                ]

            return modulo
        raise ExecutionError(f"unsupported operator {expr.op!r}")

    def _equality_kernel(self, expr: ast.BinaryOp, negated: bool) -> BatchKernel:
        generic = self._generic_equality(expr, negated)
        if self._typed:
            op_src = "!=" if negated else "=="
            typed = self._typed_predicate(expr.left, expr.right, op_src, generic)
            if typed is not None:
                return typed
        return generic

    def _generic_equality(self, expr: ast.BinaryOp, negated: bool) -> BatchKernel:
        const_side, value_side = _constant_operand(expr)
        if const_side is not None:
            value_k = self.compile(value_side)
            return _equal_const_kernel(value_k, const_side.value, negated)
        left, right = self.compile(expr.left), self.compile(expr.right)

        def kernel(batch: RowBatch, outers: tuple) -> list:
            out = []
            append = out.append
            for a, b in zip(left(batch, outers), right(batch, outers)):
                equal = sql_equal(a, b)
                if equal is None:
                    append(None)
                else:
                    append(not equal if negated else equal)
            return out

        return kernel

    def _comparison_kernel(self, expr: ast.BinaryOp, op: str) -> BatchKernel:
        generic = self._generic_comparison(expr, op)
        if self._typed:
            typed = self._typed_predicate(expr.left, expr.right, op, generic)
            if typed is not None:
                return typed
        return generic

    def _generic_comparison(self, expr: ast.BinaryOp, op: str) -> BatchKernel:
        right_lit = _fold_literal(expr.right)
        if right_lit is not None and right_lit.value is not None:
            value_k = self.compile(expr.left)
            return _compare_const_kernel(value_k, right_lit.value, op)
        left_lit = _fold_literal(expr.left)
        if left_lit is not None and left_lit.value is not None:
            # const OP col  ==  col FLIPPED_OP const
            flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
            value_k = self.compile(expr.right)
            return _compare_const_kernel(value_k, left_lit.value, flipped)
        left, right = self.compile(expr.left), self.compile(expr.right)
        test = _ORDERING_TESTS[op]

        def kernel(batch: RowBatch, outers: tuple) -> list:
            out = []
            append = out.append
            for a, b in zip(left(batch, outers), right(batch, outers)):
                ordering = sql_compare(a, b)
                append(None if ordering is None else test(ordering))
            return out

        return kernel

    def _arithmetic_kernel(self, expr: ast.BinaryOp, op: str) -> BatchKernel:
        generic = self._generic_arithmetic(expr, op)
        if self._typed:
            slot_vars: dict[int, int] = {}
            try:
                dense, selected = self._typed_render(expr, slot_vars)
            except _TypedUnsupported:
                return generic
            if slot_vars:
                plan = self._typed_plan(dense, selected, slot_vars)
                return self._typed_numeric_kernel(plan, generic)
        return generic

    def _generic_arithmetic(self, expr: ast.BinaryOp, op: str) -> BatchKernel:
        folded = _fold_literal(expr)
        if folded is not None:
            return self._compile_literal(folded)
        right_lit = _fold_literal(expr.right)
        if right_lit is not None and right_lit.value is not None:
            value_k = self.compile(expr.left)
            return _arith_const_kernel(value_k, right_lit.value, op, const_right=True)
        left_lit = _fold_literal(expr.left)
        if left_lit is not None and left_lit.value is not None:
            value_k = self.compile(expr.right)
            return _arith_const_kernel(value_k, left_lit.value, op, const_right=False)
        left, right = self.compile(expr.left), self.compile(expr.right)
        return _arith_kernel(left, right, op)

    def _compile_unaryop(self, expr: ast.UnaryOp) -> BatchKernel:
        operand = self.compile(expr.operand)
        if expr.op.upper() == "NOT":
            return lambda batch, outers: [
                None if value is None else not value
                for value in operand(batch, outers)
            ]
        if expr.op == "-":
            return lambda batch, outers: [
                None if value is None else -value for value in operand(batch, outers)
            ]
        raise ExecutionError(f"unsupported unary operator {expr.op!r}")

    def _compile_case(self, expr: ast.Case) -> BatchKernel:
        compiled_whens = [
            (self.compile(when.condition), self.compile(when.result))
            for when in expr.whens
        ]
        compiled_else = (
            self.compile(expr.else_result) if expr.else_result is not None else None
        )

        def kernel(batch: RowBatch, outers: tuple) -> list:
            out = [None] * batch.n
            # indices into `out` for the rows no WHEN has matched yet; result
            # branches are evaluated over sub-batches of exactly their rows,
            # preserving the row interpreter's short-circuit semantics
            pending = list(range(batch.n))
            current = batch
            for condition_k, result_k in compiled_whens:
                if not pending:
                    return out
                mask = condition_k(current, outers)
                hit = [local for local, flag in enumerate(mask) if flag is True]
                if hit:
                    values = result_k(current.select(hit), outers)
                    for local, value in zip(hit, values):
                        out[pending[local]] = value
                    miss = [local for local, flag in enumerate(mask) if flag is not True]
                    pending = [pending[local] for local in miss]
                    current = current.select(miss)
            if compiled_else is not None and pending:
                values = compiled_else(current, outers)
                for position, value in zip(pending, values):
                    out[position] = value
            return out

        return kernel

    def _compile_inlist(self, expr: ast.InList) -> BatchKernel:
        items = [item.value for item in expr.items if isinstance(item, ast.Literal)]
        if len(items) != len(expr.items):
            # non-literal membership lists keep the row interpreter's
            # per-row early-exit evaluation order exactly
            return self._rowwise(expr)
        value_k = self.compile(expr.expr)
        negated = expr.negated
        saw_null = any(item is None for item in items)
        present = [item for item in items if item is not None]
        family = _value_family(present)
        if family is not None:
            members = set(present)

            def fast(batch: RowBatch, outers: tuple) -> list:
                out = []
                append = out.append
                for value in value_k(batch, outers):
                    if value is None:
                        append(None)
                    elif type(value) in family:
                        if value in members:
                            append(not negated)
                        elif saw_null:
                            append(None)
                        else:
                            append(negated)
                    else:
                        append(_in_list_slow(value, items, negated))
                return out

            if self._typed and family == (int, float):
                slot = self._depth0_slot(expr.expr)
                if slot is not None:
                    return self._typed_inlist(slot, members, saw_null, negated, fast)
            return fast

        def kernel(batch: RowBatch, outers: tuple) -> list:
            return [
                None if value is None else _in_list_slow(value, items, negated)
                for value in value_k(batch, outers)
            ]

        return kernel

    def _compile_between(self, expr: ast.Between) -> BatchKernel:
        generic = self._generic_between(expr)
        if self._typed:
            typed = self._typed_between(expr, generic)
            if typed is not None:
                return typed
        return generic

    def _generic_between(self, expr: ast.Between) -> BatchKernel:
        value_k = self.compile(expr.expr)
        low_lit = _fold_literal(expr.low)
        high_lit = _fold_literal(expr.high)
        low_k = self.compile(low_lit if low_lit is not None else expr.low)
        high_k = self.compile(high_lit if high_lit is not None else expr.high)
        negated = expr.negated
        low_const = low_lit.value if low_lit is not None else None
        high_const = high_lit.value if high_lit is not None else None
        if _is_plain_number(low_const) and _is_plain_number(high_const):
            def fast(batch: RowBatch, outers: tuple) -> list:
                out = []
                append = out.append
                for value in value_k(batch, outers):
                    if value is None:
                        append(None)
                        continue
                    kind = type(value)
                    if kind is float or kind is int:
                        result = low_const <= value <= high_const
                    else:
                        result = (
                            sql_compare(value, low_const) >= 0
                            and sql_compare(value, high_const) <= 0
                        )
                    append(not result if negated else result)
                return out

            return fast

        def kernel(batch: RowBatch, outers: tuple) -> list:
            out = []
            append = out.append
            for value, low, high in zip(
                value_k(batch, outers), low_k(batch, outers), high_k(batch, outers)
            ):
                if value is None or low is None or high is None:
                    append(None)
                    continue
                result = sql_compare(value, low) >= 0 and sql_compare(value, high) <= 0
                append(not result if negated else result)
            return out

        return kernel

    def _compile_like(self, expr: ast.Like) -> BatchKernel:
        value_k = self.compile(expr.expr)
        negated = expr.negated
        if isinstance(expr.pattern, ast.Literal) and isinstance(expr.pattern.value, str):
            regex = _like_regex(expr.pattern.value)
            match = regex.match

            def static(batch: RowBatch, outers: tuple) -> list:
                out = []
                append = out.append
                for value in value_k(batch, outers):
                    if value is None:
                        append(None)
                    else:
                        matched = match(str(value)) is not None
                        append(not matched if negated else matched)
                return out

            return static

        pattern_k = self.compile(expr.pattern)

        def kernel(batch: RowBatch, outers: tuple) -> list:
            out = []
            append = out.append
            for value, pattern in zip(value_k(batch, outers), pattern_k(batch, outers)):
                if value is None or pattern is None:
                    append(None)
                else:
                    matched = _like_regex(str(pattern)).match(str(value)) is not None
                    append(not matched if negated else matched)
            return out

        return kernel

    def _compile_isnull(self, expr: ast.IsNull) -> BatchKernel:
        value_k = self.compile(expr.expr)
        if expr.negated:
            return lambda batch, outers: [
                value is not None for value in value_k(batch, outers)
            ]
        return lambda batch, outers: [value is None for value in value_k(batch, outers)]

    def _compile_extract(self, expr: ast.Extract) -> BatchKernel:
        value_k = self.compile(expr.expr)
        part = expr.part.upper()
        # like the row interpreter, an unsupported part only raises when a
        # non-NULL value is actually extracted
        attribute = part.lower() if part in ("YEAR", "MONTH", "DAY") else None

        def kernel(batch: RowBatch, outers: tuple) -> list:
            out = []
            append = out.append
            for value in value_k(batch, outers):
                if value is None:
                    append(None)
                    continue
                if attribute is None:
                    raise ExecutionError(f"unsupported EXTRACT part {part!r}")
                date = value if isinstance(value, Date) else Date.from_string(str(value))
                append(getattr(date, attribute))
            return out

        return kernel

    def _compile_substring(self, expr: ast.Substring) -> BatchKernel:
        value_k = self.compile(expr.expr)
        start_k = self.compile(expr.start)
        length_k = self.compile(expr.length) if expr.length is not None else None

        def kernel(batch: RowBatch, outers: tuple) -> list:
            out = []
            append = out.append
            values = value_k(batch, outers)
            starts = start_k(batch, outers)
            lengths = length_k(batch, outers) if length_k is not None else None
            for position, (value, start) in enumerate(zip(values, starts)):
                if value is None or start is None:
                    append(None)
                    continue
                text = str(value)
                begin = max(int(start) - 1, 0)
                if lengths is None:
                    append(text[begin:])
                    continue
                length = lengths[position]
                append(None if length is None else text[begin: begin + int(length)])
            return out

        return kernel

    # -- function calls -----------------------------------------------------

    def _compile_functioncall(self, expr: ast.FunctionCall) -> BatchKernel:
        if expr.is_aggregate:
            raise ExecutionError(
                f"aggregate {expr.name!r} is not allowed in this context"
            )
        arg_kernels = [self.compile(argument) for argument in expr.args]
        context = self.context
        name = expr.name

        def kernel(batch: RowBatch, outers: tuple) -> list:
            columns = [arg_kernel(batch, outers) for arg_kernel in arg_kernels]
            return context.batch_call_function(name, columns, batch.n)

        return kernel

    # -- sub-queries ---------------------------------------------------------

    def _compile_scalarsubquery(self, expr: ast.ScalarSubquery) -> BatchKernel:
        return self._rowwise(expr)

    def _compile_insubquery(self, expr: ast.InSubquery) -> BatchKernel:
        return self._rowwise(expr)

    def _compile_exists(self, expr: ast.Exists) -> BatchKernel:
        return self._rowwise(expr)

    # -- typed-column specialization ----------------------------------------
    #
    # Eligible expression shapes are code-generated into three loop variants
    # over typed payloads (dense, selected, null-aware); the compiled kernel
    # checks the batch's typed columns at run time and falls back to its
    # generic twin per batch, so a plan serves scans and join intermediates
    # alike.  Bit-identity holds because typed payloads round-trip their
    # values exactly and the generated operators are the same Python
    # operators the generic fast paths would have applied.

    def _depth0_slot(self, expr: ast.Expression) -> Optional[int]:
        """The storage slot of a depth-0 column reference, else ``None``."""
        if not isinstance(expr, ast.Column):
            return None
        resolved = self.scope.resolve(expr.name, expr.table)
        if resolved is None or resolved[0] != 0:
            return None
        return resolved[1]

    def _typed_render(
        self, expr: ast.Expression, slot_vars: dict[int, int]
    ) -> tuple[str, str]:
        """Render a provably numeric subtree as ``(dense, selected)`` source.

        Dense fragments are in terms of loop variables ``v<k>``, selected
        fragments index payloads ``c<k>[i]``; ``slot_vars`` accumulates the
        storage-slot -> variable mapping.  Constants embed via ``repr`` —
        exact for ``int`` and round-tripping for ``float``.  Division only
        renders with a non-zero literal divisor (a zero divisor must keep
        the row interpreter's runtime ``ExecutionError``).  Anything not
        provably numeric raises :class:`_TypedUnsupported`.
        """
        folded = _fold_literal(expr)
        if folded is not None:
            if not _is_plain_number(folded.value):
                raise _TypedUnsupported
            text = repr(folded.value)
            return text, text
        if isinstance(expr, ast.Column):
            slot = self._depth0_slot(expr)
            if slot is None:
                raise _TypedUnsupported
            var = slot_vars.setdefault(slot, len(slot_vars))
            return f"v{var}", f"c{var}[i]"
        if isinstance(expr, ast.UnaryOp) and expr.op == "-":
            dense, selected = self._typed_render(expr.operand, slot_vars)
            return f"(-{dense})", f"(-{selected})"
        if isinstance(expr, ast.BinaryOp):
            op = expr.op
            if op in ("+", "-", "*"):
                left_d, left_s = self._typed_render(expr.left, slot_vars)
                right_d, right_s = self._typed_render(expr.right, slot_vars)
                return f"({left_d} {op} {right_d})", f"({left_s} {op} {right_s})"
            if op == "/":
                divisor = _fold_literal(expr.right)
                if (
                    divisor is None
                    or not _is_plain_number(divisor.value)
                    or divisor.value == 0
                ):
                    raise _TypedUnsupported
                left_d, left_s = self._typed_render(expr.left, slot_vars)
                text = repr(divisor.value)
                return f"({left_d} / {text})", f"({left_s} / {text})"
        raise _TypedUnsupported

    def _typed_plan(
        self, dense_body: str, selected_body: str, slot_vars: dict[int, int]
    ) -> "_TypedPlan":
        """``exec`` the three loop variants for one rendered expression."""
        slots = [0] * len(slot_vars)
        for slot, var in slot_vars.items():
            slots[var] = slot
        count = len(slots)
        args = ", ".join(f"c{k}" for k in range(count))
        if count == 1:
            dense_src = f"def dense(c0):\n    return [{dense_body} for v0 in c0]\n"
        else:
            unpack = ", ".join(f"v{k}" for k in range(count))
            dense_src = (
                f"def dense({args}):\n"
                f"    return [{dense_body} for {unpack} in zip({args})]\n"
            )
        selected_src = (
            f"def selected({args}, sel):\n    return [{selected_body} for i in sel]\n"
        )
        nullaware_src = (
            f"def nullaware({args}, sel, nulls):\n"
            f"    return [None if i in nulls else {selected_body} for i in sel]\n"
        )
        namespace: dict[str, Any] = {}
        exec(  # noqa: S102 - source assembled from vetted fragments only
            compile(dense_src + selected_src + nullaware_src, "<typed-kernel>", "exec"),
            {"__builtins__": {}, "zip": zip},
            namespace,
        )
        return _TypedPlan(
            slots, namespace["dense"], namespace["selected"], namespace["nullaware"]
        )

    def _typed_numeric_kernel(
        self, plan: "_TypedPlan", generic: BatchKernel
    ) -> BatchKernel:
        """Wrap a typed plan with the per-batch numeric guard + fallback."""
        slots = plan.slots
        dense = plan.dense
        selected = plan.selected
        nullaware = plan.nullaware
        counters = self._kernels

        def kernel(batch: RowBatch, outers: tuple) -> list:
            payloads = []
            nulls = None
            for slot in slots:
                typed = batch.typed_column(slot)
                if typed is None or typed.kind not in NUMERIC_KINDS:
                    counters.generic += 1
                    return generic(batch, outers)
                payloads.append(typed.values)
                if typed.nulls is not None:
                    nulls = typed.nulls if nulls is None else nulls | typed.nulls
            counters.typed += 1
            sel = batch.sel
            if nulls is not None:
                return nullaware(
                    *payloads, sel if sel is not None else range(batch.n), nulls
                )
            if sel is None:
                return dense(*payloads)
            return selected(*payloads, sel)

        return kernel

    def _typed_predicate(
        self,
        left: ast.Expression,
        right: ast.Expression,
        op_src: str,
        generic: BatchKernel,
    ) -> Optional[BatchKernel]:
        """Typed kernel for ``left OP right``: numeric codegen, else dates."""
        slot_vars: dict[int, int] = {}
        try:
            left_d, left_s = self._typed_render(left, slot_vars)
            right_d, right_s = self._typed_render(right, slot_vars)
        except _TypedUnsupported:
            return self._typed_date_compare(left, right, op_src, generic)
        if not slot_vars:
            return None
        plan = self._typed_plan(
            f"({left_d} {op_src} {right_d})",
            f"({left_s} {op_src} {right_s})",
            slot_vars,
        )
        return self._typed_numeric_kernel(plan, generic)

    def _typed_date_compare(
        self,
        left: ast.Expression,
        right: ast.Expression,
        op_src: str,
        generic: BatchKernel,
    ) -> Optional[BatchKernel]:
        """``date_column OP DATE-literal`` reduced to day-ordinal compares.

        :class:`~repro.sql.types.Date` is ordered by its single ``days``
        field, so comparing ordinals is exactly comparing dates.  A literal
        on the left flips to the mirrored operator so the loop always runs
        ``op(value, const)``.
        """
        py_op = _PY_OP_BY_SRC[op_src]
        slot = self._depth0_slot(left)
        const = _fold_literal(right)
        if slot is None or const is None or type(const.value) is not Date:
            slot = self._depth0_slot(right)
            const = _fold_literal(left)
            if slot is None or const is None or type(const.value) is not Date:
                return None
            py_op = _MIRRORED_OPS[py_op]
        const_days = const.value.days
        counters = self._kernels

        def kernel(batch: RowBatch, outers: tuple) -> list:
            typed = batch.typed_column(slot)
            if typed is None or typed.kind != "date":
                counters.generic += 1
                return generic(batch, outers)
            counters.typed += 1
            values = typed.values
            sel = batch.sel
            if typed.nulls is None:
                if sel is None:
                    return [py_op(value, const_days) for value in values]
                return [py_op(values[i], const_days) for i in sel]
            nulls = typed.nulls
            if sel is None:
                sel = range(batch.n)
            return [
                None if i in nulls else py_op(values[i], const_days) for i in sel
            ]

        return kernel

    def _typed_between(
        self, expr: ast.Between, generic: BatchKernel
    ) -> Optional[BatchKernel]:
        """Typed ``x BETWEEN low AND high`` for numeric or date shapes."""
        low = _fold_literal(expr.low)
        high = _fold_literal(expr.high)
        if low is None or high is None:
            return None
        if _is_plain_number(low.value) and _is_plain_number(high.value):
            slot_vars: dict[int, int] = {}
            try:
                dense, selected = self._typed_render(expr.expr, slot_vars)
            except _TypedUnsupported:
                return None
            if not slot_vars:
                return None
            dense_body = f"({low.value!r} <= {dense} <= {high.value!r})"
            selected_body = f"({low.value!r} <= {selected} <= {high.value!r})"
            if expr.negated:
                dense_body = f"(not {dense_body})"
                selected_body = f"(not {selected_body})"
            plan = self._typed_plan(dense_body, selected_body, slot_vars)
            return self._typed_numeric_kernel(plan, generic)
        if type(low.value) is Date and type(high.value) is Date:
            slot = self._depth0_slot(expr.expr)
            if slot is None:
                return None
            return self._typed_date_between(
                slot, low.value.days, high.value.days, expr.negated, generic
            )
        return None

    def _typed_date_between(
        self,
        slot: int,
        low_days: int,
        high_days: int,
        negated: bool,
        generic: BatchKernel,
    ) -> BatchKernel:
        """``date_column BETWEEN DATE-literals`` over day ordinals."""
        counters = self._kernels

        def kernel(batch: RowBatch, outers: tuple) -> list:
            typed = batch.typed_column(slot)
            if typed is None or typed.kind != "date":
                counters.generic += 1
                return generic(batch, outers)
            counters.typed += 1
            values = typed.values
            sel = batch.sel
            if typed.nulls is None:
                if sel is None:
                    if negated:
                        return [
                            not (low_days <= value <= high_days) for value in values
                        ]
                    return [low_days <= value <= high_days for value in values]
                if negated:
                    return [not (low_days <= values[i] <= high_days) for i in sel]
                return [low_days <= values[i] <= high_days for i in sel]
            nulls = typed.nulls
            if sel is None:
                sel = range(batch.n)
            if negated:
                return [
                    None if i in nulls else not (low_days <= values[i] <= high_days)
                    for i in sel
                ]
            return [
                None if i in nulls else (low_days <= values[i] <= high_days)
                for i in sel
            ]

        return kernel

    def _typed_inlist(
        self,
        slot: int,
        members: set,
        saw_null: bool,
        negated: bool,
        generic: BatchKernel,
    ) -> BatchKernel:
        """Typed set-membership for a numeric column against numeric literals."""
        counters = self._kernels

        def kernel(batch: RowBatch, outers: tuple) -> list:
            typed = batch.typed_column(slot)
            if typed is None or typed.kind not in NUMERIC_KINDS:
                counters.generic += 1
                return generic(batch, outers)
            counters.typed += 1
            values = typed.values
            sel = batch.sel
            nulls = typed.nulls
            if nulls is None and not saw_null:
                if sel is None:
                    return [(value in members) != negated for value in values]
                return [(values[i] in members) != negated for i in sel]
            if sel is None:
                sel = range(batch.n)
            out = []
            append = out.append
            for i in sel:
                if nulls is not None and i in nulls:
                    append(None)
                elif values[i] in members:
                    append(not negated)
                elif saw_null:
                    append(None)
                else:
                    append(negated)
            return out

        return kernel


class GenericKernelCompiler(BatchExpressionCompiler):
    """The generic object-list kernels alone (a test oracle).

    Compiles exactly the kernels :class:`BatchExpressionCompiler` keeps as
    its per-batch fallback and never a typed specialization, so comparing
    the two checks the typed layer against its own fallback.  Select it per
    database like :class:`RowOracleCompiler`.
    """

    def __init__(self, scope: Scope, context) -> None:
        super().__init__(scope, context)
        self._typed = False


class RowOracleCompiler(BatchExpressionCompiler):
    """The row-at-a-time interpreter as a kernel compiler (a test oracle).

    Every kernel runs :class:`~repro.engine.expressions.ExpressionCompiler`'s
    closure once per batch row, so the operator pipeline is unchanged while
    each expression is evaluated by an independent implementation: no typed,
    generic or memo-batched kernel is ever built.  Select it per database by
    assigning it to :attr:`repro.engine.database.Database.kernel_compiler`
    before statements are prepared.
    """

    def compile(self, expr: ast.Expression) -> BatchKernel:
        """Compile one expression tree into a per-row interpreter kernel."""
        return self._rowwise(expr)


class _TypedUnsupported(Exception):
    """Internal: a subtree cannot compile into a typed numeric kernel."""


class _TypedPlan:
    """A codegen'd kernel triple over typed payloads for one expression.

    ``slots`` are the storage column indexes feeding the expression (in
    payload-argument order); ``dense`` evaluates full payloads in one zip
    loop, ``selected`` evaluates the payload positions of a selection
    array, and ``nullaware`` additionally yields ``None`` at positions in
    a null set (the union of the referenced columns' null sets — every
    generated operator is NULL-strict, so any NULL operand nulls the row).
    """

    __slots__ = ("slots", "dense", "selected", "nullaware")

    def __init__(self, slots, dense, selected, nullaware) -> None:
        self.slots = slots
        self.dense = dense
        self.selected = selected
        self.nullaware = nullaware


_PY_OP_BY_SRC = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}

#: op(a, b) == mirrored_op(b, a) — used to flip const-on-the-left compares
_MIRRORED_OPS = {
    operator.lt: operator.gt,
    operator.le: operator.ge,
    operator.gt: operator.lt,
    operator.ge: operator.le,
    operator.eq: operator.eq,
    operator.ne: operator.ne,
}


# ---------------------------------------------------------------------------
# kernel helpers
# ---------------------------------------------------------------------------


def _fold_literal(expr: ast.Expression) -> Optional[ast.Literal]:
    """Fold a literal-only arithmetic subtree into one literal, else None.

    Rewrites routinely leave constant subtrees like ``DATE '1994-01-01' +
    INTERVAL '1' year`` or ``.06 - 0.01`` in predicates; the row interpreter
    recomputes them per row with an identical result, so folding once at
    compile time is observationally equivalent — except for *when* errors
    surface.  A constant whose evaluation raises (e.g. a literal division by
    zero) therefore refuses to fold and stays a runtime kernel, exactly as
    the row interpreter leaves it.
    """
    if isinstance(expr, ast.Literal):
        return expr
    if isinstance(expr, ast.UnaryOp) and expr.op == "-":
        inner = _fold_literal(expr.operand)
        if inner is None or inner.value is None:
            return None
        try:
            return ast.Literal(value=-inner.value)
        except Exception:
            return None
    if isinstance(expr, ast.BinaryOp) and expr.op in ("+", "-", "*", "/"):
        left, right = _fold_literal(expr.left), _fold_literal(expr.right)
        if left is None or right is None:
            return None
        try:
            return ast.Literal(value=_arith_value(left.value, right.value, expr.op))
        except Exception:
            return None
    return None


def _constant_operand(
    expr: ast.BinaryOp,
) -> tuple[Optional[ast.Literal], Optional[ast.Expression]]:
    """``(literal, other)`` when one operand folds to a non-NULL constant."""
    right = _fold_literal(expr.right)
    if right is not None and right.value is not None:
        return right, expr.left
    left = _fold_literal(expr.left)
    if left is not None and left.value is not None:
        return left, expr.right
    return None, None


def _is_plain_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _value_family(values: list) -> Optional[tuple]:
    """The homogeneous fast-path type family of literal values, if any.

    Within a family Python's ``==``/``hash`` agree with :func:`sql_equal`,
    so set membership is sound; mixed or exotic literals return ``None`` and
    the caller keeps the per-item comparison loop.
    """
    if not values:
        return None
    if all(_is_plain_number(value) for value in values):
        return (int, float)
    if all(type(value) is str for value in values):
        return (str,)
    if all(type(value) is Date for value in values):
        return (Date,)
    return None


def _in_list_slow(value: Any, items: list, negated: bool) -> Optional[bool]:
    """The row interpreter's IN-list scan for one non-NULL value."""
    saw_null = False
    for item in items:
        if item is None:
            saw_null = True
            continue
        if sql_equal(value, item) is True:
            return not negated
    if saw_null:
        return None
    return negated


def _logic_kernel(left: BatchKernel, right: BatchKernel, op: str) -> BatchKernel:
    """Three-valued AND/OR over two mask columns (both sides evaluated,
    exactly like the row interpreter)."""
    if op == "AND":
        def kernel(batch: RowBatch, outers: tuple) -> list:
            out = []
            append = out.append
            for a, b in zip(left(batch, outers), right(batch, outers)):
                if a is False or b is False:
                    append(False)
                elif a is None or b is None:
                    append(None)
                else:
                    append(True)
            return out

        return kernel

    def kernel(batch: RowBatch, outers: tuple) -> list:
        out = []
        append = out.append
        for a, b in zip(left(batch, outers), right(batch, outers)):
            if a is True or b is True:
                append(True)
            elif a is None or b is None:
                append(None)
            else:
                append(False)
        return out

    return kernel


def _compare_const_kernel(value_k: BatchKernel, const: Any, op: str) -> BatchKernel:
    """``column OP constant`` with a monomorphic fast path.

    When an element's concrete type matches the constant's family the Python
    operator applies directly (numbers, dates, strings order exactly like
    :func:`sql_compare`); any other element falls back to the shared
    coercion helper so mixed columns keep identical semantics and errors.
    """
    py_op = _PY_OPS[op]
    test = _ORDERING_TESTS[op]
    if _is_plain_number(const):
        fast_types = (int, float)
    elif type(const) is Date:
        fast_types = (Date,)
    elif type(const) is str:
        fast_types = (str,)
    else:
        fast_types = ()

    def kernel(batch: RowBatch, outers: tuple) -> list:
        out = []
        append = out.append
        for value in value_k(batch, outers):
            if value is None:
                append(None)
            elif type(value) in fast_types:
                append(py_op(value, const))
            else:
                ordering = sql_compare(value, const)
                append(None if ordering is None else test(ordering))
        return out

    return kernel


def _equal_const_kernel(value_k: BatchKernel, const: Any, negated: bool) -> BatchKernel:
    """``column = constant`` / ``column <> constant`` with a fast path."""
    if _is_plain_number(const):
        fast_types = (int, float)
    elif type(const) is Date:
        fast_types = (Date,)
    elif type(const) is str:
        fast_types = (str,)
    else:
        fast_types = ()

    def kernel(batch: RowBatch, outers: tuple) -> list:
        out = []
        append = out.append
        for value in value_k(batch, outers):
            if value is None:
                append(None)
            elif type(value) in fast_types:
                equal = value == const
                append(not equal if negated else equal)
            else:
                equal = sql_equal(value, const)
                if equal is None:
                    append(None)
                else:
                    append(not equal if negated else equal)
        return out

    return kernel


def _arith_kernel(left: BatchKernel, right: BatchKernel, op: str) -> BatchKernel:
    """Column-vs-column ``+ - * /`` with NULL propagation and date math."""
    def kernel(batch: RowBatch, outers: tuple) -> list:
        out = []
        append = out.append
        for a, b in zip(left(batch, outers), right(batch, outers)):
            append(_arith_value(a, b, op))
        return out

    return kernel


def _arith_const_kernel(
    value_k: BatchKernel, const: Any, op: str, const_right: bool
) -> BatchKernel:
    """``column OP constant`` (or flipped) arithmetic with a numeric fast path."""
    numeric_const = _is_plain_number(const)
    if const_right:
        if numeric_const and op == "+":
            fast = lambda a: a + const  # noqa: E731
        elif numeric_const and op == "-":
            fast = lambda a: a - const  # noqa: E731
        elif numeric_const and op == "*":
            fast = lambda a: a * const  # noqa: E731
        elif numeric_const and op == "/" and const != 0:
            fast = lambda a: a / const  # noqa: E731
        else:
            fast = None
    elif numeric_const and op == "+":
        fast = lambda b: const + b  # noqa: E731
    elif numeric_const and op == "-":
        fast = lambda b: const - b  # noqa: E731
    elif numeric_const and op == "*":
        fast = lambda b: const * b  # noqa: E731
    else:
        fast = None

    def kernel(batch: RowBatch, outers: tuple) -> list:
        out = []
        append = out.append
        for value in value_k(batch, outers):
            if value is None:
                append(None)
            elif fast is not None and (type(value) is float or type(value) is int):
                append(fast(value))
            elif const_right:
                append(_arith_value(value, const, op))
            else:
                append(_arith_value(const, value, op))
        return out

    return kernel


def _arith_value(a: Any, b: Any, op: str) -> Any:
    """One arithmetic evaluation, mirroring the row interpreter exactly."""
    if a is None or b is None:
        return None
    if isinstance(a, Date) or isinstance(b, Date):
        return _date_arithmetic(a, b, op)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if b == 0:
        raise ExecutionError("division by zero")
    return a / b
