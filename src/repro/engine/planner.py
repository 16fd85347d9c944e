"""FROM-clause planning: scan, filter push-down and greedy hash joins.

The planner turns the FROM clause plus the conjunctive WHERE predicate into a
:class:`JoinPipeline`:

* each base table / view / derived table becomes a :class:`SourcePlan` with
  its single-relation filters pushed down (including primary-key point
  look-ups when a filter compares the key against a per-run constant),
* equality predicates between two relations become hash-join edges,
* the remaining conjuncts are applied as residual filters as soon as every
  relation they mention is available.

Join order is chosen greedily at prepare time.  In costed mode (the default,
``REPRO_COMPILE_COST=1``) each relation's cardinality is scaled by the
estimated selectivity of its pushed-down predicates using the database's
collected statistics (:mod:`repro.compile.cost`): start from the smallest
*filtered* relation and repeatedly attach the connected relation with the
smallest filtered estimate.  In uncosted mode the historic structural order
is used — raw base-table cardinalities, first connected candidate — which is
the differential oracle the costed order is tested against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..compile.cost import predicate_selectivity
from ..errors import ExecutionError
from ..sql import ast
from .expressions import (
    CompiledExpr,
    ExpressionCompiler,
    Scope,
    contains_subquery,
    referenced_columns,
)
from .vector import (
    DEFAULT_BATCH_SIZE,
    BatchKernel,
    RowBatch,
    apply_batch_predicates,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .executor import ExecutionContext, PreparedSelect


def _chunked(rows: list[tuple], batch_size: int):
    """Slice a row list into bounded windows (the streaming batch currency)."""
    for start in range(0, len(rows), batch_size):
        yield rows[start : start + batch_size]


def _join_key_column(fns: list, rows: list[tuple], outers: tuple):
    """Key-per-row list for a hash-join side, computed columnwise.

    ``fns`` are batch kernels: single-key joins use the kernel's column
    directly, multi-key joins zip the key columns into tuples — the batch
    analogue of ``tuple(fn(row, outers) for fn in fns)`` per row.
    """
    batch = RowBatch(rows)
    columns = [fn(batch, outers) for fn in fns]
    if len(columns) == 1:
        return columns[0]
    return list(zip(*columns))


class _OuterSentinel:
    """Marker: a column resolved against an enclosing query (or a parameter)."""


_OUTER = _OuterSentinel()


# ---------------------------------------------------------------------------
# Source plans
# ---------------------------------------------------------------------------


class SourcePlan:
    """A planned FROM-clause relation producing rows at run time."""

    def __init__(self, schema: list[tuple[Optional[str], str]], bindings: set[str]) -> None:
        self.schema = schema
        self.bindings = bindings
        # pushed-down predicates, compiled as batch kernels
        self._batch_filters: list[BatchKernel] = []

    def add_batch_filter(self, kernel: BatchKernel) -> None:
        self._batch_filters.append(kernel)

    def _apply_filters(
        self,
        rows: list[tuple],
        outers: tuple,
        col_source=None,
        typed_source=None,
    ) -> list[tuple]:
        if not self._batch_filters:
            return rows
        batch = apply_batch_predicates(
            RowBatch(rows, col_source, typed_source), self._batch_filters, outers
        )
        out = batch.rows
        # never hand out the caller's own list (table heaps are shared)
        return list(out) if out is rows else out

    def _filter_batch(self, batch: RowBatch, outers: tuple) -> RowBatch:
        """Apply the pushed-down filters to a batch, compacting by selection."""
        if self._batch_filters:
            batch = apply_batch_predicates(batch, self._batch_filters, outers)
        return batch

    def rows(self, outers: tuple) -> list[tuple]:
        raise NotImplementedError

    def batch(self, outers: tuple) -> RowBatch:
        """The plan's filtered rows as one :class:`RowBatch`.

        Entry point of the executor; :class:`TableSource` overrides it so a
        full scan keeps its typed columns and its selection view alive end
        to end instead of materializing row tuples between the scan and the
        projection/aggregation stage.
        """
        return RowBatch(self.rows(outers))

    def estimate(self) -> int:
        raise NotImplementedError

    def children(self) -> list["PreparedSelect"]:
        """Nested prepared selects (views / derived tables)."""
        return []


class TableSource(SourcePlan):
    """A scan over a base table with pushed-down filters.

    When one of the pushed filters is ``<primary key column> = <expr>`` and
    the expression does not reference this table, the scan becomes a point
    look-up in a lazily-built hash index on that key column.

    Full-scan batches expose the table's version-cached
    :class:`~repro.engine.columns.TypedColumn` payloads, which is what lets
    downstream kernels run their specialized loops.
    """

    def __init__(self, table, binding: str) -> None:
        schema = [(binding, column.name) for column in table.schema.columns]
        super().__init__(schema, {binding.lower()})
        self.table = table
        self._key_lookup: Optional[tuple[int, CompiledExpr]] = None

    def set_key_lookup(self, column_index: int, value_fn: CompiledExpr) -> None:
        self._key_lookup = (column_index, value_fn)

    @property
    def has_key_lookup(self) -> bool:
        return self._key_lookup is not None

    def estimate(self) -> int:
        if self._key_lookup is not None:
            return 1
        return max(len(self.table.rows), 1)

    def rows(self, outers: tuple) -> list[tuple]:
        if self._key_lookup is not None:
            column_index, value_fn = self._key_lookup
            value = value_fn((), outers)
            candidates = self._hash_index(column_index).get(value, [])
            return self._apply_filters(list(candidates), outers)
        # full scan: batch kernels read the table's version-cached column
        # arrays (and typed payloads) directly instead of gathering per query
        filtered = self._apply_filters(
            self.table.rows,
            outers,
            col_source=self.table.column_array,
            typed_source=self.table.typed_column,
        )
        return list(filtered) if filtered is self.table.rows else filtered

    def batch(self, outers: tuple) -> RowBatch:
        if self._key_lookup is not None:
            return RowBatch(self.rows(outers))
        scan = RowBatch(
            self.table.rows,
            col_source=self.table.column_array,
            typed_source=self.table.typed_column,
        )
        return self._filter_batch(scan, outers)

    def _hash_index(self, column_index: int) -> dict:
        cache = getattr(self.table, "_planner_indexes", None)
        if cache is None:
            cache = {}
            setattr(self.table, "_planner_indexes", cache)
        entry = cache.get(column_index)
        version = getattr(self.table, "version", len(self.table.rows))
        if entry is None or entry[1] != version:
            index: dict = {}
            for row in self.table.rows:
                index.setdefault(row[column_index], []).append(row)
            cache[column_index] = (index, version)
            return index
        return entry[0]


class PreparedSource(SourcePlan):
    """A derived table or view backed by a nested :class:`PreparedSelect`."""

    def __init__(self, prepared: "PreparedSelect", binding: str) -> None:
        schema = [(binding, column) for column in prepared.output_columns]
        super().__init__(schema, {binding.lower()})
        self._prepared = prepared

    def children(self) -> list["PreparedSelect"]:
        return [self._prepared]

    def estimate(self) -> int:
        return self._prepared.estimate()

    def rows(self, outers: tuple) -> list[tuple]:
        return self._apply_filters(list(self._prepared.run(outers)), outers)


class JoinSource(SourcePlan):
    """An explicit ``A [LEFT] JOIN B ON cond`` treated as one composite source.

    The ON-clause machinery is batch-compiled: build/probe key columns come
    from batch kernels, the residual condition evaluates once over the whole
    candidate batch, and LEFT-join null padding is reconstructed from a
    candidate→left-position index array.
    """

    def __init__(
        self,
        left: SourcePlan,
        right: SourcePlan,
        join_type: ast.JoinType,
        key_pairs: list[tuple[BatchKernel, BatchKernel]],
        residual: Optional[BatchKernel],
    ) -> None:
        super().__init__(list(left.schema) + list(right.schema), left.bindings | right.bindings)
        self._left = left
        self._right = right
        self._join_type = join_type
        self._key_pairs = key_pairs
        self._residual = residual
        self._right_width = len(right.schema)

    def children(self) -> list["PreparedSelect"]:
        return self._left.children() + self._right.children()

    def estimate(self) -> int:
        return max(self._left.estimate(), self._right.estimate())

    def rows(self, outers: tuple) -> list[tuple]:
        """Batch ON-clause join: key columns, one residual mask, index padding.

        Candidate pairs are collected in nested-loop order (left rows outer,
        build-side matches inner) together with a parallel array of left-row
        positions; the residual is evaluated once over the candidate batch —
        never over unmatched rows — and for LEFT joins the output is rebuilt
        in one pass over the left side, padding rows whose candidates all
        failed.
        """
        left_rows = self._left.rows(outers)
        right_rows = self._right.rows(outers)
        candidates: list[tuple] = []
        cand_left_pos: list[int] = []
        if self._key_pairs:
            probe_fns = [pair[0] for pair in self._key_pairs]
            build_fns = [pair[1] for pair in self._key_pairs]
            table: dict = {}
            for row, key in zip(
                right_rows, _join_key_column(build_fns, right_rows, outers)
            ):
                bucket = table.get(key)
                if bucket is None:
                    table[key] = [row]
                else:
                    bucket.append(row)
            get = table.get
            for position, (left_row, key) in enumerate(
                zip(left_rows, _join_key_column(probe_fns, left_rows, outers))
            ):
                bucket = get(key)
                if bucket:
                    for right_row in bucket:
                        candidates.append(left_row + right_row)
                        cand_left_pos.append(position)
        else:
            for position, left_row in enumerate(left_rows):
                for right_row in right_rows:
                    candidates.append(left_row + right_row)
                    cand_left_pos.append(position)
        mask = None
        if self._residual is not None and candidates:
            mask = self._residual(RowBatch(candidates), outers)
        if self._join_type is not ast.JoinType.LEFT:
            if mask is not None:
                candidates = [row for row, keep in zip(candidates, mask) if keep is True]
            return self._apply_filters(candidates, outers)
        null_pad = (None,) * self._right_width
        combined: list[tuple] = []
        index = 0
        total = len(candidates)
        for position, left_row in enumerate(left_rows):
            matched = False
            while index < total and cand_left_pos[index] == position:
                if mask is None or mask[index] is True:
                    combined.append(candidates[index])
                    matched = True
                index += 1
            if not matched:
                combined.append(left_row + null_pad)
        return self._apply_filters(combined, outers)


# ---------------------------------------------------------------------------
# Join pipeline over the comma-separated FROM list
# ---------------------------------------------------------------------------


class _JoinStep:
    """One greedy hash-join step decided at prepare time."""

    def __init__(
        self,
        source: SourcePlan,
        probe_fns: list[BatchKernel],
        build_fns: list[BatchKernel],
        residuals: list[BatchKernel],
    ) -> None:
        self.source = source
        self.probe_fns = probe_fns
        self.build_fns = build_fns
        self.residuals = residuals


class JoinPipeline:
    """Executes the planned sequence of scans, hash joins and residual filters.

    The probe/build key functions and residual filters are batch kernels:
    join keys are computed as key *columns* over whole row windows,
    residuals via :func:`~repro.engine.vector.apply_batch_predicates`.  The
    streaming spine is :meth:`iter_batches`, which emits bounded row chunks
    (``batch_size`` rows) so ``LIMIT`` consumers touch O(batch) rows.
    """

    def __init__(
        self,
        first: SourcePlan,
        steps: list[_JoinStep],
        final_residuals: list,
        schema: list[tuple[Optional[str], str]],
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        self._first = first
        self._steps = steps
        self._final_residuals = final_residuals
        self.schema = schema
        self._batch_size = batch_size

    def execute_batch(self, outers: tuple) -> RowBatch:
        """The pipeline's joined rows as one :class:`RowBatch`.

        With no join steps the first source's batch flows through directly,
        so a filtered base-table scan keeps its typed columns and selection
        view for the projection/aggregation stage; join outputs are plain
        row-tuple batches (join intermediates have no stable storage
        columns to specialize over).
        """
        if not self._steps:
            batch = self._first.batch(outers)
            if self._final_residuals and batch.n:
                batch = apply_batch_predicates(batch, self._final_residuals, outers)
            return batch
        current = self._first.rows(outers)
        for step in self._steps:
            if not current:
                return RowBatch([])
            current = self._execute_step(step, current, outers)
        batch = RowBatch(current)
        if self._final_residuals and current:
            batch = apply_batch_predicates(batch, self._final_residuals, outers)
        return batch

    @staticmethod
    def _execute_step(
        step: _JoinStep, current: list[tuple], outers: tuple
    ) -> list[tuple]:
        new_rows = step.source.rows(outers)
        joined: list[tuple] = []
        if step.probe_fns:
            table: dict = {}
            for row, key in zip(new_rows, _join_key_column(step.build_fns, new_rows, outers)):
                bucket = table.get(key)
                if bucket is None:
                    table[key] = [row]
                else:
                    bucket.append(row)
            get = table.get
            for left_row, key in zip(
                current, _join_key_column(step.probe_fns, current, outers)
            ):
                bucket = get(key)
                if bucket:
                    for right_row in bucket:
                        joined.append(left_row + right_row)
        else:
            for left_row in current:
                for right_row in new_rows:
                    joined.append(left_row + right_row)
        if step.residuals and joined:
            joined = apply_batch_predicates(
                RowBatch(joined), step.residuals, outers
            ).rows
        return joined

    def iter_batches(self, outers: tuple, batch_size: Optional[int] = None):
        """Yield joined rows lazily as bounded chunks (the streaming spine).

        Each source still materializes its own (filtered) scan and each
        join step builds its hash table when first pulled, but left rows
        flow through the spine ``batch_size`` at a time and every yielded
        chunk is re-bounded to at most ``batch_size`` rows — an
        early-``LIMIT`` consumer therefore materializes O(batch) rows, never
        the join output.
        """
        size = batch_size or self._batch_size
        current = _chunked(self._first.rows(outers), size)
        for step in self._steps:
            current = self._iter_step_batch(step, current, outers, size)
        for chunk in current:
            if self._final_residuals:
                chunk = apply_batch_predicates(
                    RowBatch(chunk), self._final_residuals, outers
                ).rows
            if chunk:
                yield chunk

    @staticmethod
    def _iter_step_batch(step: _JoinStep, current, outers: tuple, batch_size: int):
        table: Optional[dict] = None
        new_rows: list[tuple] = []
        for chunk in current:
            if table is None:
                # built on first demand: an empty left spine never scans it
                new_rows = step.source.rows(outers)
                table = {}
                if step.probe_fns:
                    for row, key in zip(
                        new_rows, _join_key_column(step.build_fns, new_rows, outers)
                    ):
                        bucket = table.get(key)
                        if bucket is None:
                            table[key] = [row]
                        else:
                            bucket.append(row)
            joined: list[tuple] = []
            if step.probe_fns:
                get = table.get
                for left_row, key in zip(
                    chunk, _join_key_column(step.probe_fns, chunk, outers)
                ):
                    bucket = get(key)
                    if bucket:
                        for right_row in bucket:
                            joined.append(left_row + right_row)
            else:
                for left_row in chunk:
                    for right_row in new_rows:
                        joined.append(left_row + right_row)
            if step.residuals and joined:
                joined = apply_batch_predicates(
                    RowBatch(joined), step.residuals, outers
                ).rows
            # one-to-many joins can fan a chunk out past the bound; re-slice
            yield from _chunked(joined, batch_size)

    def children(self) -> list["PreparedSelect"]:
        collected = list(self._first.children())
        for step in self._steps:
            collected.extend(step.source.children())
        return collected

    def estimate(self) -> int:
        estimate = self._first.estimate()
        for step in self._steps:
            estimate = max(estimate, step.source.estimate())
        return estimate


class EmptyPipeline:
    """FROM-less queries (``SELECT 1``) produce exactly one empty row."""

    schema: list[tuple[Optional[str], str]] = []

    def execute_batch(self, outers: tuple) -> RowBatch:
        """The single empty row as a one-row batch."""
        return RowBatch([()])

    def iter_batches(self, outers: tuple, batch_size: Optional[int] = None):
        """The single empty row as a one-row batch."""
        yield [()]

    def children(self) -> list["PreparedSelect"]:
        return []

    def estimate(self) -> int:
        return 1


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------


class Planner:
    """Builds a :class:`JoinPipeline` for a SELECT's FROM/WHERE clauses.

    Every :class:`Scope` the planner creates is recorded in
    :attr:`created_scopes`; the executor inspects their ``uses_parent`` flags
    to decide whether the resulting plan is correlated with the enclosing
    query (and therefore whether its result may be cached).
    """

    def __init__(
        self,
        context: "ExecutionContext",
        parent_scope: Optional[Scope],
    ) -> None:
        self._context = context
        self._parent_scope = parent_scope
        self.created_scopes: list[Scope] = []
        self._binding_columns: dict[str, set[str]] = {}
        self._batch_size = context.database.batch_size
        self._costed = context.database.cost.enabled

    def _new_scope(self, columns: list[tuple[Optional[str], str]]) -> Scope:
        scope = Scope(columns, parent=self._parent_scope)
        self.created_scopes.append(scope)
        return scope

    def _compiler(self, columns: list[tuple[Optional[str], str]]) -> ExpressionCompiler:
        return ExpressionCompiler(self._new_scope(columns), self._context)

    def _kernel_compiler(self, columns: list[tuple[Optional[str], str]]):
        """The database's kernel compiler over a fresh scope."""
        database = self._context.database
        return database.kernel_compiler(self._new_scope(columns), self._context)

    # -- public API ----------------------------------------------------------

    def plan(
        self, select: ast.Select
    ) -> tuple[JoinPipeline | EmptyPipeline, Scope, list[ast.Expression]]:
        """Plan the FROM/WHERE part of a query.

        Returns the pipeline, the scope describing the joined row layout and
        the WHERE conjuncts containing sub-queries (evaluated afterwards by
        the executor because they cannot become join edges or push-downs).
        """
        if not select.from_items:
            scope = self._new_scope([])
            return EmptyPipeline(), scope, ast.split_conjuncts(select.where)

        sources = [self._plan_from_item(item) for item in select.from_items]

        plain: list[ast.Expression] = []
        subquery_conjuncts: list[ast.Expression] = []
        for conjunct in ast.split_conjuncts(select.where):
            if contains_subquery(conjunct):
                subquery_conjuncts.append(conjunct)
            else:
                plain.append(conjunct)

        self._binding_columns = {}
        for source in sources:
            for binding, column in source.schema:
                self._binding_columns.setdefault(binding.lower(), set()).add(column.lower())

        pushdown, join_edges, residual = self._classify(plain, sources)
        for source, predicates in pushdown.items():
            self._apply_pushdown(source, predicates)

        estimates = self._cost_estimates(sources, pushdown)
        pipeline = self._order_joins(sources, join_edges, residual, estimates)
        scope = self._new_scope(pipeline.schema)
        return pipeline, scope, subquery_conjuncts

    # -- FROM items ----------------------------------------------------------

    def _plan_from_item(self, item: ast.FromItem) -> SourcePlan:
        if isinstance(item, ast.TableRef):
            return self._plan_table(item)
        if isinstance(item, ast.SubqueryRef):
            prepared = self._context.prepare_subquery(item.query, self._parent_scope)
            return PreparedSource(prepared, item.alias)
        if isinstance(item, ast.Join):
            return self._plan_join(item)
        raise ExecutionError(f"unsupported FROM item {type(item).__name__}")

    def _plan_table(self, item: ast.TableRef) -> SourcePlan:
        catalog = self._context.database.catalog
        binding = item.alias or item.name
        if catalog.has_view(item.name):
            prepared = self._context.prepare_subquery(
                catalog.view(item.name), self._parent_scope
            )
            return PreparedSource(prepared, binding)
        return TableSource(catalog.table(item.name), binding)

    def _plan_join(self, item: ast.Join) -> SourcePlan:
        left = self._plan_from_item(item.left)
        right = self._plan_from_item(item.right)
        key_pairs: list[tuple[BatchKernel, BatchKernel]] = []
        residual_parts: list[ast.Expression] = []
        if item.condition is not None:
            left_compiler = self._kernel_compiler(left.schema)
            right_compiler = self._kernel_compiler(right.schema)
            for conjunct in ast.split_conjuncts(item.condition):
                pair = self._equi_join_pair(conjunct, left, right)
                if pair is not None:
                    left_expr, right_expr = pair
                    key_pairs.append(
                        (left_compiler.compile(left_expr), right_compiler.compile(right_expr))
                    )
                else:
                    residual_parts.append(conjunct)
        residual = None
        if residual_parts:
            combined_compiler = self._kernel_compiler(
                list(left.schema) + list(right.schema)
            )
            residual = combined_compiler.compile_predicate(ast.and_(*residual_parts))
        return JoinSource(left, right, item.join_type, key_pairs, residual)

    def _equi_join_pair(
        self, conjunct: ast.Expression, left: SourcePlan, right: SourcePlan
    ) -> Optional[tuple[ast.Expression, ast.Expression]]:
        if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
            return None
        if contains_subquery(conjunct):
            return None
        local_columns: dict[str, set[str]] = {}
        for source in (left, right):
            for binding, column in source.schema:
                local_columns.setdefault(binding.lower(), set()).add(column.lower())
        left_bindings = self._expression_bindings(conjunct.left, local_columns)
        right_bindings = self._expression_bindings(conjunct.right, local_columns)
        if left_bindings is None or right_bindings is None:
            return None
        if left_bindings and right_bindings:
            if left_bindings <= left.bindings and right_bindings <= right.bindings:
                return conjunct.left, conjunct.right
            if left_bindings <= right.bindings and right_bindings <= left.bindings:
                return conjunct.right, conjunct.left
        return None

    # -- WHERE classification --------------------------------------------------

    def _expression_bindings(
        self,
        expr: ast.Expression,
        binding_columns: Optional[dict[str, set[str]]] = None,
    ) -> Optional[set[str]]:
        """Bindings referenced by an expression.

        Columns that cannot be attributed to any local binding are treated as
        outer references when an enclosing scope exists (they do not
        contribute a binding); when no enclosing scope exists the result is
        ``None`` which keeps the predicate out of push-down and join-edge
        classification (the compile step will report the unknown column).
        """
        if binding_columns is None:
            binding_columns = self._binding_columns
        bindings: set[str] = set()
        for column in referenced_columns(expr):
            attributed = self._attribute_binding(column, binding_columns)
            if attributed is _OUTER:
                continue
            if attributed is None:
                return None
            bindings.add(attributed)
        return bindings

    def _attribute_binding(self, column: ast.Column, binding_columns: dict[str, set[str]]):
        if column.name.startswith("$"):
            return _OUTER
        name = column.name.lower()
        if column.table is not None:
            table = column.table.lower()
            if table in binding_columns:
                return table
            return _OUTER if self._parent_scope is not None else None
        matches = [
            binding for binding, columns in binding_columns.items() if name in columns
        ]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            return _OUTER if self._parent_scope is not None else None
        # ambiguous unqualified reference: let the compile step raise
        return None

    def _classify(
        self, conjuncts: list[ast.Expression], sources: list[SourcePlan]
    ) -> tuple[
        dict[SourcePlan, list[ast.Expression]],
        list[tuple[set[str], ast.Expression, set[str], ast.Expression]],
        list[ast.Expression],
    ]:
        by_binding = {binding: source for source in sources for binding in source.bindings}
        pushdown: dict[SourcePlan, list[ast.Expression]] = {}
        join_edges: list[tuple[set[str], ast.Expression, set[str], ast.Expression]] = []
        residual: list[ast.Expression] = []
        for conjunct in conjuncts:
            bindings = self._expression_bindings(conjunct)
            if bindings is None:
                residual.append(conjunct)
                continue
            if len(bindings) <= 1:
                source = by_binding[next(iter(bindings))] if bindings else sources[0]
                pushdown.setdefault(source, []).append(conjunct)
                continue
            edge = self._join_edge(conjunct)
            if edge is not None:
                join_edges.append(edge)
            else:
                residual.append(conjunct)
        return pushdown, join_edges, residual

    def _join_edge(self, conjunct: ast.Expression):
        if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
            return None
        left_bindings = self._expression_bindings(conjunct.left)
        right_bindings = self._expression_bindings(conjunct.right)
        if not left_bindings or not right_bindings:
            return None
        if left_bindings.isdisjoint(right_bindings):
            return left_bindings, conjunct.left, right_bindings, conjunct.right
        return None

    # -- push-down ---------------------------------------------------------------

    def _apply_pushdown(self, source: SourcePlan, predicates: list[ast.Expression]) -> None:
        compiler = self._kernel_compiler(source.schema)
        for predicate in predicates:
            if isinstance(source, TableSource) and self._try_key_lookup(source, predicate):
                continue
            source.add_batch_filter(compiler.compile_predicate(predicate))

    def _try_key_lookup(self, source: TableSource, predicate: ast.Expression) -> bool:
        if source.has_key_lookup:
            return False
        primary_key = source.table.schema.primary_key
        if len(primary_key) != 1:
            return False
        key_column = primary_key[0].lower()
        if not (isinstance(predicate, ast.BinaryOp) and predicate.op == "="):
            return False
        for column_side, value_side in (
            (predicate.left, predicate.right),
            (predicate.right, predicate.left),
        ):
            if not isinstance(column_side, ast.Column):
                continue
            if column_side.name.lower() != key_column:
                continue
            if self._references_source(value_side, source):
                continue
            value_compiler = self._compiler([])
            try:
                value_fn = value_compiler.compile(value_side)
            except ExecutionError:
                continue
            column_index = source.table.schema.column_index(key_column)
            source.set_key_lookup(column_index, value_fn)
            return True
        return False

    def _references_source(self, expr: ast.Expression, source: TableSource) -> bool:
        for column in referenced_columns(expr):
            if column.name.startswith("$"):
                continue
            if column.table is not None:
                if column.table.lower() in source.bindings:
                    return True
                continue
            if source.table.schema.has_column(column.name):
                return True
        return False

    # -- join ordering -----------------------------------------------------------

    def _cost_estimates(
        self,
        sources: list[SourcePlan],
        pushdown: dict[SourcePlan, list[ast.Expression]],
    ) -> Optional[dict[int, float]]:
        """Filtered cardinality per source, keyed by ``id(source)``.

        Only computed in costed mode: the raw row count of each source is
        scaled by the estimated selectivity of its pushed-down predicates
        (with table statistics where collected), so a big-but-filtered table
        can order before a small-but-unfiltered one.  ``None`` in uncosted
        mode — join ordering then falls back to raw :meth:`SourcePlan.estimate`.
        """
        if not self._costed:
            return None
        statistics = self._context.database.statistics()
        estimates: dict[int, float] = {}
        for source in sources:
            table_stats = None
            if isinstance(source, TableSource):
                table_stats = statistics.table(source.table.schema.name)
            predicate = ast.and_(*pushdown.get(source, []))
            selectivity = predicate_selectivity(predicate, table_stats)
            estimates[id(source)] = max(float(source.estimate()) * selectivity, 1.0)
        return estimates

    def _choose_next(
        self,
        remaining: list[SourcePlan],
        placed_bindings: set[str],
        unused_edges: list,
        estimates: Optional[dict[int, float]],
    ) -> int:
        """Index of the next source to join into the pipeline.

        Uncosted: the first source (in size order) connected to the placed
        set through a join edge, matching the historic greedy order exactly.
        Costed: the connected source with the smallest filtered estimate —
        unconnected sources (cross products) only when nothing connects.
        """
        if estimates is None:
            for index, candidate in enumerate(remaining):
                if self._connecting_edges(candidate, placed_bindings, unused_edges):
                    return index
            return 0
        best_index = 0
        best_key: Optional[tuple[int, float]] = None
        for index, candidate in enumerate(remaining):
            connected = bool(
                self._connecting_edges(candidate, placed_bindings, unused_edges)
            )
            key = (0 if connected else 1, estimates[id(candidate)])
            if best_key is None or key < best_key:
                best_key = key
                best_index = index
        return best_index

    def _order_joins(
        self,
        sources: list[SourcePlan],
        join_edges: list[tuple[set[str], ast.Expression, set[str], ast.Expression]],
        residual: list[ast.Expression],
        estimates: Optional[dict[int, float]] = None,
    ) -> JoinPipeline:
        if estimates is None:
            remaining = sorted(sources, key=lambda source: source.estimate())
        else:
            remaining = sorted(sources, key=lambda source: estimates[id(source)])
        first = remaining.pop(0)
        placed_bindings = set(first.bindings)
        placed_schema = list(first.schema)
        steps: list[_JoinStep] = []
        unused_edges = list(join_edges)
        pending_residuals = list(residual)

        pending_residuals, immediate = self._split_ready(pending_residuals, placed_bindings)
        if immediate:
            compiler = self._kernel_compiler(placed_schema)
            for predicate in immediate:
                first.add_batch_filter(compiler.compile_predicate(predicate))

        while remaining:
            chosen_index = self._choose_next(
                remaining, placed_bindings, unused_edges, estimates
            )
            candidate = remaining.pop(chosen_index)
            edges = self._connecting_edges(candidate, placed_bindings, unused_edges)
            for edge in edges:
                unused_edges.remove(edge)

            probe_fns: list = []
            build_fns: list = []
            current_compiler = self._kernel_compiler(placed_schema)
            candidate_compiler = self._kernel_compiler(candidate.schema)
            for left_bindings, left_expr, right_bindings, right_expr in edges:
                if left_bindings <= placed_bindings:
                    probe_fns.append(current_compiler.compile(left_expr))
                    build_fns.append(candidate_compiler.compile(right_expr))
                else:
                    probe_fns.append(current_compiler.compile(right_expr))
                    build_fns.append(candidate_compiler.compile(left_expr))

            placed_bindings |= candidate.bindings
            placed_schema = placed_schema + list(candidate.schema)

            # edges now fully contained in the placed set become residual filters
            contained = [edge for edge in unused_edges if edge[0] | edge[2] <= placed_bindings]
            for edge in contained:
                unused_edges.remove(edge)
                pending_residuals.append(ast.BinaryOp("=", edge[1], edge[3]))

            pending_residuals, ready = self._split_ready(pending_residuals, placed_bindings)
            residual_fns: list = []
            if ready:
                combined_compiler = self._kernel_compiler(placed_schema)
                residual_fns = [combined_compiler.compile_predicate(predicate) for predicate in ready]
            steps.append(_JoinStep(candidate, probe_fns, build_fns, residual_fns))

        final_residuals: list = []
        leftover = pending_residuals + [
            ast.BinaryOp("=", edge[1], edge[3]) for edge in unused_edges
        ]
        if leftover:
            final_compiler = self._kernel_compiler(placed_schema)
            final_residuals = [final_compiler.compile_predicate(predicate) for predicate in leftover]
        return JoinPipeline(
            first,
            steps,
            final_residuals,
            placed_schema,
            batch_size=self._batch_size,
        )

    def _split_ready(
        self, residuals: list[ast.Expression], placed_bindings: set[str]
    ) -> tuple[list[ast.Expression], list[ast.Expression]]:
        pending: list[ast.Expression] = []
        ready: list[ast.Expression] = []
        for predicate in residuals:
            bindings = self._expression_bindings(predicate)
            if bindings is not None and bindings <= placed_bindings:
                ready.append(predicate)
            else:
                pending.append(predicate)
        return pending, ready

    @staticmethod
    def _connecting_edges(
        candidate: SourcePlan,
        placed_bindings: set[str],
        edges: list[tuple[set[str], ast.Expression, set[str], ast.Expression]],
    ) -> list[tuple[set[str], ast.Expression, set[str], ast.Expression]]:
        connecting = []
        for edge in edges:
            left_bindings, _, right_bindings, _ = edge
            if left_bindings <= placed_bindings and right_bindings <= candidate.bindings:
                connecting.append(edge)
            elif right_bindings <= placed_bindings and left_bindings <= candidate.bindings:
                connecting.append(edge)
        return connecting
