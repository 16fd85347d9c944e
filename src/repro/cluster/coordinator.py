"""The scatter-gather coordinator: execute a cluster plan and merge results.

Given a :mod:`plan <repro.cluster.planner>` the coordinator

* **scatters** the per-shard query to every shard in the plan (concurrently,
  one worker per shard — shards are independent databases),
* **gathers** the shard results in shard order (so repeated executions are
  deterministic), and
* **merges**: plain concatenation for row streams, group-wise
  partial-aggregate re-aggregation for aggregate queries, then re-applies
  ``HAVING``, ``ORDER BY``, ``DISTINCT`` and ``LIMIT`` exactly as the engine
  would have on a single backend.  Post-merge residual expressions compile
  once per statement into the engine's batch kernels
  (:class:`~repro.cluster.merge.MergeCompiler`) and evaluate over all merged
  groups at once.

Federated plans are *not* handled here — they need the owning
:class:`~repro.backends.sharded.ShardedConnection`'s scratch backend and are
executed there.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Optional, Sequence, Union

from ..engine.vector import RowBatch
from ..result import QueryResult
from ..sql import ast
from ..sql.printer import to_sql
from .merge import MergeCompiler, distinct_rows, merge_partial_rows, sort_rows
from .planner import PartialAggregatePlan, RowStreamPlan, SingleShardPlan


class ShardCoordinator:
    """Executes single-shard and scatter-gather plans over shard connections."""

    def __init__(
        self,
        shards: Sequence[Any],
        functions: Optional[dict[str, Any]] = None,
    ) -> None:
        self._shards = list(shards)
        self._functions = functions if functions is not None else {}
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()

    # -- plan execution ------------------------------------------------------

    def execute(
        self,
        plan: Union[SingleShardPlan, RowStreamPlan, PartialAggregatePlan],
        parameters: Optional[Sequence[Any]] = None,
    ) -> QueryResult:
        """Run one plan and return the merged :class:`QueryResult`."""
        if isinstance(plan, SingleShardPlan):
            return self._shards[plan.shard].query(plan.statement, parameters=parameters)
        if isinstance(plan, RowStreamPlan):
            return self._execute_row_stream(plan, parameters)
        return self._execute_partial_aggregate(plan, parameters)

    def close(self) -> None:
        """Shut the scatter worker pool down (the shards are closed elsewhere)."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=False)
                self._pool = None

    # -- scatter -------------------------------------------------------------

    def _scatter(
        self,
        statement: ast.Select,
        shard_ids: tuple[int, ...],
        parameters: Optional[Sequence[Any]],
    ) -> list[QueryResult]:
        """Execute one statement on several shards, results in shard order."""
        if len(shard_ids) == 1:
            return [self._shards[shard_ids[0]].query(statement, parameters=parameters)]
        pool = self._ensure_pool()
        futures = [
            pool.submit(self._shards[shard].query, statement, parameters=parameters)
            for shard in shard_ids
        ]
        return [future.result() for future in futures]

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=max(2, len(self._shards)),
                    thread_name_prefix="repro-shard",
                )
            return self._pool

    # -- gather: row streams -------------------------------------------------

    def _execute_row_stream(
        self, plan: RowStreamPlan, parameters: Optional[Sequence[Any]]
    ) -> QueryResult:
        split = plan.split
        results = self._scatter(split.shard_query, plan.shards, parameters)
        rows: list[tuple] = []
        for result in results:
            rows.extend(result.rows)
        if split.distinct:
            # per-shard DISTINCT leaves cross-shard duplicates; drop them the
            # way the engine does (first occurrence wins) before ordering
            rows = distinct_rows(rows)
        rows = sort_rows(rows, split.sort_columns)
        if split.limit is not None:
            rows = rows[: split.limit]
        if split.visible_width < len(split.shard_query.items):
            rows = [row[: split.visible_width] for row in rows]
        columns = [_output_name(item) for item in plan.statement.items]
        return QueryResult(columns=columns, rows=rows)

    # -- gather: partial aggregates ------------------------------------------

    def _execute_partial_aggregate(
        self, plan: PartialAggregatePlan, parameters: Optional[Sequence[Any]]
    ) -> QueryResult:
        split = plan.split
        statement = plan.statement
        results = self._scatter(split.shard_query, plan.shards, parameters)
        gathered: list[tuple] = []
        for result in results:
            gathered.extend(result.rows)
        groups = merge_partial_rows(gathered, len(split.key_texts), split.partials)

        aliases_by_position = [
            item.alias.lower() if item.alias is not None else None
            for item in statement.items
        ]
        order_specs = [(order.expr, order.descending) for order in statement.order_by]
        merged_rows = self._merge_groups(
            split, statement, groups, aliases_by_position, order_specs, parameters
        )

        if statement.distinct:
            merged_rows = distinct_rows(merged_rows, key=lambda entry: entry[0])
        if order_specs:
            sort_columns = [
                (position, descending)
                for position, (_, descending) in enumerate(order_specs)
            ]
            ordered = sort_rows(
                [values + keys for values, keys in merged_rows],
                [(len(statement.items) + position, desc) for position, desc in sort_columns],
            )
            rows = [row[: len(statement.items)] for row in ordered]
        else:
            rows = [values for values, _ in merged_rows]
        if statement.limit is not None:
            rows = rows[: statement.limit]
        columns = [_output_name(item) for item in statement.items]
        return QueryResult(columns=columns, rows=rows)

    def _merge_groups(
        self,
        split: Any,
        statement: ast.Select,
        groups: dict[tuple, list],
        aliases_by_position: list[Optional[str]],
        order_specs: list[tuple[ast.Expression, bool]],
        parameters: Optional[Sequence[Any]],
    ) -> list[tuple[tuple, tuple]]:
        """Residual evaluation over all merged groups at once.

        Each residual expression compiles once per statement; the merged
        groups form a single batch whose rows are ``group key + merged
        aggregate values`` (plus the computed alias columns for ``HAVING``
        and ``ORDER BY``).  The stage order follows the engine's: SELECT
        items first (without alias visibility), then the ``HAVING`` filter,
        and only then the sort keys — so groups the filter drops never see
        the ORDER BY expressions.  Zero groups make an empty batch, over
        which every kernel returns an empty column.
        """
        binding_texts = list(split.key_texts) + [spec.text for spec in split.partials]
        group_rows = [
            key + tuple(state.result() for state in states)
            for key, states in groups.items()
        ]
        item_compiler = MergeCompiler(
            binding_texts, functions=self._functions, parameters=parameters
        )
        item_kernels = [item_compiler.compile(item.expr) for item in statement.items]
        batch = RowBatch(group_rows)
        value_columns = [kernel(batch, ()) for kernel in item_kernels]
        values_rows = list(zip(*value_columns))

        alias_positions = [
            position
            for position, alias in enumerate(aliases_by_position)
            if alias is not None
        ]
        alias_names = [aliases_by_position[position] for position in alias_positions]
        final_compiler = MergeCompiler(
            binding_texts,
            alias_names,
            functions=self._functions,
            parameters=parameters,
        )
        extended_rows = [
            row + tuple(values[position] for position in alias_positions)
            for row, values in zip(group_rows, values_rows)
        ]
        if statement.having is not None:
            having_kernel = final_compiler.compile(statement.having)
            mask = having_kernel(RowBatch(extended_rows), ())
            kept = [index for index, flag in enumerate(mask) if flag is True]
            if len(kept) != len(extended_rows):
                extended_rows = [extended_rows[index] for index in kept]
                values_rows = [values_rows[index] for index in kept]
        if order_specs and extended_rows:
            order_kernels = [
                final_compiler.compile(expr) for expr, _ in order_specs
            ]
            final_batch = RowBatch(extended_rows)
            sort_columns = [kernel(final_batch, ()) for kernel in order_kernels]
            sort_rows_keys = list(zip(*sort_columns))
        else:
            sort_rows_keys = [()] * len(extended_rows)
        return list(zip(values_rows, sort_rows_keys))


def _output_name(item: ast.SelectItem) -> str:
    """Result-column naming, matching the engine's convention."""
    if item.alias:
        return item.alias
    if isinstance(item.expr, ast.Column):
        return item.expr.name
    return to_sql(item.expr)
