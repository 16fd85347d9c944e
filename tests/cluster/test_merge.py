"""Unit tests for partial-aggregate merging and the post-merge residual compiler."""

from __future__ import annotations

import pytest

from repro.cluster import MergeCompiler, merge_partial_rows, sort_rows
from repro.cluster.merge import default_scalar_functions
from repro.engine.vector import RowBatch, RowOracleCompiler
from repro.errors import ExecutionError
from repro.sql.parser import parse_query
from repro.sql.transform import (
    PartialAggregate,
    split_partial_aggregates,
    split_row_stream,
)


def _merge(rows, key_width, partials):
    groups = merge_partial_rows(rows, key_width, partials)
    return {
        key: tuple(state.result() for state in states)
        for key, states in groups.items()
    }


class TestPartialMerge:
    def test_sum_count_min_max_across_shards(self):
        partials = (
            PartialAggregate(text="SUM(x)", kind="sum", columns=(1,)),
            PartialAggregate(text="COUNT(x)", kind="count", columns=(2,)),
            PartialAggregate(text="MIN(x)", kind="min", columns=(3,)),
            PartialAggregate(text="MAX(x)", kind="max", columns=(4,)),
        )
        rows = [
            ("a", 10.0, 2, 1, 9),  # shard 0
            ("a", 5.0, 1, 0, 5),  # shard 1
            ("b", 7.0, 3, 2, 4),  # shard 1 only
        ]
        merged = _merge(rows, 1, partials)
        assert merged[("a",)] == (15.0, 3, 0, 9)
        assert merged[("b",)] == (7.0, 3, 2, 4)

    def test_avg_is_global_sum_over_global_count(self):
        """AVG must not average the per-shard averages."""
        partials = (PartialAggregate(text="AVG(x)", kind="avg", columns=(0, 1)),)
        # shard 0: one row of 10; shard 1: three rows of 1 -> global AVG 3.25
        merged = _merge([(10.0, 1), (3.0, 3)], 0, partials)
        assert merged[()] == (3.25,)

    def test_null_semantics(self):
        """SUM of an all-NULL group is NULL; AVG of an empty group is NULL;
        COUNT is 0 — matching the engine's aggregates."""
        partials = (
            PartialAggregate(text="SUM(x)", kind="sum", columns=(0,)),
            PartialAggregate(text="COUNT(x)", kind="count", columns=(1,)),
            PartialAggregate(text="AVG(x)", kind="avg", columns=(0, 1)),
            PartialAggregate(text="MIN(x)", kind="min", columns=(2,)),
        )
        merged = _merge([(None, 0, None), (None, 0, None)], 0, partials)
        assert merged[()] == (None, 0, None, None)


class _RowOracleMerge(MergeCompiler):
    """The same residual rewrite, evaluated by the row interpreter."""

    kernel_compiler = RowOracleCompiler


def _compilers(texts, aliases=(), functions=None, parameters=None):
    return [
        cls(texts, alias_names=aliases, functions=functions or {}, parameters=parameters)
        for cls in (MergeCompiler, _RowOracleMerge)
    ]


def _evaluate(expr, texts, rows, aliases=(), functions=None, parameters=None):
    """``expr``'s column over merged ``rows``, batch kernels == row oracle."""
    batch_column, oracle_column = (
        compiler.compile(expr)(RowBatch(rows), ())
        for compiler in _compilers(texts, aliases, functions, parameters)
    )
    assert batch_column == oracle_column
    return batch_column


def _assert_refused(expr, texts, rows, match, parameters=None):
    """Both compilers raise ``match`` over ``rows`` and accept zero groups."""
    for compiler in _compilers(texts, parameters=parameters):
        kernel = compiler.compile(expr)
        with pytest.raises(ExecutionError, match=match):
            kernel(RowBatch(rows), ())
        assert kernel(RowBatch([]), ()) == []


def _item(sql):
    return parse_query(f"SELECT {sql} FROM t").items[0].expr


class TestMergeEvaluator:
    """Residual semantics over merged bindings, each case checked against
    the row interpreter over the same rewritten tree."""

    def test_arithmetic_over_bindings(self):
        expr = _item("SUM(a) / SUM(b)")
        assert _evaluate(expr, ["SUM(a)", "SUM(b)"], [(10.0, 4.0)]) == [2.5]

    def test_case_and_comparison(self):
        expr = _item("CASE WHEN SUM(a) > 5 THEN 'big' ELSE 'small' END")
        assert _evaluate(expr, ["SUM(a)"], [(10,), (1,)]) == ["big", "small"]

    def test_division_by_zero_matches_engine(self):
        expr = _item("SUM(a) / SUM(b)")
        for compiler in _compilers(["SUM(a)", "SUM(b)"]):
            with pytest.raises(ExecutionError, match="division by zero"):
                compiler.compile(expr)(RowBatch([(1.0, 0)]), ())

    def test_null_propagation(self):
        assert _evaluate(_item("SUM(a) * 2"), ["SUM(a)"], [(None,)]) == [None]

    def test_alias_lookup_for_having_and_order(self):
        query = parse_query("SELECT SUM(a) AS total FROM t GROUP BY g HAVING total > 3")
        assert _evaluate(query.having, [], [(7,)], aliases=["total"]) == [True]

    def test_scalar_functions(self):
        """COALESCE and registered Python UDFs evaluate post-merge."""
        functions = default_scalar_functions()
        functions["my_rate"] = lambda key: {1: 2.0}[key]
        expr = _item("COALESCE(SUM(a), 0) * my_rate(1)")
        column = _evaluate(expr, ["SUM(a)"], [(None,), (3.0,)], functions=functions)
        assert column == [0.0, 6.0]

    def test_unknown_function_raises(self):
        _assert_refused(_item("mystery(1)"), [], [()], "cannot evaluate")


class TestBatchMergeEvaluator:
    """One compile per statement, one kernel call over all merged groups."""

    def test_compiled_kernel_evaluates_all_groups_at_once(self):
        column = _evaluate(
            _item("SUM(a) / SUM(b)"),
            ["SUM(a)", "SUM(b)"],
            [(10.0, 4.0), (9.0, 3.0), (1.0, 2.0)],
        )
        assert column == [2.5, 3.0, 0.5]

    def test_matches_row_evaluator_on_mixed_expressions(self):
        functions = default_scalar_functions()
        texts = ["g", "SUM(a)", "COUNT(a)"]
        rows = [(1, 10.0, 4), (2, None, 0), (3, -2.5, 1)]
        for sql in (
            "CASE WHEN SUM(a) > 5 THEN 'big' ELSE 'small' END",
            "COALESCE(SUM(a), 0) + COUNT(a)",
            "g * 2 - COUNT(a)",
            "SUM(a) IS NULL",
            "SUM(a) BETWEEN 0 AND 100",
            "g IN (1, 3)",
            "NOT (COUNT(a) > 2)",
            "CASE WHEN COUNT(a) > 0 THEN SUM(a) / COUNT(a) END",
            "g || '-' || COUNT(a)",
        ):
            column = _evaluate(_item(sql), texts, rows, functions=functions)
            assert len(column) == len(rows), sql

    def test_alias_columns_resolve_in_having_position(self):
        query = parse_query(
            "SELECT SUM(a) AS total FROM t GROUP BY g HAVING total > 3"
        )
        # batch rows: bindings then alias values
        column = _evaluate(
            query.having, ["g", "SUM(a)"], [(1, 7.0, 7.0), (2, 1.0, 1.0)], aliases=["total"]
        )
        assert column == [True, False]

    def test_bound_parameters_become_literals(self):
        column = _evaluate(_item("SUM(a) > ?"), ["SUM(a)"], [(5.0,), (1.0,)], parameters=[2])
        assert column == [True, False]

    def test_unknown_function_falls_back_to_the_row_error(self):
        _assert_refused(_item("mystery(SUM(a))"), ["SUM(a)"], [(1.0,)], "cannot evaluate")

    def test_unbound_column_falls_back_to_the_row_error(self):
        _assert_refused(_item("stray"), ["SUM(a)"], [(1.0,)], "unbound merge column")

    def test_unbound_parameter_raises_only_over_groups(self):
        _assert_refused(
            _item("SUM(a) > ?"), ["SUM(a)"], [(1.0,)], "no value for parameter"
        )


class TestSortRows:
    def test_stable_multi_key_mixed_directions(self):
        rows = [(1, "b"), (2, "a"), (1, "a"), (2, "b")]
        ordered = sort_rows(rows, [(0, False), (1, True)])
        assert ordered == [(1, "b"), (1, "a"), (2, "b"), (2, "a")]

    def test_nulls_sort_first_like_the_engine(self):
        rows = [(3,), (None,), (1,)]
        assert sort_rows(rows, [(0, False)]) == [(None,), (1,), (3,)]


class TestSplits:
    def test_split_partial_aggregates_layout(self):
        query = parse_query(
            "SELECT g, SUM(a) AS s, AVG(b) AS m, COUNT(*) AS n FROM t GROUP BY g "
            "HAVING SUM(a) > 1 ORDER BY s DESC LIMIT 5"
        )
        split = split_partial_aggregates(query)
        assert split.key_texts == ("g",)
        kinds = [partial.kind for partial in split.partials]
        assert kinds == ["sum", "avg", "count"]
        # shard query: keys first, then partials; merge clauses stripped
        assert split.shard_query.having is None
        assert split.shard_query.order_by == []
        assert split.shard_query.limit is None
        assert len(split.shard_query.items) == 1 + 4  # g + sum + (avg sum, avg count) + count

    def test_split_rejects_distinct_aggregates(self):
        from repro.errors import SplitError

        query = parse_query("SELECT COUNT(DISTINCT a) FROM t")
        with pytest.raises(SplitError, match="not partial-mergeable"):
            split_partial_aggregates(query)

    def test_split_row_stream_hidden_sort_columns(self):
        query = parse_query("SELECT a, b FROM t ORDER BY c DESC, a LIMIT 3")
        split = split_row_stream(query)
        assert split.visible_width == 2
        assert len(split.shard_query.items) == 3  # c appended as hidden key
        assert split.sort_columns == ((2, True), (0, False))
        assert split.limit == 3
        assert split.shard_query.limit is None

    def test_split_row_stream_rejects_distinct_with_hidden_key(self):
        from repro.errors import SplitError

        query = parse_query("SELECT DISTINCT a FROM t ORDER BY b")
        with pytest.raises(SplitError, match="DISTINCT"):
            split_row_stream(query)
