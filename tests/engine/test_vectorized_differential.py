"""Differential suite: typed vs. generic vs. row oracle.

The engine's three kernel legs, each the oracle for the one above it:

* **typed** — the default :class:`~repro.engine.vector.BatchExpressionCompiler`:
  typed-column kernels with their generic fallback per batch,
* **generic** — :class:`~repro.engine.vector.GenericKernelCompiler`: the
  generic object-list batch kernels alone,
* **row** — :class:`~repro.engine.vector.RowOracleCompiler`: the same
  operator pipeline with every expression evaluated by the row-at-a-time
  interpreter, an evaluator independent of the batch kernels.

These tests load the *same* generated MT-H data into three engine
instances (with a small batch size, so every query crosses batch
boundaries) and assert that every MT-H query, both scenarios, ``D' =
{single, subset, all}``, produces *exactly* identical results: same rows,
same order, same float bits (the batch aggregates accumulate in row order
on purpose, so no normalization is needed).  Q1/Q6 additionally pin that
the typed leg really dispatches typed kernels and the generic leg none —
the counters that ``EXPLAIN ANALYZE`` reports as ``kernels typed=T``.
"""

from __future__ import annotations

import pytest

from repro.backends import EngineBackend
from repro.engine import Database, GenericKernelCompiler, RowOracleCompiler
from repro.mth.loader import load_mth
from repro.mth.queries import ALL_QUERY_IDS, CONVERSION_INTENSIVE, query_text

TENANTS = 4
CLIENT = 1

#: small enough that the tiny MT-H tables span several batches
BATCH = 128

#: the three D' shapes of the acceptance grid
DATASETS = {
    "single": "IN (2)",
    "subset": "IN (1, 3)",
    "all": "IN ()",
}

#: the paper's two scenarios: business alliance (uniform), research (zipf)
SCENARIOS = ("uniform", "zipf")


def _engine_instance(tiny_tpch_data, scenario: str, compiler=None):
    database = Database(batch_size=BATCH)
    if compiler is not None:
        database.kernel_compiler = compiler
    return load_mth(
        data=tiny_tpch_data,
        tenants=TENANTS,
        distribution=scenario,
        backend=EngineBackend(database=database),
    )


@pytest.fixture(scope="module", params=SCENARIOS)
def engine_trio(request, tiny_tpch_data):
    """The same MT-H data in typed, generic and row-oracle engines."""
    typed = _engine_instance(tiny_tpch_data, request.param)
    generic = _engine_instance(
        tiny_tpch_data, request.param, compiler=GenericKernelCompiler
    )
    row_mode = _engine_instance(
        tiny_tpch_data, request.param, compiler=RowOracleCompiler
    )
    return typed, generic, row_mode


def _connection(instance, scope: str, optimization: str = "o4"):
    connection = instance.middleware.connect(CLIENT, optimization=optimization)
    connection.set_scope(scope)
    return connection


@pytest.mark.parametrize("query_id", ALL_QUERY_IDS)
def test_mth_query_results_bit_identical(engine_trio, query_id):
    typed, generic, row_mode = engine_trio
    text = query_text(query_id)
    for name, scope in DATASETS.items():
        typed_result = _connection(typed, scope).query(text)
        generic_result = _connection(generic, scope).query(text)
        row_result = _connection(row_mode, scope).query(text)
        assert (
            typed_result.columns == generic_result.columns == row_result.columns
        ), f"Q{query_id} D'={name}: columns differ"
        assert typed_result.rows == generic_result.rows, (
            f"Q{query_id} D'={name}: typed kernels diverge from generic kernels"
        )
        assert generic_result.rows == row_result.rows, (
            f"Q{query_id} D'={name}: batch kernels diverge from the row oracle"
        )


@pytest.mark.parametrize("level", ["canonical", "o1"])
def test_udf_counters_identical_across_modes(engine_trio, level):
    """Memo-batched UDF dispatch keeps counter parity with the row oracle.

    At low optimization levels the conversion UDFs execute instead of being
    inlined; the batch path dedupes ``(function, args)`` per batch but must
    report the *same* call/execution/cache-hit counts the row oracle reports
    (satellite #6: distinct conversion evaluations counted identically).
    """
    for query_id in CONVERSION_INTENSIVE:
        text = query_text(query_id)
        counters = []
        for instance in engine_trio:
            instance.middleware.backend.reset_stats()
            _connection(instance, "IN (1, 3)", optimization=level).query(text)
            stats = instance.middleware.backend.stats
            counters.append(
                (stats.udf_calls, stats.udf_executions, stats.udf_cache_hits)
            )
        assert len(set(counters)) == 1, (
            f"Q{query_id} at {level}: UDF counters diverge between modes"
        )
    # the suite exercised the conversion path at all
    assert counters[0][0] > 0


def test_streaming_results_identical_across_modes(engine_trio):
    """`execute_stream` yields the same rows in the same order in all modes."""
    typed, *others = engine_trio
    rewritten = _connection(typed, "IN ()").rewrite(query_text(6))
    typed_rows = typed.middleware.backend.execute_stream(rewritten).materialize().rows
    for instance in others:
        rows = instance.middleware.backend.execute_stream(rewritten).materialize().rows
        assert rows == typed_rows


@pytest.mark.parametrize("query_id", [1, 6])
def test_typed_kernels_dispatch_on_scan_heavy_queries(engine_trio, query_id):
    """Q1/Q6 really take the typed kernels on the default leg.

    ``explain(analyze=True)`` reports the per-operator dispatch split; the
    default leg dispatches typed kernels over the scans' typed columns, and
    the generic leg compiles no specialization-capable kernel at all.
    """
    typed, generic, _ = engine_trio
    text = query_text(query_id)

    report = _connection(typed, "IN (1, 3)").explain(text, analyze=True)
    assert sum(op.typed_kernels for op in report.operators) > 0, (
        f"Q{query_id}: no typed kernel dispatches"
    )

    report = _connection(generic, "IN (1, 3)").explain(text, analyze=True)
    assert sum(op.typed_kernels for op in report.operators) == 0
    assert sum(op.generic_kernels for op in report.operators) == 0
