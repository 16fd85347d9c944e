"""Differential suite: proven vs. observed-typed vs. generic vs. row oracle.

The engine's four kernel legs, each the oracle for the one above it:

* **proven** — the default: typed kernels plus the type checker's
  proven-NOT-NULL facts selecting null-check-free kernel variants,
* **observed** — typed kernels without facts (``compiler.typecheck``
  off): nullability is observed per ``TypedColumn``, never proven,
* **generic** — ``REPRO_ENGINE_TYPED=0``: the generic object-list batch
  kernels,
* **row** — :class:`~repro.engine.vector.RowOracleCompiler`: the same
  operator pipeline with every expression evaluated by the row-at-a-time
  interpreter, an evaluator independent of the batch kernels.

These tests load the *same* generated MT-H data into four engine
instances (with a small batch size, so every query crosses batch
boundaries) and assert that every MT-H query, both scenarios, ``D' =
{single, subset, all}``, produces *exactly* identical results: same rows,
same order, same float bits (the batch aggregates accumulate in row order
on purpose, so no normalization is needed).  Q1/Q6 additionally pin that
the proven leg really dispatches proven kernels — the counters that
``EXPLAIN ANALYZE`` reports as ``kernels ... proven=P``.
"""

from __future__ import annotations

import pytest

from repro.backends import EngineBackend
from repro.engine import Database, RowOracleCompiler, VectorConfig
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


def _engine_instance(tiny_tpch_data, scenario: str, typed: bool = True, compiler=None):
    database = Database(vector=VectorConfig(batch_size=BATCH, typed=typed))
    if compiler is not None:
        database.kernel_compiler = compiler
    return load_mth(
        data=tiny_tpch_data,
        tenants=TENANTS,
        distribution=scenario,
        backend=EngineBackend(database=database),
    )


@pytest.fixture(scope="module", params=SCENARIOS)
def engine_quartet(request, tiny_tpch_data):
    """The same MT-H data in proven, observed-typed, generic and row engines."""
    proven = _engine_instance(tiny_tpch_data, request.param)
    observed = _engine_instance(tiny_tpch_data, request.param)
    # same engine configuration, but no SemanticFacts: nullability stays
    # observed per TypedColumn, the proven kernel variants never fire
    observed.middleware.compiler.typecheck = False
    generic = _engine_instance(tiny_tpch_data, request.param, typed=False)
    row_mode = _engine_instance(
        tiny_tpch_data, request.param, compiler=RowOracleCompiler
    )
    # the facts legs pin the checker on explicitly, so the quartet keeps its
    # shape even on the CI leg that exports REPRO_COMPILE_TYPECHECK=0
    for instance in (proven, generic, row_mode):
        instance.middleware.compiler.typecheck = True
    return proven, observed, generic, row_mode


def _connection(instance, scope: str, optimization: str = "o4"):
    connection = instance.middleware.connect(CLIENT, optimization=optimization)
    connection.set_scope(scope)
    return connection


@pytest.mark.parametrize("query_id", ALL_QUERY_IDS)
def test_mth_query_results_bit_identical(engine_quartet, query_id):
    proven, observed, generic, row_mode = engine_quartet
    text = query_text(query_id)
    for name, scope in DATASETS.items():
        proven_result = _connection(proven, scope).query(text)
        observed_result = _connection(observed, scope).query(text)
        generic_result = _connection(generic, scope).query(text)
        row_result = _connection(row_mode, scope).query(text)
        assert (
            proven_result.columns
            == observed_result.columns
            == generic_result.columns
            == row_result.columns
        ), f"Q{query_id} D'={name}: columns differ"
        assert proven_result.rows == observed_result.rows, (
            f"Q{query_id} D'={name}: proven kernels diverge from observed-typed"
        )
        assert observed_result.rows == generic_result.rows, (
            f"Q{query_id} D'={name}: typed kernels diverge from generic kernels"
        )
        assert generic_result.rows == row_result.rows, (
            f"Q{query_id} D'={name}: batch kernels diverge from the row oracle"
        )


@pytest.mark.parametrize("level", ["canonical", "o1"])
def test_udf_counters_identical_across_modes(engine_quartet, level):
    """Memo-batched UDF dispatch keeps counter parity with the row oracle.

    At low optimization levels the conversion UDFs execute instead of being
    inlined; the batch path dedupes ``(function, args)`` per batch but must
    report the *same* call/execution/cache-hit counts the row oracle reports
    (satellite #6: distinct conversion evaluations counted identically).
    """
    for query_id in CONVERSION_INTENSIVE:
        text = query_text(query_id)
        counters = []
        for instance in engine_quartet:
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


def test_streaming_results_identical_across_modes(engine_quartet):
    """`execute_stream` yields the same rows in the same order in all modes."""
    proven, *others = engine_quartet
    rewritten = _connection(proven, "IN ()").rewrite(query_text(6))
    proven_rows = proven.middleware.backend.execute_stream(rewritten).materialize().rows
    for instance in others:
        rows = instance.middleware.backend.execute_stream(rewritten).materialize().rows
        assert rows == proven_rows


@pytest.mark.parametrize("query_id", [1, 6])
def test_proven_kernels_dispatch_on_scan_heavy_queries(engine_quartet, query_id):
    """Q1/Q6 really take the null-check-free proven kernel variants.

    ``explain(analyze=True)`` reports the per-operator dispatch split; on
    the proven leg every dispatch that would have been merely *typed* is
    proven (MT-H declares every column NOT NULL), and on the observed leg
    (no SemanticFacts) the proven bucket stays empty.
    """
    proven, observed, _, _ = engine_quartet
    text = query_text(query_id)

    report = _connection(proven, "IN (1, 3)").explain(text, analyze=True)
    proven_kernels = sum(op.proven_kernels for op in report.operators)
    typed_kernels = sum(op.typed_kernels for op in report.operators)
    assert proven_kernels > 0, f"Q{query_id}: no proven kernel dispatches"
    assert typed_kernels == 0, (
        f"Q{query_id}: {typed_kernels} dispatches fell back to observed "
        f"nullability despite schema-proven NOT NULL columns"
    )

    report = _connection(observed, "IN (1, 3)").explain(text, analyze=True)
    assert sum(op.proven_kernels for op in report.operators) == 0
    assert sum(op.typed_kernels for op in report.operators) > 0
