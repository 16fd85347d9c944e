"""Ablation: typed kernels vs. generic batch kernels vs. the row oracle.

The engine's hot path runs typed-column kernels (``repro.engine.columns`` +
the specialized paths in ``repro.engine.vector``); below them sit the
generic object-list batch kernels
(:class:`~repro.engine.vector.GenericKernelCompiler`), and below
those the row-at-a-time interpreter kept as the bit-identical differential
oracle (:class:`~repro.engine.vector.RowOracleCompiler`, the same operator
pipeline with every expression interpreted per row).  This ablation times
the *same* rewritten statement in all three modes on the same loaded engine
database
and attaches both ratios to ``extra_info`` — scan-heavy aggregations
(Q1/Q6-class) are where the batch kernels pay off most, so those are the
measured mix.

Ratios are reported, not asserted: wall-clock multiples are hardware- and
load-dependent, and a flaky threshold would hide real regressions behind
retries.  Result rows ARE asserted identical across all three modes — a
speedup measured against a wrong answer is meaningless.
"""

import time

import pytest

from repro.bench.workload import WorkloadConfig, load_workload
from repro.engine import (
    BatchExpressionCompiler,
    GenericKernelCompiler,
    RowOracleCompiler,
)
from repro.mth.queries import query_text

#: scan-dominated aggregation queries, where vectorization matters most
QUERY_IDS = (1, 6)
#: single-shot timing repeated this many times; the minimum is reported
ROUNDS = 3


@pytest.fixture(scope="module")
def workload():
    return load_workload(WorkloadConfig.scenario1())


def _best_of(fn, rounds=ROUNDS):
    best = None
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _ratio(slow: float, fast: float) -> float:
    return round(slow / fast if fast > 0 else float("inf"), 3)


@pytest.mark.parametrize("query_id", QUERY_IDS)
def test_vectorized_speedup(benchmark, workload, query_id):
    """Measure row vs. generic-batch vs. typed execution of one MT-H query."""
    database = getattr(workload.backend, "engine_database", None)
    if database is None:
        pytest.skip("the speedup ablation needs the in-memory engine backend")
    connection = workload.connection(client=1, dataset="all")
    rewritten = connection.rewrite(query_text(query_id))

    def _measure(compiler):
        database.kernel_compiler = compiler
        database.executor.invalidate()  # SQL-UDF body plans hold kernels
        workload.reset_caches()
        try:
            return _best_of(lambda: workload.backend.execute(rewritten))
        finally:
            del database.kernel_compiler  # back to the class default
            database.executor.invalidate()

    row_seconds, row_result = _measure(RowOracleCompiler)
    generic_seconds, generic_result = _measure(GenericKernelCompiler)
    typed_seconds, typed_result = _measure(BatchExpressionCompiler)
    # the benchmarked unit is one more typed run, for the report
    benchmark.pedantic(
        lambda: workload.backend.execute(rewritten), rounds=1, iterations=1
    )

    assert typed_result.rows == generic_result.rows == row_result.rows
    benchmark.extra_info["execute_row_ms"] = round(row_seconds * 1000.0, 4)
    benchmark.extra_info["execute_generic_ms"] = round(generic_seconds * 1000.0, 4)
    benchmark.extra_info["execute_typed_ms"] = round(typed_seconds * 1000.0, 4)
    # generic batch kernels over the row oracle (the PR 7 win) ...
    benchmark.extra_info["vectorized_speedup"] = _ratio(row_seconds, generic_seconds)
    # ... and typed kernels over the generic batch kernels (this PR's win)
    benchmark.extra_info["typed_speedup"] = _ratio(generic_seconds, typed_seconds)
    benchmark.extra_info["speedup"] = _ratio(row_seconds, typed_seconds)
