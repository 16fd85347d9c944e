"""Shared fixtures and helpers for the MT-H benchmark suite.

Every pytest-benchmark module regenerates one of the paper's tables or
figures.  Because the engine is pure Python, the default configuration uses a
micro scale factor and a representative subset of queries; set

* ``REPRO_BENCH_SF``   — scale factor (default 0.002),
* ``REPRO_BENCH_FULL`` — ``1`` to run all 22 queries and all six levels,

to run the full grids (slower, but exactly the paper's tables).
"""

from __future__ import annotations

import pytest

from repro.bench.tables import TABLE_CONFIGS, time_query
from repro.bench.workload import WorkloadConfig, env_full, load_workload
from repro.mth.queries import ALL_QUERY_IDS, query_text

FULL = env_full()

#: representative queries: conversion heavy (1, 6, 22), join heavy (3, 10),
#: global-table only (11), CASE/aggregation (14)
DEFAULT_QUERY_IDS = (1, 3, 6, 10, 11, 14, 22)
QUERY_IDS = ALL_QUERY_IDS if FULL else DEFAULT_QUERY_IDS

DEFAULT_LEVELS = ("canonical", "o1", "o4", "inl-only")
LEVELS = ("canonical", "o1", "o2", "o3", "o4", "inl-only") if FULL else DEFAULT_LEVELS


def table_workload(table_id: str):
    """Load (once per session) the scenario-1 workload for a table experiment."""
    spec = TABLE_CONFIGS[table_id]
    config = WorkloadConfig.scenario1(profile=spec["profile"])
    return load_workload(config), spec


def run_mth_query(benchmark, workload, spec, level: str, query_id: int) -> None:
    """Benchmark one (level, query) cell of a response-time table."""
    connection = workload.connection(
        client=spec["client"], optimization=level, dataset=spec["dataset"]
    )
    text = query_text(query_id)
    workload.reset_caches()
    benchmark.pedantic(lambda: connection.query(text), rounds=1, iterations=1, warmup_rounds=0)


def run_baseline_query(benchmark, workload, query_id: int) -> None:
    text = query_text(query_id)
    workload.reset_caches()
    benchmark.pedantic(
        lambda: workload.baseline.query(text), rounds=1, iterations=1, warmup_rounds=0
    )


@pytest.fixture(scope="session")
def scenario1_postgres():
    workload, _ = table_workload("5")
    return workload


@pytest.fixture(scope="session")
def scenario1_systemc():
    workload, _ = table_workload("9")
    return workload
