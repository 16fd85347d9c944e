"""Plan-choice differential suite: the costed planner vs. the uncosted oracle.

The cost model changes *plans*, never *rows*: with statistics enabled the
cluster planner reorders joins, pushes prefilter predicates and column
subsets into the per-shard pulls of federated plans, and the engine planner
orders comma-joins by estimated filtered cardinality.  This suite proves the
choices are pure optimizations — every MT-H query, on both benchmark
scenarios, for ``D' = {single, subset, all}`` and shards ∈ {1, 2, 4},
returns row-set-identical results with the cost model on and off
(``set_cost`` toggles the same switch as ``REPRO_COMPILE_COST=0``).

The taxonomy tests pin *which* plans the cost model improves: the four
federated queries (Q15/Q17/Q20/Q22) leave the pull-everything path and gain
per-table prefilters and pull-column subsets.
"""

from __future__ import annotations

import pytest

from repro.backends import normalized_rows
from repro.cluster import FederatedPlan
from repro.mth.loader import load_mth
from repro.mth.queries import ALL_QUERY_IDS, query_text

TENANTS = 4
CLIENT = 1
SHARD_COUNTS = (1, 2, 4)

#: the three D' shapes of the acceptance grid
DATASETS = {
    "single": "IN (2)",
    "subset": "IN (1, 3)",
    "all": "IN ()",
}

#: the paper's two scenarios: business alliance (uniform), research (zipf)
SCENARIOS = ("uniform", "zipf")

#: MT-H queries the cluster planner cannot decompose (they fall back to the
#: federated strategy) — exactly these gain costed pull pushdown
FEDERATED_QUERY_IDS = {15, 17, 20, 22}

#: tables whose federated pull gains a pushed-down prefilter, per query
#: (uniform scenario, 4 shards, D' = all): Q15 filters lineitem by the
#: shipdate window, Q17 adds a synthesized semi-join against the filtered
#: part table, Q20 prefilters all five of its tables, Q22 pushes the
#: OR of the customer occurrences' phone-prefix predicates
EXPECTED_PREFILTERED_TABLES = {
    15: {"lineitem"},
    17: {"lineitem", "part"},
    20: {"lineitem", "nation", "part", "partsupp", "supplier"},
    22: {"customer"},
}


@pytest.fixture(scope="module", params=SCENARIOS)
def cost_grid(request, tiny_tpch_data):
    """MT-H clusters for 1/2/4 shards, with the cost model toggleable."""
    clusters = {
        shard_count: load_mth(
            data=tiny_tpch_data,
            tenants=TENANTS,
            distribution=request.param,
            shards=shard_count,
        )
        for shard_count in SHARD_COUNTS
    }
    yield request.param, clusters
    for instance in clusters.values():
        instance.middleware.backend.close()


def _connection(instance, scope: str):
    connection = instance.middleware.connect(CLIENT, optimization="o4")
    connection.set_scope(scope)
    return connection


@pytest.mark.parametrize("query_id", ALL_QUERY_IDS)
def test_costed_plans_are_row_identical(cost_grid, query_id):
    """Cost on vs. cost off: identical row sets across the whole grid."""
    _scenario, clusters = cost_grid
    text = query_text(query_id)
    for name, scope in DATASETS.items():
        for shard_count, cluster in clusters.items():
            sharded = cluster.middleware.backend
            sharded.set_cost(True)
            costed = normalized_rows(_connection(cluster, scope).query(text))
            costed_plan = sharded.last_plan
            sharded.set_cost(False)
            try:
                uncosted = normalized_rows(_connection(cluster, scope).query(text))
                uncosted_plan = sharded.last_plan
            finally:
                sharded.set_cost(True)
            assert costed == uncosted, (
                f"Q{query_id} D'={name} shards={shard_count}: costed plan "
                f"({costed_plan.describe() if costed_plan else 'none'}) and "
                f"uncosted plan "
                f"({uncosted_plan.describe() if uncosted_plan else 'none'}) "
                f"return different row sets"
            )


def test_federated_queries_gain_prefilters(cost_grid):
    """The costed planner prefilters exactly the federated queries' pulls."""
    scenario, clusters = cost_grid
    cluster = clusters[4]
    sharded = cluster.middleware.backend
    sharded.set_cost(True)
    connection = _connection(cluster, DATASETS["all"])
    prefiltered: dict[int, set[str]] = {}
    for query_id in ALL_QUERY_IDS:
        connection.query(query_text(query_id))
        plan = sharded.last_plan
        if isinstance(plan, FederatedPlan) and plan.prefilters:
            prefiltered[query_id] = {
                prefilter.table.lower() for prefilter in plan.prefilters
            }
            assert plan.pull_columns, (
                f"Q{query_id}: a federated plan with prefilters should also "
                f"carry pull-column subsets"
            )
    assert set(prefiltered) == FEDERATED_QUERY_IDS, (
        f"scenario {scenario}: prefiltered plans {sorted(prefiltered)} != "
        f"the federated queries {sorted(FEDERATED_QUERY_IDS)}"
    )
    for query_id, expected in EXPECTED_PREFILTERED_TABLES.items():
        assert prefiltered[query_id] == expected, (
            f"Q{query_id}: prefiltered tables {sorted(prefiltered[query_id])} "
            f"!= expected {sorted(expected)}"
        )


def test_uncosted_plans_carry_no_pushdown(cost_grid):
    """With the cost model off, federated plans pull everything (the seed
    semantics the differential baseline runs against)."""
    _scenario, clusters = cost_grid
    cluster = clusters[4]
    sharded = cluster.middleware.backend
    sharded.set_cost(False)
    try:
        connection = _connection(cluster, DATASETS["all"])
        for query_id in sorted(FEDERATED_QUERY_IDS):
            connection.query(query_text(query_id))
            plan = sharded.last_plan
            assert isinstance(plan, FederatedPlan)
            assert plan.prefilters == ()
            assert plan.pull_columns == ()
    finally:
        sharded.set_cost(True)


def test_prefilters_reduce_pulled_volume(cost_grid):
    """The pushed-down pulls ship strictly fewer rows and cells per shard."""
    _scenario, clusters = cost_grid
    cluster = clusters[4]
    sharded = cluster.middleware.backend
    connection = _connection(cluster, DATASETS["all"])
    for query_id in sorted(FEDERATED_QUERY_IDS):
        text = query_text(query_id)
        sharded.set_cost(True)
        sharded._scratch_state.clear()
        sharded.reset_pull_counters()
        connection.query(text)
        costed = (sharded.rows_pulled, sharded.cells_pulled)
        assert sharded.prefiltered_syncs > 0
        sharded.set_cost(False)
        try:
            sharded._scratch_state.clear()
            sharded.reset_pull_counters()
            connection.query(text)
            uncosted = (sharded.rows_pulled, sharded.cells_pulled)
        finally:
            sharded.set_cost(True)
        # strict reduction on both axes for every federated query
        assert costed[0] < uncosted[0], (
            f"Q{query_id}: costed pull ships {costed[0]} rows, uncosted "
            f"{uncosted[0]} — expected a strict reduction"
        )
        assert costed[1] < uncosted[1], (
            f"Q{query_id}: costed pull ships {costed[1]} cells, uncosted "
            f"{uncosted[1]} — expected a strict reduction"
        )


def test_federated_pulls_repeat_for_a_repeated_query_order(cost_grid):
    """Pull volume is a function of the statement order, not drifting state.

    The scratch copy reuses a table pulled by an earlier statement when that
    pull covers the later request, so what a federated query pulls depends
    on what ran before it.  From a cleared scratch copy the same order must
    pull exactly the same rows and cells, query by query.
    """
    _scenario, clusters = cost_grid
    cluster = clusters[2]
    sharded = cluster.middleware.backend
    connection = _connection(cluster, DATASETS["all"])

    def pulls() -> list[tuple[int, int]]:
        sharded._scratch_state.clear()
        volumes = []
        for query_id in sorted(FEDERATED_QUERY_IDS):
            sharded.reset_pull_counters()
            connection.query(query_text(query_id))
            volumes.append((sharded.rows_pulled, sharded.cells_pulled))
        return volumes

    first = pulls()
    assert sum(rows for rows, _cells in first) > 0
    assert pulls() == first, first
