#!/usr/bin/env python3
"""Serving demo: N tenant sessions through the query gateway.

Loads a micro MT-H instance, opens one gateway session per tenant plus a
cross-tenant "research" session, and runs rounds of a mixed query workload
through every session in turn:

* the first round is cold — every statement pays parse + rewrite +
  optimization,
* the later rounds are warm — the rewrite cache serves every statement.

The script prints per-round latency and the cache hit rate, and verifies
that warm results equal the cold ones.  Concurrent serving over the network
is ``examples/network_serving.py``.

Run with ``PYTHONPATH=src python examples/gateway_serving.py``; pass
``--backend sqlite`` to serve the workload from the SQLite execution backend
instead of the in-memory engine.
"""

import argparse
import time

from repro.backends import BACKEND_NAMES
from repro.bench.workload import WorkloadConfig, load_workload
from repro.gateway import summarize
from repro.mth.queries import query_text

TENANTS = 4
SCALE_FACTOR = 0.001
QUERY_IDS = (1, 3, 6, 10, 22)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default="engine",
        help="execution backend serving the workload (default: engine)",
    )
    return parser.parse_args()


def build_batches(gateway, tenants):
    """One session per tenant (own scope) plus one all-tenant research session."""
    batches = []
    for ttid in range(1, tenants + 1):
        session = gateway.session(ttid, optimization="o4", scope=f"IN ({ttid})")
        batches.append((session, [query_text(query_id) for query_id in QUERY_IDS]))
    research = gateway.session(1, optimization="o4", scope="IN ()")
    batches.append((research, [query_text(query_id) for query_id in QUERY_IDS]))
    return batches


def run_round(batches):
    """Run every batch once; return its per-statement rows and the summary."""
    rows, latencies = [], []
    for session, statements in batches:
        for sql in statements:
            started = time.perf_counter()
            rows.append(session.query(sql).rows)
            latencies.append(time.perf_counter() - started)
    return rows, summarize(latencies)


def main() -> None:
    args = parse_args()
    print(f"loading MT-H: sf={SCALE_FACTOR}, {TENANTS} tenants, backend={args.backend} ...")
    workload = load_workload(
        WorkloadConfig(
            scale_factor=SCALE_FACTOR,
            tenants=TENANTS,
            distribution="uniform",
            backend=args.backend,
        )
    )
    gateway = workload.gateway(cache_size=512)
    batches = build_batches(gateway, TENANTS)
    sessions = len(batches)
    backend = workload.backend
    print(
        f"{sessions} sessions x {len(QUERY_IDS)} queries, O4, "
        f"served by the {backend.name!r} backend ({backend.dialect.name} dialect)\n"
    )

    cold_rows, cold = run_round(batches)
    print(f"cold (parse + rewrite + execute): {cold.describe()}")

    # micro-scale rounds are noisy; report the median of three warm rounds
    # (benchmarks/test_ablation_gateway_cache.py has controlled numbers)
    warm_rounds = [run_round(batches) for _ in range(3)]
    warm_rows, warm = sorted(warm_rounds, key=lambda round_: round_[1].mean)[1]
    print(f"warm (rewrite cache hits):        {warm.describe()}")

    if warm_rows != cold_rows:
        raise SystemExit("warm results differ from cold results")
    print("\nwarm results identical to cold results: ok")

    stats = gateway.cache_stats
    print(
        f"cache: {stats.hits} hits / {stats.lookups} lookups "
        f"(hit rate {stats.hit_rate:.1%}), {stats.misses} misses, "
        f"{stats.evictions} evictions"
    )
    speedup = cold.mean / warm.mean if warm.mean else float("inf")
    print(f"mean per-statement latency: cold {cold.mean * 1e3:.2f}ms -> "
          f"warm {warm.mean * 1e3:.2f}ms ({speedup:.1f}x)")
    for session in gateway.sessions:
        print(f"  {session!r}")


if __name__ == "__main__":
    main()
