"""Regenerate ``oracle.json`` from the fixed MT-H data set.

Run from the repository root::

    python3 perfbench/make_oracle.py

The 22 query digests come from one in-memory engine (client 1, O4, D = all
10 tenants); the script refuses to write them unless a ``sharded:2``
cluster returns the same digests.  Serving reads are answered through a
direct ``MTConnection`` per client — no gateway, server or wire — so the
benchmark compares the served path against the direct one.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.mth import ALL_QUERY_IDS, query_text  # noqa: E402

import setup_mth  # noqa: E402
import traffic  # noqa: E402
from oracle import ORACLE_PATH, rows_digest  # noqa: E402

#: orders per writing tenant reserved for writes (never read)
RESERVED_ORDERS = 4

SERVING_TENANTS = 100


def query_digests(shards) -> dict:
    loaded = setup_mth.load_once(10, "uniform", shards)
    connection = loaded.instance.middleware.connect(1, optimization="o4")
    connection.set_scope("IN ()")
    return {str(q): rows_digest(connection.query(query_text(q)).rows) for q in ALL_QUERY_IDS}


def spaced(values: list, count: int) -> list:
    """``count`` evenly spaced picks from ``values`` (all of them if fewer)."""
    if len(values) <= count:
        return list(values)
    step = len(values) / count
    return [values[int(index * step)] for index in range(count)]


def serving_keys(instance) -> dict:
    data = instance.data
    owner = {row[0]: ttid for row, ttid in zip(data.customer, instance.customer_tenants)}
    orders: dict[int, list[int]] = {t: [] for t in range(1, SERVING_TENANTS + 1)}
    customers: dict[int, set[int]] = {t: set() for t in range(1, SERVING_TENANTS + 1)}
    priority = {}
    for row in data.orders:
        tenant = owner[row[1]]
        orders[tenant].append(row[0])
        customers[tenant].add(row[1])
        priority[row[0]] = row[5]
    write_orders = {}
    original = {}
    for client in traffic.CLIENTS:
        reserved = sorted(orders[client])[-RESERVED_ORDERS:]
        write_orders[str(client)] = reserved
        original[str(client)] = {str(key): priority[key] for key in reserved}
        orders[client] = [key for key in orders[client] if key not in reserved]
    return {
        "orders": {str(t): spaced(sorted(keys), traffic.CHOICES) for t, keys in orders.items()},
        "customers": {
            str(t): spaced(sorted(keys), traffic.CHOICES) for t, keys in customers.items()
        },
        "write_orders": write_orders,
        "original_priorities": original,
    }


def read_digests(instance, keys: dict) -> dict:
    digests = {}
    for client in traffic.CLIENTS:
        connection = instance.middleware.connect(client, optimization="o4")
        for tenant in range(1, SERVING_TENANTS + 1):
            connection.set_scope(f"IN ({tenant})")
            for shape in traffic.SHAPE_NAMES:
                for choice in range(traffic.CHOICES):
                    params = traffic.read_parameters(keys, shape, tenant, choice)
                    rows = connection.query(traffic.READ_SHAPES[shape], parameters=params).rows
                    digests[traffic.oracle_key(shape, client, tenant, choice)] = rows_digest(rows)
    return digests


def main() -> int:
    single = query_digests(None)
    sharded = query_digests(2)
    differing = sorted(int(q) for q in single if single[q] != sharded[q])
    if differing:
        print(f"sharded:2 differs from one engine on {differing}; oracle not written")
        return 1
    instance = setup_mth.load_once(SERVING_TENANTS, "zipf", None).instance
    keys = serving_keys(instance)
    serving = {
        "tenants": SERVING_TENANTS,
        "distribution": "zipf",
        **keys,
        "reads": read_digests(instance, keys),
    }
    oracle = {
        "scale_factor": setup_mth.SCALE_FACTOR,
        "data_seed": setup_mth.DATA_SEED,
        "queries": single,
        "serving": serving,
    }
    with open(ORACLE_PATH, "w", encoding="utf-8") as handle:
        json.dump(oracle, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"wrote {ORACLE_PATH}: 22 queries, {len(serving['reads'])} reads")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
