"""The result oracle: stored digests of normalized result rows.

``oracle.json`` (written by ``make_oracle.py``) holds, for the fixed data
set of :mod:`setup_mth`:

* ``queries`` — the digest of each of the 22 MT-H queries, run as client 1
  at O4 with D = all 10 tenants on one engine.  Both analytic workloads must
  match them, which also makes the 2-shard results equal the one-engine
  results;
* ``serving`` — the key lists the serving traffic draws from, the orders
  reserved for writes with their original priorities, and the digest of
  every read the traffic can generate (shape x client x tenant x choice).

Digests are taken over :func:`repro.backends.base.normalized_rows`, which
sorts rows and rounds floats to 12 significant digits.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Iterable

from repro.backends.base import normalized_rows

ORACLE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracle.json")


def rows_digest(rows) -> str:
    """Digest of a result's normalized rows (order-insensitive)."""
    return hashlib.sha256(repr(normalized_rows(list(rows))).encode("utf-8")).hexdigest()[:20]


def sequence_digest(digests: Iterable[str]) -> str:
    """Digest of a sequence of digests, in order."""
    hasher = hashlib.sha256()
    for digest in digests:
        hasher.update(digest.encode("ascii"))
        hasher.update(b"\n")
    return hasher.hexdigest()[:20]


def load_oracle(path: str = ORACLE_PATH) -> dict:
    """The stored oracle."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class QueryOracle:
    """Checks the 22 MT-H query results; counts mismatches."""

    def __init__(self, oracle: dict) -> None:
        self.expected = {int(key): value for key, value in oracle["queries"].items()}
        self.checked = 0
        self.mismatches: list[str] = []

    def check(self, query_id: int, rows) -> bool:
        self.checked += 1
        if rows_digest(rows) == self.expected[query_id]:
            return True
        self.mismatches.append(f"Q{query_id}")
        return False
