"""repro.gateway — a caching, concurrent multi-tenant query gateway.

The serving layer on top of the paper's middleware (Figure 4): statement
fingerprinting, a rewrite cache with LRU eviction and metadata-driven
invalidation, and per-tenant sessions with a prepared-statement API that
different threads may drive concurrently.

Typical use::

    from repro.gateway import QueryGateway

    gateway = QueryGateway(middleware, cache_size=512)
    session = gateway.session(ttid=1, optimization="o4", scope="IN ()")
    handle = session.prepare("SELECT ... FROM ...")
    result = session.execute(handle)          # cold: parse + rewrite + run
    result = session.execute(handle)          # warm: cache hit, run only
    print(gateway.cache_stats.hit_rate)
"""

from .cache import CacheKey, CachedPlan, CacheStats, RewriteCache, StatementInfo
from .fingerprint import Fingerprint, fingerprint_statement
from .gateway import QueryGateway
from .metrics import (
    LatencySummary,
    LoadGauge,
    LoadSnapshot,
    percentile,
    summarize,
)
from .session import GatewaySession, PreparedStatement, SessionStats

__all__ = [
    "QueryGateway",
    "GatewaySession",
    "PreparedStatement",
    "SessionStats",
    "RewriteCache",
    "CacheKey",
    "CachedPlan",
    "CacheStats",
    "StatementInfo",
    "Fingerprint",
    "fingerprint_statement",
    "LatencySummary",
    "LoadGauge",
    "LoadSnapshot",
    "percentile",
    "summarize",
]
