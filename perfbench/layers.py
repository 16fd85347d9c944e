"""Per-layer totals derived from recorded spans and from the engine counters."""

from __future__ import annotations

from collections import defaultdict

from metrics import OPERATORS, PASSES, PLAN_KINDS
from spans import Span, children_of, covered, self_times
from stats import median

ENGINE_SPANS = ("engine.execute", "engine.fetch")


def _outermost(spans: list[Span], names: tuple) -> list[Span]:
    """Spans named in ``names`` that have no ancestor named in ``names``."""
    by_id = {span.sid: span for span in spans}
    found = []
    for span in spans:
        if span.name not in names:
            continue
        parent = by_id.get(span.parent)
        while parent is not None and parent.name not in names:
            parent = by_id.get(parent.parent)
        if parent is None:
            found.append(span)
    return found


def span_totals(spans: list[Span]) -> dict:
    """Summed layer times (ms) and counts over ``spans``.

    Engine and shard time is busy time: the CPU seconds of the thread that
    ran the call, so shards waiting for the interpreter lock do not count.
    Also returns ``_dml`` (DML statements seen) for per-statement means.
    """
    selfs = self_times(spans)
    children = children_of(spans)
    totals: dict = defaultdict(float)
    for span in spans:
        name = span.name
        ms = span.duration * 1000.0
        if name == "sql.parse":
            totals["sql.parse_ms"] += ms
            totals["sql.parses"] += 1
        elif name == "compile":
            totals["compile.ms"] += ms
            totals["compile.compilations"] += 1
            passes = span.attrs.get("passes", {})
            for stage, seconds in passes.items():
                if stage in PASSES:
                    totals[f"compile.pass.{stage}_ms"] += seconds * 1000.0
            totals["compile.other_ms"] += ms - sum(passes.values()) * 1000.0
        elif name == "core.execute":
            if span.attrs.get("kind") == "dml":
                totals["core.dml_ms"] += selfs[span.sid] * 1000.0
                totals["_dml"] += 1
            else:
                totals["core.self_ms"] += selfs[span.sid] * 1000.0
        elif name == "gateway.execute":
            totals["gateway.self_ms"] += selfs[span.sid] * 1000.0
        elif name == "engine.typed_build":
            totals["engine.typed_builds"] += 1
            totals["engine.typed_build_ms"] += ms
        elif name == "cluster.plan":
            totals["cluster.plan_ms"] += ms
            totals["cluster.plans"] += 1
            kind = PLAN_KINDS.get(span.attrs.get("kind"))
            if kind is not None:
                totals[f"cluster.plan_kind.{kind}"] += 1
        elif name == "cluster.coordinate":
            shards = [kid for kid in children.get(span.sid, ()) if kid.name == "cluster.shard"]
            wall = covered((span.start, span.end), ((kid.start, kid.end) for kid in shards))
            totals["cluster.scatter_wall_ms"] += wall * 1000.0
            totals["cluster.shard_busy_ms"] += sum(kid.attrs["cpu"] for kid in shards) * 1000.0
            totals["cluster.merge_ms"] += (span.duration - wall) * 1000.0
        elif name == "cluster.execute" and span.attrs.get("kind") == "FederatedPlan":
            planning = sum(
                kid.duration for kid in children.get(span.sid, ()) if kid.name == "cluster.plan"
            )
            totals["cluster.federated_ms"] += (span.duration - planning) * 1000.0
    for span in _outermost(spans, ENGINE_SPANS):
        totals["engine.execute_ms"] += span.attrs["cpu"] * 1000.0
    if totals["cluster.scatter_wall_ms"]:
        totals["cluster.parallelism"] = (
            totals["cluster.shard_busy_ms"] / totals["cluster.scatter_wall_ms"]
        )
    return totals


def handling_seconds(spans: list[Span]) -> float:
    """Server-side time in gateway-session calls and in fetching their rows."""
    return sum(span.duration for span in _outermost(spans, ("gateway.execute", "engine.fetch")))


def setup_layers(spans: list[Span]) -> dict:
    """``mth.*`` from the set-up spans: medians over the repeated set-ups.

    ``mth.load_s`` excludes the statistics collection that ``load_mth`` ends
    with; that is ``mth.stats_s``.
    """
    by_id = {span.sid: span for span in spans}
    stats_by_load: dict = {}
    for span in spans:
        parent = by_id.get(span.parent)
        if span.name == "mth.stats" and parent is not None and parent.name == "mth.load":
            stats_by_load[parent.sid] = stats_by_load.get(parent.sid, 0.0) + span.duration
    loads = [span for span in spans if span.name == "mth.load"]
    return {
        "mth.dbgen_s": median([span.duration for span in spans if span.name == "mth.dbgen"]),
        "mth.load_s": median([s.duration - stats_by_load.get(s.sid, 0.0) for s in loads]),
        "mth.stats_s": median([stats_by_load.get(s.sid, 0.0) for s in loads]),
    }


# ---------------------------------------------------------------------------
# engine counters
# ---------------------------------------------------------------------------


def engine_connections(backend) -> list:
    """The engine connections whose counters describe ``backend``'s work."""
    shards = getattr(backend, "shard_connections", None)
    return list(shards) if shards is not None else [backend]


def engine_counters(backend) -> dict:
    """A snapshot of the engine counters, summed over the engine connections."""
    counters: dict = defaultdict(float)
    for connection in engine_connections(backend):
        stats = connection.stats
        for profile in stats.operator_snapshot():
            slug = profile.operator.replace("+", "_")
            if slug in OPERATORS:
                counters[f"engine.op.{slug}_ms"] += profile.seconds * 1000.0
                counters[f"engine.op.{slug}_rows"] += profile.rows
        typed, generic, proven = stats.kernels.snapshot()
        counters["engine.kernels.typed"] += typed
        counters["engine.kernels.generic"] += generic
        counters["engine.kernels.proven"] += proven
    aggregate = getattr(backend, "aggregate_stats", None)
    stats = aggregate() if aggregate is not None else backend.stats
    counters["engine.udf_calls"] += stats.udf_calls
    counters["_udf_hits"] += stats.udf_cache_hits
    counters["engine.subquery_runs"] += stats.subquery_runs
    for name in ("plan_reuses", "rows_pulled", "cells_pulled"):
        if hasattr(backend, name):
            counters[f"cluster.{name}"] += getattr(backend, name)
    return counters


def counter_delta(before: dict, after: dict) -> dict:
    """``after - before`` per key, with the UDF hit rate derived."""
    delta = {key: after.get(key, 0.0) - before.get(key, 0.0) for key in after}
    calls = delta.get("engine.udf_calls", 0.0)
    delta["engine.udf_hit_rate"] = delta.pop("_udf_hits", 0.0) / calls if calls else 0.0
    return delta
