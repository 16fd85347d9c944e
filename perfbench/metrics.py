"""The metric catalog and the result line every run prints.

Every run prints all end-to-end metrics (``--trace 0``) or all per-layer
metrics (``--trace 1``).  A per-layer metric of a layer that a workload
does not exercise reads 0: the analytic workloads bypass the gateway, the
server and the wire; only ``mth-analytic-2shard`` has a cluster.

Per-layer normalisation: on the analytic workloads a time or count is per
22-query pass (the median over the traced passes); on the serving workloads
a time is the mean per request and a count is the total over the traced
run's measured phases.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from stats import valid_metric_name

#: end-to-end metrics: name -> unit (bounds and directions live in BENCHMARK.json)
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "read_p50_ms": "ms",
    "read_capacity_rps": "1/s",
}

OPERATORS = ("scan_join", "filter", "aggregate", "project", "distinct", "order")
PASSES = ("canonical", "pushup", "distribution", "inlining")
PLAN_KINDS = {
    "SingleShardPlan": "single_shard",
    "RowStreamPlan": "row_stream",
    "PartialAggregatePlan": "partial_aggregate",
    "FederatedPlan": "federated",
}


def _per_layer() -> dict:
    units = {
        "mth.dbgen_s": "s",
        "mth.load_s": "s",
        "mth.stats_s": "s",
        "server.start_s": "s",
        "sql.parse_ms": "ms",
        "sql.parses": "count",
        "compile.ms": "ms",
        "compile.compilations": "count",
    }
    for name in PASSES:
        units[f"compile.pass.{name}_ms"] = "ms"
    units.update(
        {
            "compile.other_ms": "ms",
            "core.self_ms": "ms",
            "core.dml_ms": "ms",
            "gateway.self_ms": "ms",
            "gateway.hits": "count",
            "gateway.misses": "count",
            "gateway.hit_rate": "ratio",
            "gateway.evictions": "count",
            "engine.execute_ms": "ms",
        }
    )
    for name in OPERATORS:
        units[f"engine.op.{name}_ms"] = "ms"
        units[f"engine.op.{name}_rows"] = "count"
    units.update(
        {
            "engine.kernels.typed": "count",
            "engine.kernels.generic": "count",
            "engine.kernels.proven": "count",
            "engine.udf_calls": "count",
            "engine.udf_hit_rate": "ratio",
            "engine.subquery_runs": "count",
            "engine.typed_builds": "count",
            "engine.typed_build_ms": "ms",
            "cluster.plan_ms": "ms",
            "cluster.plans": "count",
            "cluster.plan_reuses": "count",
        }
    )
    for kind in PLAN_KINDS.values():
        units[f"cluster.plan_kind.{kind}"] = "count"
    units.update(
        {
            "cluster.scatter_wall_ms": "ms",
            "cluster.shard_busy_ms": "ms",
            "cluster.parallelism": "ratio",
            "cluster.merge_ms": "ms",
            "cluster.federated_ms": "ms",
            "cluster.rows_pulled": "count",
            "cluster.cells_pulled": "count",
            "server.handle_ms": "ms",
            "server.shed": "count",
            "server.timeouts": "count",
            "server.peak_in_flight": "count",
            "server.peak_queued": "count",
            "wire.ms": "ms",
        }
    )
    for query_id in range(1, 23):
        units[f"query.q{query_id:02d}_ms"] = "ms"
    units.update(
        {
            "query.mix_s": "s",
            "paper.mt_overhead": "ratio",
            "read.open_p50_ms": "ms",
            "read.tail_ms": "ms",
            "write.p50_ms": "ms",
            "write.tail_ms": "ms",
            "loadgen.late_p99_ms": "ms",
            "loadgen.backlog_max": "count",
            "gc.pause_ms": "ms",
            "trace.overhead_frac": "ratio",
            "trace.self_sum_ratio": "ratio",
            "trace.self_sum_err": "ratio",
            "trace.spans": "count",
        }
    )
    return units


PER_LAYER = _per_layer()


@dataclass
class Metric:
    """One reported value, with the sample count and a note for the log."""

    value: float
    unit: str
    samples: Optional[int] = None
    note: str = ""


@dataclass
class RunResult:
    """What a workload run produced."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    #: False when the run is invalid (the load generator fell behind)
    valid: bool = True

    def put(self, name: str, value: float, samples: Optional[int] = None, note: str = "") -> None:
        unit = END_TO_END.get(name) or PER_LAYER[name]
        self.metrics[name] = Metric(float(value), unit, samples, note)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)


def result_line(result: RunResult, trace: bool) -> str:
    """The final JSON line: every metric of the selected catalog."""
    catalog = PER_LAYER if trace else END_TO_END
    metrics = {}
    for name, unit in catalog.items():
        if not valid_metric_name(name):
            raise ValueError(f"illegal metric name {name!r}")
        metric = result.metrics.get(name)
        metrics[name] = {"value": metric.value if metric else 0.0, "unit": unit}
    return json.dumps(
        {
            "correct": result.failed == 0 and result.attempted > 0,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": metrics,
        }
    )


def report_lines(result: RunResult, trace: bool) -> list[str]:
    """Human-readable lines: name, value, unit, sample count and note."""
    catalog = PER_LAYER if trace else END_TO_END
    lines = []
    for name in catalog:
        metric = result.metrics.get(name)
        if metric is None:
            lines.append(f"{name:32s} {0.0:>14.4f} {catalog[name]:6s} (layer not used)")
            continue
        samples = f"n={metric.samples}" if metric.samples is not None else ""
        lines.append(
            f"{name:32s} {metric.value:>14.4f} {metric.unit:6s} {samples:8s} {metric.note}".rstrip()
        )
    for name, metric in result.metrics.items():
        if name not in catalog:
            lines.append(f"  also {name:27s} {metric.value:>14.4f} {metric.unit:6s} {metric.note}".rstrip())
    for problem in result.problems:
        lines.append(f"FAILED: {problem}")
    return lines
