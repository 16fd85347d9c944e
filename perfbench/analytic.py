"""The analytic workloads: the 22-query MT-H mix, closed loop, one client.

``mth-analytic`` runs on one in-memory engine, ``mth-analytic-2shard`` on a
``sharded:2`` engine cluster; everything else is identical.  Client 1 runs
at O4 with D = all 10 tenants (scenario 1, uniform shares) through a direct
``MTConnection``.  Each pass runs the 22 queries back to back in an order
drawn from the run's seed; one untimed warm pass comes first.  Every result
is checked against the stored digests (outside the timed region).

Untraced runs report the end-to-end metrics.  Traced runs time untraced
passes first (per-query medians, the mix time, the TPC-H baseline for the
paper's overhead ratio), then install the span wrappers and derive the
per-layer metrics per pass.
"""

from __future__ import annotations

import os
import random
import resource
import time

from repro.mth import ALL_QUERY_IDS, query_text

import layers
import setup_mth
import spans
import speed
from metrics import RunResult
from oracle import QueryOracle, load_oracle
from stats import median

TENANTS = 10
CLIENT = 1

#: passes a timed phase runs at least, however short ``--seconds`` is
MIN_PASSES = 3

#: tolerance on |sum of self times - overlap - wall| / wall per statement
SELF_SUM_TOLERANCE = 0.01


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Mix:
    """Runs passes of the 22-query mix on one connection and checks them."""

    def __init__(self, connection, oracle: QueryOracle, result: RunResult, seed: int) -> None:
        self.connection = connection
        self.oracle = oracle
        self.result = result
        self.rng = random.Random(seed)
        self.texts = {query_id: query_text(query_id) for query_id in ALL_QUERY_IDS}

    def run_pass(self, tracer=None) -> "Pass":
        """One pass in a seeded order; every statement timed and probed."""
        order = self.rng.sample(ALL_QUERY_IDS, len(ALL_QUERY_IDS))
        done = Pass()
        for position, query_id in enumerate(order):
            self.result.attempted += 1
            probe = speed.best_probe()
            try:
                if tracer is None:
                    started = time.perf_counter()
                    rows = self.connection.query(self.texts[query_id]).rows
                    seconds = time.perf_counter() - started
                else:
                    with tracer.span("stmt", rid=position) as span:
                        span.attrs["query"] = query_id
                        rows = self.connection.query(self.texts[query_id]).rows
                    seconds = span.duration
            except Exception as exc:  # noqa: BLE001 - a failed statement is a counted failure
                self.result.fail(f"Q{query_id}: {type(exc).__name__}: {exc}")
                continue
            done.raw[query_id] = seconds
            done.times[query_id] = seconds * speed.factor(probe)
            if not self.oracle.check(query_id, rows):
                self.result.fail(f"Q{query_id}: result differs from the oracle")
        return done

    def run_for(self, seconds: float, tracer=None, minimum: int = MIN_PASSES) -> list:
        """Passes until ``seconds`` of pass time elapsed (at least ``minimum``)."""
        passes = []
        elapsed = 0.0
        while len(passes) < minimum or elapsed < seconds:
            passes.append(self.run_pass(tracer))
            elapsed += passes[-1].raw_wall
        return passes


class Pass:
    """One pass: per-query seconds, measured and host-speed normalised."""

    def __init__(self) -> None:
        self.raw: dict = {}
        self.times: dict = {}

    @property
    def wall(self) -> float:
        return sum(self.times.values())

    @property
    def raw_wall(self) -> float:
        return sum(self.raw.values())


def run(workload: str, seed: int, seconds: float, trace: bool) -> RunResult:
    shards = 2 if workload.endswith("2shard") else None
    result = RunResult()
    oracle = QueryOracle(load_oracle())
    tracer = spans.Tracer() if trace else None
    if tracer is not None:
        spans.install(tracer)
    try:
        instance, setups, raw_setups = setup_mth.load_repeated(TENANTS, "uniform", shards, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    connection = instance.middleware.connect(CLIENT, optimization="o4")
    connection.set_scope("IN ()")
    mix = Mix(connection, oracle, result, seed)
    mix.run_pass()  # warm: caches, typed columns, statistics
    if trace:
        _traced(instance, mix, tracer, result, seconds, setups, workload, seed)
    else:
        passes = mix.run_for(seconds)
        latencies = [t * 1000.0 for done in passes for t in done.times.values()]
        raw = [t * 1000.0 for done in passes for t in done.raw.values()]
        walls = [done.wall for done in passes]
        result.put("setup_s", median(setups), len(setups), f"raw {median(raw_setups):.4f}")
        result.put(
            "read_p50_ms", median(latencies), len(latencies), f"one MT-H statement; raw {median(raw):.4f}"
        )
        result.put(
            "read_capacity_rps",
            len(ALL_QUERY_IDS) / median(walls),
            len(walls),
            f"22 / median pass; mix_s={median(walls):.4f}, raw {median(d.raw_wall for d in passes):.4f}",
        )
    result.put("peak_rss_mb", peak_rss_mb())
    return result


def _traced(instance, mix: Mix, tracer, result: RunResult, seconds: float, setups, workload, seed) -> None:
    for name, value in layers.setup_layers(tracer.spans).items():
        result.put(name, value, len(setups))
    tracer.clear()

    # untraced: per-query medians, the mix time, the TPC-H baseline
    plain = mix.run_for(seconds * 0.35)
    walls = [done.wall for done in plain]
    for query_id in ALL_QUERY_IDS:
        result.put(
            f"query.q{query_id:02d}_ms",
            median([done.times[query_id] * 1000.0 for done in plain if query_id in done.times]),
            len(plain),
        )
    result.put("query.mix_s", median(walls), len(walls))
    baseline = setup_mth.load_baseline(instance)
    baseline_walls = []
    budget = seconds * 0.2
    elapsed = 0.0
    while len(baseline_walls) < 2 or elapsed < budget:
        wall = 0.0
        for query_id in ALL_QUERY_IDS:
            probe = speed.best_probe()
            started = time.perf_counter()
            baseline.query(mix.texts[query_id])
            measured = time.perf_counter() - started
            elapsed += measured
            wall += measured * speed.factor(probe)
        baseline_walls.append(wall)
    result.put(
        "paper.mt_overhead",
        median(walls) / median(baseline_walls),
        len(baseline_walls),
        "MT-H mix / TPC-H mix on the same data",
    )

    # traced: per-pass layer metrics
    backend = instance.middleware.backend
    spans.install(tracer)
    pauses = spans.GcPauses().install()
    per_pass = []
    traced_walls = []
    try:
        elapsed = 0.0
        while len(per_pass) < MIN_PASSES or elapsed < seconds * 0.45:
            first = len(tracer.spans)
            before = layers.engine_counters(backend)
            paused = pauses.seconds
            done = mix.run_pass(tracer)
            after = layers.engine_counters(backend)
            elapsed += done.raw_wall
            traced_walls.append(done.wall)
            recorded = tracer.spans[first:]
            totals = dict(layers.span_totals(recorded))
            totals.update(layers.counter_delta(before, after))
            totals.update(_self_sum(recorded))
            totals["trace.spans"] = len(recorded)
            totals["gc.pause_ms"] = (pauses.seconds - paused) * 1000.0
            per_pass.append(totals)
    finally:
        pauses.uninstall()
        tracer.uninstall()
    os.makedirs(spans.OUTPUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(spans.OUTPUT_DIR, f"spans-{workload}-{seed}.jsonl"))
    names = set().union(*per_pass)
    for name in sorted(names):
        if name.startswith("_"):
            continue
        result.put(name, median([totals.get(name, 0.0) for totals in per_pass]), len(per_pass))
    worst = max(totals["trace.self_sum_err"] for totals in per_pass)
    if worst > SELF_SUM_TOLERANCE:
        result.fail(f"span tree inconsistent: self times miss wall time by {worst:.2%}")
    result.put(
        "trace.overhead_frac",
        median(traced_walls) / median(walls) - 1.0,
        len(traced_walls),
        "traced / untraced median pass - 1",
    )


def _self_sum(recorded: list) -> dict:
    """Per statement: layer self times against the statement's wall time.

    ``trace.self_sum_ratio`` is the median of sum(self) / wall, which exceeds
    1 where shard spans run concurrently; ``trace.self_sum_err`` is the worst
    |sum(self) - overlap - wall| / wall, which must stay within
    :data:`SELF_SUM_TOLERANCE`.
    """
    roots = [span for span in recorded if span.name == "stmt"]
    selfs = spans.self_times(recorded)
    ratios = []
    worst = 0.0
    for root in roots:
        tree = spans.subtree(recorded, root)
        total = sum(selfs[span.sid] for span in tree)
        overlap = spans.sibling_overlap(tree)
        ratios.append(total / root.duration)
        worst = max(worst, abs(total - overlap - root.duration) / root.duration)
    return {"trace.self_sum_ratio": median(ratios), "trace.self_sum_err": worst}
