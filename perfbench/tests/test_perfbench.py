"""Self-tests of the benchmark harness (fast: no data is loaded).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import metrics  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import traffic  # noqa: E402


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# -- metric names -------------------------------------------------------------


def test_metric_names_are_legal():
    for name in list(metrics.END_TO_END) + list(metrics.PER_LAYER):
        assert stats.valid_metric_name(name), name
    assert not stats.valid_metric_name("engine.op.scan+join_ms")
    assert not stats.valid_metric_name("_private")


def test_catalog_matches_benchmark_json():
    declared = _benchmark_json()
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert end_to_end == metrics.END_TO_END
    assert per_layer == metrics.PER_LAYER


def test_result_line_prints_every_metric_of_the_catalog():
    result = metrics.RunResult(attempted=3)
    result.put("read_p50_ms", 1.5, samples=3)
    line = json.loads(metrics.result_line(result, trace=False))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(metrics.END_TO_END)
    assert line["metrics"]["read_p50_ms"] == {"value": 1.5, "unit": "ms"}
    assert line["correct"] is True
    result.fail("boom")
    assert json.loads(metrics.result_line(result, trace=True))["correct"] is False


# -- self time ------------------------------------------------------------------


def _span(sid, parent, start, end, name="x"):
    return spans.Span(sid=sid, parent=parent, name=name, start=start, end=end)


def test_self_time_on_a_synthetic_tree():
    tree = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),  # overlaps its sibling by one second
        _span(3, 1, 3.0, 6.0),
        _span(4, 2, 2.0, 3.0),
    ]
    selfs = spans.self_times(tree)
    assert selfs == {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0}
    assert spans.sibling_overlap(tree) == 1.0
    # self times sum to the root's wall time plus the concurrent overlap
    assert sum(selfs.values()) == tree[0].duration + spans.sibling_overlap(tree)


def test_covered_clips_children_to_the_parent():
    assert spans.covered((0.0, 5.0), [(-2.0, 1.0), (4.0, 9.0)]) == 2.0
    assert spans.covered((0.0, 5.0), []) == 0.0
    assert spans.covered((0.0, 5.0), [(1.0, 2.0), (1.5, 3.0), (6.0, 7.0)]) == 2.0


def test_tracer_nests_spans_and_restores_wrapped_methods():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = spans.Tracer()
    tracer.wrap(Layer, "outer", "outer")
    tracer.wrap(Layer, "inner", "inner")
    with tracer.span("root", rid=7):
        assert Layer().outer() == 2
    tracer.uninstall()
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].sid
    assert by_name["outer"].parent == by_name["root"].sid
    assert {span.rid for span in tracer.spans} == {7}
    assert "outer" in vars(Layer) and not hasattr(Layer.outer, "__wrapped__")


# -- schedule -------------------------------------------------------------------


@pytest.fixture(scope="module")
def keys():
    return oracle.load_oracle()["serving"]


def _describe(requests):
    return [(r.client, r.kind, r.sql, r.params, r.scope, r.due, r.key) for r in requests]


def test_schedule_is_deterministic_for_a_seed(keys):
    first = traffic.open_loop_schedule(traffic.Traffic(keys, 11, True), 60.0, 5.0)
    second = traffic.open_loop_schedule(traffic.Traffic(keys, 11, True), 60.0, 5.0)
    other = traffic.open_loop_schedule(traffic.Traffic(keys, 12, True), 60.0, 5.0)
    assert _describe(first) == _describe(second)
    assert _describe(first) != _describe(other)
    assert [r.due for r in first] == [i / 60.0 for i in range(300)]


def test_every_block_has_the_deck_mix_and_one_write_in_ten(keys):
    generator = traffic.Traffic(keys, 5, True)
    requests = [generator.next() for _ in range(200)]
    assert sum(r.kind != "read" for r in requests) == 20
    reads = [r for r in requests if r.kind == "read"][:20]
    shapes = sorted(r.key.split("|")[0] for r in reads)
    assert shapes == sorted(traffic.READ_DECK)
    for request in requests:
        if request.kind == "read":
            assert request.key in keys["reads"]
        else:  # a write passes its own tenant's scope
            assert request.scope == f"IN ({request.client})"
            assert request.target in keys["write_orders"][str(request.client)]


def test_expected_writes_follow_the_last_update(keys):
    generator = traffic.Traffic(keys, 3, True)
    sent = [r for r in (generator.next() for _ in range(400)) if r.kind != "read"]
    state = traffic.expected_writes(sent, keys["original_priorities"])
    for request in reversed(sent):
        if request.kind == "update":
            assert state[request.client]["priorities"][request.target] == request.params[0]
            break
    inserts = sum(r.kind == "insert" for r in sent)
    assert sum(sum(s["inserted"].values()) for s in state.values()) == inserts


# -- percentiles ---------------------------------------------------------------


@pytest.mark.parametrize(
    "count, wanted, expected",
    [(1000, 99.0, 99.0), (999, 99.0, 95.0), (200, 99.0, 95.0), (199, 99.0, 90.0), (40, 99.0, 75.0),
     (20, 99.0, 50.0), (19, 99.0, None), (5000, 95.0, 95.0), (20000, 99.9, 99.9)],
)
def test_tail_rule_needs_ten_samples_beyond(count, wanted, expected):
    assert stats.tail_percentile(count, wanted) == expected


def test_nearest_rank_percentile():
    samples = list(range(1, 101))
    assert stats.percentile(samples, 50.0) == 50
    assert stats.percentile(samples, 99.0) == 99
    assert stats.percentile([3.0], 99.0) == 3.0
    assert stats.samples_beyond(100, 90.0) == 10


# -- oracle --------------------------------------------------------------------


def test_oracle_rejects_one_corrupted_row():
    rows = [(1, "A", 17.5), (2, "B", 3.25), (3, "C", 0.1)]
    checker = oracle.QueryOracle({"queries": {"6": oracle.rows_digest(rows)}})
    assert checker.check(6, list(reversed(rows)))  # order-insensitive
    corrupted = [rows[0], (2, "B", 3.2500001), rows[2]]
    assert not checker.check(6, corrupted)
    assert checker.mismatches == ["Q6"]


def test_stored_oracle_covers_every_query_and_read(keys):
    stored = oracle.load_oracle()
    assert sorted(int(q) for q in stored["queries"]) == list(range(1, 23))
    expected = traffic.CHOICES * len(traffic.SHAPE_NAMES) * len(traffic.CLIENTS) * keys["tenants"]
    assert len(keys["reads"]) == expected


def test_sequence_digest_depends_on_order():
    assert oracle.sequence_digest(["a", "b"]) != oracle.sequence_digest(["b", "a"])
