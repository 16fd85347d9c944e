"""The serving workloads: tenant-scoped reads (and writes) over the wire.

A ``ReproServer`` with a gateway (cache 256) runs on one engine in a child
process (``server_child.py``) over MT-H with 100 tenants under zipf shares.
This process is the load generator: two ``server://`` sessions, as clients 1
and 2, one thread each.

Phases, all from the run's seed:

1. warm-up — :data:`WARM_REQUESTS` back-to-back requests per session,
   checked but not timed;
2. open loop — requests due at :data:`RATE` per second, evenly spaced, each
   sent by its client's session; latency is timed from the request's due
   time, so a stall also delays the requests queued behind it;
3. closed loop — both sessions busy back to back; completed reads per
   second is the read capacity.

``tenant-rw`` adds writes to every phase (:data:`traffic.WRITE_SHARE`).
Every read is checked against the stored digest of its answer; after the
run every write's rowcount and the final state of the written rows are
checked.  A run whose generator fell behind its schedule is invalid.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import threading
import time
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Optional

from repro.result import QueryResult
from repro.server import SyncSession

import spans
import speed
import traffic
from metrics import RunResult
from oracle import load_oracle, rows_digest, sequence_digest
from stats import median, percentile, tail_percentile

HERE = os.path.dirname(os.path.abspath(__file__))

#: open-loop arrival rate (requests per second over both sessions)
RATE = 60.0

#: share of ``--seconds`` spent in the open loop; the rest is closed loop
OPEN_SHARE = 0.4

#: untimed warm-up requests per session
WARM_REQUESTS = 150

#: requests queued per session for the closed loop (more than it can finish)
CLOSED_QUEUE = 5000

#: generator lateness (p99, ms) above which a run is invalid
LATE_LIMIT_MS = 50.0

#: pause between two host-speed probes while the open loop runs
PROBE_INTERVAL_S = 0.05

#: closed-loop slice length; the host speed is probed between slices
SEGMENT_S = 1.0

#: how long the server child may take to answer one command
CHILD_TIMEOUT = 150.0



@dataclass
class Done:
    """One executed request."""

    request: traffic.Request
    sent: float
    done: float
    due: Optional[float] = None
    waited_from: float = 0.0  # max(due, previous completion): when it could go
    result: Any = None
    error: Optional[str] = None

    @property
    def latency(self) -> float:
        return self.done - (self.due if self.due is not None else self.sent)


class Child:
    """The server process and its line protocol."""

    def __init__(self, trace: bool, spans_path: str) -> None:
        command = [sys.executable, os.path.join(HERE, "server_child.py"), "--trace", str(int(trace))]
        if spans_path:
            command += ["--spans", spans_path]
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1
        )

    def send(self, command: str) -> None:
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()

    def expect(self, event: str) -> dict:
        deadline = time.monotonic() + CHILD_TIMEOUT
        while True:
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.process.stdout], [], [], max(0.0, remaining))
            if not ready:
                raise RuntimeError(f"server process did not report {event!r} in time")
            line = self.process.stdout.readline()
            if not line:
                raise RuntimeError(f"server process exited before {event!r}")
            if line.startswith("PERFBENCH "):
                message = json.loads(line[len("PERFBENCH "):])
                if message.get("event") == event:
                    return message

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10)
        for stream in (self.process.stdin, self.process.stdout):
            stream.close()


class Sessions:
    """The two client sessions with their prepared statements."""

    def __init__(self, port: int) -> None:
        self.sessions = {}
        self.handles = {}
        for client in traffic.CLIENTS:
            session = SyncSession("127.0.0.1", port, client, optimization="o4", timeout=60.0)
            self.sessions[client] = session
            texts = list(traffic.READ_SHAPES.values()) + [traffic.UPDATE_SQL, traffic.INSERT_SQL]
            self.handles[client] = {text: session.prepare(text) for text in texts}

    def execute(self, request: traffic.Request):
        session = self.sessions[request.client]
        handle = self.handles[request.client][request.sql]
        return session.execute(handle, scope=request.scope, parameters=request.params)

    def close(self) -> None:
        for session in self.sessions.values():
            session.close()


def _perform(sessions: Sessions, request: traffic.Request, record: Done) -> None:
    try:
        result = sessions.execute(request)
    except Exception as exc:  # noqa: BLE001 - every failed request is counted
        record.done = time.perf_counter()
        record.error = f"{type(exc).__name__}: {exc}"
        return
    record.done = time.perf_counter()
    record.result = result.rows if isinstance(result, QueryResult) else result.rowcount


def run_open(sessions: Sessions, schedule: list, log: speed.ProbeLog) -> list:
    """Send each request at its due time on its client's session."""
    start = time.perf_counter() + 0.05
    by_client = {client: [r for r in schedule if r.client == client] for client in traffic.CLIENTS}
    records = {client: [] for client in traffic.CLIENTS}

    def worker(client: int) -> None:
        previous = start
        for request in by_client[client]:
            due = start + request.due
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            record = Done(request, sent=time.perf_counter(), done=0.0, due=due)
            record.waited_from = max(due, previous)
            _perform(sessions, request, record)
            previous = record.done
            records[client].append(record)

    _run_threads(worker, log)
    return sorted(records[1] + records[2], key=lambda record: record.request.index)


def run_closed(sessions: Sessions, queues: dict, end: Optional[float] = None) -> list:
    """Each session sends from its queue back to back (until ``end``)."""
    records = {client: [] for client in traffic.CLIENTS}

    def worker(client: int) -> None:
        queue = queues[client]
        while queue and (end is None or time.perf_counter() < end):
            request = queue.popleft()
            record = Done(request, sent=time.perf_counter(), done=0.0)
            _perform(sessions, request, record)
            records[client].append(record)

    _run_threads(worker)
    return records[1] + records[2]


@dataclass
class Segment:
    """One slice of the closed loop and the host speed around it."""

    start: float
    end: float
    probe: float
    records: list


def closed_phase(sessions: Sessions, queues: dict, seconds: float) -> list:
    """The closed loop in slices of :data:`SEGMENT_S`, probing between slices.

    The probes run while no request is in flight, so they measure the host
    and not the load generator's own threads.
    """
    segments = []
    remaining = seconds
    while remaining > 1e-9:
        length = min(SEGMENT_S, remaining)
        before = speed.best_probe(3)
        start = time.perf_counter()
        records = run_closed(sessions, queues, start + length)
        probe = (before + speed.best_probe(3)) / 2
        segments.append(Segment(start, start + length, probe, records))
        remaining -= length
    return segments


def _run_threads(worker, log: Optional[speed.ProbeLog] = None) -> None:
    """One thread per session; with ``log``, this thread probes meanwhile."""
    threads = [threading.Thread(target=worker, args=(client,)) for client in traffic.CLIENTS]
    for thread in threads:
        thread.start()
    while log is not None and any(thread.is_alive() for thread in threads):
        log.record()
        time.sleep(PROBE_INTERVAL_S)
    for thread in threads:
        thread.join()


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_requests(records: list, oracle: dict, result: RunResult) -> tuple[str, str]:
    """Count failures: errors, wrong reads, wrong write rowcounts.

    Returns the digest of the read answers in request order and the digest
    the oracle expects for the same requests.
    """
    expected = oracle["serving"]["reads"]
    got_digests = []
    want_digests = []
    for record in records:
        result.attempted += 1
        request = record.request
        if record.error is not None:
            result.fail(f"request {request.index} ({request.kind}): {record.error}")
            continue
        if request.kind == "read":
            digest = rows_digest(record.result)
            got_digests.append(digest)
            want_digests.append(expected[request.key])
            if digest != expected[request.key]:
                result.fail(f"request {request.index}: read {request.key} differs from the oracle")
        elif record.result != 1:
            result.fail(f"request {request.index}: {request.kind} changed {record.result} rows")
    return sequence_digest(got_digests), sequence_digest(want_digests)


def check_final_state(sessions: Sessions, records: list, oracle: dict, result: RunResult) -> None:
    """The written rows hold what the sent writes imply."""
    serving = oracle["serving"]
    sent = [record.request for record in records if record.request.kind != "read"]
    expected = traffic.expected_writes(sent, serving["original_priorities"])
    for client in traffic.CLIENTS:
        keys = serving["write_orders"][str(client)]
        listed = ", ".join(str(key) for key in keys)
        session = sessions.sessions[client]
        scope = f"IN ({client})"
        result.attempted += 1
        priorities = session.query(
            f"SELECT o_orderkey, o_orderpriority FROM orders WHERE o_orderkey IN ({listed})",
            scope=scope,
        )
        if dict(priorities.rows) != expected[client]["priorities"]:
            result.fail(f"client {client}: written priorities differ from the writes sent")
        result.attempted += 1
        inserted = session.query(
            "SELECT l_orderkey, COUNT(*) FROM lineitem "
            f"WHERE l_orderkey IN ({listed}) AND l_linenumber >= {traffic.FIRST_INSERTED_LINE} "
            "GROUP BY l_orderkey",
            scope=scope,
        )
        counts = {key: 0 for key in expected[client]["inserted"]}
        counts.update(dict(inserted.rows))
        if counts != expected[client]["inserted"]:
            result.fail(f"client {client}: inserted lines differ from the inserts sent")


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> RunResult:
    writes = workload == "tenant-rw"
    oracle = load_oracle()
    generator = traffic.Traffic(oracle["serving"], seed, writes)
    result = RunResult()
    spans_path = ""
    if trace:
        os.makedirs(spans.OUTPUT_DIR, exist_ok=True)
        spans_path = os.path.join(spans.OUTPUT_DIR, f"spans-{workload}-{seed}-server.jsonl")
    child = Child(trace, spans_path)
    sessions = None
    try:
        ready = child.expect("ready")
        sessions = Sessions(ready["port"])
        warm = run_closed(
            sessions,
            {c: traffic.closed_loop_queue(generator, c, WARM_REQUESTS) for c in traffic.CLIENTS},
        )
        child.send("mark")
        child.expect("marked")
        schedule = traffic.open_loop_schedule(generator, RATE, seconds * OPEN_SHARE)
        log = speed.ProbeLog()
        open_records = run_open(sessions, schedule, log)
        queues = {c: traffic.closed_loop_queue(generator, c, CLOSED_QUEUE) for c in traffic.CLIENTS}
        segments = closed_phase(sessions, queues, seconds * (1 - OPEN_SHARE))
        closed_records = [record for segment in segments for record in segment.records]
        child.send("collect")
        totals = child.expect("collected")["totals"]
        records = warm + open_records + closed_records
        got, want = check_requests(records, oracle, result)
        if writes:
            check_final_state(sessions, records, oracle, result)
        sessions.close()
        sessions = None
        child.send("stop")
        child.expect("stopped")
        child.process.wait(timeout=CHILD_TIMEOUT)
    finally:
        if sessions is not None:
            sessions.close()
        child.close()
    _report(result, ready, totals, open_records, segments, log, trace)
    print(f"read answers in request order: digest {got}, oracle {want}")
    return result


def _report(result, ready, totals, open_records, segments, log, trace) -> None:
    """Metrics of one run; times are host-speed normalised (raw in the notes)."""
    closed_records = [record for segment in segments for record in segment.records]

    def normalised_ms(record: Done, probe: Optional[float] = None) -> float:
        if probe is None:
            probe = log.probe_at(record.due, record.done)
        return record.latency * 1000.0 * speed.factor(probe)

    reads = [r for r in open_records if r.request.kind == "read" and r.error is None]
    latencies = [normalised_ms(r) for r in reads]
    write_latencies = [
        normalised_ms(r) for r in open_records if r.request.kind != "read" and r.error is None
    ] + [
        normalised_ms(r, segment.probe)
        for segment in segments
        for r in segment.records
        if r.request.kind != "read" and r.error is None
    ]
    late = [(r.sent - r.waited_from) * 1000.0 for r in open_records]
    result.put(
        "setup_s",
        median(ready["setup"]) + ready["server_start_s"],
        len(ready["setup"]),
        f"raw {median(ready['raw_setup']) + ready['server_start_s']:.4f}",
    )
    result.put("peak_rss_mb", totals["peak_rss_mb"], note="server process")
    busy, raw_busy, rates, raw_rates = [], [], [], []
    for segment in segments:
        completed = [
            r for r in segment.records
            if r.request.kind == "read" and r.error is None and r.done <= segment.end
        ]
        scale = speed.factor(segment.probe)
        busy += [r.latency * 1000.0 * scale for r in completed]
        raw_busy += [r.latency * 1000.0 for r in completed]
        rates.append(len(completed) / (segment.end - segment.start) / scale)
        raw_rates.append(len(completed) / (segment.end - segment.start))
    result.put(
        "read_p50_ms",
        median(busy),
        len(busy),
        f"closed loop, 2 sessions; raw {median(raw_busy):.4f}",
    )
    result.put(
        "read_capacity_rps",
        median(rates),
        len(busy),
        f"closed loop, 2 sessions, median of {len(rates)} slices; raw {median(raw_rates):.2f}",
    )
    deciles = " ".join(f"{percentile(latencies, p):.1f}" for p in range(10, 100, 10))
    result.put(
        "read.open_p50_ms",
        median(latencies),
        len(latencies),
        f"open loop at {RATE:g}/s; deciles {deciles}",
    )
    pct = tail_percentile(len(latencies))
    if pct is not None:
        result.put("read.tail_ms", percentile(latencies, pct), len(latencies), f"p{pct:g}")
    if write_latencies:
        result.put("write.p50_ms", median(write_latencies), len(write_latencies))
        pct = tail_percentile(len(write_latencies), 95.0)
        if pct is not None:
            result.put(
                "write.tail_ms", percentile(write_latencies, pct), len(write_latencies), f"p{pct:g}"
            )
    result.put("loadgen.late_p99_ms", percentile(late, 99.0), len(late))
    result.put("loadgen.backlog_max", _backlog_max(open_records))
    if result.metrics["loadgen.late_p99_ms"].value > LATE_LIMIT_MS:
        result.valid = False
    if trace:
        service = [(r.done - r.sent) * 1000.0 for r in open_records + closed_records if r.error is None]
        for name, value in totals.items():
            if not name.startswith("_") and name != "peak_rss_mb":
                result.put(name, value)
        result.put("wire.ms", sum(service) / len(service) - totals["server.handle_ms"], len(service))


def _backlog_max(records: list) -> int:
    """Most requests of one session that were due but not yet sent."""
    worst = 0
    for client in traffic.CLIENTS:
        mine = [r for r in records if r.request.client == client]
        dues = [r.due for r in mine]
        for position, record in enumerate(mine):
            worst = max(worst, bisect_right(dues, record.sent) - position - 1)
    return worst
