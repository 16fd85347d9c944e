"""Span recording around the public entry points of each ``repro`` layer.

The benchmark traces the program from the outside: :func:`install` replaces
selected public functions and methods with thin wrappers that open a span
for the duration of each call, and :meth:`Tracer.uninstall` restores the
originals.  Nothing under ``src/`` is modified.

A span has a name, start, end, parent span and request id.  The current
span lives in a :mod:`contextvars` variable; while tracing is installed,
``ThreadPoolExecutor.submit`` runs each task in a copy of the submitter's
context, so spans opened on the cluster's scatter threads or the server's
worker threads get the right parent.

Spans are kept in memory and written out once, at the end (:meth:`dump`).
A span's *self time* is its duration minus the part of its interval that
its children cover (:func:`self_times`).
"""

from __future__ import annotations

import concurrent.futures
import contextvars
import functools
import gc
import itertools
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

#: where traced runs write their spans, relative to the checkout
OUTPUT_DIR = ".perfbench"


@dataclass
class Span:
    """One timed call: ``[start, end]`` in ``time.perf_counter`` seconds."""

    sid: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    rid: Optional[int] = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.sid,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "rid": self.rid,
            "attrs": self.attrs,
        }


class Tracer:
    """Collects spans in memory; owns the wrappers it installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[Optional[Span]] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._patches: list[tuple[Any, str, Any, bool]] = []

    # -- recording ---------------------------------------------------------------

    def open(self, name: str, rid: Optional[int] = None) -> tuple[Span, contextvars.Token]:
        parent = self._current.get()
        span = Span(
            sid=next(self._ids),
            parent=parent.sid if parent is not None else None,
            name=name,
            start=time.perf_counter(),
            rid=rid if rid is not None else (parent.rid if parent is not None else None),
        )
        return span, self._current.set(span)

    def close(self, span: Span, token: contextvars.Token) -> None:
        span.end = time.perf_counter()
        self._current.reset(token)
        self.spans.append(span)  # list.append is atomic under the GIL

    def span(self, name: str, rid: Optional[int] = None) -> "_SpanContext":
        """``with tracer.span("name") as span:`` — a span around a block."""
        return _SpanContext(self, name, rid)

    def clear(self) -> None:
        self.spans = []

    # -- wrapping ----------------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: str,
        annotate: Optional[Callable[[Span, tuple, dict, Any], None]] = None,
        cpu: bool = False,
    ) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        ``annotate(span, args, kwargs, result)`` may attach attributes once
        the call returned (or ``result`` is ``None`` when it raised).  With
        ``cpu`` the span also records the calling thread's CPU seconds in
        ``attrs["cpu"]``: busy time, without the time spent waiting for the
        interpreter lock.
        """
        own = attribute in vars(owner)
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span, token = tracer.open(name)
            cpu_started = time.thread_time() if cpu else 0.0
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                if cpu:
                    span.attrs["cpu"] = time.thread_time() - cpu_started
                if annotate is not None:
                    annotate(span, args, kwargs, result)
                tracer.close(span, token)

        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original, own))

    def propagate_context(self) -> None:
        """Run every ``ThreadPoolExecutor`` task in its submitter's context."""
        original = concurrent.futures.ThreadPoolExecutor.submit

        @functools.wraps(original)
        def submit(executor, fn, /, *args, **kwargs):
            context = contextvars.copy_context()
            return original(executor, context.run, fn, *args, **kwargs)

        concurrent.futures.ThreadPoolExecutor.submit = submit
        self._patches.append(
            (concurrent.futures.ThreadPoolExecutor, "submit", original, True)
        )

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attribute, original, own = self._patches.pop()
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    # -- output ------------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines (one span per line)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


class GcPauses:
    """Time spent in garbage collections while installed (``gc.callbacks``)."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._started = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started

    def install(self) -> "GcPauses":
        gc.callbacks.append(self._callback)
        return self

    def uninstall(self) -> None:
        if self._callback in gc.callbacks:
            gc.callbacks.remove(self._callback)


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, rid: Optional[int]) -> None:
        self._tracer = tracer
        self._name = name
        self._rid = rid
        self.span: Optional[Span] = None
        self._token: Optional[contextvars.Token] = None

    def __enter__(self) -> Span:
        self.span, self._token = self._tracer.open(self._name, self._rid)
        return self.span

    def __exit__(self, *exc_info) -> None:
        self._tracer.close(self.span, self._token)


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------


def covered(interval: tuple[float, float], parts: Iterable[tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``parts``."""
    low, high = interval
    clipped = sorted(
        (max(start, low), min(end, high)) for start, end in parts if end > low and start < high
    )
    total = 0.0
    run_start: Optional[float] = None
    run_end = 0.0
    for start, end in clipped:
        if run_start is None or start > run_end:
            if run_start is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_start is not None:
        total += run_end - run_start
    return total


def children_of(spans: Iterable[Span]) -> dict[int, list[Span]]:
    """Map span id -> its direct child spans."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return children


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = children_of(spans)
    result = {}
    for span in spans:
        kids = children.get(span.sid, ())
        result[span.sid] = span.duration - covered(
            (span.start, span.end), ((kid.start, kid.end) for kid in kids)
        )
    return result


def sibling_overlap(spans: list[Span]) -> float:
    """Total time that sibling spans run concurrently (counted per extra span).

    The self times of a span tree sum to the root's wall time plus this
    overlap: concurrent children each keep their own time.
    """
    children = children_of(spans)
    by_id = {span.sid: span for span in spans}
    overlap = 0.0
    for parent_id, kids in children.items():
        parent = by_id.get(parent_id)
        if parent is None or len(kids) < 2:
            continue
        interval = (parent.start, parent.end)
        clipped_sum = sum(
            max(0.0, min(kid.end, parent.end) - max(kid.start, parent.start)) for kid in kids
        )
        overlap += clipped_sum - covered(interval, ((kid.start, kid.end) for kid in kids))
    return overlap


def subtree(spans: list[Span], root: Span) -> list[Span]:
    """``root`` and every span below it."""
    children = children_of(spans)
    found = [root]
    index = 0
    while index < len(found):
        found.extend(children.get(found[index].sid, ()))
        index += 1
    return found


# ---------------------------------------------------------------------------
# the layer wrappers
# ---------------------------------------------------------------------------


def _statement_kind(statement: Any) -> str:
    if isinstance(statement, str):
        words = statement.split(None, 1)
        return words[0].lower() if words else "empty"
    return type(statement).__name__.lower()


def _annotate_core(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    statement = args[1] if len(args) > 1 else kwargs.get("statement")
    kind = _statement_kind(statement)
    span.attrs["kind"] = "dml" if kind in ("insert", "update", "delete") else kind


def _annotate_compile(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    if result is not None:
        span.attrs["passes"] = {record.name: record.seconds for record in result.passes}


def _annotate_plan(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    if result is not None:
        span.attrs["kind"] = type(result).__name__


def _annotate_cluster_execute(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    connection = args[0]
    plan = getattr(connection, "last_plan", None)
    if plan is not None:
        span.attrs["kind"] = type(plan).__name__


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every traced layer."""
    from repro.api import connection as api_connection
    from repro.backends import engine as engine_backend
    from repro.backends import sharded
    from repro.cluster import coordinator, planner
    from repro.compile import compiler
    from repro.core import client as core_client
    from repro.engine import storage
    from repro.gateway import session
    from repro import result as result_module

    tracer.propagate_context()
    for module in (core_client, session, api_connection):
        tracer.wrap(module, "parse_submitted_statement", "sql.parse")
    tracer.wrap(compiler.QueryCompiler, "compile", "compile", _annotate_compile)
    tracer.wrap(core_client.MTConnection, "execute", "core.execute", _annotate_core)
    tracer.wrap(session.GatewaySession, "execute_incremental", "gateway.execute")
    engine = engine_backend.EngineConnection
    for method in ("execute", "execute_scoped", "execute_stream"):
        tracer.wrap(engine, method, "engine.execute", cpu=True)
    tracer.wrap(engine, "query", "cluster.shard", cpu=True)
    tracer.wrap(engine, "collect_statistics", "mth.stats")
    tracer.wrap(result_module.RowStream, "fetchmany", "engine.fetch", cpu=True)
    tracer.wrap(storage, "build_typed_column", "engine.typed_build")
    tracer.wrap(planner.ClusterPlanner, "plan", "cluster.plan", _annotate_plan)
    tracer.wrap(coordinator.ShardCoordinator, "execute", "cluster.coordinate")
    tracer.wrap(
        sharded.ShardedConnection, "execute_scoped", "cluster.execute", _annotate_cluster_execute
    )
    tracer.wrap(sharded.ShardedConnection, "collect_statistics", "mth.stats")
