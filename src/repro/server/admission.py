"""Per-tenant admission control: bounded queues, concurrency caps, shedding.

Every EXECUTE/FETCH request passes through the connection's tenant gate
before it may touch a worker thread:

* up to ``concurrency`` requests of one tenant run (or hold an open cursor)
  at once,
* up to ``queue_depth`` more may *wait* for a slot,
* anything beyond that is **shed immediately** with a retryable
  ``SERVER_BUSY`` error frame — the request never consumes backend
  resources, and the client knows a backoff-and-retry is safe.

Slots are held for the whole life of a request **including its result
stream**: a client that executes a large SELECT and stops fetching keeps its
slot pinned until the cursor is exhausted or closed, so one slow consumer
throttles *its own tenant* (further statements shed) instead of stalling the
event loop or other tenants — that is the backpressure story.

Load is tracked with a :class:`~repro.gateway.metrics.LoadGauge`: current and
peak in-flight and queued requests.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Optional

from ..errors import ServerBusyError
from ..gateway.metrics import LoadGauge, LoadSnapshot


@dataclass(frozen=True)
class AdmissionSnapshot:
    """Point-in-time counters of one gate (or the whole controller)."""

    admitted: int
    shed: int
    load: LoadSnapshot

    def describe(self) -> str:
        """One-line human-readable admission summary."""
        return f"admitted {self.admitted}, shed {self.shed}, {self.load.describe()}"


class TenantGate:
    """One tenant's bounded admission queue + concurrency cap.

    Single-loop discipline: ``admit``/``release`` run on the event-loop
    thread (worker threads release via ``loop.call_soon_threadsafe``), so the
    counters need no locking; the shared :class:`LoadGauge` is thread-safe on
    its own.
    """

    def __init__(self, ttid: int, concurrency: int, queue_depth: int) -> None:
        self.ttid = ttid
        self.concurrency = concurrency
        self.queue_depth = queue_depth
        self.gauge = LoadGauge()
        self.admitted = 0
        self.shed = 0
        self._in_flight = 0
        self._waiters: list[asyncio.Future] = []

    async def admit(self) -> None:
        """Take one execution slot, waiting in the bounded queue if needed.

        Raises :class:`~repro.errors.ServerBusyError` without waiting when
        the queue is already full — the load-shedding path.
        """
        if self._in_flight < self.concurrency and not self._waiters:
            self._grant()
            return
        if len(self._waiters) >= self.queue_depth:
            self.shed += 1
            raise ServerBusyError(
                f"tenant {self.ttid} is at capacity ({self._in_flight} in "
                f"flight, {len(self._waiters)} queued); retry after a backoff"
            )
        waiter: asyncio.Future = asyncio.get_running_loop().create_future()
        self._waiters.append(waiter)
        self.gauge.enqueue()
        try:
            await waiter
        except asyncio.CancelledError:
            if waiter in self._waiters:
                # timed out / disconnected while still queued: withdraw
                self._waiters.remove(waiter)
                self.gauge.dequeue()
            elif waiter.done() and not waiter.cancelled():
                # granted in the same instant the wait was cancelled: hand
                # the slot straight back (to the next waiter, if any)
                self.gauge.dequeue()
                self._release_slot()
            # else: _release_slot already saw the cancelled waiter and
            # dequeued it on our behalf
            raise
        self.gauge.dequeue()

    def _grant(self) -> None:
        self._in_flight += 1
        self.admitted += 1
        self.gauge.enter()

    def release(self) -> None:
        """Give one slot back; a queued waiter (if any) takes it over."""
        self._release_slot()

    def _release_slot(self) -> None:
        self._in_flight -= 1
        self.gauge.exit()
        while self._waiters:
            waiter = self._waiters.pop(0)
            if waiter.cancelled():
                self.gauge.dequeue()
                continue
            self._grant()
            waiter.set_result(None)
            return

    @property
    def in_flight(self) -> int:
        """Requests of this tenant currently executing or holding a cursor."""
        return self._in_flight

    @property
    def queued(self) -> int:
        """Requests of this tenant currently waiting for a slot."""
        return len(self._waiters)

    def snapshot(self) -> AdmissionSnapshot:
        """This gate's counters plus its gauge reading."""
        return AdmissionSnapshot(
            admitted=self.admitted, shed=self.shed, load=self.gauge.snapshot()
        )


class AdmissionController:
    """The server's tenant-gate registry (lazily one gate per tenant)."""

    def __init__(self, concurrency: int, queue_depth: int) -> None:
        self.concurrency = concurrency
        self.queue_depth = queue_depth
        self._gates: dict[int, TenantGate] = {}

    def gate(self, ttid: int) -> TenantGate:
        """The (lazily created) gate of tenant ``ttid``."""
        gate = self._gates.get(ttid)
        if gate is None:
            gate = TenantGate(ttid, self.concurrency, self.queue_depth)
            self._gates[ttid] = gate
        return gate

    def snapshot(self) -> AdmissionSnapshot:
        """Aggregate counters across every tenant gate.

        Peaks sum per-gate peaks, so the aggregate is an upper bound (the
        per-tenant peaks need not have coincided) — fine for the "how close
        to capacity did we get" question the number answers.
        """
        gates = list(self._gates.values())
        snapshots = [gate.snapshot() for gate in gates]
        return AdmissionSnapshot(
            admitted=sum(s.admitted for s in snapshots),
            shed=sum(s.shed for s in snapshots),
            load=LoadSnapshot(
                in_flight=sum(s.load.in_flight for s in snapshots),
                queued=sum(s.load.queued for s in snapshots),
                peak_in_flight=sum(s.load.peak_in_flight for s in snapshots),
                peak_queued=sum(s.load.peak_queued for s in snapshots),
            ),
        )

    def tenant_snapshot(self, ttid: int) -> Optional[AdmissionSnapshot]:
        """One tenant's counters, or ``None`` if it never connected."""
        gate = self._gates.get(ttid)
        return gate.snapshot() if gate is not None else None
