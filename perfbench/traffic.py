"""The serving workloads' traffic: read shapes, writes and seeded schedules.

Every request is built from the run's seed and from key lists that the
oracle file recorded from the loaded data, so the program under test only
ever receives the generated requests.

Reads are four parameterized shapes, each scoped ``IN (t)`` with the tenant
``t`` drawn from a zipf distribution over the 100 tenants.  Writes (the
``tenant-rw`` workload only) touch rows reserved for them, so that no read
result changes while writes run:

* ``UPDATE orders SET o_orderpriority`` on one of the writer's reserved
  orders (reads never project ``o_orderpriority`` nor read reserved orders),
* ``INSERT INTO lineitem`` a line of a reserved order with a ship date
  before every band the band read asks for.

Each write passes its own tenant's scope (``IN (c)`` for client ``c``):
``scope=`` is sticky on a session, so a write that relied on the scope left
behind by the previous read would run under that read's tenant.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.sql.types import Date

#: the read shapes, by name (bind parameters are ``?``)
READ_SHAPES = {
    "point": (
        "SELECT o_orderkey, o_orderstatus, o_totalprice, o_orderdate "
        "FROM orders WHERE o_orderkey = ?"
    ),
    "recent": (
        "SELECT o_orderkey, o_orderdate, o_totalprice FROM orders "
        "WHERE o_custkey = ? ORDER BY o_orderdate DESC, o_orderkey DESC LIMIT 10"
    ),
    "lines": (
        "SELECT l_linenumber, p_name, l_quantity, l_extendedprice "
        "FROM lineitem, part WHERE l_orderkey = ? AND l_partkey = p_partkey "
        "ORDER BY l_linenumber"
    ),
    "band": (
        "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
        "WHERE l_shipdate >= ? AND l_shipdate < ? "
        "AND l_discount BETWEEN ? AND ? AND l_quantity < ?"
    ),
}

SHAPE_NAMES = tuple(READ_SHAPES)

UPDATE_SQL = "UPDATE orders SET o_orderpriority = ? WHERE o_orderkey = ?"

INSERT_SQL = (
    "INSERT INTO lineitem (l_orderkey, l_partkey, l_suppkey, l_linenumber, "
    "l_quantity, l_extendedprice, l_discount, l_tax, l_returnflag, l_linestatus, "
    "l_shipdate, l_commitdate, l_receiptdate, l_shipinstruct, l_shipmode, l_comment) "
    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)"
)

PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW")

#: parameter choices recorded per tenant and shape
CHOICES = 8

#: the two serving clients (one connection each)
CLIENTS = (1, 2)

#: share of requests that are writes in ``tenant-rw``
WRITE_SHARE = 0.1

#: line numbers of inserted lines start here (generated orders use 1..7)
FIRST_INSERTED_LINE = 100

#: ship date of inserted lines: before every band the band read asks for
INSERTED_SHIPDATE = Date.from_ymd(1992, 1, 2)


def band_parameters(choice: int) -> tuple:
    """The ``choice``-th Q6-class band: one ship year, a discount band, a quantity."""
    year = 1993 + choice % 5
    discount = 0.02 + 0.01 * (choice % 8)
    return (
        Date.from_ymd(year, 1, 1),
        Date.from_ymd(year + 1, 1, 1),
        round(discount - 0.01, 2),
        round(discount + 0.01, 2),
        24 + choice % 2,
    )


def read_parameters(keys: dict, shape: str, tenant: int, choice: int) -> tuple:
    """Bind values of one read, from the oracle's recorded key lists."""
    if shape == "band":
        return band_parameters(choice)
    pool = keys["customers" if shape == "recent" else "orders"][str(tenant)]
    return (pool[choice % len(pool)],)


def oracle_key(shape: str, client: int, tenant: int, choice: int) -> str:
    """The oracle table key of one read."""
    return f"{shape}|{client}|{tenant}|{choice}"


@dataclass
class Request:
    """One generated request; ``due`` is seconds after the phase start."""

    index: int
    client: int
    kind: str  # "read", "update" or "insert"
    sql: str
    params: tuple
    scope: str
    due: float = 0.0
    key: Optional[str] = None  # the oracle key (reads)
    target: Optional[int] = None  # the written order key (writes)


#: one block of reads: the shape mix, dealt in a shuffled order.  Point and
#: customer reads dominate, so the median read falls inside the cheap shapes
#: rather than on the step between them and the join or band reads.
READ_DECK = ("point",) * 7 + ("recent",) * 7 + ("lines",) * 3 + ("band",) * 3

#: requests per block that holds exactly one write (``tenant-rw``)
WRITE_BLOCK = round(1 / WRITE_SHARE)


@dataclass
class Traffic:
    """Seeded request factory for one serving run.

    Shapes and tenants are dealt in blocks (stratified sampling): every block
    of :data:`READ_DECK` reads has the deck's exact shape mix and one tenant
    per stratum of the zipf distribution, and every block of
    :data:`WRITE_BLOCK` requests holds one write.  Seeds then differ in order
    and in which keys they touch, not in the mix itself.
    """

    keys: dict
    seed: int
    writes: bool
    tenants: int = 100
    _rng: random.Random = field(init=False, repr=False)
    _cumulative: list = field(init=False, repr=False)
    _next_line: dict = field(init=False, repr=False)
    _reads: list = field(init=False, repr=False, default_factory=list)
    _slots: list = field(init=False, repr=False, default_factory=list)
    _count: int = field(init=False, repr=False, default=0)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)
        weights = [1.0 / rank for rank in range(1, self.tenants + 1)]
        total = sum(weights)
        running = 0.0
        self._cumulative = []
        for weight in weights:
            running += weight / total
            self._cumulative.append(running)
        self._next_line = {client: FIRST_INSERTED_LINE for client in CLIENTS}

    def zipf_tenant(self, u: float) -> int:
        """The tenant at quantile ``u`` of the zipf distribution (1 = most)."""
        return min(bisect_left(self._cumulative, u), self.tenants - 1) + 1

    def _deal_reads(self) -> None:
        rng = self._rng
        shapes = list(READ_DECK)
        rng.shuffle(shapes)
        strata = len(shapes)
        tenants = [self.zipf_tenant((j + rng.random()) / strata) for j in range(strata)]
        rng.shuffle(tenants)
        self._reads = list(zip(shapes, tenants))

    def _is_write(self) -> bool:
        if not self.writes:
            return False
        if not self._slots:
            self._slots = [False] * WRITE_BLOCK
            self._slots[self._rng.randrange(WRITE_BLOCK)] = True
        return self._slots.pop()

    def next(self, client: Optional[int] = None) -> Request:
        """The next request (for ``client``; by default clients alternate)."""
        index = self._count
        self._count += 1
        if client is None:
            client = CLIENTS[index % len(CLIENTS)]
        if self._is_write():
            return self._write(index, client)
        if not self._reads:
            self._deal_reads()
        shape, tenant = self._reads.pop()
        choice = self._rng.randrange(CHOICES)
        return Request(
            index=index,
            client=client,
            kind="read",
            sql=READ_SHAPES[shape],
            params=read_parameters(self.keys, shape, tenant, choice),
            scope=f"IN ({tenant})",
            key=oracle_key(shape, client, tenant, choice),
        )

    def _write(self, index: int, client: int) -> Request:
        rng = self._rng
        target = rng.choice(self.keys["write_orders"][str(client)])
        scope = f"IN ({client})"
        if rng.random() < 0.5:
            return Request(
                index=index,
                client=client,
                kind="update",
                sql=UPDATE_SQL,
                params=(rng.choice(PRIORITIES), target),
                scope=scope,
                target=target,
            )
        line = self._next_line[client]
        self._next_line[client] = line + 1
        params = (
            target, 1, 1, line, 1.0 + line % 7, 1000.0 + line, 0.01, 0.02, "N", "O",
            INSERTED_SHIPDATE, INSERTED_SHIPDATE, INSERTED_SHIPDATE,
            "NONE", "MAIL", "inserted by the benchmark",
        )
        return Request(
            index=index,
            client=client,
            kind="insert",
            sql=INSERT_SQL,
            params=params,
            scope=scope,
            target=target,
        )


def open_loop_schedule(traffic: Traffic, rate: float, seconds: float) -> list[Request]:
    """Requests due at a fixed rate (evenly spaced) over ``seconds``."""
    count = int(rate * seconds)
    schedule = []
    for position in range(count):
        request = traffic.next()
        request.due = position / rate
        schedule.append(request)
    return schedule


def closed_loop_queue(traffic: Traffic, client: int, length: int) -> deque:
    """A client's back-to-back request queue for a closed-loop phase."""
    return deque(traffic.next(client) for _ in range(length))


def expected_writes(sent: list[Request], original: dict) -> dict:
    """Final state implied by the writes that were sent, per client.

    ``original`` maps client -> {order key: priority before the run}.
    Returns client -> ``{"priorities": {...}, "inserted": {order: lines}}``.
    """
    state = {}
    for client in CLIENTS:
        priorities = {int(key): value for key, value in original[str(client)].items()}
        state[client] = {"priorities": priorities, "inserted": {key: 0 for key in priorities}}
    for request in sent:
        if request.kind == "update":
            state[request.client]["priorities"][request.target] = request.params[0]
        elif request.kind == "insert":
            state[request.client]["inserted"][request.target] += 1
    return state
