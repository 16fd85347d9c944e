"""Concurrent gateway sessions: multi-threaded safety tests on plain threads."""

import threading

import pytest

from repro.gateway import QueryGateway

from tests.conftest import build_paper_example

SQL_BY_NAME = "SELECT E_name, E_salary FROM Employees ORDER BY E_name"
SQL_TOTALS = (
    "SELECT E_reg_id, SUM(E_salary) AS total FROM Employees "
    "GROUP BY E_reg_id ORDER BY E_reg_id"
)
SQL_JOIN = (
    "SELECT R_name, COUNT(*) AS heads FROM Employees, Roles "
    "WHERE E_role_id = R_role_id GROUP BY R_name ORDER BY R_name"
)


@pytest.fixture
def mt():
    return build_paper_example()


def expected_rows(mt, client, sql):
    connection = mt.connect(client, optimization="o4")
    connection.set_scope("IN (0, 1)")
    return connection.query(sql).rows


def run_threads(work, count):
    """Run ``work(index)`` on ``count`` threads; return what the threads raised."""
    failures = []

    def guarded(index):
        try:
            work(index)
        except Exception as exc:  # pragma: no cover - only on failure
            failures.append(exc)

    threads = [threading.Thread(target=guarded, args=(index,)) for index in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return failures


def test_concurrent_sessions_return_correct_results(mt):
    gateway = mt.gateway(cache_size=64)
    statements = [SQL_BY_NAME, SQL_TOTALS, SQL_JOIN] * 4
    sessions = [
        gateway.session(client, optimization="o4", scope="IN (0, 1)")
        for client in (0, 1, 0, 1)
    ]
    results = {index: [] for index in range(len(sessions))}

    def drive(index):
        for sql in statements:
            results[index].append(sessions[index].query(sql).rows)

    assert run_threads(drive, len(sessions)) == []
    for index, session in enumerate(sessions):
        assert results[index] == [expected_rows(mt, session.client, sql) for sql in statements]
    # 6 distinct (digest, client, D', level) plans; same-key sessions racing the
    # first rewrite can each record a miss, so the floor is exact, the count not
    stats = gateway.cache_stats
    assert stats.misses >= 6
    assert stats.hits + stats.misses == len(sessions) * len(statements)
    assert len(gateway.cache) == 6
    gateway.close()


def test_one_session_shared_by_many_threads_is_serialized(mt):
    """The session lock makes even *misuse* (one session, many threads) safe."""
    gateway = mt.gateway()
    session = gateway.session(0, optimization="o4", scope="IN (0, 1)")
    reference = expected_rows(mt, 0, SQL_BY_NAME)

    def hammer(_index):
        for _ in range(5):
            assert session.query(SQL_BY_NAME).rows == reference

    assert run_threads(hammer, 8) == []
    assert session.stats.executed == 40
    gateway.close()


def test_concurrent_dml_loses_no_writes(mt):
    """The engine's write lock: racing INSERT batches must all land."""
    gateway = mt.gateway()
    writers = 6
    per_writer = 5
    sessions = [gateway.session(0, optimization="o4") for _ in range(writers)]

    def write(worker):
        for i in range(per_writer):
            sessions[worker].execute(
                f"INSERT INTO Employees VALUES ({100 + worker * per_writer + i}, "
                f"'W{worker}_{i}', 0, 1, 1000, 30)"
            )

    assert run_threads(write, writers) == []
    count = mt.connect(0).query("SELECT COUNT(*) AS n FROM Employees").rows[0][0]
    assert count == 3 + writers * per_writer  # 3 seed rows for tenant 0
    gateway.close()


def test_gateway_context_manager_detaches_listener(mt):
    with QueryGateway(mt) as gateway:
        session = gateway.session(0, optimization="o4", scope="IN (0, 1)")
        session.query(SQL_BY_NAME)
        assert len(gateway.cache) == 1
    mt.execute_ddl("CREATE TABLE Scratch GLOBAL (S_id INTEGER NOT NULL)")
    assert gateway.cache_stats.invalidations == 0


def test_load_gauge_counts_and_peaks():
    from repro.gateway import LoadGauge

    gauge = LoadGauge()
    gauge.enqueue()
    gauge.enqueue()
    gauge.dequeue()
    gauge.enter()
    gauge.enter()
    gauge.exit()
    snapshot = gauge.snapshot()
    assert (snapshot.queued, snapshot.peak_queued) == (1, 2)
    assert (snapshot.in_flight, snapshot.peak_in_flight) == (1, 2)
    assert "peak 2" in snapshot.describe()
