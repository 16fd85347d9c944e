"""Unit tests pinning the batch kernels' semantics.

The differential suite proves the batch kernels equal the row oracle
(:class:`~repro.engine.vector.RowOracleCompiler`) on whole MT-H queries;
these tests pin the *local* contracts that proof rests on: three-valued
logic inside batch kernels, NULL-skipping batch aggregation, memo-batched
conversion-UDF dispatch with exact counter parity, and the batch-bounded
streaming guarantee (LIMIT + ``fetchmany`` consume at most one extra batch).
"""

from __future__ import annotations

import pytest

import repro.api as api
from repro.backends import EngineBackend
from repro.engine import Database, RowOracleCompiler


def _db(row_oracle: bool = False, batch_size: int = 4, profile: str = "postgres"):
    db = Database(profile, batch_size=batch_size)
    if row_oracle:
        db.kernel_compiler = RowOracleCompiler
    return db


def _both_modes(setup, query: str):
    """Run ``query`` on a batch-kernel and a row-oracle database built by ``setup``."""
    results = []
    for row_oracle in (False, True):
        db = _db(row_oracle=row_oracle)
        setup(db)
        results.append(db.query(query).rows)
    return results


def _null_table(db) -> None:
    db.execute("CREATE TABLE t (a INTEGER, b INTEGER, s VARCHAR(10))")
    db.insert_rows(
        "t",
        [
            (1, 10, "alpha"),
            (2, None, "beta"),
            (None, 30, None),
            (4, None, "delta"),
            (None, None, "alpha"),
        ],
    )


# ---------------------------------------------------------------------------
# three-valued logic
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "predicate",
    [
        "a < 3",
        "a <> 2",
        "a = b",
        "a < b OR b IS NULL",
        "a > 1 AND b > 5",
        "NOT (a > 1)",
        "a IN (1, 4)",
        "a IN (1, NULL)",
        "a NOT IN (2, NULL)",
        "a BETWEEN 1 AND 3",
        "s LIKE 'a%'",
        "s IS NOT NULL",
        "a + b > 10",
        "CASE WHEN a IS NULL THEN b ELSE a END > 2",
    ],
)
def test_null_predicates_match_row_oracle(predicate):
    """NULL-involving predicates keep exactly the rows row mode keeps."""
    query = f"SELECT a, b, s FROM t WHERE {predicate}"
    vectorized, row_mode = _both_modes(_null_table, query)
    assert vectorized == row_mode


def test_null_propagation_in_projections():
    query = (
        "SELECT a + b, a = b, a < b, -a, NOT (a > 2), s || '!', "
        "CASE WHEN a > 2 THEN 'big' END FROM t"
    )
    vectorized, row_mode = _both_modes(_null_table, query)
    assert vectorized == row_mode
    # pin the 3VL values themselves, not just mode agreement
    assert vectorized[1] == (None, None, None, -2, True, "beta!", None)
    assert vectorized[2] == (None, None, None, None, None, None, None)


def test_case_branches_see_only_their_rows():
    """The sub-batched CASE must not evaluate a branch on foreign rows —
    here the THEN division would raise on the rows the WHEN filters out."""

    def setup(db):
        db.execute("CREATE TABLE t (a INTEGER, d INTEGER)")
        db.insert_rows("t", [(10, 2), (20, 0), (30, 5), (40, 0)])

    query = "SELECT CASE WHEN d > 0 THEN a / d ELSE -1 END FROM t"
    vectorized, row_mode = _both_modes(setup, query)
    assert vectorized == row_mode == [(5.0,), (-1,), (6.0,), (-1,)]


# ---------------------------------------------------------------------------
# NULL-skipping batch aggregation
# ---------------------------------------------------------------------------


def test_aggregates_skip_nulls_like_row_mode():
    query = (
        "SELECT COUNT(*), COUNT(b), SUM(b), AVG(b), MIN(b), MAX(b), "
        "COUNT(DISTINCT s) FROM t"
    )
    vectorized, row_mode = _both_modes(_null_table, query)
    assert vectorized == row_mode
    assert vectorized == [(5, 2, 40, 20.0, 10, 30, 3)]


def test_all_null_group_aggregates_are_null():
    def setup(db):
        db.execute("CREATE TABLE t (k INTEGER, v INTEGER)")
        db.insert_rows("t", [(1, None), (1, None), (2, 7)])

    query = "SELECT k, SUM(v), AVG(v), MIN(v), COUNT(v) FROM t GROUP BY k ORDER BY k"
    vectorized, row_mode = _both_modes(setup, query)
    assert vectorized == row_mode
    assert vectorized == [(1, None, None, None, 0), (2, 7, 7.0, 7, 1)]


def test_grouped_sums_are_bit_identical():
    """Batch accumulators fold in row order, so float sums match exactly."""

    def setup(db):
        db.execute("CREATE TABLE t (k INTEGER, v DOUBLE)")
        db.insert_rows(
            "t", [(i % 3, 0.1 * i) for i in range(1000)]
        )

    query = "SELECT k, SUM(v), AVG(v) FROM t GROUP BY k ORDER BY k"
    vectorized, row_mode = _both_modes(setup, query)
    assert vectorized == row_mode  # == : bit-identical floats, same order


# ---------------------------------------------------------------------------
# memo-batched conversion UDFs
# ---------------------------------------------------------------------------

_UDF_DDL = (
    "CREATE FUNCTION double_it (INTEGER) RETURNS INTEGER AS "
    "'SELECT $1 + $1' LANGUAGE SQL IMMUTABLE"
)


def _udf_workload(profile: str, row_oracle: bool):
    db = _db(row_oracle=row_oracle, profile=profile)
    db.execute("CREATE TABLE t (v INTEGER)")
    # 12 rows, 3 distinct argument values -> the memo collapses 12 calls
    db.insert_rows("t", [(i % 3,) for i in range(12)])
    db.execute(_UDF_DDL)
    db.query("SELECT double_it(v) FROM t")
    stats = db.stats
    return (stats.udf_calls, stats.udf_executions, stats.udf_cache_hits)


@pytest.mark.parametrize("profile", ["postgres", "system_c"])
def test_udf_counters_have_parity(profile):
    """Both modes report identical call/execution/cache-hit counts."""
    assert _udf_workload(profile, row_oracle=False) == _udf_workload(
        profile, row_oracle=True
    )


def test_postgres_memo_dedupes_within_a_batch():
    calls, executions, hits = _udf_workload("postgres", row_oracle=False)
    assert calls == 12
    assert executions == 3  # one per distinct argument
    assert hits == 9


def test_system_c_profile_never_caches():
    calls, executions, hits = _udf_workload("system_c", row_oracle=False)
    assert calls == 12
    assert executions == 12
    assert hits == 0


# ---------------------------------------------------------------------------
# operator profiles
# ---------------------------------------------------------------------------


def test_operator_profiles_record_batched_execution():
    db = _db(batch_size=8)
    db.execute("CREATE TABLE t (a INTEGER)")
    db.insert_rows("t", [(i,) for i in range(40)])
    db.stats.reset()
    db.query("SELECT a + 1 FROM t WHERE a >= 0 ORDER BY a")
    profiles = {p.operator: p for p in db.stats.operator_snapshot()}
    assert profiles["scan+join"].rows == 40
    assert profiles["project"].rows == 40
    assert profiles["project"].batches == 5  # 40 rows / 8 per batch
    assert profiles["project"].rows_per_batch == 8.0
    assert profiles["order"].rows == 40
    for profile in profiles.values():
        assert profile.seconds >= 0.0
        assert "rows/batch" in profile.describe()


# ---------------------------------------------------------------------------
# batch-bounded streaming
# ---------------------------------------------------------------------------


class _Probe:
    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, value):
        self.calls += 1
        return value


def test_limit_and_fetchmany_consume_at_most_one_extra_batch():
    """The streaming contract: a pull of N rows evaluates at most the
    batches spanning those N rows — never the whole table."""
    batch = 32
    backend = EngineBackend(database=Database(batch_size=batch))
    probe = _Probe()
    backend.connect().register_python_function("probe", probe)
    with api.connect(backend) as connection:
        cursor = connection.cursor()
        cursor.execute("CREATE TABLE t (a INTEGER NOT NULL)")
        cursor.executemany(
            "INSERT INTO t (a) VALUES (?)", [(i,) for i in range(1000)]
        )
        cursor.execute("SELECT probe(a) FROM t LIMIT 10")
        assert cursor.fetchall() == [(i,) for i in range(10)]
        assert probe.calls <= batch  # LIMIT 10 touched one batch of 1000 rows

        probe.calls = 0
        cursor.execute("SELECT probe(a) FROM t")
        assert cursor.fetchmany(40) == [(i,) for i in range(40)]
        # 40 rows span two 32-row batches: one extra batch at most
        assert probe.calls <= 2 * batch
        assert len(cursor.fetchall()) == 960
        assert probe.calls == 1000
