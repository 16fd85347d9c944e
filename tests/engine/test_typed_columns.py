"""Unit tests for the typed-column layer and its kernel-dispatch contracts.

:mod:`repro.engine.columns` promises *observed* stability: a column types
only when every stored value round-trips exactly through the compact
payload, and any doubt refuses (``None``) back to the generic object-list
kernels.  These tests pin the refusal rules (``bool`` is not ``int``,
int64 overflow, mixed types, unparseable date strings), the per-version
storage cache, the typed/generic kernel counters surfaced through
``EXPLAIN ANALYZE``, and — as a Hypothesis property — the null-aware typed
loops against the generic kernels and the row oracle.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Database, GenericKernelCompiler, RowOracleCompiler
from repro.engine.columns import build_typed_column
from repro.sql.types import Date, SQLType


# ---------------------------------------------------------------------------
# build_typed_column: payloads and refusals
# ---------------------------------------------------------------------------


def test_integer_column_types_as_int64_array():
    column = build_typed_column(SQLType.INTEGER, [1, 2, 3])
    assert column is not None
    assert column.kind == "int"
    assert column.values.typecode == "q"
    assert list(column.values) == [1, 2, 3]
    assert column.null_free
    assert column.object_values() is column.values


def test_decimal_column_types_as_double_array():
    column = build_typed_column(SQLType.DECIMAL, [0.5, -1.25, 3.0])
    assert column is not None
    assert column.kind == "float"
    assert column.values.typecode == "d"
    assert list(column.values) == [0.5, -1.25, 3.0]


def test_nulls_become_explicit_positions_with_zero_padding():
    column = build_typed_column(SQLType.INTEGER, [7, None, 9, None])
    assert column is not None
    assert column.nulls == frozenset({1, 3})
    assert list(column.values) == [7, 0, 9, 0]
    assert not column.null_free
    # padded payload is NOT the object column: generic callers must gather
    assert column.object_values() is None


def test_bool_never_masquerades_as_int():
    assert build_typed_column(SQLType.INTEGER, [1, True, 3]) is None


def test_int_out_of_int64_range_refuses():
    assert build_typed_column(SQLType.INTEGER, [1, 2**63]) is None
    assert build_typed_column(SQLType.INTEGER, [-(2**63) - 1]) is None
    # the boundary values themselves are fine
    edge = build_typed_column(SQLType.INTEGER, [2**63 - 1, -(2**63)])
    assert edge is not None and list(edge.values) == [2**63 - 1, -(2**63)]


def test_mixed_numeric_types_refuse():
    assert build_typed_column(SQLType.INTEGER, [1, 2.0]) is None
    assert build_typed_column(SQLType.DECIMAL, [1.0, 2]) is None


def test_date_column_stores_day_ordinals():
    column = build_typed_column(
        SQLType.DATE, [Date.from_string("1970-01-02"), "2020-01-05", None]
    )
    assert column is not None
    assert column.kind == "date"
    assert column.values[0] == 1  # one day past the 1970-01-01 epoch
    assert column.values[1] == Date.from_string("2020-01-05").days
    assert column.nulls == frozenset({2})
    # day ordinals are not the stored objects: no zero-copy object view
    assert column.object_values() is None


def test_unparseable_date_string_refuses():
    assert build_typed_column(SQLType.DATE, ["2020-01-05", "not a date"]) is None


def test_varchar_column_is_zero_copy():
    values = ["a", None, "c"]
    column = build_typed_column(SQLType.VARCHAR, values)
    assert column is not None
    assert column.kind == "str"
    assert column.values is values  # by reference, no copy
    assert column.nulls == frozenset({1})
    assert column.object_values() is values
    assert build_typed_column(SQLType.VARCHAR, ["a", 1]) is None


# ---------------------------------------------------------------------------
# storage: per-version typed cache
# ---------------------------------------------------------------------------


def _table(db: Database):
    db.execute("CREATE TABLE t (a INTEGER, s VARCHAR(10))")
    db.insert_rows("t", [(1, "x"), (2, "y")])
    return db.catalog.table("t")


def test_typed_cache_is_reused_within_a_version():
    table = _table(Database())
    first = table.typed_column(0)
    assert first is not None and list(first.values) == [1, 2]
    assert table.typed_column(0) is first  # cached, not rebuilt


def test_typed_cache_invalidates_on_mutation():
    db = Database()
    table = _table(db)
    before = table.typed_column(0)
    db.insert_rows("t", [(3, "z")])
    after = table.typed_column(0)
    assert after is not before
    assert list(after.values) == [1, 2, 3]


def test_typed_cache_remembers_refusals():
    db = Database()
    table = _table(db)
    db.insert_rows("t", [(True, "w")])  # destabilize column 0
    assert table.typed_column(0) is None
    assert 0 in table._typed_cache  # the refusal itself is cached


# ---------------------------------------------------------------------------
# kernel dispatch: typed vs. generic compilers
# ---------------------------------------------------------------------------


def _kernel_db(compiler=None) -> Database:
    db = Database(batch_size=4)
    if compiler is not None:
        db.kernel_compiler = compiler
    db.execute("CREATE TABLE t (a INTEGER, b DECIMAL(10,2))")
    db.insert_rows("t", [(i, float(i)) for i in range(10)])
    return db


def _kernels(db: Database, query: str) -> tuple[int, int]:
    db.stats.reset()
    rows = db.query(query).rows
    kernels = db.stats.kernels
    return rows, (kernels.typed, kernels.generic)


def test_typed_kernels_dispatch_only_when_enabled():
    query = "SELECT SUM(b * 2.0) FROM t WHERE a > 3"
    rows_on, (typed_on, _) = _kernels(_kernel_db(), query)
    rows_off, (typed_off, generic_off) = _kernels(
        _kernel_db(GenericKernelCompiler), query
    )
    assert rows_on == rows_off
    assert typed_on > 0
    # the generic compiler builds no typed-capable kernels at all: both
    # counters stay zero (generic counts only *runtime fallbacks* from typed
    # kernels)
    assert typed_off == 0 and generic_off == 0


def test_kernel_compiler_swap_flips_dispatch_and_replans():
    db = _kernel_db()
    # a correlated SQL-UDF body: its plan is cached, its rows are not
    db.register_sql_function("big", "SELECT COUNT(*) FROM t WHERE a > 3 AND b > $1")
    query = "SELECT big(0.0)"
    rows_before, (typed, _) = _kernels(db, query)
    assert typed > 0
    db.kernel_compiler = GenericKernelCompiler
    # the cached body plan keeps the kernels it was compiled with ...
    assert _kernels(db, query)[1][0] > 0
    # ... until the executor drops it
    db.executor.invalidate()
    rows_after, (typed, generic) = _kernels(db, query)
    assert rows_after == rows_before
    assert typed == 0 and generic == 0
    del db.kernel_compiler  # back to the class default
    db.executor.invalidate()
    _, (typed, _) = _kernels(db, query)
    assert typed > 0


def test_unstable_column_falls_back_per_batch():
    """A destabilized column refuses typing but stays correct generically."""
    db = _kernel_db()
    db.insert_rows("t", [(True, 10.0)])  # bool destabilizes column a
    query = "SELECT COUNT(*) FROM t WHERE a >= 3"
    rows, (typed, generic) = _kernels(db, query)
    assert rows == [(7,)]  # ints 3..9 match; True >= 3 is False
    assert typed == 0 and generic > 0


def test_operator_profiles_report_kernel_counts():
    db = _kernel_db()
    db.stats.reset()
    db.query("SELECT a FROM t WHERE a > 3")
    profiles = {p.operator: p for p in db.stats.operator_snapshot()}
    scan = profiles["scan+join"]
    assert scan.typed_kernels >= 1
    assert "kernels typed=" in scan.describe()


# ---------------------------------------------------------------------------
# property: null-aware typed kernels vs. generic kernels vs. row oracle
# ---------------------------------------------------------------------------

_NULLABLE = "CREATE TABLE n (i INTEGER, j INTEGER, d DECIMAL(10,2), t DATE)"
_DAY0 = Date.from_string("1995-01-01").days

_ints = st.one_of(st.none(), st.integers(-5, 5))
_decimals = st.one_of(st.none(), st.sampled_from([-2.5, -1.0, 0.0, 0.5, 1.25, 3.0]))
_dates = st.one_of(st.none(), st.integers(0, 6).map(lambda k: Date(_DAY0 + k)))
_rows = st.lists(st.tuples(_ints, _ints, _decimals, _dates), min_size=1, max_size=20)

_int_literal = st.integers(-5, 5).map(str)
_date_literal = st.integers(0, 6).map(
    lambda k: f"DATE '{Date(_DAY0 + k).to_date().isoformat()}'"
)
_compare = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])
_numeric_column = st.sampled_from(["i", "j", "d"])
_operand = st.one_of(
    _numeric_column,
    st.tuples(_numeric_column, st.sampled_from(["+", "-", "*"]), _int_literal).map(
        " ".join
    ),
    st.tuples(_numeric_column, st.sampled_from(["2", "-4", "0.5"])).map(
        lambda parts: f"{parts[0]} / {parts[1]}"
    ),
)
_in_items = st.lists(_int_literal, min_size=1, max_size=3)


@st.composite
def _typed_predicates(draw):
    """One predicate shape the typed layer specializes."""
    shape = draw(
        st.sampled_from(
            ["const", "columns", "between", "inlist", "date", "date_between"]
        )
    )
    negation = draw(st.sampled_from(["", "NOT "]))
    if shape == "const":
        left, right = draw(_operand), draw(_int_literal)
        if draw(st.booleans()):
            left, right = right, left
        return f"{left} {draw(_compare)} {right}"
    if shape == "columns":
        return f"{draw(_operand)} {draw(_compare)} {draw(_operand)}"
    if shape == "between":
        low, high = sorted([draw(st.integers(-5, 5)), draw(st.integers(-5, 5))])
        return f"{draw(_operand)} {negation}BETWEEN {low} AND {high}"
    if shape == "inlist":
        items = draw(_in_items)
        if draw(st.booleans()):
            items.insert(draw(st.integers(0, len(items))), "NULL")
        return f"{draw(_numeric_column)} {negation}IN ({', '.join(items)})"
    if shape == "date":
        left, right = "t", draw(_date_literal)
        if draw(st.booleans()):
            left, right = right, left
        return f"{left} {draw(_compare)} {right}"
    low, high = sorted([draw(_date_literal), draw(_date_literal)])
    return f"t {negation}BETWEEN {low} AND {high}"


def _nullable_db(rows, batch_size, compiler=None) -> Database:
    db = Database(batch_size=batch_size)
    if compiler is not None:
        db.kernel_compiler = compiler
    db.execute(_NULLABLE)
    db.insert_rows("n", rows)
    return db


@settings(max_examples=150, deadline=None)
@given(
    rows=_rows,
    predicate=_typed_predicates(),
    batch_size=st.integers(3, 7),
)
def test_null_aware_typed_kernels_match_generic_and_row_oracle(
    rows, predicate, batch_size
):
    """Nullable INTEGER / DECIMAL / DATE columns through every typed shape.

    Each predicate is both projected (so NULL results stay visible) and
    filtered on, over batches of 3-7 rows so selections and batch edges
    occur; the typed default, the generic kernels and the row oracle must
    return identical rows, and the typed leg must really dispatch typed
    kernels.
    """
    query = f"SELECT i, j, d, t, {predicate} FROM n WHERE {predicate} OR i IS NULL"
    typed_db = _nullable_db(rows, batch_size)
    typed_rows = typed_db.query(query).rows
    assert typed_db.stats.kernels.typed > 0, query
    for compiler in (GenericKernelCompiler, RowOracleCompiler):
        other_rows = _nullable_db(rows, batch_size, compiler).query(query).rows
        assert other_rows == typed_rows, (query, compiler.__name__)
