"""The in-memory engine as an execution backend.

:class:`EngineBackend` adapts :class:`repro.engine.database.Database` — the
pure-Python DBMS stand-in with its "postgres" / "system_c" UDF-caching
profiles — to the :class:`~repro.backends.base.Backend` protocol.  The
adapter is thin: the engine already executes the default dialect natively,
so statements pass through unchanged (parameters are bound by literal
substitution, the engine's SQL-function convention).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence, Union

from ..engine.database import Database
from ..errors import BackendError
from ..result import ExecuteResult, ExecutionStats, RowStream
from ..sql import ast
from ..sql.dialect import DEFAULT_DIALECT
from ..sql.params import bind_parameters
from ..sql.parser import parse_statement
from ..sql.transform import transform_expression, transform_select
from .base import Backend, BackendConnection, Statement

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..compile.artifact import CompiledQuery
    from ..compile.stats import StatisticsCatalog


class EngineConnection(BackendConnection):
    """A connection to the in-memory engine (shared-state, thread-aware)."""

    name = "engine"
    dialect = DEFAULT_DIALECT

    def __init__(self, database: Database) -> None:
        self._database = database

    # -- engine access -------------------------------------------------------

    @property
    def engine_database(self) -> Database:
        """The wrapped in-memory :class:`Database` (engine-specific escape hatch)."""
        return self._database

    @property
    def stats(self) -> ExecutionStats:  # type: ignore[override]
        """The engine database's statement/UDF counters."""
        return self._database.stats

    @property
    def profile(self):
        """The UDF-caching profile ("postgres" caches, "system_c" does not)."""
        return self._database.profile

    def __getattr__(self, attribute: str):
        # Back-compat: pre-backend code reached into Database internals
        # (catalog, executor, ...); delegate anything the protocol lacks.
        return getattr(self._database, attribute)

    # -- statement execution -------------------------------------------------

    def execute(
        self, statement: Statement, parameters: Optional[Sequence[Any]] = None
    ) -> ExecuteResult:
        """Execute on the in-memory engine (parameters bound as literals)."""
        if parameters:
            if isinstance(statement, str):
                statement = parse_statement(statement)
            statement = _bind_parameters(statement, parameters)
        return self._database.execute(statement)

    def execute_stream(
        self,
        statement: Statement,
        dataset: Optional[Sequence[int]] = None,
        parameters: Optional[Sequence[Any]] = None,
        compiled: Optional["CompiledQuery"] = None,
    ) -> RowStream:
        """Stream a SELECT through the engine's lazy pipeline.

        Streamable shapes (no grouping/ORDER BY/DISTINCT) yield their first
        row having evaluated only that row; barrier shapes materialize
        internally and replay.  ``dataset`` and ``compiled`` are routing
        metadata a single-database backend ignores.
        """
        if isinstance(statement, str):
            statement = parse_statement(statement)
        if parameters:
            statement = _bind_parameters(statement, parameters)
        if not isinstance(statement, ast.Select):
            raise BackendError("execute_stream() expects a SELECT statement")
        return self._database.execute_stream(statement)

    # -- UDF registration ----------------------------------------------------

    def register_python_function(
        self, name: str, fn: Callable[..., Any], immutable: bool = False
    ) -> None:
        """Register a Python-backed scalar UDF in the engine catalog."""
        self._database.register_python_function(name, fn, immutable=immutable)

    def register_sql_function(
        self, name: str, body: str, immutable: bool = False
    ) -> None:
        """Register a SQL-bodied scalar UDF in the engine catalog."""
        self._database.register_sql_function(name, body, immutable=immutable)

    # -- bulk load / metadata ------------------------------------------------

    def insert_rows(self, table_name: str, rows: list[tuple]) -> int:
        """Bulk-load rows straight into the engine's storage layer."""
        return self._database.insert_rows(table_name, rows)

    def table_rowcount(self, table_name: str) -> int:
        """Current row count of ``table_name``."""
        return self._database.table_rowcount(table_name)

    def check_integrity(self) -> list[str]:
        """Run the engine's PK/FK validation over every table."""
        return self._database.check_integrity()

    # -- statistics / caches -------------------------------------------------

    def register_partitioned_table(
        self,
        table_name: str,
        ttid_column: str,
        local_key_columns: Sequence[str] = (),
    ) -> None:
        """Record the tenant column so statistics gain per-tenant histograms."""
        self._database.register_partitioned_table(
            table_name, ttid_column, local_key_columns
        )

    def collect_statistics(self) -> "StatisticsCatalog":
        """Scan every engine table into fresh planner statistics."""
        return self._database.collect_statistics()

    def statistics(self) -> "StatisticsCatalog":
        """The engine's current (lazily refreshed) statistics catalog."""
        return self._database.statistics()

    def reset_stats(self) -> None:
        """Zero the engine's statement/UDF counters."""
        self._database.reset_stats()

    def clear_function_caches(self) -> None:
        """Drop the engine's memoized immutable-UDF results."""
        self._database.clear_function_caches()


class EngineBackend(Backend):
    """Backend over one in-memory engine database."""

    name = "engine"
    dialect = DEFAULT_DIALECT

    def __init__(
        self,
        profile: str = "postgres",
        database: Optional[Database] = None,
    ) -> None:
        self.database = database if database is not None else Database(profile)
        self._connection = EngineConnection(self.database)

    def connect(self) -> EngineConnection:
        """The shared connection to this backend's in-memory database."""
        return self._connection


def _bind_parameters(
    statement: ast.Statement, parameters: Sequence[Any]
) -> ast.Statement:
    """Substitute parameter references with literal values.

    Two placeholder conventions bind here: ``?``/``:name``
    :class:`~repro.sql.ast.Parameter` nodes (the DB-API surface, handled by
    :func:`repro.sql.params.bind_parameters`) and the engine's historic
    ``$n`` column references (the SQL-function parameter convention).
    """
    dialect = DEFAULT_DIALECT

    def replacer(node: ast.Expression) -> Optional[ast.Expression]:
        if isinstance(node, ast.Column) and node.table is None:
            index = dialect.parameter_index(node.name)
            if index is not None:
                if not 1 <= index <= len(parameters):
                    raise BackendError(
                        f"statement references ${index} but only "
                        f"{len(parameters)} parameter(s) were supplied"
                    )
                return ast.Literal(parameters[index - 1])
        return None

    statement = bind_parameters(statement, parameters)
    if isinstance(statement, ast.Select):
        return transform_select(statement, replacer)
    if isinstance(statement, ast.Insert):
        if statement.query is not None:
            raise BackendError("parameterized INSERT ... SELECT is not supported")
        rows = [
            tuple(transform_expression(value, replacer) for value in row)
            for row in statement.rows
        ]
        return ast.Insert(table=statement.table, columns=statement.columns, rows=rows)
    if isinstance(statement, ast.Update):
        return ast.Update(
            table=statement.table,
            assignments=[
                ast.Assignment(
                    column=assignment.column,
                    value=transform_expression(assignment.value, replacer),
                )
                for assignment in statement.assignments
            ],
            where=transform_expression(statement.where, replacer),
        )
    if isinstance(statement, ast.Delete):
        return ast.Delete(
            table=statement.table,
            where=transform_expression(statement.where, replacer),
        )
    raise BackendError(
        f"cannot bind parameters into a {type(statement).__name__} statement"
    )
