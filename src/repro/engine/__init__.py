"""In-memory SQL engine: storage, planner, executor and the Database facade."""

from .catalog import Catalog
from .database import (
    POSTGRES_PROFILE,
    PROFILES,
    SYSTEM_C_PROFILE,
    BackendProfile,
    Database,
    StatementResult,
)
from .executor import ExecutionStats, QueryResult
from .functions import PythonFunction, SQLFunction
from .storage import ColumnSchema, Table, TableSchema
from .vector import (
    DEFAULT_BATCH_SIZE,
    BatchExpressionCompiler,
    GenericKernelCompiler,
    RowBatch,
    RowOracleCompiler,
)

__all__ = [
    "BatchExpressionCompiler",
    "DEFAULT_BATCH_SIZE",
    "GenericKernelCompiler",
    "RowBatch",
    "RowOracleCompiler",
    "Catalog",
    "Database",
    "BackendProfile",
    "StatementResult",
    "POSTGRES_PROFILE",
    "SYSTEM_C_PROFILE",
    "PROFILES",
    "ExecutionStats",
    "QueryResult",
    "PythonFunction",
    "SQLFunction",
    "ColumnSchema",
    "Table",
    "TableSchema",
]
