"""Engine execution configuration: the batch-executor knobs.

The engine runs one operator pipeline: expression trees are compiled once
per plan into *batch kernels* operating on column arrays, and scans,
filters, joins, projections and aggregation process
:class:`~repro.engine.vector.RowBatch` windows of ``batch_size`` rows at a
time.  The row-at-a-time interpreter is not a mode of this pipeline but a
kernel compiler (:class:`~repro.engine.vector.RowOracleCompiler`) that the
differential tests select per database.

Deployments configure through environment variables with the same strictness
as the ``REPRO_SERVER_*`` / ``REPRO_BENCH_*`` families: a malformed value
raises :class:`~repro.errors.ConfigurationError` instead of being silently
replaced by a default, because a typo in a batch size must not quietly run
the engine in the wrong configuration.

+----------------------------+---------------------------------------------+
| variable                   | meaning                                     |
+============================+=============================================+
| ``REPRO_ENGINE_BATCH``     | rows per batch (default 1024, minimum 1)    |
+----------------------------+---------------------------------------------+
| ``REPRO_ENGINE_TYPED``     | ``1`` = typed-column kernel specialization  |
|                            | (default), ``0`` = generic kernels only     |
+----------------------------+---------------------------------------------+

``REPRO_ENGINE_TYPED`` gates whether batch kernels may specialize over
:class:`~repro.engine.columns.TypedColumn` payloads where a base-table
column is provably type-stable.  With the knob off the engine runs exactly
the generic object-list kernels, which is the middle leg of the differential
{typed, generic, row oracle}.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..errors import ConfigurationError

DEFAULT_BATCH_SIZE = 1024


def env_batch_size(default: int = DEFAULT_BATCH_SIZE) -> int:
    """Rows-per-batch override via ``REPRO_ENGINE_BATCH`` (integer >= 1)."""
    value = os.environ.get("REPRO_ENGINE_BATCH", "").strip()
    if not value:
        return default
    try:
        parsed = int(value)
    except ValueError:
        raise ConfigurationError(
            f"the REPRO_ENGINE_BATCH environment variable must be an integer "
            f"(got {value!r})"
        ) from None
    if parsed < 1:
        raise ConfigurationError(
            f"the REPRO_ENGINE_BATCH environment variable must be >= 1 "
            f"(got {parsed})"
        )
    return parsed


def env_typed(default: bool = True) -> bool:
    """Typed-kernel override via ``REPRO_ENGINE_TYPED`` (``0`` or ``1``).

    Anything other than the two literal flags is a configuration error — a
    differential leg that silently fell back to the default would compare
    an engine against itself.
    """
    value = os.environ.get("REPRO_ENGINE_TYPED", "").strip()
    if not value:
        return default
    if value == "1":
        return True
    if value == "0":
        return False
    raise ConfigurationError(
        f"the REPRO_ENGINE_TYPED environment variable must be '0' or '1' "
        f"(got {value!r})"
    )


@dataclass(frozen=True)
class VectorConfig:
    """The batch executor's tunables (see the module docstring)."""

    batch_size: int = DEFAULT_BATCH_SIZE
    typed: bool = True

    @classmethod
    def from_env(cls, **overrides) -> "VectorConfig":
        """Build a config from the ``REPRO_ENGINE_*`` environment knobs.

        Keyword ``overrides`` win over the environment (the constructor-arg
        escape hatch for tests and embedded engines).
        """
        values = {
            "batch_size": env_batch_size(),
            "typed": env_typed(),
        }
        values.update(overrides)
        return cls(**values)
