"""MT-H set-up for the benchmark: generate, load and collect statistics.

The data set is fixed — scale factor :data:`SCALE_FACTOR`, generator seed
:data:`DATA_SEED` — because the result oracle stores the digests of the
22 MT-H queries for exactly that data.  The run's ``--seed`` drives the
traffic instead (query order, request schedule, tenants and keys).

Set-up is timed as one unit (``setup_s``) and repeated :data:`SETUP_REPEATS`
times per run; the median is reported and the last instance is kept.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Optional

from repro.mth import generate, load_mth, load_tpch_baseline

import speed

#: TPC-H scale factor of every workload (ROADMAP's baseline measurements)
SCALE_FACTOR = 0.01

#: generator seed of the MT-H data (the loader's default seed)
DATA_SEED = 20180326

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3


@dataclass
class Loaded:
    """One loaded MT-H instance and the wall time its set-up took."""

    instance: object
    seconds: float


def load_once(tenants: int, distribution: str, shards: Optional[int], tracer=None) -> Loaded:
    """Generate the data, load MT-H and collect statistics, timed as one."""
    started = time.perf_counter()
    if tracer is None:
        data = generate(scale_factor=SCALE_FACTOR, seed=DATA_SEED)
        instance = load_mth(data=data, tenants=tenants, distribution=distribution, shards=shards)
    else:
        with tracer.span("mth.dbgen"):
            data = generate(scale_factor=SCALE_FACTOR, seed=DATA_SEED)
        with tracer.span("mth.load"):
            instance = load_mth(
                data=data, tenants=tenants, distribution=distribution, shards=shards
            )
    return Loaded(instance=instance, seconds=time.perf_counter() - started)


def load_repeated(
    tenants: int, distribution: str, shards: Optional[int] = None, tracer=None
) -> tuple[object, list[float], list[float]]:
    """Set up :data:`SETUP_REPEATS` times.

    Returns the last instance, the host-speed normalised set-up times (the
    probe is the mean of one taken before and one after each set-up) and
    the measured ones.
    """
    normalised = []
    measured = []
    loaded = None
    for _ in range(SETUP_REPEATS):
        loaded = None  # drop the previous instance before building the next
        gc.collect()
        before = speed.best_probe()
        loaded = load_once(tenants, distribution, shards, tracer)
        probe = (before + speed.best_probe()) / 2
        measured.append(loaded.seconds)
        normalised.append(loaded.seconds * speed.factor(probe))
    return loaded.instance, normalised, measured


def load_baseline(instance) -> object:
    """The plain TPC-H baseline over the instance's generated data."""
    return load_tpch_baseline(data=instance.data)
