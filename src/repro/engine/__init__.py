"""Parallel simulation execution engine.

Every figure in the reproduction decomposes into independent simulation
*jobs* — ``solo`` or ``pair`` runs of a workload (pair) under one
:class:`~repro.cpu.config.CoreConfig` and one
:class:`~repro.cpu.sampling.SamplingConfig`.  This package provides the
machinery to schedule those jobs across worker processes and to memoize
their results durably:

* :mod:`repro.engine.job` — the hashable job model (:class:`SimJob`) and
  content-addressed job keys;
* :mod:`repro.engine.store` — the content-addressed result store with
  atomic writes, corrupt-entry tolerance, a manifest, and stale-version
  garbage collection;
* :mod:`repro.engine.executor` — the process-pool executor with crash and
  failure retry, in-flight deduplication, fork safety beside live threads,
  graceful fallback to in-process execution, and optional :mod:`repro.obs`
  hooks (job-lifecycle span tracing and phase profiling);
* :mod:`repro.engine.telemetry` — queued/running/done counters and cache
  hit-rate statistics surfaced through the ``stretch-repro`` CLI; per-job
  telemetry records (mode, wall seconds, attempts) additionally persist in
  the store manifest and are rendered by ``stretch-repro inspect``.

Because every job derives all of its randomness from the seed embedded in
its ``SamplingConfig`` (via :func:`repro.util.rng.derive_seed`), results
are bit-identical whether a job runs serially in-process or on any worker
of the pool.
"""

from repro.engine.executor import EngineConfig, EngineReport, ExecutionEngine
from repro.engine.job import SimJob, job_key
from repro.engine.store import (
    CACHE_VERSION,
    ResultStore,
    StoreStats,
    default_store,
    reset_default_stores,
)
from repro.engine.telemetry import EngineStats

__all__ = [
    "CACHE_VERSION",
    "EngineConfig",
    "EngineReport",
    "EngineStats",
    "ExecutionEngine",
    "ResultStore",
    "SimJob",
    "StoreStats",
    "default_store",
    "job_key",
    "reset_default_stores",
]
