"""Hashable simulation jobs and content-addressed job keys.

A :class:`SimJob` is the unit of work the execution engine schedules: one
``solo`` or ``pair`` sampling run, fully described by workload profiles
(carried by value), a :class:`~repro.cpu.config.CoreConfig` and a
:class:`~repro.cpu.sampling.SamplingConfig`.  Jobs are frozen dataclasses,
picklable across process boundaries, and deterministic: all randomness
derives from ``sampling.seed`` through :func:`repro.util.rng.derive_seed`,
so the same job produces bit-identical results on any worker.

A job's value is its per-sample UIPC vector (thread 0's samples first), so
one store entry per simulation serves the exact tiers, which read its
per-thread means through :func:`thread_means`, and the UIPC surrogate's
anchors, which keep its window-to-window distribution.

The job *key* hashes the full job description — including the workload
profile definitions, not just their names, so profile recalibrations and
custom profiles get entries of their own — together with the store's
cache version.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.cpu.config import CoreConfig
from repro.cpu.sampling import SamplingConfig, sample_colocation, sample_solo
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.registry import resolve_profile

__all__ = ["SimJob", "job_key", "thread_means"]

#: Job kind -> workload arity.
_KINDS = {"solo": 1, "pair": 2}


def job_key(
    kind: str,
    workloads: tuple[str | WorkloadProfile, ...],
    config: CoreConfig,
    sampling: SamplingConfig,
    version: int | None = None,
) -> str:
    """Content-address a job description (SHA-256 hex digest).

    ``workloads`` are profiles or registered names.  Keyed on the full
    profile definitions (not just names) so that profile recalibrations
    invalidate stale entries, and on the cache version so a model change
    invalidates everything at once.
    """
    if version is None:
        from repro.engine.store import CACHE_VERSION

        version = CACHE_VERSION
    profiles = tuple(resolve_profile(w) for w in workloads)
    names, reprs = tuple(p.name for p in profiles), tuple(map(repr, profiles))
    payload = repr((version, kind, names, reprs, config, sampling))
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class SimJob:
    """One schedulable simulation: ``solo`` or ``pair`` × workloads × configs.

    ``workloads`` holds :class:`~repro.workloads.profiles.WorkloadProfile`
    objects; names passed in are resolved through the registry.
    """

    kind: str
    workloads: tuple[WorkloadProfile, ...]
    config: CoreConfig
    sampling: SamplingConfig

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            known = "/".join(sorted(_KINDS))
            raise ValueError(f"kind must be one of {known}, got {self.kind!r}")
        if len(self.workloads) != _KINDS[self.kind]:
            raise ValueError(
                f"{self.kind!r} jobs take {_KINDS[self.kind]} workload(s), "
                f"got {self.workloads!r}"
            )
        object.__setattr__(
            self, "workloads", tuple(resolve_profile(w) for w in self.workloads)
        )

    @classmethod
    def solo(
        cls, workload, config: CoreConfig, sampling: SamplingConfig
    ) -> "SimJob":
        """Stand-alone run of ``workload`` (one UIPC per sample)."""
        return cls("solo", (workload,), config, sampling)

    @classmethod
    def pair(
        cls, ls, batch, config: CoreConfig, sampling: SamplingConfig
    ) -> "SimJob":
        """Colocated run: thread 0 = ``ls``, thread 1 = ``batch`` (each thread's
        UIPC per sample)."""
        return cls("pair", (ls, batch), config, sampling)

    @property
    def key(self) -> str:
        """Content-addressed key (stable across processes and sessions)."""
        return job_key(self.kind, self.workloads, self.config, self.sampling)

    def run(self) -> tuple[float, ...]:
        """Execute the simulation; the per-sample UIPCs, thread 0's first."""
        if self.kind == "solo":
            results = sample_solo(self.workloads[0], self.config, self.sampling)
        else:
            results = sample_colocation(
                self.workloads[0], self.workloads[1], self.config, self.sampling
            )
        return tuple(
            r.threads[t].uipc
            for t in range(len(self.workloads))
            for r in results
        )


def thread_means(values, n_threads: int) -> tuple[float, ...]:
    """Per-thread mean UIPC of a job's per-sample vector.

    Each thread's samples are summed in sample order with the builtin
    ``sum``, so every reader of a store entry gets the same doubles.
    """
    n = len(values) // n_threads
    return tuple(
        sum(values[t * n:(t + 1) * n]) / n for t in range(n_threads)
    )
