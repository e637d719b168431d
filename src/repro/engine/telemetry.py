"""Engine telemetry: job counters, cache hit rate, wall time.

:class:`EngineStats` is a mutable snapshot the executor updates as jobs
move through the queue; a progress callback receives it after every state
change.  The ``stretch-repro`` CLI renders it through
:class:`repro.util.progress.ProgressPrinter`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

__all__ = ["EngineStats"]


@dataclass
class EngineStats:
    """Counters for one :meth:`ExecutionEngine.run_jobs` invocation."""

    workers: int = 1
    #: Jobs handed to ``run_jobs`` (including duplicates).
    submitted: int = 0
    #: Distinct job keys after deduplication.
    unique: int = 0
    #: Duplicate submissions coalesced before scheduling.
    deduplicated: int = 0
    #: Unique jobs answered straight from the result store.
    cache_hits: int = 0
    #: Jobs executed to completion (pool or in-process).
    executed: int = 0
    #: Jobs currently running on pool workers.
    running: int = 0
    #: Jobs a pool did not finish, executed in this process: no pool
    #: started, pools kept breaking, or the job ran out of retries.
    in_process: int = 0
    #: Resubmissions after a worker-process crash.
    crash_retries: int = 0
    #: Resubmissions after an in-job exception.
    failure_retries: int = 0
    #: Times the worker pool had to be torn down and rebuilt.
    pool_rebuilds: int = 0
    wall_time: float = 0.0

    @property
    def done(self) -> int:
        return self.cache_hits + self.executed

    @property
    def queued(self) -> int:
        return max(self.unique - self.done - self.running, 0)

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.unique if self.unique else 0.0

    def as_dict(self) -> dict:
        payload = asdict(self)
        payload["done"] = self.done
        payload["queued"] = self.queued
        payload["hit_rate"] = round(self.hit_rate, 4)
        return payload

    def summary(self) -> str:
        """One-line human summary for the CLI."""
        parts = [
            f"{self.unique} jobs",
            f"{self.cache_hits} cached ({self.hit_rate:.0%})",
            f"{self.executed} executed",
        ]
        if self.deduplicated:
            parts.append(f"{self.deduplicated} deduped")
        if self.in_process:
            parts.append(f"{self.in_process} in-process")
        if self.crash_retries or self.failure_retries:
            parts.append(
                f"{self.crash_retries + self.failure_retries} retried"
            )
        if self.pool_rebuilds:
            parts.append(f"{self.pool_rebuilds} pool rebuild(s)")
        parts.append(f"{self.wall_time:.1f}s with {self.workers} worker(s)")
        return ", ".join(parts)
