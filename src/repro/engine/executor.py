"""Process-pool execution of simulation jobs.

:class:`ExecutionEngine` schedules deduplicated, cache-missing jobs onto a
:class:`concurrent.futures.ProcessPoolExecutor` and writes every result
into a :class:`~repro.engine.store.ResultStore` from the parent process
(single writer; workers only compute).  Guarantees:

* **Determinism** — jobs derive all randomness from their embedded seed,
  so pool results are bit-identical to a serial run.
* **In-flight deduplication** — duplicate keys are coalesced before
  submission; the store additionally coalesces concurrent in-process
  callers.
* **Crash resilience** — a dying worker (OOM kill, segfault, ``os._exit``)
  breaks the pool; the engine rebuilds it and resubmits the affected jobs
  with exponential backoff, up to ``retries`` attempts each.
* **Timeouts** — a job exceeding ``timeout`` seconds gets its pool torn
  down (futures cannot be cancelled once running) and is retried; innocent
  co-scheduled jobs are resubmitted without penalty.
* **Graceful degradation** — if a pool cannot be created at all (restricted
  sandboxes) or keeps breaking, remaining jobs fall back to in-process
  serial execution.
* **Shared sampling points** — jobs over the same workloads run back to
  back, and every pool worker keeps one
  :func:`~repro.cpu.sampling.shared_sampling_points` scope for its life,
  so a worker builds each sampling point once while its LRU holds it.
* **Observability** — pass a :class:`~repro.obs.tracer.SpanTracer` and the
  job lifecycle (dedupe → cache lookup → queue → execute → store write,
  plus cache-hit and retry markers) is emitted as Chrome trace events, one
  lane per worker slot; pass a :class:`~repro.obs.profiler.Profiler` and
  the engine phases land in its self-time table, together with the
  sections pool workers profiled while running their jobs (shipped back
  with each result, like the workers' sampling-point counts, which land
  in the metrics registry).  Each unique job also
  leaves a telemetry record in the store
  (:meth:`~repro.engine.store.ResultStore.record_job_telemetry`).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable

from repro.cpu.sampling import shared_sampling_points
from repro.engine.store import ResultStore, default_store
from repro.engine.telemetry import EngineStats
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.obs.profiler import active_profiler

__all__ = [
    "EngineConfig",
    "EngineReport",
    "ExecutionEngine",
    "JobTimeoutError",
    "parse_workers",
    "pool_workers",
    "usable_workers",
]

#: Exceptions that mean "the worker process died", not "the job raised".
_POOL_DEATH = (BrokenProcessPool, BrokenPipeError, EOFError)

#: How long one ``wait()`` poll blocks; bounds timeout-detection latency.
_POLL_SECONDS = 0.05

#: Give up on process pools entirely after this many rebuilds.
_MAX_POOL_REBUILDS = 3

#: The sampling-point counters (:mod:`repro.cpu.sampling`) a pool worker
#: ships back with each job, for the parent's registry.
_POINT_COUNTERS = ("sampling.points_built", "sampling.points_reused")


class JobTimeoutError(TimeoutError):
    """A job exceeded the per-job timeout on every allowed attempt."""


def usable_workers(n_jobs: int) -> int:
    """Workers worth starting for ``n_jobs`` independent jobs.

    The cores this process may run on (its CPU affinity mask, else the
    CPU count), capped by ``n_jobs``.  It is 1 in a ``multiprocessing``
    child, so a pool of processes keeps one busy thread per process.  The
    fleet's chunk threads and ``--jobs auto`` size themselves here; a
    pool the library forks on its own sizes itself by :func:`pool_workers`.
    """
    if n_jobs < 2 or multiprocessing.parent_process() is not None:
        return 1
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cores = os.cpu_count() or 1
    return min(cores, n_jobs)


def pool_workers(n_jobs: int) -> int:
    """Worker processes worth forking for ``n_jobs`` independent jobs.

    :func:`usable_workers`, but 1 while any other Python thread is alive
    (a control-plane reader, an HTTP exporter): the pool forks, which
    copies only the calling thread, so a lock another thread held would
    stay held in every worker.  With one worker the engine runs the jobs
    in this process.  The tail surrogate fit's replicates and a fleet
    verb's cold set-up size their pools here.
    """
    return usable_workers(n_jobs) if threading.active_count() == 1 else 1


def parse_workers(value: str | int) -> int:
    """Parse a ``--jobs`` value: a positive integer or ``auto`` (one per
    usable core, :func:`usable_workers`)."""
    if isinstance(value, str) and value.strip().lower() == "auto":
        return usable_workers(os.cpu_count() or 1)
    try:
        workers = int(value)
    except (TypeError, ValueError):
        raise ValueError(f"--jobs expects a positive integer or 'auto', got {value!r}")
    if workers < 1:
        raise ValueError(f"--jobs must be >= 1, got {workers}")
    return workers


@dataclass(frozen=True)
class EngineConfig:
    """Tunables for :class:`ExecutionEngine`."""

    workers: int = 1
    #: Per-job wall-time budget in seconds (None = unbounded).
    timeout: float | None = None
    #: Additional attempts after a crash/failure/timeout before giving up.
    retries: int = 2
    #: Base of the exponential backoff sleep between attempts, in seconds.
    backoff: float = 0.1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")


@dataclass
class EngineReport:
    """Outcome of one :meth:`ExecutionEngine.run_jobs` call."""

    stats: EngineStats
    #: {job key: result tuple} for every unique job.
    results: dict[str, tuple[float, ...]] = field(default_factory=dict)


@dataclass
class _Attempt:
    job: object
    key: str
    tries: int = 0
    started: float = 0.0
    #: When the attempt (re-)entered the queue, tracer microseconds.
    enqueued_us: float = 0.0
    #: Trace lane (``tid``) of the in-flight execution; 0 = scheduler.
    lane: int = 0


#: A pool worker's sampling-point scope, opened by its first job and kept
#: for the worker's life (None in any other process).
_worker_points = None


def _run_job(job) -> tuple[tuple[float, ...], dict | None, tuple[int, ...]]:
    """Worker-side entry point (module-level for picklability).

    Returns the job's values; when profiling is on, the sections the
    worker's profiler recorded for this job alone (``Profiler.as_dict``),
    for the parent to merge, else None; and the job's counts of
    :data:`_POINT_COUNTERS`.  The profile table is cleared before the job
    as well: a forked worker starts with a copy of the parent's.

    A worker's first job opens the sampling-point scope the worker keeps
    for its life, so its jobs share points as the serial executor's do
    (the scope's LRU bounds what it holds), and a registry to count them
    in if the worker inherited none (a worker that was not forked).
    """
    global _worker_points
    if _worker_points is None and multiprocessing.parent_process() is not None:
        _worker_points = shared_sampling_points()
        _worker_points.__enter__()
        if not get_registry().enabled:
            set_registry(MetricsRegistry())
    counters = [get_registry().counter(name) for name in _POINT_COUNTERS]
    before = [counter.value for counter in counters]
    prof = active_profiler()
    if prof is not None:
        prof.reset()
    values = tuple(job.run())
    points = tuple(c.value - b for c, b in zip(counters, before))
    if prof is None:
        return values, None, points
    profile = prof.as_dict()
    prof.reset()
    return values, profile, points


def _by_sampling_point(todo) -> list[_Attempt]:
    """``todo`` with the jobs over the same workloads made adjacent, each
    group where its first job was.

    Figure grids come in the order their ``run`` reads, which is
    configuration-major wherever ``run`` loops over configurations outside
    its workloads (fig04, fig05, fig12, fig13, ext_sensitivity); in that
    order a workload's sampling points would fall out of the sweep scope's
    LRU before its next configuration runs.  Results are content-keyed:
    the order changes none of them.
    """
    groups: dict[object, list[_Attempt]] = {}
    for attempt in todo:
        groups.setdefault(getattr(attempt.job, "workloads", None), []).append(attempt)
    return [attempt for group in groups.values() for attempt in group]


class ExecutionEngine:
    """Schedule simulation jobs across worker processes, backed by a store."""

    def __init__(self, config: EngineConfig | None = None, *,
                 pool_factory: Callable[[int], ProcessPoolExecutor] | None = None):
        self.config = config or EngineConfig()
        self._pool_factory = pool_factory or (
            lambda workers: ProcessPoolExecutor(max_workers=workers)
        )
        # Per-run_jobs observability hooks (run_jobs is not re-entrant).
        self._tracer = None
        self._profiler = None

    # -- public API -----------------------------------------------------

    def run_jobs(
        self,
        jobs,
        store: ResultStore | None = None,
        progress: Callable[[EngineStats], None] | None = None,
        *,
        tracer=None,
        profiler=None,
    ) -> EngineReport:
        """Run every job (deduplicated, cache-aware); results land in the store.

        ``tracer`` (a :class:`~repro.obs.tracer.SpanTracer`) receives the
        job-lifecycle spans; ``profiler`` (a
        :class:`~repro.obs.profiler.Profiler`) accumulates per-phase self
        time.  Both default to off with zero overhead.
        """
        store = store if store is not None else default_store()
        stats = EngineStats(workers=self.config.workers)
        started = time.perf_counter()
        self._tracer = tracer
        self._profiler = profiler
        if tracer is not None:
            tracer.thread_name(0, "engine scheduler")

        def emit() -> None:
            stats.wall_time = time.perf_counter() - started
            if progress is not None:
                progress(stats)

        try:
            return self._run(jobs, store, stats, emit)
        finally:
            self._tracer = None
            self._profiler = None

    def _run(self, jobs, store, stats, emit) -> EngineReport:
        tracer = self._tracer
        prof = self._profiler

        # Deduplicate by content-addressed key (in-flight dedup across workers:
        # one submission per key, no matter how many callers requested it).
        span_start = tracer.now_us() if tracer is not None else 0.0
        unique: dict[str, object] = {}
        with prof.section("engine.dedupe") if prof is not None else nullcontext():
            for job in jobs:
                stats.submitted += 1
                key = job.key
                if key in unique:
                    stats.deduplicated += 1
                else:
                    unique[key] = job
        stats.unique = len(unique)
        if tracer is not None:
            tracer.complete(
                "engine.dedupe", span_start, tracer.now_us() - span_start,
                args={"submitted": stats.submitted, "unique": stats.unique},
            )

        report = EngineReport(stats=stats)
        todo: list[_Attempt] = []
        span_start = tracer.now_us() if tracer is not None else 0.0
        with prof.section("engine.cache_lookup") if prof is not None else nullcontext():
            for key, job in unique.items():
                hit = store.get(key)
                if hit is None:
                    todo.append(_Attempt(job, key))
                else:
                    stats.cache_hits += 1
                    report.results[key] = hit
                    store.record_job_telemetry(key, {
                        "mode": "cache_hit", "seconds": 0.0, "tries": 0,
                        "ts": time.time(),
                    })
                    if tracer is not None:
                        tracer.instant("engine.cache_hit", args={"key": key[:16]})
        if tracer is not None:
            tracer.complete(
                "engine.cache_lookup", span_start,
                tracer.now_us() - span_start,
                args={"hits": stats.cache_hits, "misses": len(todo)},
            )
            now = tracer.now_us()
            for attempt in todo:
                attempt.enqueued_us = now
        emit()

        if todo:
            if self.config.workers <= 1:
                self._run_serial(todo, store, report, emit)
            else:
                self._run_pool(todo, store, report, emit)
        stats.running = 0
        emit()
        return report

    # -- execution paths ------------------------------------------------

    def _close_queue_span(self, attempt: _Attempt) -> None:
        """Emit the enqueue→submit span on the attempt's lane."""
        tracer = self._tracer
        if tracer is None:
            return
        now = tracer.now_us()
        tracer.complete(
            "engine.queue", attempt.enqueued_us, now - attempt.enqueued_us,
            tid=attempt.lane, args={"key": attempt.key[:16]},
        )

    def _requeue(self, attempt: _Attempt, reason: str) -> None:
        """Mark a retry: trace marker + fresh enqueue timestamp."""
        tracer = self._tracer
        if tracer is not None:
            tracer.instant("engine.retry", args={
                "key": attempt.key[:16], "reason": reason, "try": attempt.tries,
            })
            attempt.enqueued_us = tracer.now_us()

    # A run's jobs sweep configurations over the same sampling points, so
    # each point is built once per run when the jobs that share it run back
    # to back.
    @shared_sampling_points()
    def _run_serial(self, todo, store, report, emit, in_process: bool = False) -> None:
        tracer = self._tracer
        prof = self._profiler
        mode = "in_process" if in_process else "serial"
        if tracer is not None and todo:
            tracer.thread_name(1, "serial executor")
        for attempt in _by_sampling_point(todo):
            attempt.lane = 1
            self._close_queue_span(attempt)
            attempt.started = time.perf_counter()
            span_start = tracer.now_us() if tracer is not None else 0.0
            with prof.section("engine.execute") if prof is not None else nullcontext():
                values = tuple(attempt.job.run())
            if tracer is not None:
                tracer.complete(
                    "engine.execute", span_start, tracer.now_us() - span_start,
                    tid=attempt.lane,
                    args={"key": attempt.key[:16], "mode": mode},
                )
            if in_process:
                report.stats.in_process += 1
            self._record(attempt, values, store, report, emit, mode=mode)

    def _execute_in_process(self, attempt: _Attempt, store, report, emit) -> None:
        """Last-resort execution in the parent process (pool gave up)."""
        report.stats.in_process += 1
        attempt.lane = 0
        attempt.started = time.perf_counter()
        tracer = self._tracer
        span_start = tracer.now_us() if tracer is not None else 0.0
        values = tuple(attempt.job.run())
        if tracer is not None:
            tracer.complete(
                "engine.execute", span_start, tracer.now_us() - span_start,
                tid=0, args={"key": attempt.key[:16], "mode": "in_process"},
            )
        self._record(attempt, values, store, report, emit, mode="in_process")

    def _record(self, attempt: _Attempt, values, store, report, emit,
                mode: str = "pool") -> None:
        tracer = self._tracer
        prof = self._profiler
        span_start = tracer.now_us() if tracer is not None else 0.0
        with prof.section("engine.store_write") if prof is not None else nullcontext():
            store.put(attempt.key, values)
        if tracer is not None:
            tracer.complete(
                "engine.store_write", span_start, tracer.now_us() - span_start,
                tid=attempt.lane, args={"key": attempt.key[:16]},
            )
        store.record_job_telemetry(attempt.key, {
            "mode": mode,
            "seconds": round(time.perf_counter() - attempt.started, 6),
            "tries": attempt.tries + 1,
            "ts": time.time(),
        })
        report.results[attempt.key] = tuple(values)
        report.stats.executed += 1
        emit()

    def _new_pool(self) -> ProcessPoolExecutor | None:
        try:
            return self._pool_factory(self.config.workers)
        except Exception:
            return None

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Tear a pool down hard (running futures cannot be cancelled):
        on a timeout, a broken pool or an error that ends the run."""
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def _backoff(self, tries: int) -> None:
        if self.config.backoff > 0:
            time.sleep(min(self.config.backoff * (2 ** max(tries - 1, 0)), 2.0))

    def _run_pool(self, todo, store, report, emit) -> None:
        stats = report.stats
        tracer = self._tracer
        prof = self._profiler
        # Jobs that share sampling points go out back to back, so a worker
        # that takes several of them builds their points once.
        pending: deque[_Attempt] = deque(_by_sampling_point(todo))
        running: dict[Future, _Attempt] = {}
        # One trace lane per worker slot, reused as executions finish.
        free_lanes = list(range(self.config.workers, 0, -1))
        if tracer is not None:
            for lane in range(1, self.config.workers + 1):
                tracer.thread_name(lane, f"worker-{lane}")

        pool = self._new_pool()
        if pool is None:
            self._run_serial(pending, store, report, emit, in_process=True)
            return

        def requeue_running() -> None:
            """Move every running attempt back to the queue (no penalty)."""
            for att in running.values():
                free_lanes.append(att.lane)
                if tracer is not None:
                    att.enqueued_us = tracer.now_us()
                pending.appendleft(att)
            running.clear()

        def rebuild_pool() -> bool:
            nonlocal pool
            stats.pool_rebuilds += 1
            self._kill_pool(pool)
            requeue_running()
            if stats.pool_rebuilds > _MAX_POOL_REBUILDS:
                pool = None
                return False
            pool = self._new_pool()
            return pool is not None

        finished = False
        try:
            while pending or running:
                # Windowed submission: at most ``workers`` in flight, so a
                # submission timestamp approximates the actual start time.
                while pending and len(running) < self.config.workers:
                    attempt = pending.popleft()
                    attempt.lane = free_lanes.pop() if free_lanes else 0
                    self._close_queue_span(attempt)
                    attempt.started = time.perf_counter()
                    try:
                        future = pool.submit(_run_job, attempt.job)
                    except Exception:
                        # Pool already broken/shut down: rebuild or fall back.
                        free_lanes.append(attempt.lane)
                        if tracer is not None:
                            attempt.enqueued_us = tracer.now_us()
                        pending.appendleft(attempt)
                        if not rebuild_pool():
                            self._run_serial(
                                pending, store, report, emit, in_process=True
                            )
                            return
                        continue
                    running[future] = attempt
                    stats.running = len(running)
                    emit()

                done, __ = wait(
                    set(running), timeout=_POLL_SECONDS, return_when=FIRST_COMPLETED
                )
                broken = False
                for future in done:
                    attempt = running.pop(future)
                    stats.running = len(running)
                    free_lanes.append(attempt.lane)
                    try:
                        values, profile, points = future.result()
                    except _POOL_DEATH:
                        broken = True
                        attempt.tries += 1
                        stats.crash_retries += 1
                        self._requeue(attempt, "crash")
                        if attempt.tries > self.config.retries:
                            # Last resort: run the job in this process.
                            self._execute_in_process(attempt, store, report, emit)
                        else:
                            self._backoff(attempt.tries)
                            pending.append(attempt)
                    except Exception:
                        attempt.tries += 1
                        stats.failure_retries += 1
                        self._requeue(attempt, "failure")
                        if attempt.tries > self.config.retries:
                            # Deterministic failure: surface the real error
                            # from an in-process run (or its result, if the
                            # failure was transient).
                            self._execute_in_process(attempt, store, report, emit)
                        else:
                            self._backoff(attempt.tries)
                            pending.append(attempt)
                    else:
                        elapsed = time.perf_counter() - attempt.started
                        if prof is not None:
                            prof.add("engine.execute", elapsed)
                            for name, entry in (profile or {}).items():
                                prof.add(name, entry["seconds"], entry["calls"])
                        for name, count in zip(_POINT_COUNTERS, points):
                            if count:
                                get_registry().counter(name).inc(count)
                        if tracer is not None:
                            now = tracer.now_us()
                            tracer.complete(
                                "engine.execute", now - elapsed * 1e6,
                                elapsed * 1e6, tid=attempt.lane,
                                args={"key": attempt.key[:16], "mode": "pool"},
                            )
                        self._record(attempt, values, store, report, emit)

                if broken and not rebuild_pool():
                    self._run_serial(pending, store, report, emit, in_process=True)
                    return

                if self.config.timeout is not None and running:
                    now = time.perf_counter()
                    expired = [
                        (future, att)
                        for future, att in running.items()
                        if now - att.started > self.config.timeout
                        and not future.done()
                    ]
                    if expired:
                        for future, att in expired:
                            running.pop(future, None)
                            free_lanes.append(att.lane)
                            att.tries += 1
                            stats.timeouts += 1
                            if att.tries > self.config.retries:
                                raise JobTimeoutError(
                                    f"job {att.key[:16]}… exceeded "
                                    f"{self.config.timeout}s on every attempt"
                                )
                            self._requeue(att, "timeout")
                            pending.append(att)
                        # Running futures cannot be cancelled; replace the pool.
                        if not rebuild_pool():
                            self._run_serial(
                                pending, store, report, emit, in_process=True
                            )
                            return
            finished = True
        finally:
            if pool is not None and finished:
                # Nothing runs: join the workers and the pool's own
                # threads, so none outlives run_jobs and a process forked
                # next is single-threaded.
                pool.shutdown(wait=True)
            elif pool is not None:
                self._kill_pool(pool)
