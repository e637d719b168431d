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
  with exponential backoff, up to two more attempts each, as it resubmits
  a job that raised.  A job out of attempts whose last attempt raised runs
  once more in this process, which returns its result or raises its own
  error; one whose last attempt killed its worker raises
  :class:`~concurrent.futures.process.BrokenProcessPool` naming its key,
  since a run here could end this process the same way.
* **Fork safety** — the pool forks, which copies only the calling thread,
  so while any other Python thread is alive (a control-plane reader, an
  HTTP exporter) the jobs run in this process; and every pool is joined,
  threads included, before :meth:`ExecutionEngine.run_jobs` returns or
  raises.
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
  lane per worker slot; with profiling on
  (:func:`~repro.obs.profiler.active_profiler`) the engine phases land in
  the profiler's self-time table, together with the sections pool workers
  profiled while running their jobs (shipped back with each result, like
  the workers' sampling-point counts, which land in the metrics
  registry).  Each unique job also leaves a telemetry record in the store
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
from contextlib import contextmanager, nullcontext
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
    "parse_workers",
    "usable_workers",
]

#: Exceptions that mean "the worker process died", not "the job raised".
_POOL_DEATH = (BrokenProcessPool, BrokenPipeError, EOFError)

#: Pool attempts a job gets after its first, before one in this process
#: (or, when its worker died on the last of them, an error).
_RETRIES = 2

#: Sleep before a job's first retry, in seconds; it doubles per retry.
_BACKOFF = 0.1

#: Give up on process pools entirely after this many rebuilds.
_MAX_POOL_REBUILDS = 3

#: The sampling-point counters (:mod:`repro.cpu.sampling`) a pool worker
#: ships back with each job, for the parent's registry.
_POINT_COUNTERS = ("sampling.points_built", "sampling.points_reused")


def usable_workers(n_jobs: int) -> int:
    """Workers worth starting for ``n_jobs`` independent jobs.

    The cores this process may run on (its CPU affinity mask, else the
    CPU count), capped by ``n_jobs``.  It is 1 in a ``multiprocessing``
    child, so a pool of processes keeps one busy thread per process.  The
    fleet's chunk threads, ``--jobs auto``, a fleet verb's cold set-up and
    the tail-surrogate fit size themselves here; other live threads do not
    count, since :meth:`ExecutionEngine.run_jobs` itself forks no pool
    beside them.
    """
    if n_jobs < 2 or multiprocessing.parent_process() is not None:
        return 1
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cores = os.cpu_count() or 1
    return min(cores, n_jobs)


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

    #: Pool processes; with 1 the jobs run in this process.
    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


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
    ) -> EngineReport:
        """Run every job (deduplicated, cache-aware); results land in the store.

        The misses run on ``config.workers`` pool processes, or in this
        process while any other Python thread is alive (``stats.workers``
        is then 1): the pool forks, which copies only the calling thread,
        so a lock another thread held would stay held in every worker.
        ``tracer`` (a :class:`~repro.obs.tracer.SpanTracer`) receives the
        job-lifecycle spans, and the active profiler
        (:func:`~repro.obs.profiler.active_profiler`) the per-phase self
        time.  Both are off by default, at no cost.
        """
        store = store if store is not None else default_store()
        workers = self.config.workers if threading.active_count() == 1 else 1
        stats = EngineStats(workers=workers)
        started = time.perf_counter()
        self._tracer = tracer
        self._profiler = active_profiler()
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
        # Deduplicate by content-addressed key (in-flight dedup across workers:
        # one submission per key, no matter how many callers requested it).
        unique: dict[str, object] = {}
        with self._phase("engine.dedupe") as args:
            for job in jobs:
                stats.submitted += 1
                key = job.key
                if key in unique:
                    stats.deduplicated += 1
                else:
                    unique[key] = job
            stats.unique = len(unique)
            args.update(submitted=stats.submitted, unique=stats.unique)

        report = EngineReport(stats=stats)
        todo: list[_Attempt] = []
        tracer = self._tracer
        with self._phase("engine.cache_lookup") as args:
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
            args.update(hits=stats.cache_hits, misses=len(todo))
        if tracer is not None:
            now = tracer.now_us()
            for attempt in todo:
                attempt.enqueued_us = now
        emit()

        if todo:
            if stats.workers > 1:
                self._run_pool(todo, store, report, emit)
            else:
                self._run_serial(todo, store, report, emit)
        stats.running = 0
        emit()
        return report

    # -- instrumentation ------------------------------------------------

    @contextmanager
    def _phase(self, name: str, lane: int = 0, args: dict | None = None):
        """Time one engine phase: the profiler's ``name`` section and a
        trace span on ``lane`` carrying ``args``, which it yields for the
        body to fill in."""
        args = {} if args is None else args
        tracer = self._tracer
        start = tracer.now_us() if tracer is not None else 0.0
        prof = self._profiler
        with prof.section(name) if prof is not None else nullcontext():
            yield args
        if tracer is not None:
            tracer.complete(
                name, start, tracer.now_us() - start, tid=lane, args=args
            )

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

    # -- execution paths ------------------------------------------------

    # A run's jobs sweep configurations over the same sampling points, so
    # each point is built once per run when the jobs that share it run back
    # to back.
    @shared_sampling_points()
    def _run_serial(self, todo, store, report, emit, mode: str = "serial") -> None:
        """Run ``todo`` in this process, one job after another: a
        one-worker run (``mode="serial"``), or jobs a pool did not finish
        (``"in_process"``)."""
        if self._tracer is not None:
            self._tracer.thread_name(1, "serial executor")
        for attempt in _by_sampling_point(todo):
            attempt.lane = 1
            self._close_queue_span(attempt)
            attempt.started = time.perf_counter()
            with self._phase(
                "engine.execute", 1, {"key": attempt.key[:16], "mode": mode}
            ):
                values = tuple(attempt.job.run())
            if mode == "in_process":
                report.stats.in_process += 1
            self._record(attempt, values, store, report, emit, mode)

    def _record(self, attempt: _Attempt, values, store, report, emit,
                mode: str = "pool") -> None:
        with self._phase(
            "engine.store_write", attempt.lane, {"key": attempt.key[:16]}
        ):
            store.put(attempt.key, values)
        store.record_job_telemetry(attempt.key, {
            "mode": mode,
            "seconds": round(time.perf_counter() - attempt.started, 6),
            "tries": attempt.tries + 1,
            "ts": time.time(),
        })
        report.results[attempt.key] = values
        report.stats.executed += 1
        emit()

    def _retry(self, attempt: _Attempt, crashed: bool, stats) -> bool:
        """Count a failed pool attempt (its worker died, or the job
        raised); True, after a backoff, while the job has retries left."""
        if crashed:
            stats.crash_retries += 1
        else:
            stats.failure_retries += 1
        attempt.tries += 1
        tracer = self._tracer
        if tracer is not None:
            tracer.instant("engine.retry", args={
                "key": attempt.key[:16], "try": attempt.tries,
                "reason": "crash" if crashed else "failure",
            })
            attempt.enqueued_us = tracer.now_us()
        if attempt.tries > _RETRIES:
            return False
        time.sleep(_BACKOFF * 2 ** (attempt.tries - 1))
        return True

    def _new_pool(self) -> ProcessPoolExecutor | None:
        try:
            return self._pool_factory(self.config.workers)
        except Exception:
            return None

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Tear a pool down hard (running futures cannot be cancelled), then
        join its threads, so none outlives ``run_jobs``."""
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:
                pass
        pool.shutdown(wait=True, cancel_futures=True)

    def _run_pool(self, todo, store, report, emit) -> None:
        stats = report.stats
        tracer = self._tracer
        prof = self._profiler
        workers = self.config.workers
        # Jobs that share sampling points go out back to back, so a worker
        # that takes several of them builds their points once.
        pending: deque[_Attempt] = deque(_by_sampling_point(todo))
        running: dict[Future, _Attempt] = {}
        # One trace lane per worker slot, reused as executions finish.
        free_lanes = list(range(workers, 0, -1))
        if tracer is not None:
            for lane in range(1, workers + 1):
                tracer.thread_name(lane, f"worker-{lane}")

        def requeue(attempt: _Attempt) -> None:
            """Put an attempt back at the head of the queue (no penalty)."""
            free_lanes.append(attempt.lane)
            if tracer is not None:
                attempt.enqueued_us = tracer.now_us()
            pending.appendleft(attempt)

        pool = self._new_pool()
        try:
            while pool is not None and (pending or running):
                broken = False
                # Windowed submission: at most ``workers`` in flight, so a
                # submission timestamp approximates the actual start time.
                while pending and len(running) < workers and not broken:
                    attempt = pending.popleft()
                    attempt.lane = free_lanes.pop()
                    self._close_queue_span(attempt)
                    attempt.started = time.perf_counter()
                    try:
                        running[pool.submit(_run_job, attempt.job)] = attempt
                    except Exception:  # a broken or shut-down pool
                        requeue(attempt)
                        broken = True
                    else:
                        stats.running = len(running)
                        emit()

                done = set() if broken else wait(
                    running, return_when=FIRST_COMPLETED
                ).done
                for future in done:
                    attempt = running.pop(future)
                    stats.running = len(running)
                    free_lanes.append(attempt.lane)
                    try:
                        values, profile, points = future.result()
                    except Exception as error:
                        # A dead worker broke the pool; a raising job did not.
                        crashed = isinstance(error, _POOL_DEATH)
                        broken = broken or crashed
                        if self._retry(attempt, crashed, stats):
                            pending.append(attempt)
                        elif crashed:
                            # A run here could end this process too.
                            raise BrokenProcessPool(
                                f"job {attempt.key}: its pool worker died on "
                                f"the last of its {attempt.tries} attempts"
                            ) from error
                        else:
                            # Last resort: one run here returns the job's
                            # result (the failure was transient) or raises
                            # its own error.
                            self._run_serial(
                                [attempt], store, report, emit, "in_process"
                            )
                        continue
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

                if broken:
                    # Rebuild the pool, or give up on pools once it keeps
                    # breaking or none starts.
                    stats.pool_rebuilds += 1
                    self._kill_pool(pool)
                    for attempt in running.values():
                        requeue(attempt)
                    running.clear()
                    stats.running = 0
                    pool = (
                        self._new_pool()
                        if stats.pool_rebuilds <= _MAX_POOL_REBUILDS else None
                    )
        except BaseException:
            if pool is not None:
                self._kill_pool(pool)
            raise
        if pool is not None:
            # Nothing runs: join the workers and the pool's own threads,
            # so none outlives run_jobs and a process forked next is
            # single-threaded.
            pool.shutdown(wait=True)
        if pending:
            self._run_serial(pending, store, report, emit, "in_process")
