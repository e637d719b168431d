"""Unit tests for the parallel execution engine and result store.

Fake jobs (cheap, picklable, crash-controllable) exercise the scheduler
without real simulations; the simulation-equivalence property tests live in
``tests/test_engine_parallel.py``.
"""

from __future__ import annotations

import io
import json
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace

import pytest

from repro.cpu.sampling import SamplingConfig
from repro.engine import (
    CACHE_VERSION,
    EngineConfig,
    ExecutionEngine,
    ResultStore,
    SimJob,
    job_key,
)
from repro.engine.executor import parse_workers, usable_workers
from repro.engine.telemetry import EngineStats
from repro.experiments.common import config_all_shared, config_solo
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.workloads.registry import get_profile


@dataclass(frozen=True)
class FakeJob:
    """Engine-schedulable job returning a deterministic payload."""

    name: str
    values: tuple[float, ...] = (1.0,)

    @property
    def key(self) -> str:
        return f"fake-{self.name}"

    def run(self) -> tuple[float, ...]:
        return self.values


@dataclass(frozen=True)
class CrashOnceJob:
    """Kills its worker process on the first attempt, succeeds afterwards."""

    name: str
    sentinel: str  # path marking "already crashed once"

    @property
    def key(self) -> str:
        return f"crash-{self.name}"

    def run(self) -> tuple[float, ...]:
        if not os.path.exists(self.sentinel):
            with open(self.sentinel, "w") as handle:
                handle.write("crashed")
            os._exit(13)  # hard worker death, not an exception
        return (99.0,)


@dataclass(frozen=True)
class FailOnceJob:
    """Raises (an ordinary exception) on the first attempt only."""

    name: str
    sentinel: str

    @property
    def key(self) -> str:
        return f"fail-{self.name}"

    def run(self) -> tuple[float, ...]:
        if not os.path.exists(self.sentinel):
            with open(self.sentinel, "w") as handle:
                handle.write("failed")
            raise RuntimeError("transient failure")
        return (7.0,)


@dataclass(frozen=True)
class FailInWorkersJob:
    """Raises in a pool worker and returns in the parent process."""

    name: str

    @property
    def key(self) -> str:
        return f"worker-fail-{self.name}"

    def run(self) -> tuple[float, ...]:
        if multiprocessing.parent_process() is not None:
            raise RuntimeError("fails in a worker")
        return (3.0,)


@dataclass(frozen=True)
class ExitInWorkersJob:
    """Kills every pool worker it runs in and returns in the parent process."""

    name: str

    @property
    def key(self) -> str:
        return f"worker-exit-{self.name}"

    def run(self) -> tuple[float, ...]:
        if multiprocessing.parent_process() is not None:
            os._exit(13)
        return (5.0,)


@dataclass(frozen=True)
class AlwaysFailJob:
    name: str

    @property
    def key(self) -> str:
        return f"always-{self.name}"

    def run(self) -> tuple[float, ...]:
        raise RuntimeError("always fails")


def _no_pool(workers):
    raise OSError("no process spawning here")


#: The ``EngineStats`` counters of how pooled jobs ended.
END_COUNTERS = (
    "executed", "in_process", "crash_retries", "failure_retries",
    "pool_rebuilds",
)

#: Each way a job on a two-worker pool ends, as ``(jobs, pool_factory,
#: error, counters, telemetry)``: ``jobs`` builds the jobs given a
#: temporary directory (for once-only sentinels); ``error`` is the type
#: and message pattern of what ``run_jobs`` raises (None: it returns);
#: ``counters`` holds the nonzero :data:`END_COUNTERS`, and ``telemetry``
#: each job's ``(mode, tries, stored values)``, or None when it left no
#: record.  A job out of retries runs once in this process, which surfaces
#: its own error or its result, unless its worker died on its last try:
#: a run here could end this process too, so the engine raises instead.
POOLED_ENDS = {
    "result": (
        lambda d: [FakeJob("a", (1.0,)), FakeJob("b", (2.0,))], None, None,
        {"executed": 2},
        {"fake-a": ("pool", 1, (1.0,)), "fake-b": ("pool", 1, (2.0,))},
    ),
    "raised_and_retried": (
        lambda d: [FailOnceJob("y", str(d / "failed-once"))], None, None,
        {"executed": 1, "failure_retries": 1},
        {"fail-y": ("pool", 2, (7.0,))},
    ),
    "worker_crashed": (
        lambda d: [CrashOnceJob("x", str(d / "crashed-once"))], None, None,
        {"executed": 1, "crash_retries": 1, "pool_rebuilds": 1},
        {"crash-x": ("pool", 2, (99.0,))},
    ),
    "retries_spent_raises": (
        lambda d: [AlwaysFailJob("z")], None, (RuntimeError, "always fails"),
        {"failure_retries": 3},
        {"always-z": None},
    ),
    "retries_spent_runs_in_process": (
        lambda d: [FailInWorkersJob("w")], None, None,
        {"executed": 1, "in_process": 1, "failure_retries": 3},
        {"worker-fail-w": ("in_process", 4, (3.0,))},
    ),
    "worker_died_every_try_raises": (
        lambda d: [ExitInWorkersJob("v")], None,
        (BrokenProcessPool,
         "job worker-exit-v: its pool worker died on the last of its 3 attempts"),
        {"crash_retries": 3, "pool_rebuilds": 2},
        {"worker-exit-v": None},
    ),
    "no_pool_starts": (
        lambda d: [FakeJob("a", (1.0,)), FakeJob("b", (2.0,))], _no_pool, None,
        {"executed": 2, "in_process": 2},
        {"fake-a": ("in_process", 1, (1.0,)),
         "fake-b": ("in_process", 1, (2.0,))},
    ),
}


class TestJobModel:
    def test_solo_pair_constructors(
        self, tiny_sampling, base_config, gamess_profile, web_search_profile
    ):
        # Names resolve to the registered profiles, carried by value.
        solo = SimJob.solo("gamess", base_config, tiny_sampling)
        pair = SimJob.pair("web_search", "gamess", base_config, tiny_sampling)
        assert solo.kind == "solo" and solo.workloads == (gamess_profile,)
        assert pair.kind == "pair" and pair.workloads == (
            web_search_profile, gamess_profile
        )
        assert SimJob.solo(gamess_profile, base_config, tiny_sampling) == solo

    def test_invalid_kind_and_arity(self, tiny_sampling, base_config):
        with pytest.raises(ValueError):
            SimJob("triple", ("a", "b", "c"), base_config, tiny_sampling)
        with pytest.raises(ValueError):
            SimJob("solo", ("a", "b"), base_config, tiny_sampling)

    def test_key_stability(self, tiny_sampling, base_config):
        job = SimJob.solo("gamess", base_config, tiny_sampling)
        again = SimJob.solo("gamess", base_config, tiny_sampling)
        assert job.key == again.key
        assert len(job.key) == 64 and int(job.key, 16) >= 0

    def test_key_sensitivity(self, tiny_sampling, small_sampling, base_config):
        base = SimJob.solo("gamess", base_config, tiny_sampling)
        assert base.key != SimJob.solo("zeusmp", base_config, tiny_sampling).key
        assert base.key != SimJob.solo("gamess", base_config, small_sampling).key
        pair = SimJob.pair("web_search", "gamess", base_config, tiny_sampling)
        flipped = SimJob.pair("gamess", "web_search", base_config, tiny_sampling)
        assert pair.key != flipped.key

    def test_solo_run_matches_pair_arity(self, tiny_sampling, base_config):
        solo = SimJob.solo("gamess", base_config, tiny_sampling)
        assert len(solo.run()) == 1


class TestPinnedKeys:
    """Pinned job keys: a job given a registered profile's name keys the
    same as one given the profile itself.

    Cache entries, goldens and the benchmark's expected counts all rest on
    these keys not moving.  A ``CACHE_VERSION`` bump changes every key:
    refresh the literals then (print ``job.key`` for each job below).
    """

    SAMPLING = SamplingConfig(
        n_samples=1, warmup_instructions=500, measure_instructions=500, seed=2
    )
    KEYS = {
        "solo": "da0cb76648d66f9ce09f3830902b2af6a20bb9997bbd25485e24742cefa34718",
        "pair": "cc1b5efe73d81a19d52bc48b258a111088647944335d2f9e1468a838d4cd1481",
    }

    def jobs(self, resolve) -> dict:
        s = self.SAMPLING
        return {
            "solo": SimJob.solo(resolve("gamess"), config_solo(), s),
            "pair": SimJob.pair(
                resolve("web_search"), resolve("zeusmp"), config_all_shared(), s
            ),
        }

    @pytest.mark.parametrize("resolve", [str, get_profile],
                             ids=["names", "profiles"])
    def test_keys_match_the_literals(self, resolve):
        keys = {kind: job.key for kind, job in self.jobs(resolve).items()}
        assert keys == self.KEYS
        assert job_key(
            "solo", ("gamess",), config_solo(), self.SAMPLING
        ) == self.KEYS["solo"]

    def test_custom_profile_has_a_key_of_its_own(self):
        custom = replace(get_profile("gamess"), cold_miss_frac=0.09)
        assert SimJob.solo(custom, config_solo(), self.SAMPLING).key != (
            self.KEYS["solo"]
        )


class TestResultStore:
    def test_roundtrip_and_layout(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k1", (1.5, 2.5))
        assert store.get("k1") == (1.5, 2.5)
        entry = tmp_path / f"v{CACHE_VERSION}" / "k1.json"
        assert entry.exists()
        assert json.loads(entry.read_text()) == [1.5, 2.5]
        # No stray tempfiles left behind by the atomic write.
        assert list(tmp_path.glob("**/*.tmp")) == []

    def test_entry_bytes_match_streamed_json(self, tmp_path):
        # put() encodes with the one-shot (C) encoder; the file must hold
        # the bytes json.dump's streaming encoder wrote, special values
        # included.
        values = (
            float("nan"), float("inf"), float("-inf"), -0.0, 0.0,
            float(2 ** 53), 2.0 ** 53 + 2, 0.1 + 0.2, 1e-300, -1.5e308,
        )
        store = ResultStore(tmp_path)
        store.put("special", values)
        streamed = io.StringIO()
        json.dump(list(values), streamed)
        entry = tmp_path / f"v{CACHE_VERSION}" / "special.json"
        assert entry.read_bytes() == streamed.getvalue().encode()

    def test_disk_hit_after_memory_flush(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k1", (3.0,))
        store.clear_memory()
        assert store.get("k1") == (3.0,)
        assert store.stats.disk_hits == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k1", (1.0, 2.0))
        entry = tmp_path / f"v{CACHE_VERSION}" / "k1.json"
        entry.write_text('[1.0, 2.')  # truncated mid-write
        store.clear_memory()
        assert store.get("k1") is None
        assert store.stats.corrupt_entries == 1
        assert not entry.exists()  # dropped so a recompute can land cleanly
        # Non-numeric garbage is also a miss, not a crash.
        entry.write_text('{"not": "a list"}')
        assert store.get("k1") is None

    def test_memory_only_store(self):
        store = ResultStore(None)
        store.put("k1", (1.0,))
        assert store.get("k1") == (1.0,)
        assert store.entry_dir is None

    def test_compute_runs_once(self, tmp_path):
        store = ResultStore(tmp_path)
        calls = []

        @dataclass(frozen=True)
        class Recording:
            key: str = "r1"

            def run(self) -> tuple[float, ...]:
                calls.append(1)
                return (4.0,)

        assert store.compute(Recording()) == (4.0,)
        assert store.compute(Recording()) == (4.0,)
        assert len(calls) == 1

    def test_inflight_dedup_across_threads(self, tmp_path):
        store = ResultStore(tmp_path)
        started = threading.Barrier(4)
        calls = []
        lock = threading.Lock()

        @dataclass(frozen=True)
        class Slow:
            key: str = "s1"

            def run(self) -> tuple[float, ...]:
                with lock:
                    calls.append(1)
                time.sleep(0.2)
                return (8.0,)

        results = []

        def worker():
            started.wait()
            results.append(store.compute(Slow()))

        threads = [threading.Thread(target=worker) for __ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == [(8.0,)] * 4
        assert len(calls) == 1
        assert store.stats.inflight_waits >= 1

    def test_gc_evicts_stale_versions(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("current", (1.0,))
        stale = tmp_path / f"v{CACHE_VERSION - 1}"
        stale.mkdir()
        (stale / "old1.json").write_text("[1.0]")
        (stale / "old2.json").write_text("[2.0]")
        (tmp_path / "legacy.json").write_text("[3.0]")  # pre-engine flat layout
        evicted = store.gc()
        assert evicted == 3
        assert not stale.exists()
        assert not (tmp_path / "legacy.json").exists()
        assert (tmp_path / f"v{CACHE_VERSION}" / "current.json").exists()

    def test_manifest_accumulates(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k1", (1.0,))
        store.get("missing")
        store.flush_manifest()
        store.put("k2", (2.0,))
        manifest = store.flush_manifest()
        assert manifest["cache_version"] == CACHE_VERSION
        assert manifest["writes"] == 2
        assert manifest["misses"] >= 1
        assert manifest["entries"] == 2
        # flush resets session counters: a third flush adds nothing.
        assert store.flush_manifest()["writes"] == 2

    def test_manifest_persists_job_telemetry(self, tmp_path):
        store = ResultStore(tmp_path)
        store.record_job_telemetry(
            "k1", {"mode": "pool", "seconds": 1.5, "tries": 1, "ts": 100.0}
        )
        manifest = store.flush_manifest()
        assert manifest["jobs"]["k1"]["mode"] == "pool"
        # Records survive across sessions and merge with new ones.
        fresh = ResultStore(tmp_path)
        fresh.record_job_telemetry(
            "k2", {"mode": "serial", "seconds": 0.5, "tries": 1, "ts": 200.0}
        )
        merged = fresh.flush_manifest()
        assert set(merged["jobs"]) == {"k1", "k2"}
        # Flushing resets the session-local records (no double merge).
        assert fresh.job_telemetry == {}

    def test_manifest_job_records_capped_newest_first(self, tmp_path):
        from repro.engine.store import MANIFEST_JOB_LIMIT

        store = ResultStore(tmp_path)
        for i in range(MANIFEST_JOB_LIMIT + 10):
            store.record_job_telemetry(
                f"k{i:04d}", {"mode": "pool", "seconds": 0.0, "tries": 1,
                              "ts": float(i)}
            )
        jobs = store.flush_manifest()["jobs"]
        assert len(jobs) == MANIFEST_JOB_LIMIT
        assert "k0000" not in jobs  # oldest dropped
        assert f"k{MANIFEST_JOB_LIMIT + 9:04d}" in jobs


class TestEngineSerial:
    def test_dedup_and_hits(self, tmp_path):
        store = ResultStore(tmp_path)
        engine = ExecutionEngine(EngineConfig(workers=1))
        jobs = [FakeJob("a", (1.0,)), FakeJob("a", (1.0,)), FakeJob("b", (2.0,))]
        report = engine.run_jobs(jobs, store=store)
        assert report.stats.submitted == 3
        assert report.stats.unique == 2
        assert report.stats.deduplicated == 1
        assert report.stats.executed == 2
        assert report.results == {"fake-a": (1.0,), "fake-b": (2.0,)}
        again = engine.run_jobs(jobs, store=store)
        assert again.stats.cache_hits == 2 and again.stats.executed == 0
        assert again.stats.hit_rate == 1.0

    def test_progress_callback(self, tmp_path):
        store = ResultStore(tmp_path)
        engine = ExecutionEngine(EngineConfig(workers=1))
        snapshots = []
        engine.run_jobs(
            [FakeJob("a"), FakeJob("b")],
            store=store,
            progress=lambda stats: snapshots.append(stats.done),
        )
        assert snapshots[-1] == 2

    def test_parse_workers(self):
        assert parse_workers(3) == 3
        assert parse_workers("2") == 2
        assert parse_workers("auto") >= 1
        with pytest.raises(ValueError):
            parse_workers("0")
        with pytest.raises(ValueError):
            parse_workers("many")

    def test_parse_workers_auto_counts_usable_cores(self, monkeypatch):
        # Under a CPU-affinity mask (or a cpuset) the process may run on
        # fewer cores than the machine has.
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert parse_workers("auto") == 1
        assert parse_workers("AUTO ") == 1


class TestUsableWorkers:
    def test_usable_cores_capped_by_jobs(self, monkeypatch):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False
        )
        assert [usable_workers(n) for n in (0, 1, 2, 3, 8)] == [1, 1, 2, 3, 3]

    def test_other_threads_do_not_count(self, monkeypatch):
        # A thread blocked on its input (a control-plane reader) leaves
        # the count at the usable cores; only run_jobs, which forks the
        # pool, checks for live threads.
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False
        )
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert usable_workers(8) == 3
        finally:
            release.set()
            other.join()

    def test_one_in_a_multiprocessing_child(self):
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=1, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            assert pool.submit(usable_workers, 8).result(timeout=60) == 1


class TestEngineParallelScheduling:
    def test_pool_executes_and_dedups(self, tmp_path):
        store = ResultStore(tmp_path)
        engine = ExecutionEngine(EngineConfig(workers=2))
        jobs = [FakeJob(str(i % 3), (float(i % 3),)) for i in range(9)]
        report = engine.run_jobs(jobs, store=store)
        assert report.stats.unique == 3
        assert report.stats.deduplicated == 6
        assert report.stats.executed == 3
        assert report.results["fake-0"] == (0.0,)

    def test_pool_joined_before_run_jobs_returns(self, tmp_path):
        # The pool's management and queue-feeder threads used to outlive
        # run_jobs, so the next pool forked a multi-threaded process.
        before = threading.active_count()
        engine = ExecutionEngine(EngineConfig(workers=2))
        report = engine.run_jobs(
            [FakeJob(str(i), (float(i),)) for i in range(4)],
            store=ResultStore(tmp_path),
        )
        assert report.stats.executed == 4
        assert threading.active_count() == before

    def test_no_pool_forks_beside_a_live_thread(self, tmp_path):
        # A forked pool copies only the calling thread, so a lock another
        # thread held would stay held in every worker.
        factory_calls = []

        def no_fork(workers):
            factory_calls.append(workers)
            raise AssertionError("a pool forked beside a live thread")

        store = ResultStore(tmp_path)
        engine = ExecutionEngine(EngineConfig(workers=3), pool_factory=no_fork)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            report = engine.run_jobs(
                [FakeJob(str(i), (float(i),)) for i in range(4)], store=store
            )
        finally:
            release.set()
            other.join(timeout=60)
        assert not other.is_alive()
        assert factory_calls == []
        stats = report.stats
        assert (stats.workers, stats.executed, stats.in_process) == (1, 4, 0)
        assert {
            store.job_telemetry[key]["mode"] for key in report.results
        } == {"serial"}

    @pytest.mark.parametrize("end", list(POOLED_ENDS))
    def test_pooled_job_ends(self, tmp_path, end):
        make_jobs, pool_factory, error, counters, telemetry = POOLED_ENDS[end]
        store = ResultStore(tmp_path / "store")
        engine = ExecutionEngine(
            EngineConfig(workers=2), pool_factory=pool_factory
        )
        jobs = make_jobs(tmp_path)
        seen = []
        before = threading.active_count()
        if error is None:
            engine.run_jobs(jobs, store=store, progress=seen.append)
        else:
            with pytest.raises(error[0], match=error[1]) as raised:
                engine.run_jobs(jobs, store=store, progress=seen.append)
            assert type(raised.value) is error[0]
        assert threading.active_count() == before
        stats = seen[-1]
        assert {name: getattr(stats, name) for name in END_COUNTERS} == {
            name: counters.get(name, 0) for name in END_COUNTERS
        }
        for job in jobs:
            record = store.job_telemetry.get(job.key)
            ended = None if record is None else (
                record["mode"], record["tries"], store.get(job.key)
            )
            assert ended == telemetry[job.key], job.key


@dataclass(frozen=True)
class PointJob:
    """A cheap job over named workloads (the engine groups by them)."""

    name: str
    workloads: tuple[str, ...]

    @property
    def key(self) -> str:
        return f"point-{self.name}"

    def run(self) -> tuple[float, ...]:
        return (1.0,)


class TestPoolSamplingPoints:
    """Each pool worker keeps one sampling-point scope for its life and
    ships its point counts back with every job."""

    @pytest.fixture
    def registry(self):
        saved = get_registry()
        yield set_registry(MetricsRegistry())
        set_registry(saved)

    def test_cold_two_worker_run_counts_every_lookup(self, tmp_path, registry):
        sampling = SamplingConfig(
            n_samples=2, warmup_instructions=500, measure_instructions=500,
            seed=5,
        )
        # Configuration-major, as the figure grids come.
        jobs = [
            SimJob.solo(name, config_solo(rob), sampling)
            for rob in (64, 96, 128, 192)
            for name in ("gamess", "zeusmp")
        ]
        jobs.append(SimJob.pair("gamess", "zeusmp", config_all_shared(), sampling))
        report = ExecutionEngine(EngineConfig(workers=2)).run_jobs(
            jobs, store=ResultStore(tmp_path)
        )
        assert report.stats.executed == len(jobs)
        built = registry.counter("sampling.points_built").value
        reused = registry.counter("sampling.points_reused").value
        lookups = sum(len(job.workloads) for job in jobs) * sampling.n_samples
        distinct = {
            (profile.name, sample)
            for job in jobs
            for profile in job.workloads
            for sample in range(sampling.n_samples)
        }
        assert built + reused == lookups == 20
        assert built <= 2 * len(distinct) == 8
        serial = ExecutionEngine().run_jobs(jobs, store=ResultStore(None))
        assert serial.results == report.results

    def test_pool_gets_jobs_grouped_by_workloads(self, tmp_path):
        submitted = []

        class Recording(ProcessPoolExecutor):
            def submit(self, fn, job, *args, **kwargs):
                submitted.append(job.workloads)
                return super().submit(fn, job, *args, **kwargs)

        jobs = [
            PointJob(f"{name}{i}", (name,))
            for i in range(3) for name in ("a", "b")
        ]
        engine = ExecutionEngine(
            EngineConfig(workers=2),
            pool_factory=lambda workers: Recording(max_workers=workers),
        )
        engine.run_jobs(jobs, store=ResultStore(tmp_path))
        assert submitted == [("a",)] * 3 + [("b",)] * 3


class TestTelemetry:
    def test_derived_counters(self):
        stats = EngineStats(workers=2, unique=10, cache_hits=4, executed=3,
                            running=2)
        assert stats.done == 7
        assert stats.queued == 1
        assert stats.hit_rate == 0.4
        payload = stats.as_dict()
        assert payload["done"] == 7 and payload["hit_rate"] == 0.4
        assert payload["queued"] == 1  # derived field exported too

    def test_summary_mentions_key_counts(self):
        stats = EngineStats(workers=3, unique=5, cache_hits=2, executed=3,
                            deduplicated=1, crash_retries=1, wall_time=1.25)
        text = stats.summary()
        assert "5 jobs" in text and "2 cached" in text and "retried" in text
        assert "pool rebuild" not in text

    def test_summary_reports_pool_rebuilds(self):
        stats = EngineStats(workers=3, unique=5, executed=5, pool_rebuilds=2)
        assert "2 pool rebuild(s)" in stats.summary()
