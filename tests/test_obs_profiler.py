"""Tests for the section profiler (repro.obs.profiler)."""

import pytest

from repro.cpu.config import CoreConfig
from repro.cpu.fast_core import FastCore
from repro.cpu.sampling import SamplingConfig
from repro.engine.executor import EngineConfig, ExecutionEngine
from repro.engine.job import SimJob
from repro.engine.store import ResultStore
from repro.fleet.surrogate import SurrogateGrid, fit_tail_surrogate
from repro.obs.profiler import (
    PROFILE_ENV,
    Profiler,
    active_profiler,
    disable_profiling,
    enable_profiling,
)
from repro.qos import queueing
from repro.workloads.generator import generate_trace
from repro.workloads.registry import get_profile

#: Hot-loop sections FastCore flushes after a profiled run.
SIM_SECTIONS = {
    "sim.wakeup_squash",
    "sim.commit",
    "sim.fetch_arbitration",
    "sim.dispatch",
    "sim.clock_advance",
}

#: Sections the queueing DES flushes once per query.
DES_SECTIONS = {"qos.des.draw", "qos.des.serve", "qos.des.summary"}

#: Sections a serial execution engine times per job set.
ENGINE_SECTIONS = {
    "engine.dedupe", "engine.cache_lookup", "engine.execute",
    "engine.store_write",
}


class TestProfiler:
    def test_add_accumulates(self):
        p = Profiler()
        p.add("a", 0.5)
        p.add("a", 0.25, calls=3)
        assert p.seconds("a") == 0.75
        assert p.calls("a") == 4
        assert p.seconds("missing") == 0.0

    def test_section_context_manager(self):
        p = Profiler()
        with p.section("x"):
            pass
        assert p.calls("x") == 1
        assert p.seconds("x") > 0

    def test_merge(self):
        a, b = Profiler(), Profiler()
        a.add("s", 1.0)
        b.add("s", 2.0)
        b.add("t", 3.0)
        a.merge(b)
        assert a.seconds("s") == 3.0 and a.seconds("t") == 3.0

    def test_table_hottest_first(self):
        p = Profiler()
        p.add("cold", 0.1, calls=10)
        p.add("hot", 0.9, calls=10)
        table = p.self_time_table()
        assert table.index("hot") < table.index("cold")
        assert "share" in table

    def test_empty_table(self):
        assert "no sections" in Profiler().self_time_table()

    def test_as_dict_and_reset(self):
        p = Profiler()
        p.add("a", 1.0, calls=2)
        assert p.as_dict() == {"a": {"seconds": 1.0, "calls": 2}}
        p.reset()
        assert p.as_dict() == {}


class TestProcessWideProfiler:
    @pytest.fixture(autouse=True)
    def clean_state(self, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV, raising=False)
        disable_profiling()
        yield
        disable_profiling()

    def test_off_by_default(self):
        assert active_profiler() is None

    def test_enable_disable(self):
        import os

        profiler = enable_profiling()
        assert active_profiler() is profiler
        assert os.environ[PROFILE_ENV] == "1"
        disable_profiling()
        assert active_profiler() is None
        assert PROFILE_ENV not in os.environ

    def test_env_flag_creates_worker_side_profiler(self, monkeypatch):
        # A pool worker inherits only the environment variable.
        monkeypatch.setenv(PROFILE_ENV, "1")
        assert active_profiler() is not None


class TestSimulatorProfile:
    def test_profiled_run_is_bit_identical_and_covers_hot_loops(self):
        ws = generate_trace(get_profile("web_search"), 20_000, seed=3)
        zm = generate_trace(get_profile("zeusmp"), 20_000, seed=3)
        plain = FastCore(CoreConfig(), (ws, zm))
        plain.event_log = []
        baseline = plain.run(4000, warmup_instructions=1000)

        core = FastCore(CoreConfig(), (ws, zm))
        core.event_log = []
        core.profiler = profiler = Profiler()
        profiled = core.run(4000, warmup_instructions=1000)

        assert profiled == baseline
        assert core.cycle == plain.cycle
        assert core.event_log == plain.event_log
        assert set(profiler.as_dict()) == SIM_SECTIONS
        # Every section counts one call per loop iteration; a clock jump
        # is one iteration, so there are at most as many as cycles.
        calls = {profiler.calls(name) for name in SIM_SECTIONS}
        assert len(calls) == 1
        assert 0 < calls.pop() <= core.cycle
        assert profiler.seconds("sim.dispatch") > 0


class TestPoolWorkerProfiles:
    """``--profile --jobs N``: pool workers ship their sections back."""

    @pytest.fixture(autouse=True)
    def clean_state(self, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV, raising=False)
        disable_profiling()
        yield
        disable_profiling()

    def test_pool_reports_the_serial_sim_calls(self):
        sampling = SamplingConfig(n_samples=1, warmup_instructions=500,
                                  measure_instructions=800, seed=5)
        jobs = [
            SimJob.solo("web_search", CoreConfig().single_thread(192), sampling),
            SimJob.pair("web_search", "zeusmp", CoreConfig(), sampling),
            SimJob.solo("zeusmp", CoreConfig().single_thread(96), sampling),
        ]
        calls = {}
        for workers in (1, 2):
            profiler = enable_profiling()
            report = ExecutionEngine(EngineConfig(workers=workers)).run_jobs(
                jobs, store=ResultStore(None)
            )
            assert report.stats.executed == len(jobs)
            assert report.stats.in_process == 0
            calls[workers] = {
                name: entry["calls"]
                for name, entry in profiler.as_dict().items()
                if name.startswith("sim.")
            }
            disable_profiling()
        # Loop iteration counts are deterministic, wherever a job runs.
        assert set(calls[1]) == SIM_SECTIONS
        assert calls[2] == calls[1]


class TestQueueingProfile:
    @pytest.fixture(autouse=True)
    def clean_state(self, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV, raising=False)
        disable_profiling()
        yield
        disable_profiling()

    def test_profiled_fit_is_bit_identical_and_counts_queries(self):
        qos = get_profile("web_search").qos
        grid = SurrogateGrid(
            loads=(0.1, 0.6, 1.0), n_requests=200, peak_requests=800,
            n_reps=2, n_val_reps=1, seed=1,
        )
        perfs = (0.7, 1.0)
        plain = fit_tail_surrogate(qos, perfs, grid)
        # The plain fit's peak bisections are memoized; forget them so the
        # profiled fit runs (and counts) its own.
        queueing._PEAK_MEMO.clear()
        profiler = enable_profiling()
        profiled = fit_tail_surrogate(qos, perfs, grid)
        disable_profiling()

        assert profiled.to_values() == plain.to_values()
        # The fit's peak jobs and replicates run on a one-worker engine.
        assert set(profiler.as_dict()) == DES_SECTIONS | ENGINE_SECTIONS
        simulators = grid.n_reps + grid.n_val_reps
        assert profiler.calls("engine.execute") == 2 * simulators
        # 41 bisection probes per replicate simulator, then one query per
        # (replicate, perf, load) grid point.
        points = len(perfs) * (
            grid.n_reps * len(grid.loads)
            + grid.n_val_reps * (len(grid.loads) - 1)
        )
        for name in DES_SECTIONS:
            assert profiler.calls(name) == simulators * 41 + points
        assert profiler.seconds("qos.des.serve") > 0
