"""Tests for the sampling methodology (SimFlex-style)."""

import gc
import threading
import weakref
from contextlib import nullcontext
from dataclasses import replace
from functools import cache

import numpy as np
import pytest

from repro.cpu import sampling as sampling_module
from repro.cpu.config import CoreConfig, UncoreConfig
from repro.cpu.fast_core import FastCore
from repro.cpu.isa import OpClass
from repro.cpu.sampling import (
    SCOPE_POINTS,
    SamplingConfig,
    _checkpoint_warm,
    _sampling_point,
    _warm_plan,
    mean_uipc,
    sample_colocation,
    sample_solo,
    shared_sampling_points,
)
from repro.cpu.trace import _COLUMNS
from repro.experiments.common import Fidelity
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.util.rng import derive_seed
from repro.workloads.registry import get_profile


class TestSamplingConfig:
    def test_defaults_valid(self):
        SamplingConfig()

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            SamplingConfig(n_samples=0)
        with pytest.raises(ValueError):
            SamplingConfig(measure_instructions=0)

    def test_trace_length_covers_run(self):
        c = SamplingConfig(warmup_instructions=1000, measure_instructions=1000)
        assert c.trace_length > 2 * (c.warmup_instructions + c.measure_instructions)

    def test_max_cycles_scales(self):
        c = SamplingConfig(measure_instructions=100)
        assert c.max_cycles == 100 * c.max_cycles_per_instruction

    def test_hashable(self):
        assert hash(SamplingConfig()) == hash(SamplingConfig())


class TestSampleSolo:
    def test_one_result_per_sample(self, tiny_sampling, web_search_profile):
        results = sample_solo(
            web_search_profile, CoreConfig().single_thread(192), tiny_sampling
        )
        assert len(results) == tiny_sampling.n_samples

    def test_reproducible(self, tiny_sampling, zeusmp_profile):
        config = CoreConfig().single_thread(192)
        a = sample_solo(zeusmp_profile, config, tiny_sampling)
        b = sample_solo(zeusmp_profile, config, tiny_sampling)
        assert mean_uipc(a) == mean_uipc(b)

    def test_samples_differ(self, zeusmp_profile):
        sampling = SamplingConfig(n_samples=2, warmup_instructions=500,
                                  measure_instructions=500, seed=1)
        results = sample_solo(zeusmp_profile, CoreConfig().single_thread(192), sampling)
        assert results[0].threads[0].uipc != results[1].threads[0].uipc

    def test_checkpoint_warming_improves_llc(self, zeusmp_profile):
        base = dict(n_samples=1, warmup_instructions=1500,
                    measure_instructions=1500, seed=3)
        warm = sample_solo(zeusmp_profile, CoreConfig().single_thread(192),
                           SamplingConfig(checkpoint_warming=True, **base))
        cold = sample_solo(zeusmp_profile, CoreConfig().single_thread(192),
                           SamplingConfig(checkpoint_warming=False, **base))
        assert mean_uipc(warm) > mean_uipc(cold)


class TestSampleColocation:
    def test_thread_assignment(self, tiny_sampling, web_search_profile, zeusmp_profile):
        results = sample_colocation(
            web_search_profile, zeusmp_profile, CoreConfig(), tiny_sampling
        )
        assert results[0].threads[0].workload == "web_search"
        assert results[0].threads[1].workload == "zeusmp"

    def test_both_threads_reach_target(self, tiny_sampling, web_search_profile,
                                       zeusmp_profile):
        results = sample_colocation(
            web_search_profile, zeusmp_profile, CoreConfig(), tiny_sampling
        )
        for result in results:
            assert all(
                t.instructions >= tiny_sampling.measure_instructions
                for t in result.threads
            )


class TestMeanUipc:
    def test_average(self, tiny_sampling, gamess_profile):
        results = sample_solo(
            gamess_profile, CoreConfig().single_thread(192), tiny_sampling
        )
        expected = sum(r.threads[0].uipc for r in results) / len(results)
        assert mean_uipc(results) == pytest.approx(expected)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_uipc([])


# ----------------------------------------------------------------------
# Checkpoint warming: bulk plans vs the per-line installer
# ----------------------------------------------------------------------

QUICK = Fidelity.quick(seed=42).sampling


def _oracle_warm(core, thread, trace, memmap, sampling, sample):
    """The per-line checkpoint warmer the bulk plans replaced (oracle).

    Its literal 64-byte LLC line is exact for the configurations compared
    here, which all use 64-byte lines.
    """
    hierarchy = core.hierarchy
    llc_bytes = hierarchy.llc[thread].num_sets * hierarchy.llc[thread].ways * 64
    if len(hierarchy.llc) > 1 and hierarchy.llc[0] is hierarchy.llc[1]:
        llc_bytes //= 2

    code_blocks = np.unique(trace.pc >> 6)
    for block in code_blocks.tolist():
        hierarchy.install_code(thread, int(block) << 6)

    is_branch = trace.op == OpClass.BRANCH
    br_pc = trace.pc[is_branch]
    br_taken = trace.taken[is_branch]
    br_target = trace.target[is_branch]
    unique_pc, inverse = np.unique(br_pc, return_inverse=True)
    taken_votes = np.bincount(inverse, weights=br_taken.astype(np.float64))
    counts = np.bincount(inverse)
    last_index = np.zeros(len(unique_pc), dtype=np.int64)
    last_index[inverse] = np.arange(len(br_pc))
    for k in range(len(unique_pc)):
        core.predictor.install(
            thread,
            int(unique_pc[k]),
            bool(taken_votes[k] * 2 > counts[k]),
            int(br_target[last_index[k]]),
        )

    is_mem = (trace.op == OpClass.LOAD) | (trace.op == OpClass.STORE)
    addrs = trace.addr[is_mem]
    hot = np.unique(addrs[(addrs >= memmap.hot_start) & (addrs < memmap.hot_end)] >> 6)
    cold = np.unique(
        addrs[(addrs >= memmap.cold_start) & (addrs < memmap.cold_end)] >> 6
    )
    for block in hot.tolist():
        hierarchy.install_data(thread, int(block) << 6)

    hot_bytes = memmap.hot_end - memmap.hot_start
    code_bytes = len(code_blocks) * 64
    cold_region_bytes = max(memmap.cold_end - memmap.cold_start, 64)
    residency = min(1.0, max(llc_bytes - hot_bytes - code_bytes, 0) / cold_region_bytes)
    if residency > 0.0 and len(cold):
        rng = np.random.default_rng(
            derive_seed(sampling.seed, trace.name, "ckpt", sample, thread)
        )
        resident = cold[rng.random(len(cold)) < residency]
        for block in resident.tolist():
            hierarchy.install_data(thread, int(block) << 6)


@pytest.fixture(scope="class")
def quick_point():
    """Builds each quick-tier point once per test class (plans included)."""
    return cache(lambda name, sample: _sampling_point(get_profile(name), QUICK, sample))


def _warm_state(core):
    """LLC set lists (LRU order included) and predictor tables."""
    llcs = {id(llc): llc for llc in core.hierarchy.llc}
    tables = core.predictor._tables
    return (
        [[list(entries) for entries in llc._sets] for llc in llcs.values()],
        [(bytes(t.bimodal), bytes(t.gshare), bytes(t.chooser),
          list(t.btb_tag), list(t.btb_target)) for t in tables],
    )


_WARM_CONFIGS = {
    "partitioned": CoreConfig(),
    "shared_llc": replace(CoreConfig(), uncore=UncoreConfig(llc_partitioned=False)),
    "private_bp": replace(CoreConfig(), private_bp=True),
}


class TestBulkWarmingMatchesOracle:
    @pytest.mark.parametrize("config_name", sorted(_WARM_CONFIGS))
    @pytest.mark.parametrize("sample", [0, 1])
    @pytest.mark.parametrize("name", ["web_search", "zeusmp", "mcf", "lbm"])
    def test_solo(self, quick_point, name, sample, config_name):
        config = _WARM_CONFIGS[config_name]
        point = quick_point(name, sample)
        oracle = FastCore(config, (point.trace,))
        _oracle_warm(oracle, 0, point.trace, point.memmap, QUICK, sample)
        bulk = FastCore(config, (point.trace,))
        _checkpoint_warm(bulk, 0, point, QUICK, sample)
        assert _warm_state(bulk) == _warm_state(oracle)

    @pytest.mark.parametrize("config_name", sorted(_WARM_CONFIGS))
    @pytest.mark.parametrize("sample", [0, 1])
    @pytest.mark.parametrize("batch", ["zeusmp", "mcf", "lbm"])
    def test_pair(self, quick_point, batch, sample, config_name):
        config = _WARM_CONFIGS[config_name]
        points = (quick_point("web_search", sample), quick_point(batch, sample))
        traces = tuple(p.trace for p in points)
        oracle = FastCore(config, traces)
        bulk = FastCore(config, traces)
        for thread, point in enumerate(points):
            _oracle_warm(oracle, thread, point.trace, point.memmap, QUICK, sample)
            _checkpoint_warm(bulk, thread, point, QUICK, sample)
        assert _warm_state(bulk) == _warm_state(oracle)

    def test_plan_is_built_once_per_thread_and_llc(self, quick_point):
        point = quick_point("mcf", 0)
        core = FastCore(CoreConfig(), (point.trace,))
        plan = _warm_plan(point, core.hierarchy, 0, QUICK, 0)
        again = FastCore(CoreConfig(), (point.trace,))
        assert _warm_plan(point, again.hierarchy, 0, QUICK, 0) is plan
        assert _warm_plan(point, again.hierarchy, 1, QUICK, 0) is not plan

    def test_llc_size_uses_the_partition_line_size(self, quick_point):
        # 128-byte lines: a 4 MB partition of 2048 sets x 16 ways.  Warming
        # must size residency from those 4 MB, not from 64-byte lines.
        base = CoreConfig()
        config = replace(base, dcache=replace(base.dcache, line_bytes=128))
        point = quick_point("web_search", 0)
        core = FastCore(config, (point.trace,))
        llc = core.hierarchy.llc[0]
        assert llc.num_sets * llc.ways * llc.line_bytes == 4 << 20
        trace, memmap = point.trace, point.memmap
        addrs = trace.addr[(trace.op == OpClass.LOAD) | (trace.op == OpClass.STORE)]
        cold = np.unique(
            addrs[(addrs >= memmap.cold_start) & (addrs < memmap.cold_end)] >> 6
        )
        free = ((4 << 20) - (memmap.hot_end - memmap.hot_start)
                - len(np.unique(trace.pc >> 6)) * 64)
        residency = free / (memmap.cold_end - memmap.cold_start)
        assert 0.45 < residency < 0.55
        rng = np.random.default_rng(derive_seed(42, "web_search", "ckpt", 0, 0))
        resident = cold[rng.random(len(cold)) < residency]
        plan = _warm_plan(point, core.hierarchy, 0, QUICK, 0)
        assert plan.cold == ((resident << 6) >> 7).tolist()
        assert len(plan.cold) / len(cold) > 0.4


# ----------------------------------------------------------------------
# Sweep scopes
# ----------------------------------------------------------------------


class TestSharedSamplingPoints:
    def test_outside_a_scope_every_sample_builds(self, tiny_sampling, zeusmp_profile):
        a = _sampling_point(zeusmp_profile, tiny_sampling, 0)
        b = _sampling_point(zeusmp_profile, tiny_sampling, 0)
        assert a is not b

    def test_points_match_by_profile_value(self, tiny_sampling, zeusmp_profile):
        with shared_sampling_points():
            a = _sampling_point(zeusmp_profile, tiny_sampling, 0)
            assert _sampling_point(replace(zeusmp_profile), tiny_sampling, 0) is a
            other = replace(zeusmp_profile, frac_fp=zeusmp_profile.frac_fp / 2)
            assert _sampling_point(other, tiny_sampling, 0) is not a
            assert _sampling_point(zeusmp_profile, tiny_sampling, 1) is not a

    def test_nested_scopes_reuse_the_outer_points(self, tiny_sampling, zeusmp_profile):
        with shared_sampling_points():
            outer = _sampling_point(zeusmp_profile, tiny_sampling, 0)
            with shared_sampling_points():
                assert _sampling_point(zeusmp_profile, tiny_sampling, 0) is outer
                inner = _sampling_point(zeusmp_profile, tiny_sampling, 1)
            assert _sampling_point(zeusmp_profile, tiny_sampling, 1) is inner

    def test_nothing_stays_alive_after_exit(self, small_sampling, web_search_profile,
                                            zeusmp_profile):
        with shared_sampling_points():
            sample_colocation(web_search_profile, zeusmp_profile, CoreConfig(),
                              small_sampling)
            trace = _sampling_point(zeusmp_profile, small_sampling, 0).trace
            alive = weakref.ref(trace)
            del trace
            gc.collect()
            assert alive() is not None
        gc.collect()
        assert alive() is None
        assert sampling_module._scope.get() is None

    def test_another_thread_sees_no_scope(self, tiny_sampling, zeusmp_profile):
        seen = []

        def worker():
            seen.append(sampling_module._scope.get())
            seen.append(_sampling_point(zeusmp_profile, tiny_sampling, 0))

        with shared_sampling_points():
            mine = _sampling_point(zeusmp_profile, tiny_sampling, 0)
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert seen[0] is None
        assert seen[1] is not mine

    def test_lru_holds_at_most_scope_points(self, tiny_sampling, zeusmp_profile):
        with shared_sampling_points():
            points = sampling_module._scope.get()
            first = _sampling_point(zeusmp_profile, tiny_sampling, 0)
            for sample in range(1, SCOPE_POINTS + 3):
                _sampling_point(zeusmp_profile, tiny_sampling, sample)
                assert len(points) <= SCOPE_POINTS
            assert len(points) == SCOPE_POINTS
            assert _sampling_point(zeusmp_profile, tiny_sampling, 0) is not first

    @pytest.mark.parametrize("scoped", [False, True])
    def test_trace_columns_reject_writes(self, scoped, tiny_sampling, zeusmp_profile):
        with shared_sampling_points() if scoped else nullcontext():
            trace = _sampling_point(zeusmp_profile, tiny_sampling, 0).trace
        for column in _COLUMNS:
            with pytest.raises(ValueError):
                getattr(trace, column)[0] = 1

    def test_scope_is_bit_identical(self, small_sampling, web_search_profile,
                                    zeusmp_profile):
        configs = (CoreConfig(), replace(CoreConfig(), private_bp=True))
        plain = [sample_colocation(web_search_profile, zeusmp_profile, c,
                                   small_sampling) for c in configs]
        with shared_sampling_points():
            scoped = [sample_colocation(web_search_profile, zeusmp_profile, c,
                                        small_sampling) for c in configs]
        assert scoped == plain

    def test_reuse_counters_on_the_fig06_slice(self, tmp_path, monkeypatch):
        # The golden fig06 slice through a one-worker engine: 3 workloads x
        # 12 ROB sizes x 2 samples = 72 point requests over 6 points.
        from repro.experiments import fig06_rob_sensitivity as fig06

        monkeypatch.setattr(fig06, "LS_WORKLOADS", ("web_search",))
        monkeypatch.setattr(fig06, "BATCH_WORKLOADS", ("zeusmp", "mcf"))
        executed, built, reused = _run_counted(
            fig06.jobs(Fidelity.quick(seed=42)), tmp_path
        )
        assert (executed, built, reused) == (36, 6, 66)

    def test_engine_runs_each_points_jobs_back_to_back(self, tmp_path):
        # A configuration-major pair grid over 1 + 5 workloads x 2 samples =
        # 12 points, more than the LRU holds.  In submission order the
        # second configuration would rebuild the batch points; grouped by
        # workloads, each point is built once.
        from repro.engine.job import SimJob

        sampling = SamplingConfig(n_samples=2, warmup_instructions=1000,
                                  measure_instructions=1000, seed=7)
        batches = ("zeusmp", "mcf", "lbm", "astar", "bwaves")
        configs = (CoreConfig(), replace(CoreConfig(), private_bp=True))
        jobs = [SimJob.pair("web_search", batch, config, sampling)
                for config in configs for batch in batches]
        executed, built, reused = _run_counted(jobs, tmp_path)
        assert (executed, built, reused) == (10, 12, 28)


def _run_counted(jobs, tmp_path) -> tuple[int, int, int]:
    """Run ``jobs`` through a one-worker engine: (executed, points built,
    points reused)."""
    from repro.engine import EngineConfig, ExecutionEngine
    from repro.engine.store import ResultStore

    registry = MetricsRegistry()
    previous = get_registry()
    set_registry(registry)
    try:
        report = ExecutionEngine(EngineConfig(workers=1)).run_jobs(
            jobs, store=ResultStore(tmp_path)
        )
    finally:
        set_registry(previous)
    return (
        report.stats.executed,
        registry.counter("sampling.points_built").value,
        registry.counter("sampling.points_reused").value,
    )
