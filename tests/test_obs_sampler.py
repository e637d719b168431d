"""Tests for interval sampling (repro.obs.sampler) against a real core.

The load-bearing guarantees: an attached sampler never perturbs the
simulation (bit-identical cycles/instructions), and the per-window series
it emits reconciles exactly with the aggregate measurement.
"""

import json

import pytest

from repro.cpu.config import CoreConfig
from repro.cpu.fast_core import FastCore
from repro.obs.metrics import MetricsRegistry
from repro.obs.sampler import (
    DEFAULT_WINDOW_CYCLES,
    IntervalSampler,
    JsonlSink,
    METRICS_ENV,
    WINDOW_ENV,
    attach_core_observers,
)
from repro.workloads.generator import generate_trace
from repro.workloads.registry import get_profile

INSTRUCTIONS = 5000


def new_core(two_threads=True) -> FastCore:
    ws = generate_trace(get_profile("web_search"), 20_000, seed=3)
    if not two_threads:
        return FastCore(CoreConfig().single_thread(192), (ws,))
    zm = generate_trace(get_profile("zeusmp"), 20_000, seed=3)
    return FastCore(CoreConfig(), (ws, zm))


def run_sampled(window_cycles=500):
    core = new_core()
    core.sampler = IntervalSampler(window_cycles=window_cycles)
    results = core.run(INSTRUCTIONS)
    return core, results


class TestNonPerturbation:
    def test_sampled_run_bit_identical(self):
        baseline = new_core().run(INSTRUCTIONS)
        __, sampled = run_sampled()
        assert sampled.cycles == baseline.cycles
        for base, obs in zip(baseline.threads, sampled.threads):
            assert obs.cycles == base.cycles
            assert obs.instructions == base.instructions
            assert obs.uipc == base.uipc

    def test_detached_core_has_no_sampler(self):
        core = new_core()
        assert core.sampler is None and core.profiler is None


class TestWindowReconciliation:
    def test_window_instructions_sum_to_aggregate(self):
        core, result = run_sampled()
        samples = core.sampler.samples
        for t, thread in enumerate(result.threads):
            windowed = sum(s.threads[t].instructions for s in samples)
            assert windowed == thread.instructions

    def test_window_cycles_sum_to_aggregate(self):
        core, result = run_sampled()
        samples = core.sampler.samples
        total = sum(s.cycles for s in samples)
        assert total == result.cycles

    def test_windowed_uipc_weighted_mean_matches_aggregate(self):
        core, result = run_sampled()
        samples = core.sampler.samples
        for t, thread in enumerate(result.threads):
            weighted = sum(s.threads[t].uipc * s.cycles for s in samples)
            assert weighted / thread.cycles == pytest.approx(
                thread.uipc, rel=1e-9
            )

    def test_windows_are_contiguous(self):
        core, __ = run_sampled()
        samples = core.sampler.samples
        assert samples[0].start_cycle == 0
        for prev, cur in zip(samples, samples[1:]):
            assert cur.start_cycle == prev.end_cycle
            assert cur.index == prev.index + 1

    def test_signals_present(self):
        core, __ = run_sampled()
        tw = core.sampler.samples[0].threads[0]
        assert tw.rob_limit > 0 and tw.lsq_limit > 0
        assert 0 <= tw.rob_occupancy <= tw.rob_limit
        assert tw.uipc >= 0 and tw.mlp >= 0
        assert 0 <= tw.branch_miss_rate <= 1
        assert 0 <= tw.l1d_miss_rate <= 1


class TestJsonlSink:
    def test_streams_tagged_windows(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        core = new_core()
        core.sampler = IntervalSampler(
            window_cycles=500, sink=JsonlSink(path), meta={"kind": "pair"}
        )
        core.run(INSTRUCTIONS)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == len(core.sampler.samples)
        for record in records:
            assert record["type"] == "core_window"
            assert record["kind"] == "pair"
            assert len(record["threads"]) == 2

    def test_flush_batches_into_one_append(self, tmp_path):
        path = tmp_path / "out.jsonl"
        sink = JsonlSink(path)
        sink.write({"a": 1})
        sink.write({"b": 2})
        assert not path.exists()  # buffered until flush
        assert sink.flush() == 2
        assert len(path.read_text().splitlines()) == 2
        assert sink.flush() == 0

    def test_registry_series(self):
        registry = MetricsRegistry()
        core = new_core()
        core.sampler = IntervalSampler(window_cycles=500, registry=registry)
        core.run(INSTRUCTIONS)
        series = registry.series("core.window.uipc.t0")
        assert len(series.values()) == len(core.sampler.samples)


class TestAttachCoreObservers:
    def test_noop_without_env(self, monkeypatch):
        monkeypatch.delenv(METRICS_ENV, raising=False)
        monkeypatch.delenv("REPRO_OBS_PROFILE", raising=False)
        core = new_core()
        attach_core_observers(core)
        assert core.sampler is None and core.profiler is None

    def test_env_attaches_sampler(self, tmp_path, monkeypatch):
        path = tmp_path / "m.jsonl"
        monkeypatch.setenv(METRICS_ENV, str(path))
        monkeypatch.setenv(WINDOW_ENV, "750")
        core = new_core()
        attach_core_observers(core, {"kind": "solo"})
        assert isinstance(core.sampler, IntervalSampler)
        assert core.sampler.window_cycles == 750
        assert core.sampler.meta["kind"] == "solo"
        # The core's fetch policy is stamped into the metadata (fig12 runs
        # are otherwise indistinguishable from ICOUNT ones in the stream).
        assert core.sampler.meta["fetch_policy"] == "icount"

    def test_garbage_window_falls_back_to_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(METRICS_ENV, str(tmp_path / "m.jsonl"))
        monkeypatch.setenv(WINDOW_ENV, "soon")
        core = new_core()
        attach_core_observers(core)
        assert core.sampler.window_cycles == DEFAULT_WINDOW_CYCLES
