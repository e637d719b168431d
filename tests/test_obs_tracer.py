"""Tests for the span tracer (repro.obs.tracer) and its two producers."""

import json

import pytest

from repro.cpu.config import CoreConfig
from repro.cpu.fast_core import FastCore
from repro.cpu.pipeview import record_pipeline
from repro.engine.executor import EngineConfig, ExecutionEngine
from repro.engine.store import ResultStore
from repro.obs.tracer import SpanTracer, pipeline_trace
from repro.workloads.generator import generate_trace
from repro.workloads.registry import get_profile

#: The engine job-lifecycle phases the ISSUE requires spans for.
ENGINE_PHASES = {
    "engine.dedupe",
    "engine.cache_lookup",
    "engine.queue",
    "engine.execute",
    "engine.store_write",
}


class FakeJob:
    def __init__(self, n: int):
        self.n = n
        self.key = f"{n:02d}" + "0" * 62

    def run(self):
        return (float(self.n),)


class TestSpanTracer:
    def test_valid_chrome_trace_json(self, tmp_path):
        tracer = SpanTracer(process_name="test")
        start = tracer.now_us()
        tracer.complete("phase", start, 12.5, args={"k": 1})
        tracer.instant("marker")
        path = tmp_path / "out.trace.json"
        count = tracer.write(path)
        trace = json.loads(path.read_text())
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        assert len(trace["traceEvents"]) == count == 3
        span = next(e for e in trace["traceEvents"] if e.get("ph") == "X")
        assert span["dur"] == 12.5 and span["args"] == {"k": 1}
        instant = next(e for e in trace["traceEvents"] if e.get("ph") == "i")
        assert instant["s"] == "t"

    def test_span_context_manager(self):
        tracer = SpanTracer()
        with tracer.span("work", tid=3):
            pass
        assert tracer.span_names() == {"work"}
        event = [e for e in tracer.events if e.get("ph") == "X"][0]
        assert event["tid"] == 3
        assert event["dur"] > 0

    def test_zero_duration_clamped(self):
        tracer = SpanTracer()
        tracer.complete("p", 5.0, 0.0)
        assert tracer.events[-1]["dur"] == 0.001

    def test_clock_is_monotonic(self):
        tracer = SpanTracer()
        assert tracer.now_us() <= tracer.now_us()


class TestEngineLifecycleSpans:
    def run_traced(self, workers: int):
        tracer = SpanTracer()
        engine = ExecutionEngine(EngineConfig(workers=workers))
        store = ResultStore(None)
        report = engine.run_jobs(
            [FakeJob(i) for i in range(4)], store=store, tracer=tracer
        )
        return tracer, store, report

    def test_serial_run_covers_every_phase(self):
        tracer, __, report = self.run_traced(workers=1)
        assert report.stats.executed == 4
        assert ENGINE_PHASES <= tracer.span_names()
        for phase in ENGINE_PHASES:
            count = sum(
                1 for e in tracer.events
                if e.get("ph") == "X" and e["name"] == phase
            )
            assert count >= 1, phase

    def test_pool_run_covers_every_phase(self):
        tracer, __, report = self.run_traced(workers=2)
        assert report.stats.executed == 4
        assert ENGINE_PHASES <= tracer.span_names()
        lanes = {
            e["tid"] for e in tracer.events
            if e.get("ph") == "X" and e["name"] == "engine.execute"
        }
        assert lanes <= {1, 2} and lanes

    def test_cache_hits_emit_instants_not_executes(self):
        tracer = SpanTracer()
        engine = ExecutionEngine(EngineConfig(workers=1))
        store = ResultStore(None)
        jobs = [FakeJob(i) for i in range(3)]
        engine.run_jobs(jobs, store=store)
        warm = engine.run_jobs(jobs, store=store, tracer=tracer)
        assert warm.stats.executed == 0
        assert "engine.execute" not in tracer.span_names()
        hits = [e for e in tracer.events if e["name"] == "engine.cache_hit"]
        assert len(hits) == 3

    def test_job_telemetry_recorded(self):
        __, store, __ = self.run_traced(workers=1)
        assert len(store.job_telemetry) == 4
        record = next(iter(store.job_telemetry.values()))
        assert record["mode"] == "serial"
        assert record["tries"] == 1
        assert record["seconds"] >= 0

    def test_untraced_run_emits_nothing(self):
        engine = ExecutionEngine(EngineConfig(workers=1))
        store = ResultStore(None)
        report = engine.run_jobs([FakeJob(0)], store=store)
        assert report.stats.executed == 1  # no tracer, no crash


class TestPipelineBridge:
    def test_pipe_events_become_spans(self):
        ws = generate_trace(get_profile("web_search"), 5000, seed=2)
        zm = generate_trace(get_profile("zeusmp"), 5000, seed=2)
        core = FastCore(CoreConfig(), (ws, zm))
        events = record_pipeline(core, 400)
        tracer = pipeline_trace(events)
        spans = [e for e in tracer.events if e.get("ph") == "X"]
        assert len(spans) == len(events)
        assert {e["tid"] for e in spans} == {0, 1}
        lane_names = {
            e["args"]["name"] for e in tracer.events
            if e["name"] == "thread_name"
        }
        assert lane_names == {"hw thread 0", "hw thread 1"}
        for span, event in zip(spans, events):
            assert span["ts"] == event.dispatch
            assert span["args"]["seq"] == event.seq
            assert span["cat"] == "pipeline"

    def test_accepts_raw_event_log_tuples(self):
        ws = generate_trace(get_profile("web_search"), 5000, seed=2)
        core = FastCore(CoreConfig().single_thread(192), (ws,))
        core.event_log = []
        try:
            core.run(300)
            raw = list(core.event_log)
        finally:
            core.event_log = None
        tracer = pipeline_trace(raw, us_per_cycle=2.0)
        spans = [e for e in tracer.events if e.get("ph") == "X"]
        assert len(spans) == len(raw)
        assert spans[0]["ts"] == raw[0][4] * 2.0

    def test_feeds_existing_tracer(self):
        tracer = SpanTracer(process_name="mine")
        out = pipeline_trace([], tracer=tracer)
        assert out is tracer
