"""Tests for the pipeline waterfall tracer."""

import pytest

from repro.cpu.config import CoreConfig
from repro.cpu.fast_core import FastCore
from repro.cpu.isa import OpClass
from repro.cpu.pipeview import PipeEvent, record_pipeline, render_waterfall
from repro.workloads.generator import generate_trace
from repro.workloads.registry import get_profile


def new_core(two_threads=False) -> FastCore:
    ws = generate_trace(get_profile("web_search"), 6000, seed=2)
    if two_threads:
        zm = generate_trace(get_profile("zeusmp"), 6000, seed=2)
        return FastCore(CoreConfig(), (ws, zm))
    return FastCore(CoreConfig().single_thread(192), (ws,))


class TestRecord:
    def test_records_every_dispatch(self):
        core = new_core()
        events = record_pipeline(core, 500)
        assert len(events) >= 500
        assert all(isinstance(e, PipeEvent) for e in events)

    def test_timing_invariants(self):
        events = record_pipeline(new_core(), 500)
        for e in events:
            assert e.ready >= e.dispatch
            assert e.completion > e.dispatch or e.op is OpClass.LOAD
            assert e.latency >= 0

    def test_two_threads_interleave(self):
        events = record_pipeline(new_core(two_threads=True), 400)
        assert {e.thread for e in events} == {0, 1}

    def test_loads_have_memory_latencies(self):
        events = record_pipeline(new_core(), 2000)
        load_latencies = [e.latency for e in events if e.op is OpClass.LOAD]
        assert max(load_latencies) > 20  # at least one miss in the window

    def test_log_detached_after_recording(self):
        core = new_core()
        record_pipeline(core, 200)
        assert core.event_log is None

    def test_sequences_monotone_per_thread(self):
        events = record_pipeline(new_core(), 500)
        seqs = [e.seq for e in events if e.thread == 0]
        assert seqs == sorted(seqs)


class TestRender:
    def test_waterfall_contains_markers(self):
        events = record_pipeline(new_core(), 300)
        text = render_waterfall(events, max_rows=20)
        assert "D" in text and "C" in text
        assert text.count("|") >= 40  # two per row

    def test_row_cap(self):
        events = record_pipeline(new_core(), 300)
        text = render_waterfall(events, max_rows=10)
        assert len(text.splitlines()) == 11  # header + 10 rows

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            render_waterfall([])

    def test_collapsed_scale_keeps_dispatch_visible(self):
        # A short op inside a long window collapses its D and C onto one
        # column; the combined glyph must appear instead of C silently
        # overwriting D.
        events = [
            PipeEvent(thread=0, seq=0, op=OpClass.LOAD, pc=0,
                      dispatch=0, ready=0, completion=10_000),
            PipeEvent(thread=0, seq=1, op=OpClass.INT_ALU, pc=4,
                      dispatch=5_000, ready=5_000, completion=5_001),
        ]
        text = render_waterfall(events, width=40)
        short_row = text.splitlines()[2]
        assert "*" in short_row
        assert "C" not in short_row and "D" not in short_row

    def test_distinct_columns_keep_both_markers(self):
        events = [
            PipeEvent(thread=0, seq=0, op=OpClass.LOAD, pc=0,
                      dispatch=0, ready=2, completion=30),
        ]
        row = render_waterfall(events, width=40).splitlines()[1]
        assert "D" in row and "C" in row and "*" not in row
