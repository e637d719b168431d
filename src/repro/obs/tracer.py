"""Span tracer emitting Chrome trace-event JSON (Perfetto-viewable).

:class:`SpanTracer` records *complete* spans (``ph: "X"``) and *instant*
events (``ph: "i"``) in the Trace Event Format understood by
``chrome://tracing`` and https://ui.perfetto.dev.  Two producers feed it:

* the execution engine (:mod:`repro.engine.executor`) traces the job
  lifecycle — submit → dedupe → queue → worker execute → store write /
  cache hit / retry — one lane (``tid``) per pool worker;
* :func:`pipeline_trace` bridges the SMT core's per-µop
  :class:`~repro.cpu.pipeview.PipeEvent` stream into the same format, one
  lane per hardware thread, so a colocated pair's pipeline interleaving
  can be inspected visually (1 simulated cycle is rendered as 1µs).

Timestamps are microseconds relative to tracer creation, as the format
requires.  :meth:`SpanTracer.write` produces a JSON object file
(``{"traceEvents": [...]}``), the most widely accepted container.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable

__all__ = ["SpanTracer", "pipeline_trace"]


class SpanTracer:
    """Collects trace events; thread lanes are caller-assigned ``tid``s."""

    def __init__(self, process_name: str = "stretch-repro", pid: int = 1):
        self.pid = pid
        self.events: list[dict] = []
        self._t0 = time.perf_counter()
        # Process metadata gives Perfetto a readable track group title.
        self.events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": process_name},
        })

    # -- clock ----------------------------------------------------------

    def now_us(self) -> float:
        """Microseconds since tracer creation (the trace's time base)."""
        return (time.perf_counter() - self._t0) * 1e6

    # -- emitters -------------------------------------------------------

    def complete(
        self,
        name: str,
        start_us: float,
        duration_us: float,
        cat: str = "engine",
        tid: int = 0,
        args: dict | None = None,
    ) -> None:
        """Record a finished span (``ph: "X"``)."""
        event = {
            "name": name, "cat": cat, "ph": "X", "pid": self.pid, "tid": tid,
            "ts": round(start_us, 3), "dur": round(max(duration_us, 0.001), 3),
        }
        if args:
            event["args"] = args
        self.events.append(event)

    def instant(
        self, name: str, cat: str = "engine", tid: int = 0,
        args: dict | None = None,
    ) -> None:
        """Record a zero-duration marker (``ph: "i"``, thread scope)."""
        event = {
            "name": name, "cat": cat, "ph": "i", "s": "t",
            "pid": self.pid, "tid": tid, "ts": round(self.now_us(), 3),
        }
        if args:
            event["args"] = args
        self.events.append(event)

    @contextmanager
    def span(self, name: str, cat: str = "engine", tid: int = 0,
             args: dict | None = None):
        """Scoped span: times the ``with`` body as one complete event."""
        start = self.now_us()
        try:
            yield
        finally:
            self.complete(name, start, self.now_us() - start, cat, tid, args)

    def thread_name(self, tid: int, name: str) -> None:
        """Label a lane (``tid``) in the viewer."""
        self.events.append({
            "name": "thread_name", "ph": "M", "pid": self.pid, "tid": tid,
            "args": {"name": name},
        })

    # -- output ---------------------------------------------------------

    def span_names(self) -> set[str]:
        """Distinct names of recorded spans (``ph: "X"`` events only)."""
        return {e["name"] for e in self.events if e.get("ph") == "X"}

    def to_chrome(self) -> dict:
        """The Trace Event Format JSON object."""
        return {"traceEvents": list(self.events), "displayTimeUnit": "ms"}

    def write(self, path: str | Path) -> int:
        """Write the trace file; returns the number of events written."""
        Path(path).write_text(json.dumps(self.to_chrome()))
        return len(self.events)


def pipeline_trace(
    events: Iterable,
    tracer: SpanTracer | None = None,
    us_per_cycle: float = 1.0,
) -> SpanTracer:
    """Bridge a :class:`~repro.cpu.pipeview.PipeEvent` stream into a trace.

    Each dispatched µop becomes one complete span on its hardware thread's
    lane: the span opens at dispatch and closes at completion, with the
    operand-wait portion (dispatch → ready) reported in ``args.wait``.
    Accepts :class:`PipeEvent` objects or the raw ``FastCore.event_log``
    tuples ``(thread, seq, op, pc, dispatch, ready, completion)``.
    """
    from repro.cpu.isa import OpClass

    if tracer is None:
        tracer = SpanTracer(process_name="smt-core pipeline")
    lanes: set[int] = set()
    for event in events:
        if isinstance(event, tuple):
            thread, seq, op, pc, dispatch, ready, completion = event
        else:
            thread, seq, op, pc = event.thread, event.seq, event.op, event.pc
            dispatch, ready, completion = event.dispatch, event.ready, event.completion
        op_name = op.name if isinstance(op, OpClass) else OpClass(op).name
        if thread not in lanes:
            lanes.add(thread)
            tracer.thread_name(thread, f"hw thread {thread}")
        tracer.complete(
            op_name,
            start_us=dispatch * us_per_cycle,
            duration_us=max(completion - dispatch, 1) * us_per_cycle,
            cat="pipeline",
            tid=thread,
            args={"seq": seq, "pc": pc, "wait": max(ready - dispatch, 0)},
        )
    return tracer
