"""Pipeline waterfall views — a debugging lens on the timing model.

Records per-µop dispatch/ready/completion events from a :class:`FastCore`
run and renders them as a monospace waterfall, one µop per row:

.. code-block:: text

    t0 #102 LOAD   |   D--------------------------C      |
    t1 #377 INT_ALU|    D.C                              |

``D`` marks dispatch, ``.``/``-`` the wait-for-operands and execution span,
``C`` completion (``*`` when both collapse onto one column at small
scales).  Reading a waterfall makes window stalls visible: under a
small ROB partition a long `D----...----C` load is followed by rows that
dispatch only after it completes — the mechanism behind Figure 6.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.isa import OpClass
from repro.cpu.fast_core import FastCore

__all__ = ["PipeEvent", "record_pipeline", "render_waterfall"]


@dataclass(frozen=True)
class PipeEvent:
    """One dispatched µop's timing."""

    thread: int
    seq: int
    op: OpClass
    pc: int
    dispatch: int
    ready: int
    completion: int

    @property
    def latency(self) -> int:
        return self.completion - self.dispatch


def record_pipeline(
    core: FastCore, instructions: int, warmup_instructions: int = 0
) -> list[PipeEvent]:
    """Run ``core`` while recording every dispatched µop's timing."""
    core.event_log = []
    try:
        core.run(instructions, warmup_instructions=warmup_instructions,
                 require_all_threads=True)
        events = [
            PipeEvent(thread=t, seq=seq, op=OpClass(op), pc=pc,
                      dispatch=dispatch, ready=ready, completion=completion)
            for t, seq, op, pc, dispatch, ready, completion in core.event_log
        ]
    finally:
        core.event_log = None
    return events


def render_waterfall(
    events: list[PipeEvent],
    max_rows: int = 40,
    width: int = 72,
) -> str:
    """Render up to ``max_rows`` events as a cycle-aligned waterfall."""
    if not events:
        raise ValueError("no pipeline events to render")
    rows = sorted(events, key=lambda e: (e.dispatch, e.thread, e.seq))[:max_rows]
    t0 = min(e.dispatch for e in rows)
    t1 = max(e.completion for e in rows)
    span = max(t1 - t0, 1)
    scale = min(1.0, (width - 1) / span)

    def col(cycle: int) -> int:
        return min(int((cycle - t0) * scale), width - 1)

    lines = [f"cycles {t0}..{t1} ({span} cycles, {scale:.2f} cols/cycle)"]
    for e in rows:
        canvas = [" "] * width
        d, r, c = col(e.dispatch), col(e.ready), col(e.completion)
        for x in range(d, c + 1):
            canvas[x] = "-"
        for x in range(d, min(r, c) + 1):
            canvas[x] = "."
        canvas[d] = "D"
        canvas[c] = "C"
        if d == c:
            # Both markers land on one column at collapsed scale; a plain
            # assignment order would silently hide the dispatch marker.
            canvas[d] = "*"
        lines.append(
            f"t{e.thread} #{e.seq:<6} {e.op.name:<8}|{''.join(canvas)}|"
        )
    return "\n".join(lines)
