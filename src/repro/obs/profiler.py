"""Lightweight section profiler: scoped timers and a self-time table.

The profiler answers "where does the wall time go" for the simulator hot
loops (fetch arbitration, dispatch, completion wakeup, commit) and the
engine phases (dedupe, cache lookup, execute, store write).  Sections are
flat named accumulators — no call-stack reconstruction — because the code
under measurement is a small set of known hot regions, not arbitrary user
code.

Two usage styles:

* :meth:`Profiler.section` — a context manager for coarse regions
  (one engine phase, one experiment);
* :meth:`Profiler.add` — direct accumulation for hot loops that batch
  ``perf_counter`` deltas in local floats and flush once at the end
  (what :class:`~repro.cpu.fast_core.FastCore` does, so the per-iteration
  cost with profiling *disabled* is one false branch per phase).

Profiling is opt-in per process: ``stretch-repro run --profile`` enables
the process-wide profiler, exported to engine workers via the
``REPRO_OBS_PROFILE`` environment variable.  A pool worker returns the
sections it recorded for each job together with the job's values, and
the parent's :class:`~repro.engine.executor.ExecutionEngine` merges them
into its own table, so ``--profile --jobs N`` reports the simulator
sections of every job, wherever it ran.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

__all__ = [
    "PROFILE_ENV",
    "Profiler",
    "active_profiler",
    "enable_profiling",
    "disable_profiling",
]

#: Environment flag that turns on core/engine profiling in child processes.
PROFILE_ENV = "REPRO_OBS_PROFILE"


class Profiler:
    """Named wall-time accumulators with call counts."""

    def __init__(self):
        #: {section name: [total seconds, calls]}
        self._sections: dict[str, list] = {}

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        """Accumulate ``seconds`` of self-time (batched hot-loop flush)."""
        entry = self._sections.get(name)
        if entry is None:
            self._sections[name] = [seconds, calls]
        else:
            entry[0] += seconds
            entry[1] += calls

    @contextmanager
    def section(self, name: str):
        """Scoped timer: ``with profiler.section("engine.execute"): ...``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def seconds(self, name: str) -> float:
        entry = self._sections.get(name)
        return entry[0] if entry else 0.0

    def calls(self, name: str) -> int:
        entry = self._sections.get(name)
        return entry[1] if entry else 0

    def merge(self, other: "Profiler") -> None:
        """Fold another profiler's sections into this one."""
        for name, (seconds, calls) in other._sections.items():
            self.add(name, seconds, calls)

    def as_dict(self) -> dict[str, dict]:
        return {
            name: {"seconds": entry[0], "calls": entry[1]}
            for name, entry in sorted(self._sections.items())
        }

    def self_time_table(self) -> str:
        """Render sections as a monospace self-time table, hottest first."""
        from repro.util.tables import format_table

        if not self._sections:
            return "profile: no sections recorded"
        total = sum(entry[0] for entry in self._sections.values())
        rows = []
        for name, (seconds, calls) in sorted(
            self._sections.items(), key=lambda kv: -kv[1][0]
        ):
            share = seconds / total if total > 0 else 0.0
            per_call = seconds / calls * 1e6 if calls else 0.0
            rows.append([name, calls, f"{seconds:.3f}s", f"{per_call:.1f}µs",
                         f"{share:.1%}"])
        return format_table(
            ["section", "calls", "self time", "per call", "share"],
            rows, title="Self-time profile",
        )

    def reset(self) -> None:
        self._sections.clear()


_active: Profiler | None = None


def active_profiler() -> Profiler | None:
    """The process-wide profiler, or None when profiling is off.

    A child process whose environment carries ``REPRO_OBS_PROFILE`` creates
    its own profiler on first use, so instrumented code behaves uniformly
    on workers (the engine ships their per-job sections back).
    """
    global _active
    if _active is None and os.environ.get(PROFILE_ENV):
        _active = Profiler()
    return _active


def enable_profiling() -> Profiler:
    """Turn on process-wide profiling (and flag it for child processes)."""
    global _active
    if _active is None:
        _active = Profiler()
    os.environ[PROFILE_ENV] = "1"
    return _active


def disable_profiling() -> None:
    """Turn profiling off and drop the active profiler."""
    global _active
    _active = None
    os.environ.pop(PROFILE_ENV, None)
