"""Interval sampling: per-window core signals as structured records.

:class:`IntervalSampler` attaches to a :class:`~repro.cpu.fast_core.FastCore`
(``core.sampler = IntervalSampler(...)``) and snapshots the measured phase
every ``window_cycles`` simulated cycles, emitting one :class:`WindowSample`
per window with the signals the paper's software monitor would watch:
per-thread UIPC, ROB/LSQ occupancy against the current limit registers,
the dispatch-stall breakdown, MSHR/MLP occupancy and branch/L1 miss rates.
The sampler only *reads* core state, so an attached sampler leaves cycles
and instruction counts bit-identical to an unobserved run; detached (the
default), the core pays a single ``is None`` check per loop iteration.
The closed loop's per-window service signals are the fleet's
(:mod:`repro.obs.fleet`).

``stretch-repro run --metrics FILE`` streams every window record as JSONL:
set :data:`METRICS_ENV` and the sampler attaches itself inside worker
processes too (see :func:`attach_core_observers`).
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import active_profiler

__all__ = [
    "METRICS_ENV",
    "WINDOW_ENV",
    "CHECK_ENV",
    "DEFAULT_WINDOW_CYCLES",
    "ThreadWindow",
    "WindowSample",
    "IntervalSampler",
    "JsonlSink",
    "attach_core_observers",
]

#: Environment variable holding the JSONL path for window samples.
METRICS_ENV = "REPRO_OBS_METRICS"
#: Environment variable overriding the sampling window, in cycles.
WINDOW_ENV = "REPRO_OBS_WINDOW"
#: Environment variable enabling per-cycle invariant checking (truthy value).
#: Mirrored from :data:`repro.check.invariants.CHECK_ENV`; kept literal here
#: so the obs layer needs no import from repro.check in the common case.
CHECK_ENV = "REPRO_CHECK"
DEFAULT_WINDOW_CYCLES = 2000


@dataclass(frozen=True)
class ThreadWindow:
    """One hardware thread's signals over one sampling window."""

    thread: int
    instructions: int
    uipc: float
    #: Usage / limit registers at the window boundary (point samples).
    rob_occupancy: int
    rob_limit: int
    lsq_occupancy: int
    lsq_limit: int
    #: Dispatch-stall breakdown over the window (stalled dispatch slots).
    stall_rob: int
    stall_lsq: int
    #: Outstanding data misses at the boundary / mean over the window.
    mshr_occupancy: int
    mlp: float
    branches: int
    branch_mispredicts: int
    branch_miss_rate: float
    loads: int
    l1d_misses: int
    l1d_miss_rate: float
    l1i_misses: int


@dataclass(frozen=True)
class WindowSample:
    """One sampling window of a :class:`FastCore` measured phase."""

    index: int
    start_cycle: int
    end_cycle: int
    threads: tuple[ThreadWindow, ...]

    @property
    def cycles(self) -> int:
        return self.end_cycle - self.start_cycle

    @property
    def total_uipc(self) -> float:
        return sum(t.uipc for t in self.threads)


class JsonlSink:
    """Append JSON records, one per line, to a file.

    Records are buffered and flushed in one append-mode write per
    :meth:`flush` call — on POSIX, single ``write()`` calls of line-sized
    payloads keep concurrent writers (engine pool workers) from
    interleaving mid-line.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._buffer: list[str] = []

    def write(self, record: dict) -> None:
        self._buffer.append(json.dumps(record))

    def flush(self) -> int:
        if not self._buffer:
            return 0
        payload = "\n".join(self._buffer) + "\n"
        count = len(self._buffer)
        self._buffer.clear()
        try:
            with open(self.path, "a") as handle:
                handle.write(payload)
        except OSError:
            return 0
        return count


class IntervalSampler:
    """Windowed sampling of an SMT core's measured phase.

    Attach before :meth:`FastCore.run`::

        core.sampler = IntervalSampler(window_cycles=2000)
        result = core.run(50_000)
        series = core.sampler.samples     # list[WindowSample]

    The core calls :meth:`begin` when its measured phase opens,
    :meth:`take` whenever the cycle counter crosses a window boundary and
    :meth:`finish` when the phase closes (flushing the final partial
    window).  ``sink`` receives one dict per window (tagged with ``meta``),
    ``registry`` gets ``core.window.uipc.t<N>`` time series.
    """

    def __init__(
        self,
        window_cycles: int = DEFAULT_WINDOW_CYCLES,
        sink: JsonlSink | None = None,
        meta: dict | None = None,
        registry: MetricsRegistry | None = None,
    ):
        if window_cycles < 1:
            raise ValueError("window_cycles must be positive")
        self.window_cycles = window_cycles
        self.sink = sink
        self.meta = dict(meta) if meta else {}
        self.registry = registry
        self.samples: list[WindowSample] = []
        self._start_cycle = 0
        self._prev_cycle = 0
        self._prev: list[dict] = []

    # -- core-facing protocol -------------------------------------------

    def begin(self, core) -> int:
        """Open the measured phase; returns the first window boundary."""
        self.samples = []
        self._start_cycle = core.cycle
        self._prev_cycle = core.cycle
        self._prev = [self._snapshot(core, t) for t in range(core.n_threads)]
        return core.cycle + self.window_cycles

    def take(self, core, cycle: int) -> int:
        """Emit the window ending at ``cycle``; returns the next boundary."""
        window_cycles = cycle - self._prev_cycle
        if window_cycles > 0:
            threads = []
            for t in range(core.n_threads):
                snap = self._snapshot(core, t)
                threads.append(self._delta(core, t, snap, cycle, window_cycles))
                self._prev[t] = snap
            sample = WindowSample(
                index=len(self.samples),
                start_cycle=self._prev_cycle - self._start_cycle,
                end_cycle=cycle - self._start_cycle,
                threads=tuple(threads),
            )
            self.samples.append(sample)
            self._prev_cycle = cycle
            if self.sink is not None:
                self.sink.write({"type": "core_window", **self.meta,
                                 **asdict(sample)})
            if self.registry is not None:
                for tw in sample.threads:
                    self.registry.series(
                        f"core.window.uipc.t{tw.thread}"
                    ).append(sample.end_cycle, tw.uipc)
        return cycle + self.window_cycles

    def finish(self, core) -> None:
        """Close the measured phase, emitting the final partial window."""
        self.take(core, core.cycle)
        if self.sink is not None:
            self.sink.flush()

    # -- snapshots -------------------------------------------------------

    @staticmethod
    def _snapshot(core, t: int) -> dict:
        ts = core._threads[t]
        h = core.hierarchy
        hist = core._mlp_hist[t]
        return {
            "committed": ts.committed,
            "stall_rob": ts.stall_rob,
            "stall_lsq": ts.stall_lsq,
            "branches": ts.branches,
            "mispredicts": ts.mispredicts,
            "loads": h.loads[t],
            "l1d_misses": h.l1d_misses[t],
            "l1i_misses": h.l1i_misses[t],
            "mlp_weight": sum(k * c for k, c in enumerate(hist)),
            "mlp_cycles": sum(hist),
        }

    def _delta(self, core, t: int, snap: dict, cycle: int,
               window_cycles: int) -> ThreadWindow:
        prev = self._prev[t]
        instructions = snap["committed"] - prev["committed"]
        branches = snap["branches"] - prev["branches"]
        mispredicts = snap["mispredicts"] - prev["mispredicts"]
        loads = snap["loads"] - prev["loads"]
        l1d = snap["l1d_misses"] - prev["l1d_misses"]
        mlp_cycles = snap["mlp_cycles"] - prev["mlp_cycles"]
        mlp_weight = snap["mlp_weight"] - prev["mlp_weight"]
        return ThreadWindow(
            thread=t,
            instructions=instructions,
            uipc=instructions / window_cycles,
            rob_occupancy=core.rob.usage(t),
            rob_limit=core.rob.limits[t],
            lsq_occupancy=core.lsq.usage(t),
            lsq_limit=core.lsq.limits[t],
            stall_rob=snap["stall_rob"] - prev["stall_rob"],
            stall_lsq=snap["stall_lsq"] - prev["stall_lsq"],
            mshr_occupancy=core.hierarchy.mshrs.occupancy(t, cycle),
            mlp=mlp_weight / mlp_cycles if mlp_cycles else 0.0,
            branches=branches,
            branch_mispredicts=mispredicts,
            branch_miss_rate=mispredicts / branches if branches else 0.0,
            loads=loads,
            l1d_misses=l1d,
            l1d_miss_rate=l1d / loads if loads else 0.0,
            l1i_misses=snap["l1i_misses"] - prev["l1i_misses"],
        )


def attach_core_observers(core, meta: dict | None = None) -> None:
    """Attach env-configured observability hooks to a fresh core.

    Called by the sampling entry points for every core they build; a no-op
    (a few dict lookups) unless ``REPRO_OBS_METRICS``, ``REPRO_OBS_PROFILE``
    and/or ``REPRO_CHECK`` are set — which is how ``stretch-repro run
    --metrics/--profile/--check`` reaches cores constructed inside engine
    worker processes, since children inherit the environment.
    """
    path = os.environ.get(METRICS_ENV)
    if path:
        try:
            window = int(os.environ.get(WINDOW_ENV, DEFAULT_WINDOW_CYCLES))
        except ValueError:
            window = DEFAULT_WINDOW_CYCLES
        tagged = dict(meta) if meta else {}
        policy = getattr(core, "policy", None)
        if policy is not None and hasattr(policy, "describe"):
            tagged.setdefault("fetch_policy", policy.describe())
        core.sampler = IntervalSampler(
            window_cycles=max(window, 1), sink=JsonlSink(path), meta=tagged
        )
    profiler = active_profiler()
    if profiler is not None:
        core.profiler = profiler
    if os.environ.get(CHECK_ENV, "").strip() not in ("", "0"):
        # Imported lazily: repro.check depends on repro.obs, so a module-level
        # import here would be circular, and the common (unchecked) path
        # should not pay for loading the checker at all.
        from repro.check.invariants import InvariantChecker
        from repro.obs.metrics import get_registry

        core.checker = InvariantChecker(registry=get_registry())
