"""Regression tests for the four latent timing-model bugs fixed together
with the introduction of the :mod:`repro.check` harness.

Each test encodes the *semantic* contract the bug violated, so it fails on
the pre-fix code and pins the fixed behavior:

1. falsy-zero event guards — an enabling event at cycle 0 is a real event;
2. commit arbitration follows the fetch policy's selection, not cycle parity;
3. idle fast-forward accounts MLP occupancy at event boundaries inside the
   gap, not by weighting the gap-start occupancy by the whole gap;
4. ``PartitionedResource.reset_stats`` rebases peaks to current usage.
"""

import numpy as np
import pytest

from repro.cpu.caches import MSHRFile
from repro.cpu.config import CoreConfig
from repro.cpu.fast_core import FastCore
from repro.cpu.isa import OpClass
from repro.cpu.metrics import MLP_BUCKETS
from repro.cpu.rob import PartitionedResource
from repro.cpu.trace import Trace


def alu_trace(n=64, name="alu") -> Trace:
    return Trace(
        name=name,
        op=np.full(n, OpClass.INT_ALU, dtype=np.uint8),
        dep1=np.zeros(n, dtype=np.int64),
        dep2=np.zeros(n, dtype=np.int64),
        pc=np.full(n, 0x1000, dtype=np.int64),
        addr=np.zeros(n, dtype=np.int64),
        taken=np.zeros(n, dtype=bool),
        target=np.zeros(n, dtype=np.int64),
        sid=np.zeros(n, dtype=np.int64),
    )


def _stall_frontends(core, until=10**9):
    """Park every front end so only manually injected state acts."""
    for ts in core._threads:
        ts.fe_stall_until = until


def _inject_inflight(core, thread, completion, is_mem=False):
    """Place one in-flight µop in the thread's ROB (and LSQ if memory)."""
    core.rob.allocate(thread)
    if is_mem:
        core.lsq.allocate(thread)
    core._threads[thread].rob_q.append((completion, is_mem))


class TestFalsyZeroEventGuard:
    """Bug 1: ``if next_event`` treated a cycle-0 event as "no event"."""

    def test_pending_event_at_cycle_zero_is_reported(self):
        core = FastCore(CoreConfig(), (alu_trace(), alu_trace(name="b")))
        _stall_frontends(core, until=0)
        _inject_inflight(core, 0, completion=0)
        # The contract the truthiness guard broke: a completion at cycle 0
        # must be reported as event 0, never conflated with "no event".
        assert core.pending_events(0) == [0]

    def test_pending_events_empty_when_idle(self):
        core = FastCore(CoreConfig(), (alu_trace(), alu_trace(name="b")))
        _stall_frontends(core, until=0)
        assert core.pending_events(0) == []

    def test_drain_commits_event_at_cycle_zero(self):
        core = FastCore(CoreConfig(), (alu_trace(), alu_trace(name="b")))
        _inject_inflight(core, 0, completion=0)
        core._drain()
        assert core._threads[0].committed == 1
        assert core.cycle == 0  # ready at cycle 0: no clock advance needed

    def test_fast_forward_from_cycle_zero(self):
        """Fast-forward across a gap whose bounding event is small and real."""
        core = FastCore(CoreConfig(), (alu_trace(), alu_trace(name="b")))
        _stall_frontends(core)
        _inject_inflight(core, 0, completion=3)
        core._simulate_until(1, max_cycles=100)
        assert core._threads[0].committed == 1
        assert core.cycle == 4  # jumped 0 -> 3, committed at 3, advanced once


class TestCommitArbitrationFollowsPolicy:
    """Bug 2: commit priority used ``cycle & 1`` instead of the policy."""

    def test_round_robin_selection_commits_first(self):
        # At cycle 0 RoundRobinPolicy orders (1, 0); the old parity rule
        # picked thread 0.  With width=1 only the selected thread commits.
        config = CoreConfig(width=1, fetch_policy="round_robin")
        core = FastCore(config, (alu_trace(), alu_trace(name="b")))
        _stall_frontends(core)
        _inject_inflight(core, 0, completion=0)
        _inject_inflight(core, 1, completion=0)
        core._simulate_until(1, max_cycles=10)
        assert core._threads[1].committed == 1
        assert core._threads[0].committed == 0

    def test_icount_selection_commits_first(self):
        # ICOUNT prefers the thread with fewer in-flight µops: load thread 0
        # with more entries and let both heads be ready; with width=1 the
        # less-occupied thread 1 must commit first.
        config = CoreConfig(width=1)
        core = FastCore(config, (alu_trace(), alu_trace(name="b")))
        _stall_frontends(core)
        for __ in range(3):
            _inject_inflight(core, 0, completion=0)
        _inject_inflight(core, 1, completion=0)
        core._simulate_until(1, max_cycles=10)
        assert core._threads[1].committed == 1
        assert core._threads[0].committed == 0


class TestMlpGapAccounting:
    """Bug 3: gap-start MSHR occupancy was weighted by the whole gap."""

    def test_fill_retiring_inside_gap_splits_accounting(self):
        core = FastCore(CoreConfig(), (alu_trace(), alu_trace(name="b")))
        _stall_frontends(core)
        # One data miss in flight, filling at cycle 30; the only enabling
        # event is an in-flight µop completing at 32, so the core
        # fast-forwards 0 -> 32 across the fill boundary.
        core.hierarchy.mshrs.acquire(0, block=0x99, now=0, latency=30)
        _inject_inflight(core, 0, completion=32, is_mem=True)
        core._simulate_until(1, max_cycles=100)
        hist = core._mlp_hist[0]
        # Cycles 0-29 see one miss in flight, 30-31 none; cycle 32 (the
        # commit cycle) samples occupancy 0.  Pre-fix the whole 32-cycle gap
        # was booked at occupancy 1.
        assert hist[1] == 30
        assert hist[0] == 3
        assert sum(hist) == core.cycle

    def test_occupancy_segments_multi_fill(self):
        mshrs = MSHRFile(total=10, per_thread=5, n_threads=2)
        mshrs.acquire(0, block=1, now=0, latency=5)   # fills at 5
        mshrs.acquire(0, block=2, now=0, latency=12)  # fills at 12
        segments = mshrs.occupancy_segments(0, 0, 20)
        assert segments == [(5, 2), (7, 1), (8, 0)]
        assert sum(span for span, __ in segments) == 20

    def test_occupancy_segments_match_per_cycle_occupancy(self):
        mshrs = MSHRFile(total=10, per_thread=5, n_threads=2)
        for block, latency in ((1, 3), (2, 9), (3, 9), (4, 17)):
            mshrs.acquire(0, block, now=0, latency=latency)
        # Reconstruct the cycle-by-cycle histogram from segments and compare
        # against direct sampling on an identical MSHR file.
        twin = MSHRFile(total=10, per_thread=5, n_threads=2)
        for block, latency in ((1, 3), (2, 9), (3, 9), (4, 17)):
            twin.acquire(0, block, now=0, latency=latency)
        from_segments = [0] * (MLP_BUCKETS + 1)
        for span, occ in mshrs.occupancy_segments(0, 0, 25):
            from_segments[min(occ, MLP_BUCKETS)] += span
        sampled = [0] * (MLP_BUCKETS + 1)
        for cycle in range(25):
            sampled[min(twin.occupancy(0, cycle), MLP_BUCKETS)] += 1
        assert from_segments == sampled


class TestPeakUsageReset:
    """Bug 4: ``reset_stats`` zeroed peaks below live occupancy."""

    def test_reset_rebases_peaks_to_current_usage(self):
        rob = PartitionedResource("ROB", 8, (4, 4))
        for __ in range(3):
            rob.allocate(0)
        rob.allocate(1)
        rob.release(1)
        rob.reset_stats()
        assert rob.peak_usage == [3, 0]

    def test_peak_never_below_usage_after_reset(self):
        rob = PartitionedResource("ROB", 8, (4, 4))
        rob.allocate(0)
        rob.reset_stats()
        assert rob.peak_usage[0] >= rob.usage(0)

    def test_core_measurement_window_peak_covers_open_window(self):
        """A measurement window opened mid-flight must see current occupancy."""
        core = FastCore(CoreConfig(), (alu_trace(n=512), alu_trace(n=512, name="b")))
        _stall_frontends(core)
        _inject_inflight(core, 0, completion=10**8)
        core._reset_measurement()
        assert core.rob.peak_usage[0] >= 1
