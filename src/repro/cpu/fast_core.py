"""Dual-thread SMT out-of-order core timing simulator (:class:`FastCore`).

Implements the simulated core of the paper's §V-A:

* every cycle, **thread-selection logic** picks which thread fetches /
  decodes / dispatches, using ICOUNT by default; if the selected thread
  cannot fill the core width, the core switches to the other thread;
* dispatch allocates into the per-thread **ROB and LSQ partitions**
  (limit/usage registers — the structures Stretch reprograms) and is blocked
  when a partition, the MSHR quota, or a functional-unit port is exhausted;
* instruction **completion** is dataflow-driven: ready time is the max of the
  producers' completion times; memory latency comes from the shared cache
  hierarchy; branches resolve at execute and a misprediction redirects the
  thread's front end after the 12-cycle flush penalty;
* **commit** retires up to 6 µops per cycle in order, round-robin between
  threads (the selected thread commits first, the other takes leftover
  bandwidth), freeing ROB/LSQ entries.  The fetch policy makes one selection
  per cycle that governs both commit priority and dispatch-slot ownership.

The model is cycle-approximate rather than cycle-accurate (DESIGN.md §4):
issue-queue scheduling is folded into the dataflow ready times, and
functional-unit contention is enforced at dispatch granularity.

The loop is organized to skip work a cycle-by-cycle scheduler would repeat:

* **Next-event horizon.** The loop tracks the earliest enabling event
  across both threads — ROB-head completion times, front-end refills
  (``fe_stall_until``), wrong-path squash resolutions (``squash_at``) and
  sampler window edges (:meth:`FastCore.pending_events`) — and jumps the
  clock straight to it whenever no dispatch is possible, instead of
  re-running idle cycles.  It also **parks** after commit-only cycles:
  when µops retired but no thread could dispatch and commit bandwidth was
  not exhausted, every cycle until the next event is provably identical,
  so the clock jumps there directly.
* **Batched gap accounting.** Cycles inside a jump are accounted in closed
  form: the MLP histogram is rebuilt from the piecewise-constant
  :meth:`~repro.cpu.caches.MSHRFile.occupancy_segments` spans (splitting at
  every fill that retires inside the gap), and dispatch-stall counters
  accrue once per skipped cycle for threads pinned on a full ROB/LSQ
  partition — exactly what a cycle-by-cycle loop would have recorded.
* **Inlined commit/dispatch.** Inside each stepped cycle the ROB/LSQ
  limit-register checks, trace-cursor advance, ring-buffer dataflow
  lookups, ICOUNT/round-robin/ratio thread selection, the L1-D/L1-I hit
  paths (including LLC fills, stride-prefetcher training and the MSHR
  allocate/coalesce fast path) and MSHR occupancy sampling are all inlined;
  the loop holds the usage registers and cursor positions in locals.
* **Segments between observation points.** The loop runs in segments:
  each reads the per-thread state from the objects once at its start and
  writes it back once at its end, where the invariant checker and the
  interval sampler's window edge observe it, the ``max_cycles`` deadline
  is tested and the loop exits.  Detached observers leave one segment per
  :meth:`FastCore._simulate_until` call; an attached checker ends one
  after every loop iteration.

The contract — enforced by the two-way sweep in
:mod:`repro.check.differential` — is **bit-identical**
:class:`~repro.cpu.metrics.SimulationResult`\\ s with the unoptimized
per-cycle :class:`~repro.check.reference.ReferenceCore`: every counter,
cycle count and histogram bucket.  Subdividing an idle gap is
timing-neutral (re-attempting dispatch mid-gap reproduces the decision
made at the gap start, because no state changes between events), which is
why the loop may stop at sampler window edges without perturbing results.

With a :class:`~repro.obs.profiler.Profiler` attached, the loop times its
own five phases (``sim.wakeup_squash``, ``sim.fetch_arbitration``,
``sim.commit``, ``sim.dispatch``, ``sim.clock_advance``) with chained
``perf_counter`` stamps accumulated in local floats and flushed once per
:meth:`FastCore._simulate_until`; detached, each phase boundary costs one
false branch.  Results are bit-identical either way.

The loop is written once per thread.  It keeps each thread's state in
its own fast locals (``ru0``/``ru1``, ``infl0``/``infl1``, ...), so each
per-thread block runs once for thread 0 and once for thread 1.  The
module holds the function's text (``_LOOP``), in which a line such as
``{commit:1}`` includes a block for one thread, and each block once
(``_BLOCKS``), with ``{t}`` for its thread and ``{o}`` for the sibling.
At import, :func:`_expand` substitutes the placeholders with
``str.replace``; the expanded text is compiled once, installed as
``FastCore._simulate_until`` and registered with :mod:`linecache`, so
tracebacks, profilers and :func:`inspect.getsource` show the lines that
run.  A new per-thread counter is therefore one line in the ``read`` and
``writeback`` blocks plus its updates, each written once.  The expanded
function must keep a bytecode contract (``tests/test_fast_core.py``): no
cell variables, and the hot locals below slot 256, past which CPython
adds an ``EXTENDED_ARG`` to every access.
"""

from __future__ import annotations

import linecache
import re
import textwrap
from collections import deque
from time import perf_counter

from repro.cpu.branch import HybridBranchPredictor
from repro.cpu.config import CoreConfig, PartitionPolicy
from repro.cpu.fetch import (
    ICountPolicy,
    RoundRobinPolicy,
    StaticRatioPolicy,
    make_fetch_policy,
)
from repro.cpu.isa import EXEC_LATENCY, OpClass
from repro.cpu.metrics import MLP_BUCKETS, SimulationResult, ThreadResult
from repro.cpu.prefetcher import _Entry as _PFEntry
from repro.cpu.rob import PartitionedResource
from repro.cpu.trace import Trace, TraceCursor
from repro.cpu.uncore import _THREAD_TAG_SHIFT, MemoryHierarchy

__all__ = ["FastCore"]

_RING_SIZE = 256  # power of two >= MAX_DEP_DISTANCE
_RING_MASK = _RING_SIZE - 1

_OP_LOAD = int(OpClass.LOAD)
_OP_STORE = int(OpClass.STORE)
_OP_BRANCH = int(OpClass.BRANCH)
_OP_INT_MUL = int(OpClass.INT_MUL)
_OP_FP = int(OpClass.FP)

_LAT_ALU = EXEC_LATENCY[OpClass.INT_ALU]
_LAT_MUL = EXEC_LATENCY[OpClass.INT_MUL]
_LAT_FP = EXEC_LATENCY[OpClass.FP]
_LAT_STORE = EXEC_LATENCY[OpClass.STORE]
_LAT_BRANCH = EXEC_LATENCY[OpClass.BRANCH]


class _ThreadState:
    """Private per-thread microarchitectural state."""

    __slots__ = (
        "cursor", "ring", "seq", "rob_q", "fe_stall_until", "last_fetch_block",
        "committed", "branches", "mispredicts", "stall_rob", "stall_lsq",
        "ghosts", "squash_at",
    )

    def __init__(self, cursor: TraceCursor):
        self.cursor = cursor
        self.ring = [0] * _RING_SIZE
        self.seq = 0
        self.rob_q: deque[tuple[int, bool]] = deque()
        self.fe_stall_until = 0
        self.last_fetch_block = -1
        self.committed = 0
        self.branches = 0
        self.mispredicts = 0
        self.stall_rob = 0
        self.stall_lsq = 0
        # Wrong-path state: ghost µops dispatched past an unresolved
        # mispredicted branch occupy ROB entries until squashed at
        # resolution (squash_at).  This is what lets a miss-bound thread
        # clog a dynamically shared ROB (paper Fig. 11).
        self.ghosts = 0
        self.squash_at = 0

    def reset_stats(self) -> None:
        self.committed = 0
        self.branches = 0
        self.mispredicts = 0
        self.stall_rob = 0
        self.stall_lsq = 0


class FastCore:
    """A dual-thread (or single-thread) SMT core bound to workload traces."""

    def __init__(self, config: CoreConfig, traces: tuple[Trace, ...]):
        if not 1 <= len(traces) <= 2:
            raise ValueError("FastCore supports one or two hardware threads")
        self.config = config
        self.n_threads = len(traces)
        self.traces = traces
        self._threads = [_ThreadState(TraceCursor(t)) for t in traces]

        rob_limits, lsq_limits = self._effective_limits(config)
        self.rob = PartitionedResource("ROB", config.rob_entries, rob_limits)
        self.lsq = PartitionedResource("LSQ", config.lsq_entries, lsq_limits)
        self.hierarchy = MemoryHierarchy(config, n_threads=max(self.n_threads, 2))
        self.predictor = HybridBranchPredictor(
            config.branch, n_threads=max(self.n_threads, 2), private=config.private_bp
        )
        self.policy = make_fetch_policy(config.fetch_policy, config.fetch_ratio)
        self.cycle = 0
        self._mlp_hist = [[0] * (MLP_BUCKETS + 1) for _ in range(self.n_threads)]
        self.partition_switches = 0
        #: When set to a list, every dispatched µop appends
        #: ``(thread, seq, op, pc, dispatch, ready, completion)`` — consumed
        #: by :mod:`repro.cpu.pipeview` for waterfall rendering.
        self.event_log: list[tuple[int, int, int, int, int, int, int]] | None = None
        #: When set to a list, every multi-cycle clock jump appends
        #: ``(from_cycle, to_cycle, pending_events)`` — consumed by the
        #: event-horizon property tests; ``None`` (default) costs one
        #: ``is None`` test per jump.
        self.jump_log: list[tuple[int, int, tuple[int, ...]]] | None = None
        #: Optional :class:`repro.obs.sampler.IntervalSampler`: when set,
        #: the measured phase emits per-window signal samples (UIPC,
        #: occupancies, stall/miss breakdowns).  Detached by default — the
        #: hot loop then pays one ``is None`` check per loop iteration.
        self.sampler = None
        #: Optional :class:`repro.obs.profiler.Profiler`: when set, the
        #: simulation loop accumulates per-phase self-time (wakeup/squash,
        #: fetch arbitration, commit, dispatch, clock advance).
        self.profiler = None
        #: Optional :class:`repro.check.invariants.InvariantChecker`: when
        #: set, per-cycle conservation laws (ROB/LSQ accounting, monotonic
        #: clock, trace-cursor progress, MSHR quotas) are verified after
        #: every loop iteration.  Detached by default — one ``is None``
        #: check per iteration, like ``sampler``.
        self.checker = None
        self._sample_at: int | None = None

    def _effective_limits(self, config: CoreConfig) -> tuple[tuple[int, ...], tuple[int, ...]]:
        n = self.n_threads if self.n_threads == 2 else 2
        if config.rob_policy is PartitionPolicy.SHARED:
            rob = tuple([config.rob_entries] * n)
            lsq = tuple([config.lsq_entries] * n)
        else:
            rob = tuple(config.rob_limits[:n])
            lsq = tuple(config.lsq_limits[:n])
        return rob, lsq

    # ------------------------------------------------------------------
    # Stretch hardware-software interface
    # ------------------------------------------------------------------

    def set_partitions(self, rob_limits: tuple[int, int], lsq_limits: tuple[int, int]) -> None:
        """Reprogram the ROB/LSQ limit registers (a Stretch mode change).

        Models the drain-and-flush sequence of §IV-C: both threads stop
        dispatching, in-flight µops retire, the limit registers are loaded,
        and both front ends pay the pipeline-flush penalty.
        """
        self._drain()
        self.rob.set_limits(rob_limits)
        self.lsq.set_limits(lsq_limits)
        flush_done = self.cycle + self.config.pipeline_flush_cycles
        for ts in self._threads:
            ts.fe_stall_until = max(ts.fe_stall_until, flush_done)
        self.partition_switches += 1

    def _drain(self) -> None:
        """Retire all in-flight µops without dispatching new ones."""
        width = self.config.width
        # Wrong-path ghosts are squashed immediately by the mode-change flush.
        for t, ts in enumerate(self._threads):
            for __ in range(ts.ghosts):
                self.rob.release(t)
            ts.ghosts = 0
        while any(ts.rob_q for ts in self._threads):
            next_event = None
            budget = width
            for ts in self._threads:
                q = ts.rob_q
                while q and budget and q[0][0] <= self.cycle:
                    self._commit_one(ts)
                    budget -= 1
                if q:
                    head = q[0][0]
                    if next_event is None or head < next_event:
                        next_event = head
            if any(ts.rob_q for ts in self._threads):
                # ``is not None``, not truthiness: an event at cycle 0 is a
                # legitimate event, not "no event".
                self.cycle = (
                    max(self.cycle + 1, next_event)
                    if next_event is not None
                    else self.cycle + 1
                )

    def _commit_one(self, ts: _ThreadState) -> None:
        __, is_mem = ts.rob_q.popleft()
        thread = self._threads.index(ts)
        self.rob.release(thread)
        if is_mem:
            self.lsq.release(thread)
        ts.committed += 1

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    def run(
        self,
        instructions: int,
        warmup_instructions: int = 0,
        max_cycles: int | None = None,
        require_all_threads: bool = False,
    ) -> SimulationResult:
        """Simulate until a thread commits ``instructions`` measured µops.

        By default the measurement window closes when the *first* thread
        reaches the target (both threads' UIPC is measured over the same
        cycle window, which is unbiased and keeps traces from wrapping);
        with ``require_all_threads=True`` the window closes when every
        thread has reached it.

        ``warmup_instructions`` are first committed with statistics discarded
        (cache/predictor state is kept — the paper's functional + detailed
        warmup).  ``max_cycles`` bounds the measured phase as a safety net;
        hitting it raises ``RuntimeError``.
        """
        if instructions <= 0:
            raise ValueError("instructions must be positive")
        if warmup_instructions:
            # Warmup must complete for EVERY thread — otherwise the slower
            # thread starts measurement with cold caches and predictors and
            # its slowdown is overstated.
            self._simulate_until(warmup_instructions, max_cycles=None,
                                 require_all=True)
        # Each run() reports statistics for its own measured window only
        # (microarchitectural state always persists across runs).
        self._reset_measurement()
        start_cycle = self.cycle
        sampler = self.sampler
        if sampler is not None:
            self._sample_at = sampler.begin(self)
        try:
            self._simulate_until(instructions, max_cycles=max_cycles,
                                 require_all=require_all_threads)
        finally:
            self._sample_at = None
            if sampler is not None:
                sampler.finish(self)
        cycles = self.cycle - start_cycle
        return self._collect(cycles)

    def _reset_measurement(self) -> None:
        for ts in self._threads:
            ts.reset_stats()
        self.hierarchy.reset_stats()
        self.predictor.reset_stats()
        self.rob.reset_stats()
        self._mlp_hist = [[0] * (MLP_BUCKETS + 1) for _ in range(self.n_threads)]

    def _collect(self, cycles: int) -> SimulationResult:
        results = []
        h = self.hierarchy
        for t, ts in enumerate(self._threads):
            results.append(
                ThreadResult(
                    thread=t,
                    workload=self.traces[t].name,
                    instructions=ts.committed,
                    cycles=cycles,
                    loads=h.loads[t],
                    stores=h.stores[t],
                    l1d_misses=h.l1d_misses[t],
                    l1i_misses=h.l1i_misses[t],
                    branches=ts.branches,
                    branch_mispredicts=ts.mispredicts,
                    rob_limit=self.rob.limits[t],
                    lsq_limit=self.lsq.limits[t],
                    dispatch_stall_rob=ts.stall_rob,
                    dispatch_stall_lsq=ts.stall_lsq,
                    mlp_cycles=list(self._mlp_hist[t]),
                )
            )
        return SimulationResult(cycles=cycles, threads=tuple(results))

    # ------------------------------------------------------------------
    # Event horizon
    # ------------------------------------------------------------------

    def pending_events(self, cycle: int) -> list[int]:
        """Sorted event horizon: enabling events the clock may not pass.

        Candidates per thread: the ROB head's completion (first commit),
        the front-end refill (``fe_stall_until``) and the wrong-path squash
        resolution (``squash_at``), the latter two only while still in the
        future; plus the next sampler window edge when an
        :class:`~repro.obs.sampler.IntervalSampler` is attached.  A clock
        jump lands on the minimum of these; an empty list means nothing is
        pending.  The sorted list exists for introspection and as the
        property-test oracle.
        """
        events = []
        for ts in self._threads:
            if ts.rob_q:
                events.append(ts.rob_q[0][0])
            if ts.fe_stall_until > cycle:
                events.append(ts.fe_stall_until)
            if ts.squash_at > cycle:
                events.append(ts.squash_at)
        if self._sample_at is not None:
            events.append(self._sample_at)
        return sorted(events)


# ----------------------------------------------------------------------
# Main loop: the function's text, each per-thread block in it included
# for thread 0 and thread 1 (see the module docstring)
# ----------------------------------------------------------------------

_LOOP = '''\
def _simulate_until(
    self, target_committed: int, max_cycles: int | None, require_all: bool = False
) -> None:
    """Advance the core until thread(s) commit ``target_committed`` µops."""
    n2 = self.n_threads == 2
    config = self.config
    width = config.width
    flush_penalty = config.pipeline_flush_cycles
    half_flush = flush_penalty // 2
    max_branches = config.max_branches_per_fetch
    int_alus = config.int_alus
    int_muls = config.int_muls
    fpus = config.fpus
    lsus = config.lsus
    buckets = MLP_BUCKETS
    ringmask = _RING_MASK
    opl = _OP_LOAD
    opst = _OP_STORE
    opb = _OP_BRANCH
    opm = _OP_INT_MUL
    opf = _OP_FP
    lat_alu = _LAT_ALU
    lat_mul = _LAT_MUL
    lat_fp = _LAT_FP
    lat_br = _LAT_BRANCH
    lat_st = _LAT_STORE

    rob = self.rob
    lsq = self.lsq
    rob_limits = rob._limits
    rob_capacity = rob.capacity
    lsq_limits = lsq._limits
    lsq_capacity = lsq.capacity

    hierarchy = self.hierarchy
    predictor = self.predictor
    # Branch predictor internals, fully inlined (the per-branch
    # BranchOutcome allocation and method dispatch are measurable on
    # branchy workloads).  Table objects are never replaced after
    # construction, so the bytearray/list references are loop-stable;
    # shared tables simply alias between the two thread-local views.
    {predictor:0}
    bhmask = predictor._history_mask
    if n2:
        {predictor:1}
    mshrs = hierarchy.mshrs
    inflight = mshrs._inflight
    infl0 = inflight[0]
    infl1 = inflight[1] if len(inflight) > 1 else {}
    mshr_per_thread = mshrs.per_thread
    mshr_total = mshrs.total
    mshr_acquire = mshrs.acquire
    # Earliest in-flight fill per thread (``nf0``/``nf1``, read at each
    # segment start; conservative lower bound: outside deletions only
    # raise the true minimum, so ``cycle < nf`` proves no MSHR entry can
    # expire this cycle and occupancy is just ``len(table)`` — no scan).
    # Retightened after every expiry.
    inf_fill = 1 << 62
    bshift = hierarchy._block_shift
    hit_lat = hierarchy.l1_hit_latency
    llc_lat = hierarchy.llc_latency
    llc_lat_mem = llc_lat + hierarchy.memory_latency
    pf_enabled = hierarchy.prefetch_enabled

    policy = self.policy
    whole_cycle = policy.whole_cycle
    policy_order = policy.order
    ptype = type(policy)
    if ptype is ICountPolicy:
        mode = 0
    elif ptype is RoundRobinPolicy:
        mode = 1
    elif ptype is StaticRatioPolicy:
        mode = 2
        ratio_m0 = policy.m0
        ratio_period = policy._period
    else:
        mode = 3

    # Thread state lives in flat locals inside the loop (committed
    # counts, cursor positions, usage registers, stall/branch/memory
    # counters, front-end state).  The loop runs in segments, from one
    # observation point to the next: each segment reads that state from
    # the objects once at its start and writes it back once at its end,
    # where the invariant checker and the sampler window edge observe
    # (and may adjust) exactly the state a per-cycle loop would expose,
    # and where the ``max_cycles`` deadline and the loop exit are taken.
    # No local aliases an object's list that the loop itself does not
    # read: this function has nearly 300 locals, CPython encodes slots
    # past 255 with an extra EXTENDED_ARG per access, and each alias
    # would push one more loop-body local past that slot.
    {alias:0}
    tt0 = 0
    tt1 = 1 << (_THREAD_TAG_SHIFT - bshift)

    if n2:
        {alias:1}
    else:
        q1 = None

    cycle = self.cycle
    deadline = None if max_cycles is None else cycle + max_cycles
    tgt0 = ts0.committed + target_committed
    tgt1 = (ts1.committed + target_committed) if n2 else 0

    sampler = self.sampler
    sample_at = self._sample_at
    checker = self.checker
    elog = self.event_log
    jump_log = self.jump_log
    first = 0
    second = 0

    # Phase timers: chained perf_counter stamps accumulate in locals and
    # flush once per call, so each phase boundary costs one stamp when
    # profiling is on and one false branch when it is off.
    prof = self.profiler
    profiling = prof is not None
    p_squash = p_fetch = p_commit = p_dispatch = p_advance = 0.0
    p_loops = 0
    if profiling:
        stamp = perf_counter()

    while True:
        # ---- segment start: read the thread state ----
        {read:0}
        if n2:
            {read:1}
        rob_total = rob._total
        lsq_total = lsq._total
        nf0 = min(infl0.values(), default=inf_fill)
        nf1 = min(infl1.values(), default=inf_fill)
        if deadline is not None and cycle >= deadline:
            raise RuntimeError(
                f"simulation exceeded max_cycles={max_cycles} before committing "
                f"{target_committed} µops per thread"
            )
        if profiling:
            # Charged to the clock advance: the previous segment's
            # write-back and observers, and this segment's reads.
            now = perf_counter(); p_advance += now - stamp; stamp = now

        while True:
            committed_this = 0
            dispatched_this = 0

            # ---- wrong-path squash: mispredicted branch resolved ----
            {squash:0}
            if n2:
                {squash:1}
            if profiling:
                now = perf_counter(); p_squash += now - stamp; stamp = now

            # ---- thread selection: one policy decision per cycle ----
            if n2:
                if mode == 0:
                    if ru0 < ru1:
                        first = 0
                    elif ru1 < ru0:
                        first = 1
                    else:
                        first = 0 if cycle & 1 else 1
                elif mode == 1:
                    first = 0 if cycle & 1 else 1
                elif mode == 2:
                    first = 0 if (cycle % ratio_period) < ratio_m0 else 1
                else:
                    first = policy_order(cycle, [ru0, ru1])[0]
                second = 1 - first
            if profiling:
                now = perf_counter(); p_fetch += now - stamp; stamp = now

            # ---- commit: policy-selected thread first, shared width ----
            # Per-entry work is the retirement scan itself; the usage
            # registers are updated once per thread-run (same outcome as
            # per-µop release calls).
            budget = width
            if first:
                {commit:1}
                {commit:0}
            else:
                {commit:0}
                {commit:1}
            if profiling:
                now = perf_counter(); p_commit += now - stamp; stamp = now

            # ---- fetch/dispatch: interleaved slots ----
            dbudget = width
            slots_alu = int_alus
            slots_mul = int_muls
            slots_fpu = fpus
            slots_lsu = lsus
            a0 = fe0 <= cycle
            a1 = n2 and fe1 <= cycle
            b0 = max_branches
            b1 = max_branches
            turn = 0
            while dbudget and (a0 or a1):
                # Thread pick: with one thread active every slot is its
                # (parity is unread from then on — active flags never come
                # back mid-cycle); with both active, the policy-preferred
                # alternation.  Identical outcomes to picking the preferred
                # thread and falling back to the other, one branch cheaper
                # in the common case.
                if a1:
                    if a0:
                        if whole_cycle:
                            t = first
                        elif turn & 1:
                            t = second
                        else:
                            t = first
                        turn += 1
                    else:
                        t = 1
                else:
                    t = 0

                if t == 0:
                    {dispatch:0}
                else:
                    {dispatch:1}
            if profiling:
                now = perf_counter(); p_dispatch += now - stamp; stamp = now

            # ---- clock advance over the event horizon ----
            done = False
            if dispatched_this:
                new_cycle = cycle + 1
            else:
                jump = True
                if committed_this:
                    if require_all and n2:
                        done = cm0 >= tgt0 and cm1 >= tgt1
                    else:
                        done = cm0 >= tgt0 or (n2 and cm1 >= tgt1)
                    if done or budget == 0:
                        # The window just closed, or commit bandwidth was
                        # exhausted (more µops retire next cycle): step.
                        jump = False
                        new_cycle = cycle + 1
                if jump:
                    # No dispatch, and any commits drained every due µop
                    # with bandwidth to spare: the machine state is frozen
                    # until the next event — jump straight to it.
                    ne = -1
                    {horizon:0}
                    if n2:
                        {horizon:1}
                    new_cycle = ne if ne > cycle + 1 else cycle + 1
                    if sample_at is not None and cycle < sample_at < new_cycle:
                        # Sampler window edges are horizon events: stopping
                        # mid-gap is timing-neutral and keeps windows exact.
                        new_cycle = sample_at
                    if jump_log is not None and new_cycle > cycle + 1:
                        ts0.fe_stall_until = fe0
                        ts0.squash_at = sq0
                        if n2:
                            ts1.fe_stall_until = fe1
                            ts1.squash_at = sq1
                        self._sample_at = sample_at
                        jump_log.append(
                            (cycle, new_cycle,
                             tuple(self.pending_events(cycle)))
                        )

            gap = new_cycle - cycle
            if gap == 1:
                # MLP accounting: one MSHR occupancy sample per cycle
                # (inlined mshrs.occupancy, preserving expiry semantics).
                {mlp:0}
                if n2:
                    {mlp:1}
            else:
                # Batched gap accounting, exactly as a per-cycle loop would:
                # MLP from piecewise-constant occupancy segments (inlined
                # mshrs.occupancy_segments), dispatch stalls once per
                # skipped cycle for pinned threads.
                skipped = gap - 1
                {gap:0}
                if n2:
                    {gap:1}
            cycle = new_cycle
            if committed_this and not done:
                if require_all and n2:
                    done = cm0 >= tgt0 and cm1 >= tgt1
                else:
                    done = cm0 >= tgt0 or (n2 and cm1 >= tgt1)
            if profiling:
                now = perf_counter(); p_advance += now - stamp; stamp = now
                p_loops += 1
            if (done or checker is not None
                    or (sample_at is not None and cycle >= sample_at)
                    or (deadline is not None and cycle >= deadline)):
                break

        # ---- segment end: write the thread state back, observe ----
        {writeback:0}
        if n2:
            {writeback:1}
        rob._total = rob_total
        lsq._total = lsq_total
        self.cycle = cycle
        if checker is not None:
            checker.on_cycle(self, cycle)
        if sample_at is not None and cycle >= sample_at:
            sample_at = sampler.take(self, cycle)
            self._sample_at = sample_at
        if done:
            break

    if profiling:
        p_advance += perf_counter() - stamp
        prof.add("sim.wakeup_squash", p_squash, p_loops)
        prof.add("sim.fetch_arbitration", p_fetch, p_loops)
        prof.add("sim.commit", p_commit, p_loops)
        prof.add("sim.dispatch", p_dispatch, p_loops)
        prof.add("sim.clock_advance", p_advance, p_loops)
'''

#: Per-thread blocks: ``{t}`` is the thread, ``{o}`` its sibling.
_BLOCKS = {
    # Branch-predictor table aliases.
    "predictor": '''\
_bt{t} = predictor._tables_for({t})
bgsh{t} = _bt{t}.gshare
bbim{t} = _bt{t}.bimodal
bcho{t} = _bt{t}.chooser
bbtag{t} = _bt{t}.btb_tag
bbtgt{t} = _bt{t}.btb_target
bgm{t} = _bt{t}.gshare_mask
bbm{t} = _bt{t}.bimodal_mask
bcm{t} = _bt{t}.chooser_mask
btm{t} = _bt{t}.btb_mask
''',
    # Loop-stable aliases: trace lists, ROB queue, caches, prefetcher.
    "alias": '''\
ts{t} = self._threads[{t}]
cur{t} = ts{t}.cursor
ops{t} = cur{t}.op
dep1s{t} = cur{t}.dep1
dep2s{t} = cur{t}.dep2
pcs{t} = cur{t}.pc
addrs{t} = cur{t}.addr
takens{t} = cur{t}.taken
targets{t} = cur{t}.target
sids{t} = cur{t}.sid
len{t} = cur{t}.length
lim{t} = cur{t}.decoded
fbs{t} = cur{t}.fb
q{t} = ts{t}.rob_q
pop{t} = q{t}.popleft
app{t} = q{t}.append
ring{t} = ts{t}.ring
rlim{t} = rob_limits[{t}]
llim{t} = lsq_limits[{t}]
dc{t} = hierarchy.l1d[{t}]
ic{t} = hierarchy.l1i[{t}]
dset{t} = dc{t}._sets
dmask{t} = dc{t}._set_mask
dways{t} = dc{t}.ways
iset{t} = ic{t}._sets
imask{t} = ic{t}._set_mask
iways{t} = ic{t}.ways
llc{t} = hierarchy.llc[{t}].access
dfill{t} = dc{t}.fill
pf{t} = hierarchy.prefetchers[{t}]
pftab{t} = pf{t}._table
pfsize{t} = pf{t}.table_size
pfdeg{t} = pf{t}.degree
pfthr{t} = pf{t}.confidence_threshold
pfline{t} = pf{t}.line_bytes
hist{t} = self._mlp_hist[{t}]
''',
    # Segment start: the thread's state into locals.
    "read": '''\
i{t} = cur{t}.index
cons{t} = cur{t}.consumed
seq{t} = ts{t}.seq
cm{t} = ts{t}.committed
fe{t} = ts{t}.fe_stall_until
sq{t} = ts{t}.squash_at
gh{t} = ts{t}.ghosts
lfb{t} = ts{t}.last_fetch_block
sr{t} = ts{t}.stall_rob
sl{t} = ts{t}.stall_lsq
br{t} = ts{t}.branches
mp{t} = ts{t}.mispredicts
ld{t} = hierarchy.loads[{t}]
st{t} = hierarchy.stores[{t}]
dm{t} = hierarchy.l1d_misses[{t}]
im{t} = hierarchy.l1i_misses[{t}]
co{t} = mshrs.coalesced[{t}]
ru{t} = rob._usage[{t}]
lu{t} = lsq._usage[{t}]
pkr{t} = rob.peak_usage[{t}]
pkl{t} = lsq.peak_usage[{t}]
bh{t} = predictor._history[{t}]
plk{t} = predictor.lookups[{t}]
pmp{t} = predictor.mispredictions[{t}]
''',
    # Wrong-path squash once the mispredicted branch resolves.
    "squash": '''\
if sq{t} and cycle >= sq{t}:
    if gh{t}:
        ru{t} -= gh{t}
        rob_total -= gh{t}
        gh{t} = 0
    refill = sq{t} + flush_penalty
    if fe{t} < refill:
        fe{t} = refill
    sq{t} = 0
''',
    # In-order retirement from the ROB head, within ``budget``.
    "commit": '''\
if q{t} and budget:
    head = q{t}[0]
    if head[0] <= cycle:
        k = 0
        m = 0
        while True:
            pop{t}()
            k += 1
            if head[1]:
                m += 1
            if k == budget or not q{t}:
                break
            head = q{t}[0]
            if head[0] > cycle:
                break
        ru{t} -= k
        rob_total -= k
        cm{t} += k
        budget -= k
        committed_this += k
        if m:
            lu{t} -= m
            lsq_total -= m
''',
    # One dispatch slot for the thread, ``t`` in the loop.
    "dispatch": '''\
if sq{t} > cycle:
    # Wrong-path (ghost) dispatch occupies ROB entries.
    if ru{t} >= rlim{t} or rob_total >= rob_capacity:
        a{t} = False
        continue
    if not a{o}:
        # Sole active thread: every remaining slot this cycle falls to
        # it, so fill the ROB in one batched step — identical to
        # dispatching the ghosts one per slot.
        g = dbudget
        room = rlim{t} - ru{t}
        if g > room:
            g = room
        room = rob_capacity - rob_total
        if g > room:
            g = room
        ru{t} += g
        if ru{t} > pkr{t}:
            pkr{t} = ru{t}
        rob_total += g
        gh{t} += g
        dbudget -= g
        dispatched_this += g
        if dbudget:
            a{t} = False
        continue
    ru{t} += 1
    if ru{t} > pkr{t}:
        pkr{t} = ru{t}
    rob_total += 1
    gh{t} += 1
    dbudget -= 1
    dispatched_this += 1
    continue
i = i{t}
op = ops{t}[i]
if ru{t} >= rlim{t} or rob_total >= rob_capacity:
    sr{t} += 1
    a{t} = False
    continue
if op == opl or op == opst:
    is_mem = True
    if lu{t} >= llim{t} or lsq_total >= lsq_capacity:
        sl{t} += 1
        a{t} = False
        continue
    if slots_lsu == 0:
        a{t} = False
        continue
elif op == opb:
    is_mem = False
    if b{t} == 0 or slots_alu == 0:
        a{t} = False
        continue
elif op == opm:
    is_mem = False
    if slots_mul == 0:
        a{t} = False
        continue
elif op == opf:
    is_mem = False
    if slots_fpu == 0:
        a{t} = False
        continue
else:
    is_mem = False
    if slots_alu == 0:
        a{t} = False
        continue

# Instruction-side delivery (inlined fetch_block).
fb = fbs{t}[i]
if fb != lfb{t}:
    lfb{t} = fb
    iblock = (pcs{t}[i] >> bshift) | tt{t}
    ientries = iset{t}[iblock & imask{t}]
    try:
        ientries.remove(iblock)
        ic{t}.hits += 1
        ientries.append(iblock)
    except ValueError:
        ic{t}.misses += 1
        if len(ientries) >= iways{t}:
            del ientries[0]
        ientries.append(iblock)
        im{t} += 1
        fe{t} = cycle + (llc_lat if llc{t}(iblock) else llc_lat_mem)
        a{t} = False
        continue

# Dataflow ready time from the ring buffer.
seq = seq{t}
ready = cycle
d = dep1s{t}[i]
if d:
    r = ring{t}[(seq - d) & ringmask]
    if r > ready:
        ready = r
d = dep2s{t}[i]
if d:
    r = ring{t}[(seq - d) & ringmask]
    if r > ready:
        ready = r

if op == opl:
    # Inlined hierarchy.load: L1-D access, prefetcher train, LLC fill
    # and MSHR allocate/coalesce.
    ld{t} += 1
    {l1d:{t}}
    if hit:
        completion = ready + hit_lat
    else:
        dm{t} += 1
        latency = llc_lat if llc{t}(block) else llc_lat_mem
        if nf{t} <= ready and infl{t}:
            for b, f in list(infl{t}.items()):
                if f <= ready:
                    del infl{t}[b]
            nf{t} = min(infl{t}.values(), default=inf_fill)
        fill = infl{t}.get(block)
        if fill is not None:
            co{t} += 1
        elif (
            len(infl{t}) < mshr_per_thread
            and len(infl{t}) + len(infl{o}) < mshr_total
        ):
            fill = ready + latency
            infl{t}[block] = fill
            if fill < nf{t}:
                nf{t} = fill
        else:
            # Structural stall: quota or file exhausted.
            fill = mshr_acquire({t}, block, ready, latency)
            nf{t} = min(infl{t}.values(), default=inf_fill)
            nf{o} = min(infl{o}.values(), default=inf_fill)
        completion = fill + hit_lat
    slots_lsu -= 1
elif op == opst:
    # Inlined hierarchy.store: write-allocate, no MSHR.
    st{t} += 1
    {l1d:{t}}
    if not hit:
        dm{t} += 1
        llc{t}(block)
    completion = ready + lat_st
    slots_lsu -= 1
elif op == opb:
    completion = ready + lat_br
    br{t} += 1
    pc = pcs{t}[i]
    taken = takens{t}[i]
    pci = pc >> 2
    g_idx = (pci ^ bh{t}) & bgm{t}
    b_idx = pci & bbm{t}
    g_ctr = bgsh{t}[g_idx]
    b_ctr = bbim{t}[b_idx]
    c_idx = pci & bcm{t}
    if bcho{t}[c_idx] >= 2:
        pred_taken = g_ctr >= 2
    else:
        pred_taken = b_ctr >= 2
    if taken:
        if g_ctr < 3:
            bgsh{t}[g_idx] = g_ctr + 1
        if b_ctr < 3:
            bbim{t}[b_idx] = b_ctr + 1
        g_right = g_ctr >= 2
        b_right = b_ctr >= 2
        bh{t} = ((bh{t} << 1) | 1) & bhmask
    else:
        if g_ctr > 0:
            bgsh{t}[g_idx] = g_ctr - 1
        if b_ctr > 0:
            bbim{t}[b_idx] = b_ctr - 1
        g_right = g_ctr < 2
        b_right = b_ctr < 2
        bh{t} = (bh{t} << 1) & bhmask
    if g_right != b_right:
        ctr = bcho{t}[c_idx]
        if g_right:
            if ctr < 3:
                bcho{t}[c_idx] = ctr + 1
        elif ctr > 0:
            bcho{t}[c_idx] = ctr - 1
    plk{t} += 1
    b{t} -= 1
    slots_alu -= 1
    if taken:
        bt_idx = pci & btm{t}
        tgt = targets{t}[i]
        t_ok = bbtag{t}[bt_idx] == pc and bbtgt{t}[bt_idx] == tgt
        bbtag{t}[bt_idx] = pc
        bbtgt{t}[bt_idx] = tgt
        if not pred_taken:
            pmp{t} += 1
            mp{t} += 1
            sq{t} = completion
        elif not t_ok:
            # Direction right but BTB missed: front-end bubble of half
            # the flush depth.
            pmp{t} += 1
            mp{t} += 1
            fe{t} = cycle + half_flush
            a{t} = False
    elif pred_taken:
        pmp{t} += 1
        mp{t} += 1
        sq{t} = completion
elif op == opm:
    completion = ready + lat_mul
    slots_mul -= 1
elif op == opf:
    completion = ready + lat_fp
    slots_fpu -= 1
else:
    completion = ready + lat_alu
    slots_alu -= 1

ring{t}[seq & ringmask] = completion
seq{t} = seq + 1
ru{t} += 1
if ru{t} > pkr{t}:
    pkr{t} = ru{t}
rob_total += 1
if is_mem:
    lu{t} += 1
    if lu{t} > pkl{t}:
        pkl{t} = lu{t}
    lsq_total += 1
app{t}((completion, is_mem))
if elog is not None:
    elog.append(({t}, seq, op, pcs{t}[i], cycle, ready, completion))
i += 1
if i == lim{t}:
    # Decoded end: wrap at the trace end, else decode the next chunk
    # (the lists grow in place).
    if i == len{t}:
        i = 0
    else:
        lim{t} = cur{t}.refill()
i{t} = i
cons{t} += 1
dbudget -= 1
dispatched_this += 1
''',
    # L1-D lookup and prefetcher training, shared by loads and stores.
    "l1d": '''\
block = (addrs{t}[i] >> bshift) | tt{t}
entries = dset{t}[block & dmask{t}]
if entries and entries[-1] == block:
    # MRU hit: remove+append would be a no-op.
    dc{t}.hits += 1
    hit = True
else:
    try:
        entries.remove(block)
        dc{t}.hits += 1
        entries.append(block)
        hit = True
    except ValueError:
        dc{t}.misses += 1
        if len(entries) >= dways{t}:
            del entries[0]
        entries.append(block)
        hit = False
s = sids{t}[i]
if s != 0 and pf_enabled:
    # Inlined StridePrefetcher.train + fill loop.
    addr = addrs{t}[i]
    e = pftab{t}.get(-s)
    if e is None:
        if len(pftab{t}) >= pfsize{t}:
            pftab{t}.pop(next(iter(pftab{t})))
        pftab{t}[-s] = _PFEntry(-s, addr)
    else:
        stride = addr - e.last_addr
        if stride != 0 and stride == e.stride:
            if e.confidence < 3:
                e.confidence += 1
        else:
            e.stride = stride
            e.confidence = 0
        e.last_addr = addr
        if e.confidence >= pfthr{t} and e.stride != 0:
            st_ = e.stride
            base_block = addr // pfline{t}
            for k in range(1, pfdeg{t} + 1):
                blk = (addr + k * st_) // pfline{t}
                if blk != base_block:
                    pf{t}.issued += 1
                    tagged = blk | tt{t}
                    if tagged not in dset{t}[tagged & dmask{t}]:
                        llc{t}(tagged)
                        dfill{t}(tagged)
''',
    # The thread's earliest enabling event, folded into ``ne``.
    "horizon": '''\
if q{t}:
    ev = q{t}[0][0]
    if ne < 0 or ev < ne:
        ne = ev
if fe{t} > cycle and (ne < 0 or fe{t} < ne):
    ne = fe{t}
if sq{t} > cycle and (ne < 0 or sq{t} < ne):
    ne = sq{t}
''',
    # One cycle's MSHR-occupancy sample.
    "mlp": '''\
if infl{t}:
    if cycle < nf{t}:
        occ = len(infl{t})
    else:
        occ = 0
        for f in infl{t}.values():
            if f > cycle:
                occ += 1
        if occ != len(infl{t}):
            for b, f in list(infl{t}.items()):
                if f <= cycle:
                    del infl{t}[b]
            nf{t} = min(infl{t}.values(), default=inf_fill)
    hist{t}[occ if occ <= buckets else buckets] += 1
else:
    hist{t}[0] += 1
''',
    # A skipped gap: MLP histogram and dispatch-stall counters.
    "gap": '''\
if nf{t} <= cycle and infl{t}:
    for b, f in list(infl{t}.items()):
        if f <= cycle:
            del infl{t}[b]
    nf{t} = min(infl{t}.values(), default=inf_fill)
if infl{t}:
    fills = sorted(infl{t}.values())
    occ = len(fills)
    prev = cycle
    for fill in fills:
        if fill >= new_cycle:
            break
        if fill > prev:
            hist{t}[occ if occ <= buckets else buckets] += fill - prev
            prev = fill
        occ -= 1
    if new_cycle > prev:
        hist{t}[occ if occ <= buckets else buckets] += new_cycle - prev
else:
    hist{t}[0] += gap
if fe{t} <= cycle and sq{t} <= cycle:
    if ru{t} >= rlim{t} or rob_total >= rob_capacity:
        sr{t} += skipped
    else:
        op = ops{t}[i{t}]
        if (op == opl or op == opst) and (
            lu{t} >= llim{t} or lsq_total >= lsq_capacity
        ):
            sl{t} += skipped
''',
    # Segment end: the locals back into the objects.
    "writeback": '''\
cur{t}.index = i{t}
cur{t}.consumed = cons{t}
ts{t}.seq = seq{t}
ts{t}.committed = cm{t}
ts{t}.fe_stall_until = fe{t}
ts{t}.squash_at = sq{t}
ts{t}.ghosts = gh{t}
ts{t}.last_fetch_block = lfb{t}
ts{t}.stall_rob = sr{t}
ts{t}.stall_lsq = sl{t}
ts{t}.branches = br{t}
ts{t}.mispredicts = mp{t}
hierarchy.loads[{t}] = ld{t}
hierarchy.stores[{t}] = st{t}
hierarchy.l1d_misses[{t}] = dm{t}
hierarchy.l1i_misses[{t}] = im{t}
mshrs.coalesced[{t}] = co{t}
rob._usage[{t}] = ru{t}
lsq._usage[{t}] = lu{t}
rob.peak_usage[{t}] = pkr{t}
lsq.peak_usage[{t}] = pkl{t}
predictor._history[{t}] = bh{t}
predictor.lookups[{t}] = plk{t}
predictor.mispredictions[{t}] = pmp{t}
''',
}

#: An include line: ``{name:N}`` alone on a line, N the thread (0 or 1).
_INCLUDE = re.compile(r"^( *)\{(\w+):([01])\}\n", re.M)


def _expand(text: str) -> str:
    """Replace each include line with its block, expanded for its thread.

    In a block, ``{t}`` names the thread and ``{o}`` its sibling; a block
    may include other blocks (``{l1d:{t}}``).  Included text takes the
    include line's indentation.
    """

    def include(m: re.Match[str]) -> str:
        t = m.group(3)
        block = _BLOCKS[m.group(2)].replace("{t}", t).replace("{o}", str(1 - int(t)))
        return textwrap.indent(_expand(block), m.group(1))

    return _INCLUDE.sub(include, text)


def _install() -> None:
    """Compile the expanded loop once and install it on :class:`FastCore`.

    The expanded source is registered with :mod:`linecache` (``mtime``
    ``None``, so :func:`linecache.checkcache` keeps it): tracebacks,
    profilers and :func:`inspect.getsource` show the lines that run.
    """
    source = _expand(_LOOP)
    filename = f"<{__name__}._simulate_until>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace: dict[str, object] = {}
    exec(compile(source, filename, "exec"), globals(), namespace)
    loop = namespace["_simulate_until"]
    loop.__qualname__ = "FastCore._simulate_until"
    FastCore._simulate_until = loop


_install()
