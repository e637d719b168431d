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
"""

from __future__ import annotations

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

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

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
        _bt0 = predictor._tables_for(0)
        bgsh0 = _bt0.gshare
        bbim0 = _bt0.bimodal
        bcho0 = _bt0.chooser
        bbtag0 = _bt0.btb_tag
        bbtgt0 = _bt0.btb_target
        bgm0 = _bt0.gshare_mask
        bbm0 = _bt0.bimodal_mask
        bcm0 = _bt0.chooser_mask
        btm0 = _bt0.btb_mask
        bhmask = predictor._history_mask
        if n2:
            _bt1 = predictor._tables_for(1)
            bgsh1 = _bt1.gshare
            bbim1 = _bt1.bimodal
            bcho1 = _bt1.chooser
            bbtag1 = _bt1.btb_tag
            bbtgt1 = _bt1.btb_target
            bgm1 = _bt1.gshare_mask
            bbm1 = _bt1.bimodal_mask
            bcm1 = _bt1.chooser_mask
            btm1 = _bt1.btb_mask
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
        ts0 = self._threads[0]
        cur0 = ts0.cursor
        ops0 = cur0.op
        dep1s0 = cur0.dep1
        dep2s0 = cur0.dep2
        pcs0 = cur0.pc
        addrs0 = cur0.addr
        takens0 = cur0.taken
        targets0 = cur0.target
        sids0 = cur0.sid
        len0 = cur0.length
        lim0 = cur0.decoded
        fbs0 = cur0.fb
        q0 = ts0.rob_q
        pop0 = q0.popleft
        app0 = q0.append
        ring0 = ts0.ring
        rlim0 = rob_limits[0]
        llim0 = lsq_limits[0]
        dc0 = hierarchy.l1d[0]
        ic0 = hierarchy.l1i[0]
        dset0 = dc0._sets
        dmask0 = dc0._set_mask
        dways0 = dc0.ways
        iset0 = ic0._sets
        imask0 = ic0._set_mask
        iways0 = ic0.ways
        llc0 = hierarchy.llc[0].access
        dfill0 = dc0.fill
        pf0 = hierarchy.prefetchers[0]
        pftab0 = pf0._table
        pfsize0 = pf0.table_size
        pfdeg0 = pf0.degree
        pfthr0 = pf0.confidence_threshold
        pfline0 = pf0.line_bytes
        hist0 = self._mlp_hist[0]
        tt0 = 0
        tt1 = 1 << (_THREAD_TAG_SHIFT - bshift)

        if n2:
            ts1 = self._threads[1]
            cur1 = ts1.cursor
            ops1 = cur1.op
            dep1s1 = cur1.dep1
            dep2s1 = cur1.dep2
            pcs1 = cur1.pc
            addrs1 = cur1.addr
            takens1 = cur1.taken
            targets1 = cur1.target
            sids1 = cur1.sid
            len1 = cur1.length
            lim1 = cur1.decoded
            fbs1 = cur1.fb
            q1 = ts1.rob_q
            pop1 = q1.popleft
            app1 = q1.append
            ring1 = ts1.ring
            rlim1 = rob_limits[1]
            llim1 = lsq_limits[1]
            dc1 = hierarchy.l1d[1]
            ic1 = hierarchy.l1i[1]
            dset1 = dc1._sets
            dmask1 = dc1._set_mask
            dways1 = dc1.ways
            iset1 = ic1._sets
            imask1 = ic1._set_mask
            iways1 = ic1.ways
            llc1 = hierarchy.llc[1].access
            dfill1 = dc1.fill
            pf1 = hierarchy.prefetchers[1]
            pftab1 = pf1._table
            pfsize1 = pf1.table_size
            pfdeg1 = pf1.degree
            pfthr1 = pf1.confidence_threshold
            pfline1 = pf1.line_bytes
            hist1 = self._mlp_hist[1]
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
            i0 = cur0.index
            cons0 = cur0.consumed
            seq0 = ts0.seq
            cm0 = ts0.committed
            fe0 = ts0.fe_stall_until
            sq0 = ts0.squash_at
            gh0 = ts0.ghosts
            lfb0 = ts0.last_fetch_block
            sr0 = ts0.stall_rob
            sl0 = ts0.stall_lsq
            br0 = ts0.branches
            mp0 = ts0.mispredicts
            ld0 = hierarchy.loads[0]
            st0 = hierarchy.stores[0]
            dm0 = hierarchy.l1d_misses[0]
            im0 = hierarchy.l1i_misses[0]
            co0 = mshrs.coalesced[0]
            ru0 = rob._usage[0]
            lu0 = lsq._usage[0]
            pkr0 = rob.peak_usage[0]
            pkl0 = lsq.peak_usage[0]
            bh0 = predictor._history[0]
            plk0 = predictor.lookups[0]
            pmp0 = predictor.mispredictions[0]
            if n2:
                i1 = cur1.index
                cons1 = cur1.consumed
                seq1 = ts1.seq
                cm1 = ts1.committed
                fe1 = ts1.fe_stall_until
                sq1 = ts1.squash_at
                gh1 = ts1.ghosts
                lfb1 = ts1.last_fetch_block
                sr1 = ts1.stall_rob
                sl1 = ts1.stall_lsq
                br1 = ts1.branches
                mp1 = ts1.mispredicts
                ld1 = hierarchy.loads[1]
                st1 = hierarchy.stores[1]
                dm1 = hierarchy.l1d_misses[1]
                im1 = hierarchy.l1i_misses[1]
                co1 = mshrs.coalesced[1]
                ru1 = rob._usage[1]
                lu1 = lsq._usage[1]
                pkr1 = rob.peak_usage[1]
                pkl1 = lsq.peak_usage[1]
                bh1 = predictor._history[1]
                plk1 = predictor.lookups[1]
                pmp1 = predictor.mispredictions[1]
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
                if sq0 and cycle >= sq0:
                    if gh0:
                        ru0 -= gh0
                        rob_total -= gh0
                        gh0 = 0
                    refill = sq0 + flush_penalty
                    if fe0 < refill:
                        fe0 = refill
                    sq0 = 0
                if n2 and sq1 and cycle >= sq1:
                    if gh1:
                        ru1 -= gh1
                        rob_total -= gh1
                        gh1 = 0
                    refill = sq1 + flush_penalty
                    if fe1 < refill:
                        fe1 = refill
                    sq1 = 0
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
                    if q1 and budget:
                        head = q1[0]
                        if head[0] <= cycle:
                            k = 0
                            m = 0
                            while True:
                                pop1()
                                k += 1
                                if head[1]:
                                    m += 1
                                if k == budget or not q1:
                                    break
                                head = q1[0]
                                if head[0] > cycle:
                                    break
                            ru1 -= k
                            rob_total -= k
                            cm1 += k
                            budget -= k
                            committed_this += k
                            if m:
                                lu1 -= m
                                lsq_total -= m
                    if q0 and budget:
                        head = q0[0]
                        if head[0] <= cycle:
                            k = 0
                            m = 0
                            while True:
                                pop0()
                                k += 1
                                if head[1]:
                                    m += 1
                                if k == budget or not q0:
                                    break
                                head = q0[0]
                                if head[0] > cycle:
                                    break
                            ru0 -= k
                            rob_total -= k
                            cm0 += k
                            budget -= k
                            committed_this += k
                            if m:
                                lu0 -= m
                                lsq_total -= m
                else:
                    if q0 and budget:
                        head = q0[0]
                        if head[0] <= cycle:
                            k = 0
                            m = 0
                            while True:
                                pop0()
                                k += 1
                                if head[1]:
                                    m += 1
                                if k == budget or not q0:
                                    break
                                head = q0[0]
                                if head[0] > cycle:
                                    break
                            ru0 -= k
                            rob_total -= k
                            cm0 += k
                            budget -= k
                            committed_this += k
                            if m:
                                lu0 -= m
                                lsq_total -= m
                    if q1 and budget:
                        head = q1[0]
                        if head[0] <= cycle:
                            k = 0
                            m = 0
                            while True:
                                pop1()
                                k += 1
                                if head[1]:
                                    m += 1
                                if k == budget or not q1:
                                    break
                                head = q1[0]
                                if head[0] > cycle:
                                    break
                            ru1 -= k
                            rob_total -= k
                            cm1 += k
                            budget -= k
                            committed_this += k
                            if m:
                                lu1 -= m
                                lsq_total -= m
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
                        if sq0 > cycle:
                            # Wrong-path (ghost) dispatch occupies ROB entries.
                            if ru0 >= rlim0 or rob_total >= rob_capacity:
                                a0 = False
                                continue
                            if not a1:
                                # Sole active thread: every remaining slot this
                                # cycle falls to it, so fill the ROB in one
                                # batched step — identical to dispatching the
                                # ghosts one per slot.
                                g = dbudget
                                room = rlim0 - ru0
                                if g > room:
                                    g = room
                                room = rob_capacity - rob_total
                                if g > room:
                                    g = room
                                ru0 += g
                                if ru0 > pkr0:
                                    pkr0 = ru0
                                rob_total += g
                                gh0 += g
                                dbudget -= g
                                dispatched_this += g
                                if dbudget:
                                    a0 = False
                                continue
                            ru0 += 1
                            if ru0 > pkr0:
                                pkr0 = ru0
                            rob_total += 1
                            gh0 += 1
                            dbudget -= 1
                            dispatched_this += 1
                            continue
                        i = i0
                        op = ops0[i]
                        if ru0 >= rlim0 or rob_total >= rob_capacity:
                            sr0 += 1
                            a0 = False
                            continue
                        if op == opl or op == opst:
                            is_mem = True
                            if lu0 >= llim0 or lsq_total >= lsq_capacity:
                                sl0 += 1
                                a0 = False
                                continue
                            if slots_lsu == 0:
                                a0 = False
                                continue
                        elif op == opb:
                            is_mem = False
                            if b0 == 0 or slots_alu == 0:
                                a0 = False
                                continue
                        elif op == opm:
                            is_mem = False
                            if slots_mul == 0:
                                a0 = False
                                continue
                        elif op == opf:
                            is_mem = False
                            if slots_fpu == 0:
                                a0 = False
                                continue
                        else:
                            is_mem = False
                            if slots_alu == 0:
                                a0 = False
                                continue

                        # Instruction-side delivery (inlined fetch_block).
                        fb = fbs0[i]
                        if fb != lfb0:
                            lfb0 = fb
                            iblock = (pcs0[i] >> bshift) | tt0
                            ientries = iset0[iblock & imask0]
                            try:
                                ientries.remove(iblock)
                                ic0.hits += 1
                                ientries.append(iblock)
                            except ValueError:
                                ic0.misses += 1
                                if len(ientries) >= iways0:
                                    del ientries[0]
                                ientries.append(iblock)
                                im0 += 1
                                fe0 = cycle + (
                                    llc_lat if llc0(iblock) else llc_lat_mem
                                )
                                a0 = False
                                continue

                        # Dataflow ready time from the ring buffer.
                        seq = seq0
                        ready = cycle
                        d = dep1s0[i]
                        if d:
                            r = ring0[(seq - d) & ringmask]
                            if r > ready:
                                ready = r
                        d = dep2s0[i]
                        if d:
                            r = ring0[(seq - d) & ringmask]
                            if r > ready:
                                ready = r

                        if op == opl:
                            # Inlined hierarchy.load: L1-D access, prefetcher
                            # train, LLC fill and MSHR allocate/coalesce.
                            ld0 += 1
                            block = (addrs0[i] >> bshift) | tt0
                            entries = dset0[block & dmask0]
                            if entries and entries[-1] == block:
                                # MRU hit: remove+append would be a no-op.
                                dc0.hits += 1
                                hit = True
                            else:
                                try:
                                    entries.remove(block)
                                    dc0.hits += 1
                                    entries.append(block)
                                    hit = True
                                except ValueError:
                                    dc0.misses += 1
                                    if len(entries) >= dways0:
                                        del entries[0]
                                    entries.append(block)
                                    hit = False
                            s = sids0[i]
                            if s != 0 and pf_enabled:
                                # Inlined StridePrefetcher.train + fill loop.
                                addr = addrs0[i]
                                e = pftab0.get(-s)
                                if e is None:
                                    if len(pftab0) >= pfsize0:
                                        pftab0.pop(next(iter(pftab0)))
                                    pftab0[-s] = _PFEntry(-s, addr)
                                else:
                                    stride = addr - e.last_addr
                                    if stride != 0 and stride == e.stride:
                                        if e.confidence < 3:
                                            e.confidence += 1
                                    else:
                                        e.stride = stride
                                        e.confidence = 0
                                    e.last_addr = addr
                                    if e.confidence >= pfthr0 and e.stride != 0:
                                        st_ = e.stride
                                        base_block = addr // pfline0
                                        for k in range(1, pfdeg0 + 1):
                                            blk = (addr + k * st_) // pfline0
                                            if blk != base_block:
                                                pf0.issued += 1
                                                tagged = blk | tt0
                                                if tagged not in dset0[
                                                    tagged & dmask0
                                                ]:
                                                    llc0(tagged)
                                                    dfill0(tagged)
                            if hit:
                                completion = ready + hit_lat
                            else:
                                dm0 += 1
                                latency = (
                                    llc_lat if llc0(block) else llc_lat_mem
                                )
                                if nf0 <= ready and infl0:
                                    stale = [
                                        b for b, f in infl0.items() if f <= ready
                                    ]
                                    for b in stale:
                                        del infl0[b]
                                    nf0 = min(infl0.values(), default=inf_fill)
                                fill = infl0.get(block)
                                if fill is not None:
                                    co0 += 1
                                elif (
                                    len(infl0) < mshr_per_thread
                                    and len(infl0) + len(infl1) < mshr_total
                                ):
                                    fill = ready + latency
                                    infl0[block] = fill
                                    if fill < nf0:
                                        nf0 = fill
                                else:
                                    # Structural stall: quota or file exhausted.
                                    fill = mshr_acquire(0, block, ready, latency)
                                    nf0 = min(infl0.values(), default=inf_fill)
                                    nf1 = min(infl1.values(), default=inf_fill)
                                completion = fill + hit_lat
                            slots_lsu -= 1
                        elif op == opst:
                            # Inlined hierarchy.store: write-allocate, no MSHR.
                            st0 += 1
                            block = (addrs0[i] >> bshift) | tt0
                            entries = dset0[block & dmask0]
                            if entries and entries[-1] == block:
                                dc0.hits += 1
                                hit = True
                            else:
                                try:
                                    entries.remove(block)
                                    dc0.hits += 1
                                    entries.append(block)
                                    hit = True
                                except ValueError:
                                    dc0.misses += 1
                                    if len(entries) >= dways0:
                                        del entries[0]
                                    entries.append(block)
                                    hit = False
                            s = sids0[i]
                            if s != 0 and pf_enabled:
                                # Inlined StridePrefetcher.train + fill loop.
                                addr = addrs0[i]
                                e = pftab0.get(-s)
                                if e is None:
                                    if len(pftab0) >= pfsize0:
                                        pftab0.pop(next(iter(pftab0)))
                                    pftab0[-s] = _PFEntry(-s, addr)
                                else:
                                    stride = addr - e.last_addr
                                    if stride != 0 and stride == e.stride:
                                        if e.confidence < 3:
                                            e.confidence += 1
                                    else:
                                        e.stride = stride
                                        e.confidence = 0
                                    e.last_addr = addr
                                    if e.confidence >= pfthr0 and e.stride != 0:
                                        st_ = e.stride
                                        base_block = addr // pfline0
                                        for k in range(1, pfdeg0 + 1):
                                            blk = (addr + k * st_) // pfline0
                                            if blk != base_block:
                                                pf0.issued += 1
                                                tagged = blk | tt0
                                                if tagged not in dset0[
                                                    tagged & dmask0
                                                ]:
                                                    llc0(tagged)
                                                    dfill0(tagged)
                            if not hit:
                                dm0 += 1
                                llc0(block)
                            completion = ready + lat_st
                            slots_lsu -= 1
                        elif op == opb:
                            completion = ready + lat_br
                            br0 += 1
                            pc = pcs0[i]
                            taken = takens0[i]
                            pci = pc >> 2
                            g_idx = (pci ^ bh0) & bgm0
                            b_idx = pci & bbm0
                            g_ctr = bgsh0[g_idx]
                            b_ctr = bbim0[b_idx]
                            c_idx = pci & bcm0
                            if bcho0[c_idx] >= 2:
                                pred_taken = g_ctr >= 2
                            else:
                                pred_taken = b_ctr >= 2
                            if taken:
                                if g_ctr < 3:
                                    bgsh0[g_idx] = g_ctr + 1
                                if b_ctr < 3:
                                    bbim0[b_idx] = b_ctr + 1
                                g_right = g_ctr >= 2
                                b_right = b_ctr >= 2
                                bh0 = ((bh0 << 1) | 1) & bhmask
                            else:
                                if g_ctr > 0:
                                    bgsh0[g_idx] = g_ctr - 1
                                if b_ctr > 0:
                                    bbim0[b_idx] = b_ctr - 1
                                g_right = g_ctr < 2
                                b_right = b_ctr < 2
                                bh0 = (bh0 << 1) & bhmask
                            if g_right != b_right:
                                ctr = bcho0[c_idx]
                                if g_right:
                                    if ctr < 3:
                                        bcho0[c_idx] = ctr + 1
                                elif ctr > 0:
                                    bcho0[c_idx] = ctr - 1
                            plk0 += 1
                            b0 -= 1
                            slots_alu -= 1
                            if taken:
                                bt_idx = pci & btm0
                                tgt = targets0[i]
                                t_ok = (bbtag0[bt_idx] == pc
                                        and bbtgt0[bt_idx] == tgt)
                                bbtag0[bt_idx] = pc
                                bbtgt0[bt_idx] = tgt
                                if not pred_taken:
                                    pmp0 += 1
                                    mp0 += 1
                                    sq0 = completion
                                elif not t_ok:
                                    # Direction right but BTB missed: front-end
                                    # bubble of half the flush depth.
                                    pmp0 += 1
                                    mp0 += 1
                                    fe0 = cycle + half_flush
                                    a0 = False
                            elif pred_taken:
                                pmp0 += 1
                                mp0 += 1
                                sq0 = completion
                        elif op == opm:
                            completion = ready + lat_mul
                            slots_mul -= 1
                        elif op == opf:
                            completion = ready + lat_fp
                            slots_fpu -= 1
                        else:
                            completion = ready + lat_alu
                            slots_alu -= 1

                        ring0[seq & ringmask] = completion
                        seq0 = seq + 1
                        ru0 += 1
                        if ru0 > pkr0:
                            pkr0 = ru0
                        rob_total += 1
                        if is_mem:
                            lu0 += 1
                            if lu0 > pkl0:
                                pkl0 = lu0
                            lsq_total += 1
                        app0((completion, is_mem))
                        if elog is not None:
                            elog.append(
                                (0, seq, op, pcs0[i], cycle, ready, completion)
                            )
                        i += 1
                        if i == lim0:
                            # Decoded end: wrap at the trace end, else decode
                            # the next chunk (the lists grow in place).
                            if i == len0:
                                i = 0
                            else:
                                lim0 = cur0.refill()
                        i0 = i
                        cons0 += 1
                        dbudget -= 1
                        dispatched_this += 1
                    else:
                        if sq1 > cycle:
                            if ru1 >= rlim1 or rob_total >= rob_capacity:
                                a1 = False
                                continue
                            if not a0:
                                g = dbudget
                                room = rlim1 - ru1
                                if g > room:
                                    g = room
                                room = rob_capacity - rob_total
                                if g > room:
                                    g = room
                                ru1 += g
                                if ru1 > pkr1:
                                    pkr1 = ru1
                                rob_total += g
                                gh1 += g
                                dbudget -= g
                                dispatched_this += g
                                if dbudget:
                                    a1 = False
                                continue
                            ru1 += 1
                            if ru1 > pkr1:
                                pkr1 = ru1
                            rob_total += 1
                            gh1 += 1
                            dbudget -= 1
                            dispatched_this += 1
                            continue
                        i = i1
                        op = ops1[i]
                        if ru1 >= rlim1 or rob_total >= rob_capacity:
                            sr1 += 1
                            a1 = False
                            continue
                        if op == opl or op == opst:
                            is_mem = True
                            if lu1 >= llim1 or lsq_total >= lsq_capacity:
                                sl1 += 1
                                a1 = False
                                continue
                            if slots_lsu == 0:
                                a1 = False
                                continue
                        elif op == opb:
                            is_mem = False
                            if b1 == 0 or slots_alu == 0:
                                a1 = False
                                continue
                        elif op == opm:
                            is_mem = False
                            if slots_mul == 0:
                                a1 = False
                                continue
                        elif op == opf:
                            is_mem = False
                            if slots_fpu == 0:
                                a1 = False
                                continue
                        else:
                            is_mem = False
                            if slots_alu == 0:
                                a1 = False
                                continue

                        fb = fbs1[i]
                        if fb != lfb1:
                            lfb1 = fb
                            iblock = (pcs1[i] >> bshift) | tt1
                            ientries = iset1[iblock & imask1]
                            try:
                                ientries.remove(iblock)
                                ic1.hits += 1
                                ientries.append(iblock)
                            except ValueError:
                                ic1.misses += 1
                                if len(ientries) >= iways1:
                                    del ientries[0]
                                ientries.append(iblock)
                                im1 += 1
                                fe1 = cycle + (
                                    llc_lat if llc1(iblock) else llc_lat_mem
                                )
                                a1 = False
                                continue

                        seq = seq1
                        ready = cycle
                        d = dep1s1[i]
                        if d:
                            r = ring1[(seq - d) & ringmask]
                            if r > ready:
                                ready = r
                        d = dep2s1[i]
                        if d:
                            r = ring1[(seq - d) & ringmask]
                            if r > ready:
                                ready = r

                        if op == opl:
                            ld1 += 1
                            block = (addrs1[i] >> bshift) | tt1
                            entries = dset1[block & dmask1]
                            if entries and entries[-1] == block:
                                dc1.hits += 1
                                hit = True
                            else:
                                try:
                                    entries.remove(block)
                                    dc1.hits += 1
                                    entries.append(block)
                                    hit = True
                                except ValueError:
                                    dc1.misses += 1
                                    if len(entries) >= dways1:
                                        del entries[0]
                                    entries.append(block)
                                    hit = False
                            s = sids1[i]
                            if s != 0 and pf_enabled:
                                addr = addrs1[i]
                                e = pftab1.get(-s)
                                if e is None:
                                    if len(pftab1) >= pfsize1:
                                        pftab1.pop(next(iter(pftab1)))
                                    pftab1[-s] = _PFEntry(-s, addr)
                                else:
                                    stride = addr - e.last_addr
                                    if stride != 0 and stride == e.stride:
                                        if e.confidence < 3:
                                            e.confidence += 1
                                    else:
                                        e.stride = stride
                                        e.confidence = 0
                                    e.last_addr = addr
                                    if e.confidence >= pfthr1 and e.stride != 0:
                                        st_ = e.stride
                                        base_block = addr // pfline1
                                        for k in range(1, pfdeg1 + 1):
                                            blk = (addr + k * st_) // pfline1
                                            if blk != base_block:
                                                pf1.issued += 1
                                                tagged = blk | tt1
                                                if tagged not in dset1[
                                                    tagged & dmask1
                                                ]:
                                                    llc1(tagged)
                                                    dfill1(tagged)
                            if hit:
                                completion = ready + hit_lat
                            else:
                                dm1 += 1
                                latency = (
                                    llc_lat if llc1(block) else llc_lat_mem
                                )
                                if nf1 <= ready and infl1:
                                    stale = [
                                        b for b, f in infl1.items() if f <= ready
                                    ]
                                    for b in stale:
                                        del infl1[b]
                                    nf1 = min(infl1.values(), default=inf_fill)
                                fill = infl1.get(block)
                                if fill is not None:
                                    co1 += 1
                                elif (
                                    len(infl1) < mshr_per_thread
                                    and len(infl0) + len(infl1) < mshr_total
                                ):
                                    fill = ready + latency
                                    infl1[block] = fill
                                    if fill < nf1:
                                        nf1 = fill
                                else:
                                    fill = mshr_acquire(1, block, ready, latency)
                                    nf0 = min(infl0.values(), default=inf_fill)
                                    nf1 = min(infl1.values(), default=inf_fill)
                                completion = fill + hit_lat
                            slots_lsu -= 1
                        elif op == opst:
                            st1 += 1
                            block = (addrs1[i] >> bshift) | tt1
                            entries = dset1[block & dmask1]
                            if entries and entries[-1] == block:
                                dc1.hits += 1
                                hit = True
                            else:
                                try:
                                    entries.remove(block)
                                    dc1.hits += 1
                                    entries.append(block)
                                    hit = True
                                except ValueError:
                                    dc1.misses += 1
                                    if len(entries) >= dways1:
                                        del entries[0]
                                    entries.append(block)
                                    hit = False
                            s = sids1[i]
                            if s != 0 and pf_enabled:
                                addr = addrs1[i]
                                e = pftab1.get(-s)
                                if e is None:
                                    if len(pftab1) >= pfsize1:
                                        pftab1.pop(next(iter(pftab1)))
                                    pftab1[-s] = _PFEntry(-s, addr)
                                else:
                                    stride = addr - e.last_addr
                                    if stride != 0 and stride == e.stride:
                                        if e.confidence < 3:
                                            e.confidence += 1
                                    else:
                                        e.stride = stride
                                        e.confidence = 0
                                    e.last_addr = addr
                                    if e.confidence >= pfthr1 and e.stride != 0:
                                        st_ = e.stride
                                        base_block = addr // pfline1
                                        for k in range(1, pfdeg1 + 1):
                                            blk = (addr + k * st_) // pfline1
                                            if blk != base_block:
                                                pf1.issued += 1
                                                tagged = blk | tt1
                                                if tagged not in dset1[
                                                    tagged & dmask1
                                                ]:
                                                    llc1(tagged)
                                                    dfill1(tagged)
                            if not hit:
                                dm1 += 1
                                llc1(block)
                            completion = ready + lat_st
                            slots_lsu -= 1
                        elif op == opb:
                            completion = ready + lat_br
                            br1 += 1
                            pc = pcs1[i]
                            taken = takens1[i]
                            pci = pc >> 2
                            g_idx = (pci ^ bh1) & bgm1
                            b_idx = pci & bbm1
                            g_ctr = bgsh1[g_idx]
                            b_ctr = bbim1[b_idx]
                            c_idx = pci & bcm1
                            if bcho1[c_idx] >= 2:
                                pred_taken = g_ctr >= 2
                            else:
                                pred_taken = b_ctr >= 2
                            if taken:
                                if g_ctr < 3:
                                    bgsh1[g_idx] = g_ctr + 1
                                if b_ctr < 3:
                                    bbim1[b_idx] = b_ctr + 1
                                g_right = g_ctr >= 2
                                b_right = b_ctr >= 2
                                bh1 = ((bh1 << 1) | 1) & bhmask
                            else:
                                if g_ctr > 0:
                                    bgsh1[g_idx] = g_ctr - 1
                                if b_ctr > 0:
                                    bbim1[b_idx] = b_ctr - 1
                                g_right = g_ctr < 2
                                b_right = b_ctr < 2
                                bh1 = (bh1 << 1) & bhmask
                            if g_right != b_right:
                                ctr = bcho1[c_idx]
                                if g_right:
                                    if ctr < 3:
                                        bcho1[c_idx] = ctr + 1
                                elif ctr > 0:
                                    bcho1[c_idx] = ctr - 1
                            plk1 += 1
                            b1 -= 1
                            slots_alu -= 1
                            if taken:
                                bt_idx = pci & btm1
                                tgt = targets1[i]
                                t_ok = (bbtag1[bt_idx] == pc
                                        and bbtgt1[bt_idx] == tgt)
                                bbtag1[bt_idx] = pc
                                bbtgt1[bt_idx] = tgt
                                if not pred_taken:
                                    pmp1 += 1
                                    mp1 += 1
                                    sq1 = completion
                                elif not t_ok:
                                    pmp1 += 1
                                    mp1 += 1
                                    fe1 = cycle + half_flush
                                    a1 = False
                            elif pred_taken:
                                pmp1 += 1
                                mp1 += 1
                                sq1 = completion
                        elif op == opm:
                            completion = ready + lat_mul
                            slots_mul -= 1
                        elif op == opf:
                            completion = ready + lat_fp
                            slots_fpu -= 1
                        else:
                            completion = ready + lat_alu
                            slots_alu -= 1

                        ring1[seq & ringmask] = completion
                        seq1 = seq + 1
                        ru1 += 1
                        if ru1 > pkr1:
                            pkr1 = ru1
                        rob_total += 1
                        if is_mem:
                            lu1 += 1
                            if lu1 > pkl1:
                                pkl1 = lu1
                            lsq_total += 1
                        app1((completion, is_mem))
                        if elog is not None:
                            elog.append(
                                (1, seq, op, pcs1[i], cycle, ready, completion)
                            )
                        i += 1
                        if i == lim1:
                            if i == len1:
                                i = 0
                            else:
                                lim1 = cur1.refill()
                        i1 = i
                        cons1 += 1
                        dbudget -= 1
                        dispatched_this += 1
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
                        if q0:
                            ne = q0[0][0]
                        if fe0 > cycle and (ne < 0 or fe0 < ne):
                            ne = fe0
                        if sq0 > cycle and (ne < 0 or sq0 < ne):
                            ne = sq0
                        if n2:
                            if q1:
                                ev = q1[0][0]
                                if ne < 0 or ev < ne:
                                    ne = ev
                            if fe1 > cycle and (ne < 0 or fe1 < ne):
                                ne = fe1
                            if sq1 > cycle and (ne < 0 or sq1 < ne):
                                ne = sq1
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
                    if infl0:
                        if cycle < nf0:
                            occ = len(infl0)
                        else:
                            occ = 0
                            for f in infl0.values():
                                if f > cycle:
                                    occ += 1
                            if occ != len(infl0):
                                for b in [
                                    b for b, f in infl0.items() if f <= cycle
                                ]:
                                    del infl0[b]
                                nf0 = min(infl0.values(), default=inf_fill)
                        hist0[occ if occ <= buckets else buckets] += 1
                    else:
                        hist0[0] += 1
                    if n2:
                        if infl1:
                            if cycle < nf1:
                                occ = len(infl1)
                            else:
                                occ = 0
                                for f in infl1.values():
                                    if f > cycle:
                                        occ += 1
                                if occ != len(infl1):
                                    for b in [
                                        b for b, f in infl1.items() if f <= cycle
                                    ]:
                                        del infl1[b]
                                    nf1 = min(infl1.values(), default=inf_fill)
                            hist1[occ if occ <= buckets else buckets] += 1
                        else:
                            hist1[0] += 1
                else:
                    # Batched gap accounting, exactly as a per-cycle loop would:
                    # MLP from piecewise-constant occupancy segments (inlined
                    # mshrs.occupancy_segments), dispatch stalls once per
                    # skipped cycle for pinned threads.
                    skipped = gap - 1
                    if nf0 <= cycle and infl0:
                        stale = [b for b, f in infl0.items() if f <= cycle]
                        for b in stale:
                            del infl0[b]
                        nf0 = min(infl0.values(), default=inf_fill)
                    if infl0:
                        fills = sorted(infl0.values())
                        occ = len(fills)
                        prev = cycle
                        for fill in fills:
                            if fill >= new_cycle:
                                break
                            if fill > prev:
                                hist0[occ if occ <= buckets else buckets] += (
                                    fill - prev
                                )
                                prev = fill
                            occ -= 1
                        if new_cycle > prev:
                            hist0[occ if occ <= buckets else buckets] += (
                                new_cycle - prev
                            )
                    else:
                        hist0[0] += gap
                    if fe0 <= cycle and sq0 <= cycle:
                        if ru0 >= rlim0 or rob_total >= rob_capacity:
                            sr0 += skipped
                        else:
                            op = ops0[i0]
                            if (op == opl or op == opst) and (
                                lu0 >= llim0 or lsq_total >= lsq_capacity
                            ):
                                sl0 += skipped
                    if n2:
                        if nf1 <= cycle and infl1:
                            stale = [b for b, f in infl1.items() if f <= cycle]
                            for b in stale:
                                del infl1[b]
                            nf1 = min(infl1.values(), default=inf_fill)
                        if infl1:
                            fills = sorted(infl1.values())
                            occ = len(fills)
                            prev = cycle
                            for fill in fills:
                                if fill >= new_cycle:
                                    break
                                if fill > prev:
                                    hist1[occ if occ <= buckets else buckets] += (
                                        fill - prev
                                    )
                                    prev = fill
                                occ -= 1
                            if new_cycle > prev:
                                hist1[occ if occ <= buckets else buckets] += (
                                    new_cycle - prev
                                )
                        else:
                            hist1[0] += gap
                        if fe1 <= cycle and sq1 <= cycle:
                            if ru1 >= rlim1 or rob_total >= rob_capacity:
                                sr1 += skipped
                            else:
                                op = ops1[i1]
                                if (op == opl or op == opst) and (
                                    lu1 >= llim1 or lsq_total >= lsq_capacity
                                ):
                                    sl1 += skipped
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
            cur0.index = i0
            cur0.consumed = cons0
            ts0.seq = seq0
            ts0.committed = cm0
            ts0.fe_stall_until = fe0
            ts0.squash_at = sq0
            ts0.ghosts = gh0
            ts0.last_fetch_block = lfb0
            ts0.stall_rob = sr0
            ts0.stall_lsq = sl0
            ts0.branches = br0
            ts0.mispredicts = mp0
            hierarchy.loads[0] = ld0
            hierarchy.stores[0] = st0
            hierarchy.l1d_misses[0] = dm0
            hierarchy.l1i_misses[0] = im0
            mshrs.coalesced[0] = co0
            rob._usage[0] = ru0
            lsq._usage[0] = lu0
            rob.peak_usage[0] = pkr0
            lsq.peak_usage[0] = pkl0
            predictor._history[0] = bh0
            predictor.lookups[0] = plk0
            predictor.mispredictions[0] = pmp0
            if n2:
                cur1.index = i1
                cur1.consumed = cons1
                ts1.seq = seq1
                ts1.committed = cm1
                ts1.fe_stall_until = fe1
                ts1.squash_at = sq1
                ts1.ghosts = gh1
                ts1.last_fetch_block = lfb1
                ts1.stall_rob = sr1
                ts1.stall_lsq = sl1
                ts1.branches = br1
                ts1.mispredicts = mp1
                hierarchy.loads[1] = ld1
                hierarchy.stores[1] = st1
                hierarchy.l1d_misses[1] = dm1
                hierarchy.l1i_misses[1] = im1
                mshrs.coalesced[1] = co1
                rob._usage[1] = ru1
                lsq._usage[1] = lu1
                rob.peak_usage[1] = pkr1
                lsq.peak_usage[1] = pkl1
                predictor._history[1] = bh1
                predictor.lookups[1] = plk1
                predictor.mispredictions[1] = pmp1
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
