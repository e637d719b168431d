"""Per-cycle conservation laws for the SMT core (`InvariantChecker`).

The core's hot loop trades clarity for speed (ring-buffer dataflow, idle
fast-forward, interleaved dispatch slots), so its bookkeeping — usage
registers, in-flight queues, trace cursors — is updated in several places
per cycle.  The checker re-derives each quantity from an independent source
after every simulated cycle and asserts they agree:

* **ROB accounting** — ``rob.usage(t) == len(rob_q) + ghosts``: every
  allocated entry is either an in-flight µop awaiting commit or a
  wrong-path ghost awaiting squash.
* **LSQ ⊆ ROB** — ``lsq.usage(t)`` equals the number of memory µops in the
  ROB queue and never exceeds ``rob.usage(t)`` (ghosts never hold LSQ
  entries).
* **Capacity conservation** — ``total_usage == sum(usage)`` and
  ``usage(t) <= limit(t)`` for both structures.
* **Monotonic clock** — the cycle counter only moves forward.
* **Event-respecting jumps** — a multi-cycle clock advance (a FastCore
  event-horizon jump) never passes an enabling event: no ROB-head
  completion, front-end refill or squash resolution may lie strictly
  inside the skipped span.
* **Cursor progress** — committed + in-flight (non-ghost) µops account for
  every µop consumed from the trace; nothing is lost or double-counted
  across fast-forwards and squashes.
* **MSHR quotas** — per-thread occupancy never exceeds ``per_thread`` and
  the file never exceeds ``total``.

Attach with ``core.checker = InvariantChecker()`` (or set ``REPRO_CHECK=1``
and let :func:`repro.obs.sampler.attach_core_observers` do it, including in
engine pool workers).  A detached checker costs the core one ``is None``
test per cycle; an attached one costs a few hundred nanoseconds per cycle,
so it is for tests, CI, and debugging — not production sweeps.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry, get_registry

__all__ = ["CHECK_ENV", "InvariantChecker", "InvariantViolation"]

#: Environment variable that opts a process (and its pool workers) into
#: invariant checking; read by :func:`repro.obs.sampler.attach_core_observers`.
CHECK_ENV = "REPRO_CHECK"


class InvariantViolation(AssertionError):
    """A per-cycle conservation law failed.

    Subclasses :class:`AssertionError` so differential/CI harnesses that
    treat assertion failures as test failures catch it for free.
    """


class InvariantChecker:
    """Asserts the SMT core's conservation laws after every cycle.

    Parameters
    ----------
    raise_on_violation:
        When True (default) the first violation raises
        :class:`InvariantViolation`.  When False, violations are only
        counted/recorded — useful for surveying a long run.
    registry:
        Metrics registry receiving the ``check.invariants.cycles`` and
        ``check.invariants.violations`` counters.  Defaults to the
        process-wide registry (a no-op unless observability is enabled).
    """

    def __init__(
        self,
        raise_on_violation: bool = True,
        registry: MetricsRegistry | None = None,
    ):
        self.raise_on_violation = raise_on_violation
        registry = registry if registry is not None else get_registry()
        self._cycles = registry.counter("check.invariants.cycles")
        self._violations = registry.counter("check.invariants.violations")
        self.violations: list[str] = []
        # Previous-cycle snapshot for the delta laws (clock, cursor
        # progress); lazily initialized so the checker can be attached to a
        # core in any state, including mid-run.
        self._prev_cycle: int | None = None
        self._prev_progress: list[int] | None = None

    # ------------------------------------------------------------------

    def _fail(self, core, cycle: int, message: str) -> None:
        detail = f"cycle {cycle}: {message}"
        self.violations.append(detail)
        self._violations.inc()
        if self.raise_on_violation:
            raise InvariantViolation(f"{core.__class__.__name__} @ {detail}")

    def on_cycle(self, core, cycle: int) -> None:
        """Verify every invariant against the core's current state."""
        self._cycles.inc()
        fail = self._fail

        # Monotonic clock.
        prev_cycle = self._prev_cycle
        if prev_cycle is not None and cycle <= prev_cycle:
            fail(core, cycle, f"clock moved from {prev_cycle} to {cycle}")
        self._prev_cycle = cycle

        rob, lsq = core.rob, core.lsq
        threads = core._threads
        n = core.n_threads

        # Multi-cycle jumps (FastCore's event-horizon skips) may only land
        # *on* the next enabling event, never beyond it: after a jump from
        # ``prev_cycle`` to ``cycle`` no ROB-head completion (commit is
        # in-order, so only the head enables progress), front-end refill or
        # squash resolution may lie strictly inside the skipped span — each
        # would have changed the machine state mid-jump.  Sampler window
        # edges are deliberately not a law here: stopping at one is
        # timing-neutral, so they bound jumps only to keep windows exact
        # (FastCore clamps its jump at the edge; ReferenceCore never jumps).
        if prev_cycle is not None and cycle > prev_cycle + 1:
            for t in range(n):
                ts = threads[t]
                if ts.rob_q and prev_cycle < ts.rob_q[0][0] < cycle:
                    fail(
                        core, cycle,
                        f"jump {prev_cycle}->{cycle} passed thread {t} "
                        f"head completion at {ts.rob_q[0][0]}",
                    )
                if prev_cycle < ts.fe_stall_until < cycle:
                    fail(
                        core, cycle,
                        f"jump {prev_cycle}->{cycle} passed thread {t} "
                        f"front-end refill at {ts.fe_stall_until}",
                    )
                if prev_cycle < ts.squash_at < cycle:
                    fail(
                        core, cycle,
                        f"jump {prev_cycle}->{cycle} passed thread {t} "
                        f"squash resolution at {ts.squash_at}",
                    )

        rob_sum = 0
        lsq_sum = 0
        progress = []
        for t in range(n):
            ts = threads[t]
            rob_usage = rob.usage(t)
            lsq_usage = lsq.usage(t)
            rob_sum += rob_usage
            lsq_sum += lsq_usage

            # ROB accounting: in-flight µops + wrong-path ghosts.
            expected_rob = len(ts.rob_q) + ts.ghosts
            if rob_usage != expected_rob:
                fail(
                    core, cycle,
                    f"thread {t} ROB usage {rob_usage} != "
                    f"{len(ts.rob_q)} in-flight + {ts.ghosts} ghosts",
                )

            # LSQ ⊆ ROB: memory µops in the queue hold the LSQ entries.
            mem_inflight = sum(1 for __, is_mem in ts.rob_q if is_mem)
            if lsq_usage != mem_inflight:
                fail(
                    core, cycle,
                    f"thread {t} LSQ usage {lsq_usage} != "
                    f"{mem_inflight} memory µops in flight",
                )
            if lsq_usage > rob_usage:
                fail(
                    core, cycle,
                    f"thread {t} LSQ usage {lsq_usage} exceeds ROB usage {rob_usage}",
                )

            # Limit registers are never overrun.
            if rob_usage > rob.limits[t]:
                fail(core, cycle,
                     f"thread {t} ROB usage {rob_usage} > limit {rob.limits[t]}")
            if lsq_usage > lsq.limits[t]:
                fail(core, cycle,
                     f"thread {t} LSQ usage {lsq_usage} > limit {lsq.limits[t]}")

            # Cursor progress: committed + in-flight (non-ghost) µops must
            # account for every µop consumed from the trace.  Compared as a
            # delta so measurement-window resets (which rebase
            # ``ts.committed``) re-anchor instead of firing.
            progress.append(
                (ts.cursor.consumed, ts.committed + len(ts.rob_q))
            )

            # MSHR quotas.
            occ = core.hierarchy.mshrs.occupancy(t, cycle)
            if occ > core.hierarchy.mshrs.per_thread:
                fail(
                    core, cycle,
                    f"thread {t} MSHR occupancy {occ} exceeds per-thread "
                    f"quota {core.hierarchy.mshrs.per_thread}",
                )

        # Capacity conservation across threads.
        if rob.total_usage != rob_sum:
            fail(core, cycle,
                 f"ROB total_usage {rob.total_usage} != sum of usages {rob_sum}")
        if lsq.total_usage != lsq_sum:
            fail(core, cycle,
                 f"LSQ total_usage {lsq.total_usage} != sum of usages {lsq_sum}")
        if rob.total_usage > rob.capacity:
            fail(core, cycle,
                 f"ROB total_usage {rob.total_usage} exceeds capacity {rob.capacity}")
        if lsq.total_usage > lsq.capacity:
            fail(core, cycle,
                 f"LSQ total_usage {lsq.total_usage} exceeds capacity {lsq.capacity}")

        total_occ = core.hierarchy.mshrs.total_occupancy(cycle)
        if total_occ > core.hierarchy.mshrs.total:
            fail(core, cycle,
                 f"MSHR file occupancy {total_occ} exceeds capacity "
                 f"{core.hierarchy.mshrs.total}")

        # Delta form of the cursor-progress law: µops consumed since the
        # last check equal µops that entered the accounted set (committed +
        # in flight).  A drop in the accounted set (stats reset rebasing
        # ``committed`` to 0) re-anchors the baseline.
        if self._prev_progress is not None and len(self._prev_progress) == n:
            for t in range(n):
                prev_consumed, prev_accounted = self._prev_progress[t]
                consumed, accounted = progress[t]
                d_consumed = consumed - prev_consumed
                d_accounted = accounted - prev_accounted
                if d_accounted < 0:
                    # committed was rebased (new measurement window);
                    # re-anchor silently.
                    continue
                if d_consumed != d_accounted:
                    fail(
                        core, cycle,
                        f"thread {t} consumed {d_consumed} µops but accounted "
                        f"set grew by {d_accounted} (committed + in-flight)",
                    )
        self._prev_progress = progress

    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Forget the previous-cycle snapshot and recorded violations."""
        self._prev_cycle = None
        self._prev_progress = None
        self.violations.clear()
