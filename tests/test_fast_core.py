"""FastCore: bit-identity smoke, pinned event logs, event-horizon properties.

The exhaustive equivalence proof lives in the two-way differential sweep
against ``ReferenceCore`` (``tests/test_check_reference.py``); this file
covers the FastCore-specific surface: the per-µop event log (pinned by
digest, since the reference keeps none), the observer wiring (invariant
checker, sampler entry points), and the event-horizon structure itself via
seeded property loops (plain ``repro.util.rng`` seeding — no hypothesis, so
failures replay exactly).
"""

import dataclasses
import hashlib
import json
import random

import pytest

from repro.check.invariants import InvariantChecker, InvariantViolation
from repro.check.reference import ReferenceCore
from repro.cpu import sampling
from repro.cpu.config import CoreConfig
from repro.cpu.fast_core import FastCore
from repro.cpu.sampling import SamplingConfig
from repro.engine.job import SimJob
from repro.util.rng import derive_seed
from repro.workloads.generator import generate_trace
from repro.workloads.registry import get_profile

#: Mixed latency-sensitive / batch pool for the seeded property loops.
POOL = ("mcf", "web_search", "zeusmp", "omnetpp", "gamess", "libquantum")
SPLITS = ((96, 96), (56, 136), (136, 56), (32, 160), (160, 32))


def _traces(rng, n, length=3000):
    names = [rng.choice(POOL) for _ in range(n)]
    return tuple(
        generate_trace(get_profile(name), length,
                       seed=derive_seed(rng.randrange(1 << 20), name, "t", i))
        for i, name in enumerate(names)
    )


def _random_config(rng):
    config = CoreConfig(
        fetch_policy=rng.choice(("icount", "round_robin", "ratio")),
        enable_prefetcher=rng.random() < 0.75,
    )
    return config.with_rob_partition(*rng.choice(SPLITS))


#: SHA-256 of ``json.dumps(core.event_log)`` — the per-µop
#: ``(thread, seq, op, pc, dispatch, ready, completion)`` stream — and its
#: length, for one pair and one solo run (see :func:`_event_log_run`).
#: FastCore and the retired per-cycle legacy loop both produced these
#: digests when they were pinned; ``ReferenceCore`` keeps no event log, so
#: the digests are what compares FastCore's per-µop stream with another
#: loop.
EVENT_LOG_DIGESTS = {
    "pair": (2012, "1e1eff205f7b4ef350960ac9d3b6b3dbb2756ad94e738f2582e81a3e89941606"),
    "solo": (610, "5014136c4a9d08fa9ddca7cae717718dff165395f678c43af3e34d3f166a94a6"),
}


def _event_log_run(case):
    """Run ``case`` on a fresh FastCore with the event log attached."""
    if case == "pair":
        traces = _traces(random.Random(7), 2)
        core = FastCore(CoreConfig().with_rob_partition(56, 136), traces)
        core.event_log = []
        result = core.run(400, warmup_instructions=200,
                          require_all_threads=True)
    else:
        traces = _traces(random.Random(8), 1)
        core = FastCore(CoreConfig().single_thread(48), traces)
        core.event_log = []
        result = core.run(500, warmup_instructions=100)
    return core, result


def _event_log_digest(core):
    log = core.event_log
    return len(log), hashlib.sha256(json.dumps(log).encode()).hexdigest()


class TestEngineSelection:
    """One engine: every entry point builds FastCore, and ``CoreConfig``
    carries no engine choice that could split the result store."""

    def test_default_engine_is_fast(self, monkeypatch):
        """The sampling entry points build FastCore."""
        built = []
        attach = sampling.attach_core_observers

        def spy(core, meta):
            built.append(type(core))
            attach(core, meta)

        monkeypatch.setattr(sampling, "attach_core_observers", spy)
        tiny = SamplingConfig(n_samples=1, warmup_instructions=200,
                              measure_instructions=300, seed=1)
        sampling.sample_solo(get_profile("gamess"),
                             CoreConfig().single_thread(96), tiny)
        sampling.sample_colocation(get_profile("web_search"),
                                   get_profile("zeusmp"), CoreConfig(), tiny)
        assert built == [FastCore, FastCore]

    def test_invalid_config_engine_rejected(self):
        """``CoreConfig`` has no engine field, so any ``engine=`` fails."""
        assert "engine" not in {f.name for f in dataclasses.fields(CoreConfig)}
        with pytest.raises(TypeError):
            CoreConfig(engine="fast")

    def test_engine_excluded_from_config_identity(self):
        """Job keys are built from ``repr(config)``; the dropped engine
        field was never in it, so keys pinned before the field was dropped
        kept addressing the same store entries.  A ``CACHE_VERSION`` bump
        moves every key: refresh these literals then."""
        default = SamplingConfig()
        pair = SimJob.pair("web_search", "zeusmp",
                           CoreConfig().with_rob_partition(56, 136), default)
        solo = SimJob.solo("mcf", CoreConfig().single_thread(96), default)
        assert pair.key == (
            "8caf099ddc847dbe3a70d8b860246e2673ee11ca917702477726a858c526e9a4"
        )
        assert solo.key == (
            "747ed0a0c4a5a433bbba9fdfd1d4d437d389a3b08d54a7d012b8fbdc8793aa93"
        )


class TestBitIdentitySmoke:
    def test_pair_run_identical_with_event_log(self):
        fast, result = _event_log_run("pair")
        traces = _traces(random.Random(7), 2)
        ref = ReferenceCore(CoreConfig().with_rob_partition(56, 136), traces)
        assert result == ref.run(400, warmup_instructions=200,
                                 require_all_threads=True)
        assert fast.cycle == ref.cycle
        assert _event_log_digest(fast) == EVENT_LOG_DIGESTS["pair"]

    def test_solo_run_identical(self):
        rng = random.Random(8)
        traces = _traces(rng, 1)
        fast = FastCore(CoreConfig().single_thread(48), traces)
        ref = ReferenceCore(CoreConfig().single_thread(48), traces)
        assert fast.run(500, warmup_instructions=100) == \
            ref.run(500, warmup_instructions=100)

    @pytest.mark.parametrize("case", sorted(EVENT_LOG_DIGESTS))
    def test_event_log_matches_pinned_digest(self, case):
        core, __ = _event_log_run(case)
        assert _event_log_digest(core) == EVENT_LOG_DIGESTS[case]

    def test_repro_check_attaches_checker_to_fast_core(self, monkeypatch):
        """REPRO_CHECK=1 must reach FastCore through the sampling path."""
        monkeypatch.setenv("REPRO_CHECK", "1")
        from repro.obs.sampler import attach_core_observers

        core = FastCore(CoreConfig(), _traces(random.Random(9), 2))
        attach_core_observers(core, {})
        assert isinstance(core.checker, InvariantChecker)
        result = core.run(300, warmup_instructions=100,
                          require_all_threads=True)
        assert result.cycles > 0
        assert core.checker.violations == []


class TestEventHorizonProperties:
    """Seeded property loops over the event-skipping structure."""

    def test_jumps_never_pass_an_event(self):
        """Every logged jump lands exactly on the earliest pending event."""
        rng = random.Random(derive_seed(42, "fast-core", "jumps"))
        jumps_seen = 0
        for trial in range(8):
            n = 2 if rng.random() < 0.7 else 1
            core = FastCore(_random_config(rng), _traces(rng, n))
            core.jump_log = []
            core.run(300, warmup_instructions=100,
                     require_all_threads=(n == 2))
            for frm, to, events in core.jump_log:
                jumps_seen += 1
                assert to > frm + 1, "logged jump must skip at least one cycle"
                assert events, "a jump must target a pending event"
                assert to == events[0], (
                    f"jump {frm}->{to} does not land on earliest event "
                    f"{events[0]} (horizon {events})"
                )
                assert all(e >= to or e <= frm for e in events), (
                    f"jump {frm}->{to} passed an event inside the gap: {events}"
                )
        assert jumps_seen > 0, "property never exercised a multi-cycle jump"

    def test_mlp_histogram_sums_to_measured_cycles(self):
        """Batched gap accounting must cover every measured cycle exactly."""
        rng = random.Random(derive_seed(42, "fast-core", "mlp"))
        for trial in range(6):
            n = 2 if rng.random() < 0.7 else 1
            config = _random_config(rng)
            traces = _traces(rng, n)
            for cls in (FastCore, ReferenceCore):
                core = cls(config, traces)
                result = core.run(300, warmup_instructions=100,
                                  require_all_threads=(n == 2))
                for thread in result.threads:
                    assert sum(thread.mlp_cycles) == result.cycles, (
                        f"{cls.__name__} thread {thread.thread}: MLP "
                        f"histogram covers {sum(thread.mlp_cycles)} cycles, "
                        f"measured {result.cycles}"
                    )

    def test_jumps_land_on_min_pending_events(self):
        """The loop's inline horizon agrees with `pending_events`."""
        rng = random.Random(derive_seed(42, "fast-core", "horizon"))
        checked = 0
        for trial in range(6):
            n = 2 if rng.random() < 0.5 else 1
            core = FastCore(_random_config(rng), _traces(rng, n))
            # Fresh core: no in-flight work, no events.
            assert core.pending_events(core.cycle) == []
            core.jump_log = []
            # Several windows, so jumps from mid-run states are logged too.
            for window in range(4):
                core.run(60, max_cycles=200_000,
                         require_all_threads=(n == 2))
            for frm, to, events in core.jump_log:
                assert to == min(events), (
                    f"jump {frm}->{to} misses min(pending_events) of {events}"
                )
                checked += 1
        assert checked > 0, "property never exercised a multi-cycle jump"

    def test_checker_rejects_event_passing_jump(self):
        """The generalized multi-cycle jump law actually fires."""
        rng = random.Random(derive_seed(42, "fast-core", "law"))
        core = FastCore(CoreConfig(), _traces(rng, 2))
        core.run(200, warmup_instructions=50, require_all_threads=True)
        checker = InvariantChecker()
        checker.on_cycle(core, core.cycle)
        # Forge a state where an in-flight head completion lies strictly
        # inside the next "jump": the checker must reject it.
        ts = core._threads[0]
        ts.rob_q.appendleft((core.cycle + 2, False))
        core.cycle += 10
        with pytest.raises(InvariantViolation, match="passed thread 0"):
            checker.on_cycle(core, core.cycle)
