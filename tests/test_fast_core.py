"""FastCore: bit-identity smoke, pinned event logs, event-horizon properties.

The exhaustive equivalence proof lives in the two-way differential sweep
against ``ReferenceCore`` (``tests/test_check_reference.py``); this file
covers the FastCore-specific surface: the per-µop event log (pinned by
digest, since the reference keeps none), the observer wiring (invariant
checker, sampler entry points), the event-horizon structure itself via
seeded property loops (plain ``repro.util.rng`` seeding — no hypothesis, so
failures replay exactly), and the loop expanded from its per-thread
template (bytecode contract, source shown in tracebacks).
"""

import dataclasses
import hashlib
import inspect
import json
import linecache
import random
import traceback

import pytest

from repro.check.invariants import InvariantChecker, InvariantViolation
from repro.check.reference import ReferenceCore
from repro.cpu import sampling
from repro.cpu.config import CoreConfig
from repro.cpu.fast_core import FastCore
from repro.cpu.sampling import SamplingConfig
from repro.engine.job import SimJob
from repro.obs.sampler import IntervalSampler
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


def _sha256(value):
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def _event_log_digest(core):
    log = core.event_log
    return len(log), _sha256(log)


#: One web_search x zeusmp run with a recording checker and a 37-cycle
#: sampler attached, per ``max_cycles``: ``(error text, core.cycle after
#: the run, sha256 of the observer sequence, sha256 of the result)`` (see
#: :func:`_observed_run`).  The error is None when the run finishes, the
#: result None when it raises.
OBSERVER_PROTOCOL = {
    0: (
        "simulation exceeded max_cycles=0 before committing 400 µops per thread",
        7056, "f9f67ec3421bc1b3e1112a83e6870c9ca351ebb813eb069cd4a502d61aed3c3a",
        None,
    ),
    1: (
        "simulation exceeded max_cycles=1 before committing 400 µops per thread",
        7057, "688beb866a533a6fbb4d78a33315443bac2e5dae0d6d1ed063d6407d092aba9f",
        None,
    ),
    10: (
        "simulation exceeded max_cycles=10 before committing 400 µops per thread",
        7093, "c911eaf1aa7cc733eb6d497e9ea9a08d6f3fee7bc2b7a1b9892c33fe6f676c75",
        None,
    ),
    500: (
        "simulation exceeded max_cycles=500 before committing 400 µops per thread",
        7574, "4570262b600949e786e514e7d7de0310ed8c7b3bb8a0ad4465e19971e3f3683a",
        None,
    ),
    None: (
        None,
        16919, "9dc199ef188afd26ea501ad255e3350b29fa88a2083cd3616c0e3dcbdf66fb8d",
        "5ad4aecb3ab2a7149d37ee7b84a295a68810126045ba84e088d14f67d3d59f77",
    ),
}


class _RecordingChecker(InvariantChecker):
    """An invariant checker that logs each call before checking."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    def on_cycle(self, core, cycle):
        self.log.append(("checker", cycle))
        super().on_cycle(core, cycle)


class _RecordingSampler(IntervalSampler):
    """A 37-cycle interval sampler that logs each window edge it takes."""

    def __init__(self, log):
        super().__init__(window_cycles=37)
        self.log = log

    def take(self, core, cycle):
        self.log.append(("sampler", cycle))
        return super().take(core, cycle)


def _observed_run(max_cycles):
    """Run web_search x zeusmp with both recording observers attached.

    The observer sequence is every ``(observer, cycle)`` call in order,
    followed by the sampler's windows, so it also pins the state each
    window saw.
    """
    traces = tuple(
        generate_trace(get_profile(name), 3000,
                       seed=derive_seed(5, "observer-protocol", name))
        for name in ("web_search", "zeusmp")
    )
    core = FastCore(CoreConfig().with_rob_partition(56, 136), traces)
    log = []
    core.checker = _RecordingChecker(log)
    core.sampler = _RecordingSampler(log)
    error = result = None
    try:
        result = core.run(400, warmup_instructions=200, max_cycles=max_cycles,
                          require_all_threads=True)
    except RuntimeError as exc:
        error = str(exc)
    windows = [dataclasses.asdict(w) for w in core.sampler.samples]
    return (
        error,
        core.cycle,
        _sha256([log, windows]),
        None if result is None else _sha256(dataclasses.asdict(result)),
    )


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


class TestObserverProtocol:
    """When the checker and the sampler run, what they see, and where a
    ``max_cycles`` deadline stops the clock."""

    @pytest.mark.parametrize("max_cycles", list(OBSERVER_PROTOCOL))
    def test_observers_and_deadline(self, max_cycles):
        assert _observed_run(max_cycles) == OBSERVER_PROTOCOL[max_cycles]


#: Locals every dispatch slot reads.  CPython encodes a local past slot
#: 255 with an extra ``EXTENDED_ARG`` on every access.
HOT_LOCALS = (
    "cycle", "ready", "op", "is_mem", "seq", "i", "dbudget", "rob_total",
    "lsq_total",
) + tuple(f"{name}{t}" for t in (0, 1)
          for name in ("i", "ru", "lu", "ring", "ops", "fe", "sq"))


class TestExpandedLoop:
    """``_simulate_until`` is expanded from its per-thread template at
    import: the bytecode contract the loop's speed rests on, and the
    expanded source that tracebacks, profilers and ``inspect`` show."""

    def test_no_cell_variables(self):
        # A comprehension or closure over a loop local makes it a cell
        # (``LOAD_DEREF`` on every read) on Python 3.11.
        code = FastCore._simulate_until.__code__
        assert code.co_cellvars == ()
        assert code.co_freevars == ()

    @pytest.mark.parametrize("name", HOT_LOCALS)
    def test_hot_local_below_slot_256(self, name):
        assert FastCore._simulate_until.__code__.co_varnames.index(name) < 256

    def test_no_placeholder_survives(self):
        # An unexpanded ``{o}`` compiles as a set of the name ``o``; one in
        # a string literal would stay in a constant.
        code = FastCore._simulate_until.__code__
        assert "o" not in code.co_varnames + code.co_names
        assert [c for c in code.co_consts
                if isinstance(c, str) and ("{t}" in c or "{o}" in c)] == []

    def test_traceback_shows_the_expanded_line(self):
        core = FastCore(CoreConfig(), _traces(random.Random(3), 2))
        with pytest.raises(RuntimeError) as info:
            core.run(100, max_cycles=0)
        last = traceback.extract_tb(info.value.__traceback__)[-1]
        assert last.name == "_simulate_until"
        assert last.line == "raise RuntimeError("

    def test_source_survives_checkcache(self):
        linecache.checkcache()
        source = inspect.getsource(FastCore._simulate_until)
        assert source.startswith("def _simulate_until(")
        assert "ru1" in source
        assert "{t}" not in source and "{o}" not in source
        assert FastCore._simulate_until.__qualname__ == "FastCore._simulate_until"
