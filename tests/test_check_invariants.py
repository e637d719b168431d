"""Invariant-checker tests: clean runs pass, corrupted state is detected."""

import numpy as np
import pytest

from repro.check.invariants import InvariantChecker, InvariantViolation
from repro.cpu.config import CoreConfig
from repro.cpu.fast_core import FastCore
from repro.cpu.isa import OpClass
from repro.cpu.trace import Trace
from repro.obs.metrics import MetricsRegistry
from repro.workloads.generator import generate_trace
from repro.workloads.registry import get_profile


def _core(**config_kwargs) -> FastCore:
    traces = (
        generate_trace(get_profile("web_search"), 3000, seed=3),
        generate_trace(get_profile("zeusmp"), 3000, seed=4),
    )
    core = FastCore(CoreConfig(**config_kwargs), traces)
    core.checker = InvariantChecker()
    return core


class TestCleanRuns:
    def test_colocated_run_passes_all_invariants(self):
        core = _core()
        core.run(800, warmup_instructions=400, require_all_threads=True)
        assert core.checker.violations == []

    def test_shared_rob_run_passes(self):
        from repro.cpu.config import PartitionPolicy

        core = _core(rob_policy=PartitionPolicy.SHARED)
        core.run(600, warmup_instructions=200)
        assert core.checker.violations == []

    def test_mode_switch_run_passes(self):
        core = _core()
        core.run(400, warmup_instructions=200)
        core.set_partitions((136, 56), (45, 18))
        core.run(400)
        assert core.checker.violations == []

    def test_checked_run_is_bit_identical_to_unchecked(self):
        traces = (
            generate_trace(get_profile("web_search"), 3000, seed=3),
            generate_trace(get_profile("zeusmp"), 3000, seed=4),
        )
        plain = FastCore(CoreConfig(), traces).run(600, warmup_instructions=200)
        checked_core = FastCore(CoreConfig(), traces)
        checked_core.checker = InvariantChecker()
        checked = checked_core.run(600, warmup_instructions=200)
        assert plain == checked


class TestCorruptionDetection:
    """Deliberately corrupt core state and assert the checker catches it."""

    def _settled_core(self) -> FastCore:
        core = _core()
        core.run(200, warmup_instructions=100)
        assert core.checker.violations == []
        return core

    def test_detects_rob_leak(self):
        core = self._settled_core()
        core.rob.allocate(0)  # entry with no in-flight µop behind it
        with pytest.raises(InvariantViolation, match="ROB usage"):
            core.checker.on_cycle(core, core.cycle + 1)

    def test_detects_phantom_rob_entry(self):
        core = self._settled_core()
        core._threads[0].rob_q.append((core.cycle + 50, False))
        with pytest.raises(InvariantViolation, match="ROB usage"):
            core.checker.on_cycle(core, core.cycle + 1)

    def test_detects_lsq_mismatch(self):
        core = self._settled_core()
        # An LSQ entry with no memory µop in flight; keep the ROB law
        # satisfied so the LSQ law is what trips.
        core.lsq.allocate(0)
        with pytest.raises(InvariantViolation, match="LSQ usage"):
            core.checker.on_cycle(core, core.cycle + 1)

    def test_detects_nonmonotonic_clock(self):
        core = self._settled_core()
        with pytest.raises(InvariantViolation, match="clock"):
            core.checker.on_cycle(core, core.cycle - 1)

    def test_detects_mshr_overflow(self):
        core = self._settled_core()
        quota = core.hierarchy.mshrs.per_thread
        core.hierarchy.mshrs._inflight[0] = {
            block: 10**9 for block in range(quota + 1)
        }
        with pytest.raises(InvariantViolation, match="MSHR"):
            core.checker.on_cycle(core, core.cycle + 1)

    def test_detects_cursor_desync(self):
        core = self._settled_core()
        core.checker.on_cycle(core, core.cycle + 1)  # anchor the delta law
        core._threads[0].cursor.consumed += 5  # consumed µops vanish
        with pytest.raises(InvariantViolation, match="consumed"):
            core.checker.on_cycle(core, core.cycle + 2)

    def test_survey_mode_records_instead_of_raising(self):
        registry = MetricsRegistry(enabled=True)
        core = _core()
        core.checker = InvariantChecker(raise_on_violation=False,
                                        registry=registry)
        core.run(200, warmup_instructions=100)
        core.rob.allocate(0)
        core.checker.on_cycle(core, core.cycle + 1)
        assert core.checker.violations
        assert registry.counter("check.invariants.violations").value >= 1
        assert registry.counter("check.invariants.cycles").value > 0


class TestEnvAttach:
    def test_repro_check_env_attaches_checker(self, monkeypatch):
        from repro.obs.sampler import CHECK_ENV, attach_core_observers

        monkeypatch.setenv(CHECK_ENV, "1")
        core = FastCore(
            CoreConfig(),
            (generate_trace(get_profile("web_search"), 2000, seed=3),),
        )
        attach_core_observers(core)
        assert isinstance(core.checker, InvariantChecker)
        core.run(200, warmup_instructions=100)
        assert core.checker.violations == []

    @pytest.mark.parametrize("value", [None, "", "0"])
    def test_unset_or_zero_env_leaves_core_unchecked(self, monkeypatch, value):
        from repro.obs.sampler import CHECK_ENV, attach_core_observers

        if value is None:
            monkeypatch.delenv(CHECK_ENV, raising=False)
        else:
            monkeypatch.setenv(CHECK_ENV, value)
        core = FastCore(
            CoreConfig(),
            (generate_trace(get_profile("web_search"), 2000, seed=3),),
        )
        attach_core_observers(core)
        assert core.checker is None
