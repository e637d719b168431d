"""Tests for the Stretch control register and core wrapper."""

import pytest

from repro.core.partitioning import DEFAULT_B_MODE, DEFAULT_Q_MODE, PartitionScheme
from repro.core.stretch import ControlRegister, StretchCore, StretchMode
from repro.cpu.config import CoreConfig
from repro.cpu.fast_core import FastCore
from repro.workloads.generator import generate_trace
from repro.workloads.registry import get_profile


def new_core() -> FastCore:
    ws = generate_trace(get_profile("web_search"), 6000, seed=1)
    zm = generate_trace(get_profile("zeusmp"), 6000, seed=1)
    return FastCore(CoreConfig(), (ws, zm))


class TestControlRegister:
    def test_reset_is_baseline(self):
        assert ControlRegister().mode is StretchMode.BASELINE

    def test_s_bit_engages_b_mode(self):
        assert ControlRegister(s_bit=True, bq_bit=False).mode is StretchMode.B_MODE

    def test_bq_bit_selects_q_mode(self):
        assert ControlRegister(s_bit=True, bq_bit=True).mode is StretchMode.Q_MODE

    def test_bq_ignored_without_s(self):
        assert ControlRegister(s_bit=False, bq_bit=True).mode is StretchMode.BASELINE

    def test_request_round_trip(self):
        reg = ControlRegister()
        for mode in StretchMode:
            reg.request(mode)
            assert reg.mode is mode


class TestStretchCore:
    def test_initial_mode_is_baseline(self):
        stretch = StretchCore(new_core())
        assert stretch.mode is StretchMode.BASELINE
        assert stretch.core.rob.limits == (96, 96)

    def test_b_mode_reprograms_limits(self):
        stretch = StretchCore(new_core())
        assert stretch.set_mode(StretchMode.B_MODE)
        assert stretch.core.rob.limits == (56, 136)

    def test_q_mode_reprograms_limits(self):
        stretch = StretchCore(new_core())
        stretch.set_mode(StretchMode.Q_MODE)
        assert stretch.core.rob.limits == (136, 56)

    def test_lsq_follows_rob(self):
        stretch = StretchCore(new_core())
        stretch.set_mode(StretchMode.B_MODE)
        expected = DEFAULT_B_MODE.apply(CoreConfig()).lsq_limits
        assert stretch.core.lsq.limits == expected

    def test_re_request_is_free(self):
        stretch = StretchCore(new_core())
        stretch.set_mode(StretchMode.B_MODE)
        switches = stretch.mode_switches
        assert not stretch.set_mode(StretchMode.B_MODE)
        assert stretch.mode_switches == switches

    def test_mode_switch_counting(self):
        stretch = StretchCore(new_core())
        stretch.set_mode(StretchMode.B_MODE)
        stretch.set_mode(StretchMode.BASELINE)
        stretch.set_mode(StretchMode.Q_MODE)
        assert stretch.mode_switches == 3

    def test_optional_q_mode_falls_back_to_baseline(self):
        stretch = StretchCore(new_core(), q_mode=None)
        stretch.set_mode(StretchMode.Q_MODE)
        assert stretch.core.rob.limits == (96, 96)

    def test_custom_b_mode(self):
        stretch = StretchCore(new_core(), b_mode=PartitionScheme(32, 160))
        stretch.set_mode(StretchMode.B_MODE)
        assert stretch.core.rob.limits == (32, 160)

    def test_requires_two_threads(self):
        trace = generate_trace(get_profile("zeusmp"), 2000, seed=1)
        solo = FastCore(CoreConfig().single_thread(192), (trace,))
        with pytest.raises(ValueError):
            StretchCore(solo)

    def test_execution_across_mode_changes(self):
        stretch = StretchCore(new_core())
        stretch.core.run(300, require_all_threads=True)
        stretch.set_mode(StretchMode.B_MODE)
        result = stretch.core.run(300, require_all_threads=True)
        assert all(t.instructions >= 300 for t in result.threads)
        assert result.threads[1].rob_limit == 136

    def test_scheme_for_q_without_provision(self):
        stretch = StretchCore(new_core(), q_mode=None)
        assert stretch.scheme_for(StretchMode.Q_MODE).is_baseline
