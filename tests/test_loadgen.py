"""Tests for parametric load patterns."""

import pytest

from repro.api import run_day
from repro.core.colocation import ColocationPerformance, ModePerformance
from repro.core.stretch import StretchMode
from repro.qos.loadgen import (
    clamp,
    compose_max,
    constant,
    flash_crowd,
    sinusoidal,
    step,
)
from repro.workloads.registry import get_profile


class TestPatterns:
    def test_constant(self):
        fn = constant(0.4)
        assert fn(0) == fn(12.7) == 0.4

    def test_constant_bounds(self):
        with pytest.raises(ValueError):
            constant(1.5)

    def test_step(self):
        fn = step(0.2, 0.9, at_hour=8.0)
        assert fn(7.99) == 0.2
        assert fn(8.0) == 0.9
        assert fn(23.0) == 0.9
        assert fn(24.5) == 0.2  # wraps into the next day

    def test_flash_crowd_shape(self):
        fn = flash_crowd(base=0.3, peak=1.0, at_hour=12.0, decay_hours=1.0)
        assert fn(11.0) == pytest.approx(0.3)
        assert fn(12.0) == pytest.approx(1.0)
        assert 0.3 < fn(13.0) < 1.0
        assert fn(18.0) == pytest.approx(0.3, abs=0.01)

    def test_flash_crowd_validation(self):
        with pytest.raises(ValueError):
            flash_crowd(base=0.8, peak=0.5, at_hour=3)

    def test_sinusoidal_peak_position(self):
        fn = sinusoidal(mean=0.6, amplitude=0.3, peak_hour=14.0)
        assert fn(14.0) == pytest.approx(0.9)
        assert fn(2.0) == pytest.approx(0.3)

    def test_sinusoidal_validation(self):
        with pytest.raises(ValueError):
            sinusoidal(mean=0.2, amplitude=0.5)

    def test_compose_max(self):
        fn = compose_max([constant(0.3), flash_crowd(0.0, 1.0, at_hour=6.0)])
        assert fn(0.0) == pytest.approx(0.3)
        assert fn(6.0) == pytest.approx(1.0)

    def test_compose_requires_input(self):
        with pytest.raises(ValueError):
            compose_max([])

    def test_clamp(self):
        fn = clamp(step(-0.5, 1.5, at_hour=12.0))
        assert fn(3.0) == 0.0
        assert fn(13.0) == 1.0
        with pytest.raises(ValueError):
            clamp(constant(0.5), lo=0.9, hi=0.1)


class TestClosedLoopWithPatterns:
    def run_day(self, load, **kwargs):
        performance = ColocationPerformance(
            ls_workload="web_search", batch_workload="zeusmp",
            ls_solo_uipc=0.6,
            per_mode={
                StretchMode.BASELINE: ModePerformance(0.52, 0.50),
                StretchMode.B_MODE: ModePerformance(0.46, 0.58),
                StretchMode.Q_MODE: ModePerformance(0.58, 0.40),
            },
        )
        return run_day(
            get_profile("web_search"), performance=performance, load=load,
            seed=13, **kwargs,
        )

    def test_flash_crowd_forces_mode_retreat(self):
        """A spike mid-day pulls the server out of B-mode."""
        fn = compose_max([constant(0.25),
                          flash_crowd(0.0, 1.05, at_hour=12.0, decay_hours=2.0)])
        timeline = self.run_day(
            clamp(fn, hi=1.1), window_minutes=30, requests_per_window=600
        )
        before = [w for w in timeline.windows if 8 <= w.hour < 11.5]
        during = [w for w in timeline.windows if 12 <= w.hour < 13.5]
        b_before = sum(w.mode is StretchMode.B_MODE for w in before) / len(before)
        b_during = sum(w.mode is StretchMode.B_MODE for w in during) / len(during)
        assert b_before > b_during
