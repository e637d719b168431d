"""Tests for the CPI²-extended Stretch software monitor's transition."""

import pytest

from repro.core.monitor import (
    MODE_ORDER,
    MonitorConfig,
    MonitorState,
    monitor_transition,
)
from repro.core.stretch import StretchMode
from repro.workloads.profiles import QoSSpec

QOS = QoSSpec(target_ms=100.0, percentile=99.0, base_service_ms=5.0)


def fold(tails, q_mode=True, qos=QOS, **config) -> list[tuple]:
    """Feed tail latencies through :func:`monitor_transition`.

    Returns one ``(mode, throttle_corunner, throttle_ordered)`` per window,
    ``mode`` being the mode chosen for the next window.
    """
    config = MonitorConfig(**config)
    state = MonitorState()
    out = []
    for tail in tails:
        state, throttle, ordered = monitor_transition(
            state, tail > qos.target_ms,
            tail <= qos.target_ms * config.engage_fraction,
            config, q_mode,
        )
        out.append((MODE_ORDER[state.mode], throttle, ordered))
    return out


def modes(tails, **kwargs) -> list[StretchMode]:
    return [mode for mode, _, _ in fold(tails, **kwargs)]


class TestConfigValidation:
    def test_engage_fraction_bounds(self):
        with pytest.raises(ValueError):
            MonitorConfig(engage_fraction=1.5)

    def test_window_counts_positive(self):
        with pytest.raises(ValueError):
            MonitorConfig(engage_windows=0)


class TestEngagement:
    def test_starts_in_baseline(self):
        assert MODE_ORDER[MonitorState().mode] is StretchMode.BASELINE

    def test_engages_b_mode_after_streak(self):
        assert modes([20.0] * 3, engage_windows=3) == [
            StretchMode.BASELINE, StretchMode.BASELINE, StretchMode.B_MODE,
        ]

    def test_streak_must_be_consecutive(self):
        # 85 ms is compliant but leaves no slack: it resets the streak.
        tails = [20.0, 20.0, 85.0, 20.0]
        assert modes(tails, engage_windows=3)[-1] is StretchMode.BASELINE

    def test_no_engagement_without_slack(self):
        # Below target, above the engage threshold.
        assert StretchMode.B_MODE not in modes([90.0] * 10, engage_windows=2)


#: Enough slack windows to engage B-mode under the default config.
ENGAGE = [10.0] * MonitorConfig().engage_windows


class TestViolationResponse:
    def test_engaged_prefix(self):
        assert modes(ENGAGE)[-1] is StretchMode.B_MODE

    def test_violation_disengages_b_mode(self):
        # Q-mode provisioned.
        assert modes(ENGAGE + [150.0])[-1] is StretchMode.Q_MODE

    def test_violation_without_q_mode(self):
        assert modes(ENGAGE + [150.0], q_mode=False)[-1] is StretchMode.BASELINE

    def test_persistent_violation_throttles(self):
        # The first violation leaves B-mode, the second orders a throttle.
        out = fold(ENGAGE + [150.0, 150.0], violation_windows_to_throttle=2)
        assert out[-1][1]
        assert sum(ordered for _, _, ordered in out) == 1

    def test_throttle_lasts_configured_windows(self):
        out = fold(
            ENGAGE + [150.0, 150.0, 10.0, 10.0, 10.0],
            violation_windows_to_throttle=1, throttle_windows=3,
        )
        throttles = [throttle for _, throttle, _ in out[len(ENGAGE):]]
        assert throttles == [False, True, True, True, False]


class TestRecovery:
    def test_q_mode_relaxes_to_baseline(self):
        # A violation, then a compliant window without slack.
        assert modes([150.0, 85.0]) == [
            StretchMode.Q_MODE, StretchMode.BASELINE,
        ]

    def test_full_cycle_back_to_b_mode(self):
        tails = [150.0, 10.0, 10.0]
        assert modes(tails, engage_windows=2)[-1] is StretchMode.B_MODE

    def test_b_mode_steps_down_when_slack_shrinks(self):
        # Compliant but tight after an engaged window.
        assert modes([10.0, 85.0], engage_windows=1) == [
            StretchMode.B_MODE, StretchMode.BASELINE,
        ]
