"""Property-based tests on the monitor state machines.

Whatever latency / queue-depth sequence arrives, the monitors must keep
their invariants: legal mode values, bounded throttling, consistent
counters, and no B-mode engagement without an observed-slack streak.  The
latency monitor is :func:`~repro.core.monitor.monitor_transition`, driven
through the ``fold`` helper of ``tests/test_monitor.py``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptive import AdaptiveStretchPolicy
from repro.core.colocation import ColocationPerformance, ModePerformance
from repro.core.monitor import (
    MonitorConfig,
    QueueLengthMonitor,
    QueueLengthMonitorConfig,
)
from repro.core.partitioning import B_MODES
from repro.core.stretch import StretchMode
from repro.workloads.profiles import QoSSpec
from tests.test_monitor import fold

QOS = QoSSpec(target_ms=100.0, percentile=99.0, base_service_ms=8.0)

latencies = st.lists(st.floats(0.0, 500.0), min_size=1, max_size=120)
depths = st.lists(st.floats(0.0, 60.0), min_size=1, max_size=120)


class TestLatencyMonitorProperties:
    @given(latencies)
    @settings(max_examples=80, deadline=None)
    def test_invariants_hold_for_any_sequence(self, seq):
        out = fold(seq, qos=QOS)
        throttle_run = 0
        for mode, throttle, ordered in out:
            assert mode in StretchMode
            if throttle:
                throttle_run += 1
                assert throttle_run <= MonitorConfig().throttle_windows
            else:
                throttle_run = 0
            assert not ordered or throttle
        assert len(out) == len(seq)

    @given(latencies)
    @settings(max_examples=60, deadline=None)
    def test_no_b_mode_without_slack_streak(self, seq):
        config = MonitorConfig(engage_windows=3)
        streak = 0
        for latency, (mode, _, _) in zip(seq, fold(seq, qos=QOS,
                                                   engage_windows=3)):
            if latency <= QOS.target_ms * config.engage_fraction:
                streak += 1
            else:
                streak = 0
            if mode is StretchMode.B_MODE:
                assert streak >= config.engage_windows

    @given(st.lists(st.floats(150.0, 500.0), min_size=5, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_sustained_violations_never_engage_b(self, seq):
        for mode, _, _ in fold(seq, qos=QOS):
            assert mode is not StretchMode.B_MODE

    @given(st.lists(st.floats(0.0, 30.0), min_size=5, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_sustained_slack_settles_in_b(self, seq):
        out = fold(seq, qos=QOS, engage_windows=3)
        assert out[-1][0] is StretchMode.B_MODE
        assert not any(ordered for _, _, ordered in out)


class TestQueueMonitorProperties:
    @given(depths)
    @settings(max_examples=60, deadline=None)
    def test_invariants_hold(self, seq):
        m = QueueLengthMonitor(QueueLengthMonitorConfig())
        for depth in seq:
            decision = m.observe_window(depth)
            assert decision.mode in StretchMode
        assert m.windows_observed == len(seq)


class TestAdaptivePolicyProperties:
    def make_policy(self):
        perf = ColocationPerformance(
            "ls", "batch", ls_solo_uipc=0.6,
            per_mode={
                StretchMode.BASELINE: ModePerformance(0.55, 0.5),
                StretchMode.B_MODE: ModePerformance(0.45, 0.6),
                StretchMode.Q_MODE: ModePerformance(0.58, 0.4),
            },
        )
        return AdaptiveStretchPolicy(QOS, perf, tuple(B_MODES))

    @given(st.floats(0.0, 500.0))
    @settings(max_examples=80, deadline=None)
    def test_decision_always_valid(self, latency):
        decision = self.make_policy().decide(latency)
        assert decision.mode in StretchMode
        assert 8 <= decision.scheme.ls_entries <= 96

    @given(st.floats(0.0, 99.9), st.floats(0.0, 99.9))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_slack(self, a, b):
        """Less observed latency never selects a shallower skew."""
        policy = self.make_policy()
        lo, hi = sorted((a, b))
        deep = policy.decide(lo).scheme
        shallow = policy.decide(hi).scheme
        assert deep.batch_entries >= shallow.batch_entries
