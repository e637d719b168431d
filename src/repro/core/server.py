"""Records of one colocated server's closed-loop day.

The loop itself (paper §IV-C, §VI-D) is :func:`repro.api.run_day`: a
one-server fleet day on the exact queueing DES, in which a load curve
drives request arrivals, service times scale with the engaged Stretch
mode's latency-sensitive performance factor, the CPI²-extended monitor
(:func:`~repro.core.monitor.monitor_transition`) or the §IV-D adaptive
policy picks the next window's mode, and batch throughput accrues by mode
(zero while the monitor throttles the co-runner).  This module holds the
per-window record it returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.stretch import StretchMode

__all__ = ["WindowRecord", "ServerTimeline"]


@dataclass(frozen=True)
class WindowRecord:
    """One monitoring window of the closed loop."""

    hour: float
    load_fraction: float
    mode: StretchMode
    tail_latency_ms: float
    qos_violated: bool
    throttled: bool
    batch_uipc: float
    #: Partition scheme the adaptive policy ran ("" under the fixed monitor).
    scheme: str = ""


@dataclass
class ServerTimeline:
    """Full-day trace of the closed loop plus summary metrics."""

    windows: list[WindowRecord] = field(default_factory=list)

    @property
    def violation_rate(self) -> float:
        if not self.windows:
            return 0.0
        return sum(w.qos_violated for w in self.windows) / len(self.windows)

    @property
    def bmode_fraction(self) -> float:
        if not self.windows:
            return 0.0
        return sum(w.mode is StretchMode.B_MODE for w in self.windows) / len(self.windows)

    def batch_throughput_gain(self, baseline_batch_uipc: float) -> float:
        """Mean batch throughput gain versus always-Baseline partitioning."""
        if not self.windows or baseline_batch_uipc <= 0:
            return 0.0
        mean = sum(w.batch_uipc for w in self.windows) / len(self.windows)
        return mean / baseline_batch_uipc - 1.0
