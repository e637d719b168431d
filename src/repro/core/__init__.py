"""Stretch: software-controlled asymmetric ROB/LSQ partitioning for SMT cores.

This package is the paper's primary contribution (§IV):

* :mod:`repro.core.partitioning` — the design-time provisioned partitioning
  configurations (Baseline, B-modes, Q-modes) expressed as limit-register
  settings over the :class:`~repro.cpu.rob.PartitionedResource` substrate;
* :mod:`repro.core.stretch` — the architecturally exposed control register
  (S/B/Q bits) and the :class:`StretchCore` wrapper that applies mode
  changes (drain + limit reload + pipeline flush) to a simulated SMT core;
* :mod:`repro.core.monitor` — the CPI²-extended software monitor that
  watches a QoS metric (tail latency) and engages B-mode when slack exists,
  falls back to Baseline/Q-mode on violations, and throttles the co-runner
  if violations persist;
* :mod:`repro.core.adaptive` — the §IV-D policy choosing among several
  provisioned B-modes by the measured slack;
* :mod:`repro.core.server` — the per-window records of a colocated
  server's closed-loop day (diurnal load → queueing latency → monitor
  decision → ROB reconfiguration → service/batch performance), which
  :func:`repro.api.run_day` runs as a one-server fleet day.
"""

from repro.core.partitioning import (
    B_MODES,
    BASELINE,
    DEFAULT_B_MODE,
    DEFAULT_Q_MODE,
    Q_MODES,
    PartitionScheme,
)
from repro.core.stretch import ControlRegister, StretchCore, StretchMode
from repro.core.monitor import (
    MonitorConfig,
    MonitorDecision,
    QueueLengthMonitor,
    QueueLengthMonitorConfig,
)
from repro.core.adaptive import AdaptiveDecision, AdaptiveStretchPolicy, SlackBudget
from repro.core.colocation import ColocationPerformance
from repro.core.server import ServerTimeline

__all__ = [
    "BASELINE",
    "B_MODES",
    "Q_MODES",
    "DEFAULT_B_MODE",
    "DEFAULT_Q_MODE",
    "PartitionScheme",
    "ControlRegister",
    "StretchCore",
    "StretchMode",
    "MonitorConfig",
    "MonitorDecision",
    "QueueLengthMonitor",
    "QueueLengthMonitorConfig",
    "AdaptiveStretchPolicy",
    "AdaptiveDecision",
    "SlackBudget",
    "ColocationPerformance",
    "ServerTimeline",
]
