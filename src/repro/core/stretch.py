"""The Stretch hardware-software interface (paper §IV-B/C).

System software controls Stretch through an architecturally exposed control
register holding:

* **S-bit** — engages a Stretch mode when set; Baseline partitioning when
  clear;
* **B/Q-bit** — selects the Batch-boost or QoS-boost configuration.

:class:`StretchCore` binds a control register and the provisioned partition
schemes to a simulated SMT core.  A mode change drains in-flight µops,
reloads the ROB/LSQ limit registers, and flushes both pipelines — the
sequence the paper describes, noting that such switches are infrequent
relative to routine branch-misprediction flushes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.partitioning import (
    BASELINE,
    DEFAULT_B_MODE,
    DEFAULT_Q_MODE,
    PartitionScheme,
)
from repro.cpu.fast_core import FastCore

__all__ = ["StretchMode", "ControlRegister", "StretchCore"]


class StretchMode(enum.Enum):
    """Operating mode selected by the control register."""

    BASELINE = "baseline"
    B_MODE = "b-mode"
    Q_MODE = "q-mode"


@dataclass
class ControlRegister:
    """The architecturally exposed Stretch control bits."""

    s_bit: bool = False
    bq_bit: bool = False  # False selects B-mode, True selects Q-mode

    @property
    def mode(self) -> StretchMode:
        if not self.s_bit:
            return StretchMode.BASELINE
        return StretchMode.Q_MODE if self.bq_bit else StretchMode.B_MODE

    def request(self, mode: StretchMode) -> None:
        """Set the bits to select ``mode``."""
        self.s_bit = mode is not StretchMode.BASELINE
        self.bq_bit = mode is StretchMode.Q_MODE


class StretchCore:
    """A Stretch-capable SMT core: provisioned schemes + control register.

    By convention thread 0 runs the latency-sensitive workload and thread 1
    the batch workload, matching :class:`PartitionScheme` orientation.
    Stretch itself does not require this (§IV-D "Facilitating scheduling");
    the convention only simplifies bookkeeping here.
    """

    def __init__(
        self,
        core: FastCore,
        b_mode: PartitionScheme = DEFAULT_B_MODE,
        q_mode: PartitionScheme | None = DEFAULT_Q_MODE,
    ):
        if core.n_threads != 2:
            raise ValueError("Stretch requires a dual-thread SMT core")
        self.core = core
        self.schemes: dict[StretchMode, PartitionScheme] = {
            StretchMode.BASELINE: BASELINE,
            StretchMode.B_MODE: b_mode,
        }
        # Q-mode is optional (§IV-B); without it, high load uses Baseline.
        if q_mode is not None:
            self.schemes[StretchMode.Q_MODE] = q_mode
        self.control = ControlRegister()
        self.mode_switches = 0
        self._apply(StretchMode.BASELINE)

    @property
    def mode(self) -> StretchMode:
        return self.control.mode

    def scheme_for(self, mode: StretchMode) -> PartitionScheme:
        """The partition scheme a mode resolves to (Q falls back to Baseline)."""
        return self.schemes.get(mode, self.schemes[StretchMode.BASELINE])

    def set_mode(self, mode: StretchMode) -> bool:
        """Request ``mode``; returns True if a reconfiguration occurred.

        Re-requesting the current mode is free — the control register is
        simply rewritten; no drain or flush happens.
        """
        if self.scheme_for(mode) == self.scheme_for(self.control.mode):
            self.control.request(mode)
            return False
        self.control.request(mode)
        self._apply(mode)
        self.mode_switches += 1
        return True

    def _apply(self, mode: StretchMode) -> None:
        scheme = self.scheme_for(mode)
        rob_limits, lsq_limits = scheme.limits(self.core.config)
        if self.core.rob.limits == rob_limits and self.core.lsq.limits == lsq_limits:
            return  # already configured; no drain/flush needed
        self.core.set_partitions(rob_limits, lsq_limits)
