"""Per-mode colocation performance model.

Bridges the cycle-level SMT simulator and the request-level QoS loop: for a
given (latency-sensitive, batch) pair it holds the UIPC of both threads under
each provisioned Stretch mode, plus the latency-sensitive workload's
stand-alone full-core UIPC as the normalization reference the paper uses
(:func:`repro.api.measure` measures them).

The closed-loop server simulation then maps modes to service performance
factors (service time inflation) and batch throughput without re-running the
core simulator every monitoring window.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.partitioning import BASELINE, DEFAULT_B_MODE, PartitionScheme
from repro.core.stretch import StretchMode

__all__ = ["ModePerformance", "ColocationPerformance"]


@dataclass(frozen=True)
class ModePerformance:
    """UIPC of both hardware threads under one partition scheme."""

    ls_uipc: float
    batch_uipc: float


@dataclass(frozen=True)
class ColocationPerformance:
    """Measured performance of a colocated pair across Stretch modes."""

    ls_workload: str
    batch_workload: str
    ls_solo_uipc: float
    per_mode: dict[StretchMode, ModePerformance]

    def ls_perf_factor(self, mode: StretchMode) -> float:
        """LS single-thread performance as a fraction of stand-alone full core.

        This is the ``perf_factor`` consumed by the queueing substrate.
        """
        factor = self.per_mode[mode].ls_uipc / self.ls_solo_uipc
        return min(factor, 1.0)

    def batch_speedup(self, mode: StretchMode) -> float:
        """Batch UIPC gain of ``mode`` over Baseline partitioning."""
        baseline = self.per_mode[StretchMode.BASELINE].batch_uipc
        return self.per_mode[mode].batch_uipc / baseline - 1.0

    def interpolate(self, scheme: PartitionScheme) -> ModePerformance:
        """Estimate per-thread UIPC under an arbitrary provisioned scheme.

        Linear interpolation on partition sizes, anchored at the measured
        Baseline (96-96) and B-mode (56-136) points — the profile-two-points,
        interpolate-the-rest strategy production software would use when
        more B-mode configurations are provisioned than were profiled
        (§IV-D "Number of configurations").
        """
        base = self.per_mode[StretchMode.BASELINE]
        bmode = self.per_mode[StretchMode.B_MODE]
        ls_anchor, b_anchor = BASELINE.ls_entries, DEFAULT_B_MODE.ls_entries
        ls_slope = (base.ls_uipc - bmode.ls_uipc) / (ls_anchor - b_anchor)
        batch_slope = (bmode.batch_uipc - base.batch_uipc) / (ls_anchor - b_anchor)
        delta = ls_anchor - scheme.ls_entries  # >0 means deeper than baseline
        return ModePerformance(
            ls_uipc=max(base.ls_uipc - ls_slope * delta, 0.05 * base.ls_uipc),
            batch_uipc=max(base.batch_uipc + batch_slope * delta,
                           0.05 * base.batch_uipc),
        )
