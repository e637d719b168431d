"""Per-mode colocation performance model.

Bridges the cycle-level SMT simulator and the request-level QoS loop: for a
given (latency-sensitive, batch) pair it measures UIPC of both threads under
each provisioned Stretch mode, plus the latency-sensitive workload's
stand-alone full-core UIPC as the normalization reference the paper uses.

The closed-loop server simulation then maps modes to service performance
factors (service time inflation) and batch throughput without re-running the
core simulator every monitoring window.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.partitioning import (  # noqa: F401 (PartitionScheme is API)
    BASELINE,
    DEFAULT_B_MODE,
    DEFAULT_Q_MODE,
    PartitionScheme,
)
from repro.core.stretch import StretchMode
from repro.cpu.config import CoreConfig
from repro.cpu.sampling import SamplingConfig, mean_uipc, sample_colocation, sample_solo
from repro.workloads.profiles import WorkloadProfile

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


def _measure_colocation_performance(
    ls_profile: WorkloadProfile,
    batch_profile: WorkloadProfile,
    base_config: CoreConfig | None = None,
    b_mode: PartitionScheme = DEFAULT_B_MODE,
    q_mode: PartitionScheme | None = DEFAULT_Q_MODE,
    sampling: SamplingConfig = SamplingConfig(),
) -> ColocationPerformance:
    """Simulate the pair under Baseline, B-mode and (optionally) Q-mode."""
    config = base_config or CoreConfig()
    solo = mean_uipc(
        sample_solo(ls_profile, config.single_thread(config.rob_entries), sampling)
    )
    schemes: dict[StretchMode, PartitionScheme] = {
        StretchMode.BASELINE: BASELINE,
        StretchMode.B_MODE: b_mode,
    }
    if q_mode is not None:
        schemes[StretchMode.Q_MODE] = q_mode
    per_mode = {}
    for mode, scheme in schemes.items():
        results = sample_colocation(
            ls_profile, batch_profile, scheme.apply(config), sampling
        )
        per_mode[mode] = ModePerformance(
            ls_uipc=mean_uipc(results, 0), batch_uipc=mean_uipc(results, 1)
        )
    if q_mode is None:
        per_mode[StretchMode.Q_MODE] = per_mode[StretchMode.BASELINE]
    return ColocationPerformance(
        ls_workload=ls_profile.name,
        batch_workload=batch_profile.name,
        ls_solo_uipc=solo,
        per_mode=per_mode,
    )
