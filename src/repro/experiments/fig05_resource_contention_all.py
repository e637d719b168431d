"""Figure 5: average per-resource contention for all four services.

Extends the Figure 4 study to Data Serving, Web Serving, Web Search and
Media Streaming, reporting the average slowdown attributable to each shared
resource.  The paper's headline: no single resource hurts the
latency-sensitive side much (except L1-D against lbm), while the ROB is the
consistent batch bottleneck — 19% average, 31% worst case.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import Fidelity, LS_WORKLOADS, recorded_jobs
from repro.experiments.fig04_resource_contention import (
    RESOURCES,
    ResourceContentionResult,
    run as run_fig04,
)
from repro.util.tables import format_table

__all__ = ["Fig5Result", "run", "jobs"]


@dataclass(frozen=True)
class Fig5Result:
    """Figure 4-style results for every latency-sensitive service."""

    per_service: dict[str, ResourceContentionResult]

    def avg_batch_slowdown(self, resource: str) -> float:
        values = [
            r.batch_summary(resource).mean for r in self.per_service.values()
        ]
        return sum(values) / len(values)

    def avg_ls_slowdown(self, resource: str) -> float:
        values = [r.ls_summary(resource).mean for r in self.per_service.values()]
        return sum(values) / len(values)

    def max_batch_slowdown(self, resource: str) -> float:
        return max(
            r.batch_summary(resource).maximum for r in self.per_service.values()
        )

    def format(self) -> str:
        rows = []
        for service, result in self.per_service.items():
            for resource in RESOURCES:
                rows.append([
                    service,
                    resource.upper(),
                    result.ls_summary(resource).mean,
                    result.batch_summary(resource).mean,
                ])
        table = format_table(
            ["service", "shared", "LS avg slowdown", "batch avg slowdown"],
            rows, float_fmt=".1%",
            title="Figure 5: average slowdown per shared resource",
        )
        return (
            f"{table}\n"
            f"ROB batch average across services: "
            f"{self.avg_batch_slowdown('rob'):.1%} (paper: 19%), worst "
            f"{self.max_batch_slowdown('rob'):.1%} (paper: 31%)"
        )


def run(fidelity: Fidelity | None = None) -> Fig5Result:
    """Regenerate Figure 5 (Figure 4 across all four services)."""
    fid = fidelity or Fidelity.from_env()
    per_service = {
        name: run_fig04(fid, ls_workload=name) for name in LS_WORKLOADS
    }
    return Fig5Result(per_service=per_service)


jobs = recorded_jobs(run)
