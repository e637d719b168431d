"""Figure 4: per-resource contention for Web Search and its co-runners.

Methodology (paper §III-B): each colocation is simulated with completely
private microarchitectural structures for everything *except* one resource
under study — the ROB, L1-I, L1-D, or branch-prediction structures (BTB +
direction predictor).  Slowdown is measured against stand-alone execution on
a full core.

Paper findings: sharing any single resource costs Web Search generally under
12% (except the L1-D against lbm), while the shared ROB costs over 15% for
15 of the 29 batch co-runners, 31% worst case.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import (
    BATCH_WORKLOADS,
    Fidelity,
    config_share_only,
    config_solo,
    pair_uipc,
    recorded_jobs,
    solo_uipc,
)
from repro.util.stats import DistributionSummary, summarize
from repro.util.tables import format_table

__all__ = ["ResourceContentionResult", "run", "jobs", "RESOURCES"]

RESOURCES = ("rob", "l1i", "l1d", "bp")
_RESOURCE_LABEL = {"rob": "ROB", "l1i": "L1-I", "l1d": "L1-D", "bp": "BTB+BP"}


@dataclass(frozen=True)
class ResourceContentionResult:
    """Per-resource slowdowns for one latency-sensitive service."""

    ls_workload: str
    #: {resource: [(batch, ls_slowdown, batch_slowdown), ...]}
    by_resource: dict[str, list[tuple[str, float, float]]]

    def ls_slowdowns(self, resource: str) -> list[float]:
        return [s for __, s, __b in self.by_resource[resource]]

    def batch_slowdowns(self, resource: str) -> list[float]:
        return [b for __, __s, b in self.by_resource[resource]]

    def ls_summary(self, resource: str) -> DistributionSummary:
        return summarize(self.ls_slowdowns(resource))

    def batch_summary(self, resource: str) -> DistributionSummary:
        return summarize(self.batch_slowdowns(resource))

    def batch_over(self, resource: str, threshold: float) -> int:
        """How many co-runners lose more than ``threshold`` to this resource."""
        return sum(1 for b in self.batch_slowdowns(resource) if b > threshold)

    def format(self) -> str:
        rows = []
        for resource in RESOURCES:
            ls = self.ls_summary(resource)
            batch = self.batch_summary(resource)
            rows.append([
                _RESOURCE_LABEL[resource],
                ls.mean, ls.maximum, batch.mean, batch.maximum,
                str(self.batch_over(resource, 0.15)),
            ])
        table = format_table(
            ["shared resource", "LS mean", "LS max", "batch mean", "batch max",
             "batch >15%"],
            rows, float_fmt=".1%",
            title=(
                f"Figure 4: slowdown when sharing one resource "
                f"({self.ls_workload} vs 29 batch co-runners)"
            ),
        )
        return (
            f"{table}\n"
            f"paper: ROB sharing costs >15% for 15/29 co-runners (31% max); "
            f"Web Search loses <=12% except L1-D vs lbm"
        )


def run(
    fidelity: Fidelity | None = None, ls_workload: str = "web_search"
) -> ResourceContentionResult:
    """Regenerate Figure 4 (share-one-resource-at-a-time) for one service."""
    fid = fidelity or Fidelity.from_env()
    solo = config_solo()
    ls_alone = solo_uipc(ls_workload, solo, fid)
    by_resource: dict[str, list[tuple[str, float, float]]] = {}
    for resource in RESOURCES:
        config = config_share_only(resource)
        rows = []
        for batch in BATCH_WORKLOADS:
            batch_alone = solo_uipc(batch, solo, fid)
            ls_colo, batch_colo = pair_uipc(ls_workload, batch, config, fid)
            rows.append(
                (batch, 1.0 - ls_colo / ls_alone, 1.0 - batch_colo / batch_alone)
            )
        by_resource[resource] = rows
    return ResourceContentionResult(ls_workload=ls_workload, by_resource=by_resource)


jobs = recorded_jobs(run)
