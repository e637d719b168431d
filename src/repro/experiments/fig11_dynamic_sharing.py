"""Figure 11: dynamically shared ROB versus equal static partitioning.

With a fully shared ROB under ICOUNT fetch, a latency-sensitive thread can
monopolize entries it does not benefit from, starving ROB-hungry co-runners.
Paper: batch applications lose 8% on average (49% max) relative to equal
partitioning — worst against Data Serving (20% average) — while the
latency-sensitive side gains slightly (4% average, 11% max).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import (
    BATCH_WORKLOADS,
    Fidelity,
    LS_WORKLOADS,
    config_all_shared,
    config_dynamic_rob,
    pair_uipc,
    recorded_jobs,
)
from repro.util.stats import DistributionSummary, summarize
from repro.util.tables import format_table

__all__ = ["Fig11Result", "run", "jobs"]


@dataclass(frozen=True)
class Fig11Result:
    """Per-pair performance change of dynamic sharing vs equal partitioning."""

    #: {ls: [(batch, ls_change, batch_slowdown), ...]}; batch_slowdown > 0
    #: means the batch thread runs slower under dynamic sharing.
    pairs: dict[str, list[tuple[str, float, float]]]

    def batch_summary(self, ls: str) -> DistributionSummary:
        return summarize([b for __, __c, b in self.pairs[ls]])

    def ls_summary(self, ls: str) -> DistributionSummary:
        return summarize([c for __, c, __b in self.pairs[ls]])

    def all_batch_slowdowns(self) -> list[float]:
        return [b for rows in self.pairs.values() for __, __c, b in rows]

    def all_ls_changes(self) -> list[float]:
        return [c for rows in self.pairs.values() for __, c, __b in rows]

    def format(self) -> str:
        rows = []
        for ls in self.pairs:
            batch = self.batch_summary(ls)
            lschg = self.ls_summary(ls)
            rows.append([ls, batch.mean, batch.maximum, lschg.mean, lschg.maximum])
        overall = summarize(self.all_batch_slowdowns())
        ls_overall = summarize(self.all_ls_changes())
        rows.append(["ALL", overall.mean, overall.maximum,
                     ls_overall.mean, ls_overall.maximum])
        table = format_table(
            ["latency-sensitive", "batch slowdown mean", "batch slowdown max",
             "LS change mean", "LS change max"],
            rows, float_fmt="+.1%",
            title="Figure 11: dynamically shared ROB vs equal partitioning",
        )
        return (
            f"{table}\n"
            f"paper: batch -8% avg / -49% max (worst vs Data Serving, -20% avg); "
            f"LS +4% avg / +11% max"
        )


def run(fidelity: Fidelity | None = None) -> Fig11Result:
    """Regenerate Figure 11 over all colocations."""
    fid = fidelity or Fidelity.from_env()
    equal = config_all_shared()
    dynamic = config_dynamic_rob()
    pairs: dict[str, list[tuple[str, float, float]]] = {}
    for ls in LS_WORKLOADS:
        rows = []
        for batch in BATCH_WORKLOADS:
            ls_eq, batch_eq = pair_uipc(ls, batch, equal, fid)
            ls_dyn, batch_dyn = pair_uipc(ls, batch, dynamic, fid)
            rows.append(
                (batch, ls_dyn / ls_eq - 1.0, 1.0 - batch_dyn / batch_eq)
            )
        pairs[ls] = rows
    return Fig11Result(pairs=pairs)


jobs = recorded_jobs(run)
