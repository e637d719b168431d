"""Figure 3: slowdown from SMT colocation, per workload class.

Each latency-sensitive service is colocated with each of the 29 SPEC CPU2006
benchmarks on the baseline SMT core (everything shared, ROB equally
partitioned).  Slowdown is IPC degradation versus stand-alone execution on a
full core.  The paper reports latency-sensitive slowdowns of 14% on average
(28% max) and batch slowdowns of 24% on average (46% max).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import (
    BATCH_WORKLOADS,
    Fidelity,
    LS_WORKLOADS,
    config_all_shared,
    config_solo,
    pair_uipc,
    recorded_jobs,
    solo_uipc,
)
from repro.util.stats import DistributionSummary, summarize
from repro.util.tables import format_table
from repro.util.violin import render_violin_row

__all__ = ["Fig3Result", "run", "jobs"]


@dataclass(frozen=True)
class Fig3Result:
    """Per-pair slowdowns, keyed by latency-sensitive service."""

    #: {ls: [(batch, ls_slowdown, batch_slowdown), ...]}
    pairs: dict[str, list[tuple[str, float, float]]]

    def ls_summary(self, ls: str) -> DistributionSummary:
        return summarize([s for __, s, __b in self.pairs[ls]])

    def batch_summary(self, ls: str) -> DistributionSummary:
        return summarize([b for __, __s, b in self.pairs[ls]])

    def all_ls_slowdowns(self) -> list[float]:
        return [s for rows in self.pairs.values() for __, s, __b in rows]

    def all_batch_slowdowns(self) -> list[float]:
        return [b for rows in self.pairs.values() for __, __s, b in rows]

    def format(self) -> str:
        rows = []
        for ls in self.pairs:
            l, b = self.ls_summary(ls), self.batch_summary(ls)
            rows.append([ls, l.mean, l.median, l.maximum, b.mean, b.median, b.maximum])
        ls_all = summarize(self.all_ls_slowdowns())
        bt_all = summarize(self.all_batch_slowdowns())
        rows.append(["ALL", ls_all.mean, ls_all.median, ls_all.maximum,
                     bt_all.mean, bt_all.median, bt_all.maximum])
        table = format_table(
            ["latency-sensitive", "LS mean", "LS med", "LS max",
             "batch mean", "batch med", "batch max"],
            rows, float_fmt=".1%",
            title="Figure 3: colocation slowdown vs stand-alone full core",
        )
        lo = min(min(self.all_ls_slowdowns()), min(self.all_batch_slowdowns()))
        hi = max(max(self.all_ls_slowdowns()), max(self.all_batch_slowdowns()))
        violins = []
        for ls in self.pairs:
            violins.append(render_violin_row(
                f"{ls} (LS)", [s for __, s, __b in self.pairs[ls]], lo=lo, hi=hi
            ))
            violins.append(render_violin_row(
                f"{ls} (batch)", [b for __, __s, b in self.pairs[ls]], lo=lo, hi=hi
            ))
        return (
            f"{table}\n"
            + "\n".join(violins)
            + "\npaper: LS 14% avg / 28% max; batch 24% avg / 46% max"
        )


def run(fidelity: Fidelity | None = None) -> Fig3Result:
    """Regenerate Figure 3 over all 4 x 29 colocations."""
    fid = fidelity or Fidelity.from_env()
    shared = config_all_shared()
    solo = config_solo()
    pairs: dict[str, list[tuple[str, float, float]]] = {}
    for ls in LS_WORKLOADS:
        ls_alone = solo_uipc(ls, solo, fid)
        rows = []
        for batch in BATCH_WORKLOADS:
            batch_alone = solo_uipc(batch, solo, fid)
            ls_colo, batch_colo = pair_uipc(ls, batch, shared, fid)
            rows.append(
                (batch, 1.0 - ls_colo / ls_alone, 1.0 - batch_colo / batch_alone)
            )
        pairs[ls] = rows
    return Fig3Result(pairs=pairs)


jobs = recorded_jobs(run)
