"""Figure 13: Stretch versus (and combined with) ideal software scheduling.

Ideal software scheduling (an upper bound on SMiTe-style contention-aware
placement) is modeled as contention-free shared structures: private L1-I,
L1-D and branch predictors per thread, with the baseline equal ROB
partition.  Stretch is the practical B-mode 56-136 on a fully shared core.
The combination applies the B-mode split on the contention-free core.

Paper: ideal scheduling +8% batch speedup, Stretch +13%, combined +21% —
the techniques are additive because they target different loss sources.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.partitioning import DEFAULT_B_MODE
from repro.experiments.common import (
    BATCH_WORKLOADS,
    Fidelity,
    LS_WORKLOADS,
    config_all_private,
    config_all_shared,
    pair_uipc,
    recorded_jobs,
)
from repro.util.tables import format_table

__all__ = ["Fig13Result", "run", "jobs", "POLICIES"]

POLICIES = ("Ideal Software Scheduling", "Stretch", "Stretch + Ideal Software Scheduling")


@dataclass(frozen=True)
class Fig13Result:
    """Average batch speedup per policy and service (vs shared baseline)."""

    #: {policy: {ls: avg batch speedup}}
    speedups: dict[str, dict[str, float]]

    def average(self, policy: str) -> float:
        values = list(self.speedups[policy].values())
        return sum(values) / len(values)

    def format(self) -> str:
        rows = []
        for ls in LS_WORKLOADS:
            rows.append([ls] + [self.speedups[p][ls] for p in POLICIES])
        rows.append(["Average"] + [self.average(p) for p in POLICIES])
        table = format_table(
            ["service", "ideal sched", "Stretch", "Stretch + ideal"],
            rows, float_fmt="+.1%",
            title="Figure 13: batch speedup vs baseline SMT core",
        )
        return (
            f"{table}\n"
            f"paper: ideal scheduling +8%, Stretch +13%, combined +21%"
        )


def run(fidelity: Fidelity | None = None) -> Fig13Result:
    """Regenerate Figure 13 over all colocations."""
    fid = fidelity or Fidelity.from_env()
    baseline = config_all_shared()
    configs = {
        "Ideal Software Scheduling": config_all_private(),
        "Stretch": DEFAULT_B_MODE.apply(baseline),
        "Stretch + Ideal Software Scheduling": DEFAULT_B_MODE.apply(
            config_all_private()
        ),
    }
    speedups: dict[str, dict[str, float]] = {p: {} for p in POLICIES}
    for ls in LS_WORKLOADS:
        base_batch = {
            batch: pair_uipc(ls, batch, baseline, fid)[1]
            for batch in BATCH_WORKLOADS
        }
        for policy, config in configs.items():
            gains = []
            for batch in BATCH_WORKLOADS:
                __, batch_uipc = pair_uipc(ls, batch, config, fid)
                gains.append(batch_uipc / base_batch[batch] - 1.0)
            speedups[policy][ls] = sum(gains) / len(gains)
    return Fig13Result(speedups=speedups)


jobs = recorded_jobs(run)
