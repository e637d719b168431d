"""Figure 10: per-benchmark batch speedup under B-mode 56-136.

For each latency-sensitive service, the 29 batch co-runners' speedups over
the equally partitioned baseline, sorted descending (the paper omits
benchmark names because the sort order differs per service).  Paper: at
least 10 co-runners gain over 15%, two more gain over 10%, the rest 2-9%.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.partitioning import DEFAULT_B_MODE
from repro.experiments.common import (
    BATCH_WORKLOADS,
    Fidelity,
    LS_WORKLOADS,
    config_all_shared,
    pair_uipc,
    recorded_jobs,
)
from repro.util.tables import format_table

__all__ = ["Fig10Result", "run", "jobs"]


@dataclass(frozen=True)
class Fig10Result:
    """Sorted per-co-runner speedups per service (B-mode 56-136)."""

    #: {ls: [(batch, speedup), ...] sorted by descending speedup}
    speedups: dict[str, list[tuple[str, float]]]

    def count_over(self, ls: str, threshold: float) -> int:
        return sum(1 for __, s in self.speedups[ls] if s > threshold)

    def format(self) -> str:
        n = len(BATCH_WORKLOADS)
        rows = []
        for rank in range(n):
            rows.append(
                [str(rank + 1)] + [self.speedups[ls][rank][1] for ls in self.speedups]
            )
        table = format_table(
            ["rank"] + list(self.speedups), rows, float_fmt="+.1%",
            title="Figure 10: batch speedup with B-mode 56-136, sorted per service",
        )
        over15 = {ls: self.count_over(ls, 0.15) for ls in self.speedups}
        return (
            f"{table}\n"
            f"co-runners gaining >15%: {over15} (paper: at least 10 per service)"
        )


def run(fidelity: Fidelity | None = None) -> Fig10Result:
    """Regenerate Figure 10 (B-mode 56-136 per-benchmark speedups)."""
    fid = fidelity or Fidelity.from_env()
    base = config_all_shared()
    mode = DEFAULT_B_MODE.apply(base)
    speedups: dict[str, list[tuple[str, float]]] = {}
    for ls in LS_WORKLOADS:
        rows = []
        for batch in BATCH_WORKLOADS:
            __, batch_base = pair_uipc(ls, batch, base, fid)
            __, batch_mode = pair_uipc(ls, batch, mode, fid)
            rows.append((batch, batch_mode / batch_base - 1.0))
        rows.sort(key=lambda item: -item[1])
        speedups[ls] = rows
    return Fig10Result(speedups=speedups)


jobs = recorded_jobs(run)
