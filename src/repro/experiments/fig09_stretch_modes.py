"""Figure 9: performance change under asymmetric Stretch configurations.

Every B-mode (64-128 … 32-160) and Q-mode (128-64 … 160-32) partition scheme
runs all 4 x 29 colocations; speedups are normalized to the equally
partitioned baseline.  Paper headlines:

* B-mode 56-136: batch +13% average / +30% max; LS -7% average / -13% worst;
* B-mode 32-160: batch +18% average / +40% max;
* Q-mode 136-56: LS +7% average / +18% max; batch -21% average / -35% worst.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.partitioning import B_MODES, Q_MODES, PartitionScheme
from repro.experiments.common import (
    BATCH_WORKLOADS,
    Fidelity,
    LS_WORKLOADS,
    config_all_shared,
    pair_uipc_many,
    recorded_jobs,
)
from repro.util.stats import DistributionSummary, summarize
from repro.util.tables import format_table
from repro.util.violin import render_violin_row

__all__ = ["Fig9Result", "run", "jobs", "ALL_SCHEMES"]

ALL_SCHEMES: tuple[PartitionScheme, ...] = tuple(B_MODES) + tuple(Q_MODES)


@dataclass(frozen=True)
class Fig9Result:
    """Per-scheme speedup distributions over all colocations."""

    #: {scheme name: [(ls, batch, ls_speedup, batch_speedup), ...]}
    by_scheme: dict[str, list[tuple[str, str, float, float]]]

    def ls_speedups(self, scheme: str) -> list[float]:
        return [s for __, __b, s, __c in self.by_scheme[scheme]]

    def batch_speedups(self, scheme: str) -> list[float]:
        return [c for __, __b, __s, c in self.by_scheme[scheme]]

    def ls_summary(self, scheme: str) -> DistributionSummary:
        return summarize(self.ls_speedups(scheme))

    def batch_summary(self, scheme: str) -> DistributionSummary:
        return summarize(self.batch_speedups(scheme))

    def format(self) -> str:
        rows = []
        for scheme in self.by_scheme:
            ls = self.ls_summary(scheme)
            batch = self.batch_summary(scheme)
            kind = "B" if int(scheme.split("-")[0]) < 96 else "Q"
            rows.append([
                scheme, kind, ls.mean, ls.minimum, batch.mean, batch.maximum,
            ])
        table = format_table(
            ["ROB skew (LS-batch)", "mode", "LS mean", "LS worst",
             "batch mean", "batch best"],
            rows, float_fmt="+.1%",
            title="Figure 9: speedup vs equally partitioned ROB",
        )
        all_values = [
            v
            for scheme in self.by_scheme
            for v in (*self.ls_speedups(scheme), *self.batch_speedups(scheme))
        ]
        lo, hi = min(all_values), max(all_values)
        violins = []
        for scheme in self.by_scheme:
            violins.append(render_violin_row(
                f"{scheme} (LS)", self.ls_speedups(scheme), lo=lo, hi=hi
            ))
            violins.append(render_violin_row(
                f"{scheme} (batch)", self.batch_speedups(scheme), lo=lo, hi=hi
            ))
        table = f"{table}\n" + "\n".join(violins)
        if "56-136" not in self.by_scheme or "136-56" not in self.by_scheme:
            return table
        b = self.batch_summary("56-136")
        l = self.ls_summary("56-136")
        q = self.ls_summary("136-56")
        qb = self.batch_summary("136-56")
        return (
            f"{table}\n"
            f"B-mode 56-136: batch {b.mean:+.1%} avg / {b.maximum:+.1%} max "
            f"(paper: +13% / +30%); LS {l.mean:+.1%} avg / {l.minimum:+.1%} worst "
            f"(paper: -7% / -13%)\n"
            f"Q-mode 136-56: LS {q.mean:+.1%} avg / {q.maximum:+.1%} max "
            f"(paper: +7% / +18%); batch {qb.mean:+.1%} avg / {qb.minimum:+.1%} "
            f"worst (paper: -21% / -35%)"
        )


def run(
    fidelity: Fidelity | None = None,
    schemes: tuple[PartitionScheme, ...] = ALL_SCHEMES,
) -> Fig9Result:
    """Regenerate Figure 9 over the requested partition schemes."""
    fid = fidelity or Fidelity.from_env()
    base = config_all_shared()
    configs = [base] + [scheme.apply(base) for scheme in schemes]
    by_scheme: dict[str, list[tuple[str, str, float, float]]] = {
        scheme.name: [] for scheme in schemes
    }
    for ls in LS_WORKLOADS:
        for batch in BATCH_WORKLOADS:
            values = pair_uipc_many(ls, batch, configs, fid)
            ls_base, batch_base = values[0]
            for scheme, (ls_mode, batch_mode) in zip(schemes, values[1:]):
                by_scheme[scheme.name].append((
                    ls, batch,
                    ls_mode / ls_base - 1.0, batch_mode / batch_base - 1.0,
                ))
    return Fig9Result(by_scheme=by_scheme)


jobs = recorded_jobs(run)
