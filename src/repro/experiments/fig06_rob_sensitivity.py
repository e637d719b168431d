"""Figure 6: sensitivity to ROB capacity (isolated execution).

Each workload runs alone on a core whose ROB varies from 16 to 192 entries
(the LSQ scales proportionally); performance is normalized to the 192-entry
point.  The paper's findings: latency-sensitive services reach 90-95% of
peak with half the ROB and lose at most ~23% at 48 entries, while batch
workloads lose 19% on average (31% max) at 96 entries, recovering to ~4%
at 160.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import (
    BATCH_WORKLOADS,
    Fidelity,
    LS_WORKLOADS,
    config_solo,
    recorded_jobs,
    solo_uipc_many,
)
from repro.util.chart import render_chart
from repro.util.tables import format_table

__all__ = ["Fig6Result", "run", "jobs", "ROB_SIZES"]

ROB_SIZES = [16, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192]

#: The paper plots zeusmp as its high-sensitivity batch exemplar.
HIGHLIGHT_BATCH = "zeusmp"


@dataclass(frozen=True)
class Fig6Result:
    """Normalized slowdown curves per series."""

    #: {series name: {rob size: slowdown vs 192 entries}}
    curves: dict[str, dict[int, float]]

    def slowdown(self, series: str, rob: int) -> float:
        return self.curves[series][rob]

    def format(self) -> str:
        header = ["ROB"] + list(self.curves)
        rows = [
            [str(size)] + [self.curves[series][size] for series in self.curves]
            for size in ROB_SIZES
        ]
        table = format_table(
            header, rows, float_fmt=".1%",
            title="Figure 6: slowdown vs a 192-entry ROB (isolated cores)",
        )
        chart = render_chart(
            {name: [curve[size] for size in ROB_SIZES]
             for name, curve in self.curves.items()},
            x_labels=[str(size) for size in ROB_SIZES],
            y_fmt=".0%",
        )
        table = f"{table}\n{chart}"
        avg96 = self.curves["batch (avg)"][96]
        avg160 = self.curves["batch (avg)"][160]
        return (
            f"{table}\n"
            f"batch avg at 96 entries: {avg96:.1%} (paper: 19%), at 160: "
            f"{avg160:.1%} (paper: 4%); zeusmp at 96: "
            f"{self.curves[HIGHLIGHT_BATCH][96]:.1%} (paper: ~31% worst case)"
        )


def run(fidelity: Fidelity | None = None) -> Fig6Result:
    """Regenerate Figure 6: ROB sweeps for LS workloads, batch avg, zeusmp."""
    fid = fidelity or Fidelity.from_env()
    configs = [config_solo(size) for size in ROB_SIZES]

    def curve(workload: str) -> dict[int, float]:
        values = dict(zip(ROB_SIZES, solo_uipc_many(workload, configs, fid)))
        reference = values[192]
        return {
            size: 1.0 - values[size] / reference for size in ROB_SIZES
        }

    curves: dict[str, dict[int, float]] = {}
    for name in LS_WORKLOADS:
        curves[name] = curve(name)
    batch_curves = {name: curve(name) for name in BATCH_WORKLOADS}
    curves["batch (avg)"] = {
        size: sum(c[size] for c in batch_curves.values()) / len(batch_curves)
        for size in ROB_SIZES
    }
    curves[HIGHLIGHT_BATCH] = batch_curves[HIGHLIGHT_BATCH]
    return Fig6Result(curves=curves)


jobs = recorded_jobs(run)
