"""Figure 14 / §VI-D: diurnal impact case studies.

Two cluster case studies apply the measured B-mode 56-136 batch gain during
the hours each service's load sits below 85% of peak:

* a Web Search cluster (sub-85% for ~11 hours/day; the paper extrapolates an
  11% B-mode gain into ~5% average cluster throughput over 24 hours);
* a YouTube-style streaming cluster (sub-85% for ~17 hours/day; the paper
  reports ~11% over 24 hours).

The B-mode gains are measured by the SMT simulator for the corresponding
service (Web Search; Media Streaming as the streaming-cluster proxy),
averaged over the 29 batch co-runners.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.partitioning import DEFAULT_B_MODE
from repro.experiments.common import (
    BATCH_WORKLOADS,
    Fidelity,
    config_all_shared,
    pair_uipc,
    recorded_jobs,
)
from repro.qos.diurnal import (
    DiurnalCaseStudy,
    web_search_cluster_load,
    youtube_cluster_load,
)
from repro.util.tables import format_table

__all__ = ["Fig14Result", "run", "jobs"]


@dataclass(frozen=True)
class CaseStudyRow:
    name: str
    bmode_gain: float
    hours_enabled: float
    daily_gain: float


@dataclass(frozen=True)
class Fig14Result:
    """Both cluster case studies."""

    rows: list[CaseStudyRow]

    def row(self, name: str) -> CaseStudyRow:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)

    def format(self) -> str:
        table = format_table(
            ["cluster", "B-mode batch gain", "hours enabled", "daily gain"],
            [[r.name, r.bmode_gain, r.hours_enabled, r.daily_gain] for r in self.rows],
            float_fmt=".3f",
            title="Figure 14 / §VI-D: diurnal case studies (B-mode 56-136, "
                  "threshold 85% of peak)",
        )
        return (
            f"{table}\n"
            f"paper: Web Search ~11 h enabled, ~5%/day; YouTube ~17 h, ~11%/day"
        )


def _measured_bmode_gain(ls: str, fid: Fidelity) -> float:
    base = config_all_shared()
    mode = DEFAULT_B_MODE.apply(base)
    gains = []
    for batch in BATCH_WORKLOADS:
        __, batch_base = pair_uipc(ls, batch, base, fid)
        __, batch_mode = pair_uipc(ls, batch, mode, fid)
        gains.append(batch_mode / batch_base - 1.0)
    return sum(gains) / len(gains)


def run(fidelity: Fidelity | None = None) -> Fig14Result:
    """Regenerate the Figure 14 case studies with measured B-mode gains."""
    fid = fidelity or Fidelity.from_env()
    rows = []
    for name, ls, load_fn in (
        ("web_search_cluster", "web_search", web_search_cluster_load),
        ("youtube_cluster", "media_streaming", youtube_cluster_load),
    ):
        gain = _measured_bmode_gain(ls, fid)
        study = DiurnalCaseStudy(name, bmode_batch_gain=gain)
        rows.append(
            CaseStudyRow(
                name=name,
                bmode_gain=gain,
                hours_enabled=study.hours_enabled(load_fn),
                daily_gain=study.daily_throughput_gain(load_fn),
            )
        )
    return Fig14Result(rows=rows)


jobs = recorded_jobs(run)
