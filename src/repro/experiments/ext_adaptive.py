"""Extension: multi-B-mode adaptive control over a diurnal day (§IV-D).

The paper provisions one B-mode and suggests that "multiple configurations
... would enable finer-grain control over per-thread performance" at the
cost of "more sophisticated software control".  This harness measures that
trade exactly: the same colocated server runs a 24-hour Web Search diurnal
day (:func:`repro.api.run_day`, seed 11, so both days serve the same
request streams) under

* the two-point monitor (Baseline + the single 56-136 B-mode, optionally
  Q-mode), and
* the adaptive policy choosing among all five provisioned B-modes by the
  measured slack budget,

and reports B-mode residency, QoS violation rate, and daily batch
throughput gain versus an always-Baseline server.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import measure, run_day
from repro.core.adaptive import AdaptiveStretchPolicy
from repro.core.partitioning import B_MODES
from repro.core.stretch import StretchMode
from repro.experiments.common import Fidelity
from repro.util.tables import format_table
from repro.workloads.registry import get_profile

__all__ = ["AdaptiveComparison", "run", "BATCH_CORUNNERS"]

BATCH_CORUNNERS = ("zeusmp", "libquantum", "milc")


@dataclass(frozen=True)
class PolicyDay:
    policy: str
    batch: str
    bmode_fraction: float
    violation_rate: float
    daily_batch_gain: float


@dataclass(frozen=True)
class AdaptiveComparison:
    days: list[PolicyDay]

    def mean_gain(self, policy: str) -> float:
        gains = [d.daily_batch_gain for d in self.days if d.policy == policy]
        return sum(gains) / len(gains)

    def mean_violations(self, policy: str) -> float:
        rates = [d.violation_rate for d in self.days if d.policy == policy]
        return sum(rates) / len(rates)

    def format(self) -> str:
        table = format_table(
            ["policy", "co-runner", "B-mode time", "violations", "daily gain"],
            [[d.policy, d.batch, d.bmode_fraction, d.violation_rate,
              d.daily_batch_gain] for d in self.days],
            float_fmt="+.1%",
            title="Extension: two-point monitor vs adaptive multi-B-mode "
                  "control (Web Search diurnal day)",
        )
        return (
            f"{table}\n"
            f"mean daily batch gain: two-point "
            f"{self.mean_gain('two-point'):+.1%} vs adaptive "
            f"{self.mean_gain('adaptive'):+.1%} "
            f"(violations {self.mean_violations('two-point'):.1%} vs "
            f"{self.mean_violations('adaptive'):.1%})"
        )


def run(fidelity: Fidelity | None = None) -> AdaptiveComparison:
    fid = fidelity or Fidelity.from_env()
    ls = get_profile("web_search")
    days: list[PolicyDay] = []
    for batch_name in BATCH_CORUNNERS:
        performance = measure(ls, batch_name, fidelity=fid)
        baseline_uipc = performance.per_mode[StretchMode.BASELINE].batch_uipc

        adaptive = AdaptiveStretchPolicy(ls.qos, performance, tuple(B_MODES))
        for name, policy in (("two-point", None), ("adaptive", adaptive)):
            day = run_day(
                ls, performance=performance, load="web_search",
                adaptive=policy, window_minutes=15, requests_per_window=1200,
                seed=11,
            )
            days.append(PolicyDay(
                policy=name,
                batch=batch_name,
                bmode_fraction=day.bmode_fraction,
                violation_rate=day.violation_rate,
                daily_batch_gain=day.batch_throughput_gain(baseline_uipc),
            ))
    return AdaptiveComparison(days=days)
