"""Figure 12: fetch throttling (front-end control) versus Stretch (back-end).

Fetch throttling grants the batch thread M cycles of fetch priority per
latency-sensitive cycle (1:M), indirectly limiting ROB occupancy; Stretch
partitions the ROB directly.  Paper findings (averages over colocations):

* batch speedup vs equal partitioning: -3% (1:2), ~0% (1:4), +4% (1:8),
  +6% (1:16) — versus +13% for Stretch B-mode 56-136;
* LS slowdown: 10% (1:2), 25% (1:4), 48% (1:8), 68% (1:16) — versus 7% for
  Stretch.  Fetch control cannot keep a miss-clogged thread from holding
  ROB entries, so it trades much more LS performance for much less batch
  gain.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.partitioning import DEFAULT_B_MODE
from repro.experiments.common import (
    BATCH_WORKLOADS,
    Fidelity,
    LS_WORKLOADS,
    config_all_shared,
    config_dynamic_rob,
    pair_uipc,
    recorded_jobs,
)
from repro.util.tables import format_table

__all__ = ["Fig12Result", "run", "jobs", "THROTTLE_RATIOS"]

THROTTLE_RATIOS = (2, 4, 8, 16)


@dataclass(frozen=True)
class Fig12Result:
    """Average LS slowdown / batch speedup per policy and service."""

    #: {policy: {ls: (ls_slowdown, batch_speedup)}}; policies are
    #: "FT 1:2" ... "FT 1:16" and "Stretch".
    by_policy: dict[str, dict[str, tuple[float, float]]]

    def avg_ls_slowdown(self, policy: str) -> float:
        values = [v[0] for v in self.by_policy[policy].values()]
        return sum(values) / len(values)

    def avg_batch_speedup(self, policy: str) -> float:
        values = [v[1] for v in self.by_policy[policy].values()]
        return sum(values) / len(values)

    def format(self) -> str:
        rows = []
        for policy, per_ls in self.by_policy.items():
            for ls, (slowdown, speedup) in per_ls.items():
                rows.append([policy, ls, slowdown, speedup])
        table = format_table(
            ["policy", "service", "LS slowdown", "batch speedup"],
            rows, float_fmt="+.1%",
            title="Figure 12: fetch throttling vs Stretch B-mode 56-136 "
                  "(vs equal partitioning)",
        )
        summary = ", ".join(
            f"{p}: LS {self.avg_ls_slowdown(p):+.0%} / batch "
            f"{self.avg_batch_speedup(p):+.0%}"
            for p in self.by_policy
        )
        return f"{table}\n{summary}"


def run(fidelity: Fidelity | None = None) -> Fig12Result:
    """Regenerate Figure 12 (throttling sweep + Stretch reference)."""
    fid = fidelity or Fidelity.from_env()
    equal = config_all_shared()
    by_policy: dict[str, dict[str, tuple[float, float]]] = {}

    def measure(config) -> dict[str, tuple[float, float]]:
        out = {}
        for ls in LS_WORKLOADS:
            ls_slow, batch_speed = [], []
            for batch in BATCH_WORKLOADS:
                ls_eq, batch_eq = pair_uipc(ls, batch, equal, fid)
                ls_c, batch_c = pair_uipc(ls, batch, config, fid)
                ls_slow.append(1.0 - ls_c / ls_eq)
                batch_speed.append(batch_c / batch_eq - 1.0)
            out[ls] = (
                sum(ls_slow) / len(ls_slow),
                sum(batch_speed) / len(batch_speed),
            )
        return out

    for m in THROTTLE_RATIOS:
        # Fetch throttling operates on a dynamically shared ROB — the paper
        # notes the 1:1 ratio *is* the dynamic-sharing configuration.
        config = replace(
            config_dynamic_rob(), fetch_policy="ratio", fetch_ratio=(1, m)
        )
        by_policy[f"FT 1:{m}"] = measure(config)
    by_policy["Stretch"] = measure(DEFAULT_B_MODE.apply(equal))
    return Fig12Result(by_policy=by_policy)


jobs = recorded_jobs(run)
