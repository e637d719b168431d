"""Extension (paper §IV-D "Colocation options"): two latency-sensitive threads.

The paper argues Stretch's insight also applies when *both* hardware threads
run latency-sensitive services: if one is at high load and the other at low
load, a skewed configuration preserves the loaded service's QoS; if both are
at low or high load, equal partitioning is the right choice.

This harness quantifies that: for pairs of services it measures both
threads' performance factors under equal partitioning and under a skew
toward thread 0 (the nominally loaded service), and reports the highest
load each configuration keeps QoS-safe for thread 0, using the slack
analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.partitioning import BASELINE, DEFAULT_Q_MODE, PartitionScheme
from repro.experiments.common import (
    Fidelity,
    config_all_shared,
    config_solo,
    pair_uipc,
    solo_uipc,
)
from repro.qos.queueing import ServiceSimulator
from repro.qos.slack import required_performance
from repro.util.tables import format_table
from repro.workloads.registry import get_profile

__all__ = ["TwoServicesResult", "run", "SERVICE_PAIRS"]

SERVICE_PAIRS = (
    ("web_search", "data_serving"),
    ("web_search", "media_streaming"),
    ("data_serving", "web_serving"),
)


@dataclass(frozen=True)
class PairRow:
    loaded: str
    background: str
    equal_factor_loaded: float
    skew_factor_loaded: float
    equal_factor_background: float
    skew_factor_background: float
    equal_safe_load: float
    skew_safe_load: float


@dataclass(frozen=True)
class TwoServicesResult:
    scheme: PartitionScheme
    rows: list[PairRow]

    def row(self, loaded: str, background: str) -> PairRow:
        for row in self.rows:
            if (row.loaded, row.background) == (loaded, background):
                return row
        raise KeyError((loaded, background))

    def format(self) -> str:
        table = format_table(
            ["loaded svc", "background svc", "eq factor", "skew factor",
             "eq safe load", "skew safe load"],
            [
                [r.loaded, r.background, r.equal_factor_loaded,
                 r.skew_factor_loaded, r.equal_safe_load, r.skew_safe_load]
                for r in self.rows
            ],
            float_fmt=".2f",
            title=(
                f"Extension: two latency-sensitive services, skew "
                f"{self.scheme.name} toward the loaded thread"
            ),
        )
        return (
            f"{table}\n"
            "The skewed configuration raises the loaded service's performance "
            "factor, extending the load range it can serve within QoS; the "
            "background (low-load) service absorbs the loss via its slack."
        )


def _max_safe_load(service: ServiceSimulator, factor: float) -> float:
    safe = 0.0
    for step in range(1, 21):
        load = step / 20.0
        if required_performance(service, load, n_requests=5000) <= factor:
            safe = load
        else:
            break
    return safe


# No ``jobs = recorded_jobs(run)`` here: ``run`` feeds the UIPCs it looks
# up into the queueing DES, so a recording pass would run that DES on the
# neutral 1.0 values (2.5 s on a 2-vCPU Xeon) to list ten jobs.  ``run``
# simulates them itself.
def run(
    fidelity: Fidelity | None = None,
    scheme: PartitionScheme = DEFAULT_Q_MODE,
) -> TwoServicesResult:
    """Measure equal vs skewed partitioning for LS+LS colocations."""
    fid = fidelity or Fidelity.from_env()
    base = config_all_shared()
    solo = config_solo()
    rows = []
    for loaded, background in SERVICE_PAIRS:
        loaded_solo = solo_uipc(loaded, solo, fid)
        background_solo = solo_uipc(background, solo, fid)
        eq = pair_uipc(loaded, background, BASELINE.apply(base), fid)
        sk = pair_uipc(loaded, background, scheme.apply(base), fid)
        service = ServiceSimulator(get_profile(loaded).qos, n_workers=8, seed=5)
        eq_factor = min(eq[0] / loaded_solo, 1.0)
        sk_factor = min(sk[0] / loaded_solo, 1.0)
        rows.append(
            PairRow(
                loaded=loaded,
                background=background,
                equal_factor_loaded=eq_factor,
                skew_factor_loaded=sk_factor,
                equal_factor_background=min(eq[1] / background_solo, 1.0),
                skew_factor_background=min(sk[1] / background_solo, 1.0),
                equal_safe_load=_max_safe_load(service, eq_factor),
                skew_safe_load=_max_safe_load(service, sk_factor),
            )
        )
    return TwoServicesResult(scheme=scheme, rows=rows)
