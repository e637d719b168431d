#!/usr/bin/env python3
"""Cluster capacity planning with Stretch enabled.

A capacity planner's question: given a diurnal service, how much
over-provisioning does a Stretch-enabled cluster need?  More headroom means
more QoS safety *and* more slack for B-mode batch throughput — but idle
capacity costs money.  This example sweeps the over-provisioning factor of
a Web Search cluster and reports, per point:

* cluster QoS violation rate (fraction of server-windows over target),
* fraction of server-windows spent in B-mode,
* cluster batch-throughput gain vs an always-Baseline pool.

Usage:  python examples/cluster_capacity.py [batch_workload]
"""

import sys

from repro import StretchMode, get_profile, measure
from repro.api import run_fleet

OVERPROVISION_POINTS = (1.0, 1.1, 1.25, 1.5, 2.0)


def main() -> None:
    batch_name = sys.argv[1] if len(sys.argv) > 1 else "zeusmp"
    ls = get_profile("web_search")
    batch = get_profile(batch_name)

    print(f"Measuring {ls.name} + {batch.name} per-mode performance ...")
    performance = measure(ls, batch, n_samples=3, seed=42)
    baseline_uipc = performance.per_mode[StretchMode.BASELINE].batch_uipc

    print("\nSweeping cluster over-provisioning (4 servers, 20-min windows)\n")
    header = (f"{'overprov':>9} {'violations':>11} {'B-mode time':>12} "
              f"{'batch gain':>11}")
    print(header)
    print("-" * len(header))
    for factor in OVERPROVISION_POINTS:
        day = run_fleet(
            ls, performance=performance, load="web_search", tail="exact",
            n_servers=4, overprovision=factor, seed=17,
            window_minutes=20, requests_per_window=1000,
        )
        print(
            f"{factor:>9.2f} {day.violation_rate:>11.1%} "
            f"{day.bmode_fraction:>12.0%} "
            f"{day.batch_throughput_gain(baseline_uipc):>11.1%}"
        )

    print(
        "\nReading: tight provisioning (1.0x) runs servers near peak — QoS "
        "violations appear and B-mode rarely engages.  Headroom converts "
        "directly into safe B-mode hours, which is how Stretch turns the "
        "cost of over-provisioning back into batch throughput."
    )


if __name__ == "__main__":
    main()
