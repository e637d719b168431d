"""Stretch: Balancing QoS and Throughput for Colocated Server Workloads on SMT Cores.

A from-scratch Python reproduction of Margaritov et al., HPCA 2019
(DOI 10.1109/HPCA.2019.00024).

Package map
-----------
* :mod:`repro.core` — the paper's contribution: Stretch partition schemes,
  control register, software monitor, and the closed-loop day's records.
* :mod:`repro.cpu` — the dual-thread SMT out-of-order core timing simulator
  (partitionable ROB/LSQ, shared caches/predictors, MSHRs, prefetcher).
* :mod:`repro.workloads` — statistical workload profiles and the synthetic
  µop-trace generator standing in for CloudSuite and SPEC CPU2006.
* :mod:`repro.qos` — the request-level queueing substrate (latency vs load,
  slack analysis, diurnal case studies).
* :mod:`repro.experiments` — one harness per paper figure/table.
* :mod:`repro.fleet` — the vectorized fleet-scale cluster engine.
* :mod:`repro.service` — the live simulation-as-a-service loop (feeds,
  what-if queries, checkpoint/resume, LDJSON control plane).
* :mod:`repro.scenarios` — declarative adversarial fleet scenarios
  (stragglers, generations, migrations, incidents, flash crowds).
* :mod:`repro.tune` — CRN-paired monitor autotuning against scenario
  portfolios.
* :mod:`repro.api` — the stable facade: :func:`~repro.api.simulate`,
  :func:`~repro.api.measure`, :func:`~repro.api.run_day`,
  :func:`~repro.api.run_fleet`, :func:`~repro.api.serve`,
  :func:`~repro.api.tune_policy`.

Quickstart
----------
>>> from repro import measure, run_fleet
>>> perf = measure("web_search", "zeusmp", fidelity="quick")  # doctest: +SKIP
>>> day = run_fleet("web_search", performance=perf)           # doctest: +SKIP
"""

from repro.api import (
    FleetService,
    measure,
    run_day,
    run_fleet,
    serve,
    simulate,
    tune_policy,
)
from repro.core import (
    B_MODES,
    BASELINE,
    DEFAULT_B_MODE,
    DEFAULT_Q_MODE,
    Q_MODES,
    ColocationPerformance,
    ControlRegister,
    MonitorConfig,
    PartitionScheme,
    StretchCore,
    StretchMode,
)
from repro.cpu.config import CoreConfig
from repro.cpu.sampling import SamplingConfig, mean_uipc, sample_colocation, sample_solo
from repro.workloads import CLOUDSUITE, SPEC2006, all_profiles, get_profile

__version__ = "1.0.0"

__all__ = [
    "BASELINE",
    "B_MODES",
    "Q_MODES",
    "DEFAULT_B_MODE",
    "DEFAULT_Q_MODE",
    "PartitionScheme",
    "StretchCore",
    "StretchMode",
    "MonitorConfig",
    "ControlRegister",
    "ColocationPerformance",
    "CoreConfig",
    "SamplingConfig",
    "sample_solo",
    "sample_colocation",
    "mean_uipc",
    "CLOUDSUITE",
    "SPEC2006",
    "all_profiles",
    "get_profile",
    "simulate",
    "measure",
    "run_day",
    "run_fleet",
    "serve",
    "tune_policy",
    "FleetService",
    "quick_colocation_demo",
]


def quick_colocation_demo(
    ls: str = "web_search", batch: str = "zeusmp", seed: int = 42
) -> dict[str, float]:
    """Tiny end-to-end demo: measure one pair under Baseline/B/Q modes.

    Returns a summary dict with the batch speedup of B-mode and the
    latency-sensitive performance factors per mode.
    """
    perf = measure(ls, batch, n_samples=2, seed=seed)
    return {
        "ls_solo_uipc": perf.ls_solo_uipc,
        "b_mode_batch_speedup": perf.batch_speedup(StretchMode.B_MODE),
        "baseline_ls_factor": perf.ls_perf_factor(StretchMode.BASELINE),
        "b_mode_ls_factor": perf.ls_perf_factor(StretchMode.B_MODE),
        "q_mode_ls_factor": perf.ls_perf_factor(StretchMode.Q_MODE),
    }
