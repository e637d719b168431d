"""Performance-slack analysis (paper §II, Figure 2).

*Slack* is the amount of single-thread performance a latency-sensitive
service can give up while still meeting its tail-latency target at a given
load.  The paper measures it on real hardware by modulating core performance
with Elfen-style fine-grained time multiplexing: a non-contentious co-runner
is interleaved at sub-millisecond granularity, so the service effectively
receives a programmable duty cycle of the core.

We reproduce the same experiment against the queueing substrate:
:class:`DutyCycleModulator` maps a duty cycle to an effective performance
factor (interleaving at sub-millisecond granularity is orders of magnitude
below the latency targets, so the mapping is nearly proportional, minus a
small context-switch overhead), and :func:`required_performance` bisects for
the smallest factor that still meets QoS.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.qos.queueing import ServiceSimulator
from repro.workloads.profiles import WorkloadProfile

__all__ = ["DutyCycleModulator", "required_performance", "slack_curve"]


@dataclass(frozen=True)
class DutyCycleModulator:
    """Elfen-style fine-grain time multiplexing of a core.

    ``switch_overhead`` is the fraction of each borrowed quantum lost to the
    lender/borrower switch (Elfen reports sub-microsecond switches against
    ~100 µs quanta, hence the small default).
    """

    switch_overhead: float = 0.02

    def __post_init__(self) -> None:
        if not 0.0 <= self.switch_overhead < 0.5:
            raise ValueError("switch_overhead must be in [0, 0.5)")

    def performance(self, duty_cycle: float) -> float:
        """Effective performance factor for a given duty cycle in (0, 1]."""
        if not 0.0 < duty_cycle <= 1.0:
            raise ValueError("duty cycle must be in (0, 1]")
        if duty_cycle >= 1.0:
            return 1.0
        return duty_cycle * (1.0 - self.switch_overhead)

    def duty_for_performance(self, perf_factor: float) -> float:
        """Smallest duty cycle delivering at least ``perf_factor``."""
        if not 0.0 < perf_factor <= 1.0:
            raise ValueError("perf_factor must be in (0, 1]")
        if perf_factor >= 1.0 - self.switch_overhead:
            return 1.0
        return min(1.0, perf_factor / (1.0 - self.switch_overhead))


def required_performance(
    service: ServiceSimulator,
    load_fraction: float,
    n_requests: int = 20000,
    tolerance: float = 0.01,
) -> float:
    """Minimum performance factor meeting QoS at ``load_fraction`` of peak.

    Bisection over the performance factor with common random numbers (the
    same arrival/service draws at every probe), which makes the QoS
    predicate monotone in the factor.  The probes serve one request
    stream at the fixed rate, so each draws only its service times.
    Returns 1.0 if even full performance misses the target (possible
    slightly above peak load).
    """
    if not 0.0 < load_fraction <= 1.2:
        raise ValueError(f"load fraction {load_fraction} out of range")
    peak = service.peak_load(n_requests=n_requests)
    rate = peak * load_fraction
    stream = service.stream(n_requests)

    if not stream.meets_qos(rate, 1.0):
        return 1.0
    lo, hi = 0.01, 1.0
    if stream.meets_qos(rate, lo):
        return lo
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if stream.meets_qos(rate, mid):
            hi = mid
        else:
            lo = mid
    return hi


def slack_curve(
    profile: WorkloadProfile,
    load_fractions: list[float],
    n_workers: int = 8,
    n_requests: int = 20000,
    seed: int = 0,
) -> list[tuple[float, float]]:
    """Figure 2 series for one service: (load, required performance) pairs.

    Slack at a load point is ``1 - required performance``.
    """
    if profile.qos is None:
        raise ValueError(f"workload {profile.name!r} has no QoS contract")
    service = ServiceSimulator(profile.qos, n_workers=n_workers, seed=seed)
    return [
        (load, required_performance(service, load, n_requests=n_requests))
        for load in load_fractions
    ]
