"""Parametric load patterns for closed-loop studies.

Beyond the two empirical diurnal shapes of :mod:`repro.qos.diurnal`, these
composable generators cover the situations an operator would test a Stretch
deployment against: steady load, step changes (deploy/failover), flash
crowds (sudden spikes with decay), and sinusoidal day/night swings.  Every
generator returns an ``hour -> load fraction`` callable, a valid ``load``
for :func:`repro.api.run_day` and :func:`repro.api.run_fleet`.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

__all__ = ["constant", "step", "flash_crowd", "sinusoidal", "compose_max",
           "clamp"]

LoadFn = Callable[[float], float]


def clamp(load_fn: LoadFn, lo: float = 0.0, hi: float = 1.0) -> LoadFn:
    """Clamp a load function into ``[lo, hi]``."""
    if lo > hi:
        raise ValueError("lo must not exceed hi")

    def clamped(hour: float) -> float:
        return min(max(load_fn(hour), lo), hi)

    return clamped


def constant(level: float) -> LoadFn:
    """Steady load at ``level`` of peak."""
    if not 0.0 <= level <= 1.2:
        raise ValueError("level out of range")
    return lambda hour: level


def step(before: float, after: float, at_hour: float) -> LoadFn:
    """A step change at ``at_hour`` (deployment shift, failover inheritance)."""
    if not 0.0 <= at_hour < 24.0:
        raise ValueError("at_hour must be within the day")

    def load(hour: float) -> float:
        return after if (hour % 24.0) >= at_hour else before

    return load


def flash_crowd(
    base: float,
    peak: float,
    at_hour: float,
    decay_hours: float = 1.5,
) -> LoadFn:
    """A sudden spike at ``at_hour`` decaying exponentially back to ``base``.

    The canonical QoS stress case: load jumps instantly (news event, retry
    storm) and drains with time constant ``decay_hours``.
    """
    if peak < base:
        raise ValueError("peak must be at least base")
    if decay_hours <= 0:
        raise ValueError("decay_hours must be positive")

    def load(hour: float) -> float:
        h = hour % 24.0
        if h < at_hour:
            return base
        return base + (peak - base) * math.exp(-(h - at_hour) / decay_hours)

    return load


def sinusoidal(mean: float, amplitude: float, peak_hour: float = 14.0) -> LoadFn:
    """Smooth day/night swing peaking at ``peak_hour``."""
    if amplitude < 0 or mean - amplitude < 0:
        raise ValueError("mean/amplitude must keep load non-negative")

    def load(hour: float) -> float:
        phase = 2.0 * math.pi * ((hour - peak_hour) % 24.0) / 24.0
        return mean + amplitude * math.cos(phase)

    return load


def compose_max(load_fns: Sequence[LoadFn]) -> LoadFn:
    """Pointwise maximum of several patterns (e.g. diurnal + flash crowd)."""
    fns = list(load_fns)
    if not fns:
        raise ValueError("compose_max needs at least one load function")
    return lambda hour: max(fn(hour) for fn in fns)
