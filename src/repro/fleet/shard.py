"""Fleet sharding over the ``repro.engine`` process pool.

A 100k-server day splits into contiguous server ranges; each range becomes
a content-addressed :class:`FleetShardJob` scheduled on the
:class:`~repro.engine.ExecutionEngine` (cache-aware, crash-isolated, same
pool the figure experiments use).  Because every per-server random stream
in :class:`~repro.fleet.engine.FleetEngine` keys off the global server
index, stitching shard timelines back together with
:meth:`~repro.fleet.engine.FleetTimeline.merge` reproduces the unsharded
run's integer aggregates exactly; its two float window sums
(``tail_ms_sum``, ``batch_uipc_sum``) add the same per-server values in
another order, so they match only up to summation order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.core.colocation import ColocationPerformance
from repro.core.monitor import MODE_ORDER
from repro.fleet.engine import FleetConfig, FleetEngine, FleetTimeline
from repro.fleet.policies import (
    _BUILTIN_CURVES,
    register_load_curve,
    resolve_load_curve,
)
from repro.scenarios import ScenarioSpec

__all__ = ["FleetShardJob", "run_fleet_sharded", "shard_bounds"]

#: Bump to invalidate cached fleet shard results after engine changes.
FLEET_VERSION = 3


def _performance_payload(performance: ColocationPerformance) -> tuple:
    """Deterministic content of a performance model (dict-order-free)."""
    return (
        performance.ls_workload,
        performance.batch_workload,
        float(performance.ls_solo_uipc),
        tuple(
            (
                mode.name,
                float(performance.per_mode[mode].ls_uipc),
                float(performance.per_mode[mode].batch_uipc),
            )
            for mode in MODE_ORDER
        ),
    )


@dataclass(frozen=True)
class FleetShardJob:
    """One fleet slice ``[lo, hi)``, schedulable on the execution engine.

    ``load`` must be a *named* curve (or ``"flat:<x>"`` spec) so the job
    stays picklable and content-addressable.  Curves registered on the
    driver via :func:`repro.fleet.policies.register_load_curve` do not
    exist in pool workers, so their window-start samples ride along in
    ``curve_samples`` and the worker re-registers a step function under
    the same name — the engine only ever evaluates the curve at window
    starts, so the sampled curve is exact.  ``surrogate_values`` carries a
    pre-fitted :class:`~repro.fleet.surrogate.TailSurrogate` (flattened)
    so worker processes never re-run the DES calibration.  ``corunners``
    carries the heterogeneous co-runner population's measured models
    (ordered like ``config.population``).  ``scenario`` attaches an
    adversarial :class:`~repro.scenarios.ScenarioSpec`; it is part of the
    cache key (frozen, ``repr``-stable), which is what makes CRN-paired
    tuner evaluations content-addressable per (config, scenario) pair.
    """

    profile_name: str
    performance: ColocationPerformance
    config: FleetConfig
    load: str
    lo: int
    hi: int
    tail: str = "surrogate"
    surrogate_values: tuple[float, ...] | None = None
    corunners: tuple[ColocationPerformance, ...] | None = None
    curve_samples: tuple[float, ...] | None = None
    scenario: ScenarioSpec | None = None

    @property
    def key(self) -> str:
        from repro.engine.store import CACHE_VERSION

        payload = repr((
            CACHE_VERSION,
            FLEET_VERSION,
            "fleet-shard",
            self.profile_name,
            _performance_payload(self.performance),
            self.config,
            self.load,
            self.lo,
            self.hi,
            self.tail,
            self.surrogate_values,
            None
            if self.corunners is None
            else tuple(_performance_payload(c) for c in self.corunners),
            self.curve_samples,
            self.scenario,
        ))
        return hashlib.sha256(payload.encode()).hexdigest()

    def run(self) -> tuple[float, ...]:
        from repro.fleet.surrogate import TailSurrogate
        from repro.workloads import get_profile

        if self.curve_samples is not None:
            samples = np.asarray(self.curve_samples, dtype=float)
            wm = self.config.window_minutes

            def sampled_curve(hour: float) -> float:
                # round(), not int(): k*wm/60 can reconstruct to k - 1e-13
                # and truncation would shift those windows by one sample.
                idx = min(round(hour * 60.0 / wm), len(samples) - 1)
                return float(samples[idx])

            register_load_curve(self.load, sampled_curve)
        surrogate = (
            TailSurrogate.from_values(self.surrogate_values)
            if self.surrogate_values is not None
            else None
        )
        engine = FleetEngine(
            get_profile(self.profile_name),
            self.performance,
            self.config,
            surrogate=surrogate,
            corunners=self.corunners,
            scenario=self.scenario,
        )
        timeline = engine.run_day(
            self.load, tail=self.tail, server_range=(self.lo, self.hi)
        )
        return timeline.to_values()


def shard_bounds(n_servers: int, n_shards: int) -> list[tuple[int, int]]:
    """Contiguous, near-equal server ranges covering ``[0, n_servers)``."""
    if n_servers <= 0:
        raise ValueError("n_servers must be positive")
    n_shards = max(min(int(n_shards), n_servers), 1)
    edges = np.linspace(0, n_servers, n_shards + 1).astype(int)
    return [
        (int(lo), int(hi)) for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo
    ]


def run_fleet_sharded(
    ls_profile,
    performance: ColocationPerformance,
    config: FleetConfig,
    load,
    *,
    tail: str = "surrogate",
    engine=None,
    store=None,
    n_shards: int | None = None,
    surrogate=None,
    corunners: tuple[ColocationPerformance, ...] | None = None,
    scenario: ScenarioSpec | None = None,
) -> FleetTimeline:
    """Run a fleet day as shard jobs on the execution engine; merge results.

    The tail surrogate is fitted (or fetched) once in the parent and
    shipped to every shard, so the DES calibration never repeats across
    worker processes.  Driver-registered custom curves are sampled at
    window starts and shipped in the job payload (workers don't share the
    driver's curve registry); heterogeneous populations ship their
    ``corunners`` models the same way.
    """
    if not isinstance(load, str):
        raise TypeError(
            "sharded fleet runs need a named load curve (str); register "
            "custom curves with repro.fleet.register_load_curve"
        )
    _, load_fn = resolve_load_curve(load)  # fail fast on unknown names
    curve_samples = None
    if load not in _BUILTIN_CURVES and not load.startswith(("flat:", "replay:")):
        # Driver-local registration: ship exact window-start samples.
        curve_samples = tuple(
            float(load_fn(k * config.window_minutes / 60.0))
            for k in range(config.n_windows)
        )

    if store is None:
        from repro.engine.store import default_store

        store = default_store()
    if engine is None:
        from repro.engine.executor import ExecutionEngine

        engine = ExecutionEngine()

    surrogate_values = None
    if tail == "surrogate":
        if surrogate is None:
            fleet = FleetEngine(
                ls_profile, performance, config, store=store, corunners=corunners
            )
            surrogate = fleet.ensure_surrogate()
        surrogate_values = surrogate.to_values()

    if n_shards is None:
        n_shards = getattr(engine.config, "workers", 1) or 1
    jobs = [
        FleetShardJob(
            profile_name=ls_profile.name,
            performance=performance,
            config=config,
            load=load,
            lo=lo,
            hi=hi,
            tail=tail,
            surrogate_values=surrogate_values,
            corunners=corunners,
            curve_samples=curve_samples,
            scenario=scenario,
        )
        for lo, hi in shard_bounds(config.n_servers, n_shards)
    ]
    engine.run_jobs(jobs, store)
    parts = []
    for job in jobs:
        values = store.get(job.key)
        if values is None:
            raise RuntimeError(f"shard [{job.lo}, {job.hi}) produced no result")
        parts.append(FleetTimeline.from_values(values))
    return FleetTimeline.merge(parts)
