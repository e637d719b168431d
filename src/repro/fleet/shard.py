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
from repro.fleet.policies import resolve_load_curve
from repro.scenarios import ScenarioSpec
from repro.workloads.profiles import WorkloadProfile

__all__ = ["FleetShardJob", "run_fleet_sharded", "shard_bounds", "window_loads"]

#: Bump to invalidate cached fleet shard results after engine changes.
FLEET_VERSION = 4


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


def window_loads(load, config: FleetConfig) -> tuple[float, ...]:
    """The day's cluster load per window of ``config``'s grid.

    ``load`` is any spec :func:`~repro.fleet.policies.resolve_load_curve`
    takes (a registered name, ``"flat:<x>"``, ``"replay:<path>"`` or a
    callable), sampled at each window's start hour ``k * window_minutes /
    60``, the expression :meth:`~repro.fleet.engine.FleetStepper.step`
    evaluates a curve at.  A replayed stream is read at ``config``'s
    window length, so window ``k`` gets the load recorded at window ``k``.
    """
    __, curve = resolve_load_curve(load, window_minutes=config.window_minutes)
    return tuple(
        float(curve(k * config.window_minutes / 60.0))
        for k in range(config.n_windows)
    )


@dataclass(frozen=True)
class FleetShardJob:
    """One fleet slice ``[lo, hi)``, schedulable on the execution engine.

    The job carries its inputs by value, so a pool worker looks nothing
    up by name: ``ls_profile`` is the service's workload profile and
    ``loads`` the day's cluster load per window (see
    :func:`window_loads`), which ``run`` feeds to
    :meth:`~repro.fleet.engine.FleetStepper.step` one window at a time.
    ``surrogate_values`` carries a pre-fitted
    :class:`~repro.fleet.surrogate.TailSurrogate` (flattened) so worker
    processes never re-run the DES calibration.  ``corunners`` carries
    the heterogeneous co-runner population's measured models (ordered
    like ``config.population``).  ``scenario`` attaches an adversarial
    :class:`~repro.scenarios.ScenarioSpec`; it is part of the cache key
    (frozen, ``repr``-stable), which is what makes CRN-paired tuner
    evaluations content-addressable per (config, scenario) pair.
    """

    ls_profile: WorkloadProfile
    performance: ColocationPerformance
    config: FleetConfig
    loads: tuple[float, ...]
    lo: int
    hi: int
    tail: str = "surrogate"
    surrogate_values: tuple[float, ...] | None = None
    corunners: tuple[ColocationPerformance, ...] | None = None
    scenario: ScenarioSpec | None = None

    def __post_init__(self) -> None:
        if len(self.loads) != self.config.n_windows:
            raise ValueError(
                f"got {len(self.loads)} window loads for a "
                f"{self.config.n_windows}-window day"
            )

    @property
    def key(self) -> str:
        from repro.engine.store import CACHE_VERSION

        payload = repr((
            CACHE_VERSION,
            FLEET_VERSION,
            "fleet-shard",
            self.ls_profile,
            _performance_payload(self.performance),
            self.config,
            self.loads,
            self.lo,
            self.hi,
            self.tail,
            self.surrogate_values,
            None
            if self.corunners is None
            else tuple(_performance_payload(c) for c in self.corunners),
            self.scenario,
        ))
        return hashlib.sha256(payload.encode()).hexdigest()

    def run(self) -> tuple[float, ...]:
        from repro.fleet.surrogate import TailSurrogate

        surrogate = (
            TailSurrogate.from_values(self.surrogate_values)
            if self.surrogate_values is not None
            else None
        )
        stepper = FleetEngine(
            self.ls_profile,
            self.performance,
            self.config,
            surrogate=surrogate,
            corunners=self.corunners,
            scenario=self.scenario,
        ).stepper(tail=self.tail, server_range=(self.lo, self.hi))
        for load in self.loads:
            stepper.step(load)
        return stepper.timeline.to_values()


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

    ``load`` is any load spec (a registered name, ``"flat:<x>"``,
    ``"replay:<path>"`` or a callable).  It is sampled once here, per
    window, and every shard carries those loads, the LS profile and the
    heterogeneous population's ``corunners`` models by value, so workers
    share no registry with this process.  The tail surrogate is fitted
    (or fetched) once here and shipped to every shard, so the DES
    calibration never repeats across worker processes.
    """
    loads = window_loads(load, config)
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
            ls_profile=ls_profile,
            performance=performance,
            config=config,
            loads=loads,
            lo=lo,
            hi=hi,
            tail=tail,
            surrogate_values=surrogate_values,
            corunners=corunners,
            scenario=scenario,
        )
        for lo, hi in shard_bounds(config.n_servers, n_shards)
    ]
    results = engine.run_jobs(jobs, store).results
    return FleetTimeline.merge(
        [FleetTimeline.from_values(results[job.key]) for job in jobs]
    )
