"""The stable public facade (``repro.api``).

Four verbs cover the reproduction's entry points, with consistent keyword
names (``seed``, ``n_samples``, ``fidelity``, ``sampling``, ``tail``,
``workers`` mean the same thing everywhere):

* :func:`simulate` — mean UIPC of a stand-alone workload or a colocated
  pair on the SMT core timing model;
* :func:`measure` — a pair's full per-mode performance model
  (:class:`~repro.core.colocation.ColocationPerformance`);
* :func:`run_day` — one colocated server's 24-hour closed loop
  (:class:`~repro.core.server.ServerTimeline`), a one-server fleet day on
  the exact queueing DES;
* :func:`run_fleet` — a fleet/cluster day at any scale
  (:class:`~repro.fleet.engine.FleetTimeline`): ``tail=`` picks the
  per-server tail evaluator (``"surrogate"`` or the ``"exact"`` DES) and
  ``workers=`` the process model (in process, or shard jobs on a pool);
* :func:`serve` — the same fleet as a *live service*
  (:class:`~repro.service.FleetService`): a load feed advances it window
  by window, with streaming metrics, what-if queries, and bit-identical
  checkpoint/resume;
* :func:`tune_policy` — CRN-paired search over
  :class:`~repro.core.monitor.MonitorConfig` against a weighted
  adversarial-scenario portfolio (:mod:`repro.scenarios` /
  :mod:`repro.tune`).

``run_fleet``, ``serve`` and ``tune_policy`` take their fleet as
``config=`` (default :class:`~repro.fleet.engine.FleetConfig`) with any
``FleetConfig`` field passed as a keyword applied over it.  The closed-loop
verbs measure the models they are not given (the pair, a co-runner
population) in one set-up whose store misses run on every usable core.  ``run_fleet``
and ``serve`` accept ``scenario=`` — a
:class:`~repro.scenarios.ScenarioSpec`, a preset name from
:data:`repro.scenarios.SCENARIO_NAMES`, or a spec dict — attaching an
adversarial perturbation to the fleet day.

Sampling effort resolves the same way in every verb: pass ``sampling=``
(a full :class:`~repro.cpu.sampling.SamplingConfig`) *or* ``fidelity=``
(a registered tier name — see
:func:`repro.experiments.common.fidelity_names` — or a
:class:`~repro.experiments.common.Fidelity`), optionally overridden by
``seed=`` / ``n_samples=``; with neither, the library defaults apply.
``simulate`` and ``measure`` memoize every query through the
content-addressed result store, registered and custom workload profiles
alike (their deprecated ``engine=`` keyword changes nothing).  At
``fidelity="surrogate"`` a partitioned-ROB sweep that asks an off-anchor
ROB split answers from a store-memoized
:class:`~repro.cpu.surrogate.UipcSurrogate` fit (error bound reported per
fit); anchor values and anything a fit does not cover read the exact
tier's jobs.  ``tune_policy`` screens candidates with the surrogate-tier
model before confirming the winner at the exact tier.

How superseded entry points are retired is the "Stable API & deprecation
policy" note in ``docs/API.md``.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np

from repro.core.adaptive import AdaptiveStretchPolicy
from repro.core.colocation import ColocationPerformance, ModePerformance
from repro.core.monitor import MODE_ORDER, MonitorConfig
from repro.core.partitioning import (
    BASELINE,
    DEFAULT_B_MODE,
    DEFAULT_Q_MODE,
    PartitionScheme,
)
from repro.core.server import ServerTimeline, WindowRecord
from repro.core.stretch import StretchMode
from repro.cpu.config import CoreConfig
from repro.cpu.sampling import SamplingConfig
from repro.engine.executor import EngineConfig, ExecutionEngine, pool_workers
from repro.engine.store import default_store
from repro.experiments.common import (
    Fidelity,
    pair_uipc,
    pair_uipc_many,
    recorded_jobs,
    solo_uipc,
)
from repro.fleet.engine import (
    LOAD_BOUNDS,
    FleetConfig,
    FleetEngine,
    FleetTimeline,
)
from repro.fleet.shard import run_fleet_sharded
from repro.fleet.surrogate import peak_jobs
from repro.obs.fleet import publish_fleet_metrics
from repro.obs.profiler import active_profiler
from repro.scenarios import as_scenario
from repro.service import FleetService
from repro.tune import (
    PortfolioEntry,
    TuneResult,
    TuneSpace,
    confirm_candidates,
    tune_monitor,
)
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.registry import resolve_profile

__all__ = [
    "simulate",
    "measure",
    "run_day",
    "run_fleet",
    "serve",
    "tune_policy",
    "FleetService",
]


# ----------------------------------------------------------------------
# Shared argument resolution
# ----------------------------------------------------------------------


def _resolve_effort(
    sampling: SamplingConfig | None,
    fidelity,
    seed: int | None,
    n_samples: int | None,
) -> tuple[SamplingConfig, Fidelity | None]:
    """Resolve the sampling kwargs into ``(sampling, fidelity-or-None)``.

    ``fidelity`` goes through the tier registry
    (:meth:`~repro.experiments.common.Fidelity.resolve`), so any
    registered name — not a hardcoded list — is accepted and unknown
    names report the live registry contents.  The second element is the
    resolved tier when one was requested (``None`` for plain
    ``sampling=`` calls), letting callers dispatch tier-specific
    behavior such as the surrogate paths.
    """
    if sampling is not None and fidelity is not None:
        raise ValueError("pass either sampling= or fidelity=, not both")
    if fidelity is not None:
        resolved = Fidelity.resolve(
            fidelity,
            42 if seed is None else int(seed),
            seed=None if seed is None else int(seed),
            n_samples=None if n_samples is None else int(n_samples),
        )
        return resolved.sampling, resolved
    base = sampling if sampling is not None else SamplingConfig()
    overrides = {}
    if seed is not None:
        overrides["seed"] = int(seed)
    if n_samples is not None:
        overrides["n_samples"] = int(n_samples)
    return (replace(base, **overrides) if overrides else base), None


def _check_engine(engine: str | None) -> None:
    """The deprecated ``engine=`` of simulate/measure: warn, change nothing."""
    if engine is None:
        return
    if engine not in ("store", "direct"):
        raise ValueError(f"engine must be 'store' or 'direct', got {engine!r}")
    warnings.warn(
        "engine= is deprecated and has no effect: simulate and measure "
        "always memoize through the result store",
        DeprecationWarning,
        stacklevel=3,
    )


def _check_tail(tail: str) -> None:
    if tail not in ("surrogate", "exact"):
        raise ValueError(f"tail must be 'surrogate' or 'exact', got {tail!r}")


def _fleet_config(config: FleetConfig | None, fleet: dict) -> FleetConfig:
    """``config`` (default ``FleetConfig()``) with the keyword fields applied.

    The one way the fleet verbs take their settings: a misspelt field
    raises ``TypeError`` naming it, before any measurement or fleet work.
    """
    return replace(config if config is not None else FleetConfig(), **fleet)


def _set_up(
    ls_profile: WorkloadProfile,
    config: FleetConfig,
    batch,
    performance: ColocationPerformance | None,
    corunners,
    effort: dict,
    *,
    fits: bool,
) -> tuple[ColocationPerformance, tuple[ColocationPerformance, ...] | None]:
    """A fleet verb's models: the pair's, and one per co-runner profile.

    The pair's is ``performance``, or ``(ls_profile, batch)`` measured by
    :func:`measure` at ``effort`` (its sampling keywords).  With a
    ``config.population`` the co-runners' are ``corunners``, or each
    population profile measured against the LS service the same way
    (None without a population).  Every job these ``measure`` calls read
    is recorded first (:func:`~repro.experiments.common.recorded_jobs`);
    the store misses run as one job set on
    :func:`~repro.engine.executor.pool_workers` processes, and the models
    are then read back through ``measure``.  When ``fits`` (the fleet
    will fit its tail surrogate), the fit's peak bisections
    (:func:`~repro.fleet.surrogate.peak_jobs`) join a cold job set and
    their peaks are remembered, so the fit's own pool, forked later,
    runs none.  A warm set-up starts no pool and writes nothing.
    """
    if performance is None and batch is None:
        raise ValueError("pass a performance model or a batch workload")
    if corunners and not config.population:
        raise ValueError(
            "corunners were supplied but the fleet config has no population"
        )
    batches = [batch] if performance is None else []
    if config.population and corunners is None:
        batches += config.population

    def models() -> list[ColocationPerformance]:
        return [measure(ls_profile, name, **effort) for name in batches]

    store = default_store()
    cold = [
        job for job in recorded_jobs(lambda __: models())()
        if store.get(job.key) is None
    ]
    if cold:
        peaks = ()
        if fits and ls_profile.qos is not None:
            peaks = peak_jobs(
                ls_profile.qos, config.surrogate_grid(), config.n_workers
            )
        jobs = [*cold, *peaks]
        engine = ExecutionEngine(EngineConfig(workers=pool_workers(len(jobs))))
        results = engine.run_jobs(
            jobs, store, profiler=active_profiler()
        ).results
        for job in peaks:
            job.simulator().remember_peak(
                results[job.key][0], job.peak_requests
            )
    measured = models()
    if performance is None:
        performance = measured.pop(0)
    if not config.population:
        return performance, None
    return performance, tuple(measured if corunners is None else corunners)


_MODE_SCHEMES = {
    StretchMode.BASELINE: BASELINE,
    StretchMode.B_MODE: DEFAULT_B_MODE,
    StretchMode.Q_MODE: DEFAULT_Q_MODE,
}
_MODE_NAMES = {
    "baseline": StretchMode.BASELINE,
    "b": StretchMode.B_MODE,
    "b_mode": StretchMode.B_MODE,
    "q": StretchMode.Q_MODE,
    "q_mode": StretchMode.Q_MODE,
}


def _resolve_scheme(mode) -> PartitionScheme:
    if mode is None:
        return BASELINE
    if isinstance(mode, PartitionScheme):
        return mode
    if isinstance(mode, str):
        try:
            mode = _MODE_NAMES[mode.lower()]
        except KeyError:
            raise ValueError(
                f"unknown mode {mode!r}; use baseline/b_mode/q_mode, a "
                "StretchMode, or a PartitionScheme"
            ) from None
    return _MODE_SCHEMES[mode]


# ----------------------------------------------------------------------
# simulate / measure — SMT-core sampling
# ----------------------------------------------------------------------


def simulate(
    workloads,
    *,
    mode=None,
    config: CoreConfig | None = None,
    engine: str | None = None,
    sampling: SamplingConfig | None = None,
    fidelity=None,
    seed: int | None = None,
    n_samples: int | None = None,
):
    """Mean UIPC of a stand-alone workload or a colocated pair.

    ``workloads`` is one workload (name or profile) for a stand-alone
    full-core run, or a ``(latency_sensitive, batch)`` pair.  For pairs,
    ``mode`` selects the partitioning (``"baseline"``/``"b_mode"``/
    ``"q_mode"``, a :class:`~repro.core.stretch.StretchMode`, or an
    explicit :class:`~repro.core.partitioning.PartitionScheme`); returns a
    single float for stand-alone runs and ``(ls_uipc, batch_uipc)`` for
    pairs.  ``engine`` is deprecated and ignored.
    """
    _check_engine(engine)
    sampling, fid = _resolve_effort(sampling, fidelity, seed, n_samples)
    effort = fid if fid is not None and fid.is_surrogate else sampling
    base = config if config is not None else CoreConfig()
    if isinstance(workloads, (str, WorkloadProfile)):
        if mode is not None:
            raise ValueError("mode= applies to colocated pairs only")
        return solo_uipc(
            resolve_profile(workloads), base.single_thread(base.rob_entries),
            effort,
        )
    ls, batch = workloads
    scheme = _resolve_scheme(mode)
    return pair_uipc(
        resolve_profile(ls), resolve_profile(batch), scheme.apply(base), effort
    )


def measure(
    ls,
    batch,
    *,
    b_mode: PartitionScheme = DEFAULT_B_MODE,
    q_mode: PartitionScheme | None = DEFAULT_Q_MODE,
    config: CoreConfig | None = None,
    engine: str | None = None,
    sampling: SamplingConfig | None = None,
    fidelity=None,
    seed: int | None = None,
    n_samples: int | None = None,
) -> ColocationPerformance:
    """Measure a pair's per-mode performance model.

    Runs the pair under Baseline, ``b_mode`` and ``q_mode`` plus the LS
    workload's stand-alone reference, as jobs memoized through the result
    store (a custom profile memoizes under its own keys).  ``engine`` is
    deprecated and ignored.

    At ``fidelity="surrogate"`` the per-mode pair grid is answered by
    the family's fitted :class:`~repro.cpu.surrogate.UipcSurrogate` (one
    fit serves every mode) when a mode's ROB split lies off the fit's
    anchors.  The stock modes and the solo reference are anchors of the
    stock grid, so they read the exact tier's jobs and the model equals
    the exact one.
    """
    _check_engine(engine)
    sampling, fid = _resolve_effort(sampling, fidelity, seed, n_samples)
    effort = fid if fid is not None and fid.is_surrogate else sampling
    ls_profile, batch_profile = resolve_profile(ls), resolve_profile(batch)
    base = config if config is not None else CoreConfig()
    solo = solo_uipc(
        ls_profile, base.single_thread(base.rob_entries), effort
    )
    schemes: dict[StretchMode, PartitionScheme] = {
        StretchMode.BASELINE: BASELINE,
        StretchMode.B_MODE: b_mode,
    }
    if q_mode is not None:
        schemes[StretchMode.Q_MODE] = q_mode
    pairs = pair_uipc_many(
        ls_profile, batch_profile,
        [scheme.apply(base) for scheme in schemes.values()], effort,
    )
    per_mode = {
        stretch_mode: ModePerformance(ls_uipc=values[0], batch_uipc=values[1])
        for stretch_mode, values in zip(schemes, pairs)
    }
    if q_mode is None:
        per_mode[StretchMode.Q_MODE] = per_mode[StretchMode.BASELINE]
    return ColocationPerformance(
        ls_workload=ls_profile.name,
        batch_workload=batch_profile.name,
        ls_solo_uipc=solo,
        per_mode=per_mode,
    )


# ----------------------------------------------------------------------
# run_day / run_fleet — closed-loop QoS simulations
# ----------------------------------------------------------------------


def run_day(
    ls,
    batch=None,
    *,
    performance: ColocationPerformance | None = None,
    load="web_search",
    adaptive: AdaptiveStretchPolicy | None = None,
    monitor: MonitorConfig | None = None,
    window_minutes: float = 5.0,
    requests_per_window: int = 3000,
    n_workers: int = 8,
    q_mode_available: bool = True,
    seed: int = 0,
    metrics=None,
    sampling: SamplingConfig | None = None,
    fidelity=None,
    n_samples: int | None = None,
) -> ServerTimeline:
    """One colocated server's 24-hour closed loop.

    The day is a one-server fleet day on the exact queueing DES:
    ``FleetConfig(n_servers=1, overprovision=1.0, policy="uniform",
    seed=seed, ...)`` stepped with ``tail="exact"``, one
    :class:`~repro.core.server.WindowRecord` per window.  ``load`` is a
    registered curve name, a ``"flat:<x>"`` spec, or a callable ``hour ->
    fraction``; each window's load is clipped to
    :data:`~repro.fleet.engine.LOAD_BOUNDS`.  Supply a pre-measured
    ``performance`` model, or a ``batch`` workload to measure one on the
    fly (using the facade's sampling kwargs).  With ``adaptive=`` the
    multi-B-mode policy replaces the fixed monitor and each record's
    ``scheme`` names the partition the window ran.  ``seed`` is the fleet
    seed, which drives the server's request streams (not the sampling
    seed — set that via ``sampling=`` / ``fidelity=``).  ``metrics``
    receives the day's ``fleet.*`` instruments.
    """
    ls_profile = resolve_profile(ls)
    config = FleetConfig(
        n_servers=1,
        overprovision=1.0,
        policy="uniform",
        window_minutes=window_minutes,
        requests_per_window=requests_per_window,
        n_workers=n_workers,
        q_mode_available=q_mode_available,
        seed=seed,
        monitor=monitor if monitor is not None else MonitorConfig(),
    )
    effort = dict(sampling=sampling, fidelity=fidelity, n_samples=n_samples)
    performance, __ = _set_up(
        ls_profile, config, batch, performance, None, effort, fits=False
    )
    stepper = FleetEngine(
        ls_profile, performance, config, adaptive=adaptive
    ).stepper(load, tail="exact")
    day = stepper.timeline
    windows = []
    while not stepper.done:
        row = int(stepper.state.mode[0])
        record = stepper.step()
        k = record["window"]
        windows.append(WindowRecord(
            hour=record["hour"],
            load_fraction=float(np.clip(record["cluster_load"], *LOAD_BOUNDS)),
            mode=MODE_ORDER[int(day.mode_counts[k].argmax())],
            tail_latency_ms=float(day.tail_ms_sum[k]),
            qos_violated=bool(day.violations[k]),
            throttled=bool(day.throttled[k]),
            batch_uipc=float(day.batch_uipc_sum[k]),
            scheme="" if adaptive is None else adaptive.rows[row][0].name,
        ))
    if metrics is not None:
        publish_fleet_metrics(metrics, day)
    return ServerTimeline(windows)


def run_fleet(
    ls,
    batch=None,
    *,
    performance: ColocationPerformance | None = None,
    load="web_search",
    tail: str = "surrogate",
    config: FleetConfig | None = None,
    corunners: tuple[ColocationPerformance, ...] | None = None,
    scenario=None,
    workers: int | None = None,
    surrogate=None,
    store=None,
    metrics=None,
    sampling: SamplingConfig | None = None,
    fidelity=None,
    n_samples: int | None = None,
    **fleet,
) -> FleetTimeline:
    """Simulate a 24-hour day across a fleet of colocated servers.

    The fleet is ``config`` (default ``FleetConfig()``) with any
    :class:`~repro.fleet.engine.FleetConfig` field passed as a keyword
    applied over it (``n_servers=``, ``policy=``, ``seed=``, … — see
    its Attributes table); a name that is not a field raises
    ``TypeError`` before any work.

    ``tail`` selects the per-server tail-latency evaluator, as in
    :meth:`~repro.fleet.engine.FleetEngine.run_day`: ``"surrogate"`` (the
    fitted queueing surrogate; the default, scales to 100k+ servers) or
    ``"exact"`` (one queueing DES per server, the surrogate's oracle).

    ``workers`` selects the process model.  ``None`` or ``1`` steps the
    whole fleet in this process.  ``N > 1`` splits it into ``N``
    content-addressed shard jobs (:func:`~repro.fleet.shard.run_fleet_sharded`)
    run on an ``N``-worker :class:`~repro.engine.ExecutionEngine` pool,
    which takes any profile and any ``load`` (the jobs carry the profile
    and the day's per-window loads by value).  The integer aggregates of
    a pooled day equal the in-process day's exactly; its two float window
    sums match up to summation order.  ``metrics`` receives the day's
    ``fleet.*`` instruments under either process model.

    ``seed=`` is the fleet's seed, driving its per-server streams;
    sampling kwargs only affect an on-the-fly ``measure`` when no
    ``performance`` is given.  A heterogeneous co-runner ``population``
    is measured per profile via :func:`measure` unless pre-measured
    ``corunners`` models are supplied.

    ``scenario`` attaches an adversarial perturbation from
    :mod:`repro.scenarios` (spec, preset name, or dict); a null scenario
    is bit-identical to no scenario at all.
    """
    _check_tail(tail)
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers!r}")
    config = _fleet_config(config, fleet)
    ls_profile = resolve_profile(ls)
    effort = dict(sampling=sampling, fidelity=fidelity, n_samples=n_samples)
    performance, corunners = _set_up(
        ls_profile, config, batch, performance, corunners, effort,
        fits=tail == "surrogate" and surrogate is None,
    )
    scenario = as_scenario(scenario)
    if workers is None or workers == 1:
        timeline = FleetEngine(
            ls_profile, performance, config,
            surrogate=surrogate, store=store,
            corunners=corunners, scenario=scenario,
        ).run_day(load, tail=tail)
    else:
        timeline = run_fleet_sharded(
            ls_profile, performance, config, load,
            tail=tail, engine=ExecutionEngine(EngineConfig(workers=workers)),
            store=store, n_shards=workers, surrogate=surrogate,
            corunners=corunners, scenario=scenario,
        )
    if metrics is not None:
        publish_fleet_metrics(metrics, timeline)
    return timeline


def serve(
    ls,
    batch=None,
    *,
    performance: ColocationPerformance | None = None,
    feed="web_search",
    tail: str = "surrogate",
    config: FleetConfig | None = None,
    corunners: tuple[ColocationPerformance, ...] | None = None,
    scenario=None,
    resume: str | None = None,
    max_gap_windows: int = 6,
    chunk_size: int | None = None,
    surrogate=None,
    store=None,
    registry=None,
    sink=None,
    tracer=None,
    slos=None,
    recorder=None,
    postmortem_path: str | None = None,
    sampling: SamplingConfig | None = None,
    fidelity=None,
    n_samples: int | None = None,
    **fleet,
) -> FleetService:
    """Stand up a live :class:`~repro.service.FleetService` (not yet run).

    The fleet is built as in :func:`run_fleet`: ``config`` with any
    :class:`~repro.fleet.engine.FleetConfig` field passed as a keyword
    applied over it, plus ``corunners``, ``scenario`` and the sampling
    kwargs.  ``feed`` is a :class:`~repro.service.LoadFeed`, a
    registered curve name, ``"flat:<x>"``, ``"phases:<spec>"``,
    ``"replay:<path>"``, or a callable ``hour -> fraction``.  Pass
    ``resume=`` a checkpoint key to restore mid-day state
    bit-identically.  ``slos`` (SLO spec strings,
    :class:`~repro.obs.slo.SLOSpec` objects, or an
    :class:`~repro.obs.slo.SLOEngine`) scores every window against the
    declared objectives; ``recorder`` (``True`` or a
    :class:`~repro.obs.recorder.FlightRecorder`) keeps the violation
    flight-recorder ring, dumped to ``postmortem_path`` on abnormal
    stops.  Drive the returned service with
    :meth:`~repro.service.FleetService.run` (the ``stretch-repro serve``
    loop) or :meth:`~repro.service.FleetService.advance`.

    ``scenario`` (spec, preset name, or dict) attaches an adversarial
    perturbation to the live fleet; it is part of the checkpoint
    identity and can be swapped mid-day via
    :meth:`~repro.service.FleetService.reconfigure`.
    """
    _check_tail(tail)
    config = _fleet_config(config, fleet)
    ls_profile = resolve_profile(ls)
    effort = dict(sampling=sampling, fidelity=fidelity, n_samples=n_samples)
    performance, corunners = _set_up(
        ls_profile, config, batch, performance, corunners, effort,
        fits=tail == "surrogate" and surrogate is None,
    )
    engine = FleetEngine(
        ls_profile, performance, config,
        surrogate=surrogate, store=store, corunners=corunners,
        scenario=as_scenario(scenario),
    )
    kwargs = dict(
        tail=tail,
        store=store,
        registry=registry,
        sink=sink,
        tracer=tracer,
        max_gap_windows=max_gap_windows,
        chunk_size=chunk_size,
        slos=slos,
        recorder=recorder,
        postmortem_path=postmortem_path,
    )
    if resume is not None:
        return FleetService.resume(resume, engine, feed, **kwargs)
    return FleetService(engine, feed, **kwargs)


def tune_policy(
    ls,
    batch=None,
    *,
    performance: ColocationPerformance | None = None,
    load="web_search",
    config: FleetConfig | None = None,
    portfolio: tuple[PortfolioEntry, ...] | None = None,
    space: TuneSpace | None = None,
    n_trials: int = 12,
    descent_rounds: int = 2,
    tune_seed: int = 17,
    slo="qos:violation_rate<0.05",
    surrogate=None,
    store=None,
    sampling: SamplingConfig | None = None,
    fidelity=None,
    n_samples: int | None = None,
    **fleet,
) -> TuneResult:
    """Tune :class:`MonitorConfig` against an adversarial-scenario portfolio.

    The fleet is built as in :func:`run_fleet`: ``config`` with any
    :class:`~repro.fleet.engine.FleetConfig` field passed as a keyword
    applied over it.  Searches the :class:`~repro.tune.TuneSpace` grid
    (random trials + coordinate descent) with **common random numbers**:
    every candidate runs the same fleet ``seed`` on every portfolio
    scenario, and every fleet day is memoized through the
    content-addressed result store — warm re-runs simulate nothing.
    The fleet's ``monitor`` is the incumbent the result's ``default``
    row reports; ``slo`` supplies the violation-rate budget the score
    penalizes against.  ``tune_seed`` drives the search's own
    randomness, decoupled from the fleet's CRN ``seed``.  A
    heterogeneous co-runner ``population`` is measured per profile via
    :func:`measure`, as in :func:`run_fleet`.

    At ``fidelity="surrogate"`` (with a ``batch`` workload rather than a
    pre-measured ``performance``) the search *screens* candidates with
    the surrogate-measured performance model, then re-scores the winner
    and the incumbent with an exact-tier model at the same sampling
    effort — the returned ``best``/``default`` rows carry exact scores,
    while ``candidates`` keeps the screening ranking.
    """
    config = _fleet_config(config, fleet)
    ls_profile = resolve_profile(ls)
    __, fid = _resolve_effort(sampling, fidelity, None, n_samples)
    screening = (
        fid is not None and fid.is_surrogate
        and performance is None and batch is not None
    )
    effort = dict(sampling=sampling, fidelity=fidelity, n_samples=n_samples)
    performance, corunners = _set_up(
        ls_profile, config, batch, performance, None, effort,
        fits=surrogate is None,
    )
    result = tune_monitor(
        ls_profile, performance, config,
        portfolio=portfolio, space=space, load=load,
        n_trials=n_trials, descent_rounds=descent_rounds, seed=tune_seed,
        slo=slo, surrogate=surrogate, corunners=corunners, store=store,
    )
    if not screening:
        return result

    # Exact-tier confirmation: re-measure the pair (and any co-runner
    # population) exactly, at the same sampling effort as the surrogate's
    # calibration, and re-score the short list.
    exact_performance, exact_corunners = _set_up(
        ls_profile, config, batch, None, None, dict(sampling=fid.sampling),
        fits=surrogate is None,
    )
    monitors = [result.best.monitor]
    if result.default.monitor != result.best.monitor:
        monitors.append(result.default.monitor)
    scores, fleet_runs, cached_runs = confirm_candidates(
        ls_profile, exact_performance, config, monitors,
        portfolio=result.portfolio, load=load, slo=result.slo,
        surrogate=surrogate, corunners=exact_corunners, store=store,
    )
    confirmed = {score.monitor: score for score in scores}
    best = confirmed[result.best.monitor]
    return replace(
        result,
        best=best,
        default=confirmed.get(result.default.monitor, best),
        fleet_runs=result.fleet_runs + fleet_runs,
        cached_runs=result.cached_runs + cached_runs,
    )
