"""Shared experiment infrastructure.

* :class:`Fidelity` — how much simulation effort each experiment spends,
  behind one extensible registry: exact tiers (``quick`` for regression
  runs, ``full`` for tighter statistics) pick sampling parameters, while
  the ``surrogate`` tier additionally answers partitioned-ROB sweeps from
  a fitted :class:`~repro.cpu.surrogate.UipcSurrogate` instead of the
  exact sampler.  :meth:`Fidelity.resolve` is the single entry point the
  API verbs, the CLI and ``REPRO_FIDELITY`` all consume; third parties
  register new tiers with :func:`register_fidelity`.
* core-configuration constructors for every sharing regime the paper
  evaluates (all-shared SMT baseline, share-one-resource-only, all-private
  ideal scheduling, dynamically shared ROB, fetch throttling, solo);
* memoized simulation entry points (:func:`solo_uipc`, :func:`pair_uipc`,
  and the batched :func:`solo_uipc_many` / :func:`pair_uipc_many`)
  backed by the content-addressed result store of :mod:`repro.engine`,
  since many figures reuse the same baseline colocation runs.  All four
  take workload names or profiles, and either a raw
  :class:`~repro.cpu.sampling.SamplingConfig` (always
  exact) or a :class:`Fidelity` (tier-aware: the surrogate tier
  interpolates a fitted family where a call asks it an off-anchor value,
  and runs the exact jobs everywhere else);
* :func:`recorded_jobs`, which derives an experiment's job grid for the
  execution engine from its ``run`` by recording those lookups.
"""

from __future__ import annotations

import os
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.cpu.config import CoreConfig, PartitionPolicy
from repro.cpu.sampling import SamplingConfig, shared_sampling_points
from repro.cpu.surrogate import (
    UipcFitJob,
    UipcGrid,
    UnsupportedConfigError,
    axis_scale,
    family_axis,
)
from repro.engine.job import SimJob, thread_means
from repro.engine.store import CACHE_VERSION, default_store
from repro.obs.metrics import get_registry
from repro.workloads.cloudsuite import CLOUDSUITE_NAMES
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.spec2006 import SPEC2006_NAMES

__all__ = [
    "Fidelity",
    "register_fidelity",
    "fidelity_names",
    "CACHE_VERSION",
    "LS_WORKLOADS",
    "BATCH_WORKLOADS",
    "config_all_shared",
    "config_solo",
    "config_share_only",
    "config_all_private",
    "config_dynamic_rob",
    "config_fetch_throttle",
    "solo_uipc",
    "pair_uipc",
    "solo_uipc_many",
    "pair_uipc_many",
    "recorded_jobs",
]

LS_WORKLOADS: tuple[str, ...] = CLOUDSUITE_NAMES
BATCH_WORKLOADS: tuple[str, ...] = SPEC2006_NAMES


@dataclass(frozen=True)
class Fidelity:
    """Simulation effort level for the experiment harnesses.

    ``grid`` marks a surrogate tier: a lookup that asks a partitioned-ROB
    family an off-anchor value is answered by a
    :class:`~repro.cpu.surrogate.UipcSurrogate` calibrated on that grid
    (with ``sampling`` supplying the calibration seeds), and every other
    query runs the exact sampler.  Exact tiers leave it ``None``.
    """

    name: str
    sampling: SamplingConfig
    grid: UipcGrid | None = None

    @property
    def is_surrogate(self) -> bool:
        return self.grid is not None

    @classmethod
    def quick(cls, seed: int = 42) -> "Fidelity":
        return cls("quick", SamplingConfig(n_samples=2, warmup_instructions=5000,
                                           measure_instructions=6000, seed=seed))

    @classmethod
    def full(cls, seed: int = 42) -> "Fidelity":
        return cls("full", SamplingConfig(n_samples=4, warmup_instructions=10000,
                                          measure_instructions=12000, seed=seed))

    @classmethod
    def surrogate(cls, seed: int = 42) -> "Fidelity":
        """Quick-tier sampling, with partitioned-ROB sweeps answered by a
        fitted surrogate (error bound reported per fit)."""
        return cls("surrogate", cls.quick(seed).sampling, grid=UipcGrid())

    @classmethod
    def resolve(
        cls,
        value: "str | Fidelity",
        root: int = 42,
        *,
        seed: int | None = None,
        n_samples: int | None = None,
    ) -> "Fidelity":
        """Resolve a tier name (or pass through an instance) with overrides.

        ``root`` seeds a tier built from a registered name; ``seed`` and
        ``n_samples`` override the resolved sampling configuration either
        way.  Unknown names raise a :class:`ValueError` that lists the
        currently registered tiers.
        """
        if isinstance(value, cls):
            fidelity = value
        elif isinstance(value, str):
            factory = _REGISTRY.get(value.lower())
            if factory is None:
                known = ", ".join(repr(n) for n in fidelity_names())
                raise ValueError(
                    f"unknown fidelity {value!r}; registered tiers: {known}"
                )
            fidelity = factory(root)
        else:
            raise TypeError(
                f"fidelity must be a str or Fidelity, got {type(value).__name__}"
            )
        overrides = {}
        if seed is not None:
            overrides["seed"] = seed
        if n_samples is not None:
            overrides["n_samples"] = n_samples
        if overrides:
            fidelity = replace(
                fidelity, sampling=replace(fidelity.sampling, **overrides)
            )
        return fidelity

    @classmethod
    def from_env(cls, seed: int = 42) -> "Fidelity":
        """Read ``REPRO_FIDELITY`` (a registered tier name, default quick).

        ``seed`` threads a command-line root seed through to the sampling
        configuration (``stretch-repro --seed``).
        """
        value = os.environ.get("REPRO_FIDELITY", "quick")
        try:
            return cls.resolve(value, root=seed)
        except ValueError:
            known = ", ".join(fidelity_names())
            raise ValueError(
                f"REPRO_FIDELITY must be one of {known}, got {value!r}"
            ) from None


#: Registered tier name -> factory(root_seed) -> Fidelity.
_REGISTRY: dict[str, Callable[[int], Fidelity]] = {}


def register_fidelity(
    name: str, factory: Callable[[int], Fidelity], *, overwrite: bool = False
) -> None:
    """Register a fidelity tier under ``name`` (lower-cased).

    ``factory`` maps a root seed to a :class:`Fidelity`.  Registered
    names resolve through :meth:`Fidelity.resolve`, the CLI
    ``--fidelity`` flag and ``REPRO_FIDELITY`` alike.
    """
    key = name.lower()
    if not overwrite and key in _REGISTRY:
        raise ValueError(f"fidelity tier {name!r} is already registered")
    _REGISTRY[key] = factory


def fidelity_names() -> tuple[str, ...]:
    """Currently registered tier names, sorted (for CLI choices/errors)."""
    return tuple(sorted(_REGISTRY))


register_fidelity("quick", Fidelity.quick)
register_fidelity("full", Fidelity.full)
register_fidelity("surrogate", Fidelity.surrogate)


# ----------------------------------------------------------------------
# Core configurations for the paper's sharing regimes
# ----------------------------------------------------------------------

def config_all_shared() -> CoreConfig:
    """Baseline SMT core: everything shared, ROB/LSQ equally partitioned."""
    return CoreConfig()


def config_solo(rob_entries: int = 192) -> CoreConfig:
    """Stand-alone execution on a full core (normalization reference)."""
    return CoreConfig().single_thread(rob_entries)


def _private_everything() -> CoreConfig:
    """Both threads get private full-size structures (nothing under study).

    Each thread owns a full 192-entry ROB / 64-entry LSQ (modeled as a
    double-capacity structure with full per-thread limits), private L1s and
    private branch prediction.  Fetch/dispatch/commit bandwidth remains
    shared — it is inherent to SMT, not a provisioned resource.
    """
    base = CoreConfig()
    return replace(
        base,
        rob_entries=base.rob_entries * 2,
        lsq_entries=base.lsq_entries * 2,
        rob_limits=(base.rob_entries, base.rob_entries),
        lsq_limits=(base.lsq_entries, base.lsq_entries),
        private_l1i=True,
        private_l1d=True,
        private_bp=True,
    )


def config_share_only(resource: str) -> CoreConfig:
    """Private structures for everything except ``resource`` (Figs. 4-5).

    ``resource`` is one of ``rob``, ``l1i``, ``l1d``, ``bp`` (BTB + direction
    predictor).  Sharing the ROB means the threads fall back to the halved
    static partitions of the baseline core.
    """
    config = _private_everything()
    base = CoreConfig()
    if resource == "rob":
        return replace(
            config,
            rob_entries=base.rob_entries,
            lsq_entries=base.lsq_entries,
            rob_limits=base.rob_limits,
            lsq_limits=base.lsq_limits,
        )
    if resource == "l1i":
        return replace(config, private_l1i=False)
    if resource == "l1d":
        return replace(config, private_l1d=False)
    if resource == "bp":
        return replace(config, private_bp=False)
    raise ValueError(f"unknown resource {resource!r}; use rob/l1i/l1d/bp")


def config_all_private() -> CoreConfig:
    """Ideal software scheduling (Fig. 13): contention-free shared structures.

    Private L1-I/L1-D/BP per thread; ROB/LSQ keep the baseline equal static
    partitioning (software scheduling cannot provision core resources).
    """
    return replace(
        CoreConfig(), private_l1i=True, private_l1d=True, private_bp=True
    )


def config_dynamic_rob() -> CoreConfig:
    """Dynamically shared ROB/LSQ baseline (Fig. 11)."""
    return replace(CoreConfig(), rob_policy=PartitionPolicy.SHARED)


def config_fetch_throttle(m: int) -> CoreConfig:
    """Fetch throttling 1:M (Fig. 12): thread 1 (batch) gets M cycles of
    fetch priority for each cycle of the latency-sensitive thread 0."""
    if m < 1:
        raise ValueError("throttle ratio must be at least 1:1")
    return replace(CoreConfig(), fetch_policy="ratio", fetch_ratio=(1, m))


# ----------------------------------------------------------------------
# Memoized simulation entry points
# ----------------------------------------------------------------------
#
# All entry points delegate to the content-addressed result store in
# ``repro.engine.store`` (atomic writes, corrupt-entry tolerance, in-flight
# deduplication).  ``stretch-repro --jobs N`` pre-populates that store by
# running each experiment's job grid on a process pool, after which these
# calls are pure cache hits.  The grid is derived from the experiment's own
# ``run`` by :func:`recorded_jobs`, so it holds exactly the jobs ``run``
# reads.
#
# The ``effort`` argument is a SamplingConfig (always exact — the historic
# calling convention) or a Fidelity.  At a surrogate tier a partitioned-
# ROB family that one call asks at least one off-anchor value of answers
# that call's queries from a UipcSurrogate fit.  Every other query (a
# family asked only at its anchors, an unsupported config family, an axis
# value outside the anchor range) reads its exact job instead, so
# results are defined for every input — only their cost and error bound
# differ.  A fit's members are exact jobs too: one store entry per
# simulation, whichever tier asked for it, and none for the fit.

#: The jobs the lookups note while :func:`recorded_jobs` runs an
#: experiment; None otherwise (the lookups then compute).
_recording: ContextVar[list | None] = ContextVar(
    "repro_recorded_jobs", default=None
)


def _sampling_of(effort: SamplingConfig | Fidelity) -> SamplingConfig:
    if isinstance(effort, Fidelity):
        return effort.sampling
    if isinstance(effort, SamplingConfig):
        return effort
    raise TypeError(
        f"expected SamplingConfig or Fidelity, got {type(effort).__name__}"
    )


def _surrogate_family(
    kind: str, config: CoreConfig, effort: SamplingConfig | Fidelity
) -> tuple[CoreConfig, int, bool] | None:
    """``(family, axis value, off an anchor)`` where a surrogate fit can
    answer ``config`` at this tier, or None where only the exact sampler
    can: at an exact tier, for an unsupported family, or off the fit's
    anchor range."""
    if not (isinstance(effort, Fidelity) and effort.is_surrogate):
        return None
    try:
        canon, x = family_axis(kind, config)
        anchors = effort.grid.anchor_values(kind, axis_scale(kind, canon))
    except UnsupportedConfigError:
        return None
    if not anchors[0] <= x <= anchors[-1]:
        return None
    return canon, x, x not in anchors


# Every config of a sweep (and any surrogate fit) runs on the same sampling
# points: build each once per call.
@shared_sampling_points()
def _uipc_many(
    kind: str,
    workloads: tuple[str | WorkloadProfile, ...],
    configs,
    effort: SamplingConfig | Fidelity,
) -> tuple[tuple[float, ...], ...]:
    """Per-config tuple of per-thread mean UIPCs for one solo/pair sweep.

    A family this call asks at least one off-anchor value of is fitted
    once from its members' store entries and answers all its configs as
    one vectorized interpolation; every other config reads its exact job.
    A surrogate tier counts both (``surrogate.fits``/``.exact_lookups``).
    Under :func:`recorded_jobs` nothing runs: the jobs are noted and every
    value reads 1.0.
    """
    configs = tuple(configs)
    sampling = _sampling_of(effort)
    families: dict[CoreConfig, list[tuple[int, int]]] = {}
    interpolated: set[CoreConfig] = set()
    for i, config in enumerate(configs):
        family = _surrogate_family(kind, config, effort)
        if family is not None:
            canon, x, off_anchor = family
            families.setdefault(canon, []).append((i, x))
            if off_anchor:
                interpolated.add(canon)
    # A family asked only anchor values reads their exact jobs, whose
    # means are what its fit would hand back.
    fits = {
        canon: UipcFitJob(kind, workloads, canon, sampling, effort.grid)
        for canon in families
        if canon in interpolated
    }
    fitted = {i for canon in fits for i, __ in families[canon]}
    exact = {
        i: SimJob(kind, workloads, config, sampling)
        for i, config in enumerate(configs)
        if i not in fitted
    }
    recording = _recording.get()
    if recording is not None:
        recording += [job for fit in fits.values() for job in fit.members()]
        recording += exact.values()
        return ((1.0,) * len(workloads),) * len(configs)
    if isinstance(effort, Fidelity) and effort.is_surrogate:
        registry = get_registry()
        registry.counter("surrogate.fits").inc(len(fits))
        registry.counter("surrogate.exact_lookups").inc(len(exact))
    store = default_store()
    out: list = [None] * len(configs)
    for canon, fit in fits.items():
        surrogate = fit.assemble([store.compute(job) for job in fit.members()])
        queries = families[canon]
        xs = np.array([x for __, x in queries], dtype=float)
        grid_values = np.stack(
            [surrogate.predict_many(xs, thread=t) for t in range(len(workloads))],
            axis=1,
        )
        for (i, __), row in zip(queries, grid_values):
            out[i] = tuple(float(v) for v in row)
    for i, job in exact.items():
        out[i] = thread_means(store.compute(job), len(workloads))
    return tuple(out)


def solo_uipc(
    workload: str | WorkloadProfile,
    config: CoreConfig,
    effort: SamplingConfig | Fidelity,
) -> float:
    """Mean stand-alone UIPC of ``workload`` under ``config`` (memoized)."""
    return solo_uipc_many(workload, (config,), effort)[0]


def pair_uipc(
    ls_workload: str | WorkloadProfile,
    batch_workload: str | WorkloadProfile,
    config: CoreConfig,
    effort: SamplingConfig | Fidelity,
) -> tuple[float, float]:
    """Mean colocated UIPC ``(ls, batch)`` for a pair (memoized).

    Thread 0 runs the latency-sensitive workload, thread 1 the batch one,
    matching :class:`~repro.core.partitioning.PartitionScheme` orientation.
    """
    return pair_uipc_many(ls_workload, batch_workload, (config,), effort)[0]


def solo_uipc_many(
    workload: str | WorkloadProfile, configs, effort: SamplingConfig | Fidelity
) -> tuple[float, ...]:
    """Batched :func:`solo_uipc` over a config sweep (one value per config)."""
    return tuple(v for v, in _uipc_many("solo", (workload,), configs, effort))


def pair_uipc_many(
    ls_workload: str | WorkloadProfile,
    batch_workload: str | WorkloadProfile,
    configs,
    effort: SamplingConfig | Fidelity,
) -> tuple[tuple[float, float], ...]:
    """Batched :func:`pair_uipc` over a config sweep (one pair per config)."""
    return _uipc_many("pair", (ls_workload, batch_workload), configs, effort)


def recorded_jobs(run: Callable) -> Callable[..., list]:
    """Derive an experiment's simulation grid from its ``run``.

    ``jobs = recorded_jobs(run)`` gives a module the ``jobs(fidelity,
    **kwargs)`` that ``stretch-repro --jobs N`` pre-executes.  It calls
    ``run(fidelity, **kwargs)`` with every lookup above noting the job it
    would run instead of running it — the
    :class:`~repro.engine.job.SimJob`, or at a surrogate tier the
    :meth:`~repro.cpu.surrogate.UipcFitJob.members` of a family the lookup
    asks an off-anchor value of — and answering 1.0 per thread, and
    returns those jobs (all ``SimJob`` objects) deduplicated in first-use
    order.
    What ``run`` reads is thus what ``jobs`` prefetches.

    This relies on ``run``'s lookups not depending on looked-up values,
    as in every figure sweep: their loops range over workloads and
    configurations only, and the values feed arithmetic.  An experiment
    that feeds UIPCs into what it looks up next, or into costly work of
    its own (``ext_two_services`` runs the queueing DES on them), must
    not derive its grid this way.
    """

    def grid(fidelity: Fidelity | None = None, **kwargs) -> list:
        recording: list = []
        token = _recording.set(recording)
        try:
            run(fidelity, **kwargs)
        finally:
            _recording.reset(token)
        return list(dict.fromkeys(recording))

    grid.__doc__ = f"The job grid ``{run.__module__}.run`` reads."
    return grid
