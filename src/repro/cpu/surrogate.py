"""Fitted UIPC surrogate over the SMT-core sampling simulator.

A full-figure sweep runs hundreds of ``(config, workload, sample)`` core
simulations even at quick fidelity — the remaining cost of every
``fig03``–``fig13`` regeneration and of any search loop that needs fresh
``measure()`` profiles.  For the partitioned-ROB configuration families
those sweeps vary exactly one axis (the thread-0 ROB limit; the LSQ
follows proportionally), so the sweep can be answered by a fitted curve
instead, the same way :mod:`repro.fleet.surrogate` answers per-window
tail queries without a DES run:

* **Calibration** reads the exact tier's own jobs at a handful of anchor
  points of the ROB axis: each anchor is the
  :class:`~repro.engine.job.SimJob` the exact sampler runs there with the
  experiment's own ``SamplingConfig``, one content-addressed store entry
  holding the per-sample UIPCs.  The fit keeps them **sorted** at each
  anchor as an empirical window distribution.
* **Prediction** interpolates the anchor means piecewise-linearly, so a
  query *at* an anchor reproduces the exact tier's mean (bit-for-bit at
  two samples per anchor, where the sorted mean is the sample-order one).
* **Validation** replays the exact sampler with *held-out* derived seeds
  at off-anchor midpoints; the worst absolute mean-UIPC error times a
  safety margin is reported as :attr:`UipcSurrogate.error_bound` next to
  every prediction, and ``stretch-repro check --surrogate`` gates the
  empirical error of fresh held-out configurations against it.

A fit is a :class:`UipcFitJob`: it lists those anchor and validation
jobs (:meth:`UipcFitJob.members`) and builds the surrogate from their
values (:meth:`UipcFitJob.assemble`), so whoever reads the members — a
store, an :class:`~repro.engine.ExecutionEngine` prefetch — runs and
keeps every simulation, and the fit itself is never stored.

Configurations outside the partitioned-ROB family (dynamically shared
ROB, custom LSQ splits) raise :class:`UnsupportedConfigError`; the
fidelity tier falls back to the exact sampler for those, so the surrogate
never silently answers a question it was not fitted for.  The tier fits a
family only for a lookup that asks it an off-anchor value: anchors alone
are the exact jobs themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.cpu.config import CoreConfig
from repro.cpu.sampling import SamplingConfig
from repro.engine.job import SimJob, thread_means
from repro.engine.store import default_store
from repro.util.rng import derive_seed
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.registry import resolve_profile

__all__ = [
    "UnsupportedConfigError",
    "UipcGrid",
    "UipcSurrogate",
    "UipcFitJob",
    "family_axis",
    "family_config_at",
    "axis_scale",
    "fit_uipc_surrogate",
]


class UnsupportedConfigError(ValueError):
    """The configuration is outside the partitioned-ROB surrogate family."""


def _scaled(fractions: tuple[float, ...], scale: int) -> tuple[int, ...]:
    """Map axis fractions onto integer ROB entries, deduplicated and sorted."""
    values = sorted({max(1, round(f * scale)) for f in fractions})
    return tuple(v for v in values if v < scale or v == scale)


@dataclass(frozen=True)
class UipcGrid:
    """Calibration design for :func:`fit_uipc_surrogate`.

    Anchor and validation positions are *fractions of the axis scale* —
    the ROB capacity for solo families, the partition total for pair
    families — so one grid serves the stock 192-entry core and the
    double-capacity private-structure configs alike.  The solo anchors
    land exactly on the Fig. 6 sweep's {16, 32, 48, 64, 96, 128, 192}
    points at scale 192; the pair anchors on {32, 56, 96, 136, 160}
    (baseline plus the headline B/Q modes and the extreme skews).
    ``n_val_reps`` exact replays with held-out derived seeds at each
    validation midpoint measure the reported error bound:
    ``error_margin`` times the worst observed validation error, plus
    ``noise_z`` standard errors of the exact reference itself (estimated
    from the anchor window replicates — the reference is a mean of only
    ``n_samples`` windows, so even a perfect fit sees seed-to-seed
    scatter).  Both terms are deliberately conservative: at quick-tier
    sampling the reference noise is heavy-tailed and the max of 8
    validation observations under-estimates its tail — the 50-config
    held-out gate of :mod:`repro.check.surrogate` (run in CI) caught
    plain 1.5x/2.0x/2.5x margins without the noise floor as dishonest,
    with fresh configs up to ~2.7x the pre-margin worst.  Expect
    reported bounds ~2-4x the typical observed error.
    """

    solo_anchors: tuple[float, ...] = (
        1 / 12, 1 / 6, 1 / 4, 1 / 3, 1 / 2, 2 / 3, 1.0
    )
    solo_validation: tuple[float, ...] = (5 / 24, 5 / 12, 7 / 12, 5 / 6)
    pair_anchors: tuple[float, ...] = (1 / 6, 7 / 24, 1 / 2, 17 / 24, 5 / 6)
    pair_validation: tuple[float, ...] = (11 / 48, 19 / 48, 29 / 48, 37 / 48)
    n_val_reps: int = 2
    error_margin: float = 2.5
    noise_z: float = 3.0

    def __post_init__(self) -> None:
        for name in ("solo_anchors", "pair_anchors"):
            if len(getattr(self, name)) < 2:
                raise ValueError(f"{name} needs at least 2 points")
        if not self.solo_validation or not self.pair_validation:
            raise ValueError("validation needs at least 1 point")
        if self.n_val_reps < 1:
            raise ValueError("n_val_reps must be >= 1")
        if self.error_margin < 1.0:
            raise ValueError("error_margin must be >= 1.0")
        if self.noise_z < 0.0:
            raise ValueError("noise_z must be >= 0")

    def anchor_values(self, kind: str, scale: int) -> tuple[int, ...]:
        fractions = self.solo_anchors if kind == "solo" else self.pair_anchors
        values = _scaled(fractions, scale)
        if len(values) < 2:
            raise UnsupportedConfigError(
                f"axis scale {scale} leaves fewer than 2 distinct anchors"
            )
        return values

    def validation_values(self, kind: str, scale: int) -> tuple[int, ...]:
        fractions = (
            self.solo_validation if kind == "solo" else self.pair_validation
        )
        anchors = set(self.anchor_values(kind, scale))
        return tuple(v for v in _scaled(fractions, scale) if v not in anchors)


# ----------------------------------------------------------------------
# Configuration families
# ----------------------------------------------------------------------


def family_axis(kind: str, config: CoreConfig) -> tuple[CoreConfig, int]:
    """Split a config into its surrogate family and ROB-axis value.

    The family is the configuration with the ROB/LSQ partition normalized
    out (solo: the full-capacity single-thread config; pair: the equal
    split of the same partition total); the axis is the thread-0 ROB
    limit.  Raises :class:`UnsupportedConfigError` when the config does
    not round-trip through the paper's proportional-LSQ partitioning —
    e.g. a dynamically shared ROB or a hand-set LSQ split — which the
    fidelity tier treats as "run this one exactly".
    """
    if kind == "solo":
        x = config.rob_limits[0]
        canon = config.single_thread(config.rob_entries)
        if config != canon.single_thread(x):
            raise UnsupportedConfigError(
                f"config is not a proportional single-thread partition "
                f"(limits {config.rob_limits}/{config.lsq_limits})"
            )
        return canon, x
    if kind == "pair":
        t0, t1 = config.rob_limits
        total = t0 + t1
        canon = config.with_rob_partition(total // 2, total - total // 2)
        if config != canon.with_rob_partition(t0, t1):
            raise UnsupportedConfigError(
                f"config is not a proportional ROB partition "
                f"(policy {config.rob_policy}, limits "
                f"{config.rob_limits}/{config.lsq_limits})"
            )
        return canon, t0
    raise ValueError(f"kind must be 'solo' or 'pair', got {kind!r}")


def family_config_at(kind: str, canon: CoreConfig, x: int) -> CoreConfig:
    """The family member at axis value ``x`` (inverse of :func:`family_axis`)."""
    if kind == "solo":
        return canon.single_thread(x)
    total = sum(canon.rob_limits)
    return canon.with_rob_partition(x, total - x)


def axis_scale(kind: str, canon: CoreConfig) -> int:
    """The axis capacity anchor fractions scale against (ROB total)."""
    return canon.rob_entries if kind == "solo" else sum(canon.rob_limits)


# ----------------------------------------------------------------------
# The fitted surrogate
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class UipcSurrogate:
    """Fitted per-mode UIPC model for one (workloads, family, sampling).

    ``quantiles`` has shape ``(n_threads, n_anchors, n_samples)`` and is
    sorted along the sample axis — the empirical window-UIPC distribution
    at each ROB-axis anchor.  Means interpolate linearly between anchors;
    at an anchor they are the mean of the exact tier's own entry there.
    """

    kind: str
    workloads: tuple[str, ...]
    anchors: tuple[int, ...]
    quantiles: np.ndarray  # (n_threads, n_anchors, n_samples), sorted
    error_bound: float

    @property
    def n_samples(self) -> int:
        return self.quantiles.shape[2]

    @property
    def mean_curve(self) -> np.ndarray:
        """Mean UIPC per anchor — shape (n_threads, n_anchors)."""
        return self.quantiles.mean(axis=2)

    def _check_range(self, xs: np.ndarray) -> None:
        lo, hi = self.anchors[0], self.anchors[-1]
        if np.any(xs < lo) or np.any(xs > hi):
            raise ValueError(
                f"axis value(s) outside the fitted range [{lo}, {hi}]: "
                f"{np.asarray(xs)[(xs < lo) | (xs > hi)].tolist()}"
            )

    def predict(self, x, thread: int = 0) -> float:
        """Predicted mean UIPC at ROB-axis value ``x`` (+- error_bound)."""
        return float(self.predict_many(np.asarray([x]), thread)[0])

    def predict_many(self, xs, thread: int = 0) -> np.ndarray:
        """Vectorized :meth:`predict` over a whole axis grid."""
        xs = np.asarray(xs, dtype=float)
        self._check_range(xs)
        return np.interp(xs, self.anchors, self.mean_curve[thread])


# ----------------------------------------------------------------------
# Calibration from the exact tier's jobs
# ----------------------------------------------------------------------


def _validation_sampling(sampling: SamplingConfig, rep: int) -> SamplingConfig:
    # Held-out seeds: derived from — but never equal to — the fit seed, so
    # the reported bound covers seed-to-seed sampling variation on top of
    # interpolation error.
    return replace(
        sampling, seed=derive_seed(sampling.seed, "uipc-surrogate-val", rep)
    )


def fit_uipc_surrogate(
    kind: str,
    workloads: tuple[str | WorkloadProfile, ...],
    config: CoreConfig,
    sampling: SamplingConfig,
    grid: UipcGrid = UipcGrid(),
) -> UipcSurrogate:
    """Calibrate a :class:`UipcSurrogate` for ``config``'s family.

    The fit's :meth:`~UipcFitJob.members` run through the
    content-addressed store, so anchors and validation replays memoize
    (and a re-fit after a grid change reuses every overlapping point).
    The anchors are the exact tier's own :class:`~repro.engine.job.SimJob`
    entries, so a fit after an exact run of the same sweep simulates
    only its validation replays.  ``workloads`` are profiles or
    registered names.
    """
    fit = UipcFitJob(kind, workloads, family_axis(kind, config)[0], sampling,
                     grid)
    return fit.assemble([default_store().compute(job) for job in fit.members()])


@dataclass(frozen=True)
class UipcFitJob:
    """The calibration of one configuration family (picklable).

    Like the tail fit's :class:`~repro.fleet.surrogate.SurrogateFitJob`,
    it is not a job of its own: :meth:`members` lists the exact
    :class:`~repro.engine.job.SimJob` objects it reads and
    :meth:`assemble` builds the surrogate from their values, so the
    members run and are stored wherever their reader runs them.
    ``workloads`` are carried by value (names passed in are resolved).
    ``config`` must already be the family's canonical member (see
    :func:`family_axis`), so every member of a sweep maps to the same fit.
    """

    kind: str
    workloads: tuple[WorkloadProfile, ...]
    config: CoreConfig
    sampling: SamplingConfig
    grid: UipcGrid = UipcGrid()

    def __post_init__(self) -> None:
        canon, __ = family_axis(self.kind, self.config)
        if canon != self.config:
            raise ValueError(
                "UipcFitJob.config must be the family's canonical member; "
                "use family_axis() to normalize"
            )
        object.__setattr__(
            self, "workloads", tuple(resolve_profile(w) for w in self.workloads)
        )

    def _points(self) -> tuple[tuple[int, ...], list[tuple[int, int]]]:
        """The anchors, and each validation replay's ``(value, rep)``."""
        scale = axis_scale(self.kind, self.config)
        grid = self.grid
        return grid.anchor_values(self.kind, scale), [
            (v, rep)
            for v in grid.validation_values(self.kind, scale)
            for rep in range(grid.n_val_reps)
        ]

    def members(self) -> tuple[SimJob, ...]:
        """The exact jobs the fit reads, in the order :meth:`assemble`
        takes their values: one per anchor, then ``n_val_reps`` held-out
        replays per validation value."""
        anchors, replays = self._points()
        points = [(x, self.sampling) for x in anchors] + [
            (v, _validation_sampling(self.sampling, rep)) for v, rep in replays
        ]
        return tuple(
            SimJob(self.kind, self.workloads,
                   family_config_at(self.kind, self.config, x), sampling)
            for x, sampling in points
        )

    def assemble(self, values) -> UipcSurrogate:
        """The fitted surrogate from its members' values, given in
        :meth:`members` order."""
        sampling, grid = self.sampling, self.grid
        anchors, replays = self._points()
        n_threads = len(self.workloads)

        quantiles = np.empty((n_threads, len(anchors), sampling.n_samples))
        for k, anchor in enumerate(values[:len(anchors)]):
            per_thread = np.asarray(anchor, dtype=float).reshape(n_threads, -1)
            quantiles[:, k, :] = np.sort(per_thread, axis=1)

        surrogate = UipcSurrogate(
            kind=self.kind,
            workloads=tuple(p.name for p in self.workloads),
            anchors=anchors,
            quantiles=quantiles,
            error_bound=0.0,
        )

        # Held-out validation: fresh derived seeds at off-anchor midpoints.
        worst = 0.0
        for (v, __), replay in zip(replays, values[len(anchors):], strict=True):
            exact = thread_means(replay, n_threads)
            for t in range(n_threads):
                worst = max(
                    worst, abs(surrogate.predict(v, thread=t) - exact[t])
                )

        # Seed-noise floor: the exact reference is a mean of ``n_samples``
        # windows, so its seed-to-seed standard error is the window std
        # over sqrt(n_samples); the anchor replicates estimate that std.
        noise = 0.0
        if sampling.n_samples > 1:
            sigma_mean = (
                quantiles.std(axis=2, ddof=1).mean(axis=1)
                / np.sqrt(sampling.n_samples)
            )
            noise = grid.noise_z * float(sigma_mean.max())
        return replace(
            surrogate, error_bound=worst * grid.error_margin + noise
        )
