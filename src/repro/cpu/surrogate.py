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

Configurations outside the partitioned-ROB family (dynamically shared
ROB, custom LSQ splits) raise :class:`UnsupportedConfigError`; the
fidelity tier falls back to the exact sampler for those, so the surrogate
never silently answers a question it was not fitted for.  The tier fits a
family only for a lookup that asks it an off-anchor value: anchors alone
are the exact jobs themselves.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from repro.cpu.config import CoreConfig
from repro.cpu.sampling import SamplingConfig
from repro.engine.job import SimJob, thread_means
from repro.util.rng import derive_seed
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.registry import resolve_profile

__all__ = [
    "UIPC_SURROGATE_VERSION",
    "UnsupportedConfigError",
    "UipcGrid",
    "UipcSurrogate",
    "UipcFitJob",
    "family_axis",
    "family_config_at",
    "axis_scale",
    "fit_uipc_surrogate",
]

#: Bump to invalidate cached UIPC-surrogate fits after calibration changes.
UIPC_SURROGATE_VERSION = 1


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

    # -- content-addressed persistence ---------------------------------

    def to_values(self) -> tuple[float, ...]:
        """Flatten to a float tuple (the result-store value format)."""
        n_threads, n_anchors, n_samples = self.quantiles.shape
        header = [
            float(n_threads),
            float(n_anchors),
            float(n_samples),
            float(self.error_bound),
        ]
        return tuple(
            header
            + [float(a) for a in self.anchors]
            + [float(v) for v in self.quantiles.ravel()]
        )

    @classmethod
    def from_values(cls, values, workloads) -> "UipcSurrogate":
        values = tuple(values)
        n_threads, n_anchors, n_samples = (int(v) for v in values[:3])
        error_bound = float(values[3])
        cursor = 4
        anchors = tuple(int(v) for v in values[cursor:cursor + n_anchors])
        cursor += n_anchors
        size = n_threads * n_anchors * n_samples
        quantiles = np.array(values[cursor:cursor + size]).reshape(
            n_threads, n_anchors, n_samples
        )
        if cursor + size != len(values):
            raise ValueError("surrogate payload has trailing values")
        workloads = tuple(workloads)
        if len(workloads) != n_threads:
            raise ValueError(
                f"payload has {n_threads} thread(s), got workloads {workloads!r}"
            )
        return cls(
            kind="solo" if n_threads == 1 else "pair",
            workloads=workloads,
            anchors=anchors,
            quantiles=quantiles,
            error_bound=error_bound,
        )


# ----------------------------------------------------------------------
# Calibration through the result store
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
    compute=None,
) -> UipcSurrogate:
    """Calibrate a :class:`UipcSurrogate` for ``config``'s family.

    ``compute`` maps a job to its result tuple; it defaults to the
    content-addressed store, so anchors and validation replays memoize
    (and a re-fit after a grid change reuses every overlapping point).
    The anchors are the exact tier's own :class:`~repro.engine.job.SimJob`
    entries, so a fit after an exact run of the same sweep simulates
    only its validation replays.  ``workloads`` are profiles or
    registered names.
    """
    workloads = tuple(resolve_profile(w) for w in workloads)
    if compute is None:
        from repro.engine.store import default_store

        compute = default_store().compute
    canon, __ = family_axis(kind, config)
    scale = axis_scale(kind, canon)
    anchors = grid.anchor_values(kind, scale)
    n_threads = 1 if kind == "solo" else 2

    quantiles = np.empty((n_threads, len(anchors), sampling.n_samples))
    for k, x in enumerate(anchors):
        values = compute(SimJob(
            kind, workloads, family_config_at(kind, canon, x), sampling
        ))
        per_thread = np.asarray(values, dtype=float).reshape(n_threads, -1)
        quantiles[:, k, :] = np.sort(per_thread, axis=1)

    surrogate = UipcSurrogate(
        kind=kind,
        workloads=tuple(p.name for p in workloads),
        anchors=anchors,
        quantiles=quantiles,
        error_bound=0.0,
    )

    # Held-out validation: fresh derived seeds at off-anchor midpoints.
    worst = 0.0
    for v in grid.validation_values(kind, scale):
        member = family_config_at(kind, canon, v)
        for rep in range(grid.n_val_reps):
            exact = thread_means(compute(SimJob(
                kind, workloads, member, _validation_sampling(sampling, rep)
            )), n_threads)
            for t in range(n_threads):
                worst = max(
                    worst, abs(surrogate.predict(v, thread=t) - exact[t])
                )

    # Seed-noise floor: the exact reference is a mean of ``n_samples``
    # windows, so its seed-to-seed standard error is the window std over
    # sqrt(n_samples); the anchor replicates estimate that std directly.
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


@dataclass(frozen=True)
class UipcFitJob:
    """Content-addressed surrogate calibration (cacheable, picklable).

    Runs on the execution engine like any simulation job: ``key``
    content-addresses the workloads (full profile definitions, carried by
    value; names passed in are resolved), the *family* configuration, the
    sampling config and the calibration grid; ``run`` returns the
    flattened surrogate.  ``config`` must already be the family's
    canonical member (see :func:`family_axis`), so every member of a
    sweep maps to the same fit entry.
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

    @property
    def key(self) -> str:
        from repro.engine.store import CACHE_VERSION

        payload = repr((
            CACHE_VERSION,
            UIPC_SURROGATE_VERSION,
            "uipc-surrogate",
            self.kind,
            tuple(p.name for p in self.workloads),
            tuple(repr(p) for p in self.workloads),
            self.config,
            self.sampling,
            self.grid,
        ))
        return hashlib.sha256(payload.encode()).hexdigest()

    def run(self) -> tuple[float, ...]:
        return fit_uipc_surrogate(
            self.kind, self.workloads, self.config, self.sampling, self.grid
        ).to_values()

    def load(self, values) -> UipcSurrogate:
        """Rehydrate a stored fit result."""
        return UipcSurrogate.from_values(
            values, tuple(p.name for p in self.workloads)
        )
