"""Fitted tail-latency surrogate over the discrete-event queueing simulator.

The fleet engine cannot afford one :class:`~repro.qos.queueing.ServiceSimulator`
run per (server, window) — at 100k servers × 144 windows that is 14M DES
runs.  Instead it evaluates tail latency through a surrogate fitted *once*
per ``(QoS contract, perf-factor set)``:

* **Calibration** runs the DES over a ``perf × load`` grid with common
  random numbers: each calibration replicate uses one simulator seed —
  drawn like a fleet server seed — across the whole grid, so replicate
  surfaces are paired and load/perf interpolation is smooth.
* Window tails are a *mixture*: the MMPP burst pattern of a window is
  rate-independent, so a window is either calm (tail ≈ the service-time
  tail) or bursty (tail blows up with load).  A mean/variance summary
  would misrepresent that, so the surrogate keeps the **sorted replicate
  tails per grid point** (empirical order statistics) and samples windows
  by inverse-CDF over deterministic per-(server, window) uniforms —
  reproducing both the calm/bursty split and its load dependence.
* **Validation** replays *held-out* simulator seeds at off-grid (midpoint)
  loads and reports the worst absolute error of the predicted mean tail as
  :attr:`TailSurrogate.error_bound_ms` — the stated bound the fleet
  equivalence gate (``TestSurrogateEquivalenceGate``) checks against
  ``tail="exact"`` fleet days.

Only the load axis interpolates (piecewise-linear).  Performance factors
are categorical: the fleet uses exactly one factor per Stretch mode plus
1.0 for throttled windows, and each gets its own fitted row.

Each replicate (one simulator seed: its peak bisection and its grid
streams) is a :class:`SurrogateReplicateJob` of its own, and a fit is its
replicates' values assembled in replicate order, so the replicates can run
on any number of processes and the fit keeps its bits
(:meth:`repro.fleet.FleetEngine.ensure_surrogate` runs them on every core).
A replicate's peak bisection reads no perf factor, so it is also a
:class:`PeakLoadJob` (:func:`peak_jobs`) that can run before the fleet's
perf rows are measured; a remembered peak spares the replicate its
bisection.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.qos.queueing import ServiceSimulator
from repro.util.rng import derive_seed
from repro.workloads.profiles import QoSSpec

__all__ = [
    "PeakLoadJob",
    "SurrogateGrid",
    "SurrogateFitJob",
    "SurrogateReplicateJob",
    "TailSurrogate",
    "fit_tail_surrogate",
    "peak_jobs",
]

#: Bump to invalidate cached surrogate fits after calibration changes.
SURROGATE_VERSION = 2

#: Default load grid; spans the fleet engine's clamp range [0.02, 1.2] so
#: prediction never extrapolates.
_DEFAULT_LOADS = (
    0.02, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2,
)


@dataclass(frozen=True)
class SurrogateGrid:
    """Calibration design for :func:`fit_tail_surrogate`.

    ``n_requests`` should equal the fleet's ``requests_per_window`` so the
    surrogate reproduces the same finite-sample tail distribution the
    per-server DES would produce; ``peak_requests`` must match the horizon
    servers use to calibrate their peak (``max(20000, requests_per_window)``
    on the exact path).  ``n_reps`` doubles as the quantile resolution of
    the stored window-tail distribution.
    """

    loads: tuple[float, ...] = _DEFAULT_LOADS
    n_requests: int = 2000
    peak_requests: int = 20000
    n_reps: int = 10
    n_val_reps: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.loads) < 2:
            raise ValueError("surrogate grid needs at least 2 load points")
        if list(self.loads) != sorted(set(self.loads)):
            raise ValueError("surrogate loads must be strictly increasing")
        if min(self.n_requests, self.peak_requests) < 1:
            raise ValueError("request counts must be positive")
        if self.n_reps < 2:
            raise ValueError("n_reps must be >= 2 (distribution needs replicates)")
        if self.n_val_reps < 1:
            raise ValueError("n_val_reps must be >= 1")


def _midpoints(grid: SurrogateGrid) -> tuple[float, ...]:
    loads = np.asarray(grid.loads)
    return tuple((loads[:-1] + loads[1:]) / 2.0)


def _series(grid: SurrogateGrid) -> tuple[tuple[str, tuple, int], ...]:
    """A fit's replicate series, ``(label, loads, n_reps)``: calibration
    over the grid's loads, then validation over their midpoints (fresh
    seeds, loads never calibrated)."""
    return (
        ("surrogate-cal", grid.loads, grid.n_reps),
        ("surrogate-val", _midpoints(grid), grid.n_val_reps),
    )


def _simulator(qos: QoSSpec, n_workers: int, seed: int, label: str,
               rep: int) -> ServiceSimulator:
    # Replicate seeds are drawn exactly like fleet server seeds (masked
    # derive_seed), so across-replicate spread reflects across-server and
    # across-window spread in the fleet.
    seed = derive_seed(seed, label, rep) & 0x7FFFFF
    return ServiceSimulator(qos, n_workers=n_workers, seed=seed)


def _fit_rows(perf_factors) -> tuple[float, ...]:
    """The fitted perf rows: the distinct factors, ascending."""
    perfs = tuple(sorted(set(float(p) for p in perf_factors)))
    if not perfs:
        raise ValueError("perf_factors must be non-empty")
    return perfs


def _measure_replicate(job: "SurrogateReplicateJob") -> tuple[float, np.ndarray]:
    """One replicate's peak rate and DES tails, shape ``(n_perf, n_loads)``.

    Load-major: each load is one request stream, whose arrivals are
    computed once and served at every perf row.
    """
    sim = job.simulator()
    peak = sim.peak_load(n_requests=job.peak_requests)
    tails = np.empty((len(job.perf_factors), len(job.loads)))
    for l, load in enumerate(job.loads):
        stream = sim.stream(job.n_requests, seed_offset=l + 1)
        rate = peak * load
        for p, perf in enumerate(job.perf_factors):
            tails[p, l] = stream.tail(rate, perf)
    return peak, tails


@dataclass(frozen=True)
class SurrogateReplicateJob:
    """One DES replicate of a surrogate fit (cacheable, picklable).

    Replicate ``rep`` of the fit's ``label`` series (``"surrogate-cal"``
    over the grid's loads, ``"surrogate-val"`` over their midpoints): one
    simulator, its ``peak_load(peak_requests)`` bisection, then one
    ``n_requests`` stream per load served at every perf row.  ``run``
    returns ``(peak, *tails)``, the tails in ``(perf, load)`` row-major
    order.  ``key`` covers everything the replicate reads, under the
    fit's versions.
    """

    qos: QoSSpec
    perf_factors: tuple[float, ...]
    loads: tuple[float, ...]
    n_requests: int
    peak_requests: int
    seed: int
    label: str
    rep: int
    n_workers: int = 8

    def simulator(self) -> ServiceSimulator:
        return _simulator(
            self.qos, self.n_workers, self.seed, self.label, self.rep
        )

    @property
    def key(self) -> str:
        from repro.engine.store import CACHE_VERSION

        payload = repr((
            CACHE_VERSION,
            SURROGATE_VERSION,
            "fleet-surrogate-replicate",
            self.qos,
            self.perf_factors,
            self.loads,
            self.n_requests,
            self.peak_requests,
            self.seed,
            self.label,
            self.rep,
            self.n_workers,
        ))
        return hashlib.sha256(payload.encode()).hexdigest()

    def run(self) -> tuple[float, ...]:
        peak, tails = _measure_replicate(self)
        return (peak, *tails.ravel().tolist())


@dataclass(frozen=True)
class PeakLoadJob:
    """The peak-load bisection of one fit replicate (cacheable, picklable).

    ``run`` returns ``(peak,)``, the ``peak_load(peak_requests)`` of the
    simulator of the :class:`SurrogateReplicateJob` with the same ``seed``,
    ``label`` and ``rep``: the 41 probes that replicate runs first.  It
    reads no perf factor or load, so it can run before the fleet's perf
    rows are known; its peak handed to
    :meth:`~repro.qos.queueing.ServiceSimulator.remember_peak` spares the
    replicate the bisection.
    """

    qos: QoSSpec
    peak_requests: int
    seed: int
    label: str
    rep: int
    n_workers: int = 8

    def simulator(self) -> ServiceSimulator:
        return _simulator(
            self.qos, self.n_workers, self.seed, self.label, self.rep
        )

    @property
    def key(self) -> str:
        from repro.engine.store import CACHE_VERSION

        payload = repr((
            CACHE_VERSION,
            SURROGATE_VERSION,
            "fleet-surrogate-peak",
            self.qos,
            self.peak_requests,
            self.seed,
            self.label,
            self.rep,
            self.n_workers,
        ))
        return hashlib.sha256(payload.encode()).hexdigest()

    def run(self) -> tuple[float, ...]:
        return (self.simulator().peak_load(n_requests=self.peak_requests),)


def peak_jobs(
    qos: QoSSpec, grid: SurrogateGrid = SurrogateGrid(), n_workers: int = 8
) -> tuple[PeakLoadJob, ...]:
    """The peak bisections of every fit on ``grid``, whatever its perf rows:
    one :class:`PeakLoadJob` per :meth:`SurrogateFitJob.replicates` entry,
    in the same order."""
    return tuple(
        PeakLoadJob(qos, grid.peak_requests, grid.seed, label, rep, n_workers)
        for label, __, n_reps in _series(grid)
        for rep in range(n_reps)
    )


@dataclass(frozen=True)
class TailSurrogate:
    """Fitted window-tail model: categorical in perf, linear in load.

    ``quantiles_ms`` has shape ``(n_perf, n_reps, n_loads)`` and is sorted
    along the replicate axis — the empirical window-tail distribution at
    each grid point.
    """

    qos: QoSSpec
    perf_factors: tuple[float, ...]
    loads: tuple[float, ...]
    quantiles_ms: np.ndarray  # (n_perf, n_reps, n_loads), sorted on axis 1
    error_bound_ms: float

    @property
    def n_reps(self) -> int:
        return self.quantiles_ms.shape[1]

    @property
    def mean_ms(self) -> np.ndarray:
        """Mean window tail per grid point — shape (n_perf, n_loads)."""
        return self.quantiles_ms.mean(axis=1)

    @property
    def std_ms(self) -> np.ndarray:
        """Across-replicate std per grid point — shape (n_perf, n_loads)."""
        return self.quantiles_ms.std(axis=1, ddof=1)

    def _row_indices(self, perf: np.ndarray) -> np.ndarray:
        perfs = np.asarray(self.perf_factors)
        idx = np.clip(np.searchsorted(perfs, perf), 0, len(perfs) - 1)
        below = np.maximum(idx - 1, 0)
        use_below = np.abs(perfs[below] - perf) < np.abs(perfs[idx] - perf)
        idx = np.where(use_below, below, idx)
        if not np.allclose(perfs[idx], perf, rtol=0.0, atol=1e-9):
            missing = sorted(
                set(np.round(np.unique(perf), 6)) - set(np.round(perfs, 6))
            )
            raise KeyError(
                f"perf factors {missing} not in fitted rows {tuple(perfs)}; "
                "refit the surrogate with the fleet's perf-factor set"
            )
        return idx

    def _load_weights(
        self, load: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        loads = np.asarray(self.loads)
        # The bracketing interval clip(searchsorted(loads, load, "right")
        # - 1, 0, L - 2) is the count of interior grid points <= load:
        # one branchless compare pass per grid point, counted in the
        # narrowest unsigned type, instead of a mispredicting binary
        # search per server.
        li = np.zeros(np.shape(load), dtype=np.min_scalar_type(len(loads)))
        for point in loads[1:-1]:
            li += load >= point
        li = li.astype(np.intp)
        weight = load - loads[li]
        weight /= np.diff(loads)[li]
        return li, np.clip(weight, 0.0, 1.0, out=weight)

    def _interpolate(self, table: np.ndarray, load, perf) -> np.ndarray:
        load = np.asarray(load, dtype=float)
        perf = np.broadcast_to(np.asarray(perf, dtype=float), load.shape)
        rows = self._row_indices(perf)
        out = np.empty(load.shape)
        for r in np.unique(rows):
            mask = rows == r
            out[mask] = np.interp(load[mask], self.loads, table[r])
        return out

    def predict(self, load, perf) -> np.ndarray:
        """Mean window tail latency (ms) at ``load`` fraction under ``perf``."""
        return self._interpolate(self.mean_ms, load, perf)

    def spread(self, load, perf) -> np.ndarray:
        """Across-window std of the tail percentile (ms)."""
        return self._interpolate(self.std_ms, load, perf)

    def sample(self, load, perf, u, rows=None) -> np.ndarray:
        """Draw window tails by inverse-CDF over uniforms ``u`` in [0, 1).

        ``u`` picks an order statistic pair ``(j0, j1)`` with midpoint
        plotting positions, and each of the two is blended linearly
        between the neighboring load grid points ``li`` and ``li + 1``
        (blending preserves sortedness) — so the sampled windows reproduce
        the calm/bursty mixture of the DES, not just its mean.  Only the
        four quantiles a draw uses are gathered, ``q00 = (j0, li)``,
        ``q01 = (j0, li + 1)``, ``q10 = (j1, li)`` and ``q11 = (j1, li + 1)``
        of the server's row, and the tail is
        ``v0 = q00*(1-w) + q01*w``, ``v1 = q10*(1-w) + q11*w``,
        ``max(v0*(1-f) + v1*f, 0.5 × base_service_ms)`` with load weight
        ``w`` and position fraction ``f``.  ``u`` carries the caller's
        deterministic per-(server, window) uniforms; a window's draw is
        exogenous arrival burstiness, so the same ``u`` applies whichever
        mode the server is in.

        ``rows`` optionally carries precomputed grid-row indices for
        ``perf`` (from :meth:`_row_indices` on the distinct factor set),
        and ``perf`` is then not read — the fleet stepper's perf vectors
        take only a handful of distinct values, so gathering cached
        indices beats re-searching the grid for every server every window.
        """
        load = np.asarray(load, dtype=float)
        if rows is None:
            perf = np.broadcast_to(np.asarray(perf, dtype=float), load.shape)
            rows = self._row_indices(perf)
        li, weight = self._load_weights(load)
        _, n_reps, n_loads = self.quantiles_ms.shape
        position = np.clip(
            np.asarray(u, dtype=float) * n_reps - 0.5, 0.0, n_reps - 1.0
        )
        # position >= 0, so truncation is the floor.
        j0 = position.astype(np.int64)
        fraction = position - j0

        # Flat indices into the table's logical C order; ravel copies the
        # (non-contiguous) fitted table, a few KB, and views a clone.
        flat = self.quantiles_ms.ravel()
        i0 = rows * (n_reps * n_loads)
        i0 += li
        i1 = np.minimum(j0, n_reps - 2)  # j1 = min(j0 + 1, n_reps - 1)
        i1 += 1
        i1 *= n_loads
        i1 += i0
        j0 *= n_loads
        i0 += j0
        rest = 1.0 - weight
        v0 = flat[i0]
        v0 *= rest
        i0 += 1
        v0 += flat[i0] * weight
        v1 = flat[i1]
        v1 *= rest
        i1 += 1
        v1 += flat[i1] * weight
        v0 *= 1.0 - fraction
        v1 *= fraction
        v0 += v1
        return np.maximum(v0, 0.5 * self.qos.base_service_ms, out=v0)

    # -- content-addressed persistence ---------------------------------

    def to_values(self) -> tuple[float, ...]:
        """Flatten to a float tuple (the result-store value format)."""
        n_perf, n_reps, n_loads = self.quantiles_ms.shape
        header = [
            float(n_perf),
            float(n_reps),
            float(n_loads),
            float(self.error_bound_ms),
            float(self.qos.target_ms),
            float(self.qos.percentile),
            float(self.qos.base_service_ms),
            float(self.qos.service_cv),
        ]
        return tuple(
            header
            + list(self.perf_factors)
            + list(self.loads)
            + [float(v) for v in self.quantiles_ms.ravel()]
        )

    @classmethod
    def from_values(cls, values) -> "TailSurrogate":
        values = tuple(values)
        n_perf, n_reps, n_loads = (int(v) for v in values[:3])
        error_bound = float(values[3])
        qos = QoSSpec(
            target_ms=values[4],
            percentile=values[5],
            base_service_ms=values[6],
            service_cv=values[7],
        )
        cursor = 8
        perfs = tuple(values[cursor:cursor + n_perf])
        cursor += n_perf
        loads = tuple(values[cursor:cursor + n_loads])
        cursor += n_loads
        size = n_perf * n_reps * n_loads
        quantiles = np.array(values[cursor:cursor + size]).reshape(
            n_perf, n_reps, n_loads
        )
        if cursor + size != len(values):
            raise ValueError("surrogate payload has trailing values")
        return cls(
            qos=qos,
            perf_factors=perfs,
            loads=loads,
            quantiles_ms=quantiles,
            error_bound_ms=error_bound,
        )


def fit_tail_surrogate(
    qos: QoSSpec,
    perf_factors,
    grid: SurrogateGrid = SurrogateGrid(),
    n_workers: int = 8,
) -> TailSurrogate:
    """Calibrate a :class:`TailSurrogate` against the DES.

    ``perf_factors`` is the exact set of performance factors the fleet will
    evaluate (one per Stretch mode, plus 1.0 for throttled windows); each
    becomes a fitted row.  The returned surrogate's
    :attr:`~TailSurrogate.error_bound_ms` is measured on held-out simulator
    seeds at midpoint loads never used in calibration.  The replicates run
    here, one after another; :meth:`repro.fleet.FleetEngine.ensure_surrogate`
    runs the same replicates on every core and assembles the same bits.
    """
    job = SurrogateFitJob(qos, tuple(perf_factors), grid, n_workers)
    return job.assemble([replicate.run() for replicate in job.replicates()])


@dataclass(frozen=True)
class SurrogateFitJob:
    """Content-addressed surrogate calibration (cacheable, picklable).

    Runs on the :class:`~repro.engine.ExecutionEngine` like any simulation
    job: ``key`` content-addresses the QoS contract, perf-factor set and
    calibration grid; ``run`` returns the flattened surrogate.  The fit is
    :meth:`replicates` assembled by :meth:`assemble`; ``run`` runs them in
    this process.
    """

    qos: QoSSpec
    perf_factors: tuple[float, ...]
    grid: SurrogateGrid = SurrogateGrid()
    n_workers: int = 8

    @property
    def key(self) -> str:
        from repro.engine.store import CACHE_VERSION

        payload = repr((
            CACHE_VERSION,
            SURROGATE_VERSION,
            "fleet-surrogate",
            self.qos,
            tuple(sorted(set(float(p) for p in self.perf_factors))),
            self.grid,
            self.n_workers,
        ))
        return hashlib.sha256(payload.encode()).hexdigest()

    def replicates(self) -> tuple[SurrogateReplicateJob, ...]:
        """The ``n_reps`` calibration replicates over the grid's loads,
        then the ``n_val_reps`` validation replicates over the midpoints
        (fresh seeds, loads never calibrated): the order :meth:`assemble`
        reads."""
        perfs = _fit_rows(self.perf_factors)
        grid = self.grid
        return tuple(
            SurrogateReplicateJob(
                qos=self.qos,
                perf_factors=perfs,
                loads=tuple(float(load) for load in loads),
                n_requests=grid.n_requests,
                peak_requests=grid.peak_requests,
                seed=grid.seed,
                label=label,
                rep=rep,
                n_workers=self.n_workers,
            )
            for label, loads, n_reps in _series(grid)
            for rep in range(n_reps)
        )

    def assemble(self, values) -> TailSurrogate:
        """The fitted surrogate from its replicates' values, given in
        :meth:`replicates` order."""
        perfs = _fit_rows(self.perf_factors)
        n_reps = self.grid.n_reps
        # (replicate, perf, load) surfaces, as the replicates measured them.
        surfaces = [np.array(v[1:]).reshape(len(perfs), -1) for v in values]
        calibration = np.array(surfaces[:n_reps])
        quantiles = np.sort(np.transpose(calibration, (1, 0, 2)), axis=1)
        loads = tuple(float(load) for load in self.grid.loads)
        surrogate = TailSurrogate(
            qos=self.qos,
            perf_factors=perfs,
            loads=loads,
            quantiles_ms=quantiles,
            error_bound_ms=0.0,
        )
        # Held-out validation: fresh simulator seeds, off-grid midpoint loads.
        validation = np.array(surfaces[n_reps:]).mean(axis=0)
        midpoints = np.asarray(_midpoints(self.grid))
        predicted = np.stack([surrogate.predict(midpoints, p) for p in perfs])
        error_bound = float(np.max(np.abs(predicted - validation)))
        return TailSurrogate(
            qos=self.qos,
            perf_factors=perfs,
            loads=loads,
            quantiles_ms=quantiles,
            error_bound_ms=error_bound,
        )

    def run(self) -> tuple[float, ...]:
        return fit_tail_surrogate(
            self.qos, self.perf_factors, self.grid, n_workers=self.n_workers
        ).to_values()
