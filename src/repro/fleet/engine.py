"""Numpy-vectorized fleet simulation engine.

Advances **all servers of a window as array operations**: per-server
Stretch monitor state lives in integer arrays (mode index, compliant and
violation streaks, remaining throttle windows) and each window applies the
extracted :func:`repro.core.monitor.monitor_transition` rules element-wise
via :func:`monitor_transition_vec`.  An engine built with ``adaptive=``
runs the §IV-D multi-B-mode policy instead
(:meth:`~repro.core.adaptive.AdaptiveStretchPolicy.next_rows`).  Tail
latency comes from either

* ``tail="surrogate"`` — the fitted queueing surrogate
  (:mod:`repro.fleet.surrogate`), one vectorized evaluation per window,
  which is what makes 100k+ servers × 144 windows tractable; or
* ``tail="exact"`` — one :class:`~repro.qos.queueing.ServiceSimulator` per
  server (seed ``derive_seed(seed, "server", k)``, peak calibrated over
  ``max(20000, requests_per_window)`` requests, one request stream per
  window).  It is the oracle the surrogate is gated against; with the
  ``jittered`` policy it reproduces the retired per-object cluster loop's
  days bit for bit (``tests/golden/fleet_exact_legacy.json``), and as a
  one-server ``uniform`` fleet it is :func:`repro.api.run_day`
  (``tests/golden/server_day_legacy.json``).

``run_day(server_range=(lo, hi))`` simulates any contiguous slice of the
fleet while drawing every per-server random stream from the *global*
server index, so sharding the fleet across processes
(:mod:`repro.fleet.shard`) leaves every per-server value and integer
aggregate unchanged; the float window sums match up to summation order.

A window with several chunks steps them on a per-step thread pool, one
thread per usable core, and adds their partial sums in chunk order: the
float sums vary with the chunk size, never with the worker count.  Each
chunk draws only its own servers' part of the window's random streams
(a stream advanced to the chunk's first server yields the full-fleet
draw's slice), in scratch arrays its worker slot keeps.
"""

from __future__ import annotations

import functools
import os
import queue
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.adaptive import AdaptiveStretchPolicy
from repro.core.colocation import ColocationPerformance
from repro.core.monitor import (
    MODE_ORDER,
    MonitorConfig,
    validate_monitor_config,
)
from repro.core.stretch import StretchMode
from repro.engine.executor import usable_workers
from repro.fleet.placement import (
    CorunnerTable,
    PlacementContext,
    make_placement,
    mix_counts,
)
from repro.fleet.policies import PolicyContext, make_policy, resolve_load_curve
from repro.fleet.surrogate import (
    SurrogateFitJob,
    SurrogateGrid,
    TailSurrogate,
    _fit,
    _scratch,
)
from repro.obs.profiler import active_profiler
from repro.qos.queueing import ServiceSimulator
from repro.scenarios import ScenarioSampler, ScenarioSpec
from repro.util.rng import derive_seed
from repro.workloads.profiles import WorkloadProfile

__all__ = [
    "DEFAULT_CHUNK_SERVERS",
    "LOAD_BOUNDS",
    "FleetConfig",
    "FleetState",
    "FleetStepper",
    "FleetTimeline",
    "FleetEngine",
    "monitor_transition_vec",
]

#: Mode indices, identical to ``MODE_ORDER`` positions.
_BASELINE, _B_MODE, _Q_MODE = 0, 1, 2
#: Extra perf row used while the co-runner is throttled (service owns the core).
_THROTTLED_ROW = 3

#: Per-server load bounds of every window: the floor keeps every arrival
#: rate positive, the ceiling keeps loads in the range the tail
#: evaluators were calibrated for.
LOAD_BOUNDS = (0.02, 1.2)

#: Servers advanced per inner chunk of a window.  Chunking bounds the
#: per-server temporaries of one window step — about a dozen 8-byte
#: vectors (the four-point tail sampler's indices, weights and gathered
#: quantiles, the monitor's masks), ~0.5 MB each at this size — at
#: 100k–1M+ servers.  A smaller chunk keeps them in a core's cache, but
#: whole-day timings show no consistent speedup from it (DESIGN.md §9,
#: per fleet size).  Every chunked operation is element-wise,
#: so integer aggregates are chunk-count-invariant and float window sums
#: differ from the unchunked order only by summation-order noise.
#: Override with ``REPRO_FLEET_CHUNK`` for profiling.
DEFAULT_CHUNK_SERVERS = 65536
_CHUNK_ENV = "REPRO_FLEET_CHUNK"

#: ``fleet.step.<phase>`` profiler sections timed inside each chunk.
_CHUNK_PHASES = ("draw", "gather", "tails", "aggregate", "monitor")


def _resolve_chunk_size(chunk_size: int | None) -> int:
    source = "chunk_size"
    if chunk_size is None:
        raw = os.environ.get(_CHUNK_ENV)
        if raw is None:
            return DEFAULT_CHUNK_SERVERS
        source = _CHUNK_ENV
        try:
            chunk_size = int(raw)
        except ValueError:
            raise ValueError(
                f"{_CHUNK_ENV}={raw!r} is not an integer"
            ) from None
    if chunk_size < 1:
        raise ValueError(f"{source} must be positive")
    return chunk_size


def monitor_transition_vec(
    mode: np.ndarray,
    compliant: np.ndarray,
    violation: np.ndarray,
    throttle: np.ndarray,
    violated: np.ndarray,
    slack: np.ndarray,
    config: MonitorConfig,
    q_mode_available: bool = True,
) -> np.ndarray:
    """Element-wise :func:`~repro.core.monitor.monitor_transition`.

    Updates the four state arrays in place (they may be views into larger
    arrays) and returns the mask of servers that *ordered* a fresh
    throttle interval this window.  Equivalence with the scalar transition
    is enforced by an exhaustive state-space test (``tests/test_fleet.py``).

    Most servers are neither mid-throttle nor violated, so that case runs
    as one branchless pass over every server; the few others are gathered,
    transitioned from their saved pre-window state and scattered back.
    """
    special = np.flatnonzero((throttle > 0) | violated)
    m = mode[special]
    cs = compliant[special]
    vs = violation[special]
    tr = throttle[special]

    # Compliant window: the violation streak resets; slack extends the
    # compliant streak (engaging B-mode once it is long enough), a tight
    # window resets it and falls back to Baseline (mode index 0).
    violation.fill(0)
    compliant += 1
    compliant *= slack
    # Engage by arithmetic, valid only while _B_MODE == 1: a masked copy
    # is several times slower where the mask is mixed.
    engaged = compliant >= config.engage_windows
    mode *= ~engaged
    mode += engaged
    mode *= slack

    # The gathered servers: mid-throttle ones count down with their state
    # frozen, the others violated this window.
    throttling = tr > 0
    tr -= throttling
    hit = ~throttling
    cs[hit] = 0
    from_b = hit & (m == _B_MODE)
    m[from_b] = _Q_MODE if q_mode_available else _BASELINE
    vs[from_b] = 1
    other = hit & ~from_b
    vs[other] += 1
    if q_mode_available:
        m[other & (m == _BASELINE)] = _Q_MODE
    hit_ordered = other & (vs >= config.violation_windows_to_throttle)
    vs[hit_ordered] = 0
    tr[hit_ordered] = config.throttle_windows

    mode[special] = m
    compliant[special] = cs
    violation[special] = vs
    throttle[special] = tr
    ordered = np.zeros(mode.shape, dtype=bool)
    ordered[special] = hit_ordered
    return ordered


@dataclass(frozen=True)
class FleetConfig:
    """Shape and control parameters of one fleet run.

    Validated eagerly at construction; frozen and ``repr``-stable, so a
    config is part of the shard-job and checkpoint keys.  Every field is
    also a keyword of :func:`repro.api.run_fleet`,
    :func:`repro.api.serve` and :func:`repro.api.tune_policy`, applied
    over their ``config=``.

    Attributes
    ----------
    n_servers:
        Fleet size (``> 0``; default ``1000``).
    overprovision:
        Capacity headroom: a server's fair share of the cluster load is
        ``cluster_load / overprovision`` (``>= 1.0``; default ``1.2``).
    balance_jitter:
        Half-width of the ``jittered`` policy's per-server, per-window
        imbalance around the fair share (in ``[0, 0.5)``; default
        ``0.05``).
    policy:
        Load-balancing policy, a name from
        :data:`repro.fleet.policies.POLICY_NAMES` (default
        ``"jittered"``).
    window_minutes:
        Monitoring window length; the day has ``round(1440 /
        window_minutes)`` windows (``> 0``; default ``10.0``).
    requests_per_window:
        Requests the tail evaluators sample per server-window (``>= 1``;
        default ``2000``).
    n_workers:
        Worker threads of each server's queueing model (``> 0``; default
        ``8``).
    q_mode_available:
        Whether the monitor may fall back to Q-mode on a violation
        (default ``True``; ``False`` falls back to Baseline).
    seed:
        Fleet seed: every random stream of the day (balancing jitter,
        request streams, tail noise, placement, scenario draws) derives
        from it (default ``0``).
    monitor:
        The Stretch monitor's :class:`~repro.core.monitor.MonitorConfig`
        (default: the paper's).
    population:
        Batch co-runner profile names of a heterogeneous fleet; empty
        (the default) runs every server against the engine's single
        ``performance`` model.  Names must be unique.
    population_mix:
        Positive shares of ``population``, one per profile (empty, the
        default, is uniform).
    placement:
        Policy assigning population profiles to servers, a name from
        :data:`repro.fleet.placement.PLACEMENT_NAMES` (default
        ``"random"``).
    placement_epoch:
        Placement reassignment period, in windows (``>= 1``; default
        ``6``).
    """

    n_servers: int = 1000
    overprovision: float = 1.2
    balance_jitter: float = 0.05
    policy: str = "jittered"
    window_minutes: float = 10.0
    requests_per_window: int = 2000
    n_workers: int = 8
    q_mode_available: bool = True
    seed: int = 0
    monitor: MonitorConfig = field(default_factory=MonitorConfig)
    population: tuple[str, ...] = ()
    population_mix: tuple[float, ...] = ()
    placement: str = "random"
    placement_epoch: int = 6

    def __post_init__(self) -> None:
        if self.n_servers <= 0:
            raise ValueError("n_servers must be positive")
        if self.overprovision < 1.0:
            raise ValueError("overprovision must be at least 1.0")
        if not 0.0 <= self.balance_jitter < 0.5:
            raise ValueError("balance_jitter must be in [0, 0.5)")
        if self.window_minutes <= 0:
            raise ValueError("window_minutes must be positive")
        if self.requests_per_window < 1:
            raise ValueError("requests_per_window must be positive")
        if self.n_workers <= 0:
            raise ValueError("n_workers must be positive")
        make_policy(self.policy)
        validate_monitor_config(self.monitor)
        # Coerce sequences so configs stay hashable/content-addressable.
        object.__setattr__(self, "population", tuple(self.population))
        object.__setattr__(
            self, "population_mix", tuple(float(v) for v in self.population_mix)
        )
        make_placement(self.placement)
        if self.placement_epoch < 1:
            raise ValueError("placement_epoch must be >= 1")
        if self.population_mix:
            if len(self.population_mix) != len(self.population):
                raise ValueError(
                    "population_mix length must match the population"
                )
            if min(self.population_mix) <= 0.0:
                raise ValueError("population_mix fractions must be positive")
        if self.population and len(set(self.population)) != len(self.population):
            raise ValueError("population profiles must be unique")

    @property
    def mix_fractions(self) -> tuple[float, ...]:
        """Normalized population shares (uniform when no mix was given)."""
        n = len(self.population)
        if n == 0:
            return ()
        if not self.population_mix:
            return (1.0 / n,) * n
        total = sum(self.population_mix)
        return tuple(v / total for v in self.population_mix)

    @property
    def n_windows(self) -> int:
        return int(round(24 * 60 / self.window_minutes))

    def surrogate_grid(self) -> SurrogateGrid:
        """Tail-surrogate calibration grid matched to this fleet's windows:
        streams of ``requests_per_window`` requests, peaks calibrated over
        ``max(20000, requests_per_window)`` as on the exact path."""
        rpw = self.requests_per_window
        return SurrogateGrid(n_requests=rpw, peak_requests=max(20000, rpw))


@dataclass
class FleetTimeline:
    """Aggregated day trace of a fleet slice (array-of-windows form).

    The fleet engine never materializes per-(server, window) records; the
    timeline carries per-window fleet aggregates plus per-server day
    totals (the straggler axis).
    """

    n_servers: int
    shard_lo: int
    window_minutes: float
    hours: np.ndarray  # (W,)
    mode_counts: np.ndarray  # (W, 3) servers per mode, pre-transition
    violations: np.ndarray  # (W,)
    throttled: np.ndarray  # (W,)
    tail_ms_sum: np.ndarray  # (W,)
    batch_uipc_sum: np.ndarray  # (W,)
    server_violations: np.ndarray  # (n_servers,)
    server_bmode_windows: np.ndarray  # (n_servers,)

    @property
    def n_windows(self) -> int:
        return len(self.hours)

    @property
    def total_windows(self) -> int:
        return self.n_servers * self.n_windows

    @property
    def violation_rate(self) -> float:
        if self.total_windows == 0:
            return 0.0
        return float(self.violations.sum()) / self.total_windows

    @property
    def bmode_fraction(self) -> float:
        if self.total_windows == 0:
            return 0.0
        return float(self.mode_counts[:, _B_MODE].sum()) / self.total_windows

    @property
    def mode_occupancy(self) -> np.ndarray:
        """Fraction of (server, window) pairs per mode — shape (3,)."""
        if self.total_windows == 0:
            return np.zeros(3)
        return self.mode_counts.sum(axis=0) / self.total_windows

    @property
    def throttled_fraction(self) -> float:
        if self.total_windows == 0:
            return 0.0
        return float(self.throttled.sum()) / self.total_windows

    @property
    def mean_tail_ms(self) -> float:
        if self.total_windows == 0:
            return 0.0
        return float(self.tail_ms_sum.sum()) / self.total_windows

    @property
    def straggler_p99_violations(self) -> float:
        """99th percentile of per-server daily violation counts."""
        if len(self.server_violations) == 0:
            return 0.0
        return float(np.percentile(self.server_violations, 99))

    def batch_throughput_gain(self, baseline_batch_uipc: float) -> float:
        """Fleet batch throughput gain vs an always-Baseline pool."""
        if self.total_windows == 0 or baseline_batch_uipc <= 0:
            return 0.0
        mean = float(self.batch_uipc_sum.sum()) / self.total_windows
        return mean / baseline_batch_uipc - 1.0

    def slice_metrics(self, k0: int, k1: int) -> dict:
        """Aggregate QoS/throughput metrics over window rows ``[k0, k1)``.

        The what-if query path compares a live and a shadow fleet over the
        same horizon; this is the shared summary both sides report.
        """
        k0 = max(int(k0), 0)
        k1 = min(int(k1), self.n_windows)
        windows = self.n_servers * max(k1 - k0, 0)
        if windows == 0:
            return {
                "windows": 0, "violation_rate": 0.0, "bmode_fraction": 0.0,
                "throttled_fraction": 0.0, "mean_tail_ms": 0.0,
                "mean_batch_uipc": 0.0,
            }
        return {
            "windows": windows,
            "violation_rate": float(self.violations[k0:k1].sum()) / windows,
            "bmode_fraction": (
                float(self.mode_counts[k0:k1, _B_MODE].sum()) / windows
            ),
            "throttled_fraction": float(self.throttled[k0:k1].sum()) / windows,
            "mean_tail_ms": float(self.tail_ms_sum[k0:k1].sum()) / windows,
            "mean_batch_uipc": (
                float(self.batch_uipc_sum[k0:k1].sum()) / windows
            ),
        }

    # -- composition and transport --------------------------------------

    def copy(self) -> "FleetTimeline":
        """Deep copy (fresh arrays) — what-if forks mutate their copy."""
        return FleetTimeline(
            n_servers=self.n_servers,
            shard_lo=self.shard_lo,
            window_minutes=self.window_minutes,
            hours=self.hours.copy(),
            mode_counts=self.mode_counts.copy(),
            violations=self.violations.copy(),
            throttled=self.throttled.copy(),
            tail_ms_sum=self.tail_ms_sum.copy(),
            batch_uipc_sum=self.batch_uipc_sum.copy(),
            server_violations=self.server_violations.copy(),
            server_bmode_windows=self.server_bmode_windows.copy(),
        )

    @classmethod
    def merge(cls, parts: list["FleetTimeline"]) -> "FleetTimeline":
        """Stitch contiguous shard timelines back into one fleet timeline."""
        if not parts:
            raise ValueError("cannot merge zero fleet timelines")
        parts = sorted(parts, key=lambda t: t.shard_lo)
        first = parts[0]
        for part in parts[1:]:
            if part.n_windows != first.n_windows or (
                part.window_minutes != first.window_minutes
            ):
                raise ValueError("shard timelines disagree on window grid")
        return cls(
            n_servers=sum(p.n_servers for p in parts),
            shard_lo=first.shard_lo,
            window_minutes=first.window_minutes,
            hours=first.hours.copy(),
            mode_counts=np.sum([p.mode_counts for p in parts], axis=0),
            violations=np.sum([p.violations for p in parts], axis=0),
            throttled=np.sum([p.throttled for p in parts], axis=0),
            tail_ms_sum=np.sum([p.tail_ms_sum for p in parts], axis=0),
            batch_uipc_sum=np.sum([p.batch_uipc_sum for p in parts], axis=0),
            server_violations=np.concatenate(
                [p.server_violations for p in parts]
            ),
            server_bmode_windows=np.concatenate(
                [p.server_bmode_windows for p in parts]
            ),
        )

    @classmethod
    def empty(
        cls,
        n_servers: int,
        n_windows: int,
        window_minutes: float,
        shard_lo: int = 0,
    ) -> "FleetTimeline":
        return cls(
            n_servers=n_servers,
            shard_lo=shard_lo,
            window_minutes=window_minutes,
            hours=np.arange(n_windows) * window_minutes / 60.0,
            mode_counts=np.zeros((n_windows, 3), dtype=np.int64),
            violations=np.zeros(n_windows, dtype=np.int64),
            throttled=np.zeros(n_windows, dtype=np.int64),
            tail_ms_sum=np.zeros(n_windows),
            batch_uipc_sum=np.zeros(n_windows),
            server_violations=np.zeros(n_servers, dtype=np.int64),
            server_bmode_windows=np.zeros(n_servers, dtype=np.int64),
        )

    def to_values(self) -> tuple[float, ...]:
        """Flatten for the content-addressed result store (shard transport)."""
        return tuple(self._flat().tolist())

    def _flat(self) -> np.ndarray:
        return np.concatenate((
            [self.n_servers, self.shard_lo, self.n_windows, self.window_minutes],
            self.mode_counts.ravel(),
            self.violations,
            self.throttled,
            self.tail_ms_sum,
            self.batch_uipc_sum,
            self.server_violations,
            self.server_bmode_windows,
        ), dtype=float)

    @classmethod
    def from_values(cls, values) -> "FleetTimeline":
        values = np.asarray(values, dtype=float)
        n_servers, shard_lo, n_windows = (int(v) for v in values[:3])
        window_minutes = float(values[3])
        cursor = 4

        def take(count: int) -> np.ndarray:
            nonlocal cursor
            chunk = values[cursor:cursor + count]
            cursor += count
            return chunk

        out = cls(
            n_servers=n_servers,
            shard_lo=shard_lo,
            window_minutes=window_minutes,
            hours=np.arange(n_windows) * window_minutes / 60.0,
            mode_counts=take(n_windows * 3).astype(np.int64).reshape(n_windows, 3),
            violations=take(n_windows).astype(np.int64),
            throttled=take(n_windows).astype(np.int64),
            tail_ms_sum=take(n_windows).copy(),
            batch_uipc_sum=take(n_windows).copy(),
            server_violations=take(n_servers).astype(np.int64),
            server_bmode_windows=take(n_servers).astype(np.int64),
        )
        if cursor != len(values):
            raise ValueError("fleet timeline payload has trailing values")
        return out


@dataclass
class FleetState:
    """The complete resumable state of a fleet slice mid-day.

    Everything the stepped engine carries across windows lives here: the
    per-server monitor arrays, the next window index, and the accumulated
    :class:`FleetTimeline`.  All per-window randomness (balancing jitter,
    surrogate noise, DES request streams) is derived *statelessly* from
    ``(seed, window)`` label paths, so this dataclass — not any hidden RNG
    cursor — is the whole checkpoint: restoring it and stepping on is
    bit-identical to never having stopped.
    """

    lo: int
    hi: int
    window: int
    # (n,) int64: MODE_ORDER indices, or under an adaptive engine the
    # AdaptiveStretchPolicy.rows index each server runs next window.
    mode: np.ndarray
    compliant: np.ndarray  # (n,) int64 compliant-streak counters
    violation: np.ndarray  # (n,) int64 violation-streak counters
    throttle: np.ndarray  # (n,) int64 remaining throttle windows
    timeline: FleetTimeline

    @property
    def n_servers(self) -> int:
        return self.hi - self.lo

    @property
    def n_windows(self) -> int:
        return self.timeline.n_windows

    @property
    def done(self) -> bool:
        return self.window >= self.n_windows

    @classmethod
    def fresh(
        cls, lo: int, hi: int, n_windows: int, window_minutes: float
    ) -> "FleetState":
        n = hi - lo
        return cls(
            lo=lo,
            hi=hi,
            window=0,
            mode=np.zeros(n, dtype=np.int64),
            compliant=np.zeros(n, dtype=np.int64),
            violation=np.zeros(n, dtype=np.int64),
            throttle=np.zeros(n, dtype=np.int64),
            timeline=FleetTimeline.empty(n, n_windows, window_minutes, lo),
        )

    def copy(self) -> "FleetState":
        """Deep copy — the snapshot a what-if shadow advances in isolation."""
        return FleetState(
            lo=self.lo,
            hi=self.hi,
            window=self.window,
            mode=self.mode.copy(),
            compliant=self.compliant.copy(),
            violation=self.violation.copy(),
            throttle=self.throttle.copy(),
            timeline=self.timeline.copy(),
        )

    # -- checkpoint transport (result-store value format) ----------------

    def to_values(self) -> tuple[float, ...]:
        """Flatten for the content-addressed store (checkpoint payload)."""
        return tuple(np.concatenate((
            [self.lo, self.hi, self.window],
            self.mode,
            self.compliant,
            self.violation,
            self.throttle,
            self.timeline._flat(),
        ), dtype=float).tolist())

    @classmethod
    def from_values(cls, values) -> "FleetState":
        values = np.asarray(values, dtype=float)
        lo, hi, window = (int(v) for v in values[:3])
        n = hi - lo
        if n <= 0:
            raise ValueError("fleet state payload has an empty server range")
        cursor = 3

        def take(count: int) -> np.ndarray:
            nonlocal cursor
            chunk = values[cursor:cursor + count]
            cursor += count
            return chunk.astype(np.int64)

        state = cls(
            lo=lo,
            hi=hi,
            window=window,
            mode=take(n),
            compliant=take(n),
            violation=take(n),
            throttle=take(n),
            timeline=FleetTimeline.from_values(values[cursor:]),
        )
        if state.timeline.n_servers != n or state.timeline.shard_lo != lo:
            raise ValueError("fleet state and timeline disagree on the slice")
        return state


class FleetEngine:
    """Vectorized day simulation of a Stretch-managed server fleet."""

    def __init__(
        self,
        ls_profile: WorkloadProfile,
        performance: ColocationPerformance,
        config: FleetConfig | None = None,
        *,
        corunners=None,
        surrogate: TailSurrogate | None = None,
        store=None,
        scenario: ScenarioSpec | None = None,
        adaptive: AdaptiveStretchPolicy | None = None,
    ):
        if ls_profile.qos is None:
            raise ValueError(f"{ls_profile.name!r} has no QoS contract")
        if ls_profile.name != performance.ls_workload:
            raise ValueError(
                f"performance model is for {performance.ls_workload!r}, "
                f"not {ls_profile.name!r}"
            )
        if scenario is not None and not isinstance(scenario, ScenarioSpec):
            raise TypeError(
                "scenario must be a ScenarioSpec or None (use "
                "repro.scenarios.as_scenario to resolve names/dicts); "
                f"got {scenario!r}"
            )
        self.ls_profile = ls_profile
        self.performance = performance
        self.config = config if config is not None else FleetConfig()
        self.scenario = scenario
        self._store = store
        self._surrogate = surrogate
        self.adaptive = adaptive
        if adaptive is None:
            # Rows 0..2: per-mode LS perf factor (floored at 0.05 so service
            # times stay finite) / batch UIPC; row 3: throttled (service
            # owns the core, batch suspended).
            self._perf_rows = np.array(
                [max(performance.ls_perf_factor(m), 0.05) for m in MODE_ORDER]
                + [1.0]
            )
            self._batch_rows = np.array(
                [performance.per_mode[m].batch_uipc for m in MODE_ORDER]
                + [0.0]
            )
            #: Mode reported per state row (``None``: the row is the mode).
            self._row_modes = None
        else:
            # One row per policy row, interpolated on the partition size;
            # the adaptive policy never throttles.
            estimates = [performance.interpolate(s) for s, _ in adaptive.rows]
            self._perf_rows = np.array([
                max(min(e.ls_uipc / performance.ls_solo_uipc, 1.0), 0.05)
                for e in estimates
            ])
            self._batch_rows = np.array([e.batch_uipc for e in estimates])
            self._row_modes = np.array(
                [MODE_ORDER.index(m) for _, m in adaptive.rows]
            )
        # Heterogeneous co-runner population: one measured model per
        # profile, condensed into the (P, 4) placement profile table.
        population = self.config.population
        if population and adaptive is not None:
            raise ValueError(
                "adaptive control runs on homogeneous fleets only; drop the "
                "co-runner population or adaptive="
            )
        if population:
            if corunners is None:
                raise ValueError(
                    "config declares a co-runner population; pass corunners= "
                    "(one ColocationPerformance per population profile)"
                )
            corunners = tuple(corunners)
            if len(corunners) != len(population):
                raise ValueError(
                    f"got {len(corunners)} co-runner models for a population "
                    f"of {len(population)}"
                )
            for name, model in zip(population, corunners):
                if model.ls_workload != ls_profile.name:
                    raise ValueError(
                        f"co-runner model for {name!r} measures "
                        f"{model.ls_workload!r}, not {ls_profile.name!r}"
                    )
                if model.batch_workload != name:
                    raise ValueError(
                        f"population lists {name!r} but its model measures "
                        f"{model.batch_workload!r}"
                    )
            self.corunners: tuple[ColocationPerformance, ...] | None = corunners
            self.corunner_table: CorunnerTable | None = (
                CorunnerTable.from_performances(corunners)
            )
        else:
            if corunners:
                raise ValueError(
                    "corunners= requires a config with a population"
                )
            self.corunners = None
            self.corunner_table = None

    @property
    def baseline_batch_uipc(self) -> float:
        """Fleet-mean batch UIPC of an always-Baseline pool.

        Homogeneous fleets read the single model; heterogeneous fleets
        weight the population's Baseline rows by the *exact* server counts
        the placement layer apportions.
        """
        if self.corunner_table is None:
            return self.performance.per_mode[StretchMode.BASELINE].batch_uipc
        counts = mix_counts(
            self.config.n_servers, np.asarray(self.config.mix_fractions)
        )
        return float(
            counts @ self.corunner_table.batch_rows[:, 0]
        ) / self.config.n_servers

    @property
    def perf_factors(self) -> tuple[float, ...]:
        """The perf-factor set a surrogate must cover for this fleet."""
        rows = set(float(p) for p in self._perf_rows)
        if self.corunner_table is not None:
            rows.update(self.corunner_table.perf_factors)
        return tuple(sorted(rows))

    def ensure_surrogate(self) -> TailSurrogate:
        """Fit (or fetch from the result store) the tail surrogate.

        A miss fits it on :func:`~repro.engine.executor.usable_workers`
        processes (in this process beside any other live Python thread,
        since the pool forks) into the engine's store, where its peak
        bisections may already be (:func:`repro.fleet.surrogate.peak_jobs`),
        then stores the fit; the profiler's ``fleet.fit`` section is its
        wall time.
        """
        if self._surrogate is None:
            grid = self.config.surrogate_grid()
            job = SurrogateFitJob(
                qos=self.ls_profile.qos,
                perf_factors=self.perf_factors,
                grid=grid,
                n_workers=self.config.n_workers,
            )
            store = self._store
            if store is None:
                from repro.engine.store import default_store

                store = default_store()
            values = store.get(job.key)
            if values is None:
                prof = active_profiler()
                section = (
                    prof.section("fleet.fit") if prof is not None
                    else nullcontext()
                )
                with section:
                    workers = usable_workers(grid.n_reps + grid.n_val_reps)
                    values = _fit(job, workers, store).to_values()
                    store.put(job.key, values)
            self._surrogate = TailSurrogate.from_values(values)
        return self._surrogate

    # -- evaluation ------------------------------------------------------

    def stepper(
        self,
        load=None,
        *,
        tail: str = "surrogate",
        server_range: tuple[int, int] | None = None,
        state: FleetState | None = None,
        chunk_size: int | None = None,
    ) -> "FleetStepper":
        """Incremental window-by-window driver over this fleet.

        The resumable core of :meth:`run_day`: advance any number of
        windows with :meth:`FleetStepper.step` (optionally feeding each
        window's cluster load directly, the simulation-as-a-service path),
        snapshot/restore the full :class:`FleetState`, and keep going.
        Pass ``state=`` to resume from a checkpointed (or forked) state.
        """
        return FleetStepper(
            self, load, tail=tail, server_range=server_range, state=state,
            chunk_size=chunk_size,
        )

    def run_day(
        self,
        load,
        *,
        tail: str = "surrogate",
        server_range: tuple[int, int] | None = None,
    ) -> FleetTimeline:
        """Simulate 24 hours for fleet servers ``[lo, hi)``.

        ``load`` is a cluster-level diurnal curve: a registered name, a
        ``"flat:<x>"`` spec, or a callable ``hour -> fraction``.  ``tail``
        selects the evaluator (``"surrogate"`` or ``"exact"``).  All
        per-server randomness keys off the *global* server index, so a
        sliced run reproduces exactly the slice of a full run.
        """
        return self.stepper(load, tail=tail, server_range=server_range).run()


class FleetStepper:
    """Window-by-window fleet advancement with a resumable state.

    Owns everything that is *reconstructible* from the engine's
    configuration — the balancing policy, the load curve, the tail
    evaluator — while all *carried* state lives in :attr:`state`
    (a :class:`FleetState`).  One :meth:`step` call advances exactly one
    monitoring window; ``step(cluster_load)`` overrides the load curve for
    that window, which is how a live :class:`~repro.service.FleetService`
    feeds ingested traffic into the simulation.

    Within a window, servers advance in chunks of ``chunk_size``
    (:data:`DEFAULT_CHUNK_SERVERS`) so the per-server temporaries stay
    cache-resident at 100k–1M+ servers.  Chunking is deterministic, so a
    resumed stepper is bit-identical to an uninterrupted one; integer
    aggregates are chunk-size-invariant, float window sums vary only by
    summation order.  A window of several chunks steps them on one thread
    per usable core and adds their partial sums in chunk order, so the
    float sums vary with the chunk size, never with the worker count.  The
    window's fleet-wide work (the policy's :meth:`prepare
    <repro.fleet.policies.LoadBalancingPolicy.prepare>`, the scenario
    factors, the placement) runs once on the calling thread; each chunk
    draws its own loads and surrogate noise.  The ``exact`` tail path is
    per-server DES-bound and runs unchunked.

    Setting :attr:`capture_violators` to K > 0 additionally exposes, in
    :attr:`last_violators`, the window's top-K violating servers (by
    cumulative day violations) with the mode they violated in and their
    post-transition monitor state — the flight recorder's per-window
    diagnostic feed.  Capture is a pure read of existing arrays: results
    are bit-identical with it on or off.
    """

    def __init__(
        self,
        engine: FleetEngine,
        load=None,
        *,
        tail: str = "surrogate",
        server_range: tuple[int, int] | None = None,
        state: FleetState | None = None,
        chunk_size: int | None = None,
    ):
        cfg = engine.config
        lo, hi = server_range if server_range is not None else (0, cfg.n_servers)
        if not 0 <= lo < hi <= cfg.n_servers:
            raise ValueError(
                f"server_range {(lo, hi)} outside fleet [0, {cfg.n_servers})"
            )
        if tail not in ("surrogate", "exact"):
            raise ValueError("tail must be 'surrogate' or 'exact'")
        self.engine = engine
        self.tail = tail
        self._load_fn = (
            resolve_load_curve(load, window_minutes=cfg.window_minutes)[1]
            if load is not None else None
        )
        if state is None:
            state = FleetState.fresh(lo, hi, cfg.n_windows, cfg.window_minutes)
        elif (state.lo, state.hi) != (lo, hi):
            raise ValueError(
                f"state covers servers {(state.lo, state.hi)}, "
                f"stepper covers {(lo, hi)}"
            )
        elif state.n_windows != cfg.n_windows:
            raise ValueError(
                f"state has {state.n_windows} windows, config {cfg.n_windows}"
            )
        self.state = state
        # ``stretch-repro --profile`` / REPRO_OBS_PROFILE: per-phase
        # self-time of the window step (loads, gather, tails, monitor,
        # aggregate) — how the 10k->100k throughput falloff was localized.
        self._profiler = active_profiler()
        self._policy = make_policy(cfg.policy)
        self._ctx = PolicyContext(
            n_servers=cfg.n_servers,
            n_windows=cfg.n_windows,
            overprovision=cfg.overprovision,
            balance_jitter=cfg.balance_jitter,
            seed=cfg.seed,
        )
        if engine.corunner_table is not None:
            self._placement = make_placement(
                cfg.placement, cfg.placement_epoch
            )
            policy, ctx = self._policy, self._ctx
            self._pctx = PlacementContext(
                n_servers=cfg.n_servers,
                n_windows=cfg.n_windows,
                seed=cfg.seed,
                mix=np.asarray(cfg.mix_fractions),
                table=engine.corunner_table,
                # Relative (cluster_load=1.0) balancing weights: a pure
                # function of (seed, window), so symbiosis matching resumes
                # bit-identically without knowing the live fed loads.  The
                # closure binds the policy and its context, not ``self``:
                # a stepper reachable from its own placement context
                # would be freed only by the cyclic collector.
                relative_loads=lambda w: policy.server_loads(1.0, w, ctx),
            )
        else:
            self._placement = None
            self._pctx = None
        #: Last window's per-profile server counts for this slice
        #: (profile name -> servers), empty for homogeneous fleets.
        self.last_placement: dict[str, int] = {}
        # (assignment identity, pre-scaled slice) — recomputed only when
        # the placement policy hands out a new epoch's assignment, so the
        # steady-state window does no per-window slicing/scaling.
        self._pidx4: tuple | None = None
        # Adversarial scenario: compiled once against the full fleet.  A
        # null scenario never builds a sampler, so its step() path is the
        # unperturbed engine's, bit for bit (test-gated).
        scenario = self.scenario = engine.scenario
        if scenario is not None and not scenario.is_null:
            self._sampler = ScenarioSampler(
                scenario, n_servers=cfg.n_servers, seed=cfg.seed
            )
            tail_factors = self._sampler.tail_factors()
            self._scenario_tail = (
                None if tail_factors is None else tail_factors[lo:hi]
            )
        else:
            self._sampler = None
            self._scenario_tail = None
        # Window-record scenario sections, memoized per activation
        # signature: the sampler's vectors and this stepper's slice are
        # both fixed for the day, so the summary's array passes (mean,
        # affected count) run once per signature, not once per window.
        self._scenario_summaries: dict[tuple[str, ...], dict] = {}
        qos = engine.ls_profile.qos
        self._target_ms = qos.target_ms
        self._engage_ms = qos.target_ms * cfg.monitor.engage_fraction
        # One dict of chunk-sized scratch arrays per worker slot, kept for
        # the stepper's life: a steady-state window allocates no chunk- or
        # fleet-sized array (DESIGN.md §9, "Memory").
        self._slots: list[dict] = []
        #: Top-K violating servers to expose per window (0 disables).
        self.capture_violators = 0
        #: Last window's captured violators (see :meth:`step`).
        self.last_violators: list[dict] = []
        n = hi - lo
        if tail == "surrogate":
            self._surrogate = engine.ensure_surrogate()
            self._chunk = min(_resolve_chunk_size(chunk_size), n)
            self._sims = None
            # Surrogate grid rows for every (profile, mode) perf factor
            # the fleet can visit — the chunk loop gathers these instead
            # of re-searching the grid per server per window.  Also fails
            # fast here if the surrogate misses any fitted factor.
            table = engine.corunner_table
            self._srows = self._surrogate._row_indices(
                table.perf_rows.ravel() if table is not None
                else engine._perf_rows
            )
        else:
            # One DES per server: python-loop bound, chunking buys nothing.
            self._surrogate = None
            self._srows = None
            self._chunk = n
            self._sims = [
                ServiceSimulator(
                    qos,
                    n_workers=cfg.n_workers,
                    seed=derive_seed(cfg.seed, "server", k) & 0x7FFFFF,
                )
                for k in range(lo, hi)
            ]
            horizon = max(20000, cfg.requests_per_window)
            self._peaks = [
                sim.peak_load(n_requests=horizon) for sim in self._sims
            ]

    # -- progress --------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.state.done

    @property
    def remaining(self) -> int:
        return self.state.n_windows - self.state.window

    @property
    def timeline(self) -> FleetTimeline:
        return self.state.timeline

    # -- tail evaluation -------------------------------------------------

    def _tails(self, window, loads, perf, offset: int) -> np.ndarray:
        """The exact path's tails: one DES request stream per server."""
        n_requests = self.engine.config.requests_per_window
        tails = np.empty(len(loads))
        for i in range(len(loads)):
            stream = self._sims[offset + i].stream(
                n_requests, seed_offset=window + 1
            )
            tails[i] = stream.tail(self._peaks[offset + i] * loads[i], perf[i])
        return tails

    # -- advancement -----------------------------------------------------

    def step(self, cluster_load: float | None = None) -> dict:
        """Advance one monitoring window; returns the window's aggregates.

        ``cluster_load`` overrides the configured load curve for this
        window (the live-feed path); with ``None`` the curve supplies it.
        The returned record is the streaming-observability payload:
        window index, hour, ingested load and the fleet aggregates.
        """
        state = self.state
        if state.done:
            raise RuntimeError(
                f"fleet day is complete ({state.n_windows} windows)"
            )
        engine = self.engine
        cfg = engine.config
        # Each chunk times its own phases and the step flushes their sums
        # once per window, so profiling costs two perf_counter calls per
        # phase and chunk when on and a single predictable branch when off.
        prof = self._profiler
        tick = time.perf_counter if prof is not None else None
        if tick is not None:
            t0 = tick()
        k = state.window
        hour = k * cfg.window_minutes / 60.0
        if cluster_load is None:
            if self._load_fn is None:
                raise ValueError(
                    "stepper has no load curve; pass cluster_load explicitly"
                )
            cluster_load = self._load_fn(hour)
        # Balancing streams are indexed by int(hour * 60 / wm), not by k:
        # where the division does not round-trip the two differ, and the
        # recorded days (tests/golden) were drawn with this expression.
        window_index = int(hour * 60.0 / cfg.window_minutes)
        n = state.n_servers
        starts = range(0, n, self._chunk)
        workers = usable_workers(len(starts))
        # The window's fleet-wide work runs here, once; the chunks only
        # read it.  Scenario load perturbations multiply the raw balanced
        # loads before the LOAD_BOUNDS clip, so the loads stay in the range
        # the tail evaluators were calibrated for.
        scenario_lf = None
        if self._sampler is not None:
            full_lf = self._sampler.load_factors(k, hour)
            if full_lf is not None:
                scenario_lf = full_lf[state.lo:state.hi]
        if self._placement is not None:
            # Full-fleet assignment, sliced — shard-count invariant by
            # the same discipline as the balancing policies.
            # Pre-scaled by the table width so a chunk's combined
            # index is one add and each lookup a single flat 1-D
            # gather; cached per epoch (the policy returns one array
            # per epoch) so steady-state windows allocate nothing here.
            table = self.engine.corunner_table
            assign = self._placement.assign(window_index, self._pctx)
            if self._pidx4 is None or self._pidx4[0] is not assign:
                sliced = assign[state.lo:state.hi]
                counts = np.bincount(sliced, minlength=table.n_profiles)
                self._pidx4 = (
                    assign,
                    sliced * table.perf_rows.shape[1],
                    {
                        name: int(counts[i])
                        for i, name in enumerate(table.profiles)
                    },
                )
            pidx4 = self._pidx4[1]
            perf_table = table.perf_rows.ravel()
            batch_table = table.batch_rows.ravel()
        else:
            pidx4 = None
            perf_table, batch_table = engine._perf_rows, engine._batch_rows
        # After the placement, whose symbiosis matching may read another
        # window's relative loads through the same policy context.
        self._policy.prepare(window_index, self._ctx)
        noise_seed = None if self._surrogate is None else derive_seed(
            cfg.seed, "fleet-noise", k
        )
        top_k = int(self.capture_violators)
        while len(self._slots) < workers:
            self._slots.append({})
        if tick is not None:
            t1 = tick()
        chunk = functools.partial(
            self._step_chunk, k=k, cluster_load=float(cluster_load),
            window_index=window_index, noise_seed=noise_seed,
            scenario_lf=scenario_lf, pidx4=pidx4, perf_table=perf_table,
            batch_table=batch_table, top_k=top_k, tick=tick,
        )
        # Every worker takes the next chunk left, so one descheduled
        # thread holds up at most one chunk; with one worker this is
        # the chunks in order.
        parts: list = [None] * len(starts)
        todo = queue.SimpleQueue()
        for i in range(len(starts)):
            todo.put(i)

        def drain(slot: dict) -> None:
            while True:
                try:
                    i = todo.get_nowait()
                except queue.Empty:
                    return
                parts[i] = chunk(starts[i], buffers=slot)

        # The calling thread is one of the workers.  Helper threads live
        # only inside this block: none outlives the step, so a process
        # forked between steps inherits none.
        with (
            ThreadPoolExecutor(workers - 1) if workers > 1 else nullcontext()
        ) as pool:
            helpers = [
                pool.submit(drain, slot) for slot in self._slots[1:workers]
            ]
            try:
                drain(self._slots[0])
            finally:
                for helper in helpers:
                    helper.result()

        out = state.timeline
        out.hours[k] = hour
        mode_counts = np.zeros(3, dtype=np.int64)
        violations = throttled = 0
        tail_ms_sum = batch_uipc_sum = 0.0
        captured: list[np.ndarray] = []
        busy = [0.0] * len(_CHUNK_PHASES)
        # Chunk order, as a serial loop adds them: the float sums are the
        # same doubles whatever the number of workers.
        for counts, n_violated, n_throttled, tails, batch, found, phases in (
            parts
        ):
            mode_counts += counts
            violations += n_violated
            throttled += n_throttled
            tail_ms_sum += tails
            batch_uipc_sum += batch
            if found is not None:
                captured.append(found)
            if phases is not None:
                busy = [a + b for a, b in zip(busy, phases)]
        if prof is not None:
            prof.add("fleet.step.loads", t1 - t0)
            # Busy seconds, summed over every chunk task; the chunk
            # region's wall time is ``fleet.step.chunks``.
            for phase, seconds in zip(_CHUNK_PHASES, busy):
                prof.add(f"fleet.step.{phase}", seconds)
            prof.add("fleet.step.chunks", tick() - t1)
        if top_k > 0:
            self.last_violators = self._rank_violators(captured, top_k)
        out.mode_counts[k] = mode_counts
        out.violations[k] = violations
        out.throttled[k] = throttled
        out.tail_ms_sum[k] = tail_ms_sum
        out.batch_uipc_sum[k] = batch_uipc_sum
        state.window = k + 1
        record = {
            "window": k,
            "hour": hour,
            "cluster_load": float(cluster_load),
            "servers": n,
            "violations": violations,
            "throttled": throttled,
            "mode_baseline": int(mode_counts[_BASELINE]),
            "mode_b": int(mode_counts[_B_MODE]),
            "mode_q": int(mode_counts[_Q_MODE]),
            "mean_tail_ms": tail_ms_sum / n,
            "mean_batch_uipc": batch_uipc_sum / n,
        }
        if pidx4 is not None:
            self.last_placement = self._pidx4[2]
            record["placement"] = dict(self.last_placement)
        if self._sampler is not None:
            active = self._sampler.active_components(hour)
            summary = self._scenario_summaries.get(active)
            if summary is None:
                summary = self._sampler.window_summary(
                    hour, scenario_lf, self._scenario_tail
                )
                self._scenario_summaries[active] = summary
            # Fresh copies per window: records are caller-owned.
            record["scenario"] = {**summary, "active": list(active)}
        return record

    def _step_chunk(
        self, s0: int, *, k, cluster_load, window_index, noise_seed,
        scenario_lf, pidx4, perf_table, batch_table, top_k: int, tick,
        buffers: dict,
    ) -> tuple:
        """Advance servers ``[s0, s0 + chunk)`` through window ``k``.

        Draws the chunk's own loads and surrogate noise (each window
        stream advanced to the chunk's first server, so they are the
        full-fleet draws' slices) and works in ``buffers``, the calling
        worker slot's scratch arrays.  Writes only the chunk's slices of
        the state arrays and of the per-server timeline arrays, so chunks
        may run on any threads.  Returns the chunk's partials: mode
        counts, violations, throttled servers, the tail and batch-UIPC
        sums, the captured violator rows (``None`` when there are none to
        capture) and the seconds of each :data:`_CHUNK_PHASES` phase
        (``None`` unprofiled).
        """
        state = self.state
        out = state.timeline
        engine = self.engine
        cfg = engine.config
        row_modes = engine._row_modes
        if tick is not None:
            t0 = tick()
        s1 = min(s0 + self._chunk, state.n_servers)
        size = (s1 - s0,)
        lo = state.lo
        loads = self._policy.server_loads(
            cluster_load, window_index, self._ctx, lo + s0, lo + s1,
            out=_scratch(buffers, "loads", size),
        )
        if scenario_lf is not None:
            np.multiply(loads, scenario_lf[s0:s1], out=loads)
        np.clip(loads, *LOAD_BOUNDS, out=loads)
        u = None
        if noise_seed is not None:
            # The window's noise stream, advanced by the servers before
            # this chunk: the full-fleet draw's slice, bit for bit.
            rng = np.random.default_rng(noise_seed)
            rng.bit_generator.advance(lo + s0)
            u = rng.random(out=_scratch(buffers, "noise", size))
        if tick is not None:
            t1 = tick()
        mode = state.mode[s0:s1]
        throttle = state.throttle[s0:s1]
        throttled_now = np.greater(
            throttle, 0, out=_scratch(buffers, "throttled", size, bool)
        )
        rows = _scratch(buffers, "rows", size, np.int64)
        np.copyto(rows, mode)
        np.copyto(rows, _THROTTLED_ROW, where=throttled_now)
        # Heterogeneous fleets index the raveled (profile, mode row)
        # table: pre-scaled profile row + mode row.
        flat = rows if pidx4 is None else np.add(
            pidx4[s0:s1], rows, out=_scratch(buffers, "flat", size, np.int64)
        )
        # The indices are in range; mode="clip" only spares take's
        # buffered copy into ``out``.
        batch_sum = float(np.take(
            batch_table, flat, out=_scratch(buffers, "batch", size),
            mode="clip",
        ).sum())
        if self._srows is None:
            # Only the exact DES path reads per-server perf factors;
            # the surrogate samples from precomputed grid rows.
            perf, srows = perf_table[flat], None
        else:
            perf, srows = None, np.take(
                self._srows, flat,
                out=_scratch(buffers, "srows", size, np.intp), mode="clip",
            )
        if tick is not None:
            t2 = tick()
        if self._surrogate is not None:
            tails = self._surrogate.sample(
                loads, perf, u, rows=srows,
                buffers=buffers.setdefault("sample", {}),
            )
        else:
            tails = self._tails(k, loads, perf, s0)
        if self._scenario_tail is not None:
            # Static per-server slowdowns (stragglers, generations);
            # unaffected servers carry exactly 1.0, preserving bits.
            np.multiply(tails, self._scenario_tail[s0:s1], out=tails)
        if tick is not None:
            t3 = tick()
        violated = np.greater(
            tails, self._target_ms,
            out=_scratch(buffers, "violated", size, bool),
        )
        slack = np.less_equal(
            tails, self._engage_ms, out=_scratch(buffers, "slack", size, bool)
        )

        label = mode if row_modes is None else row_modes[mode]
        partials = (
            np.bincount(label, minlength=3),
            int(np.count_nonzero(violated)),
            int(np.count_nonzero(throttled_now)),
            float(tails.sum()),
            batch_sum,
        )
        out.server_violations[s0:s1] += violated
        out.server_bmode_windows[s0:s1] += np.equal(
            label, _B_MODE, out=_scratch(buffers, "bmode", size, bool)
        )
        if tick is not None:
            t4 = tick()

        if engine.adaptive is None:
            monitor_transition_vec(
                mode, state.compliant[s0:s1], state.violation[s0:s1],
                throttle, violated, slack, cfg.monitor, cfg.q_mode_available,
            )
        else:
            mode[:] = engine.adaptive.next_rows(tails)
        if tick is not None:
            t5 = tick()
        found = None
        if top_k > 0:
            idx = np.flatnonzero(violated)
            if len(idx):
                now, after = rows[idx], mode[idx]
                if row_modes is not None:
                    # Adaptive rows report their mode, as in the counts.
                    now, after = row_modes[now], row_modes[after]
                # Columns: global server, day violations (cumulative,
                # incl. this window), mode row at violation time (0-2 per
                # MODE_ORDER, 3 = throttled), then the post-transition
                # monitor state.
                found = np.column_stack((
                    idx + (state.lo + s0),
                    out.server_violations[s0 + idx],
                    now,
                    after,
                    state.violation[s0:s1][idx],
                    throttle[idx],
                ))
        phases = None if tick is None else (
            t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4
        )
        return partials + (found, phases)

    @staticmethod
    def _rank_violators(captured: list[np.ndarray], top_k: int) -> list[dict]:
        """Top-K violator rows by day violations (server index tiebreak)."""
        if not captured:
            return []
        table = np.concatenate(captured, axis=0)
        order = np.lexsort((table[:, 0], -table[:, 1]))[:top_k]
        mode_names = tuple(m.value for m in MODE_ORDER) + ("throttled",)
        return [
            {
                "server": int(row[0]),
                "day_violations": int(row[1]),
                "mode": mode_names[int(row[2])],
                "mode_after": mode_names[int(row[3])],
                "violation_streak": int(row[4]),
                "throttle_left": int(row[5]),
            }
            for row in table[order]
        ]

    def run(self, n_windows: int | None = None) -> FleetTimeline:
        """Advance ``n_windows`` (default: to end of day); return the timeline."""
        remaining = self.remaining if n_windows is None else min(
            int(n_windows), self.remaining
        )
        for _ in range(remaining):
            self.step()
        return self.state.timeline
