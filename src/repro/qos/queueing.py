"""Discrete-event queueing simulator for latency-sensitive services.

Models one server of a load-balanced cluster: requests arrive following a
Markov-modulated Poisson process (bursty, as the paper notes — "queuing can
occur even at low average loads due to bursty request arrival", §II), wait in
a FIFO queue for one of ``n_workers`` service threads, and complete after a
lognormally distributed service time.

Core performance couples in through ``perf_factor``: a request's service time
scales as ``1 / perf_factor``, where the factor is the fraction of full-core
single-thread performance the latency-sensitive thread currently receives
(from SMT colocation, a Stretch mode, or Elfen-style duty-cycling).

Latency is reported at the percentiles of the service's QoS contract
(Table I), reproducing the Figure 1 latency-versus-load curves.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.obs.profiler import active_profiler
from repro.workloads.profiles import TRACKED_PERCENTILES, QoSSpec

__all__ = ["MMPPConfig", "LatencyStats", "RequestStream", "ServiceSimulator"]

#: Peak rates :meth:`ServiceSimulator.peak_load` found in this process,
#: keyed on all the bisection reads: ``(qos, n_workers, mmpp, seed,
#: n_requests)``.  Oldest entries go first once it holds
#: :data:`_PEAK_MEMO_SIZE` of them.  Peaks found in other processes (a
#: tail-surrogate fit's) reach later fits through the result store.
_PEAK_MEMO: dict[tuple, float] = {}
_PEAK_MEMO_SIZE = 4096


@dataclass(frozen=True)
class MMPPConfig:
    """Two-state Markov-modulated Poisson arrival process.

    The process alternates between a calm and a bursty state; rates are
    relative multipliers normalized so the long-run mean equals the requested
    arrival rate.  ``burst_fraction`` is the long-run fraction of time spent
    in the bursty state.
    """

    calm_rate: float = 0.75
    burst_rate: float = 2.5
    burst_fraction: float = 0.15
    mean_dwell_requests: float = 400.0

    def __post_init__(self) -> None:
        if self.calm_rate <= 0 or self.burst_rate <= self.calm_rate:
            raise ValueError("need 0 < calm_rate < burst_rate")
        if not 0.0 < self.burst_fraction < 1.0:
            raise ValueError("burst_fraction must be in (0, 1)")
        if self.mean_dwell_requests <= 1:
            raise ValueError("mean_dwell_requests must exceed 1")

    @property
    def mean_multiplier(self) -> float:
        return (
            self.calm_rate * (1.0 - self.burst_fraction)
            + self.burst_rate * self.burst_fraction
        )


@dataclass(frozen=True)
class LatencyStats:
    """Sojourn-time statistics of one queueing run (milliseconds).

    ``mean_queue_depth`` / ``p95_queue_depth`` report the number of requests
    already in the system when each request arrived — the queue-length QoS
    metric the paper mentions as an alternative monitor input (§IV-C, after
    Rubik [11]).
    """

    n_requests: int
    mean: float
    p50: float
    p95: float
    p99: float
    max: float
    mean_queue_depth: float = 0.0
    p95_queue_depth: float = 0.0

    @classmethod
    def from_latencies(
        cls, latencies: np.ndarray, queue_depths: np.ndarray | None = None
    ) -> "LatencyStats":
        if latencies.size == 0:
            raise ValueError("no latencies recorded")
        mean_depth = p95_depth = 0.0
        if queue_depths is not None and queue_depths.size:
            mean_depth = float(queue_depths.mean())
            p95_depth = float(np.percentile(queue_depths, 95))
        # One call selects the same order statistics and interpolates them
        # exactly as three single-percentile calls would.
        p50, p95, p99 = np.percentile(latencies, TRACKED_PERCENTILES).tolist()
        return cls(
            n_requests=int(latencies.size),
            mean=float(latencies.mean()),
            p50=p50,
            p95=p95,
            p99=p99,
            max=float(latencies.max()),
            mean_queue_depth=mean_depth,
            p95_queue_depth=p95_depth,
        )

    def percentile(self, q: float) -> float:
        """Latency at one of the :data:`TRACKED_PERCENTILES` (50, 95, 99)."""
        if q not in TRACKED_PERCENTILES:
            raise ValueError(
                f"percentile {q} not tracked; use one of {TRACKED_PERCENTILES}"
            )
        return (self.p50, self.p95, self.p99)[TRACKED_PERCENTILES.index(q)]


def _queue_depths(arrivals: np.ndarray, done: np.ndarray) -> np.ndarray:
    """Requests still in the system when each request arrives.

    Request ``i`` finds ``#{j < i : done[j] > arrivals[i]}`` requests
    ahead of it.  Arrivals are sorted and no request finishes before it
    arrives, so a ``searchsorted`` over all completions counts the earlier
    requests done by ``arrivals[i]`` plus any request ``j >= i`` that
    finishes exactly at ``arrivals[i]``.  Such a request arrived at that
    same instant and had a service time under half an ulp of its start.
    The depth is ``i`` minus the count, plus those instant finishes,
    counted as a suffix sum within each run of tied arrivals (normally
    there are none).
    """
    n = arrivals.size
    depths = np.arange(n) - np.searchsorted(np.sort(done), arrivals, side="right")
    instant = done == arrivals
    if instant.any():
        # suffix[k] = #{j >= k : instant[j]}; a tie run ends where the
        # next larger arrival begins.
        suffix = np.zeros(n + 1, dtype=np.int64)
        suffix[:n] = np.cumsum(instant[::-1])[::-1]
        run_end = np.searchsorted(arrivals, arrivals, side="right")
        depths += suffix[:n] - suffix[run_end]
    return depths.astype(np.float64)


def _completions(
    arrivals: list[float], services: list[float], n_workers: int
) -> np.ndarray:
    """Completion times, first come first served by the earliest-free worker.

    One pass over Python floats with one ``heapreplace`` on the
    ``n_workers`` free-at heap per request.
    """
    workers = [0.0] * n_workers  # free-at times, a min-heap
    finishes: list[float] = []
    record = finishes.append
    replace = heapq.heapreplace
    for arrival, service in zip(arrivals, services):
        free_at = workers[0]
        finish = (free_at if free_at > arrival else arrival) + service
        replace(workers, finish)
        record(finish)
    return np.array(finishes)


class RequestStream:
    """One replication's requests, served at any arrival rate and perf factor.

    A replication draws, from one generator, the MMPP burst pattern with
    one exponential gap per request, then one lognormal service time per
    request.  The rate only scales the gaps and the perf factor only
    moves the lognormal's location, so the stream draws the rate-free
    parts once, in this order:

    * the first burst state, then per dwell its length, ``run`` standard
      exponentials and the next burst state.  A gap is ``unit * (1 /
      state_rate)``: ``rng.exponential(1 / state_rate, size=run)``
      computes the same double, one standard exponential per element
      times the scale.
    * the generator's state after those draws.  It is restored before
      every service draw, so ``rng.lognormal`` returns the doubles that
      follow the arrivals in the generator's sequence.

    Nothing is drawn until the first query.  The last rate's arrivals and
    the last perf factor's service times are kept: a bisection over
    rates redraws no service times, and the perf rows of a grid point
    share one arrival vector.  Every query serves its requests through
    the same loop; :meth:`stats` and :meth:`tail` differ only in the
    summary.  A stream holds a few ``n_requests``-sized arrays and float
    lists (about 1.6 MB at 20 000 requests), so it lives for one query
    set and no simulator keeps one.
    """

    def __init__(
        self, sim: "ServiceSimulator", n_requests: int, seed_offset: int = 0
    ):
        self.sim = sim
        self.n_requests = n_requests
        self.seed_offset = seed_offset
        self._rng: np.random.Generator | None = None
        self._rate: float | None = None
        self._perf: float | None = None

    def _draw(self) -> None:
        sim, n = self.sim, self.n_requests
        m = sim.mmpp
        rng = np.random.default_rng(
            (sim.seed * 1_000_003 + self.seed_offset) & 0x7FFFFFFF
        )
        dwell = m.mean_dwell_requests
        unit = np.empty(n)
        bursty = np.empty(n, dtype=bool)
        i = 0
        burst = rng.random() < m.burst_fraction
        while i < n:
            run = min(n - i, max(1, int(rng.exponential(dwell))))
            unit[i : i + run] = rng.standard_exponential(size=run)
            bursty[i : i + run] = burst
            i += run
            # States are redrawn i.i.d. per dwell, so the long-run fraction
            # of bursty dwells equals burst_fraction.
            burst = rng.random() < m.burst_fraction
        self._unit, self._bursty = unit, bursty
        self._service_state = rng.bit_generator.state
        self._rng = rng

    def _arrivals(self, rate: float) -> tuple[np.ndarray, list[float]]:
        """Arrival times (ms) at mean ``rate`` per ms, and their float list."""
        if rate != self._rate:
            if self._rng is None:
                self._draw()
            m = self.sim.mmpp
            base = rate / m.mean_multiplier
            gaps = np.where(
                self._bursty,
                1.0 / (base * m.burst_rate),
                1.0 / (base * m.calm_rate),
            )
            gaps *= self._unit
            arrivals = np.cumsum(gaps)
            self._rate = rate
            self._arrival_draw = arrivals, arrivals.tolist()
        return self._arrival_draw

    def _services(self, perf_factor: float) -> list[float]:
        """Service times (ms), lognormal with the QoS contract's mean/CV."""
        if perf_factor != self._perf:
            if self._rng is None:
                self._draw()
            qos = self.sim.qos
            mean = qos.base_service_ms / perf_factor
            cv = qos.service_cv
            sigma2 = np.log(1.0 + cv * cv)
            mu = np.log(mean) - 0.5 * sigma2
            self._rng.bit_generator.state = self._service_state
            services = self._rng.lognormal(
                mu, np.sqrt(sigma2), size=self.n_requests
            )
            self._perf = perf_factor
            self._service_draw = services.tolist()
        return self._service_draw

    def _query(self, rate: float, perf_factor: float, summarize):
        if rate <= 0:
            raise ValueError("arrival rate must be positive")
        if not 0.0 < perf_factor <= 1.0 + 1e-9:
            raise ValueError("perf_factor must be in (0, 1]")
        n_workers = self.sim.n_workers
        profiler = active_profiler()
        if profiler is None:
            arrivals, arrival_list = self._arrivals(rate)
            service_list = self._services(perf_factor)
            done = _completions(arrival_list, service_list, n_workers)
            return summarize(arrivals, done)
        # ``--profile``: four stamps per query, flushed once.
        t0 = perf_counter()
        arrivals, arrival_list = self._arrivals(rate)
        service_list = self._services(perf_factor)
        t1 = perf_counter()
        done = _completions(arrival_list, service_list, n_workers)
        t2 = perf_counter()
        out = summarize(arrivals, done)
        profiler.add("qos.des.draw", t1 - t0)
        profiler.add("qos.des.serve", t2 - t1)
        profiler.add("qos.des.summary", perf_counter() - t2)
        return out

    @staticmethod
    def _summary(arrivals: np.ndarray, done: np.ndarray) -> LatencyStats:
        return LatencyStats.from_latencies(
            done - arrivals, _queue_depths(arrivals, done)
        )

    def _contract_tail(self, arrivals: np.ndarray, done: np.ndarray) -> float:
        latencies = done - arrivals
        if latencies.size == 0:
            raise ValueError("no latencies recorded")
        return float(np.percentile(latencies, self.sim.qos.percentile))

    def stats(self, rate: float, perf_factor: float = 1.0) -> LatencyStats:
        """Sojourn-time and queue-depth statistics: what ``run`` returns."""
        return self._query(rate, perf_factor, self._summary)

    def tail(self, rate: float, perf_factor: float = 1.0) -> float:
        """Latency (ms) at the QoS contract's percentile, and nothing else.

        The same double as ``stats(rate, perf_factor).percentile(q)``: one
        ``np.percentile`` call picks the same order statistics for one
        percentile as for three.  Queue depths, mean and max are skipped.
        """
        return self._query(rate, perf_factor, self._contract_tail)

    def meets_qos(self, rate: float, perf_factor: float = 1.0) -> bool:
        """Does the contract tail at ``rate`` and ``perf_factor`` meet QoS?"""
        return self.tail(rate, perf_factor) <= self.sim.qos.target_ms


class ServiceSimulator:
    """One latency-sensitive service instance under synthetic load."""

    def __init__(
        self,
        qos: QoSSpec,
        n_workers: int = 8,
        mmpp: MMPPConfig = MMPPConfig(),
        seed: int = 0,
    ):
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        self.qos = qos
        self.n_workers = n_workers
        self.mmpp = mmpp
        self.seed = int(seed)

    # ------------------------------------------------------------------

    def stream(
        self, n_requests: int = 20000, seed_offset: int = 0
    ) -> RequestStream:
        """The ``n_requests`` requests of replication ``seed_offset``.

        Every rate and perf factor queried on one stream sees the same
        random draws as a :meth:`run` with the same ``n_requests`` and
        ``seed_offset``.  The caller owns the stream: the simulator keeps
        none, so a ``tail="exact"`` fleet (one simulator per server) holds
        no request arrays between windows.
        """
        return RequestStream(self, n_requests, seed_offset)

    def run(
        self,
        arrival_rate_per_ms: float,
        perf_factor: float = 1.0,
        n_requests: int = 20000,
        seed_offset: int = 0,
    ) -> LatencyStats:
        """Simulate ``n_requests`` and return sojourn-time statistics.

        ``perf_factor`` scales service times (1.0 = full-core performance).
        ``seed_offset`` selects an independent replication; the default keeps
        common random numbers across configurations, making comparisons
        paired (the binary searches in the slack analysis rely on this).

        One query of a fresh :meth:`stream`.  Queries that read only the
        contract tail (peak-load bisection, surrogate calibration, the
        slack bisection, the exact fleet path) go to a stream's
        :meth:`~RequestStream.tail` instead and skip the other statistics.
        """
        return self.stream(n_requests, seed_offset).stats(
            arrival_rate_per_ms, perf_factor
        )

    # ------------------------------------------------------------------

    def meets_qos(self, stats: LatencyStats) -> bool:
        """Does a run satisfy the service's latency target?"""
        return stats.percentile(self.qos.percentile) <= self.qos.target_ms

    def peak_load(self, n_requests: int = 20000) -> float:
        """Peak sustainable arrival rate (requests/ms) at full performance.

        The largest rate whose tail latency still meets the QoS target —
        the paper's "100% load" reference point, found by bisection.  All
        41 probes serve one stream: the service times are drawn once and
        each probe only rescales the arrival gaps.  Equal simulators share
        the result through a bounded module-level memo.
        """
        key = (self.qos, self.n_workers, self.mmpp, self.seed, n_requests)
        cached = _PEAK_MEMO.get(key)
        if cached is not None:
            return cached
        # Upper bound: service capacity; lower bound: near-zero load.
        capacity = self.n_workers / self.qos.base_service_ms
        lo, hi = capacity * 0.02, capacity * 0.999
        stream = self.stream(n_requests)
        if not stream.meets_qos(lo):
            raise RuntimeError(
                "QoS target unreachable even at minimal load; check the QoSSpec"
            )
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if stream.meets_qos(mid):
                lo = mid
            else:
                hi = mid
        if len(_PEAK_MEMO) >= _PEAK_MEMO_SIZE:
            del _PEAK_MEMO[next(iter(_PEAK_MEMO))]
        _PEAK_MEMO[key] = lo
        return lo

    def latency_vs_load(
        self,
        load_fractions: list[float],
        perf_factor: float = 1.0,
        n_requests: int = 20000,
    ) -> list[tuple[float, LatencyStats]]:
        """Figure 1: latency statistics across load points (fractions of peak)."""
        peak = self.peak_load(n_requests=n_requests)
        out = []
        for fraction in load_fractions:
            if not 0.0 < fraction <= 1.2:
                raise ValueError(f"load fraction {fraction} out of range")
            out.append(
                (fraction, self.run(peak * fraction, perf_factor, n_requests))
            )
        return out
