"""Tests for the discrete-event queueing simulator.

``ServiceSimulator.run`` and its request streams are checked bit for bit
against :func:`two_heap_loop`, the original per-request loop that kept a
second heap of completion times to count queue depths, fed by
:func:`oracle_arrivals` and :func:`oracle_services`, the original
per-run sampler.  The oracle never goes through a stream.
"""

import dataclasses
import heapq

import numpy as np
import pytest

import repro.fleet.surrogate as surrogate_module
from repro.engine.store import ResultStore
from repro.fleet.surrogate import (
    PeakLoadJob,
    SurrogateFitJob,
    SurrogateGrid,
    fit_tail_surrogate,
)
from repro.qos import queueing
from repro.qos.queueing import (
    LatencyStats,
    MMPPConfig,
    RequestStream,
    ServiceSimulator,
    _queue_depths,
)
from repro.qos.slack import required_performance
from repro.workloads.cloudsuite import CLOUDSUITE
from repro.workloads.profiles import QoSSpec

QOS = QoSSpec(target_ms=100.0, percentile=99.0, base_service_ms=8.0, service_cv=1.0)


def make_service(**kwargs) -> ServiceSimulator:
    return ServiceSimulator(QOS, n_workers=8, seed=1, **kwargs)


def two_heap_loop(arrivals, services, n_workers):
    """Reference DES: the original loop, kept as ``run``'s test-only oracle.

    Reads numpy scalars, pops and pushes a worker heap and an
    ``in_system`` heap of completion times per request, and counts the
    queue depth as the ``in_system`` size once every request done by the
    arrival has been popped.  Returns ``(done, latencies, depths)``.
    """
    n = len(arrivals)
    workers = [0.0] * n_workers
    heapq.heapify(workers)
    in_system = []
    done = np.empty(n)
    latencies = np.empty(n)
    depths = np.empty(n)
    for i in range(n):
        arrival = arrivals[i]
        while in_system and in_system[0] <= arrival:
            heapq.heappop(in_system)
        depths[i] = len(in_system)
        free_at = heapq.heappop(workers)
        start = free_at if free_at > arrival else arrival
        finish = start + services[i]
        heapq.heappush(workers, finish)
        heapq.heappush(in_system, finish)
        done[i] = finish
        latencies[i] = finish - arrival
    return done, latencies, depths


def two_heap_stats(arrivals, services, n_workers) -> LatencyStats:
    """Oracle statistics: one single-percentile call per field."""
    _, latencies, depths = two_heap_loop(arrivals, services, n_workers)
    if latencies.size == 0:
        raise ValueError("no latencies recorded")
    return LatencyStats(
        n_requests=int(latencies.size),
        mean=float(latencies.mean()),
        p50=float(np.percentile(latencies, 50)),
        p95=float(np.percentile(latencies, 95)),
        p99=float(np.percentile(latencies, 99)),
        max=float(latencies.max()),
        mean_queue_depth=float(depths.mean()),
        p95_queue_depth=float(np.percentile(depths, 95)),
    )


def oracle_arrivals(sim, rate_per_ms, n, rng):
    """Arrival times (ms) of ``n`` requests under the MMPP at mean ``rate_per_ms``.

    The original per-run sampler: one ``rng.exponential`` call per dwell
    at that dwell's state rate.
    """
    m = sim.mmpp
    base = rate_per_ms / m.mean_multiplier
    dwell = m.mean_dwell_requests
    gaps = np.empty(n)
    i = 0
    bursty = rng.random() < m.burst_fraction
    while i < n:
        run = min(n - i, max(1, int(rng.exponential(dwell))))
        state_rate = base * (m.burst_rate if bursty else m.calm_rate)
        gaps[i : i + run] = rng.exponential(1.0 / state_rate, size=run)
        i += run
        bursty = rng.random() < m.burst_fraction
    return np.cumsum(gaps)


def oracle_services(sim, perf_factor, n, rng):
    """Service times (ms), lognormal with the QoS contract's mean/CV."""
    mean = sim.qos.base_service_ms / perf_factor
    cv = sim.qos.service_cv
    sigma2 = np.log(1.0 + cv * cv)
    mu = np.log(mean) - 0.5 * sigma2
    return rng.lognormal(mu, np.sqrt(sigma2), size=n)


def two_heap_run(sim, rate, perf_factor=1.0, n_requests=20000, seed_offset=0):
    """``sim.run`` through the oracle sampler and loop."""
    rng = np.random.default_rng((sim.seed * 1_000_003 + seed_offset) & 0x7FFFFFFF)
    arrivals = oracle_arrivals(sim, rate, n_requests, rng)
    services = oracle_services(sim, perf_factor, n_requests, rng)
    return two_heap_stats(arrivals, services, sim.n_workers)


def two_heap_peak_load(sim, n_requests):
    """``ServiceSimulator.peak_load``'s bisection over oracle runs."""
    capacity = sim.n_workers / sim.qos.base_service_ms
    lo, hi = capacity * 0.02, capacity * 0.999
    assert sim.meets_qos(two_heap_run(sim, lo, n_requests=n_requests))
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if sim.meets_qos(two_heap_run(sim, mid, n_requests=n_requests)):
            lo = mid
        else:
            hi = mid
    return lo


def stats_bits(stats: LatencyStats) -> bytes:
    """Every field of ``stats`` as raw float64 bytes (n_requests is exact)."""
    return np.array(dataclasses.astuple(stats), dtype=np.float64).tobytes()


def bits(value) -> bytes:
    return np.float64(value).tobytes()


def with_draws(sim, arrivals, services) -> ServiceSimulator:
    """``sim`` whose ``run`` serves the given arrays instead of sampling."""

    def stream(n_requests=20000, seed_offset=0):
        stream = RequestStream(sim, n_requests, seed_offset)
        stream._arrivals = lambda rate: (arrivals, arrivals.tolist())
        stream._services = lambda perf: services.tolist()
        return stream

    sim.stream = stream
    return sim


class TestMMPPConfig:
    def test_defaults_valid(self):
        MMPPConfig()

    def test_rate_ordering(self):
        with pytest.raises(ValueError):
            MMPPConfig(calm_rate=2.0, burst_rate=1.0)

    def test_burst_fraction_bounds(self):
        with pytest.raises(ValueError):
            MMPPConfig(burst_fraction=0.0)

    def test_mean_multiplier(self):
        m = MMPPConfig(calm_rate=1.0, burst_rate=3.0, burst_fraction=0.5)
        assert m.mean_multiplier == pytest.approx(2.0)


class TestLatencyStats:
    def test_from_latencies(self):
        stats = LatencyStats.from_latencies(np.array([1.0, 2.0, 3.0, 100.0]))
        assert stats.n_requests == 4
        assert stats.mean == pytest.approx(26.5)
        assert stats.max == 100.0

    def test_percentile_accessors(self):
        stats = LatencyStats.from_latencies(np.linspace(1, 100, 100))
        assert stats.percentile(50.0) == stats.p50
        assert stats.percentile(95.0) == stats.p95
        assert stats.percentile(99.0) == stats.p99

    def test_untracked_percentile(self):
        stats = LatencyStats.from_latencies(np.array([1.0]))
        with pytest.raises(ValueError):
            stats.percentile(90.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LatencyStats.from_latencies(np.array([]))


class TestRun:
    def test_latency_at_least_service_time(self):
        stats = make_service().run(0.01, n_requests=2000)
        # Sojourn time includes the full service time.
        assert stats.mean >= QOS.base_service_ms * 0.8

    def test_latency_monotone_in_rate(self):
        service = make_service()
        low = service.run(0.05, n_requests=4000)
        high = service.run(0.8, n_requests=4000)
        assert high.p99 >= low.p99

    def test_perf_factor_scales_service(self):
        service = make_service()
        full = service.run(0.05, perf_factor=1.0, n_requests=4000)
        half = service.run(0.05, perf_factor=0.5, n_requests=4000)
        assert half.mean == pytest.approx(2 * full.mean, rel=0.25)

    def test_common_random_numbers(self):
        service = make_service()
        a = service.run(0.2, n_requests=1000)
        b = service.run(0.2, n_requests=1000)
        assert a.p99 == b.p99

    def test_seed_offset_changes_draws(self):
        service = make_service()
        a = service.run(0.2, n_requests=1000, seed_offset=0)
        b = service.run(0.2, n_requests=1000, seed_offset=1)
        assert a.p99 != b.p99

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            make_service().run(0.0)

    def test_invalid_perf_factor(self):
        with pytest.raises(ValueError):
            make_service().run(0.1, perf_factor=0.0)
        with pytest.raises(ValueError):
            make_service().run(0.1, perf_factor=1.5)


class TestPeakLoad:
    def test_peak_meets_qos(self):
        service = make_service()
        peak = service.peak_load(n_requests=6000)
        assert service.meets_qos(service.run(peak, n_requests=6000))

    def test_above_peak_violates(self):
        service = make_service()
        peak = service.peak_load(n_requests=6000)
        assert not service.meets_qos(service.run(peak * 1.2, n_requests=6000))

    def test_peak_cached(self):
        service = make_service()
        assert service.peak_load(n_requests=6000) == service.peak_load(n_requests=6000)

    def test_equal_simulators_share_one_calibration(self, monkeypatch):
        # A contract no other test uses, so no earlier test has memoized
        # any of these peaks.
        qos = dataclasses.replace(QOS, target_ms=97.0)
        draws = []
        draw = RequestStream._draw

        def counting(stream):
            draws.append((stream.sim.seed, stream.n_requests))
            draw(stream)

        monkeypatch.setattr(RequestStream, "_draw", counting)
        first = ServiceSimulator(qos, seed=1).peak_load(n_requests=1000)
        second = ServiceSimulator(qos, seed=1).peak_load(n_requests=1000)
        assert len(draws) == 1
        assert np.float64(second).tobytes() == np.float64(first).tobytes()
        # Each of the five inputs the bisection reads is part of the key.
        variants = [
            (ServiceSimulator(dataclasses.replace(qos, target_ms=96.0),
                              seed=1), 1000),
            (ServiceSimulator(qos, n_workers=6, seed=1), 1000),
            (ServiceSimulator(qos, mmpp=MMPPConfig(burst_rate=3.0), seed=1),
             1000),
            (ServiceSimulator(qos, seed=2), 1000),
            (ServiceSimulator(qos, seed=1), 1200),
        ]
        for k, (sim, n_requests) in enumerate(variants, start=2):
            sim.peak_load(n_requests=n_requests)
            assert len(draws) == k

    def test_peak_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(queueing, "_PEAK_MEMO", {})
        monkeypatch.setattr(queueing, "_PEAK_MEMO_SIZE", 2)
        for seed in (1, 2, 3):
            ServiceSimulator(QOS, seed=seed).peak_load(n_requests=500)
        assert [key[3] for key in queueing._PEAK_MEMO] == [2, 3]

    def test_latency_vs_load_series(self):
        service = make_service()
        points = service.latency_vs_load([0.2, 0.6, 1.0], n_requests=4000)
        assert [p[0] for p in points] == [0.2, 0.6, 1.0]
        assert points[-1][1].p99 >= points[0][1].p99

    def test_latency_vs_load_bad_fraction(self):
        with pytest.raises(ValueError):
            make_service().latency_vs_load([2.0], n_requests=1000)

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            ServiceSimulator(QOS, n_workers=0)


class TestTwoHeapOracle:
    """``run`` against the original two-heap loop, byte for byte."""

    @pytest.mark.parametrize("service", sorted(CLOUDSUITE))
    @pytest.mark.parametrize("n_workers", [1, 2, 3, 8, 16])
    def test_seeded_matrix(self, service, n_workers):
        qos = CLOUDSUITE[service].qos
        sim = ServiceSimulator(qos, n_workers=n_workers, seed=11 + n_workers)
        capacity = n_workers / qos.base_service_ms
        sizes = sorted({1, 2, n_workers - 1, n_workers, n_workers + 1, 2000})
        for n_requests in sizes:
            # One stream per replication serves every load and perf factor
            # in turn, so each query changes the rate or the perf factor.
            streams = {
                offset: sim.stream(n_requests, offset) for offset in (0, 1, 7)
            }
            for load in (0.01, 0.3, 0.7, 0.95, 1.3):
                for perf in (1.0, 0.63):
                    for seed_offset in (0, 1, 7):
                        args = (capacity * load, perf, n_requests, seed_offset)
                        stream = streams[seed_offset]
                        if n_requests == 0:
                            with pytest.raises(ValueError):
                                sim.run(*args)
                            with pytest.raises(ValueError):
                                two_heap_run(sim, *args)
                            with pytest.raises(ValueError):
                                stream.tail(capacity * load, perf)
                            continue
                        got = sim.run(*args)
                        want = two_heap_run(sim, *args)
                        assert stats_bits(got) == stats_bits(want), args
                        tail = stream.tail(capacity * load, perf)
                        assert bits(tail) == bits(
                            want.percentile(qos.percentile)
                        ), args

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_peak_load_bisection(self, seed):
        sim = ServiceSimulator(QOS, n_workers=8, seed=seed)
        want = two_heap_peak_load(sim, 6000)
        assert np.float64(sim.peak_load(6000)).tobytes() == (
            np.float64(want).tobytes()
        )

    def test_depths_with_ties_and_instant_finishes(self):
        """Tied arrivals and services under half an ulp of their start.

        ``1e-12`` ms added to ``1e6`` ms rounds back to ``1e6``, so those
        requests finish at their own arrival.  The bare ``searchsorted``
        count takes them as already gone for every earlier-indexed request
        with the same arrival; ``_queue_depths`` must add them back.
        """
        rng = np.random.default_rng(2024)
        instant_cases = 0
        for _ in range(500):
            n = int(rng.integers(1, 40))
            arrivals = np.sort(rng.choice([1e6, 1e6 + 1.0, 2e6], size=n))
            services = rng.choice([1e-12, 0.5, 2.0], size=n, p=[0.6, 0.2, 0.2])
            n_workers = int(rng.integers(1, 5))
            done, _, depths = two_heap_loop(arrivals, services, n_workers)
            instant_cases += bool((done == arrivals).any())
            got = _queue_depths(arrivals, done)
            assert got.dtype == np.float64
            assert got.tobytes() == depths.tobytes(), (arrivals, services)
            sim = with_draws(
                ServiceSimulator(QOS, n_workers=n_workers), arrivals, services
            )
            want = two_heap_stats(arrivals, services, n_workers)
            assert stats_bits(sim.run(1.0, n_requests=n)) == stats_bits(want)
            assert bits(sim.stream(n).tail(1.0)) == bits(want.p99)
        assert instant_cases > 400

    def test_all_requests_finish_on_arrival(self):
        arrivals = np.full(6, 1e6)
        services = np.full(6, 1e-12)
        done, _, depths = two_heap_loop(arrivals, services, 2)
        assert (done == arrivals).all() and not depths.any()
        assert not _queue_depths(arrivals, done).any()
        sim = with_draws(ServiceSimulator(QOS, n_workers=2), arrivals, services)
        stats = sim.run(1.0, n_requests=6)
        assert stats.max == 0.0 and stats.mean_queue_depth == 0.0


class TestRequestStream:
    def test_requeries_match_fresh_runs(self):
        """Rates A, B, A and perf factors X, Y, X on one stream."""
        sim = ServiceSimulator(QOS, n_workers=8, seed=5)
        stream = sim.stream(3000, seed_offset=2)
        for rate, perf in [(0.3, 1.0), (0.8, 1.0), (0.3, 1.0),
                           (0.3, 0.6), (0.3, 0.9), (0.3, 0.6),
                           (0.8, 0.9), (0.3, 1.0)]:
            want = sim.run(rate, perf, 3000, seed_offset=2)
            assert stats_bits(stream.stats(rate, perf)) == stats_bits(want)
            assert bits(stream.tail(rate, perf)) == bits(want.p99)
            assert stream.meets_qos(rate, perf) == sim.meets_qos(want)

    def test_tail_keeps_run_errors(self):
        stream = make_service().stream(100)
        with pytest.raises(ValueError, match="arrival rate"):
            stream.tail(0.0)
        with pytest.raises(ValueError, match="perf_factor"):
            stream.tail(0.1, perf_factor=0.0)
        with pytest.raises(ValueError, match="perf_factor"):
            stream.tail(0.1, perf_factor=1.5)
        with pytest.raises(ValueError):
            make_service().stream(0).tail(0.1)

    def test_simulator_keeps_no_stream(self):
        sim = make_service()
        sim.peak_load(n_requests=2000)
        sim.run(0.3, n_requests=500)
        assert not any(
            isinstance(value, RequestStream) for value in vars(sim).values()
        )


def oracle_peak(job):
    """A fit replicate's peak: the two-heap bisection."""
    return (two_heap_peak_load(job.simulator(), job.peak_requests),)


def oracle_replicate(job):
    """One calibration replicate per point: one oracle run per (perf,
    load) at the replicate's peak."""
    sim = job.simulator()
    tails = np.empty((len(job.perf_factors), len(job.loads)))
    for p, perf in enumerate(job.perf_factors):
        for l, load in enumerate(job.loads):
            stats = two_heap_run(
                sim, job.peak * load, perf, job.n_requests, seed_offset=l + 1
            )
            tails[p, l] = stats.percentile(job.qos.percentile)
    return tails


def oracle_required_performance(sim, load_fraction, n_requests, tolerance=0.01):
    """``required_performance``'s bisection over oracle runs."""
    rate = two_heap_peak_load(sim, n_requests) * load_fraction

    def meets(perf):
        return sim.meets_qos(two_heap_run(sim, rate, perf, n_requests))

    if not meets(1.0):
        return 1.0
    lo, hi = 0.01, 1.0
    if meets(lo):
        return lo
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if meets(mid):
            hi = mid
        else:
            lo = mid
    return hi


#: Perf-row sets of one, four (a homogeneous fleet's modes) and thirteen
#: (a four-profile population's union) fitted factors.
PERF_ROWS = {
    1: (1.0,),
    4: (0.62, 0.71, 0.83, 1.0),
    13: tuple(round(0.4 + 0.05 * k, 2) for k in range(13)),
}


class TestStreamCallersOracle:
    """Callers of the tail-only path against per-point oracle runs."""

    GRID = SurrogateGrid(
        loads=(0.1, 0.5, 0.9, 1.2), n_requests=300, peak_requests=1200,
        n_reps=2, n_val_reps=1, seed=3,
    )

    @pytest.mark.parametrize("n_workers", [1, 8])
    @pytest.mark.parametrize("n_perf", sorted(PERF_ROWS))
    @pytest.mark.parametrize("service", ["web_search", "web_serving"])
    def test_surrogate_fit_matches_per_point_runs(
        self, service, n_perf, n_workers, monkeypatch
    ):
        qos = CLOUDSUITE[service].qos  # web_search p99, web_serving p95
        perfs = PERF_ROWS[n_perf]
        got = fit_tail_surrogate(qos, perfs, self.GRID, n_workers=n_workers)
        monkeypatch.setattr(PeakLoadJob, "run", oracle_peak)
        monkeypatch.setattr(
            surrogate_module, "_measure_replicate", oracle_replicate
        )
        want = fit_tail_surrogate(qos, perfs, self.GRID, n_workers=n_workers)
        assert np.array(got.to_values()).tobytes() == (
            np.array(want.to_values()).tobytes()
        )

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n_perf", sorted(PERF_ROWS))
    @pytest.mark.parametrize("service", ["web_search", "web_serving"])
    def test_pooled_fit_matches_the_serial_fit(self, service, n_perf, workers):
        # The one fit function (FleetEngine.ensure_surrogate's and
        # fit_tail_surrogate's) on a pool of each size; five replicates,
        # so two and three workers each run several, in no fixed order.
        grid = dataclasses.replace(self.GRID, n_reps=3, n_val_reps=2)
        qos, perfs = CLOUDSUITE[service].qos, PERF_ROWS[n_perf]
        serial = fit_tail_surrogate(qos, perfs, grid).to_values()
        queueing._PEAK_MEMO.clear()  # the jobs bisect again
        pooled = surrogate_module._fit(
            SurrogateFitJob(qos, perfs, grid), workers, ResultStore(None)
        ).to_values()
        assert np.array(pooled).tobytes() == np.array(serial).tobytes()

    @pytest.mark.parametrize("load", [0.2, 0.6, 0.9])
    def test_required_performance_matches_parent_bisection(self, load):
        qos = CLOUDSUITE["web_search"].qos
        got = required_performance(ServiceSimulator(qos, seed=4), load, 3000)
        want = oracle_required_performance(ServiceSimulator(qos, seed=4), load, 3000)
        assert bits(got) == bits(want)
