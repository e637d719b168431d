"""Fleet-engine scaling benchmark: 1k → 1M servers over a 24-hour day.

Times :class:`repro.fleet.FleetEngine` (vectorized, surrogate tails) at
growing fleet sizes on the web_search/zeusmp pair and persists the wall
times to ``benchmarks/results/BENCH_fleet.json`` so the fleet engine's
perf trajectory is tracked across PRs.

Windows advance in chunks of :data:`repro.fleet.DEFAULT_CHUNK_SERVERS`
(the streaming path behind ``repro.service``).  Past 10k servers a
window steps in 64k-server chunks whose tail-evaluation temporaries
spill out of a core's cache, one thread per usable core (DESIGN.md §9).
The ``chunk_probe`` payload section measures that phase with the
``repro.obs`` profiler at the default and cache-sized chunks so the
trajectory check tracks both the stability default and the tuned
ceiling; its throughput is in wall time, since process time sums the
chunk threads.

The placement and scenario overhead probes time alternating pairs of
days in process time and gate :func:`check_bench_trajectory.median_lower_bound`
of the paired ratios, a 98 % lower confidence bound on their median:
a probe fails only when the data show the overhead above its budget.

The tail-surrogate calibration (a one-off queueing-DES sweep) runs
*outside* the timed days — the acceptance target is the simulation
itself: a 1M-server day in under 60 seconds.  It is the production fit,
``FleetEngine.ensure_surrogate`` on a memory-only store holding no
peak, so its bisections and replicates run on every usable core.  Its
CPU seconds in every process (this one's plus the reaped pool workers')
are recorded as ``surrogate_fit_cpu_s`` so the trajectory check tracks
the DES too: they do not depend on how many workers shared the fit.
Its wall time ``surrogate_fit_s`` and worker count
``surrogate_fit_workers`` are recorded beside it.
"""

from __future__ import annotations

import json
import os
import resource
import time
from dataclasses import replace
from pathlib import Path

from check_bench_trajectory import median_lower_bound

from repro.api import measure
from repro.engine.executor import usable_workers
from repro.engine.store import ResultStore
from repro.fleet import DEFAULT_CHUNK_SERVERS, FleetConfig, FleetEngine
from repro.obs.profiler import active_profiler, disable_profiling, enable_profiling
from repro.qos import queueing
from repro.scenarios import get_scenario
from repro.workloads.registry import get_profile

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Override with ``REPRO_BENCH_FLEET_SIZES=1000,10000,100000`` to drop
#: the 1M point on constrained runners (the trajectory guard compares
#: only sizes present in both payloads).
FLEET_SIZES = tuple(
    int(size)
    for size in os.environ.get(
        "REPRO_BENCH_FLEET_SIZES", "1000,10000,100000,1000000"
    ).split(",")
)
SEED = 29

#: Acceptance bound from the issue: a 1M-server day in under a minute.
MAX_LARGEST_SECONDS = 60.0

#: Heterogeneous co-runner population for the placement-overhead probe.
POPULATION = ("zeusmp", "lbm", "milc", "namd")

#: Preferred fleet size for the overhead probe (falls back to the largest
#: configured size below it when the 100k point is dropped via env).
OVERHEAD_SERVERS = 100_000

#: Acceptance bound: heterogeneous stepping (placement assign + table
#: gather) costs at most 10% over the homogeneous path at 100k servers.
MAX_PLACEMENT_OVERHEAD = 0.10

#: Acceptance bound: an attached adversarial scenario (per-server load
#: and tail multipliers, repro.scenarios) costs at most 10% over the
#: unperturbed stepping path at 100k servers.
MAX_SCENARIO_OVERHEAD = 0.10

#: Alternating (baseline, variant) day pairs per overhead probe; each
#: probe gates the 98 % lower confidence bound on the median per-pair
#: process-time ratio (the 2nd smallest of 9).  On a shared 2-vCPU host
#: single pairs of unchanged code read 0.97-1.25, so the median itself
#: crossed the 10 % budgets on unchanged code.
OVERHEAD_PAIRS = 9

#: Scenario for the overhead probe: every component family active
#: (stragglers + generations tails, migration + incident + flash-crowd
#: loads), so the probe times the full multiplier path.
SCENARIO_NAME = "black_friday"

#: Chunk sizes for the tail-phase probe: the digest-stable default vs
#: the cache-sized chunk that keeps the tail evaluator's temporaries
#: resident (DESIGN.md §9; opt in via ``REPRO_FLEET_CHUNK``).
DEFAULT_CHUNK = DEFAULT_CHUNK_SERVERS
TUNED_CHUNK = 16384


def _timed(run):
    start = time.process_time()
    result = run()
    return time.process_time() - start, result


def _paired_ratios(baseline, variant):
    """Process-time ratios variant/baseline over :data:`OVERHEAD_PAIRS`
    adjacent pairs, the order alternating within pairs; returns them with
    the variant's last result."""
    ratios = []
    for i in range(OVERHEAD_PAIRS):
        if i % 2 == 0:
            base_s, _ = _timed(baseline)
            variant_s, result = _timed(variant)
        else:
            variant_s, result = _timed(variant)
            base_s, _ = _timed(baseline)
        ratios.append(variant_s / base_s)
    return ratios, result


def _format_ratios(ratios) -> str:
    return ", ".join(f"{ratio:.3f}" for ratio in ratios)


def _overhead(ratios) -> tuple[float, float]:
    """The median overhead and its 98 % lower confidence bound."""
    median = sorted(ratios)[len(ratios) // 2]
    return median - 1.0, median_lower_bound(ratios) - 1.0


def cpu_seconds() -> float:
    """CPU seconds of this process plus its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def test_fleet_scaling(benchmark, fidelity, save_result):
    ls = get_profile("web_search")
    performance = measure("web_search", "zeusmp", sampling=fidelity.sampling)
    base = FleetConfig(seed=SEED)
    # Calibrate once, outside the timed days: every size reuses the same
    # fitted surrogate.  The fit is cold (a memory-only store, no peak
    # memoized in this process).  Its pools are joined before the fit
    # returns, so the workers' CPU seconds are in RUSAGE_CHILDREN by then.
    queueing._PEAK_MEMO.clear()
    fit_store = ResultStore(None)
    unfitted = FleetEngine(ls, performance, base, store=fit_store)
    grid = base.surrogate_grid()
    # Sized as ``ensure_surrogate`` sizes its pool.
    fit_workers = usable_workers(grid.n_reps + grid.n_val_reps)
    cpu_start = cpu_seconds()
    start = time.perf_counter()
    surrogate = unfitted.ensure_surrogate()
    surrogate_fit_s = time.perf_counter() - start
    surrogate_fit_cpu_s = cpu_seconds() - cpu_start

    # Placement-path overhead first, on a fresh heap: the 1M run below
    # frees gigabyte-scale arrays, after which the heterogeneous path's
    # extra per-chunk temporaries refault through glibc's trimmed heap
    # and the probe reads allocator churn instead of stepping cost.
    overhead_n = max(
        (n for n in FLEET_SIZES if n <= OVERHEAD_SERVERS), default=FLEET_SIZES[0]
    )
    corunners = tuple(
        measure("web_search", name, sampling=fidelity.sampling)
        for name in POPULATION
    )
    het_config = replace(
        base, n_servers=overhead_n, population=POPULATION
    )
    # Untimed, like above; its peaks are the first fit's store entries.
    het_engine = FleetEngine(
        ls, performance, het_config, corunners=corunners, store=fit_store
    )
    het_surrogate = het_engine.ensure_surrogate()
    het_engine = FleetEngine(
        ls, performance, het_config, corunners=corunners,
        surrogate=het_surrogate,
    )
    homo_engine = FleetEngine(
        ls, performance, replace(base, n_servers=overhead_n),
        surrogate=surrogate,
    )
    # *Paired* CPU-time ratios: absolute times on this box drift ~20%
    # with CPU frequency and scheduler state, but adjacent runs see
    # nearly the same clock, so the per-pair het/homo ratio is far
    # tighter (see OVERHEAD_PAIRS).  Alternating the order inside each
    # pair cancels linear drift; process time (not wall) excludes
    # involuntary preemption and sums the chunk threads' work.
    het_timeline = het_engine.run_day("web_search")  # warm both paths
    homo_timeline = homo_engine.run_day("web_search")
    placement_ratios, het_timeline = _paired_ratios(
        lambda: homo_engine.run_day("web_search"),
        lambda: het_engine.run_day("web_search"),
    )
    assert het_timeline.total_windows == homo_timeline.total_windows
    placement_overhead, placement_bound = _overhead(placement_ratios)
    assert placement_bound <= MAX_PLACEMENT_OVERHEAD, (
        f"heterogeneous stepping at {overhead_n} servers costs at least "
        f"{placement_bound:+.1%} over homogeneous at 98 % confidence "
        f"(budget {MAX_PLACEMENT_OVERHEAD:.0%}; per-pair ratios "
        f"{_format_ratios(placement_ratios)})"
    )

    # Scenario-attached stepping overhead, same paired-ratio protocol
    # against the same homogeneous engine, here with a scenario attached:
    # the sampler compiles once per day and the per-window cost is two
    # vectorized multiplies.
    scen_engine = FleetEngine(
        ls, performance, replace(base, n_servers=overhead_n),
        surrogate=surrogate, scenario=get_scenario(SCENARIO_NAME),
    )
    scen_timeline = scen_engine.run_day("web_search")
    homo_engine.run_day("web_search")  # warm the plain path again
    scenario_ratios, scen_timeline = _paired_ratios(
        lambda: homo_engine.run_day("web_search"),
        lambda: scen_engine.run_day("web_search"),
    )
    assert scen_timeline.total_windows == homo_timeline.total_windows
    scenario_overhead, scenario_bound = _overhead(scenario_ratios)
    assert scenario_bound <= MAX_SCENARIO_OVERHEAD, (
        f"scenario-attached stepping ({SCENARIO_NAME}) at {overhead_n} "
        f"servers costs at least {scenario_bound:+.1%} over unperturbed at "
        f"98 % confidence (budget {MAX_SCENARIO_OVERHEAD:.0%}; per-pair "
        f"ratios {_format_ratios(scenario_ratios)})"
    )

    # Tail-phase chunk probe (DESIGN.md §9): profiled, paired days at the
    # default chunk vs a cache-sized one.  Runs before the 1M day so the
    # probe times stepping, not allocator churn through a trimmed heap.
    was_profiling = active_profiler() is not None
    profiler = enable_profiling()
    tails_s = {DEFAULT_CHUNK: 0.0, TUNED_CHUNK: 0.0}
    probe_wall = {DEFAULT_CHUNK: 0.0, TUNED_CHUNK: 0.0}
    for rep in range(2):
        chunks = (DEFAULT_CHUNK, TUNED_CHUNK)
        for chunk in chunks if rep % 2 == 0 else chunks[::-1]:
            stepper = homo_engine.stepper("web_search", chunk_size=chunk)
            profiler.reset()
            start = time.perf_counter()
            for _ in range(homo_engine.config.n_windows):
                stepper.step()
            probe_wall[chunk] += time.perf_counter() - start
            # Busy seconds, summed over the chunk threads.
            tails_s[chunk] += profiler.seconds("fleet.step.tails")
    if not was_profiling:
        disable_profiling()
    probe_windows = 2 * overhead_n * homo_engine.config.n_windows
    chunk_probe = {
        str(chunk): {
            "tails_ns_per_server_window": round(
                tails_s[chunk] / probe_windows * 1e9, 1
            ),
            "server_windows_per_s": int(probe_windows / probe_wall[chunk]),
        }
        for chunk in (DEFAULT_CHUNK, TUNED_CHUNK)
    }

    wall: dict[int, float] = {}
    timelines = {}
    for n_servers in FLEET_SIZES:
        engine = FleetEngine(
            ls, performance, replace(base, n_servers=n_servers),
            surrogate=surrogate,
        )
        if n_servers == FLEET_SIZES[-1]:
            start = time.perf_counter()
            timelines[n_servers] = benchmark.pedantic(
                lambda: engine.run_day("web_search"), rounds=1, iterations=1
            )
            wall[n_servers] = time.perf_counter() - start
        else:
            start = time.perf_counter()
            timelines[n_servers] = engine.run_day("web_search")
            wall[n_servers] = time.perf_counter() - start

    largest = FLEET_SIZES[-1]
    assert wall[largest] < MAX_LARGEST_SECONDS, (
        f"{largest} servers took {wall[largest]:.1f}s "
        f"(budget {MAX_LARGEST_SECONDS:.0f}s)"
    )

    for n_servers, timeline in timelines.items():
        n_windows = timeline.mode_counts.shape[0]
        assert timeline.total_windows == n_servers * n_windows
        assert 0.0 <= timeline.violation_rate <= 1.0
        assert 0.0 < timeline.bmode_fraction < 1.0

    payload = {
        "fidelity": fidelity.name,
        "seed": SEED,
        "cpus": os.cpu_count(),
        "windows_per_day": int(timelines[largest].mode_counts.shape[0]),
        "surrogate_error_bound_ms": round(surrogate.error_bound_ms, 3),
        "surrogate_fit_s": round(surrogate_fit_s, 3),
        "surrogate_fit_workers": fit_workers,
        "surrogate_fit_cpu_s": round(surrogate_fit_cpu_s, 3),
        "wall_s": {str(n): round(wall[n], 3) for n in FLEET_SIZES},
        "server_windows_per_s": {
            str(n): int(timelines[n].total_windows / wall[n])
            for n in FLEET_SIZES
        },
        "budget_1m_s": MAX_LARGEST_SECONDS,
        "violation_rate_1m": round(timelines[largest].violation_rate, 5),
        "bmode_fraction_1m": round(timelines[largest].bmode_fraction, 5),
        "placement_overhead_servers": overhead_n,
        "placement_overhead": round(placement_overhead, 4),
        "placement_overhead_bound": round(placement_bound, 4),
        "placement_overhead_budget": MAX_PLACEMENT_OVERHEAD,
        "placement_overhead_ratios": [
            round(ratio, 4) for ratio in placement_ratios
        ],
        "scenario_overhead_servers": overhead_n,
        "scenario_overhead": round(scenario_overhead, 4),
        "scenario_overhead_bound": round(scenario_bound, 4),
        "scenario_overhead_budget": MAX_SCENARIO_OVERHEAD,
        "scenario_overhead_ratios": [
            round(ratio, 4) for ratio in scenario_ratios
        ],
        "chunk_probe_servers": overhead_n,
        "chunk_probe": chunk_probe,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_fleet.json").write_text(json.dumps(payload, indent=2))
    save_result(
        "fleet_scaling",
        "\n".join(f"{key}: {value}" for key, value in payload.items()),
    )
