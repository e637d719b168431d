"""Core benchmark: ``FastCore`` vs the ``ReferenceCore`` oracle, cycles/sec.

Times the production loop and the unoptimized per-cycle oracle on the same
traces across the four corners of the workload space — solo/pair ×
compute-bound/memory-bound — with GC disabled and interleaved repeats
(median of ``REPEATS``), asserting bit-identical ``SimulationResult``s
along the way, and persists the throughput numbers to
``benchmarks/results/BENCH_core.json``.

The JSON doubles as the CI perf baseline: before overwriting it, the test
compares each scenario's measured speedup (fast/ref — a machine-relative
ratio, so it transfers across hosts where absolute cycles/sec do not)
against the committed value and fails on a >25 % regression.  Refresh the
baseline by committing the regenerated file after an intentional change.

Each scenario and the quick-exact sweep also record ``ref_kernel_s``: the
median time of a fixed pure-Python loop, timed between that figure's own
repeats.  ``benchmarks/check_bench_trajectory.py --baseline-core`` prints
the wall-clock figures scaled by it next to the absolute ones; neither is
gated, since on a shared host even the scaled figures of unchanged code
move by more than the 25 % margin between runs.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from pathlib import Path

from repro.check.reference import ReferenceCore
from repro.cpu.config import CoreConfig
from repro.cpu.fast_core import FastCore
from repro.engine.store import reset_default_stores
from repro.experiments.common import (
    Fidelity,
    config_all_shared,
    config_solo,
    pair_uipc_many,
    solo_uipc_many,
)
from repro.experiments.fig06_rob_sensitivity import ROB_SIZES
from repro.experiments.fig09_stretch_modes import ALL_SCHEMES
from repro.util.rng import derive_seed
from repro.workloads import all_profiles
from repro.workloads.generator import TraceGenerator

RESULTS_DIR = Path(__file__).resolve().parent / "results"
BENCH_PATH = RESULTS_DIR / "BENCH_core.json"

#: Four corners of the workload space.  Memory-bound scenarios are where
#: event-horizon skipping matters most (long idle gaps under MLP limits);
#: compute-bound ones bound the constant-factor win of the flattened loop.
SCENARIOS = (
    ("solo_compute", ("gamess",)),
    ("solo_memory", ("mcf",)),
    ("pair_compute", ("gamess", "namd")),
    ("pair_memory", ("mcf", "milc")),
)

WARMUP_INSTRUCTIONS = 4000
MEASURE_INSTRUCTIONS = 10000
REPEATS = 5

#: Fail CI when a scenario's speedup drops >25 % below the committed value.
REGRESSION_TOLERANCE = 0.25

#: Representative grid slice for the surrogate-tier sweep entries: one LS
#: and one batch fig06 ROB sweep plus one fig09 skew sweep — small enough
#: for CI, same shape as the full figures.  The acceptance criterion is on
#: the *warm* path (every fit's members already in the store): a cold fit
#: costs more exact jobs than the 12-point sweep it replaces (DESIGN.md §8).
SURROGATE_SOLO_WORKLOADS = ("web_search", "zeusmp")
SURROGATE_PAIR = ("web_search", "zeusmp")
MIN_SURROGATE_WARM_SPEEDUP = 5.0

#: Reference-kernel runs per host-speed probe.
KERNEL_PROBES = 4


def _reference_kernel() -> float:
    """Seconds a fixed pure-Python loop takes now: the host-speed probe
    (the loop ``perfbench`` calibrates with)."""
    start = time.perf_counter()
    total = 0
    for i in range(30000):
        total += i * i
    return time.perf_counter() - start


def _traces(names):
    profiles = all_profiles()
    length = 7 * (WARMUP_INSTRUCTIONS + MEASURE_INSTRUCTIONS) + 1024
    return tuple(
        TraceGenerator(
            profiles[name], seed=derive_seed(42, name, "bench", slot)
        ).generate(length)
        for slot, name in enumerate(names)
    )


def _probe(kernel_s: list[float]) -> None:
    kernel_s.extend(_reference_kernel() for _ in range(KERNEL_PROBES))


def _bench_scenario(names):
    """Interleaved reference/fast timing; returns (ref_cps, fast_cps,
    median reference-kernel seconds between the repeats)."""
    traces = _traces(names)
    config = CoreConfig() if len(names) > 1 else CoreConfig().single_thread(96)
    require_all = len(names) > 1
    timings = {ReferenceCore: [], FastCore: []}
    results = {}
    kernel_s: list[float] = []
    for _ in range(REPEATS):
        _probe(kernel_s)
        for cls in (ReferenceCore, FastCore):
            core = cls(config, traces)
            gc.collect()
            start = time.perf_counter()
            result = core.run(
                MEASURE_INSTRUCTIONS,
                warmup_instructions=WARMUP_INSTRUCTIONS,
                max_cycles=MEASURE_INSTRUCTIONS * 1200,
                require_all_threads=require_all,
            )
            elapsed = time.perf_counter() - start
            timings[cls].append(core.cycle / elapsed)
            results[cls] = (result, core.cycle)
    assert results[ReferenceCore] == results[FastCore], (
        f"{'+'.join(names)}: engines diverged — FastCore must be "
        "bit-identical to ReferenceCore"
    )
    _probe(kernel_s)
    return (
        statistics.median(timings[ReferenceCore]),
        statistics.median(timings[FastCore]),
        statistics.median(kernel_s),
    )


def _sweep_surrogate_tier(tmp_path, monkeypatch) -> dict:
    """Time the representative grid at quick-exact vs surrogate tier.

    Both tiers run against fresh stores under ``tmp_path`` (this machine's
    default store may hold warm results, which would time cache hits, not
    simulation); the warm measurement reuses the surrogate run's store so
    only the fits' assembly from stored members and the NumPy evaluation
    are timed.
    """
    solo_configs = [config_solo(size) for size in ROB_SIZES]
    base = config_all_shared()
    pair_configs = [base] + [s.apply(base) for s in ALL_SCHEMES]

    def sweep(fid):
        for workload in SURROGATE_SOLO_WORKLOADS:
            solo_uipc_many(workload, solo_configs, fid)
        pair_uipc_many(*SURROGATE_PAIR, pair_configs, fid)

    def timed(cache_name, fid):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / cache_name))
        reset_default_stores()
        start = time.perf_counter()
        sweep(fid)
        return time.perf_counter() - start

    kernel_s: list[float] = []
    _probe(kernel_s)
    exact_s = timed("exact", Fidelity.quick(42))
    _probe(kernel_s)
    cold_s = timed("surrogate", Fidelity.surrogate(42))
    start = time.perf_counter()  # same store: fit members are warm now
    sweep(Fidelity.surrogate(42))
    warm_s = time.perf_counter() - start
    reset_default_stores()
    return {
        "solo_workloads": list(SURROGATE_SOLO_WORKLOADS),
        "pair": list(SURROGATE_PAIR),
        "grid_points": len(solo_configs) * len(SURROGATE_SOLO_WORKLOADS)
        + len(pair_configs),
        "exact_s": round(exact_s, 3),
        "ref_kernel_s": round(statistics.median(kernel_s), 7),
        "cold_s": round(cold_s, 3),
        "warm_s": round(warm_s, 4),
        "warm_speedup": round(exact_s / warm_s, 1),
        "min_warm_speedup": MIN_SURROGATE_WARM_SPEEDUP,
    }


def _load_baseline() -> dict:
    """Committed scenarios measured against ReferenceCore (``ref_cps``);
    a payload from another reference engine has no comparable speedup."""
    if not BENCH_PATH.exists():
        return {}
    try:
        scenarios = json.loads(BENCH_PATH.read_text()).get("scenarios", {})
    except (json.JSONDecodeError, AttributeError):
        return {}
    return {name: s for name, s in scenarios.items() if "ref_cps" in s}


def test_core_scaling(save_result, tmp_path, monkeypatch):
    baseline = _load_baseline()
    surrogate = _sweep_surrogate_tier(tmp_path, monkeypatch)
    gc.disable()
    try:
        scenarios = {}
        regressions = []
        for name, workloads in SCENARIOS:
            ref_cps, fast_cps, kernel_s = _bench_scenario(workloads)
            speedup = fast_cps / ref_cps
            scenarios[name] = {
                "workloads": list(workloads),
                "ref_cps": round(ref_cps),
                "fast_cps": round(fast_cps),
                "speedup": round(speedup, 2),
                "ref_kernel_s": round(kernel_s, 7),
            }
            prior = baseline.get(name, {}).get("speedup")
            if prior and speedup < prior * (1.0 - REGRESSION_TOLERANCE):
                regressions.append(
                    f"{name}: speedup {speedup:.2f}x is >"
                    f"{REGRESSION_TOLERANCE:.0%} below committed baseline "
                    f"{prior:.2f}x"
                )
    finally:
        gc.enable()

    payload = {
        "warmup_instructions": WARMUP_INSTRUCTIONS,
        "measure_instructions": MEASURE_INSTRUCTIONS,
        "repeats": REPEATS,
        "scenarios": scenarios,
        "surrogate": surrogate,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    save_result(
        "core_scaling",
        "\n".join(
            f"{name}: ref {s['ref_cps']}/s fast {s['fast_cps']}/s "
            f"= {s['speedup']}x"
            for name, s in scenarios.items()
        )
        + (
            f"\nsurrogate sweep ({surrogate['grid_points']} points): "
            f"exact {surrogate['exact_s']}s cold {surrogate['cold_s']}s "
            f"warm {surrogate['warm_s']}s = {surrogate['warm_speedup']}x warm"
        ),
    )

    assert not regressions, "; ".join(regressions)
    # Absolute floor: the production loop must never lose to the
    # unoptimized oracle, on any scenario shape.
    for name, s in scenarios.items():
        assert s["speedup"] > 1.0, (
            f"{name}: FastCore slower than ReferenceCore ({s['speedup']}x)"
        )
    assert surrogate["warm_speedup"] >= MIN_SURROGATE_WARM_SPEEDUP, (
        f"warm surrogate sweep only {surrogate['warm_speedup']}x faster "
        f"than quick-exact (floor {MIN_SURROGATE_WARM_SPEEDUP}x)"
    )
