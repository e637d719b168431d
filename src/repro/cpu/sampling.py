"""Sampling methodology (paper §V-C, after SimFlex/SMARTS).

The paper simulates 320 short samples of each workload: every sample warms
caches and predictors functionally, then runs cycle-accurate simulation for
150K instructions (100K warmup + 50K measured), reporting UIPC.

We reproduce the same structure at configurable scale: each sample
instantiates a fresh core, generates an independent trace segment per
workload (a different region of the synthetic execution — different seed),
runs a warmup phase whose statistics are discarded, and measures UIPC over
the following instructions.  Results aggregate by averaging UIPC across
samples.  The same per-sample seeds are used across all configurations of an
experiment (the paper's "same set of sampling points across all colocations"),
which makes config-to-config comparisons paired and low-variance.
"""

from __future__ import annotations

import contextvars
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.cpu.config import CoreConfig
from repro.cpu.fast_core import FastCore
from repro.cpu.isa import OpClass
from repro.cpu.metrics import SimulationResult
from repro.cpu.trace import _COLUMNS, Trace
from repro.cpu.uncore import MemoryHierarchy
from repro.obs.metrics import get_registry
from repro.obs.sampler import attach_core_observers
from repro.util.rng import derive_seed
from repro.workloads.generator import MemoryMap, TraceGenerator
from repro.workloads.profiles import WorkloadProfile

__all__ = [
    "SamplingConfig",
    "shared_sampling_points",
    "sample_solo",
    "sample_colocation",
    "mean_uipc",
]


@dataclass(frozen=True)
class SamplingConfig:
    """How many samples to run and how long each one is.

    The defaults are sized for fast regression runs; experiment harnesses
    scale them up (see ``repro.experiments.common.fidelity``).
    """

    n_samples: int = 3
    warmup_instructions: int = 5000
    measure_instructions: int = 4000
    seed: int = 42
    #: Close the measurement window only when EVERY thread has committed the
    #: target (long, unbiased windows for the slower thread).  With False the
    #: window closes at the first thread — cheaper, but the slow thread's
    #: statistics are noisy and phase-biased.
    require_all_threads: bool = True
    #: Statistically warm the LLC with steady-state-resident lines before
    #: each sample (the analogue of SimFlex's checkpointed warm state; a
    #: detailed-warmup-only run would see an unrealistically cold LLC).
    checkpoint_warming: bool = True
    #: Safety bound on measured-phase length, in cycles per measured µop.
    max_cycles_per_instruction: int = 1200

    def __post_init__(self) -> None:
        if self.n_samples <= 0:
            raise ValueError("n_samples must be positive")
        if self.warmup_instructions < 0 or self.measure_instructions <= 0:
            raise ValueError("instruction counts must be positive")

    @property
    def trace_length(self) -> int:
        """Trace length per sample: ``6.9 x (warmup + measure) + 1024``.

        Warmup and measurement both run until *every* thread reaches the
        target, so a faster co-runner consumes a multiple of the nominal
        instruction counts; the 6.9x headroom keeps replay from wrapping
        for thread-speed ratios up to ~6.9 (beyond that, a wrap revisits
        lines the checkpoint warming already installed, mildly flattering
        the fast thread).
        """
        return int(6.9 * (self.warmup_instructions + self.measure_instructions)) + 1024

    @property
    def max_cycles(self) -> int:
        return self.measure_instructions * self.max_cycles_per_instruction


# ----------------------------------------------------------------------
# Sampling points, shared within a sweep
# ----------------------------------------------------------------------
#
# A sampling point is one (profile, seed, sample, trace length): its trace,
# memory map and checkpoint-warming plans depend on nothing else, so every
# configuration of a sweep can run on the same objects.  Inside
# ``shared_sampling_points()`` they are built once and reused; outside, each
# sample builds its own.  The scope is a context variable (threads never
# share one) and an LRU of SCOPE_POINTS points, dropped on exit — a
# process-global cache would keep set-up traces alive for a whole fleet day.

#: Points one sweep scope keeps: the working set of one pair job at the
#: full tier's four samples.  The serial engine runs the jobs over the same
#: workloads back to back, so a pair's points stay for all its configurations.
SCOPE_POINTS = 8

_scope: contextvars.ContextVar[OrderedDict | None] = contextvars.ContextVar(
    "repro_sampling_points", default=None
)


@contextmanager
def shared_sampling_points():
    """Share sampling points between the simulations run inside the block.

    Reentrant: a nested scope uses the outer one's points.  Results are
    bit-identical with or without a scope; only the set-up work differs,
    counted by the ``sampling.points_built`` / ``sampling.points_reused``
    metrics.
    """
    if _scope.get() is not None:
        yield
        return
    points: OrderedDict = OrderedDict()
    token = _scope.set(points)
    try:
        yield
    finally:
        _scope.reset(token)
        points.clear()


@dataclass(frozen=True)
class _WarmPlan:
    """What checkpoint warming installs for one point, thread and LLC.

    Block lists are LLC block addresses (thread tag included), in install
    order; ``branches`` holds ``(pc, bias_taken, target)`` per static branch.
    """

    code: list[int]
    branches: list[tuple[int, bool, int]]
    hot: list[int]
    cold: list[int]


@dataclass(eq=False)
class _SamplingPoint:
    trace: Trace
    memmap: MemoryMap
    #: (thread, line bytes, LLC bytes) -> _WarmPlan
    plans: dict[tuple[int, int, int], _WarmPlan] = field(default_factory=dict)


def _sampling_point(
    profile: WorkloadProfile, sampling: SamplingConfig, sample: int
) -> _SamplingPoint:
    points = _scope.get()
    key = (profile, sampling.seed, sample, sampling.trace_length)
    if points is not None:
        point = points.get(key)
        if point is not None:
            points.move_to_end(key)
            get_registry().counter("sampling.points_reused").inc()
            return point
    seed = derive_seed(sampling.seed, profile.name, "sample", sample)
    generator = TraceGenerator(profile, seed=seed)
    trace = generator.generate(sampling.trace_length)
    for column in _COLUMNS:
        getattr(trace, column).flags.writeable = False
    point = _SamplingPoint(trace, generator.memory_map)
    get_registry().counter("sampling.points_built").inc()
    if points is not None:
        points[key] = point
        if len(points) > SCOPE_POINTS:
            points.popitem(last=False)
    return point


def _warm_plan(
    point: _SamplingPoint,
    hierarchy: MemoryHierarchy,
    thread: int,
    sampling: SamplingConfig,
    sample: int,
) -> _WarmPlan:
    """The point's warm plan for ``thread`` under this hierarchy's LLC.

    Hot-region and code lines are always resident (tiny working sets).  Each
    unique cold-region line is resident with the steady-state residency
    probability of an LRU-managed partition: the fraction of the cold region
    that fits in the LLC space left after hot data and code.  Streaming lines
    are never resident (no reuse).
    """
    llc = hierarchy.llc[thread]
    llc_bytes = llc.num_sets * llc.ways * llc.line_bytes
    if len(hierarchy.llc) > 1 and hierarchy.llc[0] is hierarchy.llc[1]:
        # Shared LLC: each thread can count on roughly half the capacity.
        llc_bytes //= 2
    key = (thread, hierarchy.line_bytes, llc_bytes)
    plan = point.plans.get(key)
    if plan is not None:
        return plan
    trace = point.trace
    memmap = point.memmap

    def blocks(lines: np.ndarray) -> list[int]:
        # 64-byte line numbers -> the thread's LLC block addresses.
        return hierarchy.blocks(thread, lines << 6)

    code_lines = np.unique(trace.pc >> 6)

    # Saturate each static branch's bimodal counter toward its dominant
    # direction and install its last-seen taken target.
    is_branch = trace.op == OpClass.BRANCH
    br_pc = trace.pc[is_branch]
    br_taken = trace.taken[is_branch]
    br_target = trace.target[is_branch]
    unique_pc, inverse = np.unique(br_pc, return_inverse=True)
    taken_votes = np.bincount(inverse, weights=br_taken.astype(np.float64))
    counts = np.bincount(inverse)
    last_index = np.zeros(len(unique_pc), dtype=np.int64)
    last_index[inverse] = np.arange(len(br_pc))
    branches = list(zip(
        unique_pc.tolist(),
        (taken_votes * 2 > counts).tolist(),
        br_target[last_index].tolist(),
    ))

    is_mem = (trace.op == OpClass.LOAD) | (trace.op == OpClass.STORE)
    addrs = trace.addr[is_mem]
    hot = np.unique(addrs[(addrs >= memmap.hot_start) & (addrs < memmap.hot_end)] >> 6)
    cold = np.unique(
        addrs[(addrs >= memmap.cold_start) & (addrs < memmap.cold_end)] >> 6
    )
    hot_bytes = memmap.hot_end - memmap.hot_start
    code_bytes = len(code_lines) * 64
    cold_region_bytes = max(memmap.cold_end - memmap.cold_start, 64)
    residency = min(1.0, max(llc_bytes - hot_bytes - code_bytes, 0) / cold_region_bytes)
    resident = cold[:0]
    if residency > 0.0 and len(cold):
        rng = np.random.default_rng(
            derive_seed(sampling.seed, trace.name, "ckpt", sample, thread)
        )
        resident = cold[rng.random(len(cold)) < residency]
    plan = _WarmPlan(blocks(code_lines), branches, blocks(hot), blocks(resident))
    point.plans[key] = plan
    return plan


def _checkpoint_warm(
    core: FastCore,
    thread: int,
    point: _SamplingPoint,
    sampling: SamplingConfig,
    sample: int,
) -> None:
    """Install the point's steady-state-resident lines (see :func:`_warm_plan`)
    into ``thread``'s LLC partition, and its static branches into the
    predictor: code, branches, hot lines, then resident cold lines."""
    plan = _warm_plan(point, core.hierarchy, thread, sampling, sample)
    llc = core.hierarchy.llc[thread]
    llc.fill_many(plan.code)
    install = core.predictor.install
    for pc, bias_taken, target in plan.branches:
        install(thread, pc, bias_taken, target)
    llc.fill_many(plan.hot)
    llc.fill_many(plan.cold)


def sample_solo(
    profile: WorkloadProfile,
    config: CoreConfig,
    sampling: SamplingConfig = SamplingConfig(),
) -> list[SimulationResult]:
    """Run ``profile`` alone on the core, one result per sample."""
    results = []
    for s in range(sampling.n_samples):
        point = _sampling_point(profile, sampling, s)
        core = FastCore(config, (point.trace,))
        attach_core_observers(core, {"kind": "solo", "workloads": [profile.name],
                                     "sample": s})
        if sampling.checkpoint_warming:
            _checkpoint_warm(core, 0, point, sampling, s)
        results.append(
            core.run(
                sampling.measure_instructions,
                warmup_instructions=sampling.warmup_instructions,
                max_cycles=sampling.max_cycles,
                require_all_threads=sampling.require_all_threads,
            )
        )
    return results


def sample_colocation(
    profile0: WorkloadProfile,
    profile1: WorkloadProfile,
    config: CoreConfig,
    sampling: SamplingConfig = SamplingConfig(),
) -> list[SimulationResult]:
    """Run two workloads colocated on the SMT core, one result per sample.

    Thread 0 runs ``profile0`` (the latency-sensitive thread, by the
    conventions of ``repro.core.partitioning``), thread 1 runs ``profile1``.
    """
    results = []
    for s in range(sampling.n_samples):
        point0 = _sampling_point(profile0, sampling, s)
        point1 = _sampling_point(profile1, sampling, s)
        core = FastCore(config, (point0.trace, point1.trace))
        attach_core_observers(
            core, {"kind": "pair", "workloads": [profile0.name, profile1.name],
                   "sample": s},
        )
        if sampling.checkpoint_warming:
            _checkpoint_warm(core, 0, point0, sampling, s)
            _checkpoint_warm(core, 1, point1, sampling, s)
        results.append(
            core.run(
                sampling.measure_instructions,
                warmup_instructions=sampling.warmup_instructions,
                max_cycles=sampling.max_cycles,
                require_all_threads=sampling.require_all_threads,
            )
        )
    return results


def mean_uipc(results: list[SimulationResult], thread: int = 0) -> float:
    """Average UIPC of one hardware thread across samples."""
    if not results:
        raise ValueError("no simulation results to aggregate")
    return sum(r.threads[thread].uipc for r in results) / len(results)
