"""Differential oracle: seeded config sweeps through both core implementations.

Runs the same (workloads, core configuration, instruction budget) through
:class:`~repro.cpu.fast_core.FastCore` (the event-skipping production loop)
and :class:`~repro.check.reference.ReferenceCore` (the deliberately naive
per-cycle oracle) and demands **bit-identical**
:class:`~repro.cpu.metrics.SimulationResult`\\ s — every counter, cycle count
and histogram bucket.  Because the cores share the microarchitectural
components and differ only in the scheduling loop, any mismatch localizes a
bug to one of FastCore's optimized paths (ring-buffer dataflow,
event-horizon jumps, slot interleaving, batched gap accounting, inlined
caches and predictor) or to the reference itself.

The sweep dimensions cover what the paper's experiments exercise: solo and
colocated runs, partitioned/shared ROB-LSQ with skewed splits, all three
fetch policies, private/shared L1s and branch predictor, prefetcher on/off,
and mid-run ``set_partitions`` mode switches (the drain path).
:func:`build_stress_cases` adds configurations aimed squarely at the
event-skipping machinery: back-to-back mode switches, compute-bound runs
whose idle gaps are all zero-length, measurement windows that open at cycle
0, and MSHR-starved memory-bound pairs that saturate the miss file.

Entry points: :func:`differential_sweep` (used by ``stretch-repro check``
and the CI smoke) and :func:`run_case`/:func:`compare_results` for tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.check.invariants import InvariantChecker
from repro.check.reference import ReferenceCore
from repro.cpu.config import CacheConfig, CoreConfig, PartitionPolicy
from repro.cpu.fast_core import FastCore
from repro.cpu.metrics import SimulationResult
from repro.obs.metrics import get_registry
from repro.workloads.generator import generate_trace
from repro.workloads.registry import all_profiles, get_profile

__all__ = [
    "DifferentialCase",
    "SweepReport",
    "build_cases",
    "build_stress_cases",
    "compare_results",
    "differential_sweep",
    "run_case",
]

#: ROB splits the sweep draws from (thread0, thread1); all sum to <= 192.
_ROB_SPLITS = ((96, 96), (56, 136), (136, 56), (32, 160), (160, 32), (64, 64))

#: Safety net so a pathological case fails loudly instead of hanging.
_MAX_CYCLES = 2_000_000


@dataclass(frozen=True)
class DifferentialCase:
    """One seeded configuration to push through both engines."""

    case_id: int
    workloads: tuple[str, ...]
    trace_seeds: tuple[int, ...]
    trace_length: int
    config: CoreConfig
    warmup: int
    measure: int
    require_all: bool
    #: Optional mid-run mode switch: (rob_limits, lsq_limits) applied via
    #: ``set_partitions`` between two measured windows (exercises the
    #: drain path).  Only generated for two-thread partitioned cases.
    mode_switch: tuple[tuple[int, int], tuple[int, int]] | None = None
    #: Further switches applied back-to-back after ``mode_switch``, each
    #: followed by its own measured window — stresses repeated drain/jump
    #: interleavings in the event-skipping path.
    extra_switches: tuple[tuple[tuple[int, int], tuple[int, int]], ...] = ()
    #: Label distinguishing stress families in reports (empty for the
    #: random sweep).
    tag: str = ""

    def describe(self) -> str:
        parts = [
            "+".join(self.workloads),
            f"rob={self.config.rob_limits}"
            if self.config.rob_policy is PartitionPolicy.PARTITIONED
            else "rob=shared",
            self.config.fetch_policy,
        ]
        if self.mode_switch is not None:
            parts.append(f"switch->{self.mode_switch[0]}")
        if self.extra_switches:
            parts.append(f"+{len(self.extra_switches)} switches")
        if self.tag:
            parts.append(f"[{self.tag}]")
        return f"case {self.case_id}: " + " ".join(parts)

    @property
    def switches(self) -> tuple[tuple[tuple[int, int], tuple[int, int]], ...]:
        """All mode switches in application order."""
        head = () if self.mode_switch is None else (self.mode_switch,)
        return head + self.extra_switches


@dataclass
class SweepReport:
    """Outcome of a differential sweep."""

    total: int = 0
    mismatches: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def passed(self) -> int:
        return self.total - len(self.mismatches) - len(self.errors)

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.errors

    def summary(self) -> str:
        return (
            f"{self.passed}/{self.total} cases bit-identical, "
            f"{len(self.mismatches)} mismatches, {len(self.errors)} errors"
        )


def build_cases(
    n: int, seed: int = 0, profiles: tuple[str, ...] | None = None
) -> list[DifferentialCase]:
    """Generate ``n`` seeded random configurations for the sweep."""
    rng = random.Random(seed)
    names = tuple(profiles) if profiles is not None else tuple(sorted(all_profiles()))
    cases = []
    for case_id in range(n):
        pair = rng.random() < 0.75
        workloads = tuple(rng.choice(names) for _ in range(2 if pair else 1))
        trace_seeds = tuple(rng.randrange(1 << 30) for _ in workloads)

        config = CoreConfig(
            fetch_policy=rng.choice(("icount", "icount", "round_robin", "ratio")),
            fetch_ratio=(1, rng.randint(1, 4)),
            private_l1i=rng.random() < 0.25,
            private_l1d=rng.random() < 0.25,
            private_bp=rng.random() < 0.25,
            enable_prefetcher=rng.random() < 0.75,
        )
        shared = pair and rng.random() < 0.15
        if shared:
            config = replace(config, rob_policy=PartitionPolicy.SHARED)
        else:
            config = config.with_rob_partition(*rng.choice(_ROB_SPLITS))

        mode_switch = None
        if pair and not shared and rng.random() < 0.2:
            rob = rng.choice(_ROB_SPLITS)
            switched = config.with_rob_partition(*rob)
            mode_switch = (switched.rob_limits, switched.lsq_limits)

        cases.append(
            DifferentialCase(
                case_id=case_id,
                workloads=workloads,
                trace_seeds=trace_seeds,
                trace_length=rng.randrange(2000, 5000),
                config=config,
                warmup=rng.choice((0, 200, 400)),
                measure=rng.randrange(200, 500),
                require_all=pair and rng.random() < 0.5,
                mode_switch=mode_switch,
            )
        )
    return cases


def build_stress_cases(seed: int = 0) -> list[DifferentialCase]:
    """Handcrafted configurations that stress the event-skipping machinery.

    Four families, each the worst case for one FastCore mechanism:

    * ``switch-storm`` — back-to-back ``set_partitions`` mode switches with
      short measured windows between them, so drains and jumps interleave.
    * ``no-idle`` — compute-bound pairs whose completions land every cycle:
      every candidate jump is zero-length and the loop must still step.
    * ``cycle0`` — no warmup and single-digit instruction budgets, so the
      measurement window opens at cycle 0 and the first completions land
      on the window edge.
    * ``mshr-sat`` — memory-bound pairs against a 2-entry MSHR file
      (1 per thread), forcing the structural-stall fallback path and
      maximum-occupancy gap accounting.
    """
    rng = random.Random(seed)
    cases = []

    def add(workloads, config, *, warmup, measure, require_all=True,
            mode_switch=None, extra_switches=(), tag="", trace_length=3000):
        cases.append(
            DifferentialCase(
                case_id=1000 + len(cases),
                workloads=workloads,
                trace_seeds=tuple(rng.randrange(1 << 30) for _ in workloads),
                trace_length=trace_length,
                config=config,
                warmup=warmup,
                measure=measure,
                require_all=require_all and len(workloads) == 2,
                mode_switch=mode_switch,
                extra_switches=extra_switches,
                tag=tag,
            )
        )

    # Back-to-back mode switches: drain, re-partition, drain again.
    splits = ((96, 96), (32, 160), (160, 32), (56, 136))
    for wl in (("mcf", "omnetpp"), ("web_search", "milc")):
        base = CoreConfig().with_rob_partition(*splits[0])
        seq = tuple(
            (CoreConfig().with_rob_partition(*s).rob_limits,
             CoreConfig().with_rob_partition(*s).lsq_limits)
            for s in splits[1:]
        )
        add(wl, base, warmup=150, measure=120, mode_switch=seq[0],
            extra_switches=seq[1:], tag="switch-storm")

    # Zero-length idle gaps: compute-bound, completions every cycle.
    for wl in (("namd", "gamess"), ("povray",), ("calculix", "gromacs")):
        add(wl, CoreConfig(), warmup=100, measure=400, tag="no-idle")

    # Cycle-0 completions: windows that open at cycle 0.
    for wl, measure in ((("mcf",), 1), (("mcf", "lbm"), 2),
                        (("web_search", "zeusmp"), 5)):
        add(wl, CoreConfig(), warmup=0, measure=measure, tag="cycle0")

    # MSHR saturation: memory-bound pairs vs a starved miss file.
    starved = replace(
        CoreConfig(),
        dcache=CacheConfig(mshrs=2, mshrs_per_thread=1),
        enable_prefetcher=False,
    )
    for wl in (("mcf", "mcf"), ("lbm", "milc"), ("mcf", "libquantum")):
        add(wl, starved, warmup=100, measure=250, tag="mshr-sat")
    # ... and one with a mode switch while the file is saturated.
    add(("mcf", "milc"), starved.with_rob_partition(56, 136),
        warmup=100, measure=200,
        mode_switch=(CoreConfig().with_rob_partition(160, 32).rob_limits,
                     CoreConfig().with_rob_partition(160, 32).lsq_limits),
        tag="mshr-sat")

    return cases


def compare_results(a: SimulationResult, b: SimulationResult) -> list[str]:
    """Field-by-field exact comparison; returns human-readable differences."""
    diffs = []
    if a.cycles != b.cycles:
        diffs.append(f"cycles: {a.cycles} != {b.cycles}")
    for x, y in zip(a.threads, b.threads):
        for name in x.__dataclass_fields__:
            va, vb = getattr(x, name), getattr(y, name)
            if va != vb:
                diffs.append(f"thread {x.thread} {name}: {va!r} != {vb!r}")
    return diffs


def _build_core(cls, case: DifferentialCase, check_invariants: bool):
    traces = tuple(
        generate_trace(get_profile(name), case.trace_length, seed=s)
        for name, s in zip(case.workloads, case.trace_seeds)
    )
    core = cls(case.config, traces)
    if check_invariants:
        core.checker = InvariantChecker()
    return core


#: Engine pair the sweep proves bit-identical: production loop, oracle.
_ENGINES = (("fast", FastCore), ("ref", ReferenceCore))


def run_case(
    case: DifferentialCase, check_invariants: bool = False
) -> list[str]:
    """Run one case through both cores; return the list of differences.

    Each difference is prefixed ``fast/ref`` and, for cases with mode
    switches, with the measurement window it appeared in.
    """
    diffs = []
    results = {}
    for key, cls in _ENGINES:
        core = _build_core(cls, case, check_invariants)
        windows = [
            core.run(
                case.measure,
                warmup_instructions=case.warmup,
                max_cycles=_MAX_CYCLES,
                require_all_threads=case.require_all,
            )
        ]
        for switch in case.switches:
            core.set_partitions(*switch)
            windows.append(
                core.run(
                    case.measure,
                    max_cycles=_MAX_CYCLES,
                    require_all_threads=case.require_all,
                )
            )
        results[key] = (windows, core.cycle)

    for (ka, _), (kb, _) in zip(_ENGINES, _ENGINES[1:]):
        windows_a, cycle_a = results[ka]
        windows_b, cycle_b = results[kb]
        for i, (ra, rb) in enumerate(zip(windows_a, windows_b)):
            for diff in compare_results(ra, rb):
                prefix = f"window {i} " if len(windows_a) > 1 else ""
                diffs.append(f"{ka}/{kb} {prefix}{diff}")
        if cycle_a != cycle_b:
            diffs.append(f"{ka}/{kb} final core cycle: {cycle_a} != {cycle_b}")
    return diffs


def differential_sweep(
    cases: list[DifferentialCase],
    check_invariants: bool = False,
    progress=None,
) -> SweepReport:
    """Run every case; report mismatches via the metrics registry and return."""
    registry = get_registry()
    ran = registry.counter("check.differential.cases")
    failed = registry.counter("check.differential.mismatches")
    report = SweepReport()
    for case in cases:
        report.total += 1
        ran.inc()
        try:
            diffs = run_case(case, check_invariants=check_invariants)
        except Exception as exc:  # noqa: BLE001 - survey must see every case
            failed.inc()
            report.errors.append(f"{case.describe()}: {type(exc).__name__}: {exc}")
            continue
        if diffs:
            failed.inc()
            report.mismatches.append(f"{case.describe()}: " + "; ".join(diffs))
        if progress is not None:
            progress(case, diffs)
    return report
