"""Metamorphic relations derived from the paper's model (§IV-§VI).

Differential testing catches divergence between two implementations, but
both could share a conceptual bug.  Metamorphic relations are a third,
implementation-independent oracle: statements about how the *output must
move* when the *input is perturbed*, derived from the paper's argument
rather than from any simulator:

* **ROB monotonicity** (Fig. 6): growing an isolated thread's ROB
  partition never lowers its UIPC — a larger window can only expose more
  ILP/MLP.
* **Co-runner direction** (§III): adding a co-runner to the sibling
  hardware thread can never *increase* the primary's UIPC, with the
  primary's own partitions held fixed.  (Checked with a private branch
  predictor: a shared gshare can constructively alias between threads,
  which is interference in the opposite direction, not a model bug.)
* **Mode ordering** (§IV): for the same colocation, the primary's UIPC is
  ordered S-mode ≥ balanced ≥ B-mode — Stretch mode grows the primary's
  partition at the expense of the batch thread, never the reverse.

Each relation runs a handful of simulations and returns a
:class:`RelationReport`; :func:`run_metamorphic_suite` bundles them for
``stretch-repro check --metamorphic`` and the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cpu.config import CoreConfig
from repro.cpu.fast_core import FastCore
from repro.workloads.generator import generate_trace
from repro.workloads.registry import get_profile

__all__ = [
    "RelationReport",
    "check_corunner_never_helps",
    "check_mode_ordering",
    "check_rob_monotonicity",
    "run_metamorphic_suite",
]

#: Stretch operating points (§IV): primary-favoring, balanced, batch-favoring.
_S_MODE = (136, 56)
_BALANCED = (96, 96)
_B_MODE = (56, 136)


@dataclass
class RelationReport:
    """Outcome of one metamorphic relation check."""

    name: str
    holds: bool
    observations: list[str] = field(default_factory=list)

    def summary(self) -> str:
        status = "holds" if self.holds else "VIOLATED"
        return f"{self.name}: {status}" + (
            f" ({'; '.join(self.observations)})" if self.observations else ""
        )


def _uipc(
    config: CoreConfig,
    workloads: tuple[str, ...],
    seeds: tuple[int, ...],
    length: int,
    warmup: int,
    measure: int,
) -> tuple[float, ...]:
    traces = tuple(
        generate_trace(get_profile(name), length, seed=s)
        for name, s in zip(workloads, seeds)
    )
    core = FastCore(config, traces)
    # Fixed-work windows (require_all_threads): every thread commits exactly
    # ``measure`` µops, so each relation compares the same region of the
    # primary's trace across configurations.  A first-to-finish window keyed
    # to a fast co-runner would compare incommensurable slices instead.
    result = core.run(
        measure, warmup_instructions=warmup, max_cycles=20_000_000,
        require_all_threads=True,
    )
    return tuple(t.uipc for t in result.threads)


def check_rob_monotonicity(
    workload: str = "web_search",
    rob_sizes: tuple[int, ...] = (16, 32, 64, 128, 192),
    seed: int = 7,
    length: int = 6000,
    warmup: int = 2000,
    measure: int = 4000,
    tolerance: float = 0.02,
) -> RelationReport:
    """Growing an isolated thread's ROB partition never lowers its UIPC.

    ``tolerance`` allows a small relative dip: sampling noise (the window
    closes at an instruction count, not a phase boundary) can produce
    sub-percent wiggles without indicating a model bug.
    """
    report = RelationReport("rob_monotonicity", holds=True)
    prev = None
    for rob in rob_sizes:
        config = CoreConfig().single_thread(rob)
        uipc = _uipc(config, (workload,), (seed,), length, warmup, measure)[0]
        report.observations.append(f"rob={rob}: uipc={uipc:.4f}")
        if prev is not None and uipc < prev * (1.0 - tolerance):
            report.holds = False
            report.observations.append(
                f"uipc dropped {prev:.4f} -> {uipc:.4f} when ROB grew to {rob}"
            )
        prev = max(prev, uipc) if prev is not None else uipc
    return report


def check_corunner_never_helps(
    primary: str = "web_search",
    corunner: str = "zeusmp",
    seed: int = 7,
    length: int = 6000,
    warmup: int = 2000,
    measure: int = 4000,
    tolerance: float = 0.0,
) -> RelationReport:
    """A co-runner can never increase the primary's UIPC (§III).

    The primary keeps identical partitions in both runs; only the sibling
    thread's occupancy changes.  Uses a private branch predictor — with a
    shared gshare, cross-thread aliasing can accidentally *train* the
    primary's branches, which is real SMT behavior but not a directional
    guarantee.
    """
    config = CoreConfig(private_bp=True).with_rob_partition(96, 96)
    solo = _uipc(config, (primary,), (seed,), length, warmup, measure)[0]
    pair = _uipc(
        config, (primary, corunner), (seed, seed + 1), length, warmup, measure
    )[0]
    holds = pair <= solo * (1.0 + tolerance)
    return RelationReport(
        "corunner_never_helps",
        holds=holds,
        observations=[f"solo uipc={solo:.4f}", f"colocated uipc={pair:.4f}"],
    )


def check_mode_ordering(
    primary: str = "web_search",
    corunner: str = "zeusmp",
    seed: int = 7,
    length: int = 6000,
    warmup: int = 2000,
    measure: int = 4000,
    tolerance: float = 0.02,
) -> RelationReport:
    """Primary UIPC is ordered S-mode >= balanced >= B-mode (§IV)."""
    report = RelationReport("mode_ordering", holds=True)
    uipcs = {}
    for name, split in (("S", _S_MODE), ("balanced", _BALANCED), ("B", _B_MODE)):
        config = CoreConfig(private_bp=True).with_rob_partition(*split)
        uipcs[name] = _uipc(
            config, (primary, corunner), (seed, seed + 1), length, warmup, measure
        )[0]
        report.observations.append(f"{name}{split}: uipc={uipcs[name]:.4f}")
    if uipcs["S"] < uipcs["balanced"] * (1.0 - tolerance):
        report.holds = False
        report.observations.append("S-mode below balanced")
    if uipcs["balanced"] < uipcs["B"] * (1.0 - tolerance):
        report.holds = False
        report.observations.append("balanced below B-mode")
    return report


def run_metamorphic_suite(seed: int = 7) -> list[RelationReport]:
    """Run every relation with default workloads; returns all reports."""
    return [
        check_rob_monotonicity(seed=seed),
        check_corunner_never_helps(seed=seed),
        check_mode_ordering(seed=seed),
    ]
