"""Simulated processor configuration (paper Table II).

All structure sizes and latencies default to the values the paper simulates:
a 6-wide dual-thread core at 2.5 GHz with a 192-entry ROB, 64-entry LSQ,
64 KB L1 caches, a hybrid gShare/bimodal predictor, an 8 MB NUCA LLC and
75 ns memory.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

__all__ = [
    "PartitionPolicy",
    "CacheConfig",
    "BranchPredictorConfig",
    "UncoreConfig",
    "CoreConfig",
]


class PartitionPolicy(enum.Enum):
    """How a back-end structure (ROB, LSQ) is divided between hardware threads.

    ``PARTITIONED`` models Intel-style static partitioning with per-thread
    limit registers — the substrate Stretch reprograms.  ``SHARED`` models a
    dynamically shared structure where any thread may occupy any entry
    (evaluated as a baseline in the paper's Fig. 11).
    """

    PARTITIONED = "partitioned"
    SHARED = "shared"


@dataclass(frozen=True)
class CacheConfig:
    """A set-associative cache with banking and optional MSHRs."""

    size_bytes: int = 64 * 1024
    line_bytes: int = 64
    ways: int = 8
    banks: int = 2
    hit_latency: int = 2
    mshrs: int = 10
    mshrs_per_thread: int = 5

    def __post_init__(self) -> None:
        if self.size_bytes % (self.line_bytes * self.ways * self.banks):
            raise ValueError(
                f"cache geometry does not divide evenly: size={self.size_bytes} "
                f"line={self.line_bytes} ways={self.ways} banks={self.banks}"
            )
        if self.mshrs_per_thread > self.mshrs:
            raise ValueError("per-thread MSHR quota exceeds total MSHRs")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.ways)


@dataclass(frozen=True)
class BranchPredictorConfig:
    """Hybrid predictor: 16K-entry gShare + 4K-entry bimodal, 2K-entry BTB."""

    gshare_entries: int = 16 * 1024
    bimodal_entries: int = 4 * 1024
    chooser_entries: int = 4 * 1024
    btb_entries: int = 2 * 1024
    history_bits: int = 12
    ras_entries: int = 16

    def __post_init__(self) -> None:
        for name in ("gshare_entries", "bimodal_entries", "chooser_entries", "btb_entries"):
            value = getattr(self, name)
            if value <= 0 or value & (value - 1):
                raise ValueError(f"{name} must be a positive power of two, got {value}")


@dataclass(frozen=True)
class UncoreConfig:
    """LLC + NoC + memory model.

    The paper partitions the 8 MB NUCA LLC between the colocated applications
    (via Intel CAT-style way partitioning) to isolate the study from LLC
    contention; ``llc_partitioned=True`` (the default) models the same by
    giving each hardware thread a private half of the LLC.  Setting it to
    False models a fully shared LLC instead — used by the ablation that
    quantifies how much the paper's idealization hides.  The average LLC
    access latency of 28 cycles already includes the mesh traversal.
    """

    llc_size_bytes: int = 8 * 1024 * 1024
    llc_ways: int = 16
    llc_latency: int = 28
    llc_partitioned: bool = True
    memory_latency_ns: float = 75.0
    frequency_ghz: float = 2.5

    @property
    def memory_latency_cycles(self) -> int:
        return int(math.ceil(self.memory_latency_ns * self.frequency_ghz))


@dataclass(frozen=True)
class CoreConfig:
    """Full simulated-core configuration (defaults reproduce paper Table II)."""

    width: int = 6
    rob_entries: int = 192
    lsq_entries: int = 64
    rob_limits: tuple[int, int] = (96, 96)
    lsq_limits: tuple[int, int] = (32, 32)
    rob_policy: PartitionPolicy = PartitionPolicy.PARTITIONED
    pipeline_flush_cycles: int = 12
    fetch_policy: str = "icount"
    fetch_ratio: tuple[int, int] = (1, 1)
    int_alus: int = 4
    int_muls: int = 2
    fpus: int = 3
    lsus: int = 2
    max_branches_per_fetch: int = 1
    icache: CacheConfig = field(default_factory=CacheConfig)
    dcache: CacheConfig = field(default_factory=lambda: CacheConfig(mshrs=10, mshrs_per_thread=5))
    branch: BranchPredictorConfig = field(default_factory=BranchPredictorConfig)
    uncore: UncoreConfig = field(default_factory=UncoreConfig)
    #: Give each hardware thread a private copy of a normally shared
    #: structure.  Used by the per-resource contention studies (Figs. 4-5)
    #: and the ideal-software-scheduling baseline (Fig. 13).
    private_l1i: bool = False
    private_l1d: bool = False
    private_bp: bool = False
    #: Stride prefetching at the L1-D (Table II); disable for ablations.
    enable_prefetcher: bool = True

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError("core width must be positive")
        if any(l > self.rob_entries for l in self.rob_limits):
            raise ValueError(
                f"a ROB limit register in {self.rob_limits} exceeds capacity {self.rob_entries}"
            )
        if any(l > self.lsq_entries for l in self.lsq_limits):
            raise ValueError(
                f"an LSQ limit register in {self.lsq_limits} exceeds capacity {self.lsq_entries}"
            )
        if any(l <= 0 for l in self.rob_limits) or any(l <= 0 for l in self.lsq_limits):
            raise ValueError("per-thread limits must be positive")
        if self.fetch_policy not in ("icount", "ratio", "round_robin"):
            raise ValueError(f"unknown fetch policy {self.fetch_policy!r}")
        if self.fetch_ratio[0] <= 0 or self.fetch_ratio[1] <= 0:
            raise ValueError("fetch ratio terms must be positive")

    def with_rob_partition(self, thread0: int, thread1: int) -> "CoreConfig":
        """Return a copy with an N-M ROB split; the LSQ scales proportionally.

        The paper manages the LSQ "in proportion to the ROB" (§IV footnote),
        so a 56-136 ROB skew yields a floor-proportional LSQ split whose
        halves always sum to at most the LSQ capacity.
        """
        if thread0 + thread1 > self.rob_entries:
            raise ValueError(
                f"partition {thread0}+{thread1} exceeds ROB capacity {self.rob_entries}"
            )
        lsq0 = max(1, (thread0 * self.lsq_entries) // self.rob_entries)
        lsq1 = max(1, (thread1 * self.lsq_entries) // self.rob_entries)
        return replace(
            self,
            rob_limits=(thread0, thread1),
            lsq_limits=(lsq0, lsq1),
            rob_policy=PartitionPolicy.PARTITIONED,
        )

    def single_thread(self, rob_entries: int | None = None) -> "CoreConfig":
        """Configuration for an isolated (non-SMT) run with the full machine.

        Used by the paper's ROB-sensitivity study (Fig. 6), which varies the
        ROB of an isolated core from 16 to 192 entries.
        """
        rob = self.rob_entries if rob_entries is None else rob_entries
        if not 1 <= rob <= self.rob_entries:
            raise ValueError(f"single-thread ROB must be in [1, {self.rob_entries}]")
        lsq = max(1, (rob * self.lsq_entries) // self.rob_entries)
        return replace(
            self,
            rob_limits=(rob, 1),
            lsq_limits=(lsq, 1),
            rob_policy=PartitionPolicy.PARTITIONED,
        )
