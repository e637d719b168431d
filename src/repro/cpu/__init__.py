"""SMT out-of-order core timing simulator substrate.

This package implements the simulated processor of the paper's Table II:
a dual-thread, 6-wide out-of-order SPARC-like core at 2.5 GHz with

* ICOUNT fetch/dispatch thread selection (Tullsen et al.),
* a 192-entry ROB and 64-entry LSQ, partitionable between threads via
  per-thread limit/usage registers (the hardware Stretch builds on),
* 64 KB 8-way banked L1-I and L1-D caches with 10 MSHRs and a
  PC-indexed stride prefetcher,
* a hybrid 16K-gShare + 4K-bimodal branch predictor with a 2K-entry BTB
  and per-thread return-address stacks and history registers,
* an 8 MB NUCA LLC (partitioned per thread, as in the paper) over a mesh,
  backed by 75 ns memory.

Timing is cycle-approximate: a global per-cycle loop arbitrates fetch/dispatch
slots and commit bandwidth, while instruction completion is computed from the
dependency dataflow plus structural constraints (ROB/LSQ occupancy, MSHRs,
functional-unit throughput).  See DESIGN.md §4 for the model and its known
deviations from the paper's Flexus setup.
"""

from repro.cpu.config import (
    BranchPredictorConfig,
    CacheConfig,
    CoreConfig,
    PartitionPolicy,
    UncoreConfig,
)
from repro.cpu.fast_core import FastCore
from repro.cpu.isa import OpClass
from repro.cpu.metrics import SimulationResult, ThreadResult

# NOTE: repro.cpu.sampling is intentionally not re-exported here: it depends
# on repro.workloads, which itself imports repro.cpu (trace/isa definitions).
# Import it as `from repro.cpu.sampling import ...`.

__all__ = [
    "BranchPredictorConfig",
    "CacheConfig",
    "CoreConfig",
    "PartitionPolicy",
    "UncoreConfig",
    "OpClass",
    "FastCore",
    "SimulationResult",
    "ThreadResult",
]
