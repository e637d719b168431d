"""Memory hierarchy: L1-I / L1-D, LLC partitions, and main memory.

Combines the cache structures into per-access latency computations for the
core.  Key modeling choices mirror the paper:

* **L1 caches are dynamically shared** between hardware threads in the SMT
  baseline (any thread can allocate any entry) and can be made private for
  the per-resource contention studies (Figs. 4-5) and the ideal
  software-scheduling study (Fig. 13).
* **The LLC is partitioned per application** (Intel CAT-style), so LLC
  capacity contention never pollutes the results — each hardware thread owns
  a private half of the 8 MB NUCA cache with the 28-cycle average access
  latency of Table II.
* **Memory** is a flat 75 ns (≈188 cycles at 2.5 GHz) behind the LLC.
* Thread address spaces are disjoint (distinct tag bits) but *index into the
  same shared L1 sets*, producing genuine capacity/conflict contention.
"""

from __future__ import annotations

import numpy as np

from repro.cpu.caches import MSHRFile, SetAssociativeCache
from repro.cpu.config import CoreConfig
from repro.cpu.prefetcher import StridePrefetcher

__all__ = ["MemoryHierarchy"]

#: Shift applied to fold the thread id into the physical block address so the
#: two threads' working sets are distinct yet contend for the same L1 sets.
_THREAD_TAG_SHIFT = 44


class MemoryHierarchy:
    """Per-core memory system shared by both hardware threads."""

    def __init__(self, config: CoreConfig, n_threads: int = 2):
        self.config = config
        self.n_threads = n_threads
        line = config.dcache.line_bytes
        self.line_bytes = line
        self._block_shift = line.bit_length() - 1

        def l1d() -> SetAssociativeCache:
            return SetAssociativeCache(
                config.dcache.size_bytes, line, config.dcache.ways, name="L1-D"
            )

        def l1i() -> SetAssociativeCache:
            return SetAssociativeCache(
                config.icache.size_bytes, config.icache.line_bytes,
                config.icache.ways, name="L1-I",
            )

        if config.private_l1d:
            self.l1d = [l1d() for _ in range(n_threads)]
        else:
            shared_d = l1d()
            self.l1d = [shared_d] * n_threads
        if config.private_l1i:
            self.l1i = [l1i() for _ in range(n_threads)]
        else:
            shared_i = l1i()
            self.l1i = [shared_i] * n_threads

        if config.uncore.llc_partitioned:
            # Private LLC partition per thread (half of the 8 MB NUCA cache),
            # the paper's CAT-style idealization.
            llc_partition = config.uncore.llc_size_bytes // n_threads
            self.llc = [
                SetAssociativeCache(llc_partition, line, config.uncore.llc_ways,
                                    name="LLC")
                for _ in range(n_threads)
            ]
        else:
            # Fully shared LLC: both threads contend for the whole capacity
            # (used to quantify the idealization, not by paper experiments).
            shared_llc = SetAssociativeCache(
                config.uncore.llc_size_bytes, line, config.uncore.llc_ways,
                name="LLC",
            )
            self.llc = [shared_llc] * n_threads

        self.mshrs = MSHRFile(
            config.dcache.mshrs, config.dcache.mshrs_per_thread, n_threads
        )
        self.prefetch_enabled = config.enable_prefetcher
        self.prefetchers = [StridePrefetcher(line_bytes=line) for _ in range(n_threads)]

        self.l1_hit_latency = config.dcache.hit_latency
        self.llc_latency = config.uncore.llc_latency
        self.memory_latency = config.uncore.memory_latency_cycles

        self.l1d_misses = [0] * n_threads
        self.l1i_misses = [0] * n_threads
        self.loads = [0] * n_threads
        self.stores = [0] * n_threads

    # ------------------------------------------------------------------

    def _block(self, thread: int, addr: int) -> int:
        return (addr >> self._block_shift) | (thread << (_THREAD_TAG_SHIFT - self._block_shift))

    def blocks(self, thread: int, addrs: np.ndarray) -> list[int]:
        """:meth:`_block` of each byte address in ``addrs`` (vectorized)."""
        shift = self._block_shift
        return ((addrs >> shift) | (thread << (_THREAD_TAG_SHIFT - shift))).tolist()

    def _miss_latency(self, thread: int, block: int) -> int:
        """Latency beyond L1 for a block, filling the LLC partition."""
        if self.llc[thread].access(block):
            return self.llc_latency
        return self.llc_latency + self.memory_latency

    def load(self, thread: int, pf_key: int, addr: int, issue_cycle: int) -> tuple[int, bool]:
        """Perform a load access issued at ``issue_cycle``.

        ``pf_key`` identifies the accessing static instruction for the stride
        prefetcher (the PC, or a synthetic stream handle for stream accesses).
        Returns ``(total latency in cycles, was L1-D miss)``.  Misses consume
        an MSHR; a full MSHR quota delays the fill (structural stall).
        """
        self.loads[thread] += 1
        block = self._block(thread, addr)
        cache = self.l1d[thread]
        hit = cache.access(block)
        if pf_key < 0:  # stream handle: trackable by the PC-indexed RPT
            self._train_prefetcher(thread, pf_key, addr)
        if hit:
            return self.l1_hit_latency, False
        self.l1d_misses[thread] += 1
        latency = self._miss_latency(thread, block)
        fill = self.mshrs.acquire(thread, block, issue_cycle, latency)
        return (fill - issue_cycle) + self.l1_hit_latency, True

    def _train_prefetcher(self, thread: int, pf_key: int, addr: int) -> None:
        """Train the stride prefetcher and apply its fills.

        Only stream-tagged accesses train the table: the synthetic traces
        give irregular accesses effectively unique PCs, which would thrash
        the 32-entry reference-prediction table in a way real (static,
        recurring) load PCs do not.  This models an RPT with an allocation
        filter; see DESIGN.md deviations.
        """
        if not self.prefetch_enabled:
            return
        cache = self.l1d[thread]
        for pf_block in self.prefetchers[thread].train(pf_key, addr):
            tagged = pf_block | (thread << (_THREAD_TAG_SHIFT - self._block_shift))
            if not cache.probe(tagged):
                self._miss_latency(thread, tagged)  # fetch through the LLC path
                cache.fill(tagged)

    def store(self, thread: int, pf_key: int, addr: int, issue_cycle: int) -> bool:
        """Perform a store (write-allocate; latency hidden by the store buffer).

        Returns True if the store missed L1-D.  Store misses still allocate
        lines (capacity pressure — lbm's streaming stores) but do not consume
        MSHRs or stall the pipeline; the drain happens post-commit.
        """
        self.stores[thread] += 1
        block = self._block(thread, addr)
        cache = self.l1d[thread]
        hit = cache.access(block)
        if pf_key < 0:
            self._train_prefetcher(thread, pf_key, addr)
        if hit:
            return False
        self.l1d_misses[thread] += 1
        self._miss_latency(thread, block)
        return True

    def fetch_block(self, thread: int, pc: int) -> int:
        """Access the L1-I for the block containing ``pc``.

        Returns the extra front-end delay in cycles (0 on hit).
        """
        block = self._block(thread, pc)
        if self.l1i[thread].access(block):
            return 0
        self.l1i_misses[thread] += 1
        return self._miss_latency(thread, block)

    # ------------------------------------------------------------------
    # Checkpoint warming (SimFlex-style): install lines without statistics.
    # ------------------------------------------------------------------

    def install_data(self, thread: int, addr: int, l1: bool = False) -> None:
        """Install a data line into the thread's LLC partition (and L1-D)."""
        block = self._block(thread, addr)
        self.llc[thread].fill(block)
        if l1:
            self.l1d[thread].fill(block)

    def install_code(self, thread: int, pc: int, l1: bool = False) -> None:
        """Install a code line into the thread's LLC partition (and L1-I)."""
        block = self._block(thread, pc)
        self.llc[thread].fill(block)
        if l1:
            self.l1i[thread].fill(block)

    # ------------------------------------------------------------------

    def mlp_occupancy(self, thread: int, now: int) -> int:
        """In-flight data misses for ``thread`` (distinct blocks, per Fig. 7)."""
        return self.mshrs.occupancy(thread, now)

    def reset_stats(self) -> None:
        """Zero all statistics, preserving cache/predictor state (warmup)."""
        seen: set[int] = set()
        for group in (self.l1d, self.l1i, self.llc):
            for cache in group:
                if id(cache) not in seen:
                    cache.reset_stats()
                    seen.add(id(cache))
        self.mshrs.reset_stats()
        for pf in self.prefetchers:
            pf.reset_stats()
        self.l1d_misses = [0] * self.n_threads
        self.l1i_misses = [0] * self.n_threads
        self.loads = [0] * self.n_threads
        self.stores = [0] * self.n_threads
