"""Set-associative caches and miss-status-holding registers (MSHRs).

Implements the L1-I / L1-D / LLC structures of the paper's Table II.  Caches
use true-LRU replacement; fills are timing-approximate (the line is installed
at access time, while the requester observes the computed fill latency).
The MSHR file bounds per-thread memory-level parallelism — 10 entries,
5 per thread, exactly the structure whose occupancy the paper's Fig. 7 MLP
study measures — and coalesces concurrent requests to the same block.
"""

from __future__ import annotations

from repro.cpu.config import CacheConfig

__all__ = ["SetAssociativeCache", "MSHRFile"]


class SetAssociativeCache:
    """A set-associative cache with true-LRU replacement.

    Operates on *block addresses* (byte address >> log2(line)).  Each set is
    an ordered list with the MRU block at the end.
    """

    def __init__(self, size_bytes: int, line_bytes: int, ways: int, name: str = "cache"):
        if size_bytes % (line_bytes * ways):
            raise ValueError(
                f"{name}: size {size_bytes} not divisible by line*ways "
                f"({line_bytes}*{ways})"
            )
        self.name = name
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = size_bytes // (line_bytes * ways)
        if self.num_sets & (self.num_sets - 1):
            raise ValueError(f"{name}: number of sets must be a power of two")
        self._set_mask = self.num_sets - 1
        self._sets: list[list[int]] = [[] for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0

    @classmethod
    def from_config(cls, config: CacheConfig, name: str = "cache") -> "SetAssociativeCache":
        return cls(config.size_bytes, config.line_bytes, config.ways, name=name)

    def access(self, block: int) -> bool:
        """Access ``block``; returns True on hit.  Misses install the line."""
        entries = self._sets[block & self._set_mask]
        try:
            entries.remove(block)
        except ValueError:
            self.misses += 1
            if len(entries) >= self.ways:
                del entries[0]
            entries.append(block)
            return False
        self.hits += 1
        entries.append(block)
        return True

    def fill(self, block: int) -> None:
        """Install ``block`` without counting an access (prefetch fills).

        The block moves to (or is appended at) its set's MRU end, then the
        set's LRU entry is evicted if the set overflowed.
        """
        entries = self._sets[block & self._set_mask]
        if block in entries:
            entries.remove(block)
        entries.append(block)
        if len(entries) > self.ways:
            del entries[0]

    def fill_many(self, blocks) -> None:
        """:meth:`fill` each of ``blocks``, in order (checkpoint warming)."""
        fill = self.fill
        for block in blocks:
            fill(block)

    def probe(self, block: int) -> bool:
        """Check residency without perturbing LRU state or statistics."""
        return block in self._sets[block & self._set_mask]

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def reset_stats(self) -> None:
        """Zero counters, keeping cache contents (warmup boundary)."""
        self.hits = 0
        self.misses = 0

    def occupancy(self) -> int:
        """Number of valid lines (for tests / diagnostics)."""
        return sum(len(s) for s in self._sets)


class MSHRFile:
    """Miss-status holding registers with per-thread quotas and coalescing.

    ``acquire`` registers a miss issued at ``now`` that will fill at
    ``now + latency`` (or later, if the thread's MSHR quota is exhausted —
    the request then waits for the earliest in-flight fill to retire, which
    is exactly how a structural MSHR stall backs up a real pipeline).
    Requests to a block already in flight coalesce onto the existing entry.
    """

    def __init__(self, total: int, per_thread: int, n_threads: int = 2):
        if per_thread > total:
            raise ValueError("per-thread MSHR quota exceeds file capacity")
        if total <= 0 or per_thread <= 0:
            raise ValueError("MSHR counts must be positive")
        self.total = total
        self.per_thread = per_thread
        self.n_threads = n_threads
        # In-flight fills: per-thread {block: fill_cycle}.
        self._inflight: list[dict[int, int]] = [dict() for _ in range(n_threads)]
        self.coalesced = [0] * n_threads
        self.stalls = [0] * n_threads

    def _expire(self, thread: int, now: int) -> None:
        table = self._inflight[thread]
        if table:
            done = [b for b, fill in table.items() if fill <= now]
            for b in done:
                del table[b]

    def occupancy(self, thread: int, now: int) -> int:
        """Number of this thread's misses in flight at ``now`` (MLP metric)."""
        self._expire(thread, now)
        return len(self._inflight[thread])

    def occupancy_segments(
        self, thread: int, start: int, end: int
    ) -> list[tuple[int, int]]:
        """Piecewise-constant occupancy over ``[start, end)``.

        Returns ``(cycles, occupancy)`` spans whose lengths sum to
        ``end - start``, splitting at every fill that retires inside the
        window.  This is what lets the core's idle fast-forward account MLP
        per cycle exactly as a cycle-by-cycle loop would, instead of
        weighting the occupancy at ``start`` by the whole gap.
        """
        if end <= start:
            return []
        self._expire(thread, start)
        fills = sorted(self._inflight[thread].values())
        occupancy = len(fills)
        prev = start
        segments: list[tuple[int, int]] = []
        for fill in fills:
            if fill >= end:
                break
            if fill > prev:
                segments.append((fill - prev, occupancy))
                prev = fill
            occupancy -= 1
        if end > prev:
            segments.append((end - prev, occupancy))
        return segments

    def total_occupancy(self, now: int) -> int:
        return sum(self.occupancy(t, now) for t in range(self.n_threads))

    def acquire(self, thread: int, block: int, now: int, latency: int) -> int:
        """Register a miss; return the cycle at which the fill completes."""
        self._expire(thread, now)
        table = self._inflight[thread]
        existing = table.get(block)
        if existing is not None:
            self.coalesced[thread] += 1
            return existing
        start = now
        # Structural stall: wait for the earliest fill if quota or file is full.
        while (
            len(table) >= self.per_thread
            or sum(len(d) for d in self._inflight) >= self.total
        ):
            earliest = min(
                min(d.values()) for d in self._inflight if d
            )
            start = max(start, earliest)
            for t in range(self.n_threads):
                self._expire(t, start)
            self.stalls[thread] += 1
        fill = start + latency
        table[block] = fill
        return fill

    def reset_stats(self) -> None:
        self.coalesced = [0] * self.n_threads
        self.stalls = [0] * self.n_threads
