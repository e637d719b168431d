"""Property-based tests for cache and MSHR invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.caches import MSHRFile, SetAssociativeCache

blocks = st.integers(min_value=0, max_value=4096)


def evict_first_fill(cache: SetAssociativeCache, block: int) -> None:
    """The earlier ``fill``: evict the LRU entry *before* appending a
    missing block, found by catching ``list.remove``'s ValueError
    (test-only oracle)."""
    entries = cache._sets[block & cache._set_mask]
    try:
        entries.remove(block)
    except ValueError:
        if len(entries) >= cache.ways:
            del entries[0]
    entries.append(block)


class TestCacheProperties:
    @given(st.lists(blocks, min_size=1, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, accesses):
        cache = SetAssociativeCache(64 * 2 * 4, 64, 2)  # 2-way, 4 sets
        for block in accesses:
            cache.access(block)
        assert cache.occupancy() <= 2 * 4

    @given(st.lists(blocks, min_size=1, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_hits_plus_misses_equals_accesses(self, accesses):
        cache = SetAssociativeCache(64 * 2 * 4, 64, 2)
        for block in accesses:
            cache.access(block)
        assert cache.hits + cache.misses == len(accesses)

    @given(st.lists(blocks, min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_immediate_reaccess_always_hits(self, accesses):
        cache = SetAssociativeCache(64 * 4 * 8, 64, 4)
        for block in accesses:
            cache.access(block)
            assert cache.access(block) is True

    @given(st.lists(blocks, min_size=1, max_size=200), blocks)
    @settings(max_examples=60, deadline=None)
    def test_probe_agrees_with_access_hit(self, accesses, probe_block):
        cache = SetAssociativeCache(64 * 2 * 4, 64, 2)
        for block in accesses:
            cache.access(block)
        resident = cache.probe(probe_block)
        assert cache.access(probe_block) is resident

    @given(st.lists(blocks, min_size=1, max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_direct_mapped_most_recent_resident(self, accesses):
        cache = SetAssociativeCache(64 * 1 * 8, 64, 1)  # direct-mapped
        for block in accesses:
            cache.access(block)
        assert cache.probe(accesses[-1])


    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=40), max_size=120),
        st.lists(st.integers(min_value=0, max_value=40), max_size=120),
        st.sampled_from([1, 2, 16]),
    )
    def test_fill_and_fill_many_match_evict_first_fill(self, prefill, fills, ways):
        # Four sets, a block domain small enough to repeat blocks and
        # overflow sets; ``prefill`` leaves the sets non-empty first.
        oracle, one, bulk = (SetAssociativeCache(4 * ways * 64, 64, ways)
                             for _ in range(3))
        for cache in (oracle, one, bulk):
            for block in prefill:
                cache.access(block)
        for block in fills:
            evict_first_fill(oracle, block)
            one.fill(block)
        bulk.fill_many(fills)
        assert one._sets == oracle._sets
        assert bulk._sets == oracle._sets
        assert (bulk.hits, bulk.misses) == (one.hits, one.misses) == (
            oracle.hits, oracle.misses)


class TestMSHRProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 1), st.integers(0, 30), st.integers(0, 500)
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_fill_never_before_issue_plus_latency(self, requests):
        m = MSHRFile(10, 5)
        now = 0
        for thread, block, gap in requests:
            now += gap
            fill = m.acquire(thread, block, now, latency=100)
            assert fill >= now  # coalesced fills may complete sooner than +100

    @given(
        st.lists(st.tuples(st.integers(0, 1), st.integers(0, 8)), min_size=1,
                 max_size=40)
    )
    @settings(max_examples=60, deadline=None)
    def test_occupancy_bounded_by_quota(self, requests):
        m = MSHRFile(10, 5)
        for thread, block in requests:
            m.acquire(thread, block, now=0, latency=10**6)
            assert m.occupancy(thread, 0) <= 5
            assert m.total_occupancy(0) <= 10
