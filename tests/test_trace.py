"""Tests for the trace representation and cursor."""

import numpy as np
import pytest

from repro.cpu.isa import OpClass
from repro.cpu.trace import _COLUMNS, CHUNK, Trace, TraceCursor


def make_trace(n=8, **overrides) -> Trace:
    columns = dict(
        name="t",
        op=np.full(n, OpClass.INT_ALU, dtype=np.uint8),
        dep1=np.zeros(n, dtype=np.int64),
        dep2=np.zeros(n, dtype=np.int64),
        pc=np.arange(n, dtype=np.int64) * 4,
        addr=np.zeros(n, dtype=np.int64),
        taken=np.zeros(n, dtype=bool),
        target=np.zeros(n, dtype=np.int64),
        sid=np.zeros(n, dtype=np.int64),
    )
    columns.update(overrides)
    return Trace(**columns)


class TestTrace:
    def test_len(self):
        assert len(make_trace(5)) == 5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_trace(0)

    def test_column_length_mismatch(self):
        with pytest.raises(ValueError, match="dep1"):
            make_trace(4, dep1=np.zeros(3, dtype=np.int64))

    def test_mix_sums_to_one(self):
        trace = make_trace(10)
        assert sum(trace.mix.values()) == pytest.approx(1.0)

    def test_mix_counts(self):
        op = np.array([OpClass.LOAD, OpClass.LOAD, OpClass.STORE, OpClass.INT_ALU],
                      dtype=np.uint8)
        trace = make_trace(4, op=op,
                           addr=np.array([8, 16, 24, 0], dtype=np.int64))
        assert trace.mix[OpClass.LOAD] == pytest.approx(0.5)

    def test_validate_ok(self):
        make_trace(6).validate()

    def test_validate_dep_before_start(self):
        dep = np.zeros(4, dtype=np.int64)
        dep[0] = 1  # µop 0 cannot depend on µop -1
        with pytest.raises(ValueError, match="before the trace start"):
            make_trace(4, dep1=dep).validate()

    def test_validate_negative_dep(self):
        dep = np.zeros(4, dtype=np.int64)
        dep[2] = -1
        with pytest.raises(ValueError, match="non-negative"):
            make_trace(4, dep1=dep).validate()

    def test_validate_addr_on_non_mem(self):
        addr = np.zeros(4, dtype=np.int64)
        addr[1] = 64  # INT_ALU with an address
        with pytest.raises(ValueError, match="addr"):
            make_trace(4, addr=addr).validate()

    def test_validate_sid_on_non_mem(self):
        sid = np.zeros(4, dtype=np.int64)
        sid[1] = 2
        with pytest.raises(ValueError, match="sid"):
            make_trace(4, sid=sid).validate()

    def test_validate_bad_opclass(self):
        op = np.full(4, 17, dtype=np.uint8)
        with pytest.raises(ValueError, match="op class"):
            make_trace(4, op=op).validate()


class TestTraceCursor:
    def test_sequential_advance(self):
        cursor = TraceCursor(make_trace(4))
        assert [cursor.advance() for _ in range(4)] == [0, 1, 2, 3]

    def test_wraps_cyclically(self):
        cursor = TraceCursor(make_trace(3))
        indices = [cursor.advance() for _ in range(7)]
        assert indices == [0, 1, 2, 0, 1, 2, 0]
        assert cursor.consumed == 7

    def test_start_offset(self):
        cursor = TraceCursor(make_trace(4), start=2)
        assert cursor.advance() == 2

    def test_start_offset_wraps(self):
        cursor = TraceCursor(make_trace(4), start=6)
        assert cursor.peek() == 2

    def test_peek_does_not_consume(self):
        cursor = TraceCursor(make_trace(4))
        assert cursor.peek() == 0
        assert cursor.consumed == 0

    def test_columns_are_plain_lists(self):
        cursor = TraceCursor(make_trace(4))
        for name in ("op", "dep1", "dep2", "pc", "addr", "taken", "target", "sid"):
            assert isinstance(getattr(cursor, name), list)


def random_trace(n, seed=0) -> Trace:
    rng = np.random.default_rng(seed)
    return make_trace(
        n,
        op=rng.integers(0, len(OpClass), n).astype(np.uint8),
        dep1=rng.integers(0, 4, n),
        dep2=rng.integers(0, 4, n),
        pc=rng.integers(0, 1 << 40, n),
        addr=rng.integers(0, 1 << 40, n),
        taken=rng.random(n) < 0.5,
        target=rng.integers(0, 1 << 40, n),
        sid=rng.integers(0, 8, n),
    )


def assert_decoded_prefix(cursor: TraceCursor) -> None:
    trace = cursor.trace
    n = cursor.decoded
    assert cursor.index < n <= cursor.length
    for name in _COLUMNS:
        assert getattr(cursor, name) == getattr(trace, name)[:n].tolist(), name
    assert cursor.fb == (trace.pc[:n] >> 6).tolist()


class TestLazyDecode:
    def test_decoded_prefix_across_chunks_and_wrap(self):
        trace = random_trace(3 * CHUNK + 123)
        cursor = TraceCursor(trace)
        assert cursor.decoded == CHUNK
        lists = [getattr(cursor, name) for name in (*_COLUMNS, "fb")]
        limits = set()
        for step in range(2 * len(trace) + 5):
            assert cursor.advance() == step % len(trace)
            assert cursor.index < cursor.decoded
            if cursor.decoded not in limits:
                limits.add(cursor.decoded)
                assert_decoded_prefix(cursor)
        assert sorted(limits) == [CHUNK, 2 * CHUNK, 3 * CHUNK, len(trace)]
        assert cursor.consumed == 2 * len(trace) + 5
        # Refills extend the same list objects a hot loop may hold.
        assert all(a is b for a, b in zip(
            lists, [getattr(cursor, n) for n in (*_COLUMNS, "fb")]))

    def test_start_beyond_the_first_chunk(self):
        trace = random_trace(4 * CHUNK, seed=1)
        start = CHUNK + 17
        cursor = TraceCursor(trace, start=start)
        assert cursor.decoded == start + CHUNK
        assert_decoded_prefix(cursor)
        assert cursor.op[cursor.peek()] == trace.op[start]
        for step in range(4 * CHUNK):
            assert cursor.advance() == (start + step) % len(trace)
            assert cursor.index < cursor.decoded
        assert_decoded_prefix(cursor)
        assert cursor.decoded == len(trace)

    def test_trace_shorter_than_one_chunk(self):
        trace = random_trace(100, seed=2)
        cursor = TraceCursor(trace, start=250)
        assert cursor.decoded == len(trace)
        assert_decoded_prefix(cursor)
        assert [cursor.advance() for _ in range(3)] == [50, 51, 52]
        assert cursor.refill() == len(trace)

    def test_wrapping_pair_matches_reference_core(self):
        # 1:16 fetch throttling drives the batch thread through its whole
        # trace and around again (fig12's zeusmp reads ~130 % of its trace),
        # crossing every decoded-chunk boundary on the way.
        from repro.check.reference import ReferenceCore
        from repro.cpu.fast_core import FastCore
        from repro.experiments.common import config_fetch_throttle
        from repro.workloads.generator import generate_trace
        from repro.workloads.registry import get_profile

        length = 2 * CHUNK + 500
        traces = (
            generate_trace(get_profile("web_search"), length, seed=5),
            generate_trace(get_profile("zeusmp"), length, seed=6),
        )
        config = config_fetch_throttle(16)
        fast = FastCore(config, traces)
        a = fast.run(1500, warmup_instructions=500, require_all_threads=True)
        b = ReferenceCore(config, traces).run(
            1500, warmup_instructions=500, require_all_threads=True
        )
        assert a == b
        cursor = fast._threads[1].cursor
        assert cursor.consumed > length
        assert cursor.decoded == length
        assert_decoded_prefix(cursor)
