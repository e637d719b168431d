"""Tests for trace serialization."""

import numpy as np
import pytest

from repro.cpu.trace import Trace
from repro.workloads.generator import generate_trace
from repro.workloads.registry import get_profile


class TestTraceIO:
    def test_round_trip(self, tmp_path):
        trace = generate_trace(get_profile("mcf"), 2000, seed=3)
        path = tmp_path / "mcf.npz"
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.name == "mcf"
        for column in ("op", "dep1", "dep2", "pc", "addr", "taken", "target", "sid"):
            assert np.array_equal(getattr(loaded, column), getattr(trace, column))

    def test_loaded_trace_validates(self, tmp_path):
        trace = generate_trace(get_profile("web_search"), 1000, seed=1)
        path = tmp_path / "t.npz"
        trace.save(path)
        Trace.load(path).validate()

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Trace.load(tmp_path / "absent.npz")

    def test_compressed_smaller_than_raw(self, tmp_path):
        trace = generate_trace(get_profile("gamess"), 5000, seed=1)
        path = tmp_path / "g.npz"
        trace.save(path)
        raw_bytes = sum(
            getattr(trace, c).nbytes
            for c in ("op", "dep1", "dep2", "pc", "addr", "taken", "target", "sid")
        )
        assert path.stat().st_size < raw_bytes

    def test_loaded_trace_runs(self, tmp_path):
        from repro.cpu.config import CoreConfig
        from repro.cpu.fast_core import FastCore

        trace = generate_trace(get_profile("gamess"), 3000, seed=1)
        path = tmp_path / "g.npz"
        trace.save(path)
        core = FastCore(CoreConfig().single_thread(192), (Trace.load(path),))
        result = core.run(500, warmup_instructions=200)
        assert result.threads[0].instructions >= 500
