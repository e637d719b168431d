"""Tests for the SMT core timing simulator."""

from dataclasses import replace

import numpy as np
import pytest

from repro.cpu.config import CoreConfig, PartitionPolicy
from repro.cpu.fast_core import FastCore
from repro.cpu.isa import OpClass
from repro.cpu.trace import Trace
from repro.workloads.generator import generate_trace
from repro.workloads.registry import get_profile


def alu_trace(n=500, name="alu") -> Trace:
    """Pure independent ALU work: should commit near core width."""
    return Trace(
        name=name,
        op=np.full(n, OpClass.INT_ALU, dtype=np.uint8),
        dep1=np.zeros(n, dtype=np.int64),
        dep2=np.zeros(n, dtype=np.int64),
        # Constant PC: a single I-block, so these synthetic kernels are
        # never front-end bound (no wrap/cold-code effects).
        pc=np.full(n, 0x1000, dtype=np.int64),
        addr=np.zeros(n, dtype=np.int64),
        taken=np.zeros(n, dtype=bool),
        target=np.zeros(n, dtype=np.int64),
        sid=np.zeros(n, dtype=np.int64),
    )


def serial_chain_trace(n=500, name="chain") -> Trace:
    """Fully serialized dependency chain: IPC must approach 1."""
    dep = np.ones(n, dtype=np.int64)
    dep[0] = 0
    trace = alu_trace(n, name)
    return replace_col(trace, dep1=dep)


def replace_col(trace: Trace, **cols) -> Trace:
    data = {f: getattr(trace, f) for f in
            ("name", "op", "dep1", "dep2", "pc", "addr", "taken", "target", "sid")}
    data.update(cols)
    return Trace(**data)


def ws_trace(n=8000, seed=1) -> Trace:
    return generate_trace(get_profile("web_search"), n, seed=seed)


def zm_trace(n=8000, seed=1) -> Trace:
    return generate_trace(get_profile("zeusmp"), n, seed=seed)


class TestConstruction:
    def test_one_or_two_threads(self):
        FastCore(CoreConfig(), (alu_trace(),))
        FastCore(CoreConfig(), (alu_trace(), alu_trace()))
        with pytest.raises(ValueError):
            FastCore(CoreConfig(), ())

    def test_shared_policy_raises_limits(self):
        core = FastCore(
            CoreConfig(rob_policy=PartitionPolicy.SHARED),
            (alu_trace(), alu_trace()),
        )
        assert core.rob.limits == (192, 192)

    def test_partitioned_policy_uses_config_limits(self):
        core = FastCore(CoreConfig(), (alu_trace(), alu_trace()))
        assert core.rob.limits == (96, 96)


class TestSoloExecution:
    def test_commits_target(self):
        core = FastCore(CoreConfig().single_thread(192), (alu_trace(2000),))
        result = core.run(500)
        assert result.threads[0].instructions >= 500
        assert result.cycles > 0

    def test_independent_alu_ipc_near_width(self):
        """Width-6 core, 4 ALUs: independent ALU ops commit ~4/cycle."""
        core = FastCore(CoreConfig().single_thread(192), (alu_trace(4000),))
        result = core.run(3000, warmup_instructions=500)
        assert result.threads[0].uipc == pytest.approx(4.0, rel=0.2)

    def test_serial_chain_ipc_near_one(self):
        # No wrap: a wrap would break the chain (dep1[0] = 0) and let two
        # chain segments overlap in the window.
        core = FastCore(CoreConfig().single_thread(192), (serial_chain_trace(4000),))
        result = core.run(3000, warmup_instructions=500)
        assert result.threads[0].uipc == pytest.approx(1.0, rel=0.15)

    def test_uipc_never_exceeds_width(self):
        core = FastCore(CoreConfig().single_thread(192), (alu_trace(4000),))
        result = core.run(3000)
        assert result.threads[0].uipc <= CoreConfig().width

    def test_deterministic(self):
        def run_once():
            core = FastCore(CoreConfig().single_thread(192), (ws_trace(),))
            return core.run(2000, warmup_instructions=1000).threads[0].uipc

        assert run_once() == run_once()

    def test_max_cycles_enforced(self):
        core = FastCore(CoreConfig().single_thread(192), (ws_trace(),))
        with pytest.raises(RuntimeError, match="max_cycles"):
            core.run(5000, max_cycles=10)

    def test_invalid_instruction_count(self):
        core = FastCore(CoreConfig().single_thread(192), (alu_trace(),))
        with pytest.raises(ValueError):
            core.run(0)


class TestColocation:
    def test_both_threads_progress(self):
        core = FastCore(CoreConfig(), (ws_trace(), zm_trace()))
        result = core.run(1500, warmup_instructions=500)
        assert result.threads[0].instructions >= 1
        assert result.threads[1].instructions >= 1500 or result.threads[0].instructions >= 1500

    def test_require_all_threads(self):
        core = FastCore(CoreConfig(), (ws_trace(), zm_trace()))
        result = core.run(1000, warmup_instructions=200, require_all_threads=True)
        assert all(t.instructions >= 1000 for t in result.threads)

    def test_colocation_slows_both_threads(self, small_sampling):
        from repro.cpu.sampling import mean_uipc, sample_colocation, sample_solo

        ws, zm = get_profile("web_search"), get_profile("zeusmp")
        ws_alone = mean_uipc(sample_solo(ws, CoreConfig().single_thread(192),
                                         small_sampling))
        zm_alone = mean_uipc(sample_solo(zm, CoreConfig().single_thread(192),
                                         small_sampling))
        pair = sample_colocation(ws, zm, CoreConfig(), small_sampling)
        assert mean_uipc(pair, 0) < ws_alone
        assert mean_uipc(pair, 1) < zm_alone

    def test_workload_names_recorded(self):
        core = FastCore(CoreConfig(), (ws_trace(), zm_trace()))
        result = core.run(300, require_all_threads=True)
        assert result.threads[0].workload == "web_search"
        assert result.threads[1].workload == "zeusmp"


class TestRobPartitioning:
    def test_larger_partition_helps_mlp_workload(self, small_sampling):
        """zeusmp (high MLP) gains from 136 entries vs 56 (the B-mode shift)."""
        from repro.cpu.sampling import mean_uipc, sample_solo

        zm = get_profile("zeusmp")
        u_small = mean_uipc(sample_solo(zm, CoreConfig().single_thread(56),
                                        small_sampling))
        u_big = mean_uipc(sample_solo(zm, CoreConfig().single_thread(136),
                                      small_sampling))
        assert u_big > u_small * 1.05

    def test_occupancy_respects_partition(self):
        config = CoreConfig().with_rob_partition(56, 136)
        core = FastCore(config, (zm_trace(), zm_trace(seed=2)))
        core.run(800, require_all_threads=True)
        assert core.rob.peak_usage[0] <= 56
        assert core.rob.peak_usage[1] <= 136

    def test_shared_rob_allows_monopolization(self):
        config = CoreConfig(rob_policy=PartitionPolicy.SHARED)
        core = FastCore(config, (ws_trace(), zm_trace()))
        core.run(800, require_all_threads=True)
        assert max(core.rob.peak_usage) > 96


class TestStretchReconfiguration:
    def test_set_partitions_reprograms_limits(self):
        core = FastCore(CoreConfig(), (ws_trace(), zm_trace()))
        core.run(300, require_all_threads=True)
        core.set_partitions((56, 136), (18, 45))
        assert core.rob.limits == (56, 136)
        assert core.lsq.limits == (18, 45)

    def test_set_partitions_drains_inflight(self):
        core = FastCore(CoreConfig(), (ws_trace(), zm_trace()))
        core.run(300, require_all_threads=True)
        core.set_partitions((56, 136), (18, 45))
        assert core.rob.total_usage == 0

    def test_set_partitions_applies_flush_penalty(self):
        core = FastCore(CoreConfig(), (ws_trace(), zm_trace()))
        core.run(300, require_all_threads=True)
        before = core.cycle
        core.set_partitions((56, 136), (18, 45))
        stalls = [ts.fe_stall_until for ts in core._threads]
        assert all(s >= before + CoreConfig().pipeline_flush_cycles for s in stalls)

    def test_execution_continues_after_switch(self):
        core = FastCore(CoreConfig(), (ws_trace(), zm_trace()))
        core.run(300, require_all_threads=True)
        core.set_partitions((56, 136), (18, 45))
        result = core.run(300, require_all_threads=True)
        assert all(t.instructions >= 300 for t in result.threads)


class TestWrongPath:
    def test_ghosts_squashed_at_resolution(self):
        """Wrong-path ghosts never outlive the mispredicted branch."""
        core = FastCore(CoreConfig(), (ws_trace(), zm_trace()))
        core.run(2000, warmup_instructions=500, require_all_threads=True)
        # After a run, every remaining ROB entry is accounted for by the
        # in-flight queues plus any not-yet-resolved wrong-path ghosts.
        accounted = sum(len(ts.rob_q) + ts.ghosts for ts in core._threads)
        assert core.rob.total_usage == accounted

    def test_drain_clears_ghosts(self):
        core = FastCore(CoreConfig(), (ws_trace(), zm_trace()))
        core.run(500, require_all_threads=True)
        core.set_partitions((56, 136), (18, 45))
        assert all(ts.ghosts == 0 for ts in core._threads)
        assert core.rob.total_usage == 0

    def test_wrong_path_occupies_shared_rob(self):
        """Under dynamic sharing, a miss-bound LS thread holds far more
        entries than a stall-only front end would (the Fig. 11 mechanism)."""
        config = CoreConfig(rob_policy=PartitionPolicy.SHARED)
        core = FastCore(config, (ws_trace(20000), zm_trace(20000)))
        core.run(3000, warmup_instructions=500, require_all_threads=True)
        assert core.rob.peak_usage[0] > 40  # stall-only front end peaked ~13

    def test_mispredict_penalty_still_applies(self):
        """Throughput with mispredicts is below a perfectly predicted run."""
        import numpy as np

        n = 4000
        base = alu_trace(n)
        # Every 40th µop is a fully biased, never-taken branch (predictable).
        op = base.op.copy()
        op[::40] = OpClass.BRANCH
        predictable = replace_col(base, op=op)
        # Same structure but alternating outcomes (hard to predict).
        taken = base.taken.copy()
        taken[::80] = True
        noisy = replace_col(predictable, taken=taken)

        def uipc(trace):
            core = FastCore(CoreConfig().single_thread(192), (trace,))
            return core.run(3000, warmup_instructions=500).threads[0].uipc

        assert uipc(noisy) < uipc(predictable)
