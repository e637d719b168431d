"""Property-based tests on SMT-core invariants.

Random small workload pairs are simulated end-to-end; whatever the inputs,
the core must terminate, respect partition limits, and report consistent
statistics.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.config import CoreConfig
from repro.cpu.fast_core import FastCore
from repro.workloads.generator import generate_trace
from repro.workloads.registry import get_profile
from repro.workloads.spec2006 import SPEC2006_NAMES

workload_names = st.sampled_from(SPEC2006_NAMES)
rob_splits = st.sampled_from([(96, 96), (56, 136), (136, 56), (32, 160), (160, 32)])


class TestCoreInvariants:
    @given(workload_names, workload_names, rob_splits, st.integers(0, 10))
    @settings(max_examples=12, deadline=None)
    def test_pair_simulation_invariants(self, name0, name1, split, seed):
        config = CoreConfig().with_rob_partition(*split)
        traces = (
            generate_trace(get_profile(name0), 3000, seed=seed),
            generate_trace(get_profile(name1), 3000, seed=seed + 1),
        )
        core = FastCore(config, traces)
        result = core.run(400, warmup_instructions=200, require_all_threads=True)

        assert result.cycles > 0
        for t, thread in enumerate(result.threads):
            assert thread.instructions >= 400
            assert 0.0 < thread.uipc <= config.width
            assert core.rob.peak_usage[t] <= split[t]
            assert thread.branch_mispredicts <= thread.branches
            assert thread.l1d_misses <= thread.loads + thread.stores

    @given(workload_names, st.integers(0, 10),
           st.sampled_from([16, 48, 96, 144, 192]))
    @settings(max_examples=12, deadline=None)
    def test_solo_simulation_invariants(self, name, seed, rob):
        config = CoreConfig().single_thread(rob)
        trace = generate_trace(get_profile(name), 3000, seed=seed)
        core = FastCore(config, (trace,))
        result = core.run(400, warmup_instructions=200)
        thread = result.threads[0]
        assert thread.instructions >= 400
        assert core.rob.peak_usage[0] <= rob
        assert sum(thread.mlp_cycles) >= result.cycles  # histogram covers run

    @given(workload_names, workload_names)
    @settings(max_examples=8, deadline=None)
    def test_reconfiguration_preserves_invariants(self, name0, name1):
        config = CoreConfig()
        traces = (
            generate_trace(get_profile(name0), 3000, seed=0),
            generate_trace(get_profile(name1), 3000, seed=1),
        )
        core = FastCore(config, traces)
        core.run(200, require_all_threads=True)
        core.set_partitions((56, 136), (18, 45))
        assert core.rob.total_usage == 0
        result = core.run(200, require_all_threads=True)
        assert core.rob.peak_usage[0] <= 56
        assert core.rob.peak_usage[1] <= 136
        assert all(t.instructions >= 200 for t in result.threads)
