"""Differential oracle: FastCore and ReferenceCore bit-identical.

The 200-configuration sweep — every case run through both engines — is
the acceptance gate for the optimized hot loop (ring-buffer dataflow,
slot interleaving, FastCore's event-horizon jumps and batched gap
accounting): any future optimization that changes a single committed
instruction, stall count, cycle total or MLP bucket on any configuration
fails here.  The stress cases (``build_stress_cases``) add targeted
adversarial shapes for the event-skipping path.
"""

import pytest

from repro.check.differential import (
    build_cases,
    build_stress_cases,
    compare_results,
    differential_sweep,
    run_case,
)
from repro.check.reference import ReferenceCore
from repro.cpu.config import CoreConfig
from repro.cpu.fast_core import FastCore
from repro.workloads.generator import generate_trace
from repro.workloads.registry import get_profile


def _traces(*specs):
    return tuple(
        generate_trace(get_profile(name), 3000, seed=seed) for name, seed in specs
    )


class TestReferenceCoreBasics:
    def test_solo_run_bit_identical(self):
        traces = _traces(("web_search", 11))
        a = FastCore(CoreConfig(), traces).run(500, warmup_instructions=200)
        b = ReferenceCore(CoreConfig(), traces).run(500, warmup_instructions=200)
        assert compare_results(a, b) == []
        assert a == b

    def test_colocated_run_bit_identical(self):
        traces = _traces(("web_search", 11), ("zeusmp", 12))
        config = CoreConfig().with_rob_partition(56, 136)
        a = FastCore(config, traces).run(400, warmup_instructions=200,
                                         require_all_threads=True)
        b = ReferenceCore(config, traces).run(400, warmup_instructions=200,
                                              require_all_threads=True)
        assert compare_results(a, b) == []

    def test_mode_switch_drain_bit_identical(self):
        traces = _traces(("data_serving", 5), ("gamess", 6))
        fast = FastCore(CoreConfig(),
                        _traces(("data_serving", 5), ("gamess", 6)))
        ref = ReferenceCore(CoreConfig(), traces)
        r1 = fast.run(300, warmup_instructions=100)
        r2 = ref.run(300, warmup_instructions=100)
        assert compare_results(r1, r2) == []
        fast.set_partitions((136, 56), (45, 18))
        ref.set_partitions((136, 56), (45, 18))
        assert fast.cycle == ref.cycle
        assert compare_results(fast.run(300), ref.run(300)) == []

    def test_reference_rejects_more_than_two_threads(self):
        traces = _traces(("web_search", 1), ("zeusmp", 2), ("gamess", 3))
        with pytest.raises(ValueError):
            ReferenceCore(CoreConfig(), traces)


class TestDifferentialSweep:
    def test_200_random_configs_bit_identical(self):
        """Acceptance criterion: >= 200 seeded configs, zero divergence."""
        report = differential_sweep(build_cases(200, seed=0))
        assert report.total == 200
        assert report.ok, report.mismatches + report.errors

    def test_sweep_with_invariants_attached(self):
        report = differential_sweep(build_cases(15, seed=99),
                                    check_invariants=True)
        assert report.ok, report.mismatches + report.errors

    def test_sweep_covers_key_dimensions(self):
        cases = build_cases(200, seed=0)
        assert any(len(c.workloads) == 1 for c in cases)
        assert any(len(c.workloads) == 2 for c in cases)
        assert any(c.mode_switch is not None for c in cases)
        policies = {c.config.fetch_policy for c in cases}
        assert policies == {"icount", "round_robin", "ratio"}
        from repro.cpu.config import PartitionPolicy

        assert any(c.config.rob_policy is PartitionPolicy.SHARED for c in cases)

    def test_cases_are_deterministic(self):
        assert build_cases(10, seed=3) == build_cases(10, seed=3)
        assert build_cases(10, seed=3) != build_cases(10, seed=4)

    def test_stress_cases_bit_identical(self):
        """The adversarial event-skipping shapes survive both engines."""
        cases = build_stress_cases(seed=0)
        tags = {case.tag for case in cases}
        assert {"switch-storm", "no-idle", "cycle0", "mshr-sat"} <= tags
        assert build_stress_cases(seed=0) == cases
        report = differential_sweep(cases, check_invariants=True)
        assert report.total == len(cases)
        assert report.ok, report.mismatches + report.errors

    def test_run_case_reports_differences(self):
        """compare_results localizes an injected divergence to its field."""
        case = build_cases(1, seed=5)[0]
        assert run_case(case) == []
        traces = _traces(("web_search", 11))
        a = FastCore(CoreConfig(), traces).run(300)
        b = ReferenceCore(CoreConfig(), traces).run(300)
        b.threads[0].instructions += 1
        diffs = compare_results(a, b)
        assert len(diffs) == 1
        assert "instructions" in diffs[0]
