"""The fleet benchmark's gates (``benchmarks/check_bench_trajectory.py``).

A probe times nine alternating (baseline, variant) day pairs and gates a
98 % lower confidence bound on the median paired ratio, so it fails only
when the data show the overhead above its budget.  The cold surrogate
fit is gated on its CPU seconds, which do not depend on the worker
count, and never on its wall time, which does.  A fresh payload equal to
its baseline fails: the benchmark never rewrote it.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_bench_trajectory",
        ROOT / "benchmarks" / "check_bench_trajectory.py",
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checker = load_checker()

#: Per-pair ratios in the spread unchanged stepping code reads on a
#: shared 2-vCPU host (0.97-1.25); their median, +11 %, breaches a 10 %
#: budget.
UNCHANGED = (0.97, 1.25, 1.02, 1.13, 1.11, 0.99, 1.17, 1.05, 1.21)
BUDGET = 0.10


def payload(**fields) -> dict:
    return {"server_windows_per_s": {"10000": 1000}, **fields}


class TestMedianLowerBound:
    def test_nine_pairs_bound_is_the_second_smallest(self):
        # P[Bin(9, 1/2) <= 1] = 10/512 <= 2 %, P[Bin(9, 1/2) <= 2] > 2 %.
        assert checker.median_lower_bound(UNCHANGED) == 0.99
        assert checker.median_lower_bound(range(20)) == 4

    def test_unchanged_spread_passes_and_a_real_overhead_fails(self):
        assert sorted(UNCHANGED)[4] - 1.0 > BUDGET
        assert checker.median_lower_bound(UNCHANGED) - 1.0 <= BUDGET
        slower = [ratio * 1.2 for ratio in UNCHANGED]
        assert checker.median_lower_bound(slower) - 1.0 > BUDGET

    def test_too_few_pairs_bound_nothing(self):
        with pytest.raises(ValueError, match="cannot bound"):
            checker.median_lower_bound(UNCHANGED[:5])

    def test_trajectory_gate_reads_the_bound(self):
        def failures(**fields) -> list[str]:
            found: list[str] = []
            checker.check_fleet(
                payload(), payload(placement_overhead_budget=BUDGET, **fields),
                0.25, found,
            )
            return found

        assert failures(placement_overhead=0.11,
                        placement_overhead_bound=-0.01) == []
        assert failures(placement_overhead=0.30,
                        placement_overhead_bound=0.188)
        # A payload without a bound is judged on its median.
        assert failures(placement_overhead=0.11)
        assert failures(placement_overhead=0.05) == []


class TestSurrogateFitGate:
    @staticmethod
    def failures(baseline: dict, fresh: dict) -> list[str]:
        found: list[str] = []
        checker.check_fleet(payload(**baseline), payload(**fresh), 0.25, found)
        return found

    TWO_WORKERS = dict(
        surrogate_fit_s=2.0, surrogate_fit_workers=2, surrogate_fit_cpu_s=4.0
    )

    def test_fewer_workers_do_not_fail(self):
        one_worker = dict(
            surrogate_fit_s=4.1, surrogate_fit_workers=1,
            surrogate_fit_cpu_s=4.1,
        )
        assert self.failures(self.TWO_WORKERS, one_worker) == []

    def test_a_costlier_des_fails_on_more_workers(self):
        four_workers = dict(
            surrogate_fit_s=2.0, surrogate_fit_workers=4,
            surrogate_fit_cpu_s=8.0,
        )
        [failure] = self.failures(self.TWO_WORKERS, four_workers)
        assert failure.startswith("surrogate_fit_cpu_s")

    def test_a_baseline_without_fit_cpu_skips_the_gate(self):
        costlier = dict(self.TWO_WORKERS, surrogate_fit_cpu_s=8.0)
        assert self.failures(dict(surrogate_fit_s=4.0), costlier) == []


class TestUnwrittenPayload:
    """A benchmark that fails before it writes leaves the committed record,
    so the checker would compare that record with itself."""

    @pytest.mark.parametrize("label, record", [
        ("fleet", "BENCH_fleet.json"), ("core", "BENCH_core.json"),
    ])
    def test_fresh_equal_to_baseline_fails(self, label, record, capsys):
        path = str(ROOT / "benchmarks" / "results" / record)
        assert checker.main([f"--baseline-{label}", path,
                             f"--fresh-{label}", path]) == 1
        [line] = [ln for ln in capsys.readouterr().err.splitlines()
                  if ln.strip().startswith(f"{label}:")]
        assert "equals the baseline" in line
