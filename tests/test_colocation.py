"""Tests for the per-mode colocation performance model."""

import pytest

from repro.api import measure
from repro.core.colocation import ColocationPerformance, ModePerformance
from repro.core.stretch import StretchMode
from repro.cpu.sampling import SamplingConfig
from repro.workloads.registry import get_profile


def manual_performance() -> ColocationPerformance:
    return ColocationPerformance(
        ls_workload="web_search",
        batch_workload="zeusmp",
        ls_solo_uipc=0.6,
        per_mode={
            StretchMode.BASELINE: ModePerformance(ls_uipc=0.52, batch_uipc=0.50),
            StretchMode.B_MODE: ModePerformance(ls_uipc=0.45, batch_uipc=0.60),
            StretchMode.Q_MODE: ModePerformance(ls_uipc=0.57, batch_uipc=0.40),
        },
    )


class TestDerivedMetrics:
    def test_ls_perf_factor(self):
        perf = manual_performance()
        assert perf.ls_perf_factor(StretchMode.BASELINE) == pytest.approx(0.52 / 0.6)

    def test_ls_perf_factor_capped_at_one(self):
        perf = ColocationPerformance(
            "a", "b", ls_solo_uipc=0.5,
            per_mode={StretchMode.BASELINE: ModePerformance(0.6, 0.1)},
        )
        assert perf.ls_perf_factor(StretchMode.BASELINE) == 1.0

    def test_batch_speedup(self):
        perf = manual_performance()
        assert perf.batch_speedup(StretchMode.B_MODE) == pytest.approx(0.2)
        assert perf.batch_speedup(StretchMode.Q_MODE) == pytest.approx(-0.2)
        assert perf.batch_speedup(StretchMode.BASELINE) == 0.0


class TestMeasurement:
    @pytest.fixture(scope="class")
    def measured(self):
        return measure(
            get_profile("web_search"),
            get_profile("zeusmp"),
            sampling=SamplingConfig(n_samples=1, warmup_instructions=3000,
                                    measure_instructions=3000, seed=5),
        )

    def test_covers_all_modes(self, measured):
        assert set(measured.per_mode) == set(StretchMode)

    def test_factors_in_unit_range(self, measured):
        for mode in StretchMode:
            assert 0.0 < measured.ls_perf_factor(mode) <= 1.0

    def test_b_mode_helps_batch(self, measured):
        assert measured.batch_speedup(StretchMode.B_MODE) > 0.0

    def test_b_mode_costs_ls(self, measured):
        assert measured.ls_perf_factor(StretchMode.B_MODE) < measured.ls_perf_factor(
            StretchMode.Q_MODE
        )

    def test_workload_names(self, measured):
        assert measured.ls_workload == "web_search"
        assert measured.batch_workload == "zeusmp"

    def test_without_q_mode_falls_back(self):
        perf = measure(
            get_profile("web_search"),
            get_profile("gamess"),
            q_mode=None,
            sampling=SamplingConfig(n_samples=1, warmup_instructions=1000,
                                    measure_instructions=1000, seed=5),
        )
        assert perf.per_mode[StretchMode.Q_MODE] == perf.per_mode[StretchMode.BASELINE]
