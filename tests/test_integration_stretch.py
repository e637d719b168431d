"""End-to-end integration tests: the full Stretch story on real components.

These exercise the paper's core claims at reduced scale:

1. B-mode shifts ROB capacity and speeds up an MLP-hungry batch co-runner
   at a modest latency-sensitive cost (§VI-A);
2. the software monitor closes the loop: under a diurnal load it engages
   B-mode off-peak without materially violating QoS (§IV-C, §VI-D);
3. the public API demo wires everything together.
"""

import pytest

from repro import quick_colocation_demo
from repro.api import measure, run_day
from repro.core.stretch import StretchMode
from repro.cpu.sampling import SamplingConfig
from repro.qos.diurnal import web_search_cluster_load
from repro.workloads.registry import get_profile

SAMPLING = SamplingConfig(n_samples=3, warmup_instructions=4000,
                          measure_instructions=4000, seed=21)


@pytest.fixture(scope="module")
def ws_zeusmp_performance():
    return measure(
        get_profile("web_search"), get_profile("zeusmp"), sampling=SAMPLING
    )


class TestStretchTradeoff:
    def test_b_mode_speeds_up_batch(self, ws_zeusmp_performance):
        speedup = ws_zeusmp_performance.batch_speedup(StretchMode.B_MODE)
        assert speedup > 0.02  # zeusmp is the high-ROB-sensitivity exemplar

    def test_b_mode_costs_ls_less_than_it_gains(self, ws_zeusmp_performance):
        perf = ws_zeusmp_performance
        ls_loss = 1.0 - (
            perf.per_mode[StretchMode.B_MODE].ls_uipc
            / perf.per_mode[StretchMode.BASELINE].ls_uipc
        )
        assert ls_loss < perf.batch_speedup(StretchMode.B_MODE) + 0.25

    def test_q_mode_boosts_ls(self, ws_zeusmp_performance):
        perf = ws_zeusmp_performance
        assert (
            perf.per_mode[StretchMode.Q_MODE].ls_uipc
            > perf.per_mode[StretchMode.B_MODE].ls_uipc
        )

    def test_q_mode_costs_batch(self, ws_zeusmp_performance):
        assert ws_zeusmp_performance.batch_speedup(StretchMode.Q_MODE) < 0.0


class TestClosedLoop:
    def test_diurnal_day_bmode_only(self, ws_zeusmp_performance):
        """The paper's case-study configuration: B-mode or equal partitioning."""
        timeline = run_day(
            get_profile("web_search"), performance=ws_zeusmp_performance,
            load=web_search_cluster_load, window_minutes=30,
            requests_per_window=800, q_mode_available=False, seed=4,
        )
        # The monitor finds off-peak slack and engages B-mode there.
        assert timeline.bmode_fraction > 0.1
        # QoS violations remain rare.
        assert timeline.violation_rate < 0.25
        # Batch throughput beats never-engaging Stretch.
        baseline = ws_zeusmp_performance.per_mode[StretchMode.BASELINE].batch_uipc
        assert timeline.batch_throughput_gain(baseline) > 0.0

    def test_q_mode_trades_batch_for_qos(self, ws_zeusmp_performance):
        """With Q-mode provisioned, peak-hour QoS improves at batch cost."""
        def run(q_mode_available: bool):
            return run_day(
                get_profile("web_search"), performance=ws_zeusmp_performance,
                load=web_search_cluster_load, window_minutes=30,
                requests_per_window=800, q_mode_available=q_mode_available,
                seed=4,
            )

        with_q = run(True)
        without_q = run(False)
        assert with_q.violation_rate <= without_q.violation_rate + 0.05
        baseline = ws_zeusmp_performance.per_mode[StretchMode.BASELINE].batch_uipc
        assert with_q.batch_throughput_gain(baseline) <= (
            without_q.batch_throughput_gain(baseline) + 0.02
        )

    def test_b_mode_concentrates_off_peak(self, ws_zeusmp_performance):
        timeline = run_day(
            get_profile("web_search"), performance=ws_zeusmp_performance,
            load=web_search_cluster_load, window_minutes=30,
            requests_per_window=800, seed=4,
        )
        off_peak = [w for w in timeline.windows if w.load_fraction < 0.6]
        on_peak = [w for w in timeline.windows if w.load_fraction > 0.9]
        if off_peak and on_peak:
            off = sum(w.mode is StretchMode.B_MODE for w in off_peak) / len(off_peak)
            on = sum(w.mode is StretchMode.B_MODE for w in on_peak) / len(on_peak)
            assert off >= on


class TestPublicAPI:
    def test_quick_demo(self):
        summary = quick_colocation_demo(seed=3)
        assert summary["b_mode_batch_speedup"] > 0.0
        assert 0.0 < summary["b_mode_ls_factor"] <= summary["q_mode_ls_factor"] <= 1.0
