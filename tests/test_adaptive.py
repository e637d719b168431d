"""Tests for the multi-configuration adaptive Stretch policy (§IV-D)."""

import numpy as np
import pytest

from repro import api
from repro.core.adaptive import AdaptiveStretchPolicy, SlackBudget
from repro.core.colocation import ColocationPerformance, ModePerformance
from repro.core.partitioning import B_MODES, BASELINE
from repro.core.stretch import StretchMode
from repro.workloads.profiles import QoSSpec
from repro.workloads.registry import get_profile

QOS = QoSSpec(target_ms=100.0, percentile=99.0, base_service_ms=8.0)


def performance(baseline_ls=0.55, bmode_ls=0.45) -> ColocationPerformance:
    return ColocationPerformance(
        ls_workload="web_search",
        batch_workload="zeusmp",
        ls_solo_uipc=0.6,
        per_mode={
            StretchMode.BASELINE: ModePerformance(baseline_ls, 0.5),
            StretchMode.B_MODE: ModePerformance(bmode_ls, 0.6),
            StretchMode.Q_MODE: ModePerformance(0.58, 0.4),
        },
    )


def make_policy(**kwargs) -> AdaptiveStretchPolicy:
    return AdaptiveStretchPolicy(QOS, performance(), tuple(B_MODES), **kwargs)


class TestSlackBudget:
    def test_headroom(self):
        budget = SlackBudget(tail_latency_ms=40.0, target_ms=100.0,
                             safety_margin=0.8)
        assert budget.headroom == pytest.approx(2.0)

    def test_zero_latency_infinite_headroom(self):
        assert SlackBudget(0.0, 100.0).headroom == float("inf")

    def test_validation(self):
        with pytest.raises(ValueError):
            SlackBudget(-1.0, 100.0)
        with pytest.raises(ValueError):
            SlackBudget(1.0, 100.0, safety_margin=0.0)


class TestFactorInterpolation:
    def test_baseline_anchor(self):
        policy = make_policy()
        assert policy.factor_for(BASELINE) == pytest.approx(
            performance().ls_perf_factor(StretchMode.BASELINE)
        )

    def test_measured_b_mode_anchor(self):
        policy = make_policy()
        # 56-136 is the measured anchor.
        anchor = next(s for s in B_MODES if s.ls_entries == 56)
        assert policy.factor_for(anchor) == pytest.approx(
            performance().ls_perf_factor(StretchMode.B_MODE)
        )

    def test_monotone_in_partition_size(self):
        policy = make_policy()
        factors = [policy.factor_for(s) for s in B_MODES]  # shallow -> deep
        assert factors == sorted(factors, reverse=True)


class TestDecision:
    def test_violation_escalates(self):
        decision = make_policy().decide(150.0)
        assert decision.mode is StretchMode.Q_MODE
        assert decision.scheme == BASELINE

    def test_huge_slack_picks_deepest(self):
        decision = make_policy().decide(5.0)
        assert decision.mode is StretchMode.B_MODE
        assert decision.scheme == B_MODES[-1]  # 32-160

    def test_tight_latency_stays_baseline(self):
        decision = make_policy().decide(84.0)
        assert decision.mode is StretchMode.BASELINE
        assert decision.scheme == BASELINE

    def test_moderate_slack_picks_intermediate(self):
        policy = make_policy()
        deep = policy.decide(5.0).scheme
        # Find a latency where some but not all skews fit.
        chosen = {policy.decide(lat).scheme.name for lat in range(10, 90, 5)}
        assert len(chosen) >= 2
        assert deep == B_MODES[-1]

    def test_deeper_slack_never_shallower_choice(self):
        policy = make_policy()
        previous_depth = None
        for latency in (80.0, 60.0, 40.0, 20.0, 5.0):
            scheme = policy.decide(latency).scheme
            depth = 192 - scheme.ls_entries
            if previous_depth is not None:
                assert depth >= previous_depth
            previous_depth = depth

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            make_policy().decide(-1.0)


class TestConstruction:
    def test_requires_b_modes(self):
        with pytest.raises(ValueError):
            AdaptiveStretchPolicy(QOS, performance(), ())

    def test_requires_shallow_to_deep_order(self):
        with pytest.raises(ValueError):
            AdaptiveStretchPolicy(QOS, performance(), tuple(reversed(B_MODES)))


class TestInterpolation:
    def test_anchors_reproduced(self):
        from repro.core.partitioning import DEFAULT_B_MODE

        perf = performance()
        base = perf.interpolate(BASELINE)
        assert base.ls_uipc == pytest.approx(0.55)
        assert base.batch_uipc == pytest.approx(0.5)
        bmode = perf.interpolate(DEFAULT_B_MODE)
        assert bmode.ls_uipc == pytest.approx(0.45)
        assert bmode.batch_uipc == pytest.approx(0.6)

    def test_deeper_skew_extrapolates(self):
        perf = performance()
        deep = perf.interpolate(B_MODES[-1])  # 32-160
        assert deep.ls_uipc < 0.45
        assert deep.batch_uipc > 0.6

    def test_floors_prevent_zero(self):
        from repro.core.partitioning import PartitionScheme

        perf = performance(baseline_ls=0.5, bmode_ls=0.1)
        tiny = perf.interpolate(PartitionScheme(8, 184))
        assert tiny.ls_uipc > 0.0


class TestNextRowsOracle:
    """``next_rows`` against the scalar ``decide`` it vectorizes."""

    MODELS = {
        "measured": performance(),
        "shallow-b": performance(baseline_ls=0.55, bmode_ls=0.48),
        # B-mode's LS factor above Baseline's: every inflation is below 1.
        "b-above-baseline": performance(baseline_ls=0.45, bmode_ls=0.58),
        # Deep skews hit the 20%-of-Baseline floor.
        "floored": performance(baseline_ls=0.50, bmode_ls=0.10),
    }
    PROVISIONS = (
        tuple(B_MODES), tuple(B_MODES[:2]), tuple(B_MODES[1:4]),
        (B_MODES[-1],),
    )
    MARGINS = (0.85, 0.7, 0.5, 1.0)

    @staticmethod
    def probe_tails(policy) -> np.ndarray:
        """Each scheme's fit cut and the target, ±2 ulp, plus edges."""
        cut = QOS.target_ms * policy.safety_margin
        centres = [cut / policy.factor_for(BASELINE) * policy.factor_for(s)
                   for s in policy.b_modes]
        centres += [cut / (policy.factor_for(BASELINE)
                           / max(policy.factor_for(s), 1e-9))
                    for s in policy.b_modes]
        centres.append(QOS.target_ms)
        tails = [0.0, 5e-324, 1e-3, 1.0, 1e6, np.inf]
        for centre in centres:
            below = above = centre
            tails.append(centre)
            for _ in range(2):
                below = np.nextafter(below, -np.inf)
                above = np.nextafter(above, np.inf)
                tails += [below, above]
        return np.array(tails)

    def policies(self):
        for model in self.MODELS.values():
            for b_modes in self.PROVISIONS:
                for margin in self.MARGINS:
                    yield AdaptiveStretchPolicy(
                        QOS, model, b_modes, safety_margin=margin
                    )

    def test_matches_decide_exhaustively(self):
        points = mismatches = 0
        for policy in self.policies():
            tails = self.probe_tails(policy)
            rows = policy.next_rows(tails)
            for tail, row in zip(tails, rows):
                decision = policy.decide(tail)
                points += 1
                mismatches += policy.rows[row] != (
                    decision.scheme, decision.mode
                )
        assert points > 2000
        assert mismatches == 0

    def test_some_b_mode_fits_below_baseline_factor(self):
        policy = AdaptiveStretchPolicy(
            QOS, self.MODELS["b-above-baseline"], tuple(B_MODES)
        )
        # A tail at the target leaves no slack, yet B-mode's inflation
        # (below 1) fits the margin-scaled budget.
        assert policy.next_rows(np.array([QOS.target_ms]))[0] > 0
        assert policy.decide(QOS.target_ms).mode is StretchMode.B_MODE

    def test_violated_tails_never_engage_b_mode(self):
        # A window whose tail violates always retreats: Baseline reported
        # as Q-mode, whatever the slack rule would allow.
        tails = np.nextafter(QOS.target_ms, np.inf) * np.array(
            [1.0, 1.5, 5.0, 100.0]
        )
        for policy in self.policies():
            rows = policy.next_rows(tails)
            assert set(rows.tolist()) == {len(policy.rows) - 1}
            assert policy.rows[-1] == (BASELINE, StretchMode.Q_MODE)
            for tail in tails:
                assert policy.decide(tail).mode is StretchMode.Q_MODE


def adaptive_day(load, *, adaptive=True, **kwargs):
    """One web_search day through ``api.run_day`` at seed 6."""
    ls = get_profile("web_search")
    perf = performance(baseline_ls=0.55, bmode_ls=0.48)
    policy = AdaptiveStretchPolicy(ls.qos, perf, tuple(B_MODES))
    return api.run_day(
        ls, performance=perf, load=load,
        adaptive=policy if adaptive else None, seed=6, **kwargs,
    )


class TestAdaptiveClosedLoop:
    def test_run_day_adaptive(self):
        timeline = adaptive_day(
            lambda h: 0.3, window_minutes=60, requests_per_window=600
        )
        assert len(timeline.windows) == 24
        # Low constant load: the policy settles into deep B-modes.
        engaged = [w for w in timeline.windows if w.mode is StretchMode.B_MODE]
        assert len(engaged) >= 12
        schemes = {w.scheme for w in engaged}
        assert schemes & {"40-152", "32-160"}

    def test_adaptive_beats_fixed_at_low_load(self):
        baseline_uipc = 0.5
        fixed = adaptive_day(lambda h: 0.25, adaptive=False,
                             window_minutes=60, requests_per_window=600)
        adaptive = adaptive_day(lambda h: 0.25, window_minutes=60,
                                requests_per_window=600)
        # With abundant slack, deeper skews buy more batch throughput than
        # the single fixed B-mode.
        assert adaptive.batch_throughput_gain(baseline_uipc) >= (
            fixed.batch_throughput_gain(baseline_uipc) - 0.01
        )

    def test_run_day_adaptive_zero_load(self):
        timeline = adaptive_day(
            lambda h: 0.0, window_minutes=120, requests_per_window=400
        )
        # Zero offered load clamps to the 2% floor: permanent slack.
        assert all(w.load_fraction == 0.02 for w in timeline.windows)
        assert timeline.violation_rate == 0.0
        engaged = [w for w in timeline.windows if w.mode is StretchMode.B_MODE]
        assert len(engaged) >= len(timeline.windows) // 2
        # With nothing queued the policy can afford the deepest skews.
        assert {w.scheme for w in engaged} & {"40-152", "32-160"}

    def test_run_day_adaptive_saturating_load(self):
        # 5x the calibrated peak clips to the 1.2 ceiling, as in every
        # fleet day: the day is the 1.2-load day, bit for bit.
        saturating = adaptive_day(
            "flat:5.0", window_minutes=120, requests_per_window=400
        )
        ceiling = adaptive_day(
            "flat:1.2", window_minutes=120, requests_per_window=400
        )
        assert all(w.load_fraction == 1.2 for w in saturating.windows)
        assert saturating == ceiling


class TestAdaptiveFleet:
    def make_engine(self, **config):
        from repro.fleet import FleetConfig, FleetEngine

        ls = get_profile("web_search")
        perf = performance(baseline_ls=0.55, bmode_ls=0.48)
        policy = AdaptiveStretchPolicy(ls.qos, perf, tuple(B_MODES))
        return FleetEngine(
            ls, perf, FleetConfig(**config), adaptive=policy
        )

    def test_rows_label_modes_and_never_throttle(self):
        engine = self.make_engine(
            n_servers=2, window_minutes=240.0, requests_per_window=300,
            seed=3,
        )
        stepper = engine.stepper("flat:0.9", tail="exact")
        day = stepper.run()
        assert day.mode_counts.sum(axis=1).tolist() == [2] * 6
        assert day.throttled.sum() == 0
        assert day.mode_counts[0].tolist() == [2, 0, 0]  # rows start at 0
        assert 0 <= stepper.state.mode.min()
        assert stepper.state.mode.max() < len(engine.adaptive.rows)
        assert not stepper.state.throttle.any()

    def test_captured_violators_report_modes(self):
        engine = self.make_engine(
            n_servers=4, overprovision=1.0, window_minutes=240.0,
            requests_per_window=3000, seed=3,
        )
        stepper = engine.stepper("flat:1.2", tail="exact")
        stepper.capture_violators = 4
        captured = []
        for _ in range(6):
            stepper.step()
            captured += stepper.last_violators
        assert captured
        names = {m.value for m in StretchMode}
        for row in captured:
            assert row["mode"] in names and row["mode_after"] in names
            assert row["mode_after"] == "q-mode"

    def test_population_rejected(self):
        with pytest.raises(ValueError, match="homogeneous"):
            self.make_engine(population=("zeusmp", "milc"))
