"""Tests for the CRN-paired monitor autotuner (`repro.tune`).

The load-bearing guarantees:

* every (candidate, scenario) fleet day goes through the result store —
  a warm re-run of the same search simulates **zero** fleet days;
* the search is deterministic for a given seed (CRN pairing plus
  stateless trial RNG);
* the default config is always evaluated and never beaten by accident:
  ``best.score >= default.score`` by construction;
* the :class:`~repro.tune.TuneSpace` grid validates eagerly against
  ``MonitorConfig``'s invariants.
"""

import numpy as np
import pytest

from repro.core.monitor import MonitorConfig
from repro.engine.store import ResultStore
from repro.tune import (
    CandidateScore,
    PortfolioEntry,
    ScenarioOutcome,
    TuneSpace,
    default_portfolio,
    tune_monitor,
)
from repro.workloads.registry import get_profile
from tests.test_fleet import fleet_config, performance_model

#: Tiny search: 2 portfolio days x (1 default + 2 trials + 1 sweep axis).
SPACE = TuneSpace(
    engage_fraction=(0.5, 0.6),
    engage_windows=(2, 3),
    violation_windows_to_throttle=(3,),
    throttle_windows=(10,),
)
PORTFOLIO = (
    PortfolioEntry(scenario="calm"),
    PortfolioEntry(scenario="stragglers", weight=2.0),
)


def tiny_tune(store, **kwargs):
    defaults = dict(
        portfolio=PORTFOLIO,
        space=SPACE,
        n_trials=2,
        descent_rounds=1,
        seed=7,
        store=store,
    )
    defaults.update(kwargs)
    return tune_monitor(
        get_profile("web_search"),
        performance_model(),
        fleet_config(n_servers=16),
        **defaults,
    )


class TestTuneSpace:
    def test_grid_size_and_axes(self):
        assert SPACE.size == 4
        assert list(SPACE.axes) == [
            "engage_fraction", "engage_windows",
            "violation_windows_to_throttle", "throttle_windows",
        ]

    def test_rejects_invalid_axis_values(self):
        with pytest.raises(ValueError):
            TuneSpace(engage_fraction=(0.5, 1.5))
        with pytest.raises(ValueError):
            TuneSpace(throttle_windows=(0,))
        with pytest.raises(ValueError):
            TuneSpace(engage_windows=())

    def test_sample_draws_from_the_grid(self):
        rng = np.random.default_rng(0)
        for _ in range(16):
            monitor = SPACE.sample(rng)
            assert monitor.engage_fraction in SPACE.engage_fraction
            assert monitor.engage_windows in SPACE.engage_windows

    def test_values_are_plain_python(self):
        space = TuneSpace(
            engage_fraction=np.array([0.5, 0.6]),
            engage_windows=np.array([2, 3]),
        )
        assert all(type(v) is float for v in space.engage_fraction)
        assert all(type(v) is int for v in space.engage_windows)


class TestPortfolio:
    def test_default_portfolio_shape(self):
        names = [e.scenario.name for e in default_portfolio()]
        assert names == ["calm", "stragglers", "incident", "flash_crowd"]

    def test_entry_resolves_and_validates(self):
        entry = PortfolioEntry(scenario="incident")
        assert entry.scenario.name == "incident"
        with pytest.raises(ValueError, match="weights"):
            PortfolioEntry(scenario="calm", weight=0.0)


@pytest.fixture(scope="module")
def cold_tune(tmp_path_factory):
    """One cold search on a fresh store, shared by the module: its result
    and the store directory the warm re-runs read back."""
    store_dir = tmp_path_factory.mktemp("tune-store")
    return tiny_tune(ResultStore(store_dir)), store_dir


class TestTuneMonitor:
    def test_search_is_deterministic(self, cold_tune):
        a, store_dir = cold_tune
        b = tiny_tune(ResultStore(store_dir))
        assert a.best.monitor == b.best.monitor
        assert a.best.score == b.best.score
        assert [c.monitor for c in a.candidates] == [
            c.monitor for c in b.candidates
        ]

    def test_warm_rerun_simulates_nothing(self, cold_tune):
        cold, store_dir = cold_tune
        assert cold.fleet_runs > 0
        warm = tiny_tune(ResultStore(store_dir))
        assert warm.fleet_runs == 0
        assert warm.cached_runs == cold.fleet_runs + cold.cached_runs

    def test_default_is_evaluated_and_never_beaten_silently(self, cold_tune):
        result, _ = cold_tune
        assert result.default.monitor == MonitorConfig()
        assert result.default in result.candidates
        assert result.best.score >= result.default.score
        assert result.best is result.candidates[0]
        assert result.improved == (
            result.best.score > result.default.score
        )

    def test_outcomes_cover_the_portfolio(self, cold_tune):
        result, _ = cold_tune
        for cand in result.candidates:
            assert [o.scenario for o in cand.outcomes] == [
                "calm", "stragglers"
            ]
            assert all(o.budget_burn >= 0.0 for o in cand.outcomes)

    def test_format_smoke(self, cold_tune):
        text = cold_tune[0].format()
        assert "tuned monitor vs default" in text
        assert "dominates default on:" in text
        assert "stragglers" in text

    def test_rejects_bad_inputs(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="non-empty portfolio"):
            tiny_tune(store, portfolio=())
        with pytest.raises(ValueError, match="violation_rate"):
            tiny_tune(store, slo="qos:tail<100ms")
        with pytest.raises(ValueError, match="n_trials"):
            tiny_tune(store, n_trials=-1)

    def test_dominates_relation(self):
        def cand(vr, uipc):
            return CandidateScore(
                monitor=MonitorConfig(), score=0.0, violation_rate=vr,
                batch_gain=0.0, budget_burn=0.0,
                outcomes=(ScenarioOutcome(
                    scenario="calm", weight=1.0, violation_rate=vr,
                    mean_batch_uipc=uipc, bmode_fraction=0.0,
                    throttled_fraction=0.0, budget_burn=0.0,
                ),),
            )

        base = cand(0.05, 0.5)
        assert cand(0.04, 0.5).dominates(base) == ("calm",)
        assert cand(0.05, 0.6).dominates(base) == ()  # vr must be strict
        assert cand(0.04, 0.4).dominates(base) == ()  # uipc must hold
