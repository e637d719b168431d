"""Tests for the adversarial scenario suite (`repro.scenarios`).

The load-bearing guarantees (seeded property tests, no hypothesis):

* a null or zero-magnitude scenario is **bit-identical** to an
  unperturbed engine (the skip path never builds a sampler);
* servers a perturbation does not touch keep bit-identical trajectories
  (the ×1.0 multiplier preserves IEEE values exactly);
* perturbation streams are pure functions of ``(seed, window)``:
  shard-slicing and checkpoint/resume never change outcomes;
* scenario specs are strict, hashable, round-trippable, and part of the
  content-addressed shard-job key (the CRN-paired tuning cache).
"""

import dataclasses

import numpy as np
import pytest

from repro.fleet import FleetEngine, FleetTimeline, fit_tail_surrogate
from repro.fleet.engine import FleetState
from repro.fleet.shard import FleetShardJob, window_loads
from repro.scenarios import (
    SCENARIO_NAMES,
    FlashCrowd,
    Generations,
    Incident,
    Migration,
    ScenarioSampler,
    ScenarioSpec,
    Stragglers,
    as_scenario,
    get_scenario,
    scenario_from_dict,
)
from repro.workloads.registry import get_profile
from tests.test_fleet import TEST_GRID, fleet_config, performance_model

N_SERVERS = 32

#: A heavy always-on perturbation (every family repesented, no nulls).
STRESS = ScenarioSpec(
    name="stress",
    stragglers=Stragglers(fraction=0.25, slowdown=2.0),
    migration=Migration(start_hour=6.0, fraction=0.3, retain=0.2),
    incident=Incident(start_hour=2.0, duration_hours=8.0,
                      fraction=0.25, capacity_loss=0.5),
    flash_crowd=FlashCrowd(start_hour=12.0, duration_hours=6.0,
                           magnitude=1.5),
)


@pytest.fixture(scope="module")
def surrogate():
    engine = FleetEngine(
        get_profile("web_search"), performance_model(), fleet_config()
    )
    return fit_tail_surrogate(
        get_profile("web_search").qos, engine.perf_factors, TEST_GRID
    )


def make_engine(surrogate, scenario=None, **overrides):
    config = fleet_config(n_servers=overrides.pop("n_servers", N_SERVERS),
                          **overrides)
    return FleetEngine(
        get_profile("web_search"), performance_model(), config,
        surrogate=surrogate, scenario=scenario,
    )


def assert_timelines_identical(a: FleetTimeline, b: FleetTimeline):
    """Bitwise equality over every array, floats included."""
    assert a.n_servers == b.n_servers
    assert np.array_equal(a.hours, b.hours)
    assert np.array_equal(a.mode_counts, b.mode_counts)
    assert np.array_equal(a.violations, b.violations)
    assert np.array_equal(a.throttled, b.throttled)
    assert np.array_equal(a.tail_ms_sum, b.tail_ms_sum)
    assert np.array_equal(a.batch_uipc_sum, b.batch_uipc_sum)
    assert np.array_equal(a.server_violations, b.server_violations)
    assert np.array_equal(a.server_bmode_windows, b.server_bmode_windows)


class TestScenarioSpec:
    def test_suite_presets_round_trip(self):
        assert "calm" in SCENARIO_NAMES
        for name in SCENARIO_NAMES:
            spec = get_scenario(name)
            assert spec.name == name
            assert scenario_from_dict(spec.to_dict()) == spec

    def test_calm_is_null_black_friday_is_not(self):
        assert get_scenario("calm").is_null
        bf = get_scenario("black_friday")
        assert not bf.is_null
        assert bf.components == ("stragglers", "incident", "flash_crowd")

    def test_get_scenario_unknown(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("tsunami")

    def test_as_scenario_resolution(self):
        assert as_scenario(None) is None
        spec = get_scenario("stragglers")
        assert as_scenario(spec) is spec
        assert as_scenario("stragglers") == spec
        assert as_scenario(spec.to_dict()) == spec
        with pytest.raises(TypeError, match="scenario must be"):
            as_scenario(42)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown scenario fields"):
            scenario_from_dict({"name": "x", "earthquake": {}})
        with pytest.raises(ValueError, match="unknown stragglers fields"):
            scenario_from_dict(
                {"name": "x", "stragglers": {"fractoin": 0.1}}
            )

    def test_component_validation(self):
        with pytest.raises(ValueError):
            Stragglers(fraction=-0.1)
        with pytest.raises(ValueError):
            Stragglers(slowdown=0.5)
        with pytest.raises(ValueError):
            Generations(factors=())
        with pytest.raises(ValueError):
            Generations(factors=(1.0, 1.2), mix=(0.5,))
        with pytest.raises(ValueError):
            Migration(fraction=1.0)
        with pytest.raises(ValueError):
            Incident(duration_hours=0.0)
        with pytest.raises(ValueError):
            FlashCrowd(magnitude=0.0)
        with pytest.raises(TypeError, match="stragglers must be"):
            ScenarioSpec(stragglers=Incident())

    def test_zero_magnitude_components_are_null(self):
        assert Stragglers(fraction=0.0).is_null
        assert Stragglers(slowdown=1.0).is_null
        assert Generations(factors=(1.0, 1.0)).is_null
        assert Migration(retain=1.0).is_null
        assert Incident(capacity_loss=0.0).is_null
        assert FlashCrowd(magnitude=1.0).is_null
        spec = ScenarioSpec(name="zero", stragglers=Stragglers(fraction=0.0))
        assert spec.is_null and spec.components == ()

    def test_specs_are_hashable_and_repr_stable(self):
        spec = get_scenario("black_friday")
        assert hash(spec) == hash(get_scenario("black_friday"))
        assert eval(repr(spec), {
            "ScenarioSpec": ScenarioSpec, "Stragglers": Stragglers,
            "Incident": Incident, "FlashCrowd": FlashCrowd,
        }) == spec


class TestScenarioSampler:
    def make(self, spec=STRESS, seed=5, n=N_SERVERS):
        return ScenarioSampler(spec, n_servers=n, seed=seed)

    def test_deterministic_across_instances(self):
        a, b = self.make(), self.make()
        assert np.array_equal(a.tail_factors(), b.tail_factors())
        for window, hour in ((0, 0.0), (3, 6.0), (7, 14.0)):
            fa = a.load_factors(window, hour)
            fb = b.load_factors(window, hour)
            assert np.array_equal(fa, fb)

    def test_salt_decorrelates_masks(self):
        a = self.make()
        b = self.make(dataclasses.replace(STRESS, salt=1))
        assert not np.array_equal(a.tail_factors(), b.tail_factors())

    def test_untouched_servers_get_exactly_one(self):
        sampler = self.make()
        tail = sampler.tail_factors()
        assert ((tail == 1.0) | (tail == 2.0)).all()
        factors = sampler.load_factors(10, 3.0)  # incident only
        assert ((factors == 1.0) | (factors == 2.0)).all()

    def test_activation_windows(self):
        sampler = self.make()
        assert sampler.load_factors(0, 0.0) is None  # nothing load-active
        assert sampler.active_components(0.0) == ("stragglers",)
        assert "incident" in sampler.active_components(2.0)
        assert "incident" not in sampler.active_components(10.0)
        assert "migration" in sampler.active_components(23.0)  # no revert
        assert "flash_crowd" in sampler.active_components(12.0)
        assert "flash_crowd" not in sampler.active_components(18.0)

    def test_migration_conserves_balanced_load(self):
        sampler = self.make(ScenarioSpec(
            name="m", migration=Migration(start_hour=0.0, fraction=0.4,
                                          retain=0.25),
        ))
        factors = sampler.load_factors(0, 0.0)
        assert factors is not None
        assert np.isclose(factors.mean(), 1.0)

    def test_window_summary_counts_affected(self):
        sampler = self.make()
        tail = sampler.tail_factors()
        summary = sampler.window_summary(0.0, None, tail)
        assert summary["name"] == "stress"
        assert summary["active"] == ["stragglers"]
        assert summary["load_factor"] == 1.0
        assert summary["affected"] == int((tail != 1.0).sum())


class TestEngineBitIdentity:
    def test_null_scenario_is_bit_identical(self, surrogate):
        plain = make_engine(surrogate).run_day("web_search")
        calm = make_engine(
            surrogate, scenario=get_scenario("calm")
        ).run_day("web_search")
        assert_timelines_identical(plain, calm)

    def test_zero_magnitude_scenario_is_bit_identical(self, surrogate):
        plain = make_engine(surrogate).run_day("web_search")
        zero = make_engine(surrogate, scenario=ScenarioSpec(
            name="zero",
            stragglers=Stragglers(fraction=0.0),
            flash_crowd=FlashCrowd(magnitude=1.0),
        )).run_day("web_search")
        assert_timelines_identical(plain, zero)

    def test_perturbation_hurts_qos(self, surrogate):
        # Migration-style components can *relieve* pressure, so the
        # monotone check uses a purely hostile spec: half the fleet's
        # tails tripled, all day.
        hostile = ScenarioSpec(
            name="hostile", stragglers=Stragglers(fraction=0.5, slowdown=3.0)
        )
        plain = make_engine(surrogate).run_day("web_search")
        stressed = make_engine(surrogate, scenario=hostile).run_day(
            "web_search"
        )
        assert stressed.violation_rate > plain.violation_rate

    def test_window_record_carries_scenario_section(self, surrogate):
        record = make_engine(surrogate, scenario=STRESS).stepper(
            "web_search"
        ).step()
        assert record["scenario"]["name"] == "stress"
        assert record["scenario"]["active"] == ["stragglers"]
        plain_record = make_engine(surrogate).stepper("web_search").step()
        assert "scenario" not in plain_record

    def test_unaffected_servers_keep_exact_trajectories(self, surrogate):
        spec = ScenarioSpec(
            name="s", stragglers=Stragglers(fraction=0.3, slowdown=2.0)
        )
        config = fleet_config(n_servers=N_SERVERS)
        sampler = ScenarioSampler(
            spec, n_servers=N_SERVERS, seed=config.seed
        )
        untouched = sampler.tail_factors() == 1.0
        assert 0 < untouched.sum() < N_SERVERS
        plain = make_engine(surrogate).run_day("web_search")
        pert = make_engine(surrogate, scenario=spec).run_day("web_search")
        assert np.array_equal(
            plain.server_violations[untouched],
            pert.server_violations[untouched],
        )
        assert np.array_equal(
            plain.server_bmode_windows[untouched],
            pert.server_bmode_windows[untouched],
        )

    def test_shard_slice_invariance(self, surrogate):
        full = make_engine(surrogate, scenario=STRESS).run_day("web_search")
        mid = N_SERVERS // 2
        engine = make_engine(surrogate, scenario=STRESS)
        merged = FleetTimeline.merge([
            engine.run_day("web_search", server_range=(0, mid)),
            engine.run_day("web_search", server_range=(mid, N_SERVERS)),
        ])
        # Integer aggregates are exactly shard-invariant; float window
        # sums only to summation-order noise (the engine's own shard
        # contract).
        assert np.array_equal(merged.violations, full.violations)
        assert np.array_equal(merged.mode_counts, full.mode_counts)
        assert np.array_equal(merged.throttled, full.throttled)
        assert np.array_equal(
            merged.server_violations, full.server_violations
        )
        assert np.allclose(merged.tail_ms_sum, full.tail_ms_sum, rtol=1e-12)
        assert np.allclose(
            merged.batch_uipc_sum, full.batch_uipc_sum, rtol=1e-12
        )

    def test_checkpoint_resume_is_bit_identical(self, surrogate):
        baseline = make_engine(surrogate, scenario=STRESS).run_day(
            "web_search"
        )
        engine = make_engine(surrogate, scenario=STRESS)
        stepper = engine.stepper("web_search")
        for _ in range(5):
            stepper.step()
        values = stepper.state.to_values()
        resumed = engine.stepper(
            "web_search", state=FleetState.from_values(values)
        )
        while not resumed.state.done:
            resumed.step()
        assert_timelines_identical(baseline, resumed.state.timeline)


class TestShardJobScenario:
    def job(self, scenario=None):
        config = fleet_config(n_servers=N_SERVERS)
        return FleetShardJob(
            ls_profile=get_profile("web_search"),
            performance=performance_model(),
            config=config,
            loads=window_loads("web_search", config),
            lo=0,
            hi=N_SERVERS,
            surrogate_values=None,
            scenario=scenario,
        )

    def test_scenario_is_part_of_the_key(self):
        plain = self.job()
        stressed = self.job(STRESS)
        assert plain.key != stressed.key
        assert stressed.key == self.job(STRESS).key
        salted = self.job(dataclasses.replace(STRESS, salt=3))
        assert salted.key != stressed.key
