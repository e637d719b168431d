"""Tests for heterogeneous co-runner placement (repro.fleet.placement).

Covers the profile table, exact apportionment, the three placement
policies' determinism and shard invariance, the homogeneous
bit-compatibility anchor, heterogeneous sharded runs, the placement
verbs on the live service, and that heterogeneous steppers are freed
without the cyclic collector.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.core.colocation import ColocationPerformance, ModePerformance
from repro.core.stretch import StretchMode
from repro.engine.executor import EngineConfig, ExecutionEngine
from repro.engine.store import ResultStore
from repro.fleet import (
    CorunnerTable,
    FleetConfig,
    FleetEngine,
    FleetTimeline,
    PLACEMENT_NAMES,
    fit_tail_surrogate,
    make_placement,
    mix_counts,
    run_fleet_sharded,
)
from repro.fleet.placement import (
    DEFAULT_EPOCH_WINDOWS,
    PlacementContext,
    SymbiosisPlacement,
)
from repro.service import FleetService
from repro.workloads.registry import get_profile

from tests.test_fleet import (
    TEST_GRID,
    fleet_config,
    performance_model,
)


def corunner_model(
    batch: str, base_ls: float, base_batch: float
) -> ColocationPerformance:
    """Hand-built co-runner model (distinct factors per profile)."""
    return ColocationPerformance(
        ls_workload="web_search",
        batch_workload=batch,
        ls_solo_uipc=0.6,
        per_mode={
            StretchMode.BASELINE: ModePerformance(base_ls, base_batch),
            StretchMode.B_MODE: ModePerformance(
                base_ls - 0.06, base_batch + 0.08
            ),
            StretchMode.Q_MODE: ModePerformance(
                base_ls + 0.05, base_batch - 0.10
            ),
        },
    )


#: zeusmp matches the homogeneous model exactly (the bit-identity anchor);
#: lbm is the aggressor, milc the friendly co-runner.
def corunner_models() -> tuple[ColocationPerformance, ...]:
    return (
        performance_model(),  # zeusmp, identical to the homogeneous model
        corunner_model("lbm", 0.44, 0.55),
        corunner_model("milc", 0.56, 0.35),
    )


POPULATION = ("zeusmp", "lbm", "milc")


def het_config(**kwargs) -> FleetConfig:
    defaults = dict(population=POPULATION, placement="random")
    defaults.update(kwargs)
    return fleet_config(**defaults)


@pytest.fixture(scope="module")
def het_surrogate():
    engine = FleetEngine(
        get_profile("web_search"),
        performance_model(),
        het_config(),
        corunners=corunner_models(),
    )
    return fit_tail_surrogate(
        get_profile("web_search").qos, engine.perf_factors, TEST_GRID
    )


def make_het_engine(het_surrogate, **cfg_kwargs) -> FleetEngine:
    return FleetEngine(
        get_profile("web_search"),
        performance_model(),
        het_config(**cfg_kwargs),
        surrogate=het_surrogate,
        corunners=corunner_models(),
    )


def make_context(n_servers=32, n_windows=12, seed=7, mix=None) -> PlacementContext:
    table = CorunnerTable.from_performances(corunner_models())
    return PlacementContext(
        n_servers=n_servers,
        n_windows=n_windows,
        seed=seed,
        mix=np.asarray(mix if mix is not None else [1.0] * table.n_profiles),
        table=table,
    )


class TestMixCounts:
    def test_exact_apportionment(self):
        counts = mix_counts(10, np.array([1.0, 1.0, 1.0]))
        assert counts.sum() == 10
        assert counts.tolist() == [4, 3, 3]  # stable ties: earlier wins

    def test_proportional(self):
        counts = mix_counts(100, np.array([3.0, 1.0]))
        assert counts.tolist() == [75, 25]

    def test_every_size_sums(self):
        mix = np.array([0.5, 0.3, 0.2])
        for n in range(1, 40):
            assert mix_counts(n, mix).sum() == n


class TestCorunnerTable:
    def test_from_performances(self):
        table = CorunnerTable.from_performances(corunner_models())
        assert table.profiles == POPULATION
        assert table.perf_rows.shape == (3, 4)
        assert table.batch_rows.shape == (3, 4)
        # Throttled column: LS runs unimpeded, batch contributes nothing.
        assert np.all(table.perf_rows[:, 3] == 1.0)
        assert np.all(table.batch_rows[:, 3] == 0.0)

    def test_rejects_empty_and_mixed_ls(self):
        with pytest.raises(ValueError, match="at least one profile"):
            CorunnerTable.from_performances(())
        other = ColocationPerformance(
            ls_workload="media_streaming",
            batch_workload="lbm",
            ls_solo_uipc=0.5,
            per_mode={
                mode: ModePerformance(0.4, 0.4)
                for mode in (
                    StretchMode.BASELINE, StretchMode.B_MODE,
                    StretchMode.Q_MODE,
                )
            },
        )
        with pytest.raises(ValueError, match="disagree on the LS workload"):
            CorunnerTable.from_performances((performance_model(), other))

    def test_friendliness_is_baseline_factor(self):
        table = CorunnerTable.from_performances(corunner_models())
        # milc (0.56 baseline LS UIPC) is friendlier than lbm (0.44).
        friendliness = table.friendliness()
        assert friendliness[2] > friendliness[0] > friendliness[1]

    def test_perf_factors_cover_all_profiles(self):
        table = CorunnerTable.from_performances(corunner_models())
        factors = table.perf_factors
        assert set(np.round(table.perf_rows.ravel(), 12)) <= {
            round(f, 12) for f in factors
        }


class TestFleetConfigValidation:
    def test_population_mix_length_mismatch(self):
        with pytest.raises(ValueError, match="population_mix"):
            het_config(population_mix=(1.0,))

    def test_duplicate_population(self):
        with pytest.raises(ValueError, match="unique"):
            fleet_config(population=("lbm", "lbm"))

    def test_unknown_placement(self):
        with pytest.raises(KeyError, match="unknown placement policy"):
            het_config(placement="alphabetical")

    def test_placement_epoch_positive(self):
        with pytest.raises(ValueError, match="placement_epoch"):
            het_config(placement_epoch=0)

    def test_mix_fractions_default_uniform(self):
        cfg = het_config()
        assert cfg.mix_fractions == pytest.approx((1 / 3, 1 / 3, 1 / 3))
        weighted = het_config(population_mix=(2.0, 1.0, 1.0))
        assert weighted.mix_fractions == pytest.approx((0.5, 0.25, 0.25))

    def test_engine_rejects_mismatched_corunners(self):
        with pytest.raises(ValueError, match="co-runner models"):
            FleetEngine(
                get_profile("web_search"), performance_model(), het_config(),
                corunners=corunner_models()[:2],
            )
        with pytest.raises(ValueError, match="population"):
            FleetEngine(
                get_profile("web_search"), performance_model(),
                fleet_config(),
                corunners=corunner_models(),
            )


class TestPlacementPolicies:
    def test_all_policies_deterministic(self):
        for name in PLACEMENT_NAMES:
            policy = make_placement(name)
            a = policy.assign(0, make_context())
            b = policy.assign(0, make_context())
            assert np.array_equal(a, b), name

    def test_assignments_respect_exact_mix(self):
        ctx = make_context(n_servers=32, mix=[2.0, 1.0, 1.0])
        for name in PLACEMENT_NAMES:
            assign = make_placement(name).assign(0, ctx)
            counts = np.bincount(assign, minlength=3)
            assert counts.tolist() == [16, 8, 8], name

    def test_slice_invariance(self):
        # A shard's [lo, hi) slice equals the full-fleet assignment slice
        # whatever the shard layout — same discipline as the balancing
        # policies.
        for name in PLACEMENT_NAMES:
            full = make_placement(name).assign(5, make_context(n_servers=48))
            for lo, hi in ((0, 16), (16, 31), (31, 48)):
                part = make_placement(name).assign(
                    5, make_context(n_servers=48)
                )[lo:hi]
                assert np.array_equal(part, full[lo:hi]), (name, lo, hi)

    def test_epoch_boundaries(self):
        policy = make_placement("random", epoch_windows=3)
        within = [
            policy.assign(w, make_context()) for w in (0, 1, 2)
        ]
        assert np.array_equal(within[0], within[1])
        assert np.array_equal(within[0], within[2])
        nxt = policy.assign(3, make_context())
        assert not np.array_equal(within[0], nxt)

    def test_locality_is_static_contiguous_blocks(self):
        policy = make_placement("locality")
        first = policy.assign(0, make_context())
        later = policy.assign(7 * DEFAULT_EPOCH_WINDOWS, make_context())
        assert np.array_equal(first, later)
        # Contiguous blocks: the assignment changes value at most P-1 times.
        assert int((np.diff(first) != 0).sum()) <= 2

    def test_symbiosis_matches_friendly_to_loaded(self):
        ctx = make_context(n_servers=30)
        rel = np.linspace(2.0, 0.5, 30)  # server 0 most loaded
        ctx.relative_loads = lambda window: rel
        assign = SymbiosisPlacement().assign(0, ctx)
        friendliness = ctx.table.friendliness()[assign]
        # Friendliness must be non-increasing down the load ranking.
        assert np.all(np.diff(friendliness[np.argsort(-rel)]) <= 1e-12)

    def test_symbiosis_beats_random_on_load_alignment(self):
        ctx = make_context(n_servers=60)
        rng = np.random.default_rng(0)
        rel = rng.uniform(0.5, 1.5, 60)
        ctx.relative_loads = lambda window: rel
        sym = SymbiosisPlacement().assign(0, ctx)
        rnd = make_placement("random").assign(0, ctx)
        friendliness = ctx.table.friendliness()
        # Symbiosis correlates friendliness with load strictly better.
        corr = lambda a: float(np.corrcoef(rel, friendliness[a])[0, 1])
        assert corr(sym) > corr(rnd)
        assert corr(sym) > 0.9


class TestHeterogeneousEngine:
    def test_single_profile_population_bit_identical(self, het_surrogate):
        """A 1-profile population matching the homogeneous model is the
        placement layer run with zero degrees of freedom — timelines must
        be bit-identical to placement-off."""
        base = FleetEngine(
            get_profile("web_search"), performance_model(), fleet_config(),
            surrogate=het_surrogate,
        ).run_day("web_search")
        for placement in PLACEMENT_NAMES:
            cfg = fleet_config(
                population=("zeusmp",), placement=placement
            )
            day = FleetEngine(
                get_profile("web_search"), performance_model(), cfg,
                surrogate=het_surrogate,
                corunners=(performance_model(),),
            ).run_day("web_search")
            assert day.to_values() == base.to_values(), placement

    def test_heterogeneous_changes_results(self, het_surrogate):
        homog = FleetEngine(
            get_profile("web_search"), performance_model(), fleet_config(),
            surrogate=het_surrogate,
        ).run_day("web_search")
        het = make_het_engine(het_surrogate).run_day("web_search")
        assert not np.array_equal(homog.batch_uipc_sum, het.batch_uipc_sum)

    def test_sharding_invariance(self, het_surrogate):
        engine = make_het_engine(het_surrogate, n_servers=12)
        full = engine.run_day("web_search")
        parts = [
            engine.run_day("web_search", server_range=(lo, hi))
            for lo, hi in ((0, 5), (5, 6), (6, 12))
        ]
        merged = FleetTimeline.merge(parts)
        assert np.array_equal(merged.violations, full.violations)
        assert np.array_equal(merged.mode_counts, full.mode_counts)
        assert np.allclose(
            merged.batch_uipc_sum, full.batch_uipc_sum, rtol=1e-12
        )

    def test_baseline_batch_uipc_is_mix_weighted(self):
        engine = FleetEngine(
            get_profile("web_search"), performance_model(),
            het_config(n_servers=9),
            corunners=corunner_models(),
        )
        counts = mix_counts(9, np.asarray(het_config().mix_fractions))
        expected = float(
            counts @ engine.corunner_table.batch_rows[:, 0]
        ) / 9
        assert engine.baseline_batch_uipc == pytest.approx(expected)

    def test_step_record_reports_occupancy(self, het_surrogate):
        stepper = make_het_engine(het_surrogate).stepper("web_search")
        record = stepper.step()
        assert record["placement"] == stepper.last_placement
        assert sum(record["placement"].values()) == 8
        assert set(record["placement"]) == set(POPULATION)

    def test_run_fleet_sharded_heterogeneous(self, het_surrogate, tmp_path):
        config = het_config(n_servers=12)
        full = FleetEngine(
            get_profile("web_search"), performance_model(), config,
            surrogate=het_surrogate, corunners=corunner_models(),
        ).run_day("web_search")
        sharded = run_fleet_sharded(
            get_profile("web_search"), performance_model(), config,
            "web_search",
            engine=ExecutionEngine(EngineConfig(workers=2)),
            store=ResultStore(tmp_path), n_shards=3,
            surrogate=het_surrogate, corunners=corunner_models(),
        )
        assert np.array_equal(sharded.violations, full.violations)
        assert np.array_equal(sharded.mode_counts, full.mode_counts)
        assert np.allclose(
            sharded.batch_uipc_sum, full.batch_uipc_sum, rtol=1e-12
        )


class TestServicePlacement:
    def make_service(self, het_surrogate, **kwargs) -> FleetService:
        return FleetService(
            make_het_engine(het_surrogate), "web_search", **kwargs
        )

    def test_status_reports_placement(self, het_surrogate):
        service = self.make_service(het_surrogate)
        service.advance(2)
        status = service.status()
        assert status["placement"] == "random"
        assert status["population"] == pytest.approx(
            {name: 1 / 3 for name in POPULATION}
        )

    def test_whatif_placement(self, het_surrogate):
        service = self.make_service(het_surrogate)
        service.advance(2)
        result = service.whatif(placement="symbiosis", horizon=4)
        assert result["placement"] == "symbiosis"
        assert "violation_rate" in result["diff"]

    def test_reconfigure_placement(self, het_surrogate):
        service = self.make_service(het_surrogate)
        service.advance(2)
        result = service.reconfigure(placement="locality")
        assert result["placement"] == "locality"
        assert service.engine.config.placement == "locality"
        service.advance(2)
        assert service.status()["placement"] == "locality"


class TestHomogeneousStatusUnchanged:
    def test_status_has_no_placement_keys(self, het_surrogate):
        engine = FleetEngine(
            get_profile("web_search"), performance_model(), fleet_config(),
            surrogate=het_surrogate,
        )
        service = FleetService(engine, "web_search")
        service.advance(1)
        status = service.status()
        assert "placement" not in status
        assert "population" not in status
        with pytest.raises(ValueError, match="heterogeneous population"):
            service.whatif(placement="symbiosis")
        with pytest.raises(ValueError, match="heterogeneous population"):
            service.reconfigure(placement="symbiosis")


class TestFreedWithoutCycleCollector:
    """Heterogeneous steppers die by reference counting alone.

    The placement context's balancing-weight callback must not refer back
    to its stepper; with such a cycle every what-if fork lives until the
    cyclic collector runs.
    """

    @pytest.fixture
    def collector_off(self):
        gc.collect()
        gc.disable()
        yield
        gc.enable()

    def test_stepper_freed_on_del(self, het_surrogate, collector_off):
        homogeneous = FleetEngine(
            get_profile("web_search"), performance_model(), fleet_config(),
            surrogate=het_surrogate,
        )
        for engine in (homogeneous, make_het_engine(het_surrogate)):
            stepper = engine.stepper()
            stepper.step(0.6)
            ref = weakref.ref(stepper)
            del stepper
            assert ref() is None, engine.config.population

    def test_whatif_fork_freed(self, het_surrogate, collector_off, monkeypatch):
        service = FleetService(make_het_engine(het_surrogate), "web_search")
        service.advance(2)
        forks = []
        fork = service._fork

        def recording_fork(engine):
            stepper = fork(engine)
            forks.append((engine is service.engine, weakref.ref(stepper)))
            return stepper

        monkeypatch.setattr(service, "_fork", recording_fork)
        service.whatif(placement="symbiosis", horizon=3)
        shadows = [ref for live, ref in forks if not live]
        assert len(shadows) == 1
        assert shadows[0]() is None
