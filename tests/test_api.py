"""Tests for the stable `repro.api` facade."""

import dataclasses
import inspect
import os
import threading
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import repro.fleet.engine as fleet_engine
from repro import api
from repro.core.colocation import ColocationPerformance, ModePerformance
from repro.core.monitor import MonitorConfig
from repro.core.partitioning import (
    BASELINE,
    DEFAULT_B_MODE,
    DEFAULT_Q_MODE,
    PartitionScheme,
)
from repro.core.stretch import StretchMode
from repro.cpu.config import CoreConfig
from repro.cpu.fast_core import FastCore
from repro.cpu.sampling import (
    SamplingConfig,
    mean_uipc,
    sample_colocation,
    sample_solo,
)
from repro.cpu.surrogate import UipcFitJob, UipcGrid
from repro.engine.executor import ExecutionEngine
from repro.engine.store import CACHE_VERSION, ResultStore, reset_default_stores
from repro.experiments.common import Fidelity
from repro.fleet import (
    FleetConfig,
    FleetEngine,
    FleetTimeline,
    SurrogateGrid,
    fit_tail_surrogate,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import disable_profiling, enable_profiling
from repro.qos import queueing
from repro.tune import PortfolioEntry, confirm_candidates, tune_monitor
from repro.workloads.registry import get_profile
from tests.test_cluster import golden_cases, golden_config, golden_spec


def measure_in_process(
    ls_profile,
    batch_profile,
    base_config: CoreConfig | None = None,
    b_mode: PartitionScheme = DEFAULT_B_MODE,
    q_mode: PartitionScheme | None = DEFAULT_Q_MODE,
    sampling: SamplingConfig = SamplingConfig(),
) -> ColocationPerformance:
    """Oracle for ``api.measure``: the pair's grid sampled in process.

    The library's own in-process implementation before every measurement
    went through the memoized store, kept here as the reference.
    """
    config = base_config or CoreConfig()
    solo = mean_uipc(
        sample_solo(ls_profile, config.single_thread(config.rob_entries), sampling)
    )
    schemes: dict[StretchMode, PartitionScheme] = {
        StretchMode.BASELINE: BASELINE,
        StretchMode.B_MODE: b_mode,
    }
    if q_mode is not None:
        schemes[StretchMode.Q_MODE] = q_mode
    per_mode = {}
    for mode, scheme in schemes.items():
        results = sample_colocation(
            ls_profile, batch_profile, scheme.apply(config), sampling
        )
        per_mode[mode] = ModePerformance(
            ls_uipc=mean_uipc(results, 0), batch_uipc=mean_uipc(results, 1)
        )
    if q_mode is None:
        per_mode[StretchMode.Q_MODE] = per_mode[StretchMode.BASELINE]
    return ColocationPerformance(
        ls_workload=ls_profile.name,
        batch_workload=batch_profile.name,
        ls_solo_uipc=solo,
        per_mode=per_mode,
    )


@pytest.fixture
def isolated_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    reset_default_stores()
    yield
    reset_default_stores()


def performance_model() -> ColocationPerformance:
    return ColocationPerformance(
        ls_workload="web_search",
        batch_workload="zeusmp",
        ls_solo_uipc=0.6,
        per_mode={
            StretchMode.BASELINE: ModePerformance(0.52, 0.50),
            StretchMode.B_MODE: ModePerformance(0.46, 0.58),
            StretchMode.Q_MODE: ModePerformance(0.58, 0.40),
        },
    )


class TestResolveSampling:
    def test_defaults_to_library_sampling(self):
        assert api._resolve_effort(None, None, None, None)[0] == SamplingConfig()

    def test_sampling_with_overrides(self):
        base = SamplingConfig(n_samples=4, seed=1)
        out = api._resolve_effort(base, None, 9, 2)[0]
        assert out == dataclasses.replace(base, seed=9, n_samples=2)

    def test_fidelity_names(self):
        quick = api._resolve_effort(None, "quick", None, None)[0]
        assert quick == Fidelity.quick(42).sampling
        seeded = api._resolve_effort(None, "full", 7, None)[0]
        assert seeded == Fidelity.full(7).sampling
        explicit = api._resolve_effort(None, Fidelity.quick(3), None, None)[0]
        assert explicit == Fidelity.quick(3).sampling

    def test_conflicts_and_unknowns(self):
        with pytest.raises(ValueError, match="not both"):
            api._resolve_effort(SamplingConfig(), "quick", None, None)
        with pytest.raises(ValueError, match="fidelity"):
            api._resolve_effort(None, "medium", None, None)


class TestSimulate(object):
    def test_solo_matches_measure_reference(self, tiny_sampling):
        solo = api.simulate("web_search", sampling=tiny_sampling)
        perf = api.measure("web_search", "zeusmp", sampling=tiny_sampling)
        assert solo == perf.ls_solo_uipc

    def test_pair_modes(self, tiny_sampling):
        perf = api.measure("web_search", "zeusmp", sampling=tiny_sampling)
        baseline = api.simulate(
            ("web_search", "zeusmp"), sampling=tiny_sampling
        )
        assert baseline == (
            perf.per_mode[StretchMode.BASELINE].ls_uipc,
            perf.per_mode[StretchMode.BASELINE].batch_uipc,
        )
        for mode_spec in ("b_mode", StretchMode.B_MODE, DEFAULT_B_MODE):
            pair = api.simulate(
                ("web_search", "zeusmp"), mode=mode_spec,
                sampling=tiny_sampling,
            )
            assert pair == (
                perf.per_mode[StretchMode.B_MODE].ls_uipc,
                perf.per_mode[StretchMode.B_MODE].batch_uipc,
            )

    def test_engines_agree(self, tiny_sampling):
        # engine= is a deprecated no-op: one warning, pointing at this
        # caller, and the memoized path's value.
        stored = api.simulate("web_search", sampling=tiny_sampling)
        for engine in ("direct", "store"):
            with pytest.warns(DeprecationWarning, match="engine=") as caught:
                value = api.simulate(
                    "web_search", sampling=tiny_sampling, engine=engine
                )
            assert value == stored
            assert len(caught) == 1 and caught[0].filename == __file__
        with pytest.warns(DeprecationWarning, match="engine="):
            perf = api.measure(
                "web_search", "zeusmp", sampling=tiny_sampling, engine="direct"
            )
        assert perf == api.measure(
            "web_search", "zeusmp", sampling=tiny_sampling
        )

    def test_rejections(self, tiny_sampling):
        with pytest.raises(ValueError, match="pairs only"):
            api.simulate("web_search", mode="b_mode", sampling=tiny_sampling)
        with pytest.raises(ValueError, match="engine"):
            api.simulate("web_search", engine="quantum", sampling=tiny_sampling)
        with pytest.raises(ValueError, match="unknown mode"):
            api.simulate(
                ("web_search", "zeusmp"), mode="turbo", sampling=tiny_sampling
            )


class TestMeasure:
    def test_matches_legacy_implementation(self, tiny_sampling):
        ls, batch = get_profile("web_search"), get_profile("zeusmp")
        legacy = measure_in_process(ls, batch, sampling=tiny_sampling)
        facade = api.measure("web_search", "zeusmp", sampling=tiny_sampling)
        assert facade == legacy

    def test_q_mode_none_copies_baseline(self, tiny_sampling):
        perf = api.measure(
            "web_search", "zeusmp", q_mode=None, sampling=tiny_sampling
        )
        assert perf.per_mode[StretchMode.Q_MODE] == (
            perf.per_mode[StretchMode.BASELINE]
        )

    def test_custom_profile_memoizes_under_its_own_key(
        self, tiny_sampling, isolated_store, monkeypatch
    ):
        custom = dataclasses.replace(
            get_profile("web_search"), cold_miss_frac=0.2
        )
        first = api.measure(custom, "zeusmp", sampling=tiny_sampling)
        runs = []
        core_run = FastCore.run

        def counting(self, *args, **kwargs):
            runs.append(1)
            return core_run(self, *args, **kwargs)

        monkeypatch.setattr(FastCore, "run", counting)
        second = api.measure(custom, "zeusmp", sampling=tiny_sampling)
        assert len(runs) == 0
        oracle = measure_in_process(
            custom, get_profile("zeusmp"), sampling=tiny_sampling
        )
        assert first == second == oracle
        registered = api.measure("web_search", "zeusmp", sampling=tiny_sampling)
        assert first.ls_workload == registered.ls_workload == "web_search"
        assert first.ls_solo_uipc != registered.ls_solo_uipc
        assert first.per_mode != registered.per_mode


class TestRunDay:
    def test_fixed_monitor_day(self):
        timeline = api.run_day(
            "web_search", performance=performance_model(),
            load="flat:0.3", window_minutes=240, requests_per_window=300,
            seed=11,
        )
        assert len(timeline.windows) == 6
        assert all(w.load_fraction == pytest.approx(0.3) for w in timeline.windows)

    def test_adaptive_day(self):
        from repro.core.adaptive import AdaptiveStretchPolicy
        from repro.core.partitioning import B_MODES

        perf = performance_model()
        qos = get_profile("web_search").qos
        policy = AdaptiveStretchPolicy(qos, perf, tuple(B_MODES))
        timeline = api.run_day(
            "web_search", performance=perf, load="flat:0.2",
            adaptive=policy, window_minutes=240, requests_per_window=300,
            seed=11,
        )
        assert len(timeline.windows) == 6
        assert any(w.scheme != "96-96" for w in timeline.windows)

    def test_metrics_publish_fleet_instruments(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        timeline = api.run_day(
            "web_search", performance=performance_model(),
            load="flat:0.3", window_minutes=240, requests_per_window=300,
            seed=11, metrics=registry,
        )
        assert registry.counter("fleet.windows").value == 6
        assert registry.gauge("fleet.violation_rate").value == (
            timeline.violation_rate
        )
        assert registry.gauge("fleet.mode_occupancy.b_mode").value == (
            timeline.bmode_fraction
        )
        assert not any(name.startswith(("monitor.", "service.", "adaptive."))
                       for name in registry.collect())

    def test_callable_load_and_missing_model(self):
        timeline = api.run_day(
            "web_search", performance=performance_model(),
            load=lambda hour: 0.25, window_minutes=480,
            requests_per_window=200,
        )
        assert len(timeline.windows) == 3
        with pytest.raises(ValueError, match="performance model"):
            api.run_day("web_search")


#: Integer aggregates of a fleet day: equal across process models.
INTEGER_FIELDS = (
    "mode_counts", "violations", "throttled",
    "server_violations", "server_bmode_windows",
)


@pytest.fixture(scope="module")
def small_surrogate():
    """A coarse tail surrogate covering performance_model()'s factors."""
    grid = SurrogateGrid(
        loads=(0.02, 0.6, 1.2), n_requests=300, peak_requests=20000,
        n_reps=2, n_val_reps=1, seed=0,
    )
    profile = get_profile("web_search")
    factors = FleetEngine(profile, performance_model()).perf_factors
    return fit_tail_surrogate(profile.qos, factors, grid)


class TestRunFleet:
    def test_exact_and_legacy_engines_agree(self):
        # The exact tail reproduces the retired per-object cluster loop's
        # frozen day bit for bit (tests/golden/fleet_exact_legacy.json).
        spec = golden_spec("web_search_2x240")
        exact = api.run_fleet(
            spec["ls"], performance=performance_model(), load=spec["load"],
            config=golden_config(spec), tail="exact",
        )
        assert isinstance(exact, FleetTimeline)
        assert list(exact.to_values()) == (
            golden_cases()["web_search_2x240"]["timeline"]
        )

    def test_unknown_engine_and_missing_model(self):
        # run_fleet has no engine= keyword: tail= and workers= replaced it.
        with pytest.raises(TypeError, match="engine"):
            api.run_fleet(
                "web_search", performance=performance_model(),
                engine="exact",
            )
        with pytest.raises(ValueError, match="performance model"):
            api.run_fleet("web_search")

    @pytest.mark.parametrize("kwargs, match", [
        (dict(tail="warp"), "tail must be"),
        (dict(workers=0), "workers must be"),
        (dict(workers=-2, tail="exact"), "workers must be"),
    ])
    def test_rejects_bad_tail_and_workers_before_any_work(
        self, monkeypatch, kwargs, match
    ):
        def forbidden(*args, **kw):
            raise AssertionError("built work before validating arguments")

        for name in ("measure", "FleetEngine", "run_fleet_sharded"):
            monkeypatch.setattr(api, name, forbidden)
        with pytest.raises(ValueError, match=match):
            api.run_fleet("web_search", "zeusmp", **kwargs)

    def test_pool_runs_custom_profile_and_callable_load(self, tmp_path):
        # Shard jobs carry the profile and the day's loads by value, so a
        # pool takes what an in-process day takes.
        profile = get_profile("web_search")
        custom = dataclasses.replace(
            profile, qos=dataclasses.replace(profile.qos, target_ms=60.0)
        )
        common = dict(
            performance=performance_model(), load=lambda hour: 0.3 + 0.02 * hour,
            n_servers=4, window_minutes=240.0, requests_per_window=300,
            seed=5, tail="exact",
        )
        in_process = api.run_fleet(custom, **common)
        pooled = api.run_fleet(
            custom, workers=2, store=ResultStore(tmp_path), **common
        )
        for field in INTEGER_FIELDS:
            assert np.array_equal(
                getattr(pooled, field), getattr(in_process, field)
            ), field
        assert np.allclose(pooled.tail_ms_sum, in_process.tail_ms_sum,
                           rtol=1e-12)

    @pytest.mark.parametrize("tail", ["surrogate", "exact"])
    def test_workers_run_shards_on_a_pool(
        self, tmp_path, monkeypatch, small_surrogate, tail
    ):
        calls = {"pool": 0, "serial": 0}
        run_pool = ExecutionEngine._run_pool
        run_serial = ExecutionEngine._run_serial

        def counting_pool(self, *args, **kwargs):
            calls["pool"] += 1
            return run_pool(self, *args, **kwargs)

        def counting_serial(self, *args, **kwargs):
            calls["serial"] += 1
            return run_serial(self, *args, **kwargs)

        monkeypatch.setattr(ExecutionEngine, "_run_pool", counting_pool)
        monkeypatch.setattr(ExecutionEngine, "_run_serial", counting_serial)
        common = dict(
            performance=performance_model(), load="web_search",
            n_servers=4, window_minutes=240.0, requests_per_window=300,
            seed=5, surrogate=small_surrogate, tail=tail,
        )
        in_process = api.run_fleet("web_search", **common)
        pooled = api.run_fleet(
            "web_search", workers=2, store=ResultStore(tmp_path), **common
        )
        assert calls == {"pool": 1, "serial": 0}
        for field in INTEGER_FIELDS:
            assert np.array_equal(
                getattr(pooled, field), getattr(in_process, field)
            ), field
        assert np.allclose(pooled.tail_ms_sum, in_process.tail_ms_sum,
                           rtol=1e-12)

    def test_profiled_pooled_day_reports_its_shards_sections(
        self, tmp_path, small_surrogate
    ):
        # The shard workers profile their stepping and ship it back.
        profiler = enable_profiling()
        try:
            profiler.reset()
            api.run_fleet(
                "web_search", performance=performance_model(),
                load="web_search", n_servers=4, window_minutes=240.0,
                requests_per_window=300, seed=5, surrogate=small_surrogate,
                workers=2, store=ResultStore(tmp_path),
            )
            sections = set(profiler.as_dict())
        finally:
            disable_profiling()
        assert {"engine.execute"} | {
            f"fleet.step.{phase}" for phase in (
                "loads", "gather", "tails", "aggregate", "monitor", "chunks"
            )
        } <= sections

    def test_facade_exported_from_package_root(self):
        import repro

        assert repro.simulate is api.simulate
        assert repro.measure is api.measure
        assert repro.run_day is api.run_day
        assert repro.run_fleet is api.run_fleet
        for name in ("simulate", "measure", "run_day", "run_fleet"):
            assert name in repro.__all__


class TestServe:
    @pytest.mark.parametrize("tail", ["warp", "Exact", None])
    def test_rejects_bad_tail_before_any_work(self, monkeypatch, tail):
        # run_fleet's check, before measure() or any fleet object.
        def forbidden(*args, **kw):
            raise AssertionError("built work before validating arguments")

        for name in ("measure", "FleetEngine", "FleetService"):
            monkeypatch.setattr(api, name, forbidden)
        with pytest.raises(ValueError, match="tail must be"):
            api.serve("web_search", "zeusmp", tail=tail)


# ----------------------------------------------------------------------
# Fleet settings: a FleetConfig plus same-named keyword overrides
# ----------------------------------------------------------------------

FLEET_FIELDS = tuple(f.name for f in dataclasses.fields(FleetConfig))
#: Each verb's measurement and fleet entry points, replaced by a trap in
#: the tests that must fail before any work.
VERB_WORK = {
    "run_fleet": ("measure", "FleetEngine", "run_fleet_sharded"),
    "serve": ("measure", "FleetEngine", "FleetService"),
    "tune_policy": ("measure", "tune_monitor", "confirm_candidates"),
}
TINY_PORTFOLIO = (PortfolioEntry("calm"), PortfolioEntry("incident"))


def spelled_out_config(**fields) -> FleetConfig:
    """A ``FleetConfig`` with all 14 fields given, ``fields`` overriding the
    defaults run_fleet and serve used to list as their own keywords."""
    built = dict(
        n_servers=1000, overprovision=1.2, balance_jitter=0.05,
        policy="jittered", window_minutes=10.0, requests_per_window=2000,
        n_workers=8, q_mode_available=True, seed=0, monitor=MonitorConfig(),
        population=(), population_mix=(), placement="random",
        placement_epoch=6,
    )
    built.update(fields)
    return FleetConfig(**built)


class _Built(Exception):
    """Raised by a capturing stub once it holds the verb's FleetConfig."""


class TestFleetKeywords:
    def test_signatures_name_no_fleet_field(self):
        for verb in VERB_WORK:
            params = inspect.signature(getattr(api, verb)).parameters
            assert not set(params) & set(FLEET_FIELDS), verb
            assert params["fleet"].kind is inspect.Parameter.VAR_KEYWORD
        assert "metrics" not in inspect.signature(FleetEngine).parameters

    def test_run_fleet_applies_keywords_over_config(self):
        # Keywords passed beside config= used to be dropped silently: this
        # call returned the 2-server, seed-3 day.
        common = dict(
            performance=performance_model(), load="flat:0.3", tail="exact",
        )
        merged = api.run_fleet(
            "web_search",
            config=FleetConfig(
                n_servers=2, window_minutes=480.0, requests_per_window=200,
                seed=3,
            ),
            n_servers=5, seed=99, policy="uniform", **common,
        )
        explicit = api.run_fleet(
            "web_search",
            config=FleetConfig(
                n_servers=5, window_minutes=480.0, requests_per_window=200,
                seed=99, policy="uniform",
            ),
            **common,
        )
        assert merged.n_servers == 5
        assert merged.to_values() == explicit.to_values()

    def test_serve_applies_keywords_over_config(self, small_surrogate):
        base = FleetConfig(
            n_servers=2, window_minutes=240.0, requests_per_window=300, seed=3
        )
        common = dict(
            performance=performance_model(), feed="web_search",
            surrogate=small_surrogate,
        )
        merged = api.serve(
            "web_search", config=base, n_servers=4, seed=9,
            monitor=MonitorConfig(engage_windows=2), **common,
        )
        explicit = api.serve(
            "web_search",
            config=dataclasses.replace(
                base, n_servers=4, seed=9,
                monitor=MonitorConfig(engage_windows=2),
            ),
            **common,
        )
        assert merged.engine.config == explicit.engine.config
        merged.run(), explicit.run()
        assert merged.timeline.to_values() == explicit.timeline.to_values()

    def test_tune_policy_applies_keywords_over_config(
        self, tmp_path, small_surrogate
    ):
        base = FleetConfig(
            n_servers=2, window_minutes=240.0, requests_per_window=300, seed=3
        )
        keywords = dict(n_servers=16, window_minutes=60.0, seed=5)
        common = dict(
            performance=performance_model(), portfolio=TINY_PORTFOLIO,
            n_trials=1, descent_rounds=0, surrogate=small_surrogate,
        )
        merged, explicit, base_only = (
            api.tune_policy(
                "web_search", store=ResultStore(tmp_path / name),
                **fleet, **common,
            )
            for name, fleet in (
                ("merged", dict(config=base, **keywords)),
                ("explicit", dict(
                    config=dataclasses.replace(base, **keywords)
                )),
                ("base", dict(config=base)),
            )
        )
        assert merged == explicit
        assert merged.fleet_runs > 0
        assert merged.best.outcomes != base_only.best.outcomes

    @pytest.mark.parametrize("verb", sorted(VERB_WORK))
    def test_misspelt_field_raises_before_any_work(self, monkeypatch, verb):
        def forbidden(*args, **kw):
            raise AssertionError("built work before validating arguments")

        for name in VERB_WORK[verb]:
            monkeypatch.setattr(api, name, forbidden)
        with pytest.raises(TypeError, match="n_server"):
            getattr(api, verb)("web_search", "zeusmp", n_server=5)
        with pytest.raises(TypeError, match="n_server"):
            getattr(api, verb)(
                "web_search", "zeusmp", config=FleetConfig(), n_server=5
            )

    def test_in_repo_call_shapes_build_unchanged_configs(self, monkeypatch):
        # The fleet each in-repo caller gets is the one it got when the
        # verbs copied the fields as their own keywords: same value, same
        # repr, so no shard key or checkpoint identity moves.
        from repro.experiments import ext_fleet, ext_placement, runner

        built = []

        def capture(ls_profile, performance, config, **kwargs):
            built.append(config)
            raise _Built

        monkeypatch.setattr(api, "measure", lambda *a, **kw: performance_model())
        monkeypatch.setattr(api, "FleetEngine", capture)
        monkeypatch.setattr(api, "tune_monitor", capture)
        perf = performance_model()
        corunners = (perf,) * len(ext_placement.POPULATION)
        calls = [
            # repro.experiments.ext_fleet
            (lambda: api.run_fleet(
                "web_search", performance=perf, load="web_search",
                n_servers=10_000, seed=ext_fleet.SEED, surrogate=None,
            ), spelled_out_config(n_servers=10_000, seed=ext_fleet.SEED)),
            # repro.experiments.ext_placement: homogeneous, then a policy
            (lambda: api.run_fleet(
                "web_search", performance=perf, load=ext_placement.LOAD,
                n_servers=1000, seed=ext_placement.SEED, surrogate=None,
            ), spelled_out_config(seed=ext_placement.SEED)),
            (lambda: api.run_fleet(
                "web_search", performance=perf, load=ext_placement.LOAD,
                n_servers=1000, seed=ext_placement.SEED, surrogate=None,
                population=ext_placement.POPULATION, placement="symbiosis",
                corunners=corunners,
            ), spelled_out_config(
                seed=ext_placement.SEED,
                population=ext_placement.POPULATION, placement="symbiosis",
            )),
            # examples/cluster_capacity.py (an int window length stays int)
            (lambda: api.run_fleet(
                "web_search", performance=perf, load="web_search",
                tail="exact", n_servers=4, overprovision=1.25, seed=17,
                window_minutes=20, requests_per_window=1000,
            ), spelled_out_config(
                n_servers=4, overprovision=1.25, seed=17, window_minutes=20,
                requests_per_window=1000,
            )),
            # `stretch-repro serve` with its default flags
            (lambda: runner.main(["serve", "--no-control"]), spelled_out_config()),
            # perfbench's serve-whatif options, live and resumed
            *(
                (lambda extra=extra: api.serve(
                    "web_search", "zeusmp", registry=MetricsRegistry(),
                    feed="web_search", n_servers=20_000,
                    population=("zeusmp", "lbm", "milc", "namd"),
                    scenario="black_friday", seed=0, fidelity="quick",
                    slos=["qos:violation_rate<0.05"], recorder=True,
                    postmortem_path="postmortem.jsonl", **extra,
                ), spelled_out_config(
                    n_servers=20_000,
                    population=("zeusmp", "lbm", "milc", "namd"),
                ))
                for extra in ({}, {"resume": "mid-day-key"})
            ),
            # tune_policy's defaults, which set seven fields by hand
            (lambda: api.tune_policy("web_search", performance=perf),
             FleetConfig(
                 n_servers=1000, policy="jittered", window_minutes=10.0,
                 requests_per_window=2000, q_mode_available=True, seed=0,
                 monitor=MonitorConfig(),
             )),
        ]
        for call, expected in calls:
            built.clear()
            with pytest.raises(_Built):
                call()
            assert built == [expected]
            assert repr(built[0]) == repr(expected)

    def test_run_fleet_publishes_metrics_under_either_process_model(
        self, tmp_path, small_surrogate
    ):
        common = dict(
            performance=performance_model(), load="web_search",
            n_servers=4, window_minutes=240.0, requests_per_window=300,
            seed=5, surrogate=small_surrogate,
        )
        registries = {}
        for workers in (1, 2):
            registries[workers] = MetricsRegistry()
            day = api.run_fleet(
                "web_search", workers=workers, metrics=registries[workers],
                store=ResultStore(tmp_path), **common,
            )
            assert registries[workers].counter("fleet.windows").value == (
                day.total_windows
            )
        for name in ("fleet.violation_rate", "fleet.mode_occupancy.b_mode",
                     "fleet.throttled_fraction"):
            assert registries[1].gauge(name).value == (
                registries[2].gauge(name).value
            ), name


#: The surrogate tier of tests/test_job_grids.py: tiny samples, a coarse
#: UIPC grid (3-job fits) over the stock anchor range.
SURROGATE_TIER = Fidelity(
    "surrogate",
    SamplingConfig(n_samples=2, warmup_instructions=500,
                   measure_instructions=600, seed=11),
    grid=UipcGrid(
        solo_anchors=(1 / 12, 1.0), solo_validation=(1 / 2,),
        pair_anchors=(1 / 6, 5 / 6), pair_validation=(1 / 2,),
        n_val_reps=1,
    ),
)


class TestTunePolicy:
    def test_surrogate_screening_confirms_at_the_exact_tier(
        self, isolated_store
    ):
        ls = get_profile("web_search")
        fleet = dict(n_servers=16, requests_per_window=300)
        config = FleetConfig(**fleet)
        screened = api.measure(ls, "zeusmp", fidelity=SURROGATE_TIER)
        exact = api.measure(ls, "zeusmp", sampling=SURROGATE_TIER.sampling)
        # One coarse tail surrogate covering both passes' perf factors.
        surrogate = fit_tail_surrogate(
            ls.qos,
            sorted({
                factor for model in (screened, exact)
                for factor in FleetEngine(ls, model, config).perf_factors
            }),
            SurrogateGrid(
                loads=(0.02, 0.6, 1.2), n_requests=300, peak_requests=20000,
                n_reps=2, n_val_reps=1, seed=0,
            ),
        )
        search = dict(
            portfolio=TINY_PORTFOLIO, n_trials=1, descent_rounds=0,
            surrogate=surrogate,
        )
        result = api.tune_policy(
            "web_search", "zeusmp", fidelity=SURROGATE_TIER, **fleet, **search,
        )
        # Both passes below read the cold run's fleet days from the store.
        screening = tune_monitor(ls, screened, config, **search)
        monitors = [result.best.monitor]
        if result.default.monitor != result.best.monitor:
            monitors.append(result.default.monitor)
        scores, fleet_runs, cached_runs = confirm_candidates(
            ls, exact, config, monitors,
            portfolio=TINY_PORTFOLIO, surrogate=surrogate,
        )
        assert result.candidates == screening.candidates
        assert result.best == scores[0]
        assert result.default == scores[-1]
        assert (screening.fleet_runs, fleet_runs) == (0, 0)
        assert result.fleet_runs == screening.cached_runs + cached_runs
        assert result.cached_runs == 0
        # The exact rows are re-scored, not the screening ones.
        assert result.best != screening.best

        warm = api.tune_policy(
            "web_search", "zeusmp", fidelity=SURROGATE_TIER, **fleet, **search,
        )
        assert (warm.fleet_runs, warm.cached_runs) == (0, result.fleet_runs)
        assert warm == dataclasses.replace(
            result, fleet_runs=0, cached_runs=result.fleet_runs
        )

    def test_stock_grid_measure_is_the_exact_model(
        self, isolated_store, monkeypatch
    ):
        # The solo reference and the stock Baseline/B/Q splits are anchors
        # of the stock grid: the surrogate tier reads their exact jobs.
        def no_fit(fit, values):
            raise AssertionError(f"fitted {fit.kind} {fit.workloads}")

        monkeypatch.setattr(UipcFitJob, "assemble", no_fit)
        stock = dataclasses.replace(SURROGATE_TIER, grid=UipcGrid())
        ls = get_profile("web_search")
        exact = api.measure(ls, "zeusmp", sampling=stock.sampling)
        assert api.measure(ls, "zeusmp", fidelity=stock) == exact

        # So tune_policy's exact-tier confirmation re-reads the screening
        # pass's fleet days.
        fleet = dict(n_servers=16, requests_per_window=300)
        confirmed = []
        confirm = api.confirm_candidates

        def recording_confirm(*args, **kwargs):
            confirmed.append(confirm(*args, **kwargs))
            return confirmed[-1]

        monkeypatch.setattr(api, "confirm_candidates", recording_confirm)
        result = api.tune_policy(
            "web_search", "zeusmp", fidelity=stock, **fleet,
            portfolio=TINY_PORTFOLIO, n_trials=1, descent_rounds=0,
            surrogate=coarse_tail_surrogate(
                ls, exact, FleetConfig(**fleet)
            ),
        )
        ((scores, fleet_runs, cached_runs),) = confirmed
        assert fleet_runs == 0
        assert cached_runs == len(scores) * len(TINY_PORTFOLIO)
        assert result.best == scores[0]

    def test_population_is_measured_for_the_search(
        self, isolated_store, tmp_path
    ):
        # A population used to reach FleetEngine without models and raise
        # "config declares a co-runner population; pass corunners=".
        ls = get_profile("web_search")
        sampling = SURROGATE_TIER.sampling
        config = FleetConfig(
            n_servers=16, requests_per_window=300,
            population=("zeusmp", "lbm"),
        )
        corunners = tuple(
            api.measure(ls, name, sampling=sampling)
            for name in config.population
        )
        search = dict(
            portfolio=TINY_PORTFOLIO, n_trials=1, descent_rounds=0,
            surrogate=coarse_tail_surrogate(
                ls, performance_model(), config, corunners=corunners
            ),
        )
        tuned = api.tune_policy(
            "web_search", performance=performance_model(), config=config,
            sampling=sampling, store=ResultStore(tmp_path / "tune"), **search,
        )
        assert tuned == tune_monitor(
            ls, performance_model(), config, corunners=corunners,
            store=ResultStore(tmp_path / "direct"), **search,
        )
        assert tuned.fleet_runs > 0


def coarse_tail_surrogate(ls, performance, config, corunners=None):
    """A coarse tail surrogate covering one fleet's perf factors."""
    return fit_tail_surrogate(
        ls.qos,
        FleetEngine(ls, performance, config, corunners=corunners).perf_factors,
        SurrogateGrid(
            loads=(0.02, 0.6, 1.2), n_requests=300, peak_requests=20000,
            n_reps=2, n_val_reps=1, seed=0,
        ),
    )


# ----------------------------------------------------------------------
# A cold set-up on every core
# ----------------------------------------------------------------------

#: Short samples for the set-up's measurements.
SETUP_SAMPLING = SamplingConfig(
    n_samples=2, warmup_instructions=500, measure_instructions=600, seed=11
)
#: The stock replicate shape (10 calibration replicates over 13 loads, 4
#: validation replicates over the 12 midpoints) on short streams.
SETUP_GRID = SurrogateGrid(n_requests=300, peak_requests=2000)
SETUP_FLEET = dict(
    n_servers=8, window_minutes=240.0, requests_per_window=300, seed=3,
    population=("zeusmp", "lbm"),
)


def _die() -> None:
    os._exit(13)  # a hard worker death, not an exception


class KillOnePool(ProcessPoolExecutor):
    """A pool whose first submission kills its worker (once per test)."""

    killed = False

    def submit(self, fn, *args, **kwargs):
        if not KillOnePool.killed:
            KillOnePool.killed = True
            return super().submit(_die)
        return super().submit(fn, *args, **kwargs)


def cold_set_up(
    tmp_path, monkeypatch, verb, workers, pool=None, store=None
) -> dict:
    """One cold ``verb`` day of :data:`SETUP_FLEET` in a fresh store, its
    set-up pool and fit pool sized at ``workers`` (``pool`` a pool factory
    for the set-up, ``store`` the one ``serve`` fits into): what it
    measured, fitted, stepped and stored."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / f"{verb}-{workers}"))
    reset_default_stores()
    queueing._PEAK_MEMO.clear()
    monkeypatch.setattr(FleetConfig, "surrogate_grid", lambda self: SETUP_GRID)
    def forced(n_jobs):
        return min(workers, n_jobs)

    monkeypatch.setattr(api, "usable_workers", forced)
    monkeypatch.setattr(fleet_engine, "usable_workers", forced)
    engines = []

    class Recording(ExecutionEngine):
        def __init__(self, config):
            super().__init__(config, pool_factory=pool)

        def run_jobs(self, jobs, *args, **kwargs):
            report = super().run_jobs(jobs, *args, **kwargs)
            engines.append((report.stats.workers, report.stats))
            return report

    monkeypatch.setattr(api, "ExecutionEngine", Recording)
    profiler = enable_profiling()
    profiler.reset()
    try:
        if verb == "serve":
            service = api.serve(
                "web_search", "zeusmp", sampling=SETUP_SAMPLING, store=store,
                **SETUP_FLEET,
            )
            fleet = service.engine
            service.advance(service.state.n_windows)
            day = service.timeline
        else:
            day = api.run_fleet(
                "web_search", "zeusmp", sampling=SETUP_SAMPLING, **SETUP_FLEET
            )
            ls = get_profile("web_search")
            fleet = FleetEngine(
                ls, api.measure(ls, "zeusmp", sampling=SETUP_SAMPLING),
                FleetConfig(**SETUP_FLEET),
                corunners=[
                    api.measure(ls, name, sampling=SETUP_SAMPLING)
                    for name in SETUP_FLEET["population"]
                ],
            )
        des_queries = profiler.calls("qos.des.serve")
    finally:
        disable_profiling()
    entries = tmp_path / f"{verb}-{workers}" / f"v{CACHE_VERSION}"
    return dict(
        performance=fleet.performance,
        corunners=fleet.corunners,
        surrogate=bits(fleet.ensure_surrogate().to_values()),
        day=bits(day.to_values()),
        engines=engines,
        des_queries=des_queries,
        rows=len(fleet.perf_factors),
        entries={
            path.name: path.read_text() for path in entries.glob("*.json")
        },
    )


def bits(values) -> bytes:
    return np.array(values).tobytes()


def set_up_queries(rows: int) -> int:
    """DES queries of a cold set-up and fit on :data:`SETUP_GRID`: 41
    bisection probes per replicate, once, then the grid streams."""
    grid = SETUP_GRID
    n_loads = len(grid.loads)
    return 41 * (grid.n_reps + grid.n_val_reps) + rows * (
        grid.n_reps * n_loads + grid.n_val_reps * (n_loads - 1)
    )


class TestPooledSetUp:
    """A fleet verb's cold measurements and the fit's peak bisections run
    as one job set on every core, and change no bit."""

    @pytest.mark.parametrize("verb", ["serve", "run_fleet"])
    def test_pooled_set_up_matches_one_worker(
        self, tmp_path, monkeypatch, verb
    ):
        pooled = cold_set_up(tmp_path, monkeypatch, verb, 2)
        serial = cold_set_up(tmp_path / "one", monkeypatch, verb, 1)
        for key in ("performance", "corunners", "surrogate", "day", "entries"):
            assert pooled[key] == serial[key], key
        # 4 + 3 measurement jobs of the pair and lbm, 14 peaks.
        [(workers, stats)] = pooled["engines"]
        assert (workers, stats.executed, stats.in_process) == (2, 21, 0)
        [(workers, stats)] = serial["engines"]
        assert (workers, stats.executed) == (1, 21)

    def test_each_bisection_runs_once(self, tmp_path, monkeypatch):
        # The set-up's workers bisect each fit replicate's peak into the
        # store; the fit reads the peaks there and serves only the grid
        # streams.
        cold = cold_set_up(tmp_path, monkeypatch, "serve", 2)
        assert cold["des_queries"] == set_up_queries(cold["rows"])

    def test_peaks_reach_the_store_the_fleet_fits_in(
        self, tmp_path, monkeypatch
    ):
        # serve(store=...) fits into its own store while the set-up
        # measures through the default one.
        cold = cold_set_up(
            tmp_path, monkeypatch, "serve", 2,
            store=ResultStore(tmp_path / "fleet"),
        )
        assert cold["des_queries"] == set_up_queries(cold["rows"])
        fit = cold_set_up(tmp_path / "default", monkeypatch, "serve", 2)
        assert cold["surrogate"] == fit["surrogate"]

    def test_killed_worker_is_retried(self, tmp_path, monkeypatch):
        monkeypatch.setattr(KillOnePool, "killed", False)
        killed = cold_set_up(
            tmp_path, monkeypatch, "serve", 2, pool=KillOnePool
        )
        assert KillOnePool.killed
        [(__, stats)] = killed["engines"]
        assert stats.crash_retries >= 1 and stats.pool_rebuilds >= 1
        assert stats.executed == 21
        serial = cold_set_up(tmp_path / "one", monkeypatch, "serve", 1)
        for key in ("performance", "corunners", "surrogate", "day"):
            assert killed[key] == serial[key], key

    def test_set_up_beside_a_live_thread_runs_in_process(
        self, tmp_path, monkeypatch
    ):
        # The set-up's pool forks, which must not copy another thread's
        # locks: beside a control-plane reader it runs in this process.
        release = threading.Event()
        reader = threading.Thread(target=release.wait)
        reader.start()
        try:
            beside = cold_set_up(tmp_path, monkeypatch, "serve", 2)
        finally:
            release.set()
            reader.join()
        [(workers, stats)] = beside["engines"]
        assert (workers, stats.executed) == (1, 21)
        pooled = cold_set_up(tmp_path / "pooled", monkeypatch, "serve", 2)
        assert pooled["engines"][0][0] == 2
        assert beside["entries"] == pooled["entries"]
        assert beside["surrogate"] == pooled["surrogate"]

    def test_warm_set_up_starts_no_pool_and_writes_nothing(
        self, tmp_path, monkeypatch
    ):
        cold = cold_set_up(tmp_path, monkeypatch, "serve", 2)
        store = tmp_path / "serve-2"
        before = {path: path.stat().st_mtime_ns for path in store.rglob("*")}
        reset_default_stores()  # warm on disk only

        def no_engine(*args, **kwargs):
            raise AssertionError("a warm set-up started an execution engine")

        monkeypatch.setattr(api, "ExecutionEngine", no_engine)
        service = api.serve(
            "web_search", "zeusmp", sampling=SETUP_SAMPLING, **SETUP_FLEET
        )
        assert service.engine.performance == cold["performance"]
        assert service.engine.corunners == cold["corunners"]
        after = {path: path.stat().st_mtime_ns for path in store.rglob("*")}
        assert after == before

    def test_warm_measurement_leaves_the_peaks_to_the_fit(
        self, tmp_path, monkeypatch
    ):
        # Nothing to overlap with: the fit bisects in its own pool.
        ls = get_profile("web_search")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        reset_default_stores()
        for name in ("zeusmp", "lbm"):
            api.measure(ls, name, sampling=SETUP_SAMPLING)

        def no_engine(*args, **kwargs):
            raise AssertionError("a warm measurement started a pool")

        monkeypatch.setattr(api, "ExecutionEngine", no_engine)
        monkeypatch.setattr(
            api, "FleetService", lambda engine, feed, **kwargs: engine
        )
        engine = api.serve(
            "web_search", "zeusmp", sampling=SETUP_SAMPLING, **SETUP_FLEET
        )
        assert len(engine.corunners) == 2
