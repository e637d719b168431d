"""Tests for the UIPC surrogate tier (``repro.cpu.surrogate``).

Covers the fit itself (CRN reproducibility through the store, anchor
predictions bit-identical to the exact sampler, honest error bounds on
fresh seeds), the configuration-family mapping, and the tier plumbing
(``Fidelity`` dispatch, the coverage rule of ``recorded_jobs`` grids, and
the regression that the surrogate can never leak into exact-tier golden
paths).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cpu.sampling import SamplingConfig
from repro.cpu.surrogate import (
    UipcFitJob,
    UipcGrid,
    UnsupportedConfigError,
    axis_scale,
    family_axis,
    family_config_at,
    fit_uipc_surrogate,
)
from repro.engine.job import SimJob, thread_means
from repro.experiments.common import (
    BATCH_WORKLOADS,
    LS_WORKLOADS,
    Fidelity,
    config_all_shared,
    config_dynamic_rob,
    config_solo,
    pair_uipc,
    pair_uipc_many,
    recorded_jobs,
    solo_uipc_many,
)
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.util.rng import derive_seed

TINY = SamplingConfig(n_samples=2, warmup_instructions=500,
                      measure_instructions=600, seed=11)


def tiny_surrogate_fidelity() -> Fidelity:
    return Fidelity("surrogate", TINY, grid=UipcGrid())


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    from repro.engine.store import reset_default_stores

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    reset_default_stores()
    yield
    reset_default_stores()


class TestFamilies:
    def test_solo_roundtrip(self):
        for size in (16, 48, 96, 192):
            canon, x = family_axis("solo", config_solo(size))
            assert x == size
            assert family_config_at("solo", canon, size) == config_solo(size)
        assert axis_scale("solo", canon) == 192

    def test_pair_roundtrip(self):
        base = config_all_shared()
        member = base.with_rob_partition(56, 136)
        canon, x = family_axis("pair", member)
        assert x == 56 and canon == base
        assert family_config_at("pair", canon, 56) == member
        assert axis_scale("pair", canon) == 192

    def test_dynamic_rob_unsupported(self):
        with pytest.raises(UnsupportedConfigError):
            family_axis("pair", config_dynamic_rob())

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            family_axis("triple", config_solo())

    def test_grid_anchor_values_scale(self):
        grid = UipcGrid()
        a192 = grid.anchor_values("solo", 192)
        assert a192 == (16, 32, 48, 64, 96, 128, 192)
        a384 = grid.anchor_values("solo", 384)
        assert a384[-1] == 384 and len(a384) == len(a192)
        assert grid.anchor_values("pair", 192) == (32, 56, 96, 136, 160)

    def test_validation_excludes_anchors(self):
        grid = UipcGrid()
        for kind in ("solo", "pair"):
            anchors = set(grid.anchor_values(kind, 192))
            vals = grid.validation_values(kind, 192)
            assert vals and not (set(vals) & anchors)


class TestFitThroughStore:
    def test_anchor_prediction_bit_identical_to_exact(self):
        from repro.engine.store import default_store

        surrogate = fit_uipc_surrogate("solo", ("gamess",), config_solo(), TINY)
        exact = thread_means(default_store().compute(
            SimJob.solo("gamess", config_solo(96), TINY)
        ), 1)
        assert surrogate.predict(96) == exact[0]

    def test_fit_reproducible_through_store(self, monkeypatch):
        from repro.engine.store import default_store

        a = fit_uipc_surrogate("solo", ("gamess",), config_solo(), TINY)

        def exploding_run(job):
            raise AssertionError("every member should have been stored")

        # A second fit reads its members back and simulates nothing.
        monkeypatch.setattr(SimJob, "run", exploding_run)
        fit = UipcFitJob("solo", ("gamess",), config_solo(), TINY)
        b = fit.assemble([default_store().compute(job) for job in fit.members()])
        assert (a.kind, a.workloads, a.anchors) == (b.kind, b.workloads, b.anchors)
        assert a.quantiles.tobytes() == b.quantiles.tobytes()
        assert a.error_bound == b.error_bound > 0.0

    def test_members_are_anchors_then_validation_replays(self):
        grid = UipcGrid()
        fit = UipcFitJob("solo", ("gamess",), config_solo(), TINY, grid)
        anchors = grid.anchor_values("solo", 192)
        replays = [
            (v, derive_seed(TINY.seed, "uipc-surrogate-val", rep))
            for v in grid.validation_values("solo", 192)
            for rep in range(grid.n_val_reps)
        ]
        assert [
            (job.kind, job.config.rob_limits[0], job.sampling.seed)
            for job in fit.members()
        ] == [("solo", x, TINY.seed) for x in anchors] + [
            ("solo", v, seed) for v, seed in replays
        ]
        assert all(job.workloads == fit.workloads for job in fit.members())

    def test_error_bound_honest_on_fresh_seed(self):
        from repro.engine.store import default_store

        surrogate = fit_uipc_surrogate("solo", ("xalancbmk",), config_solo(),
                                       TINY)
        x = 88  # off-anchor, off-validation
        fresh = replace(TINY, seed=derive_seed(TINY.seed, "fresh-heldout", 0))
        exact = thread_means(default_store().compute(
            SimJob.solo("xalancbmk", config_solo(x), fresh)
        ), 1)
        assert abs(surrogate.predict(x) - exact[0]) <= surrogate.error_bound

    def test_out_of_range_raises(self):
        surrogate = fit_uipc_surrogate("solo", ("gamess",), config_solo(), TINY)
        with pytest.raises(ValueError):
            surrogate.predict(8)
        with pytest.raises(ValueError):
            surrogate.predict_many([96, 200])

    def test_predict_many_matches_scalar(self):
        surrogate = fit_uipc_surrogate("solo", ("gamess",), config_solo(), TINY)
        xs = [16, 40, 96, 150, 192]
        batched = surrogate.predict_many(xs)
        assert list(batched) == [surrogate.predict(x) for x in xs]

    def test_fit_job_requires_canonical_config(self):
        with pytest.raises(ValueError):
            UipcFitJob("solo", ("gamess",), config_solo(96), TINY)


class TestFidelityDispatch:
    def test_solo_anchor_values_match_exact_tier(self):
        fid = tiny_surrogate_fidelity()
        configs = [config_solo(x) for x in (16, 96, 192)]
        surrogate_values = solo_uipc_many("gamess", configs, fid)
        exact_values = solo_uipc_many("gamess", configs, TINY)
        assert surrogate_values == exact_values

    def test_pair_off_anchor_within_bound(self):
        from repro.engine.store import default_store

        fid = tiny_surrogate_fidelity()
        base = config_all_shared()
        member = base.with_rob_partition(72, 120)
        (pred,) = pair_uipc_many("web_search", "gamess", (member,), fid)
        exact = thread_means(default_store().compute(
            SimJob.pair("web_search", "gamess", member, TINY)
        ), 2)
        fit = UipcFitJob("pair", ("web_search", "gamess"), base, TINY,
                         fid.grid)
        bound = fit.assemble(
            [default_store().compute(job) for job in fit.members()]
        ).error_bound
        assert abs(pred[0] - exact[0]) <= bound
        assert abs(pred[1] - exact[1]) <= bound

    def test_unsupported_family_falls_back_to_exact(self):
        fid = tiny_surrogate_fidelity()
        configs = (config_dynamic_rob(),)
        surrogate_values = pair_uipc_many("web_search", "gamess", configs, fid)
        exact_values = pair_uipc_many("web_search", "gamess", configs, TINY)
        assert surrogate_values == exact_values

    def test_out_of_range_falls_back_to_exact(self):
        fid = tiny_surrogate_fidelity()
        configs = (config_solo(8),)  # below the smallest anchor (16)
        assert (solo_uipc_many("gamess", configs, fid)
                == solo_uipc_many("gamess", configs, TINY))

    def test_recorded_jobs_identity_at_exact_tier(self):
        from repro.engine.store import default_store

        def sweep(effort):
            solo_uipc_many("gamess", [config_solo(x) for x in (16, 96)], effort)

        jobs = [SimJob.solo("gamess", config_solo(x), TINY) for x in (16, 96)]
        assert recorded_jobs(sweep)(TINY) == jobs
        assert recorded_jobs(sweep)(Fidelity("quick", TINY)) == jobs
        assert default_store().stats.lookups == 0  # recording runs nothing

    @staticmethod
    def sweep(sizes):
        def run(effort):
            configs = [config_solo(x) for x in sizes]
            solo_uipc_many("gamess", configs, effort)
            pair_uipc("web_search", "gamess", config_dynamic_rob(), effort)

        return recorded_jobs(run)

    def test_lookups_count_fits_and_exact_configs(self):
        def run(effort):
            solo_uipc_many("gamess", [config_solo(x) for x in (16, 80)], effort)
            pair_uipc("web_search", "gamess", config_dynamic_rob(), effort)

        saved = get_registry()
        registry = set_registry(MetricsRegistry())
        try:
            counts = [
                registry.counter(f"surrogate.{name}")
                for name in ("fits", "exact_lookups")
            ]
            recorded_jobs(run)(tiny_surrogate_fidelity())
            assert [c.value for c in counts] == [0, 0]  # recording counts none
            run(tiny_surrogate_fidelity())
            assert [c.value for c in counts] == [1, 1]
            run(Fidelity("quick", TINY))  # an exact tier counts none
            assert [c.value for c in counts] == [1, 1]
        finally:
            set_registry(saved)

    def test_recorded_jobs_anchor_only_sweep_reads_exact_jobs(self):
        # Every size is a stock anchor: the fit would hand back the exact
        # means, so the surrogate tier records the quick tier's jobs.
        sweep = self.sweep((16, 48, 96, 192))
        assert sweep(tiny_surrogate_fidelity()) == sweep(Fidelity("quick", TINY))

    def test_recorded_jobs_off_anchor_value_fits_the_family(self):
        jobs = self.sweep((16, 48, 80, 192))(tiny_surrogate_fidelity())
        # One family across all four sweep points: its fit's members, and
        # no job at 80.  The unsupported family stays exact.
        fit = UipcFitJob("solo", ("gamess",), config_solo(), TINY)
        assert jobs == [
            *fit.members(),
            SimJob.pair("web_search", "gamess", config_dynamic_rob(), TINY),
        ]

    def test_surrogate_never_leaks_into_exact_paths(self, monkeypatch):
        """REPRO_FIDELITY=surrogate must not change explicit exact runs."""
        monkeypatch.delenv("REPRO_FIDELITY", raising=False)
        configs = [config_solo(x) for x in (16, 96)]
        baseline = solo_uipc_many("gamess", configs, TINY)
        baseline_keys = [
            SimJob.solo("gamess", c, TINY).key for c in configs
        ]

        monkeypatch.setenv("REPRO_FIDELITY", "surrogate")
        assert solo_uipc_many("gamess", configs, TINY) == baseline
        assert [
            SimJob.solo("gamess", c, TINY).key for c in configs
        ] == baseline_keys
        # Explicit exact Fidelity objects are equally immune.
        assert solo_uipc_many("gamess", configs, Fidelity("quick", TINY)) \
            == baseline

    def test_env_surrogate_fig06_jobs_are_fit_jobs(self, monkeypatch):
        import repro.experiments.fig06_rob_sensitivity as fig06

        monkeypatch.setenv("REPRO_FIDELITY", "surrogate")
        sampling = Fidelity.surrogate().sampling
        fits = [
            UipcFitJob("solo", (name,), config_solo(), sampling)
            for name in (*LS_WORKLOADS, *BATCH_WORKLOADS)
        ]
        assert fig06.jobs() == [job for fit in fits for job in fit.members()]
        monkeypatch.setenv("REPRO_FIDELITY", "quick")
        jobs = fig06.jobs()
        assert jobs and all(isinstance(j, SimJob) for j in jobs)
