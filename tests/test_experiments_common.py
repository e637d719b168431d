"""Tests for the shared experiment infrastructure."""

import pytest

from repro.cpu.config import PartitionPolicy
from repro.experiments import common
from repro.experiments.common import (
    Fidelity,
    config_all_private,
    config_all_shared,
    config_dynamic_rob,
    config_fetch_throttle,
    config_share_only,
    config_solo,
    fidelity_names,
    pair_uipc,
    register_fidelity,
    solo_uipc,
)


class TestFidelity:
    def test_quick_smaller_than_full(self):
        q, f = Fidelity.quick(), Fidelity.full()
        assert q.sampling.n_samples <= f.sampling.n_samples
        assert q.sampling.measure_instructions < f.sampling.measure_instructions

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FIDELITY", raising=False)
        assert Fidelity.from_env().name == "quick"

    def test_env_full(self, monkeypatch):
        monkeypatch.setenv("REPRO_FIDELITY", "full")
        assert Fidelity.from_env().name == "full"

    def test_env_surrogate(self, monkeypatch):
        monkeypatch.setenv("REPRO_FIDELITY", "surrogate")
        fid = Fidelity.from_env()
        assert fid.name == "surrogate" and fid.is_surrogate
        # Surrogate calibration runs with quick-tier sampling seeds.
        assert fid.sampling == Fidelity.quick().sampling

    def test_env_invalid_lists_registered_tiers(self, monkeypatch):
        monkeypatch.setenv("REPRO_FIDELITY", "ultra")
        with pytest.raises(ValueError) as excinfo:
            Fidelity.from_env()
        for name in fidelity_names():
            assert name in str(excinfo.value)

    def test_env_threads_seed(self, monkeypatch):
        monkeypatch.setenv("REPRO_FIDELITY", "full")
        assert Fidelity.from_env(seed=7).sampling.seed == 7
        monkeypatch.delenv("REPRO_FIDELITY")
        assert Fidelity.from_env(seed=9).sampling.seed == 9

    def test_resolve_name_and_instance(self):
        assert Fidelity.resolve("FULL").name == "full"
        fid = Fidelity.quick(seed=3)
        assert Fidelity.resolve(fid) is fid

    def test_resolve_overrides(self):
        fid = Fidelity.resolve("quick", seed=5, n_samples=9)
        assert fid.sampling.seed == 5 and fid.sampling.n_samples == 9
        fid = Fidelity.resolve(Fidelity.full(), seed=8)
        assert fid.name == "full" and fid.sampling.seed == 8

    def test_resolve_unknown_lists_registered_tiers(self):
        with pytest.raises(ValueError, match="fidelity") as excinfo:
            Fidelity.resolve("ultra")
        for name in fidelity_names():
            assert name in str(excinfo.value)

    def test_resolve_rejects_non_string(self):
        with pytest.raises(TypeError):
            Fidelity.resolve(42)

    def test_register_custom_tier(self, monkeypatch):
        monkeypatch.setitem(common._REGISTRY, "debug",
                            lambda seed: Fidelity.quick(seed))
        assert "debug" in fidelity_names()
        assert Fidelity.resolve("debug", 7).sampling.seed == 7
        with pytest.raises(ValueError):
            register_fidelity("debug", Fidelity.quick)

    def test_builtin_tiers_registered(self):
        assert set(fidelity_names()) >= {"quick", "full", "surrogate"}


class TestConfigConstructors:
    def test_all_shared_is_default(self):
        config = config_all_shared()
        assert config.rob_limits == (96, 96)
        assert not config.private_l1i and not config.private_l1d

    def test_solo(self):
        assert config_solo().rob_limits[0] == 192
        assert config_solo(48).rob_limits[0] == 48

    def test_share_only_rob(self):
        config = config_share_only("rob")
        assert config.rob_limits == (96, 96)
        assert config.private_l1i and config.private_l1d and config.private_bp

    def test_share_only_l1i(self):
        config = config_share_only("l1i")
        assert not config.private_l1i
        assert config.private_l1d and config.private_bp
        # Everything else private & full-size: per-thread full ROB.
        assert config.rob_limits == (192, 192)

    def test_share_only_l1d(self):
        config = config_share_only("l1d")
        assert not config.private_l1d and config.private_l1i

    def test_share_only_bp(self):
        config = config_share_only("bp")
        assert not config.private_bp and config.private_l1i

    def test_share_only_unknown(self):
        with pytest.raises(ValueError):
            config_share_only("alus")

    def test_all_private_keeps_equal_rob(self):
        config = config_all_private()
        assert config.rob_limits == (96, 96)
        assert config.private_l1i and config.private_l1d and config.private_bp

    def test_dynamic_rob(self):
        assert config_dynamic_rob().rob_policy is PartitionPolicy.SHARED

    def test_fetch_throttle(self):
        config = config_fetch_throttle(8)
        assert config.fetch_policy == "ratio"
        assert config.fetch_ratio == (1, 8)
        with pytest.raises(ValueError):
            config_fetch_throttle(0)


class TestMemoization:
    """The memoized entry points delegate to the engine's result store."""

    @pytest.fixture(autouse=True)
    def isolated_cache(self, tmp_path, monkeypatch):
        from repro.engine.store import reset_default_stores

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        reset_default_stores()
        yield
        reset_default_stores()

    def _sampling(self):
        from repro.cpu.sampling import SamplingConfig

        return SamplingConfig(n_samples=1, warmup_instructions=500,
                              measure_instructions=500, seed=2)

    def test_solo_memoized(self, monkeypatch):
        import repro.engine.job as engine_job

        calls = {"n": 0}
        original = engine_job.sample_solo

        def counting(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(engine_job, "sample_solo", counting)
        sampling = self._sampling()
        first = solo_uipc("gamess", config_solo(), sampling)
        second = solo_uipc("gamess", config_solo(), sampling)
        assert first == second
        assert calls["n"] == 1

    def test_disk_cache_survives_memory_flush(self, monkeypatch):
        import repro.engine.job as engine_job
        from repro.engine.store import default_store

        sampling = self._sampling()
        value = pair_uipc("web_search", "gamess", config_all_shared(), sampling)
        default_store().clear_memory()
        calls = {"n": 0}
        original = engine_job.sample_colocation

        def counting(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(engine_job, "sample_colocation", counting)
        assert pair_uipc("web_search", "gamess", config_all_shared(), sampling) == value
        assert calls["n"] == 0

    def test_no_cache_env(self, monkeypatch):
        from repro.engine.store import default_store

        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        store = default_store()
        assert store.directory is None and store.entry_dir is None

    def test_distinct_configs_distinct_keys(self):
        from repro.engine.job import job_key

        sampling = self._sampling()
        a = job_key("solo", ("gamess",), config_solo(), sampling)
        b = job_key("solo", ("gamess",), config_solo(96), sampling)
        assert a != b

    def test_key_depends_on_profile_definition(self):
        from dataclasses import replace

        import repro.workloads.registry as registry
        from repro.engine.job import job_key

        sampling = self._sampling()
        before = job_key("solo", ("gamess",), config_solo(), sampling)
        tweaked = replace(registry.get_profile("gamess"), cold_miss_frac=0.09)
        after = job_key("solo", (tweaked,), config_solo(), sampling)
        assert before != after

    def test_key_depends_on_cache_version(self):
        from repro.engine.job import job_key

        sampling = self._sampling()
        a = job_key("solo", ("gamess",), config_solo(), sampling, version=10)
        b = job_key("solo", ("gamess",), config_solo(), sampling, version=11)
        assert a != b
