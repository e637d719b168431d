"""Tests for the CLI experiment runner."""

import pytest

from repro.experiments.common import Fidelity
from repro.experiments.runner import (
    EXPERIMENTS,
    expand_experiment_names,
    main,
    resolve_fidelity,
    run_experiment,
)


class TestRegistry:
    def test_all_paper_artifacts_present(self):
        expected = {"tables", "fig01", "fig02", "fig03", "fig04", "fig05",
                    "fig06", "fig07", "fig09", "fig10", "fig11", "fig12",
                    "fig13", "fig14", "ext_two_services", "ext_sensitivity",
                    "ext_adaptive", "ext_energy", "ext_fleet",
                    "ext_placement", "ext_autotune", "characterize"}
        assert set(EXPERIMENTS) == expected

    def test_modules_importable_with_run(self):
        import importlib

        for module_name in EXPERIMENTS.values():
            module = importlib.import_module(module_name)
            assert callable(module.run)

    def test_unknown_experiment(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("fig99", Fidelity.quick())

    def test_simulation_grid_experiments_expose_jobs(self):
        import importlib

        for name in ("fig03", "fig04", "fig05", "fig06", "fig09", "fig10",
                     "fig11", "fig12", "fig13", "fig14", "ext_sensitivity"):
            module = importlib.import_module(EXPERIMENTS[name])
            assert callable(module.jobs), name


class TestNameExpansion:
    def test_exact_all(self):
        assert expand_experiment_names(["all"]) == list(EXPERIMENTS)

    def test_all_anywhere(self):
        names = expand_experiment_names(["fig09", "all"])
        assert names[0] == "fig09"
        assert set(names) == set(EXPERIMENTS)
        assert len(names) == len(EXPERIMENTS)  # deduplicated

    def test_plain_list_preserved(self):
        assert expand_experiment_names(["fig02", "fig01"]) == ["fig02", "fig01"]

    def test_duplicates_collapse(self):
        assert expand_experiment_names(["fig01", "fig01"]) == ["fig01"]


class TestFidelityResolution:
    def test_explicit_choice_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_FIDELITY", "full")
        assert resolve_fidelity("quick", 42).name == "quick"

    def test_env_honored_when_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_FIDELITY", "full")
        assert resolve_fidelity(None, 42).name == "full"
        monkeypatch.delenv("REPRO_FIDELITY")
        assert resolve_fidelity(None, 42).name == "quick"

    def test_seed_threaded_through(self):
        assert resolve_fidelity("quick", 7).sampling.seed == 7
        assert resolve_fidelity("full", 9).sampling.seed == 9


class TestCLI:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig09" in out and "fig14" in out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "fig01" in capsys.readouterr().out

    def test_runs_light_experiment(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out

    def test_dispatch(self):
        result = run_experiment("tables", Fidelity.quick())
        assert "Table I" in result.format()


class TestJsonExport:
    def test_result_to_jsonable_dataclass(self):
        import dataclasses
        import enum

        from repro.experiments.runner import result_to_jsonable

        class Color(enum.Enum):
            RED = "red"

        @dataclasses.dataclass
        class Inner:
            x: float

        @dataclasses.dataclass
        class Outer:
            name: str
            inner: Inner
            values: list
            mapping: dict
            color: Color

        payload = result_to_jsonable(
            Outer("n", Inner(1.5), [1, (2, 3)], {"k": Inner(2.0)}, Color.RED)
        )
        assert payload == {
            "name": "n",
            "inner": {"x": 1.5},
            "values": [1, [2, 3]],
            "mapping": {"k": {"x": 2.0}},
            "color": "Color.RED",
        }

    def test_cli_writes_json(self, tmp_path, capsys):
        import json

        assert main(["tables", "--json", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "tables.json").read_text())
        assert data["experiment"] == "tables"
        assert "Table II" in data["result"]["tables"]["table2"]

    def test_json_records_seed_and_jobs(self, tmp_path, capsys):
        import json

        assert main(["tables", "--seed", "7", "--jobs", "2",
                     "--json", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "tables.json").read_text())
        assert data["seed"] == 7
        assert data["jobs"] == 2
        assert data["fidelity"] == "quick"
        assert "elapsed_seconds" in data


class TestEngineCLI:
    @pytest.fixture(autouse=True)
    def isolated_cache(self, tmp_path, monkeypatch):
        from repro.engine.store import reset_default_stores

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        reset_default_stores()
        yield
        reset_default_stores()

    def test_jobs_flag_rejects_garbage(self, capsys):
        with pytest.raises(SystemExit):
            main(["tables", "--jobs", "zero"])
        with pytest.raises(SystemExit):
            main(["tables", "--jobs", "0"])

    def test_gc_command(self, tmp_path, capsys):
        from repro.engine import CACHE_VERSION, default_store

        store = default_store()
        store.put("current", (1.0,))
        stale = store.directory / f"v{CACHE_VERSION - 1}"
        stale.mkdir(parents=True)
        (stale / "old.json").write_text("[1.0]")
        assert main(["gc"]) == 0
        out = capsys.readouterr().out
        assert "evicted 1" in out
        assert not stale.exists()


@pytest.fixture
def fake_experiment(monkeypatch):
    """Install a cheap experiment ('fakeexp') with a two-job grid."""
    import sys
    import types

    class _Result:
        def format(self):
            return "fake experiment output"

    class _Job:
        def __init__(self, n):
            self.n = n
            self.key = f"{n:02d}" + "f" * 62

        def run(self):
            return (float(self.n),)

    module = types.ModuleType("fake_experiment_module")
    module.__doc__ = "Fake experiment for CLI tests."
    module.jobs = lambda fidelity=None: [_Job(0), _Job(1)]
    module.run = lambda fidelity=None: _Result()
    monkeypatch.setitem(sys.modules, "fake_experiment_module", module)
    monkeypatch.setitem(EXPERIMENTS, "fakeexp", "fake_experiment_module")
    return module


class TestObservabilityCLI:
    @pytest.fixture(autouse=True)
    def isolated_cache(self, tmp_path, monkeypatch):
        from repro.engine.store import reset_default_stores

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        reset_default_stores()
        yield
        reset_default_stores()

    def test_run_subcommand_alias(self, fake_experiment, capsys):
        assert main(["run", "fakeexp"]) == 0
        assert "fake experiment output" in capsys.readouterr().out

    def test_json_reports_engine_stats(self, fake_experiment, tmp_path, capsys):
        import json

        out_dir = tmp_path / "json"
        assert main(["fakeexp", "--json", str(out_dir)]) == 0
        cold = json.loads((out_dir / "fakeexp.json").read_text())
        assert cold["engine"]["executed"] == 2
        assert cold["engine"]["cache_hits"] == 0
        # Warm rerun: the whole grid answers from the store.
        assert main(["fakeexp", "--json", str(out_dir)]) == 0
        warm = json.loads((out_dir / "fakeexp.json").read_text())
        assert warm["engine"]["executed"] == 0
        assert warm["engine"]["cache_hits"] == 2
        assert warm["engine"]["hit_rate"] == 1.0

    def test_trace_flag_writes_valid_chrome_trace(
        self, fake_experiment, tmp_path, capsys
    ):
        import json

        trace_path = tmp_path / "out.trace.json"
        assert main(["run", "fakeexp", "--trace", str(trace_path)]) == 0
        trace = json.loads(trace_path.read_text())
        assert "traceEvents" in trace
        spans = {e["name"] for e in trace["traceEvents"] if e.get("ph") == "X"}
        for phase in ("engine.dedupe", "engine.cache_lookup", "engine.queue",
                      "engine.execute", "engine.store_write"):
            assert phase in spans, phase
        assert "experiment:fakeexp" in spans
        assert "trace:" in capsys.readouterr().out

    def test_metrics_flag_truncates_and_restores_env(
        self, fake_experiment, tmp_path, capsys, monkeypatch
    ):
        import os

        from repro.obs.sampler import METRICS_ENV

        metrics_path = tmp_path / "metrics.jsonl"
        metrics_path.write_text("stale line\n")
        monkeypatch.delenv(METRICS_ENV, raising=False)
        assert main(["fakeexp", "--metrics", str(metrics_path)]) == 0
        assert "stale line" not in metrics_path.read_text()
        assert METRICS_ENV not in os.environ  # restored after the run

    def test_profile_flag_prints_self_time_table(
        self, fake_experiment, capsys, monkeypatch
    ):
        import os

        from repro.obs.profiler import PROFILE_ENV

        monkeypatch.delenv(PROFILE_ENV, raising=False)
        assert main(["fakeexp", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "Self-time profile" in out
        assert "engine.execute" in out
        assert PROFILE_ENV not in os.environ  # profiling disabled again

    def test_inspect_summary_lists_recent_jobs(self, fake_experiment, capsys):
        assert main(["fakeexp"]) == 0
        capsys.readouterr()
        assert main(["inspect"]) == 0
        out = capsys.readouterr().out
        assert "cache dir:" in out
        assert "Recent jobs" in out
        assert "serial" in out

    def test_inspect_key_prefix_shows_values(self, fake_experiment, capsys):
        assert main(["fakeexp"]) == 0
        capsys.readouterr()
        assert main(["inspect", "01f"]) == 0
        out = capsys.readouterr().out
        assert "mode=serial" in out
        assert "values=(1)" in out

    def test_inspect_unknown_prefix_fails(self, capsys):
        assert main(["inspect", "nope"]) == 1
        assert "no job telemetry" in capsys.readouterr().out


class TestPostmortemCLI:
    def write_bundle(self, tmp_path):
        from repro.obs import FlightRecorder

        recorder = FlightRecorder(capacity=16, pre_windows=2, post_windows=1)
        base = {
            "hour": 0.0, "servers": 100, "throttled": 0, "mode_baseline": 10,
            "mode_b": 80, "mode_q": 10, "mean_tail_ms": 40.0,
            "mean_batch_uipc": 0.5,
        }
        for k in range(3):
            recorder.observe(dict(base, window=k, cluster_load=0.3,
                                  violations=0))
        recorder.observe(
            dict(base, window=3, cluster_load=1.2, violations=30),
            violators=[{"server": 5, "day_violations": 4,
                        "mode": "baseline", "mode_after": "q-mode",
                        "violation_streak": 2, "throttle_left": 0}],
            events=[{"type": "slo_alert", "slo": "qos", "policy": "page",
                     "window": 3, "hour": 0.5, "burn_fast": 4.0,
                     "burn_slow": 2.0, "threshold": 2.0, "fast_windows": 2,
                     "slow_windows": 4, "budget_remaining": 0.4}],
        )
        recorder.observe(dict(base, window=4, cluster_load=1.2,
                              violations=20))
        path = tmp_path / "bundle.jsonl"
        recorder.dump(path, reason="unit",
                      meta={"feed": "phases", "policy": "jittered",
                            "n_servers": 100})
        return path

    def test_postmortem_report(self, tmp_path, capsys):
        path = self.write_bundle(tmp_path)
        assert main(["postmortem", str(path)]) == 0
        out = capsys.readouterr().out
        assert "load_spike" in out
        assert "qos/page" in out or "qos" in out

    def test_postmortem_json(self, tmp_path, capsys):
        import json

        path = self.write_bundle(tmp_path)
        assert main(["postmortem", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["alerts"] == 1
        assert report["captures"][0]["primary"] == "load_spike"

    def test_postmortem_missing_file_fails(self, tmp_path, capsys):
        assert main(["postmortem", str(tmp_path / "nope.jsonl")]) == 1
        assert "postmortem" in capsys.readouterr().err.lower()
