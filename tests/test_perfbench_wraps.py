"""The library names the repository benchmark's traced runs wrap.

A traced ``perfbench/run.py`` run installs ``perfbench/spans.py``'s
wrappers on the library's entry points before its first workload, so a
renamed or deleted entry point would fail only there.  These tests install
the same wrappers on the same figure modules, run one tiny solo
simulation and one fleet window through them and unwrap them again.
"""

import importlib.util
from pathlib import Path

import numpy as np

import repro.fleet.engine as fleet_engine
from repro.cpu.config import CoreConfig
from repro.cpu.fast_core import FastCore
from repro.cpu.sampling import SamplingConfig
from repro.engine import job as job_module
from repro.engine.job import SimJob
from repro.experiments import fig06_rob_sensitivity as fig06
from repro.experiments import fig09_stretch_modes as fig09
from repro.experiments import fig12_fetch_throttling as fig12
from repro.fleet import FleetConfig, FleetEngine, SurrogateGrid, TailSurrogate
from repro.fleet.policies import EXACT_JITTER_MAX
from repro.scenarios import get_scenario
from repro.workloads.registry import get_profile
from tests.test_fleet import (
    THREADED_POPULATION,
    performance_model,
    threaded_corunners,
)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

_MISSING = object()


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_wraps_and_restores_the_library():
    spans = _load_spans()
    run = vars(FastCore)["run"]
    sample_solo = job_module.sample_solo
    job = SimJob.solo(
        "gamess", CoreConfig().single_thread(96),
        SamplingConfig(n_samples=1, warmup_instructions=200,
                       measure_instructions=300, seed=1),
    )
    recorder = spans.SpanRecorder()
    try:
        spans.install_layer_wrappers(recorder, (fig06, fig09, fig12))
        patched = list(recorder._patches)
        assert vars(FastCore)["run"] is not run
        assert job_module.sample_solo is not sample_solo
        traced = job.run()
    finally:
        recorder.unwrap_all()

    assert vars(FastCore)["run"] is run
    assert job_module.sample_solo is sample_solo
    for owner, attr, own in patched:
        assert vars(owner).get(attr, _MISSING) is own, (owner, attr)

    names = [name for name, __, __, __ in recorder.spans]
    solo = names.index("cpu.sample_solo")
    core_run = names.index("cpu.run")
    assert recorder.spans[core_run][3] == solo
    assert recorder.counts["cpu.sim_uops"] >= 300
    assert recorder.counts["cpu.sim_cycles"] > 0
    assert traced == job.run()


def test_traced_fleet_step_calls_the_wrapped_fleet_names(monkeypatch):
    # One worker: the recorder keeps a single span stack.
    monkeypatch.setattr(fleet_engine, "usable_workers", lambda n_jobs: 1)
    profile = get_profile("web_search")
    config = FleetConfig(
        n_servers=EXACT_JITTER_MAX + 1, window_minutes=120.0,
        population=THREADED_POPULATION, placement="symbiosis",
    )

    def engine(surrogate=None):
        return FleetEngine(
            profile, performance_model(), config,
            corunners=threaded_corunners(), surrogate=surrogate,
            scenario=get_scenario("black_friday"),
        )

    # A synthetic surrogate over the fleet's perf rows: no DES runs.
    perf_factors = engine().perf_factors
    loads = SurrogateGrid().loads
    quantiles = np.sort(np.random.default_rng(3).lognormal(
        size=(len(perf_factors), 10, len(loads))
    ), axis=1)
    stepper = engine(TailSurrogate(
        profile.qos, perf_factors, loads, quantiles, 1.0,
    )).stepper("web_search", chunk_size=2100)

    spans = _load_spans()
    recorder = spans.SpanRecorder()
    try:
        spans.install_layer_wrappers(recorder)
        stepper.step()
    finally:
        recorder.unwrap_all()

    names = [name for name, __, __, __ in recorder.spans]
    step = names.index("fleet.step")
    for name in ("fleet.loads", "fleet.tails", "fleet.monitor"):
        # Once per chunk, inside the step.
        inside = [
            idx for idx, span in enumerate(recorder.spans)
            if span[0] == name and span[3] == step
        ]
        assert len(inside) == 2, name
    for name in ("fleet.placement", "scenarios.load_factors"):
        assert name in names, name
    assert recorder.counts["fleet.server_windows"] == config.n_servers
