"""The library names the repository benchmark's traced runs wrap.

A traced ``perfbench/run.py`` run installs ``perfbench/spans.py``'s
wrappers on the library's entry points before its first workload, so a
renamed or deleted entry point would fail only there.  This test installs
the same wrappers on the same figure modules, runs one tiny solo
simulation through them and unwraps them again.
"""

import importlib.util
from pathlib import Path

from repro.cpu.config import CoreConfig
from repro.cpu.fast_core import FastCore
from repro.cpu.sampling import SamplingConfig
from repro.engine import job as job_module
from repro.engine.job import SimJob
from repro.experiments import fig06_rob_sensitivity as fig06
from repro.experiments import fig09_stretch_modes as fig09
from repro.experiments import fig12_fetch_throttling as fig12

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
