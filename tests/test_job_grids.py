"""Each experiment's job grid is exactly the work its ``run`` reads.

Grid experiments define ``jobs = recorded_jobs(run)``: the grid that
``stretch-repro --jobs N`` pre-executes is recorded from ``run`` itself.
Prefetching it must leave ``run`` nothing to simulate (no store miss) and
nothing unread (every prefetched key is read), at an exact tier and at the
surrogate tier, whose fits and exact fallbacks follow one coverage rule.
"""

from __future__ import annotations

import importlib

import pytest

from repro.cpu.sampling import SamplingConfig
from repro.cpu.surrogate import UipcFitJob, UipcGrid
from repro.engine import EngineConfig, ExecutionEngine
from repro.engine.store import default_store, reset_default_stores
from repro.experiments.common import Fidelity
from repro.experiments.runner import EXPERIMENTS

TINY = SamplingConfig(n_samples=2, warmup_instructions=500,
                      measure_instructions=600, seed=11)
#: The stock grid's anchor range, so it covers the same queries, with one
#: validation point and no interior anchors: each fit runs 3 jobs, not 13-15.
COARSE = UipcGrid(
    solo_anchors=(1 / 12, 1.0), solo_validation=(1 / 2,),
    pair_anchors=(1 / 6, 5 / 6), pair_validation=(1 / 2,), n_val_reps=1,
)
TIERS = {
    "quick": Fidelity("quick", TINY),
    "surrogate": Fidelity("surrogate", TINY, grid=COARSE),
}

#: Experiment id -> (quick grid, surrogate fit jobs, surrogate exact jobs)
#: over the full 4 x 29 colocations.  At the surrogate tier the exact jobs
#: are the queries no fit covers (dynamically shared ROB, fetch throttling).
FULL_GRIDS = {
    "fig03": (149, 149, 0),
    "fig04": (146, 146, 0),
    "fig05": (497, 497, 0),
    "fig06": (396, 33, 0),
    "fig09": (1276, 116, 0),
    "fig10": (232, 116, 0),
    "fig11": (232, 116, 116),
    "fig12": (696, 116, 464),
    "fig13": (464, 232, 0),
    "fig14": (116, 58, 0),
    "ext_sensitivity": (56, 28, 0),
}

#: One LS service and one batch co-runner (zeusmp: fig06 highlights it).
SLICE = {
    "LS_WORKLOADS": ("web_search",),
    "BATCH_WORKLOADS": ("zeusmp",),
    "PAIRS": (("web_search", "zeusmp"),),
    "ROB_SIZES": [96, 192],
}


def _module(name: str):
    return importlib.import_module(EXPERIMENTS[name])


def test_grid_experiments_are_the_pinned_ones():
    with_jobs = {name for name in EXPERIMENTS if hasattr(_module(name), "jobs")}
    assert with_jobs == set(FULL_GRIDS)


@pytest.mark.parametrize("name", sorted(FULL_GRIDS))
def test_full_grid_sizes(name):
    # Recording simulates nothing, so the full grids cost milliseconds.
    module = _module(name)
    quick = module.jobs(Fidelity.quick())
    surrogate = module.jobs(Fidelity.surrogate())
    fits = sum(isinstance(job, UipcFitJob) for job in surrogate)
    assert (len(quick), fits, len(surrogate) - fits) == FULL_GRIDS[name]
    assert len(set(quick)) == len(quick)
    assert len(module.jobs(Fidelity.full())) == len(quick)


@pytest.fixture
def sliced(monkeypatch, tmp_path):
    """Narrow every experiment's workload lists; isolate the store."""
    for module_name in EXPERIMENTS.values():
        module = importlib.import_module(module_name)
        for attr, value in SLICE.items():
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, value)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    reset_default_stores()
    yield
    reset_default_stores()


CASES = [(name, {}) for name in sorted(FULL_GRIDS)] + [("fig09", {"schemes": ()})]


@pytest.mark.parametrize("tier", sorted(TIERS))
@pytest.mark.parametrize(
    "name, kwargs", CASES,
    ids=[name + "".join(f"-{k}={v!r}" for k, v in kw.items()) for name, kw in CASES],
)
def test_run_reads_exactly_the_prefetched_grid(name, kwargs, tier, sliced,
                                               monkeypatch):
    module, fidelity = _module(name), TIERS[tier]
    grid = module.jobs(fidelity, **kwargs)
    store = default_store()
    ExecutionEngine(EngineConfig(workers=1)).run_jobs(grid, store=store)

    reads = set()
    get = store.get

    def recording_get(key):
        reads.add(key)
        return get(key)

    monkeypatch.setattr(store, "get", recording_get)
    misses = store.stats.misses
    module.run(fidelity, **kwargs)
    assert store.stats.misses == misses
    assert reads == {job.key for job in grid}
