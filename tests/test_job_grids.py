"""Each experiment's job grid is exactly the work its ``run`` reads.

Grid experiments define ``jobs = recorded_jobs(run)``: the grid that
``stretch-repro --jobs N`` pre-executes is recorded from ``run`` itself.
Prefetching it must leave ``run`` nothing to simulate (no store miss) and
nothing unread (every prefetched key is read), at an exact tier and at the
surrogate tier, whose fits and exact jobs follow one coverage rule: a
lookup fits a family only when it asks it an off-anchor value.  A fit is
not a job: the grid holds its members, which run on the engine and store
the caller gives.  The surrogate tier's values are pinned by digest, and
its anchors are the exact tier's own store entries.
"""

from __future__ import annotations

import importlib
import json

import pytest

from repro.check.surrogate import surrogate_accuracy_sweep
from repro.cpu.sampling import SamplingConfig
from repro.cpu.surrogate import UipcGrid
from repro.engine import EngineConfig, ExecutionEngine, SimJob
from repro.engine.store import ResultStore, default_store, reset_default_stores
from repro.experiments import common
from repro.experiments.common import Fidelity
from repro.experiments.runner import EXPERIMENTS, main, result_to_jsonable
from repro.util.rng import derive_seed
from tests.test_golden_digests import _digest

TINY = SamplingConfig(n_samples=2, warmup_instructions=500,
                      measure_instructions=600, seed=11)
#: The stock grid's anchor range with one validation point and no interior
#: anchors: each fit runs 3 jobs, not 13-15, and every experiment's slice
#: asks it off-anchor values, so each surrogate case below runs fits.
COARSE = UipcGrid(
    solo_anchors=(1 / 12, 1.0), solo_validation=(1 / 2,),
    pair_anchors=(1 / 6, 5 / 6), pair_validation=(1 / 2,), n_val_reps=1,
)
TIERS = {
    "quick": Fidelity("quick", TINY),
    "surrogate": Fidelity("surrogate", TINY, grid=COARSE),
}

#: Experiment id -> (quick grid, surrogate grid) over the full 4 x 29
#: colocations.  A surrogate grid holds every fitted family's members (15
#: per solo fit, 13 per pair fit: fig06 fits 33 families, fig09 116) and
#: the queries no fit answers: families asked only anchor values, the
#: dynamically shared ROB and fetch throttling.
FULL_GRIDS = {
    "fig03": (149, 149),
    "fig04": (146, 146),
    "fig05": (497, 497),
    "fig06": (396, 495),
    "fig09": (1276, 1508),
    "fig10": (232, 232),
    "fig11": (232, 232),
    "fig12": (696, 696),
    "fig13": (464, 464),
    "fig14": (116, 116),
    "ext_sensitivity": (56, 56),
}
#: The experiments whose lookups ask the stock surrogate grid only anchor
#: values: their surrogate tier runs exactly the quick tier's jobs.
ANCHOR_ONLY = set(FULL_GRIDS) - {"fig06", "fig09"}

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
    assert (len(quick), len(surrogate)) == FULL_GRIDS[name]
    assert all(isinstance(job, SimJob) for job in surrogate)
    assert len(set(quick)) == len(quick)
    assert len(module.jobs(Fidelity.full())) == len(quick)
    if name in ANCHOR_ONLY:
        assert surrogate == quick


def _narrow(monkeypatch, tmp_path, attrs: dict):
    """Set ``attrs`` on every experiment module; isolate the store."""
    for module_name in EXPERIMENTS.values():
        module = importlib.import_module(module_name)
        for attr, value in attrs.items():
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, value)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    reset_default_stores()


@pytest.fixture
def sliced(monkeypatch, tmp_path):
    """Narrow every experiment's workload lists; isolate the store."""
    _narrow(monkeypatch, tmp_path, SLICE)
    yield
    reset_default_stores()


@pytest.fixture
def stock_sliced(monkeypatch, tmp_path):
    """The workload slice with every other sweep (fig06's ROB sizes) as
    shipped, so fig06 asks the stock grid off-anchor values."""
    _narrow(monkeypatch, tmp_path, {
        attr: value for attr, value in SLICE.items() if attr != "ROB_SIZES"
    })
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


def _entries(directory) -> set[str]:
    """The job keys a store directory holds."""
    return {path.stem for path in directory.glob("v*/*.json")}


@pytest.mark.parametrize("workers", [1, 2])
def test_the_engine_store_holds_every_member(workers, sliced, tmp_path):
    grid = _module("fig06").jobs(TIERS["surrogate"])
    target = tmp_path / "engine"
    engine = ExecutionEngine(EngineConfig(workers=workers))
    engine.run_jobs(grid, store=ResultStore(target))
    assert _entries(tmp_path) == set()  # the default store's directory
    assert _entries(target) == {job.key for job in grid}
    # fig06's slice asks two solo families an off-anchor value: two fits
    # of three members each on the coarse grid.
    assert len(grid) == 6 and all(isinstance(job, SimJob) for job in grid)


def test_the_gate_reads_its_fits_through_its_store(sliced, tmp_path):
    target = tmp_path / "gate"
    report = surrogate_accuracy_sweep(
        n_configs=2, grid=COARSE, store=ResultStore(target)
    )
    assert len(report.results) == 2
    assert _entries(tmp_path) == set()
    assert _entries(target)


# ----------------------------------------------------------------------
# The stock surrogate tier: pinned values, shared store entries
# ----------------------------------------------------------------------

STOCK = {
    "quick": Fidelity("quick", TINY),
    "surrogate": Fidelity("surrogate", TINY, grid=UipcGrid()),
}

#: sha256 of the canonical JSON of ``result_to_jsonable(run(...))`` at
#: ``STOCK["surrogate"]`` on the stock slice.  They were captured on code
#: that fitted every family a lookup could interpolate, whatever values it
#: asked, so they also show that answering an anchor-only family from its
#: exact jobs moves no value.
SURROGATE_DIGESTS = {
    "fig03": "7d269933146cfa94e4c59b551c53b243381d3023b694b28e773c68d0d3b3ab34",
    "fig04": "4f4d162948e8848f73600ac8733c6f6f3ca9883ecb4f42dc1581c666c70823fc",
    "fig05": "cdea1b329255305c33e7d3dde9e3f17b8029f5473842b4da58051d06fb4aa8ec",
    "fig06": "a5e9a60e2328fd62aa67562b8850cb5180142079efa358cc8a8c40679d39a66a",
    "fig09": "7c59c6ed534bba339328468c60faaa9520396fcbd9755f3b7b448bc703245cff",
    "fig10": "8b3147b97fa7389e050c6baab4a5f112509800fd3bc9597e9906bf963bf35132",
    "fig11": "707315adc5b5136e40744a7e165a1fddcf644c098ac0766e036c99c2555f90b3",
    "fig12": "b3365a4185886532bd35c6250ba936574eeddb7cb351cff51aefb8bfbd6d4d0f",
    "fig13": "b73feb62ca70de47c41f84162f747c3938cb8d8bad8b59ca79715b22aa279b83",
    "fig14": "eb2899d268c13b43a0beb29c8ddd1dd5d2da8fdd54cda6b50e349abc0034fcc1",
    "ext_sensitivity": (
        "37ff33c048995767c6e45b453e3b927d4658ab8d93d7f4e475dc4e0f067133e0"
    ),
}


@pytest.mark.parametrize("name", sorted(FULL_GRIDS))
def test_surrogate_tier_values_are_pinned(name, stock_sliced):
    result = _module(name).run(STOCK["surrogate"])
    assert _digest(result_to_jsonable(result)) == SURROGATE_DIGESTS[name]


@pytest.fixture
def simulated(monkeypatch):
    """The SimJobs that run (not store hits), in order."""
    ran: list[SimJob] = []
    run = SimJob.run

    def recording_run(job):
        ran.append(job)
        return run(job)

    monkeypatch.setattr(SimJob, "run", recording_run)
    return ran


def test_surrogate_after_quick_runs_nothing_anchor_only(stock_sliced,
                                                        simulated):
    module = _module("ext_sensitivity")
    quick = module.run(STOCK["quick"])
    assert simulated
    simulated.clear()
    misses = default_store().stats.misses
    assert module.run(STOCK["surrogate"]) == quick
    assert simulated == []
    assert default_store().stats.misses == misses


def test_surrogate_after_quick_runs_only_validation_replays(stock_sliced,
                                                            simulated):
    module, grid = _module("fig06"), UipcGrid()
    quick = module.jobs(STOCK["quick"])
    module.run(STOCK["quick"])
    simulated.clear()
    members = module.jobs(STOCK["surrogate"])
    families = {job.workloads for job in members}
    assert len(families) == 2  # web_search and zeusmp, one solo fit each
    module.run(STOCK["surrogate"])
    replays = len(grid.validation_values("solo", 192)) * grid.n_val_reps
    assert replays == 8
    assert len(simulated) == replays * len(families)
    assert set(simulated) == set(members) - set(quick)
    validation_seeds = {
        derive_seed(TINY.seed, "uipc-surrogate-val", rep)
        for rep in range(grid.n_val_reps)
    }
    assert {job.sampling.seed for job in simulated} == validation_seeds


def test_json_counts_the_fits_run_assembles(stock_sliced, monkeypatch,
                                            tmp_path, capsys):
    # fig06 fits its two workloads' families; ext_sensitivity asks the
    # stock grid only anchor values, so its lookups read exact jobs.
    monkeypatch.setitem(
        common._REGISTRY, "tiny-surrogate", lambda seed: STOCK["surrogate"]
    )
    out = tmp_path / "json"
    assert main(["run", "fig06", "ext_sensitivity", "--fidelity",
                 "tiny-surrogate", "--json", str(out)]) == 0
    fig06, sensitivity = (
        json.loads((out / f"{name}.json").read_text())
        for name in ("fig06", "ext_sensitivity")
    )
    assert fig06["surrogate"] == {"fits": 2, "exact_lookups": 0}
    assert fig06["run_store_misses"] == 0
    assert sensitivity["surrogate"]["fits"] == 0
    assert sensitivity["surrogate"]["exact_lookups"] > 0
    assert sensitivity["run_store_misses"] == 0
