"""The cluster day (the paper's §II deployment setting) on the fleet path.

A latency-sensitive service is load-balanced over a pool of SMT servers
that run batch work on the sibling thread, for 24 hours.  The pool's
per-object loop (``ClusterSimulator``: one ``ColocatedServer`` per server,
aggregated by ``FleetTimeline.from_cluster``) is retired.  Its output on
seven such days was frozen into ``tests/golden/fleet_exact_legacy.json``
at commit b5bebda, where that loop and the ``tail="exact"`` fleet path
were both checked against it, and the exact path must keep reproducing
it bit for bit:

* the whole ``FleetTimeline.to_values()`` wherever the two float window
  sums add their terms in the loop's order (all cases but
  ``youtube_8x240``, whose eight-server sums numpy adds pairwise);
* on every case, the integer aggregates and each per-(server, window)
  load fraction and tail latency.

Nothing can regenerate the file now, so it ignores
``REPRO_GOLDEN_UPDATE``.  A deliberate change to the queueing DES or to
the per-server seed or jitter streams needs its own argument for the new
numbers (a fresh oracle), not a refresh of this file.
"""

import dataclasses
import functools
import hashlib
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro import api
from repro.core.colocation import ColocationPerformance, ModePerformance
from repro.core.monitor import MonitorConfig
from repro.core.stretch import StretchMode
from repro.fleet import FleetConfig, FleetEngine, FleetTimeline
from repro.fleet.engine import FleetStepper
from repro.workloads.registry import get_profile


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


GOLDEN = Path(__file__).parent / "golden" / "fleet_exact_legacy"

#: Seven cluster days.  Unlisted knobs take the ``FleetConfig`` defaults
#: (``overprovision=1.2``, ``monitor=MonitorConfig()``, Q-mode available).
GOLDEN_CASES = {
    "web_search_2x240": dict(
        load="web_search", n_servers=2, window_minutes=240.0,
        requests_per_window=300, seed=5,
    ),
    "web_search_3x60": dict(
        load="web_search", n_servers=3, window_minutes=60.0,
        requests_per_window=500, seed=5,
    ),
    "web_search_4x20_tight": dict(
        load="web_search", n_servers=4, window_minutes=20.0,
        requests_per_window=1000, seed=17, overprovision=1.0,
    ),
    "flat_overload": dict(
        load="flat:1.1", n_servers=3, window_minutes=60.0,
        requests_per_window=400, seed=7, overprovision=1.0,
        monitor=(0.6, 2, 1, 3),
    ),
    "flat_throttle_no_q_mode": dict(
        load="flat:1.05", n_servers=3, window_minutes=60.0,
        requests_per_window=400, seed=7, overprovision=1.0,
        monitor=(0.6, 2, 2, 2), q_mode_available=False,
    ),
    "data_serving_2x120": dict(
        ls="data_serving", load="web_search", n_servers=2,
        window_minutes=120.0, requests_per_window=300, seed=4,
    ),
    "youtube_8x240": dict(
        load="youtube", n_servers=8, window_minutes=240.0,
        requests_per_window=300, seed=3,
    ),
}
#: Cases whose two float window sums have 8+ terms: numpy's pairwise
#: ``sum`` adds them in another order than the loop's sequential ``+=``.
SUMMATION_ORDER_CASES = frozenset({"youtube_8x240"})
#: The case that runs through the facade rather than ``FleetEngine``.
API_CASE = "web_search_3x60"


def golden_spec(name: str) -> dict:
    """The full case spec, defaults filled in (stored beside the data)."""
    spec = dict(
        ls="web_search", overprovision=1.2,
        monitor=dataclasses.astuple(MonitorConfig()), q_mode_available=True,
    )
    spec.update(GOLDEN_CASES[name])
    spec["monitor"] = list(spec["monitor"])
    return spec


def golden_model(ls: str) -> ColocationPerformance:
    model = performance_model()
    return ColocationPerformance(
        ls_workload=ls,
        batch_workload=model.batch_workload,
        ls_solo_uipc=model.ls_solo_uipc,
        per_mode=model.per_mode,
    )


def golden_config(spec: dict) -> FleetConfig:
    return FleetConfig(
        n_servers=spec["n_servers"],
        overprovision=spec["overprovision"],
        window_minutes=spec["window_minutes"],
        requests_per_window=spec["requests_per_window"],
        seed=spec["seed"],
        monitor=MonitorConfig(*spec["monitor"]),
        q_mode_available=spec["q_mode_available"],
    )


@functools.lru_cache(maxsize=None)
def exact_day(name: str):
    """Golden case ``name`` on the ``tail="exact"`` fleet path.

    Returns ``(timeline, loads, tails)``; the last two are the
    per-(server, window) load fractions and tail latencies the stepper's
    DES evaluator saw and returned, shape ``(n_servers, n_windows)``.
    """
    spec = golden_spec(name)
    profile = get_profile(spec["ls"])
    model = golden_model(spec["ls"])
    config = golden_config(spec)
    loads, tails = [], []
    tails_of = FleetStepper._tails

    def recording(self, window, window_loads, perf, offset):
        out = tails_of(self, window, window_loads, perf, offset)
        assert offset == 0 and len(out) == config.n_servers
        loads.append(np.array(window_loads))
        tails.append(out.copy())
        return out

    with mock.patch.object(FleetStepper, "_tails", recording):
        if name == API_CASE:
            timeline = api.run_fleet(
                profile, performance=model, load=spec["load"],
                config=config, tail="exact",
            )
        else:
            timeline = FleetEngine(profile, model, config).run_day(
                spec["load"], tail="exact"
            )
    return timeline, np.array(loads).T, np.array(tails).T


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@functools.lru_cache(maxsize=None)
def golden_cases() -> dict:
    payload = json.loads(GOLDEN.with_suffix(".json").read_text())
    digest = hashlib.sha256(_canonical(payload).encode()).hexdigest()
    assert digest == GOLDEN.with_suffix(".sha256").read_text().strip(), (
        "fleet_exact_legacy.json does not match its committed digest"
    )
    return payload["cases"]


def check_golden(name: str, timeline, loads, tails) -> None:
    """``(timeline, loads, tails)`` reproduce the frozen case ``name``."""
    case = golden_cases()[name]
    assert case["spec"] == golden_spec(name)
    frozen = FleetTimeline.from_values(case["timeline"])
    assert (timeline.n_servers, timeline.n_windows) == (
        frozen.n_servers, frozen.n_windows
    )
    for field in (
        "mode_counts", "violations", "throttled",
        "server_violations", "server_bmode_windows",
    ):
        assert np.array_equal(getattr(timeline, field), getattr(frozen, field)), field
    assert loads.tolist() == case["load_fraction"]
    assert tails.tolist() == case["tail_latency_ms"]
    if name in SUMMATION_ORDER_CASES:
        # Two orders of an n-term positive sum differ by at most
        # (n - 1) ulp of the total.
        rtol = (timeline.n_servers - 1) * np.finfo(float).eps
        for field in ("tail_ms_sum", "batch_uipc_sum"):
            assert np.allclose(
                getattr(timeline, field), getattr(frozen, field),
                rtol=rtol, atol=0.0,
            ), field
    else:
        assert list(timeline.to_values()) == case["timeline"]


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
class TestFrozenLegacyGolden:
    """The frozen per-object days (see the module docstring)."""

    def test_exact_path_reproduces_frozen_day(self, name):
        check_golden(name, *exact_day(name))


class TestConstruction:
    def test_validation(self):
        for bad in (
            dict(n_servers=0), dict(overprovision=0.8),
            dict(balance_jitter=0.7),
        ):
            with pytest.raises(ValueError):
                api.run_fleet(
                    "web_search", performance=performance_model(),
                    tail="exact", **bad,
                )


class TestRunDay:
    """Golden case ``web_search_3x60``: three servers, hourly windows."""

    @pytest.fixture(scope="class")
    def day(self):
        return exact_day("web_search_3x60")

    def test_per_server_timelines(self, day):
        timeline, loads, tails = day
        assert (timeline.n_servers, timeline.n_windows) == (3, 24)
        assert loads.shape == tails.shape == (3, 24)

    def test_servers_differ_by_jitter(self, day):
        __, loads, __ = day
        assert len({tuple(row) for row in loads}) == 3

    def test_offpeak_bmode_engagement(self, day):
        # Over-provisioned cluster spends most of the day below threshold.
        assert day[0].bmode_fraction > 0.3

    def test_violations_bounded(self, day):
        assert day[0].violation_rate < 0.3

    def test_cluster_gain_positive(self, day):
        assert day[0].batch_throughput_gain(0.50) > 0.0

    def test_reproducible(self):
        def run():
            return api.run_fleet(
                "web_search", performance=performance_model(),
                load="flat:0.5", n_servers=2, seed=9, window_minutes=120,
                requests_per_window=400, tail="exact",
            ).to_values()

        assert run() == run()


class TestEmptyTimeline:
    def test_aggregates(self):
        t = FleetTimeline.empty(3, 0, 60.0)
        assert t.violation_rate == 0.0
        assert t.bmode_fraction == 0.0
        assert t.batch_throughput_gain(1.0) == 0.0
