"""The closed-loop colocated server day (``repro.api.run_day``).

Golden days: ``tests/golden/server_day_legacy.json`` holds every
``WindowRecord`` field of twelve one-server days written by the retired
per-object loop (``ColocatedServer.run_day`` for the eight fixed-monitor
days, ``ColocatedServer.run_day_adaptive`` for the four adaptive ones) at
the commit that froze it, each run with the mapped seed
``derive_seed(seed, "server", 0) & 0x7FFFFF`` that a one-server fleet
with ``FleetConfig(seed=seed)`` gives its only server.  There the file
was also checked against a one-server ``FleetEngine`` day with
``tail="exact"``.  ``run_day(seed=seed)`` must reproduce every field of
every window bit for bit.  Nothing can regenerate the file now, so it
ignores ``REPRO_GOLDEN_UPDATE``.
"""

import dataclasses
import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro import api
from repro.core.adaptive import AdaptiveStretchPolicy
from repro.core.colocation import ColocationPerformance, ModePerformance
from repro.core.monitor import MODE_ORDER, MonitorConfig
from repro.core.partitioning import scheme_by_name
from repro.core.server import ServerTimeline, WindowRecord
from repro.core.stretch import StretchMode
from repro.util.rng import derive_seed
from repro.workloads.registry import get_profile


def performance_model() -> ColocationPerformance:
    """Hand-built per-mode model (avoids slow core simulation in tests)."""
    return ColocationPerformance(
        ls_workload="web_search",
        batch_workload="zeusmp",
        ls_solo_uipc=0.6,
        per_mode={
            StretchMode.BASELINE: ModePerformance(ls_uipc=0.52, batch_uipc=0.50),
            StretchMode.B_MODE: ModePerformance(ls_uipc=0.45, batch_uipc=0.60),
            StretchMode.Q_MODE: ModePerformance(ls_uipc=0.58, batch_uipc=0.40),
        },
    )


GOLDEN = Path(__file__).parent / "golden" / "server_day_legacy"

#: Per-mode (LS UIPC, batch UIPC) rows of the golden days' models, in
#: ``MODE_ORDER``; every model has an LS solo UIPC of 0.6.
GOLDEN_MODELS = {
    "fixed": ((0.52, 0.50), (0.46, 0.58), (0.58, 0.40)),
    "adaptive": ((0.55, 0.50), (0.48, 0.58), (0.58, 0.40)),
}

#: Twelve one-server days.  Unlisted knobs default to ``ls="web_search"``,
#: ``monitor=MonitorConfig()``, Q-mode available and the model named after
#: the controller; ``adaptive`` lists the provisioned B-modes and the
#: safety margin.
GOLDEN_CASES = {
    "web_search_5min": dict(
        load="web_search", window_minutes=5.0, requests_per_window=300,
        seed=1,
    ),
    "youtube_60min": dict(
        load="youtube", window_minutes=60.0, requests_per_window=600, seed=2,
    ),
    "data_serving_youtube_30min": dict(
        ls="data_serving", load="youtube", window_minutes=30.0,
        requests_per_window=500, seed=3,
    ),
    "web_serving_20min": dict(
        ls="web_serving", load="web_search", window_minutes=20.0,
        requests_per_window=400, seed=4,
    ),
    "media_streaming_flat": dict(
        ls="media_streaming", load="flat:0.5", window_minutes=60.0,
        requests_per_window=400, seed=5,
    ),
    "throttle_no_q_mode": dict(
        load="flat:1.15", window_minutes=30.0, requests_per_window=400,
        seed=13, monitor=(0.6, 2, 1, 4), q_mode_available=False,
    ),
    "throttle_q_mode_10min": dict(
        load="youtube", window_minutes=10.0, requests_per_window=300, seed=2,
        monitor=(0.7, 2, 1, 4),
    ),
    "data_serving_flat_240min": dict(
        ls="data_serving", load="flat:0.2", window_minutes=240.0,
        requests_per_window=300, seed=8, monitor=(0.5, 2, 3, 10),
    ),
    "adaptive_flat": dict(
        load="flat:0.3", window_minutes=60.0, requests_per_window=600, seed=6,
        adaptive=(("64-128", "56-136", "48-144", "40-152", "32-160"), 0.85),
    ),
    "adaptive_zero_load": dict(
        load="flat:0.0", window_minutes=120.0, requests_per_window=400,
        seed=6,
        adaptive=(("64-128", "56-136", "48-144", "40-152", "32-160"), 0.85),
    ),
    "adaptive_web_search": dict(
        load="web_search", window_minutes=30.0, requests_per_window=600,
        seed=9,
        adaptive=(("64-128", "56-136", "48-144", "40-152", "32-160"), 0.85),
    ),
    "adaptive_data_serving": dict(
        ls="data_serving", load="youtube", window_minutes=60.0,
        requests_per_window=400, seed=10,
        adaptive=(("64-128", "56-136", "48-144"), 0.7),
    ),
}
#: The ``WindowRecord`` fields, in declaration order.
RECORD_FIELDS = tuple(f.name for f in dataclasses.fields(WindowRecord))


def golden_spec(name: str) -> dict:
    """The full case spec, defaults filled in (stored beside the data)."""
    case = GOLDEN_CASES[name]
    spec = dict(
        ls="web_search", monitor=dataclasses.astuple(MonitorConfig()),
        q_mode_available=True, adaptive=None,
        model="adaptive" if case.get("adaptive") else "fixed",
    )
    spec.update(case)
    spec["monitor"] = list(spec["monitor"])
    if spec["adaptive"] is not None:
        b_modes, margin = spec["adaptive"]
        spec["adaptive"] = {"b_modes": list(b_modes), "safety_margin": margin}
    return spec


def golden_model(spec: dict) -> ColocationPerformance:
    rows = GOLDEN_MODELS[spec["model"]]
    return ColocationPerformance(
        ls_workload=spec["ls"],
        batch_workload="zeusmp",
        ls_solo_uipc=0.6,
        per_mode={
            mode: ModePerformance(*row) for mode, row in zip(MODE_ORDER, rows)
        },
    )


def golden_policy(spec: dict, model: ColocationPerformance):
    if spec["adaptive"] is None:
        return None
    return AdaptiveStretchPolicy(
        get_profile(spec["ls"]).qos, model,
        tuple(scheme_by_name(n) for n in spec["adaptive"]["b_modes"]),
        safety_margin=spec["adaptive"]["safety_margin"],
    )


def record_fields(windows) -> dict:
    """Per-field window lists of a ``ServerTimeline`` (JSON-ready)."""
    out = {name: [] for name in RECORD_FIELDS}
    for record in windows:
        for name in RECORD_FIELDS:
            value = getattr(record, name)
            out[name].append(
                value.value if isinstance(value, StretchMode) else value
            )
    return out


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@functools.lru_cache(maxsize=None)
def golden_cases() -> dict:
    payload = json.loads(GOLDEN.with_suffix(".json").read_text())
    digest = hashlib.sha256(_canonical(payload).encode()).hexdigest()
    assert digest == GOLDEN.with_suffix(".sha256").read_text().strip(), (
        "server_day_legacy.json does not match its committed digest"
    )
    return payload["cases"]


def golden_day(name: str) -> dict:
    """Golden case ``name`` through ``api.run_day``."""
    spec = golden_spec(name)
    model = golden_model(spec)
    timeline = api.run_day(
        spec["ls"], performance=model, load=spec["load"],
        adaptive=golden_policy(spec, model),
        monitor=MonitorConfig(*spec["monitor"]),
        window_minutes=spec["window_minutes"],
        requests_per_window=spec["requests_per_window"],
        q_mode_available=spec["q_mode_available"], seed=spec["seed"],
    )
    return record_fields(timeline.windows)


def check_golden(name: str, fields: dict) -> None:
    case = golden_cases()[name]
    assert case["spec"] == golden_spec(name)
    assert case["mapped_seed"] == (
        derive_seed(case["spec"]["seed"], "server", 0) & 0x7FFFFF
    )
    for field in RECORD_FIELDS:
        assert fields[field] == case["windows"][field], field


class TestFrozenServerDays:
    """The frozen one-server days (see the module docstring)."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_run_day_reproduces_frozen_day(self, name):
        check_golden(name, golden_day(name))


class TestFrozenCoverage:
    def test_cases_cover_the_closed_loop(self):
        cases = golden_cases()
        fixed = [c for c in cases.values() if c["spec"]["adaptive"] is None]
        adaptive = [c for c in cases.values() if c["spec"]["adaptive"]]
        assert len(fixed) >= 8 and len(adaptive) >= 4
        assert {c["spec"]["ls"] for c in fixed} == {
            "web_search", "data_serving", "web_serving", "media_streaming",
        }
        loads = [x for c in cases.values() for x in c["windows"]["load_fraction"]]
        assert 0.02 <= min(loads) and max(loads) <= 1.2
        throttled = {
            c["spec"]["q_mode_available"] for c in fixed
            if any(c["windows"]["throttled"])
        }
        assert throttled == {True, False}
        assert any(
            set(c["windows"]["load_fraction"]) == {0.02} for c in adaptive
        )

    def test_adaptive_days_start_on_baseline(self):
        # The first window runs Baseline: decide(target) picks it.
        for name, case in golden_cases().items():
            spec = case["spec"]
            if spec["adaptive"] is None:
                continue
            policy = golden_policy(spec, golden_model(spec))
            target = get_profile(spec["ls"]).qos.target_ms
            assert policy.decide(target).scheme.name == "96-96", name
            assert case["windows"]["scheme"][0] == "96-96", name


def run_day(load, **kwargs) -> ServerTimeline:
    return api.run_day(
        "web_search", performance=performance_model(), load=load, seed=9,
        **kwargs,
    )


class TestConstruction:
    def test_requires_matching_model(self):
        with pytest.raises(ValueError, match="performance model"):
            api.run_day("data_serving", performance=performance_model())

    def test_requires_qos(self):
        with pytest.raises(ValueError, match="no QoS contract"):
            api.run_day("zeusmp", performance=performance_model())


class TestRunDay:
    def test_window_count(self):
        timeline = run_day(
            lambda h: 0.3, window_minutes=60, requests_per_window=400
        )
        assert len(timeline.windows) == 24

    def test_low_load_engages_b_mode(self):
        timeline = run_day(
            lambda h: 0.25, window_minutes=30, requests_per_window=600
        )
        assert timeline.bmode_fraction > 0.5
        assert timeline.violation_rate < 0.2

    def test_overload_avoids_b_mode(self):
        # Compared with the same seed's low-load day: an absolute bound on
        # the overload fraction holds on a few seeds only.
        overload = run_day(
            lambda h: 1.1, window_minutes=30, requests_per_window=600
        )
        low = run_day(
            lambda h: 0.25, window_minutes=30, requests_per_window=600
        )
        assert overload.bmode_fraction < low.bmode_fraction

    def test_diurnal_switches_modes(self):
        def load(hour: float) -> float:
            return 0.25 if hour < 12 else 0.95

        timeline = run_day(load, window_minutes=30, requests_per_window=600)
        morning = [w for w in timeline.windows if w.hour < 12]
        evening = [w for w in timeline.windows if w.hour >= 12.5]
        morning_b = sum(w.mode is StretchMode.B_MODE for w in morning) / len(morning)
        evening_b = sum(w.mode is StretchMode.B_MODE for w in evening) / len(evening)
        assert morning_b > evening_b

    def test_batch_gain_positive_at_low_load(self):
        timeline = run_day(
            lambda h: 0.25, window_minutes=30, requests_per_window=600
        )
        gain = timeline.batch_throughput_gain(0.50)
        assert gain > 0.05

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            run_day(lambda h: 0.3, window_minutes=0)


class TestTimeline:
    def test_empty_timeline_metrics(self):
        t = ServerTimeline()
        assert t.violation_rate == 0.0
        assert t.bmode_fraction == 0.0
        assert t.batch_throughput_gain(1.0) == 0.0

    def test_record_fields(self):
        record = WindowRecord(
            hour=1.0, load_fraction=0.5, mode=StretchMode.BASELINE,
            tail_latency_ms=50.0, qos_violated=False, throttled=False,
            batch_uipc=0.5,
        )
        assert record.mode is StretchMode.BASELINE
