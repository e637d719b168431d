"""Tests for the live fleet service (`repro.service`).

The load-bearing guarantees:

* **checkpoint/resume bit-identity** — a service killed mid-day and
  resumed from its checkpoint produces a `FleetTimeline` exactly equal
  (every array) to one that never stopped;
* **what-if isolation** — a shadow query never perturbs the live fleet:
  the state arrays are bytewise unchanged and subsequent windows are
  bit-identical to a query-free run;
* **what-if exactness** — every reply read off the rolling live
  projection is byte-equal to the reply of a per-query fork of the live
  state (`fresh_live_projection`, the oracle), across feeds with gaps and
  without forecasts, populations, scenarios, reconfiguration and resume;
* **graceful feed degradation** — gaps are filled by holding the last
  window, and a stall beyond `max_gap_windows` stops the service
  cleanly rather than free-running on stale data;
* the control plane answers every command (and every malformed request)
  without ever taking the serve loop down.
"""

import io
import json

import numpy as np
import pytest

import repro.fleet.engine as fleet_engine
from repro.core.colocation import ColocationPerformance, ModePerformance
from repro.core.monitor import MonitorConfig
from repro.core.stretch import StretchMode
from repro.engine.store import ResultStore
from repro.fleet import (
    FleetConfig,
    FleetEngine,
    FleetState,
    SurrogateGrid,
    TailSurrogate,
    fit_tail_surrogate,
    resolve_load_curve,
)
from repro.fleet.shard import window_loads
from repro.obs import MetricsRegistry, SpanTracer
from repro.obs.sampler import JsonlSink
from repro.scenarios import as_scenario
from repro.service import (
    COMMANDS,
    ControlPlane,
    CurveFeed,
    FleetService,
    LoadFeed,
    Phase,
    PhaseFeed,
    ReplayFeed,
    handle_command,
    load_checkpoint,
    make_feed,
    parse_phases,
    replay_curve,
    save_checkpoint,
)
from repro.service.checkpoint import checkpoint_key
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


TEST_RPW = 400
TEST_GRID = SurrogateGrid(
    loads=(0.02, 0.3, 0.6, 0.9, 1.2),
    n_requests=TEST_RPW,
    peak_requests=20000,
    n_reps=6,
    n_val_reps=2,
    seed=0,
)


def fleet_config(**kwargs) -> FleetConfig:
    defaults = dict(
        n_servers=8,
        window_minutes=120.0,
        requests_per_window=TEST_RPW,
        seed=5,
    )
    defaults.update(kwargs)
    return FleetConfig(**defaults)


@pytest.fixture(scope="module")
def surrogate() -> TailSurrogate:
    perf_factors = FleetEngine(
        get_profile("web_search"), performance_model(), fleet_config()
    ).perf_factors
    return fit_tail_surrogate(
        get_profile("web_search").qos, perf_factors, TEST_GRID
    )


def make_engine(surrogate, **cfg_kwargs) -> FleetEngine:
    return FleetEngine(
        get_profile("web_search"),
        performance_model(),
        fleet_config(**cfg_kwargs),
        surrogate=surrogate,
    )


def make_service(surrogate, feed="web_search", **kwargs) -> FleetService:
    return FleetService(make_engine(surrogate), feed, **kwargs)


def timelines_equal(a, b) -> bool:
    """Bitwise equality across every FleetTimeline array."""
    return (
        np.array_equal(a.hours, b.hours)
        and np.array_equal(a.violations, b.violations)
        and np.array_equal(a.throttled, b.throttled)
        and np.array_equal(a.mode_counts, b.mode_counts)
        and np.array_equal(a.tail_ms_sum, b.tail_ms_sum)
        and np.array_equal(a.batch_uipc_sum, b.batch_uipc_sum)
        and np.array_equal(a.server_violations, b.server_violations)
        and np.array_equal(a.server_bmode_windows, b.server_bmode_windows)
    )


# ----------------------------------------------------------------------
# Feeds
# ----------------------------------------------------------------------


class TestCurveFeed:
    def test_named_curve_is_gapless(self):
        feed = CurveFeed("web_search")
        assert feed.name == "web_search"
        for k in range(12):
            assert feed.load(k, k * 2.0) is not None

    def test_flat_spec(self):
        feed = make_feed("flat:0.7")
        assert feed.load(3, 6.0) == pytest.approx(0.7)

    def test_callable(self):
        feed = make_feed(lambda hour: 0.1 * hour)
        assert feed.load(0, 4.0) == pytest.approx(0.4)

    def test_forecast_defaults_to_load(self):
        feed = make_feed("flat:0.5")
        assert feed.forecast(9, 18.0) == feed.load(9, 18.0)


class TestPhaseFeed:
    def test_parse_phases(self):
        phases = parse_phases(
            "flat@0.3x4,ramp@0.3-1.1x2,oscillate@0.5-0.9x6~30m"
        )
        assert [p.kind for p in phases] == ["flat", "ramp", "oscillate"]
        assert phases[1].to_level == pytest.approx(1.1)
        assert phases[2].period_minutes == pytest.approx(30.0)

    @pytest.mark.parametrize("bad", ["", "flat@x4", "warp@0.3x4", "ramp@0.5x2"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_phases(bad)

    def test_flat_and_ramp_values(self):
        feed = PhaseFeed("flat@0.4x2,ramp@0.4-0.8x4")
        assert feed.load(0, 1.0) == pytest.approx(0.4)
        assert feed.load(0, 4.0) == pytest.approx(0.6)  # ramp midpoint
        assert feed.load(0, 5.9) == pytest.approx(0.79, abs=0.01)

    def test_oscillation_bounded_by_levels(self):
        feed = PhaseFeed((Phase("oscillate", 6.0, 0.5, 0.9, 60.0),))
        values = [feed.load(0, h / 10) for h in range(60)]
        assert min(values) >= 0.5 - 1e-9
        assert max(values) <= 0.9 + 1e-9

    def test_phases_cycle(self):
        feed = PhaseFeed("flat@0.3x1,flat@0.7x1")
        assert feed.load(0, 0.5) == pytest.approx(0.3)
        assert feed.load(0, 1.5) == pytest.approx(0.7)
        assert feed.load(0, 2.5) == pytest.approx(0.3)  # wrapped

    def test_jitter_is_deterministic_per_window(self):
        a = PhaseFeed("flat@0.5x24", seed=3, jitter=0.2)
        b = PhaseFeed("flat@0.5x24", seed=3, jitter=0.2)
        assert a.load(7, 14.0) == b.load(7, 14.0)
        assert a.load(7, 14.0) != a.load(8, 16.0)


class TestReplayFeed:
    def write_stream(self, path, records):
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return path

    def test_replays_recorded_windows(self, tmp_path):
        path = self.write_stream(tmp_path / "s.jsonl", [
            {"window": 0, "hour": 0.0, "cluster_load": 0.3},
            {"window": 1, "hour": 2.0, "cluster_load": 0.8},
        ])
        feed = ReplayFeed.from_jsonl(path, window_minutes=120.0)
        assert feed.n_records == 2
        assert feed.load(0, 0.0) == pytest.approx(0.3)
        assert feed.load(1, 2.0) == pytest.approx(0.8)
        assert feed.load(2, 4.0) is None  # gap

    def test_foreign_and_torn_lines_are_skipped(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text(
            '{"window": 0, "load": 0.4}\n'
            "not json\n"
            '{"type": "checkpoint", "key": "abc"}\n'
            '{"hour": 2.0, "load_fraction": 0.6}\n'
        )
        feed = ReplayFeed.from_jsonl(path, window_minutes=120.0)
        assert feed.n_records == 2
        assert feed.load(1, 2.0) == pytest.approx(0.6)

    def test_empty_stream_rejected(self, tmp_path):
        path = self.write_stream(tmp_path / "s.jsonl", [{"type": "summary"}])
        with pytest.raises(ValueError, match="no usable records"):
            ReplayFeed.from_jsonl(path)

    def test_curve_holds_last_across_gaps(self, tmp_path):
        path = self.write_stream(tmp_path / "s.jsonl", [
            {"window": 0, "cluster_load": 0.3},
            {"window": 4, "cluster_load": 0.9},
        ])
        curve = replay_curve(path, window_minutes=60.0)
        assert curve(0.0) == pytest.approx(0.3)
        assert curve(2.5) == pytest.approx(0.3)  # held across the gap
        assert curve(4.0) == pytest.approx(0.9)
        assert curve(23.0) == pytest.approx(0.9)

    def test_registered_as_load_curve(self, tmp_path):
        """`replay:<path>` works anywhere a named curve does."""
        path = self.write_stream(tmp_path / "s.jsonl", [
            {"window": 0, "cluster_load": 0.25},
        ])
        name, fn = resolve_load_curve(f"replay:{path}")
        assert name == f"replay:{path}"
        assert fn(12.0) == pytest.approx(0.25)

    def five_minute_day(self, tmp_path):
        """A day recorded at 5-minute windows (288), every load distinct."""
        loads = [0.2 + 0.7 * k / 287 for k in range(288)]
        path = self.write_stream(tmp_path / "day.jsonl", [
            {"type": "fleet_window", "window": k, "cluster_load": load}
            for k, load in enumerate(loads)
        ])
        return f"replay:{path}", loads

    def test_replay_spec_reads_the_fleet_window_length(self, tmp_path):
        # Read at 10-minute windows, window 287 got window 143's load.
        spec, loads = self.five_minute_day(tmp_path)
        assert window_loads(spec, FleetConfig(window_minutes=5.0)) == (
            tuple(loads)
        )

    def test_run_day_steps_the_loads_serve_ingests(self, tmp_path):
        from repro.api import run_day, serve

        spec, loads = self.five_minute_day(tmp_path)
        common = dict(
            performance=performance_model(), window_minutes=5.0,
            requests_per_window=100, seed=5,
        )
        day = run_day("web_search", load=spec, **common)
        service = serve(
            "web_search", feed=spec, n_servers=1, tail="exact", **common
        )
        served = [r["cluster_load"] for r in service.advance(288)]
        assert [w.load_fraction for w in day.windows] == served == loads

    def test_make_feed_dispatch(self, tmp_path):
        path = self.write_stream(tmp_path / "s.jsonl", [
            {"window": 0, "cluster_load": 0.5},
        ])
        assert isinstance(make_feed(f"replay:{path}"), ReplayFeed)
        assert isinstance(make_feed("phases:flat@0.4x24"), PhaseFeed)
        assert isinstance(make_feed("web_search"), CurveFeed)
        feed = PhaseFeed("flat@0.5x24")
        assert make_feed(feed) is feed


# ----------------------------------------------------------------------
# Service loop
# ----------------------------------------------------------------------


class TestServiceLoop:
    def test_advance_matches_run_day(self, surrogate):
        """The served day is bit-identical to the batch `run_day` path."""
        service = make_service(surrogate)
        while not service.done:
            service.advance(5)
        batch = make_engine(surrogate).run_day("web_search")
        assert timelines_equal(service.timeline, batch)

    def test_advance_emits_window_records(self, surrogate):
        service = make_service(surrogate)
        records = service.advance(3)
        assert [r["window"] for r in records] == [0, 1, 2]
        for record in records:
            assert record["servers"] == 8
            assert not record["gap_filled"]

    def test_streaming_outputs(self, surrogate, tmp_path):
        sink = JsonlSink(tmp_path / "out.jsonl")
        service = make_service(
            surrogate,
            registry=MetricsRegistry(),
            sink=sink,
            tracer=SpanTracer(),
        )
        service.advance(4)
        lines = [
            json.loads(line)
            for line in (tmp_path / "out.jsonl").read_text().splitlines()
        ]
        assert [r["window"] for r in lines] == [0, 1, 2, 3]
        assert all(r["type"] == "fleet_window" for r in lines)
        assert service.registry.counter("fleet.windows").value == 4 * 8
        assert len(service.registry.series("fleet.cluster_load").points) == 4
        assert {"service.ingest", "service.advance", "service.publish"} <= (
            service.tracer.span_names()
        )

    def test_run_summary(self, surrogate):
        service = make_service(surrogate)
        summary = service.run(n_windows=3)
        assert summary["type"] == "summary"
        assert summary["served_windows"] == 3
        assert summary["window"] == 3
        assert not summary["done"]

    def test_run_streams_window_records_to_out(self, surrogate):
        out = io.StringIO()
        service = make_service(surrogate)
        service.run(n_windows=3, out=out)
        records = [json.loads(line) for line in out.getvalue().splitlines()]
        windows = [r for r in records if r.get("type") == "fleet_window"]
        assert [r["window"] for r in windows] == [0, 1, 2]
        # The stdout stream doubles as a recordable replay feed.
        feed = ReplayFeed(
            {r["window"]: r["cluster_load"] for r in windows}
        )
        assert feed.load(1, 0.0) == windows[1]["cluster_load"]


class TestFeedGaps:
    class GappyFeed(LoadFeed):
        name = "gappy"

        def __init__(self, gaps):
            self.gaps = gaps

        def load(self, window, hour):
            return None if window in self.gaps else 0.5

    def test_gap_holds_last_window(self, surrogate):
        service = make_service(surrogate, feed=self.GappyFeed({1}))
        records = service.advance(3)
        assert [r["gap_filled"] for r in records] == [False, True, False]
        assert records[1]["cluster_load"] == pytest.approx(0.5)
        assert service.feed_gaps == 1

    def test_leading_gap_defaults_to_zero_load(self, surrogate):
        service = make_service(surrogate, feed=self.GappyFeed({0}))
        record = service.advance(1)[0]
        assert record["gap_filled"]
        assert record["cluster_load"] == 0.0

    def test_stall_stops_cleanly(self, surrogate):
        feed = self.GappyFeed(set(range(2, 1000)))
        service = make_service(surrogate, feed=feed, max_gap_windows=3)
        summary = service.run()
        assert summary["stopped"]
        assert summary["stop_reason"] == "feed_stalled"
        # 2 real windows + 3 tolerated hold-last fills, then a clean stop.
        assert summary["window"] == 5
        assert service.feed_gaps == 4

    def test_gap_burst_within_budget_recovers(self, surrogate):
        service = make_service(
            surrogate, feed=self.GappyFeed({1, 2}), max_gap_windows=3
        )
        records = service.advance(5)
        assert len(records) == 5
        assert not service.stopped


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------


class TestCheckpointResume:
    def test_killed_and_resumed_is_bit_identical(self, surrogate, tmp_path):
        store = ResultStore(tmp_path)
        uninterrupted = make_service(surrogate)
        uninterrupted.run()

        service = make_service(surrogate, store=store)
        service.advance(5)
        key = service.checkpoint()["key"]
        del service  # the kill

        resumed = FleetService.resume(
            key, make_engine(surrogate), "web_search", store=store
        )
        assert resumed.window == 5
        resumed.run()
        assert resumed.done
        assert timelines_equal(resumed.timeline, uninterrupted.timeline)

    def test_resume_restores_monitor_arrays(self, surrogate, tmp_path):
        store = ResultStore(tmp_path)
        service = make_service(surrogate, store=store)
        service.advance(7)
        key = service.checkpoint()["key"]
        state = service.state
        resumed = load_checkpoint(store, key)
        assert np.array_equal(resumed.mode, state.mode)
        assert np.array_equal(resumed.compliant, state.compliant)
        assert np.array_equal(resumed.violation, state.violation)
        assert np.array_equal(resumed.throttle, state.throttle)

    def test_checkpoint_key_changes_with_state(self, surrogate, tmp_path):
        store = ResultStore(tmp_path)
        service = make_service(surrogate, store=store)
        service.advance(1)
        first = service.checkpoint()["key"]
        service.advance(1)
        second = service.checkpoint()["key"]
        assert first != second

    def test_same_state_same_key(self, surrogate, tmp_path):
        store = ResultStore(tmp_path)
        a = make_service(surrogate, store=store)
        b = make_service(surrogate, store=store)
        a.advance(2), b.advance(2)
        assert a.checkpoint()["key"] == b.checkpoint()["key"]

    def test_missing_key_raises(self, tmp_path):
        with pytest.raises(KeyError, match="no checkpoint"):
            load_checkpoint(ResultStore(tmp_path), "deadbeef")

    def test_save_checkpoint_roundtrip(self, surrogate, tmp_path):
        store = ResultStore(tmp_path)
        service = make_service(surrogate)
        service.advance(3)
        key = save_checkpoint(store, "identity", service.state)
        restored = load_checkpoint(store, key)
        assert restored.window == 3
        assert timelines_equal(restored.timeline, service.timeline)

    @staticmethod
    def fixed_state() -> FleetState:
        state = FleetState.fresh(2, 8, 4, 360.0)
        state.window = 3
        state.mode[:] = [0, 1, 2, 1, 0, 2]
        state.compliant[:] = [0, 3, 1, 4, 2, 0]
        state.violation[:] = [1, 0, 0, 2, 0, 1]
        state.throttle[:] = [0, 0, 2, 0, 1, 0]
        t = state.timeline
        t.mode_counts[:3] = [[2, 3, 1], [1, 4, 1], [3, 1, 2]]
        t.violations[:3] = [1, 2, 0]
        t.throttled[:3] = [0, 1, 1]
        t.tail_ms_sum[:3] = [312.5, 0.1 + 0.2, 1e-300]
        t.batch_uipc_sum[:3] = [2.75, 1 / 3, 2.0]
        t.server_violations[:] = [1, 0, 2, 0, 0, 1]
        t.server_bmode_windows[:] = [0, 2, 1, 3, 0, 1]
        return state

    def test_checkpoint_key_literal(self):
        # A key that moves strands every stored checkpoint: the state's
        # flattening and digest must keep producing this one.
        assert checkpoint_key("web_search|fixed", self.fixed_state()) == (
            "588584c3bd57dd93a093fcb9bc0afa2ec6c199b3efce1a4e1f6c057ad8c456bc"
        )

    def test_saved_under_its_key_as_its_values(self, tmp_path):
        state = self.fixed_state()
        store = ResultStore(tmp_path)
        key = save_checkpoint(store, "web_search|fixed", state)
        assert key == checkpoint_key("web_search|fixed", state)
        store.clear_memory()
        assert store.get(key) == state.to_values()


# ----------------------------------------------------------------------
# What-if queries
# ----------------------------------------------------------------------


class TestWhatIf:
    def test_live_state_is_not_perturbed(self, surrogate):
        service = make_service(surrogate)
        service.advance(4)
        state = service.state
        before = {
            "window": state.window,
            "mode": state.mode.copy(),
            "compliant": state.compliant.copy(),
            "violation": state.violation.copy(),
            "throttle": state.throttle.copy(),
            "timeline": state.timeline.copy(),
        }
        service.whatif(monitor=MonitorConfig(engage_fraction=0.9), horizon=6)
        assert state.window == before["window"]
        for field in ("mode", "compliant", "violation", "throttle"):
            assert np.array_equal(getattr(state, field), before[field])
        assert timelines_equal(state.timeline, before["timeline"])

    def test_query_does_not_change_future_windows(self, surrogate):
        plain = make_service(surrogate)
        queried = make_service(surrogate)
        plain.advance(3), queried.advance(3)
        queried.whatif(policy="uniform", horizon=8)
        plain.run(), queried.run()
        assert timelines_equal(plain.timeline, queried.timeline)

    def test_diff_structure(self, surrogate):
        service = make_service(surrogate)
        service.advance(2)
        result = service.whatif(policy="uniform", horizon=5)
        assert result["window"] == 2
        assert result["horizon"] == 5
        assert result["policy"] == "uniform"
        for key in ("violation_rate", "bmode_fraction", "mean_tail_ms"):
            assert result["diff"][key] == pytest.approx(
                result["whatif"][key] - result["live"][key]
            )

    def test_horizon_clamped_to_remaining(self, surrogate):
        service = make_service(surrogate)
        n = service.state.n_windows
        service.advance(n - 2)
        result = service.whatif(policy="uniform", horizon=50)
        assert result["horizon"] == 2

    def test_requires_a_change(self, surrogate):
        service = make_service(surrogate)
        with pytest.raises(ValueError, match="monitor, policy, placement, and/or scenario"):
            service.whatif()

    def test_whatif_after_done_raises(self, surrogate):
        service = make_service(surrogate)
        service.run()
        with pytest.raises(ValueError, match="no windows remaining"):
            service.whatif(policy="uniform")

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_horizon_below_one_rejected_with_windows_left(
        self, surrogate, horizon
    ):
        service = make_service(surrogate)
        service.advance(1)
        with pytest.raises(ValueError, match="horizon must be at least 1"):
            service.whatif(policy="uniform", horizon=horizon)


class TestReconfigure:
    def test_swaps_policy_keeping_state(self, surrogate):
        service = make_service(surrogate)
        service.advance(3)
        timeline_rows = service.timeline.violations[:3].copy()
        result = service.reconfigure(policy="uniform")
        assert result["policy"] == "uniform"
        assert service.window == 3
        assert np.array_equal(service.timeline.violations[:3], timeline_rows)
        service.advance(1)
        assert service.window == 4

    def test_noop_rejected(self, surrogate):
        service = make_service(surrogate)
        with pytest.raises(ValueError):
            service.reconfigure()


# ----------------------------------------------------------------------
# The rolling live projection behind what-ifs
# ----------------------------------------------------------------------


def fresh_live_projection(service, loads):
    """The per-query live projection, kept as the oracle.

    Forks the live state under a clone of the live engine and steps every
    window of the horizon, as every what-if did before the rolling
    projection.
    """
    live = service.engine
    engine = FleetEngine(
        live.ls_profile, live.performance, live.config,
        surrogate=live._surrogate, store=live._store,
        corunners=live.corunners, scenario=live.scenario,
    )
    shadow = engine.stepper(
        None,
        tail=service.tail,
        state=service.state.copy(),
        chunk_size=service._chunk_size,
    )
    for load in loads:
        shadow.step(load)
    return shadow.timeline


class FreshProjectionService(FleetService):
    """A service answering every what-if's live half from a fresh fork."""

    def _project_live(self, loads):
        return fresh_live_projection(self, loads)


class VaryingNoForecastFeed(LoadFeed):
    """A load that changes every window and a forecast that is always None."""

    name = "no-forecast"

    def load(self, window, hour):
        return 0.3 + 0.05 * ((7 * window) % 11)

    def forecast(self, window, hour):
        return None


#: 40-minute windows: a 36-window day, room for 30-window horizons.
WHATIF_MINUTES = 40.0
WHATIF_WINDOWS = 36
WHATIF_HORIZONS = (5, 12, 30)


def recorded_with_gaps() -> ReplayFeed:
    """The web_search curve replayed with single and double gaps."""
    _, curve = resolve_load_curve("web_search")
    gaps = {3, 9, 10, 17, 25, 26, 33}
    return ReplayFeed({
        k: curve(k * WHATIF_MINUTES / 60.0)
        for k in range(WHATIF_WINDOWS) if k not in gaps
    })


WHATIF_FEEDS = {
    "curve": lambda: "web_search",
    "replay-gaps": recorded_with_gaps,
    "phases-jitter": lambda: PhaseFeed(
        "flat@0.4x3,ramp@0.4-1.1x4,oscillate@0.5-0.9x6~90m",
        seed=3, jitter=0.15,
    ),
    "no-forecast": VaryingNoForecastFeed,
}


def aggressor_model() -> ColocationPerformance:
    """A second co-runner whose LS factors permute `performance_model`'s.

    Its factors stay inside the module surrogate's fitted set, while each
    mode maps to a different factor than the first profile's.
    """
    return ColocationPerformance(
        ls_workload="web_search",
        batch_workload="lbm",
        ls_solo_uipc=0.6,
        per_mode={
            StretchMode.BASELINE: ModePerformance(0.46, 0.55),
            StretchMode.B_MODE: ModePerformance(0.46, 0.62),
            StretchMode.Q_MODE: ModePerformance(0.52, 0.45),
        },
    )


def whatif_service(cls, surrogate, feed, mixed, **kwargs) -> FleetService:
    """A stragglers-scenario service with a violation-rate SLO."""
    cfg = dict(window_minutes=WHATIF_MINUTES)
    corunners = None
    if mixed:
        cfg.update(population=("zeusmp", "lbm"), placement="random")
        corunners = (performance_model(), aggressor_model())
    engine = FleetEngine(
        get_profile("web_search"),
        performance_model(),
        fleet_config(**cfg),
        surrogate=surrogate,
        corunners=corunners,
        scenario=as_scenario("stragglers"),
    )
    kwargs.setdefault("slos", ["qos:violation_rate<0.05"])
    return cls(engine, WHATIF_FEEDS[feed](), **kwargs)


def alternates(mixed: bool):
    """Endless what-if alternates: monitor, policy, scenario, placement."""
    options = [
        {"monitor": MonitorConfig(engage_fraction=0.7)},
        {"policy": "uniform"},
        {"scenario": None},
        {"monitor": MonitorConfig(throttle_windows=3), "policy": "uniform"},
    ]
    if mixed:
        options.append({"placement": "symbiosis"})
    while True:
        yield from options


def reply_bytes(reply: dict) -> str:
    return json.dumps(reply, sort_keys=True)


def serve_and_compare(service, oracle, mixed, reconfigure_at=None):
    """Serve both to the end of the day, comparing every what-if reply.

    Every fourth window goes unqueried, so the projection also has to
    survive (or be dropped by) two live windows in a row.
    """
    requests = alternates(mixed)
    compared = 0
    while not service.done:
        if service.window == reconfigure_at:
            for side in (service, oracle):
                side.reconfigure(policy="power-of-two-choices")
        horizons = WHATIF_HORIZONS if service.window % 4 != 3 else ()
        for horizon in horizons:
            request = next(requests)
            got = service.whatif(horizon=horizon, **request)
            want = oracle.whatif(horizon=horizon, **request)
            assert reply_bytes(got) == reply_bytes(want), (
                service.window, horizon, request
            )
            compared += 1
        service.advance(1), oracle.advance(1)
    assert timelines_equal(service.timeline, oracle.timeline)
    return compared


class TestRollingLiveProjection:
    @pytest.mark.parametrize("mixed", [False, True], ids=["homog", "2-profile"])
    @pytest.mark.parametrize("feed", sorted(WHATIF_FEEDS))
    def test_replies_match_per_query_forks(self, surrogate, feed, mixed):
        service = whatif_service(FleetService, surrogate, feed, mixed)
        oracle = whatif_service(FreshProjectionService, surrogate, feed, mixed)
        compared = serve_and_compare(
            service, oracle, mixed, reconfigure_at=WHATIF_WINDOWS // 2
        )
        assert compared == WHATIF_WINDOWS * 3 // 4 * len(WHATIF_HORIZONS)
        # Queries at one window always share the projection.
        counts = service.status()["whatif"]
        assert counts["live_windows_stepped"] > 0
        assert counts["live_windows_reused"] > 0

    def test_resumed_replies_match_per_query_forks(self, surrogate, tmp_path):
        store = ResultStore(tmp_path)
        first = whatif_service(
            FleetService, surrogate, "replay-gaps", True, store=store
        )
        requests = alternates(True)
        while first.window < WHATIF_WINDOWS // 2:
            first.whatif(horizon=12, **next(requests))
            first.advance(1)
        key = first.checkpoint()["key"]
        service, oracle = (
            whatif_service(
                cls, surrogate, "replay-gaps", True,
                state=load_checkpoint(store, key),
            )
            for cls in (FleetService, FreshProjectionService)
        )
        serve_and_compare(service, oracle, True)
        first.run()
        assert timelines_equal(service.timeline, first.timeline)

    @pytest.mark.parametrize("feed", sorted(WHATIF_FEEDS))
    def test_queries_never_touch_the_live_fleet(self, surrogate, feed):
        plain = whatif_service(FleetService, surrogate, feed, True)
        plain.run()
        service = whatif_service(FleetService, surrogate, feed, True)
        requests = alternates(True)
        while not service.done:
            for horizon in (4, 1, 9):
                before = service.state.copy()
                service.whatif(horizon=horizon, **next(requests))
                state = service.state
                assert state.window == before.window
                for field in ("mode", "compliant", "violation", "throttle"):
                    assert np.array_equal(
                        getattr(state, field), getattr(before, field)
                    )
                assert timelines_equal(state.timeline, before.timeline)
            service.advance(1)
        assert timelines_equal(service.timeline, plain.timeline)

    @pytest.mark.parametrize("feed, reuses", [
        ("curve", True), ("no-forecast", False),
    ])
    def test_live_window_counters(self, surrogate, feed, reuses):
        horizon = 6
        registry = MetricsRegistry()
        service = whatif_service(
            FleetService, surrogate, feed, False, registry=registry
        )
        queries = 0
        while not service.done:
            if service.remaining >= horizon:
                service.whatif(policy="uniform", horizon=horizon)
                queries += 1
            service.advance(1)
        assert queries == WHATIF_WINDOWS - horizon + 1
        stepped = horizon + (queries - 1) if reuses else horizon * queries
        expected = {
            "live_windows_stepped": stepped,
            "live_windows_reused": horizon * queries - stepped,
        }
        assert service.status()["whatif"] == expected
        for name, value in expected.items():
            assert registry.counter(f"fleet.whatif.{name}").value == value

    def test_counters_are_noops_on_a_disabled_registry(self, surrogate):
        registry = MetricsRegistry(enabled=False)
        service = make_service(surrogate, registry=registry)
        service.whatif(policy="uniform", horizon=3)
        service.whatif(policy="uniform", horizon=3)
        assert len(registry) == 0
        assert service.status()["whatif"] == {
            "live_windows_stepped": 3, "live_windows_reused": 3,
        }

    def test_delivered_load_off_the_forecast_reforks(self, surrogate):
        """A live load that differs from the projected one drops the
        projection, even when every later forecast still agrees."""

        class SurpriseFeed(LoadFeed):
            name = "surprise"

            def load(self, window, hour):
                return 1.1 if window == 2 else 0.4

            def forecast(self, window, hour):
                return 0.4

        service, oracle = (
            cls(make_engine(surrogate), SurpriseFeed())
            for cls in (FleetService, FreshProjectionService)
        )
        for _ in range(4):
            got = service.whatif(policy="uniform", horizon=5)
            assert reply_bytes(got) == reply_bytes(
                oracle.whatif(policy="uniform", horizon=5)
            )
            service.advance(1), oracle.advance(1)
        # 5 + 1 + 1 stepped, then window 2's surprise forces a re-fork.
        assert service.status()["whatif"] == {
            "live_windows_stepped": 12, "live_windows_reused": 8,
        }

    def test_reconfigure_drops_the_projection(self, surrogate):
        service = make_service(surrogate)
        service.whatif(policy="uniform", horizon=4)
        service.reconfigure(monitor=MonitorConfig(engage_fraction=0.8))
        service.whatif(policy="uniform", horizon=4)
        assert service.status()["whatif"] == {
            "live_windows_stepped": 8, "live_windows_reused": 0,
        }


# ----------------------------------------------------------------------
# Control plane
# ----------------------------------------------------------------------


class TestControlPlane:
    def test_status_command(self, surrogate):
        service = make_service(surrogate)
        service.advance(2)
        response = handle_command(service, {"cmd": "status", "id": 7})
        assert response["ok"]
        assert response["id"] == 7
        assert response["result"]["window"] == 2
        assert response["result"]["metrics"]["windows"] == 16

    def test_whatif_command_with_monitor_overrides(self, surrogate):
        service = make_service(surrogate)
        service.advance(1)
        response = handle_command(service, {
            "cmd": "whatif",
            "monitor": {"engage_fraction": 0.8},
            "horizon": 3,
        })
        assert response["ok"]
        assert response["result"]["monitor"]["engage_fraction"] == 0.8
        # untouched fields keep the live config's values
        assert response["result"]["monitor"]["throttle_windows"] == (
            service.engine.config.monitor.throttle_windows
        )

    def test_checkpoint_and_stop_commands(self, surrogate, tmp_path):
        service = make_service(surrogate, store=ResultStore(tmp_path))
        service.advance(1)
        response = handle_command(service, {"cmd": "checkpoint"})
        assert response["ok"] and response["result"]["key"]
        response = handle_command(service, {"cmd": "stop"})
        assert response["ok"]
        assert service.stopped and service.stop_reason == "control"

    def test_reconfigure_command(self, surrogate):
        service = make_service(surrogate)
        response = handle_command(service, {
            "cmd": "reconfigure", "monitor": {"throttle_windows": 4},
        })
        assert response["ok"]
        assert service.engine.config.monitor.throttle_windows == 4

    @pytest.mark.parametrize("request_", [
        {"cmd": "warp"},
        {"cmd": "whatif", "monitor": {"not_a_field": 1}},
        {"cmd": "whatif"},
        {"_error": "bad control line"},
        "not a dict",
    ])
    def test_errors_never_raise(self, surrogate, request_):
        service = make_service(surrogate)
        response = handle_command(service, request_)
        assert not response["ok"]
        assert "error" in response

    @pytest.mark.parametrize("horizon", [2.7, True, False, "3", None, [4]])
    def test_whatif_horizon_must_be_a_json_integer(self, surrogate, horizon):
        service = make_service(surrogate)
        response = handle_command(service, {
            "cmd": "whatif", "policy": "uniform", "horizon": horizon,
        })
        assert not response["ok"]
        assert "horizon must be a JSON integer" in response["error"]

    def test_whatif_horizon_accepts_integral_numbers(self, surrogate):
        service = make_service(surrogate)
        for horizon in (4, 4.0):
            response = handle_command(service, {
                "cmd": "whatif", "policy": "uniform", "horizon": horizon,
            })
            assert response["ok"], response
            assert response["result"]["horizon"] == 4

    def test_whatif_zero_horizon_gets_its_own_error(self, surrogate):
        service = make_service(surrogate)
        response = handle_command(service, {
            "cmd": "whatif", "policy": "uniform", "horizon": 0,
        })
        assert not response["ok"]
        assert "horizon must be at least 1 window" in response["error"]

    def test_drain_parses_ldjson(self, surrogate):
        stream = io.StringIO(
            '{"cmd": "status"}\n\nnot json\n{"cmd": "stop"}\n'
        )
        plane = ControlPlane(stream)
        plane._thread.join(timeout=5.0)
        requests = plane.drain()
        assert len(requests) == 3
        assert requests[0] == {"cmd": "status"}
        assert "_error" in requests[1]
        assert requests[2] == {"cmd": "stop"}
        assert plane.drain() == []

    def test_run_answers_control_and_stops(self, surrogate):
        stream = io.StringIO('{"cmd": "status"}\n{"cmd": "stop"}\n')
        plane = ControlPlane(stream)
        plane._thread.join(timeout=5.0)
        out = io.StringIO()
        service = make_service(surrogate)
        summary = service.run(control=plane, out=out)
        assert summary["stopped"]
        assert summary["stop_reason"] == "control"
        responses = [json.loads(l) for l in out.getvalue().splitlines()]
        assert [r["cmd"] for r in responses] == ["status", "stop"]
        assert all(r["ok"] for r in responses)

    def test_command_surface_is_documented(self):
        assert COMMANDS == (
            "status", "whatif", "checkpoint", "reconfigure", "dump", "stop"
        )


# ----------------------------------------------------------------------
# The api facade
# ----------------------------------------------------------------------


class TestServeFacade:
    def test_serve_builds_a_service(self, surrogate):
        from repro.api import serve

        service = serve(
            "web_search",
            performance=performance_model(),
            feed="flat:0.5",
            n_servers=8,
            window_minutes=120.0,
            requests_per_window=TEST_RPW,
            seed=5,
            surrogate=surrogate,
        )
        assert isinstance(service, FleetService)
        records = service.advance(2)
        assert records[0]["cluster_load"] == pytest.approx(0.5)

    def test_serve_resume_roundtrip(self, surrogate, tmp_path):
        from repro.api import serve

        store = ResultStore(tmp_path)
        kwargs = dict(
            performance=performance_model(),
            feed="web_search",
            n_servers=8,
            window_minutes=120.0,
            requests_per_window=TEST_RPW,
            seed=5,
            surrogate=surrogate,
            store=store,
        )
        service = serve("web_search", **kwargs)
        service.advance(4)
        key = service.checkpoint()["key"]
        resumed = serve("web_search", resume=key, **kwargs)
        assert resumed.window == 4
        service.run(), resumed.run()
        assert timelines_equal(service.timeline, resumed.timeline)

    def test_serve_requires_performance_or_batch(self):
        from repro.api import serve

        with pytest.raises(ValueError, match="performance model or a batch"):
            serve("web_search")


# ----------------------------------------------------------------------
# Threaded chunk steps
# ----------------------------------------------------------------------


class TestThreadedService:
    """A multi-chunk service steps its windows, what-if forks and resumed
    days on several threads and writes the one-thread bits."""

    def serve(self, surrogate, monkeypatch, store, workers) -> tuple:
        monkeypatch.setattr(
            fleet_engine, "usable_workers",
            lambda n_jobs: min(workers, n_jobs),
        )
        # 5 000 servers in 700-server chunks: eight chunks per window.
        options = dict(chunk_size=700, store=store, recorder=True)
        service = FleetService(
            make_engine(surrogate, n_servers=5000), "web_search", **options
        )
        records = service.advance(4)
        reply = service.whatif(
            monitor=MonitorConfig(engage_fraction=0.7), horizon=3
        )
        key = service.checkpoint()["key"]
        resumed = FleetService.resume(
            key, make_engine(surrogate, n_servers=5000), "web_search",
            **options,
        )
        records += resumed.advance(4)
        return (
            json.dumps(records, sort_keys=True), reply_bytes(reply), key,
            resumed.timeline,
        )

    def test_served_day_matches_one_worker(
        self, surrogate, monkeypatch, tmp_path
    ):
        records, reply, key, timeline = self.serve(
            surrogate, monkeypatch, ResultStore(tmp_path / "serial"), 1
        )
        for workers in (2, 3):
            got = self.serve(
                surrogate, monkeypatch,
                ResultStore(tmp_path / f"threads{workers}"), workers,
            )
            assert got[:3] == (records, reply, key)
            assert timelines_equal(got[3], timeline)
