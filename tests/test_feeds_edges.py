"""Edge cases for the service load feeds (`repro.service.feeds`).

Hostile-input coverage riding along with the scenario suite: malformed
phase specs, empty or garbage replay files, a gap at the very first
window (nothing to hold yet), and the record-then-replay loop closed
*through* the scenario layer — a scenario-attached fleet day replayed
from its own recorded load stream is bit-identical to the original.
"""

import json

import numpy as np
import pytest

from repro.fleet import FleetEngine
from repro.scenarios import Incident, ScenarioSpec
from repro.service import FleetService
from repro.service.feeds import (
    PhaseFeed,
    ReplayFeed,
    make_feed,
    parse_phases,
    replay_curve,
)
from repro.workloads.registry import get_profile
from tests.test_scenarios import (
    assert_timelines_identical,
    fleet_config,
    make_engine,
    performance_model,
    surrogate,  # noqa: F401  (module fixture)
)


class TestPhaseSpecParsing:
    @pytest.mark.parametrize("spec", [
        "",                      # empty spec
        "flat0.4x6",             # missing the @
        "flat@x6",               # missing the level
        "flat@0.4",              # missing the duration
        "flat@0.4x6,",           # trailing empty segment
        "ramp@0.3--1.1x2",       # negative target never parses
    ])
    def test_malformed_specs_raise_with_the_bad_segment(self, spec):
        with pytest.raises(ValueError, match="bad phase segment|empty"):
            parse_phases(spec)

    def test_well_formed_but_invalid_phases_raise(self):
        # The grammar accepts these; Phase validation rejects them.
        with pytest.raises(ValueError, match="kind must be"):
            parse_phases("spike@0.5x2")
        with pytest.raises(ValueError, match="needs a target"):
            parse_phases("ramp@0.3x2")
        with pytest.raises(ValueError, match="duration must be positive"):
            parse_phases("flat@0.4x0")

    def test_phase_feed_rejects_bad_jitter_and_empty_phases(self):
        with pytest.raises(ValueError, match="jitter"):
            PhaseFeed("flat@0.4x6", jitter=1.0)
        with pytest.raises(ValueError, match="at least one phase"):
            PhaseFeed(())

    def test_jittered_phase_feed_is_stateless(self):
        a = PhaseFeed("flat@0.5x6", seed=3, jitter=0.2)
        b = PhaseFeed("flat@0.5x6", seed=3, jitter=0.2)
        # Same (seed, window) -> same draw, in any query order.
        loads = [a.load(k, 0.5) for k in range(8)]
        assert [b.load(k, 0.5) for k in reversed(range(8))] == loads[::-1]


class TestReplayEdges:
    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="no usable records"):
            ReplayFeed.from_jsonl(path)

    def test_garbage_only_file_raises(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_text(
            "not json\n"
            "[1, 2, 3]\n"                       # JSON but not an object
            '{"window": 4}\n'                   # object but no load key
            '{"cluster_load": 0.5}\n'           # load but no window/hour
        )
        with pytest.raises(ValueError, match="no usable records"):
            ReplayFeed.from_jsonl(path)

    def test_torn_lines_are_tolerated_around_good_records(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            '{"window": 0, "cluster_load": 0.4}\n'
            '{"window": 1, "cluster_load": 0.\n'  # torn mid-write
            '{"window": 2, "cluster_load": 0.6}\n'
        )
        feed = ReplayFeed.from_jsonl(path)
        assert feed.n_records == 2
        assert feed.load(0, 0.0) == 0.4
        assert feed.load(1, 0.0) is None  # the torn window is a gap
        assert feed.load(2, 0.0) == 0.6

    @pytest.mark.parametrize(
        "window_minutes, n_windows", [(10.0, 144), (5.0, 288), (1.0, 1440)]
    )
    def test_hour_keyed_records_land_on_their_windows(
        self, tmp_path, window_minutes, n_windows
    ):
        # Start hours such as 49 * 10 / 60 come out 48.999... windows in:
        # truncated, they left gaps and overwrote the window before.
        path = tmp_path / "hours.jsonl"
        loads = [k / n_windows for k in range(n_windows)]
        path.write_text("".join(
            json.dumps({"hour": k * window_minutes / 60.0, "load": load})
            + "\n"
            for k, load in enumerate(loads)
        ))
        feed = ReplayFeed.from_jsonl(path, window_minutes=window_minutes)
        assert feed.n_records == n_windows
        assert [feed.load(k, 0.0) for k in range(n_windows)] == loads

    def test_gap_at_window_zero(self, tmp_path, surrogate):  # noqa: F811
        path = tmp_path / "late.jsonl"
        path.write_text('{"window": 3, "cluster_load": 0.7}\n')
        feed = ReplayFeed.from_jsonl(path)
        assert feed.load(0, 0.0) is None
        # The service holds the last ingested load across gaps; before
        # any ingest there is nothing to hold, so window 0 serves 0.0.
        service = FleetService(make_engine(surrogate), feed)
        load, gap_filled = service.ingest(0)
        assert gap_filled and load == 0.0
        # The curve view instead back-fills from the first record (a
        # retrospective step function, not a live stream).
        assert replay_curve(path)(0.0) == 0.7


class TestReplayThroughScenarios:
    def test_replayed_incident_day_is_bit_identical(
        self, tmp_path, surrogate,  # noqa: F811
    ):
        scenario = ScenarioSpec(
            name="replayed-incident",
            incident=Incident(start_hour=4.0, duration_hours=8.0,
                              fraction=0.5, capacity_loss=0.5),
        )
        engine = make_engine(surrogate, scenario=scenario)
        stepper = engine.stepper("web_search")
        records = []
        while not stepper.state.done:
            records.append(stepper.step())
        original = stepper.state.timeline
        assert any("incident" in rec["scenario"]["active"]
                   for rec in records)

        # Record the ingested load stream, then replay it as the load
        # feed of a fresh scenario-attached run: the scenario multiplies
        # per-server loads *after* balancing, so the recorded
        # cluster_load stream is scenario-free and the loop closes
        # bit-identically.
        path = tmp_path / "incident_day.jsonl"
        path.write_text("".join(
            json.dumps({
                "window": rec["window"], "cluster_load": rec["cluster_load"],
            }) + "\n"
            for rec in records
        ))
        window_minutes = engine.config.window_minutes
        feed = ReplayFeed.from_jsonl(path, window_minutes=window_minutes)
        assert feed.n_records == len(records)
        replayed = make_engine(surrogate, scenario=scenario).run_day(
            feed.curve()
        )
        assert_timelines_identical(original, replayed)

    def test_make_feed_replay_spec(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_text('{"window": 0, "cluster_load": 0.5}\n')
        feed = make_feed(f"replay:{path}")
        assert isinstance(feed, ReplayFeed)
        assert feed.load(0, 0.0) == 0.5
