"""The live fleet service: ingest → advance → publish, window by window.

:class:`FleetService` owns a :class:`~repro.fleet.engine.FleetEngine`
and drives it through a :class:`~repro.fleet.engine.FleetStepper`, one
monitoring window per :meth:`advance` tick, with the cluster load for
each window *ingested* from a pluggable
:class:`~repro.service.feeds.LoadFeed` rather than baked in up front.
Around that loop it layers the three service-grade capabilities:

* **streaming observability** — every completed window is published to a
  :class:`~repro.obs.metrics.MetricsRegistry` (``fleet.*`` gauges and
  series), appended to a JSONL sink, and bracketed by Perfetto spans
  (``service.ingest`` / ``service.advance`` / ``service.publish``);
* **what-if queries** — :meth:`whatif` forks a shadow engine under an
  alternate monitor/policy/placement/scenario from a deep copy of the
  fleet state, runs it ``horizon`` windows ahead on the feed's forecast,
  and returns its metric diff against the live configuration over the
  same windows.  The live side is read off one rolling projection that
  carries the live configuration ahead of the fleet, so consecutive
  queries step only the windows it has not covered yet (DESIGN.md §12)
  — the live arrays are never touched;
* **checkpoint/resume** — :meth:`checkpoint` writes the flattened state
  to the content-addressed result store; :meth:`resume` rebuilds a
  service that is bit-identical to one that never stopped;
* **SLO scoring and flight recording** — an attached
  :class:`~repro.obs.slo.SLOEngine` scores every window against the
  declared objectives (burn rates, error budget — surfaced in
  :meth:`status`, as ``fleet.slo.*`` gauges, and as a what-if budget
  column), and an attached :class:`~repro.obs.recorder.FlightRecorder`
  keeps the recent window history plus alert captures, dumped as a
  postmortem bundle via :meth:`dump` (control-plane ``dump`` verb) or
  automatically on ``feed_stalled``/SIGINT stops.  Both are pure
  observers: the fleet timeline is bit-identical with them attached.

Feed gaps degrade gracefully: a missing window is filled by holding the
last ingested load, and :attr:`max_gap_windows` bounds the lag — beyond
it the service stops cleanly (``stop_reason="feed_stalled"``) instead of
free-running on stale data forever.
"""

from __future__ import annotations

import time
from dataclasses import asdict, replace

from repro.fleet.engine import FleetEngine, FleetState, FleetTimeline
from repro.fleet.shard import _performance_payload
from repro.obs.fleet import publish_fleet_window
from repro.obs.recorder import FlightRecorder
from repro.obs.slo import SLOEngine
from repro.scenarios import as_scenario
from repro.service.checkpoint import load_checkpoint, save_checkpoint
from repro.service.feeds import LoadFeed, make_feed

__all__ = ["FleetService"]

#: "Keep the current scenario" sentinel for whatif()/reconfigure().
_UNSET = object()


class FleetService:
    """A long-lived, queryable fleet simulation advanced by a load feed."""

    def __init__(
        self,
        engine: FleetEngine,
        feed,
        *,
        tail: str = "surrogate",
        state: FleetState | None = None,
        store=None,
        registry=None,
        sink=None,
        tracer=None,
        max_gap_windows: int = 6,
        chunk_size: int | None = None,
        slos=None,
        recorder: FlightRecorder | bool | None = None,
        postmortem_path: str | None = None,
    ):
        if max_gap_windows < 0:
            raise ValueError("max_gap_windows must be non-negative")
        self.engine = engine
        self.feed: LoadFeed = make_feed(
            feed,
            seed=engine.config.seed,
            window_minutes=engine.config.window_minutes,
        )
        self.tail = tail
        self.registry = registry
        self.sink = sink
        self.tracer = tracer
        self.max_gap_windows = int(max_gap_windows)
        self._store = store
        self._chunk_size = chunk_size
        self._stepper = engine.stepper(
            None, tail=tail, state=state, chunk_size=chunk_size
        )
        if slos is not None and not isinstance(slos, SLOEngine):
            slos = SLOEngine(
                slos, day_windows=engine.config.n_windows, registry=registry
            )
        self.slo: SLOEngine | None = slos
        if self.slo is not None and self.slo.registry is None:
            self.slo.registry = registry
        if recorder is True:
            recorder = FlightRecorder(registry=registry)
        self.recorder: FlightRecorder | None = recorder or None
        if self.recorder is not None:
            if self.recorder.registry is None:
                self.recorder.registry = registry
            self._stepper.capture_violators = self.recorder.top_k
        self._postmortem_path = postmortem_path
        # The rolling live-configuration projection behind what-ifs (see
        # _project_live): a stepper forked from the live state, and the
        # loads it stepped for windows [self.window, its window).
        self._projection = None
        self._projected: list[float] = []
        self._whatif_counts = {
            "live_windows_stepped": 0, "live_windows_reused": 0,
        }
        self._pending_alerts: list[dict] = []
        self._last_load: float | None = None
        self._gap_run = 0
        self.feed_gaps = 0
        self.stopped = False
        self.stop_reason: str | None = None

    # -- introspection ---------------------------------------------------

    @property
    def state(self) -> FleetState:
        return self._stepper.state

    @property
    def timeline(self):
        return self._stepper.timeline

    @property
    def window(self) -> int:
        """Index of the *next* window to advance."""
        return self.state.window

    @property
    def done(self) -> bool:
        return self._stepper.done

    @property
    def remaining(self) -> int:
        return self._stepper.remaining

    @property
    def scenario(self):
        """The adversarial scenario attached to the live fleet (or None)."""
        return self.engine.scenario

    def _identity(self) -> str:
        """Content identity of this service for checkpoint addressing."""
        return repr((
            self.engine.ls_profile.name,
            _performance_payload(self.engine.performance),
            self.engine.config,
            self.feed.name,
            self.tail,
            self.engine.scenario,
        ))

    def _hour(self, window: int) -> float:
        return window * self.engine.config.window_minutes / 60.0

    def _span(self, name: str, **args):
        if self.tracer is not None:
            return self.tracer.span(name, cat="service", args=args or None)
        import contextlib

        return contextlib.nullcontext()

    # -- the ingest → advance → publish loop -----------------------------

    def ingest(self, window: int) -> tuple[float, bool]:
        """Pull window ``window``'s load from the feed.

        Returns ``(load, gap_filled)``.  A gap holds the last ingested
        window (0.0 before any); :attr:`max_gap_windows` consecutive gaps
        later, the service stops itself (``feed_stalled``).
        """
        load = self.feed.load(window, self._hour(window))
        if load is None:
            self.feed_gaps += 1
            self._gap_run += 1
            if self._gap_run > self.max_gap_windows:
                self.stop("feed_stalled")
            return (self._last_load if self._last_load is not None else 0.0,
                    True)
        self._gap_run = 0
        self._last_load = float(load)
        return float(load), False

    def advance(self, n_windows: int = 1) -> list[dict]:
        """Ingest and simulate up to ``n_windows`` windows; returns records."""
        records = []
        for _ in range(n_windows):
            if self.done or self.stopped:
                break
            k = self.window
            with self._span("service.ingest", window=k):
                load, gap_filled = self.ingest(k)
            if self.stopped:
                break
            with self._span("service.advance", window=k):
                record = self._stepper.step(load)
            # The projection stays valid only while the live fleet steps
            # exactly the loads it projected, gap fills included.
            if self._projected and self._projected[0] == load:
                del self._projected[0]
            else:
                self._drop_projection()
            record["gap_filled"] = gap_filled
            with self._span("service.publish", window=k):
                publish_fleet_window(self.registry, record)
                events = (
                    self.slo.observe(record) if self.slo is not None else []
                )
                if self.recorder is not None:
                    self.recorder.observe(
                        record,
                        violators=self._stepper.last_violators,
                        events=events,
                    )
                self._pending_alerts.extend(events)
                if self.sink is not None:
                    self.sink.write(dict(record, type="fleet_window"))
                    for event in events:
                        self.sink.write(dict(event))
                    self.sink.flush()
            records.append(record)
        return records

    def drain_alerts(self) -> list[dict]:
        """SLO alert events fired since the last drain."""
        alerts = self._pending_alerts
        self._pending_alerts = []
        return alerts

    # -- control-plane verbs ---------------------------------------------

    def status(self) -> dict:
        """Live snapshot: progress, configuration, metrics so far."""
        sofar = self.timeline.slice_metrics(0, self.window)
        return {
            "window": self.window,
            "n_windows": self.state.n_windows,
            "n_servers": self.state.n_servers,
            "done": self.done,
            "stopped": self.stopped,
            "stop_reason": self.stop_reason,
            "feed": self.feed.name,
            "feed_gaps": self.feed_gaps,
            "tail": self.tail,
            "policy": self.engine.config.policy,
            "monitor": asdict(self.engine.config.monitor),
            "scenario": (
                None if self.engine.scenario is None
                else self.engine.scenario.to_dict()
            ),
            **(
                {
                    "placement": self.engine.config.placement,
                    "population": dict(
                        zip(
                            self.engine.config.population,
                            (float(f) for f in self.engine.config.mix_fractions),
                        )
                    ),
                }
                if self.engine.config.population else {}
            ),
            "metrics": sofar,
            "whatif": dict(self._whatif_counts),
            **(
                {"slo": self.slo.status()} if self.slo is not None else {}
            ),
            **(
                {"recorder": self.recorder.status()}
                if self.recorder is not None else {}
            ),
        }

    def _forecast_loads(self, horizon: int) -> list[float]:
        held = self._last_load if self._last_load is not None else 0.0
        loads = []
        for i in range(horizon):
            k = self.window + i
            load = self.feed.forecast(k, self._hour(k))
            loads.append(float(load) if load is not None else held)
        return loads

    def _drop_projection(self) -> None:
        self._projection = None
        self._projected.clear()

    def _project_live(self, loads: list[float]) -> FleetTimeline:
        """The live configuration's timeline through ``window + len(loads)``.

        One shadow stepper under the live engine carries the live
        configuration ahead; a query steps only the windows it has not
        projected yet.  Stepping is deterministic (every stream is a pure
        function of ``(seed, label, window)``), so while the live fleet
        steps exactly the loads it projected (checked in :meth:`advance`)
        its rows from the live window on are the bits a fresh fork of the
        live state would write.  A projected load that differs from the
        fresh forecast for its window re-forks instead (DESIGN.md §12).
        """
        pending = self._projected
        reused = min(len(pending), len(loads))
        if self._projection is None or pending[:reused] != loads[:reused]:
            self._drop_projection()
            self._projection = self._fork(self.engine)
            reused = 0
        try:
            for load in loads[len(pending):]:
                self._projection.step(load)
                pending.append(load)
        except BaseException:
            self._drop_projection()  # a half-stepped window is unusable
            raise
        for name, count in (
            ("live_windows_stepped", len(loads) - reused),
            ("live_windows_reused", reused),
        ):
            self._whatif_counts[name] += count
            if self.registry is not None:
                self.registry.counter(f"fleet.whatif.{name}").inc(count)
        return self._projection.timeline

    def _fork(self, engine: FleetEngine):
        """A stepper under ``engine`` from a copy of the live state."""
        return engine.stepper(
            None,
            tail=self.tail,
            state=self.state.copy(),
            chunk_size=self._chunk_size,
        )

    def _alternate(
        self, verb: str, monitor, policy, placement, scenario
    ) -> FleetEngine:
        """The engine a :meth:`whatif` or :meth:`reconfigure` switches to.

        The live configuration with the given monitor, policy and
        placement (``None`` keeps each) under ``scenario`` (``_UNSET``
        keeps the live one), sharing the fitted surrogate.
        """
        if (monitor is None and policy is None and placement is None
                and scenario is _UNSET):
            raise ValueError(
                f"{verb} needs a monitor, policy, placement, and/or "
                "scenario change"
            )
        if placement is not None and not self.engine.config.population:
            raise ValueError(
                f"{verb}(placement=...) needs a heterogeneous population"
            )
        changes = dict(monitor=monitor, policy=policy, placement=placement)
        return FleetEngine(
            self.engine.ls_profile,
            self.engine.performance,
            replace(
                self.engine.config,
                **{k: v for k, v in changes.items() if v is not None},
            ),
            surrogate=self.engine._surrogate,
            store=self.engine._store,
            corunners=self.engine.corunners,
            scenario=(
                self.engine.scenario if scenario is _UNSET
                else as_scenario(scenario)
            ),
        )

    def whatif(
        self,
        *,
        monitor=None,
        policy: str | None = None,
        placement: str | None = None,
        scenario=_UNSET,
        horizon: int = 12,
    ) -> dict:
        """Fork a shadow fleet under an alternate config; return the diff.

        The alternate advances ``horizon`` windows (at least 1, clamped
        to the windows left) from a deep copy of the current state on the
        feed's forecast loads; the live side over the same windows and
        loads is read off the rolling live projection
        (:meth:`_project_live`, bit-identical to a per-query fork).  The
        diff thus isolates the *configuration* effect under identical
        traffic, and the live fleet is never perturbed.
        ``placement`` requires a heterogeneous population.  ``scenario``
        (a spec, preset name, dict, or ``None`` to detach) projects the
        alternate under a different adversarial scenario — e.g. what-if
        a tuned monitor against the incident the live fleet is in.
        """
        alt = self._alternate("whatif", monitor, policy, placement, scenario)
        horizon = int(horizon)
        if horizon < 1:
            raise ValueError(
                f"horizon must be at least 1 window, got {horizon}"
            )
        horizon = min(horizon, self.remaining)
        if horizon == 0:
            raise ValueError("no windows remaining to project over")
        loads = self._forecast_loads(horizon)
        k = self.window
        shadow = self._fork(alt)
        for load in loads:
            shadow.step(load)
        live = self._project_live(loads).slice_metrics(k, k + horizon)
        projected = shadow.timeline.slice_metrics(k, k + horizon)
        diff = {
            key: projected[key] - live[key]
            for key in live
            if isinstance(live[key], float)
        }
        out = {
            "window": k,
            "horizon": horizon,
            "monitor": asdict(alt.config.monitor),
            "policy": alt.config.policy,
            "scenario": (
                None if alt.scenario is None else alt.scenario.to_dict()
            ),
            "live": live,
            "whatif": projected,
            "diff": diff,
        }
        if self.engine.config.population:
            out["placement"] = alt.config.placement
        if self.slo is not None:
            budget = {}
            for spec in self.slo.specs:
                if spec.objective != "violation_rate":
                    continue
                impacts = {
                    which: self.slo.budget_impact(
                        spec.name, side["violation_rate"], horizon
                    )
                    for which, side in (("live", live), ("whatif", projected))
                }
                impacts["diff"] = impacts["whatif"] - impacts["live"]
                budget[spec.name] = impacts
                diff[f"slo_budget.{spec.name}"] = impacts["diff"]
            out["slo_budget"] = budget
        return out

    def checkpoint(self) -> dict:
        """Persist the full state; returns the content-addressed key."""
        key = save_checkpoint(self._store, self._identity(), self.state)
        record = {
            "key": key,
            "window": self.window,
            "n_servers": self.state.n_servers,
        }
        if self.sink is not None:
            self.sink.write(dict(record, type="checkpoint"))
            self.sink.flush()
        return record

    @classmethod
    def resume(
        cls, key: str, engine: FleetEngine, feed, *, store=None, **kwargs
    ) -> "FleetService":
        """Rebuild a service from a checkpoint key (bit-identical resume)."""
        state = load_checkpoint(store, key)
        return cls(engine, feed, state=state, store=store, **kwargs)

    def reconfigure(
        self,
        *,
        monitor=None,
        policy: str | None = None,
        placement: str | None = None,
        scenario=_UNSET,
    ) -> dict:
        """Swap the live monitor/policy/placement/scenario at a window boundary.

        The carried :class:`FleetState` (modes, streaks, timeline rows so
        far) is kept; only the forward-looking configuration changes.
        ``placement`` requires a heterogeneous population.  ``scenario``
        injects (or, with ``None``, lifts) an adversarial scenario into
        the live fleet — the incident-drill path.
        """
        self.engine = self._alternate(
            "reconfigure", monitor, policy, placement, scenario
        )
        self._drop_projection()
        self._stepper = self.engine.stepper(
            None, tail=self.tail, state=self.state,
            chunk_size=self._chunk_size,
        )
        if self.recorder is not None:
            self._stepper.capture_violators = self.recorder.top_k
        config, scenario = self.engine.config, self.engine.scenario
        result = {
            "window": self.window,
            "monitor": asdict(config.monitor),
            "policy": config.policy,
            "scenario": None if scenario is None else scenario.to_dict(),
        }
        if config.population:
            result["placement"] = config.placement
        if self.recorder is not None:
            self.recorder.note(dict(result, type="reconfigure"))
        return result

    def dump(self, path: str | None = None, *, reason: str = "requested") -> dict:
        """Write the flight recorder's postmortem bundle to ``path``.

        ``path`` defaults to the configured ``postmortem_path``, then to
        ``postmortem-w<window>.jsonl`` in the working directory.
        """
        if self.recorder is None:
            raise ValueError("no flight recorder attached (recorder=...)")
        path = path or self._postmortem_path or (
            f"postmortem-w{self.window}.jsonl"
        )
        record = self.recorder.dump(
            path,
            reason=reason,
            meta={
                "ls_profile": self.engine.ls_profile.name,
                "feed": self.feed.name,
                "tail": self.tail,
                "policy": self.engine.config.policy,
                "n_servers": self.state.n_servers,
                "window": self.window,
                "stop_reason": self.stop_reason,
            },
        )
        if self.sink is not None:
            self.sink.write(dict(record, type="postmortem"))
            self.sink.flush()
        return record

    def stop(self, reason: str = "requested") -> None:
        """Stop the serve loop at the next window boundary.

        An abnormal stop (``feed_stalled``, ``sigint``) auto-dumps the
        flight recorder when a ``postmortem_path`` is configured, so the
        evidence survives the exit that needs explaining.
        """
        first = self.stop_reason is None
        self.stopped = True
        if first:
            self.stop_reason = reason
        if self.recorder is not None:
            self.recorder.note({"type": "stop", "reason": reason,
                                "window": self.window})
        if (
            first
            and self.recorder is not None
            and self._postmortem_path
            and reason in ("feed_stalled", "sigint")
        ):
            try:
                self.dump(reason=reason)
            except OSError:
                pass  # a failed dump must never block shutdown

    # -- the serve loop ----------------------------------------------------

    def run(
        self,
        *,
        n_windows: int | None = None,
        control=None,
        out=None,
        checkpoint_every: int | None = None,
        pace_seconds: float = 0.0,
        on_window=None,
    ) -> dict:
        """Serve until done/stopped; returns a summary record.

        ``control`` is drained between windows (see
        :mod:`repro.service.control`) with responses written to ``out``;
        ``checkpoint_every`` persists the state every N windows;
        ``pace_seconds`` throttles real time per window (live pacing for
        demos and the CI smoke test — 0 runs flat out); ``on_window``
        (when given) is called as ``on_window(service, record)`` after
        each served window — the ``--dashboard`` repaint hook.  SLO
        alert events are echoed to ``out`` as ``slo_alert`` lines.
        """
        from repro.service.control import handle_command, respond

        def drain() -> None:
            if control is None:
                return
            for request in control.drain():
                response = handle_command(self, request)
                if out is not None:
                    respond(out, response)

        budget = self.remaining if n_windows is None else min(
            int(n_windows), self.remaining
        )
        served = 0
        while served < budget and not self.stopped and not self.done:
            drain()
            if self.stopped:
                break
            for record in self.advance(1):
                served += 1
                if out is not None:
                    respond(out, dict(record, type="fleet_window"))
                for event in self.drain_alerts():
                    if out is not None:
                        respond(out, event)
                if on_window is not None:
                    on_window(self, record)
            if (
                checkpoint_every
                and self.window % checkpoint_every == 0
                and not self.done
            ):
                self.checkpoint()
            if pace_seconds > 0:
                time.sleep(pace_seconds)
        drain()  # answer any trailing control commands before summarizing
        summary = dict(self.status(), type="summary", served_windows=served)
        if self.sink is not None:
            self.sink.write(summary)
            self.sink.flush()
        return summary
