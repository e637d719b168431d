"""Pluggable load feeds for the live fleet service.

A :class:`LoadFeed` answers one question per monitoring window: what
cluster-wide load fraction arrived during window ``k``?  Returning ``None``
signals a *gap* (the feed has no data for that window) — the service
degrades gracefully by holding the last observed window, up to a bounded
lag, instead of stalling the simulation.

Three families cover the service's ingestion modes:

* :class:`CurveFeed` — a registered diurnal curve (``"web_search"``,
  ``"flat:<x>"``, or any callable ``hour -> fraction``): the parametric
  feeds the batch entry points already use;
* :class:`PhaseFeed` — phase-structured synthetic traffic (flat / ramp /
  oscillating segments with optional deterministic per-window jitter):
  flash crowds, incident spikes, slow drifts;
* :class:`ReplayFeed` — replay of recorded JSONL window streams (the
  service's own ``fleet_window`` output, or any records carrying a load),
  closing the record-then-replay loop.

All feed randomness derives from ``(seed, "feed", window)`` label paths —
no carried RNG state — so a feed is resumable: a checkpointed service
re-reads exactly the loads an uninterrupted one would have seen.

:func:`replay_curve` additionally exposes a recorded stream as an
``hour -> fraction`` step function, which is how ``"replay:<path>"``
specs become *named load curves* usable by :func:`repro.api.run_day` and
:func:`repro.api.run_fleet`, read at the day's own window length (see
:func:`repro.fleet.policies.resolve_load_curve`).
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.util.rng import derive_seed

__all__ = [
    "LoadFeed",
    "CurveFeed",
    "Phase",
    "PhaseFeed",
    "ReplayFeed",
    "make_feed",
    "parse_phases",
    "replay_curve",
]

#: JSONL keys accepted as a window's cluster load, in preference order.
_LOAD_KEYS = ("cluster_load", "load", "load_fraction")


class LoadFeed:
    """Base feed: per-window cluster load, ``None`` meaning a gap."""

    name = "abstract"

    def load(self, window: int, hour: float) -> float | None:
        """The load fraction ingested for ``window`` (``None`` = gap)."""
        raise NotImplementedError

    def forecast(self, window: int, hour: float) -> float | None:
        """Projected load for a *future* window (the what-if horizon).

        Defaults to :meth:`load` — deterministic feeds know their future;
        feeds that genuinely cannot see ahead return ``None`` and the
        service falls back to holding the last ingested window.
        """
        return self.load(window, hour)


class CurveFeed(LoadFeed):
    """A named diurnal load curve (or bare callable) as a gapless feed."""

    def __init__(self, load, name: str | None = None):
        from repro.fleet.policies import resolve_load_curve

        resolved_name, fn = resolve_load_curve(load)
        self.name = name or resolved_name or getattr(
            load, "__name__", "custom-curve"
        )
        self._fn = fn

    def load(self, window: int, hour: float) -> float:
        return float(self._fn(hour))


@dataclass(frozen=True)
class Phase:
    """One segment of a phase-structured synthetic feed.

    ``kind`` is ``"flat"`` (constant ``level``), ``"ramp"`` (linear
    ``level -> to_level`` across the phase) or ``"oscillate"`` (swings
    between ``level`` and ``to_level`` with ``period_minutes``).
    """

    kind: str
    hours: float
    level: float
    to_level: float | None = None
    period_minutes: float = 60.0

    def __post_init__(self) -> None:
        if self.kind not in ("flat", "ramp", "oscillate"):
            raise ValueError(
                f"phase kind must be flat/ramp/oscillate, got {self.kind!r}"
            )
        if self.hours <= 0:
            raise ValueError("phase duration must be positive")
        if self.level < 0:
            raise ValueError("phase level must be non-negative")
        if self.kind != "flat" and self.to_level is None:
            raise ValueError(f"{self.kind} phase needs a target level")
        if self.period_minutes <= 0:
            raise ValueError("period_minutes must be positive")

    def value(self, offset_hours: float) -> float:
        if self.kind == "flat":
            return self.level
        if self.kind == "ramp":
            fraction = min(max(offset_hours / self.hours, 0.0), 1.0)
            return self.level + (self.to_level - self.level) * fraction
        mid = (self.level + self.to_level) / 2.0
        amplitude = (self.to_level - self.level) / 2.0
        period_hours = self.period_minutes / 60.0
        return mid + amplitude * float(
            np.sin(2.0 * np.pi * offset_hours / period_hours)
        )


#: ``kind@level[-to_level]xHOURS[~PERIODm]`` — e.g. ``ramp@0.3-1.1x2``.
_PHASE_RE = re.compile(
    r"^(?P<kind>[a-z]+)@(?P<level>[0-9.]+)(?:-(?P<to>[0-9.]+))?"
    r"x(?P<hours>[0-9.]+)h?(?:~(?P<period>[0-9.]+)m?)?$"
)


def parse_phases(spec: str) -> tuple[Phase, ...]:
    """Parse a compact phase spec: comma-joined ``kind@level[-to]xHOURS``.

    >>> [p.kind for p in parse_phases("flat@0.3x4,ramp@0.3-1.1x2")]
    ['flat', 'ramp']
    """
    phases = []
    for token in spec.split(","):
        token = token.strip()
        match = _PHASE_RE.match(token)
        if not match:
            raise ValueError(
                f"bad phase segment {token!r}; expected "
                "kind@level[-to_level]xHOURS[~PERIODm], e.g. flat@0.4x6 "
                "or oscillate@0.5-0.9x4~30m"
            )
        phases.append(Phase(
            kind=match.group("kind"),
            hours=float(match.group("hours")),
            level=float(match.group("level")),
            to_level=(
                float(match.group("to")) if match.group("to") else None
            ),
            period_minutes=(
                float(match.group("period")) if match.group("period") else 60.0
            ),
        ))
    if not phases:
        raise ValueError("phase spec is empty")
    return tuple(phases)


class PhaseFeed(LoadFeed):
    """Phase-structured synthetic generator (flash crowds, drifts, spikes).

    Phases repeat cyclically once exhausted, so the feed never runs dry.
    ``jitter`` applies a deterministic per-window multiplicative wobble
    drawn from ``(seed, "feed", window)`` — resumable by construction.
    """

    def __init__(
        self,
        phases,
        *,
        seed: int = 0,
        jitter: float = 0.0,
        name: str | None = None,
    ):
        if isinstance(phases, str):
            phases = parse_phases(phases)
        self.phases = tuple(phases)
        if not self.phases:
            raise ValueError("PhaseFeed needs at least one phase")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        self.seed = int(seed)
        self.jitter = float(jitter)
        self.name = name or "phases:" + ",".join(
            p.kind for p in self.phases
        )
        self._edges = np.cumsum([p.hours for p in self.phases])

    def load(self, window: int, hour: float) -> float:
        cycle_hours = float(self._edges[-1])
        offset = hour % cycle_hours
        index = int(np.searchsorted(self._edges, offset, side="right"))
        index = min(index, len(self.phases) - 1)
        start = float(self._edges[index - 1]) if index else 0.0
        value = self.phases[index].value(offset - start)
        if self.jitter:
            rng = np.random.default_rng(
                derive_seed(self.seed, "feed", window)
            )
            value *= 1.0 + rng.uniform(-self.jitter, self.jitter)
        return max(float(value), 0.0)


class ReplayFeed(LoadFeed):
    """Replay a recorded JSONL window stream as a live feed.

    Accepts the service's own ``fleet_window`` records, or any JSONL whose
    objects carry one of ``cluster_load``/``load``/``load_fraction``.
    Windows with no record are *gaps* (``None``) — the service's
    hold-last-window fill and bounded-lag shutdown take over.
    """

    def __init__(
        self,
        by_window: dict[int, float],
        *,
        name: str = "replay",
        window_minutes: float = 10.0,
    ):
        if not by_window:
            raise ValueError("replay feed has no usable records")
        self.name = name
        self.window_minutes = float(window_minutes)
        self._by_window = {int(k): float(v) for k, v in by_window.items()}

    @property
    def n_records(self) -> int:
        return len(self._by_window)

    @property
    def last_window(self) -> int:
        return max(self._by_window)

    def load(self, window: int, hour: float) -> float | None:
        return self._by_window.get(window)

    def curve(self) -> Callable[[float], float]:
        """The recorded stream as an ``hour -> fraction`` step function.

        Holds each record's load until the next record (and the first
        record's load before it), so gaps replay as hold-last fills —
        usable anywhere a load curve is (``run_day``, ``run_fleet``).
        """
        hours = sorted(
            k * self.window_minutes / 60.0 for k in self._by_window
        )
        loads = [
            self._by_window[int(round(h * 60.0 / self.window_minutes))]
            for h in hours
        ]

        def step_curve(hour: float) -> float:
            index = bisect_right(hours, hour) - 1
            return loads[max(index, 0)]

        return step_curve

    @classmethod
    def from_jsonl(
        cls,
        path: str | Path,
        *,
        window_minutes: float = 10.0,
        name: str | None = None,
    ) -> "ReplayFeed":
        by_window: dict[int, float] = {}
        path = Path(path)
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # tolerate torn/foreign lines in shared streams
            if not isinstance(record, dict):
                continue
            load = next(
                (record[k] for k in _LOAD_KEYS if k in record), None
            )
            if load is None:
                continue
            if "window" in record:
                window = int(record["window"])
            elif "index" in record:
                window = int(record["index"])
            elif "hour" in record:
                # Nearest window: a start hour such as 49 * 10 / 60 maps to
                # 48.99999... windows, which truncation would file under 48.
                window = round(float(record["hour"]) * 60.0 / window_minutes)
            else:
                continue
            by_window[window] = float(load)
        return cls(
            by_window,
            name=name or f"replay:{path}",
            window_minutes=window_minutes,
        )


def replay_curve(
    path: str | Path, *, window_minutes: float = 10.0
) -> Callable[[float], float]:
    """Load a recorded JSONL stream as an ``hour -> fraction`` curve.

    Record ``k`` starts at hour ``k * window_minutes / 60``; a
    ``"replay:<path>"`` load spec passes the day's own window length.
    """
    return ReplayFeed.from_jsonl(path, window_minutes=window_minutes).curve()


def make_feed(
    spec, *, seed: int = 0, window_minutes: float = 10.0
) -> LoadFeed:
    """Build a feed from a spec.

    Accepts a :class:`LoadFeed` (returned as-is), ``"replay:<path>"``,
    ``"phases:<phase-spec>"``, any registered load-curve name or
    ``"flat:<x>"``, or a bare callable ``hour -> fraction``.
    """
    if isinstance(spec, LoadFeed):
        return spec
    if isinstance(spec, str):
        if spec.startswith("replay:"):
            return ReplayFeed.from_jsonl(
                spec[len("replay:"):], window_minutes=window_minutes
            )
        if spec.startswith("phases:"):
            return PhaseFeed(spec[len("phases:"):], seed=seed)
    return CurveFeed(spec)
