"""Docstring-table drift tests: keep prose tables in sync with the code.

Two classes of documentation are load-bearing enough to test:

* numpy-style ``Attributes`` tables on frozen config dataclasses
  (:class:`~repro.fleet.engine.FleetConfig`,
  :class:`~repro.core.monitor.MonitorConfig` and friends) — every
  dataclass field must appear in the table and vice versa, so adding a
  field without documenting it (or documenting a field that was removed)
  fails here instead of silently drifting;
* the ``fleet.*`` instrument table in :mod:`repro.obs.fleet`'s module
  docstring — every metric the publishers emit must match a documented
  row, and every concrete documented row must actually be emitted;
* the fidelity-tier table in ``docs/API.md`` — every tier in the
  :func:`~repro.experiments.common.register_fidelity` registry must have
  a documented row and vice versa, and the unknown-tier error must list
  every registered name (that error *is* documentation).
"""

from __future__ import annotations

import dataclasses
import inspect
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.obs.fleet as obs_fleet
from repro.core.monitor import MonitorConfig, QueueLengthMonitorConfig
from repro.fleet.engine import FleetConfig
from repro.obs.metrics import MetricsRegistry
from repro.scenarios import (
    FlashCrowd,
    Generations,
    Incident,
    Migration,
    ScenarioSpec,
    Stragglers,
)

DOCUMENTED_DATACLASSES = [
    FleetConfig,
    MonitorConfig,
    QueueLengthMonitorConfig,
    Stragglers,
    Generations,
    Migration,
    Incident,
    FlashCrowd,
    ScenarioSpec,
]


def attributes_table_names(cls) -> list[str]:
    """Parse the attribute names out of a numpy-style Attributes table.

    Combined rows like ``a / b / c:`` (used when several fields share one
    description) contribute each name separately, in order.
    """
    doc = inspect.getdoc(cls)
    assert doc is not None, f"{cls.__name__} has no docstring"
    lines = doc.splitlines()
    names: list[str] = []
    in_table = False
    for i, line in enumerate(lines):
        if line.strip() == "Attributes":
            assert set(lines[i + 1].strip()) == {"-"}, (
                f"{cls.__name__}: Attributes heading missing its underline"
            )
            in_table = True
            continue
        if not in_table or set(line.strip()) == {"-"}:
            continue
        if line and not line.startswith(" ") and line.endswith(":"):
            for part in line[:-1].split("/"):
                names.append(part.strip())
        elif line and not line.startswith(" "):
            in_table = False  # a new unindented section ends the table
    assert names, f"{cls.__name__} has no Attributes table"
    return names


@pytest.mark.parametrize(
    "cls", DOCUMENTED_DATACLASSES, ids=lambda cls: cls.__name__
)
def test_attributes_table_matches_fields(cls):
    documented = attributes_table_names(cls)
    fields = [f.name for f in dataclasses.fields(cls)]
    assert documented == fields, (
        f"{cls.__name__}: Attributes table {documented} has drifted from "
        f"the dataclass fields {fields}; update the docstring"
    )


# ---------------------------------------------------------------------------
# repro.obs.fleet instrument table
# ---------------------------------------------------------------------------


def documented_fleet_patterns() -> list[re.Pattern]:
    """Extract the instrument names from the module docstring's rst table.

    ``{a,b,c}`` alternation and ``<placeholder>`` wildcards both expand
    into the returned regex patterns.
    """
    doc = inspect.getdoc(obs_fleet)
    rows = [
        row
        for row in re.findall(r"^``([^`]+)``", doc, flags=re.MULTILINE)
        if row.startswith("fleet.")
    ]
    assert rows, "repro.obs.fleet docstring lost its instrument table"
    patterns = []
    for row in rows:
        escaped = re.escape(row)
        escaped = re.sub(
            r"\\{([^}]+)\\}",
            lambda m: "(?:" + m.group(1).replace(",", "|") + ")",
            escaped,
        )
        escaped = re.sub(r"<[a-z_]+>", r"[A-Za-z0-9_.-]+", escaped)
        patterns.append(re.compile(f"^{escaped}$"))
    return patterns


def fake_window_record() -> dict:
    return {
        "window": 3,
        "hour": 0.5,
        "servers": 8,
        "cluster_load": 0.6,
        "violations": 1,
        "throttled": 2,
        "mean_tail_ms": 41.0,
        "mode_baseline": 5,
        "mode_b": 2,
        "mode_q": 1,
        "placement": {"zeusmp": 6, "gemsFDTD": 2},
        "scenario": {
            "name": "stragglers",
            "active": ["stragglers"],
            "load_factor": 1.0,
            "affected": 1,
        },
    }


def fake_timeline() -> SimpleNamespace:
    return SimpleNamespace(
        total_windows=16,
        n_windows=2,
        violation_rate=0.125,
        mode_occupancy=(0.5, 0.25, 0.25),
        throttled_fraction=0.0625,
        mean_tail_ms=40.0,
        straggler_p99_violations=2.0,
        server_violations=[0, 1, 0, 2, 0, 0, 1, 0],
        hours=[0.0, 0.5],
        violations=[1, 1],
        throttled=[0, 2],
    )


def test_fleet_instrument_table_matches_publishers():
    registry = MetricsRegistry(enabled=True)
    obs_fleet.publish_fleet_window(registry, fake_window_record())
    obs_fleet.publish_fleet_metrics(registry, fake_timeline())
    published = set(registry.collect())
    patterns = documented_fleet_patterns()

    undocumented = sorted(
        name
        for name in published
        if not any(p.match(name) for p in patterns)
    )
    assert not undocumented, (
        f"published fleet metrics missing from the repro.obs.fleet "
        f"docstring table: {undocumented}"
    )

    unpublished = [
        p.pattern
        for p in patterns
        if not any(p.match(name) for name in published)
    ]
    assert not unpublished, (
        f"documented fleet instruments never published by either "
        f"publisher (stale table rows?): {unpublished}"
    )


# ---------------------------------------------------------------------------
# docs/API.md fidelity-tier table vs the registry
# ---------------------------------------------------------------------------

API_MD = Path(__file__).resolve().parent.parent / "docs" / "API.md"


def documented_fidelity_tiers() -> list[str]:
    """Parse the tier names out of the ``### Fidelity tiers`` table."""
    text = API_MD.read_text()
    match = re.search(r"### Fidelity tiers\n(.*?)\n#", text, flags=re.DOTALL)
    assert match, "docs/API.md lost its '### Fidelity tiers' section"
    rows = re.findall(r"^\| `([a-z0-9_-]+)` \|", match.group(1), re.MULTILINE)
    assert rows, "the Fidelity tiers section lost its table"
    return rows


def test_fidelity_table_matches_registry():
    from repro.experiments.common import fidelity_names

    documented = documented_fidelity_tiers()
    assert sorted(documented) == sorted(fidelity_names()), (
        f"docs/API.md fidelity-tier table {documented} has drifted from "
        f"the registry {fidelity_names()}; update the table"
    )


def test_unknown_tier_error_lists_registry():
    from repro.experiments.common import Fidelity, fidelity_names

    with pytest.raises(ValueError, match="fidelity") as excinfo:
        Fidelity.resolve("no-such-tier")
    message = str(excinfo.value)
    for name in fidelity_names():
        assert name in message, (
            f"registered tier {name!r} missing from the unknown-fidelity "
            f"error message: {message}"
        )
