"""Golden-digest regression tests for the figure harnesses.

Each test regenerates a fixed slice of a paper figure at quick fidelity
with a pinned seed, canonicalizes the result to JSON, and compares its
SHA-256 digest against the committed golden files in ``tests/golden/``.
Any change to the timing model — intentional or not — shows up here as a
digest mismatch with a field-level diff against the committed payload.

Refreshing after an *intentional* timing-model change::

    REPRO_GOLDEN_UPDATE=1 python -m pytest tests/test_golden_digests.py

and bump ``CACHE_VERSION`` in ``src/repro/engine/store.py`` in the same
commit, so content-addressed caches from the old model are evicted
everywhere (the digest files and the cache version must move together).

The slices are deliberately small (one service, two batch workloads, two
partition schemes) so the tests stay in tier-1 budget; the differential
sweep — not this file — is what proves engine equivalence.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.experiments.common import Fidelity

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Fixed figure slices: small, deterministic, still timing-sensitive.
LS_SUBSET = ("web_search",)
BATCH_SUBSET = ("zeusmp", "mcf")
FIG09_SCHEME_NAMES = ("56-136", "136-56")

_UPDATE = os.environ.get("REPRO_GOLDEN_UPDATE", "") == "1"


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Fresh result store per test: digests must come from real simulation."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(payload) -> str:
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _flatten(obj[k], f"{prefix}.{k}" if prefix else str(k))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            yield from _flatten(v, f"{prefix}[{i}]")
    else:
        yield prefix, obj


def _diff(expected, actual, limit=10) -> str:
    """Field-level diff between two canonical payloads, first mismatches."""
    exp = dict(_flatten(expected))
    act = dict(_flatten(actual))
    lines = []
    for path in sorted(exp.keys() | act.keys()):
        a, b = exp.get(path, "<absent>"), act.get(path, "<absent>")
        if a != b:
            lines.append(f"  {path}: {a!r} -> {b!r}")
            if len(lines) >= limit:
                lines.append("  ... (more differences truncated)")
                break
    return "\n".join(lines) if lines else "  (payloads differ only in ordering)"


def _check_golden(name: str, payload) -> None:
    digest_path = GOLDEN_DIR / f"{name}.sha256"
    payload_path = GOLDEN_DIR / f"{name}.json"
    if _UPDATE:
        GOLDEN_DIR.mkdir(exist_ok=True)
        payload_path.write_text(_canonical(payload) + "\n")
        digest_path.write_text(_digest(payload) + "\n")
        return
    assert digest_path.exists(), (
        f"missing golden digest {digest_path}; generate with "
        "REPRO_GOLDEN_UPDATE=1 python -m pytest tests/test_golden_digests.py"
    )
    expected_digest = digest_path.read_text().strip()
    actual_digest = _digest(payload)
    if actual_digest == expected_digest:
        return
    expected_payload = json.loads(payload_path.read_text())
    raise AssertionError(
        f"{name}: golden digest mismatch — the timing model's output "
        f"changed.\n"
        f"  expected sha256 {expected_digest}\n"
        f"  actual   sha256 {actual_digest}\n"
        f"field-level diff (committed -> regenerated):\n"
        f"{_diff(expected_payload, payload)}\n"
        "If this change is intentional, refresh the golden files "
        "(REPRO_GOLDEN_UPDATE=1 python -m pytest tests/test_golden_digests.py) "
        "AND bump CACHE_VERSION in src/repro/engine/store.py in the same "
        "commit, so stale content-addressed results are evicted."
    )


def _round(x: float) -> float:
    """Canonical float rounding: immune to last-ulp formatting drift."""
    return round(x, 12)


class TestGoldenDigests:
    def test_fig06_quick_digest(self, monkeypatch):
        from repro.experiments import fig06_rob_sensitivity as fig06

        monkeypatch.setattr(fig06, "LS_WORKLOADS", LS_SUBSET)
        monkeypatch.setattr(fig06, "BATCH_WORKLOADS", BATCH_SUBSET)
        result = fig06.run(Fidelity.quick(seed=42))
        payload = {
            "figure": "fig06",
            "fidelity": "quick",
            "seed": 42,
            "workloads": {"ls": list(LS_SUBSET), "batch": list(BATCH_SUBSET)},
            "curves": {
                series: {str(size): _round(v) for size, v in curve.items()}
                for series, curve in result.curves.items()
            },
        }
        _check_golden("fig06_quick", payload)

    def test_fig09_quick_digest(self, monkeypatch):
        from repro.experiments import fig09_stretch_modes as fig09

        monkeypatch.setattr(fig09, "LS_WORKLOADS", LS_SUBSET)
        monkeypatch.setattr(fig09, "BATCH_WORKLOADS", BATCH_SUBSET)
        schemes = tuple(
            s for s in fig09.ALL_SCHEMES if s.name in FIG09_SCHEME_NAMES
        )
        assert len(schemes) == len(FIG09_SCHEME_NAMES)
        result = fig09.run(Fidelity.quick(seed=42), schemes=schemes)
        payload = {
            "figure": "fig09",
            "fidelity": "quick",
            "seed": 42,
            "workloads": {"ls": list(LS_SUBSET), "batch": list(BATCH_SUBSET)},
            "by_scheme": {
                scheme: [
                    [ls, batch, _round(ls_sp), _round(batch_sp)]
                    for ls, batch, ls_sp, batch_sp in rows
                ]
                for scheme, rows in result.by_scheme.items()
            },
        }
        _check_golden("fig09_quick", payload)

    def test_ext_autotune_quick_digest(self):
        import dataclasses

        from repro.tune import PortfolioEntry, TuneSpace, tune_monitor
        from repro.workloads.registry import get_profile
        from tests.test_fleet import fleet_config, performance_model

        # A small but fully adversarial slice: three scenario families,
        # a 24-point grid, hand-built performance model (no core sim).
        result = tune_monitor(
            get_profile("web_search"),
            performance_model(),
            fleet_config(n_servers=16),
            portfolio=(
                PortfolioEntry(scenario="calm"),
                PortfolioEntry(scenario="stragglers", weight=2.0),
                PortfolioEntry(scenario="incident"),
            ),
            space=TuneSpace(
                engage_fraction=(0.5, 0.6, 0.7),
                engage_windows=(2, 3),
                violation_windows_to_throttle=(2, 3),
                throttle_windows=(6, 10),
            ),
            n_trials=3,
            descent_rounds=1,
            seed=11,
        )
        payload = {
            "experiment": "ext_autotune",
            "fidelity": "quick",
            "seed": 11,
            "n_servers": 16,
            "fleet_days": result.fleet_runs + result.cached_runs,
            "candidates": len(result.candidates),
            "monitors": {
                label: dataclasses.asdict(cand.monitor)
                for label, cand in (
                    ("default", result.default), ("best", result.best),
                )
            },
            "scores": {
                "default": _round(result.default.score),
                "best": _round(result.best.score),
            },
            "outcomes": {
                label: {
                    o.scenario: {
                        "violation_rate": _round(o.violation_rate),
                        "mean_batch_uipc": _round(o.mean_batch_uipc),
                        "bmode_fraction": _round(o.bmode_fraction),
                        "throttled_fraction": _round(o.throttled_fraction),
                    }
                    for o in cand.outcomes
                }
                for label, cand in (
                    ("default", result.default), ("best", result.best),
                )
            },
            "dominating_scenarios": list(result.dominating_scenarios),
        }
        _check_golden("ext_autotune_quick", payload)


class TestGoldenDigestsWithoutSharedPoints:
    """The fig06/fig09 slices with sampling-point sharing disabled.

    ``solo_uipc_many``/``pair_uipc_many`` normally share each sampling
    point across a sweep; with an LRU of no points every sample builds and
    warms its own, and the digests must still match the committed files
    byte for byte.
    """

    @pytest.fixture(autouse=True)
    def no_shared_points(self, monkeypatch):
        import repro.cpu.sampling as sampling

        monkeypatch.setattr(sampling, "SCOPE_POINTS", 0)

    test_fig06_quick_digest = TestGoldenDigests.test_fig06_quick_digest
    test_fig09_quick_digest = TestGoldenDigests.test_fig09_quick_digest
