"""Unified lookup across all workload profiles (CloudSuite + SPEC CPU2006)."""

from __future__ import annotations

from repro.workloads.cloudsuite import CLOUDSUITE
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.spec2006 import SPEC2006

__all__ = ["all_profiles", "get_profile", "resolve_profile"]


def all_profiles() -> dict[str, WorkloadProfile]:
    """All known profiles, keyed by name."""
    merged = dict(CLOUDSUITE)
    overlap = merged.keys() & SPEC2006.keys()
    if overlap:
        raise RuntimeError(f"workload name collision between suites: {sorted(overlap)}")
    merged.update(SPEC2006)
    return merged


def get_profile(name: str) -> WorkloadProfile:
    """Look up any workload profile by name."""
    profiles = all_profiles()
    try:
        return profiles[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; known: {', '.join(sorted(profiles))}"
        ) from None


def resolve_profile(workload: str | WorkloadProfile) -> WorkloadProfile:
    """A profile passes through as given; a name is looked up."""
    if isinstance(workload, WorkloadProfile):
        return workload
    return get_profile(str(workload))
