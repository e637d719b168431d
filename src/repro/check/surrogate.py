"""Held-out accuracy gate for the UIPC surrogate tier.

The surrogate tier (``fidelity="surrogate"``) answers partitioned-ROB
sweeps from a fitted :class:`~repro.cpu.surrogate.UipcSurrogate` and
reports a held-out ``error_bound`` next to every prediction.  That bound
is only useful if it is *honest*, so this module measures it the way a
user would hit it: seeded random held-out configurations — fresh axis
points that were neither anchors nor validation midpoints, evaluated
with fresh derived sampling seeds — compared against the exact sampler.
A case fails when the absolute mean-UIPC error exceeds the fit's own
reported bound.

``stretch-repro check --surrogate`` runs this gate (exit code 1 on any
failure); CI pairs it with a surrogate-tier fig06 smoke run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.cpu.surrogate import (
    UipcFitJob,
    UipcGrid,
    axis_scale,
    family_axis,
    family_config_at,
)
from repro.engine.job import SimJob, thread_means
from repro.util.rng import derive_seed

__all__ = [
    "GateResult",
    "SurrogateGateCase",
    "SurrogateGateReport",
    "build_gate_cases",
    "surrogate_accuracy_sweep",
]


@dataclass(frozen=True)
class SurrogateGateCase:
    """One held-out comparison point."""

    kind: str                    # "solo" | "pair"
    workloads: tuple[str, ...]
    x: int                       # thread-0 ROB-axis value (off-anchor)
    seed_index: int              # per-case fresh-seed derivation index


@dataclass(frozen=True)
class GateResult:
    """Outcome of one case: prediction vs exact, per thread."""

    case: SurrogateGateCase
    predicted: tuple[float, ...]
    exact: tuple[float, ...]
    error_bound: float

    @property
    def error(self) -> float:
        return max(abs(p - e) for p, e in zip(self.predicted, self.exact))

    @property
    def ok(self) -> bool:
        return self.error <= self.error_bound

    def summary(self) -> str:
        status = "ok" if self.ok else "FAIL"
        names = "+".join(self.case.workloads)
        return (
            f"{status} {self.case.kind} {names} @rob={self.case.x}: "
            f"|err|={self.error:.4f} bound={self.error_bound:.4f}"
        )


@dataclass(frozen=True)
class SurrogateGateReport:
    """Aggregate over all gate cases."""

    results: tuple[GateResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def failures(self) -> tuple[GateResult, ...]:
        return tuple(r for r in self.results if not r.ok)

    @property
    def worst_error(self) -> float:
        return max((r.error for r in self.results), default=0.0)

    def summary(self) -> str:
        n = len(self.results)
        bound = max((r.error_bound for r in self.results), default=0.0)
        return (
            f"surrogate gate: {n - len(self.failures)}/{n} held-out configs "
            f"within bound (worst |err| {self.worst_error:.4f}, "
            f"largest bound {bound:.4f})"
        )


def _families(grid: UipcGrid):
    """The stock surrogate families the gate samples from."""
    from repro.experiments.common import (
        BATCH_WORKLOADS,
        LS_WORKLOADS,
        config_all_shared,
        config_solo,
    )

    solo_canon, __ = family_axis("solo", config_solo(192))
    pair_canon, __ = family_axis("pair", config_all_shared())
    return {
        "solo": (solo_canon, tuple(LS_WORKLOADS) + tuple(BATCH_WORKLOADS)),
        "pair": (pair_canon, (tuple(LS_WORKLOADS), tuple(BATCH_WORKLOADS))),
    }


def build_gate_cases(
    n_configs: int = 50,
    seed: int = 0,
    grid: UipcGrid = UipcGrid(),
) -> list[SurrogateGateCase]:
    """Seeded random held-out cases: fresh off-anchor axis points.

    Axis values are drawn uniformly from the fitted range *excluding* the
    calibration anchors and validation midpoints, so every case is a
    configuration the fit has never seen.
    """
    families = _families(grid)
    cases = []
    for i in range(n_configs):
        rng = random.Random(derive_seed(seed, "surrogate-gate", i))
        kind = rng.choice(("solo", "pair"))
        canon, pool = families[kind]
        if kind == "solo":
            workloads: tuple[str, ...] = (rng.choice(pool),)
        else:
            ls_pool, batch_pool = pool
            workloads = (rng.choice(ls_pool), rng.choice(batch_pool))
        scale = axis_scale(kind, canon)
        anchors = grid.anchor_values(kind, scale)
        seen = set(anchors) | set(grid.validation_values(kind, scale))
        x = rng.randrange(anchors[0], anchors[-1] + 1)
        while x in seen:
            x = rng.randrange(anchors[0], anchors[-1] + 1)
        cases.append(SurrogateGateCase(
            kind=kind, workloads=workloads, x=x, seed_index=i,
        ))
    return cases


def surrogate_accuracy_sweep(
    n_configs: int = 50,
    seed: int = 0,
    grid: UipcGrid = UipcGrid(),
    store=None,
    progress=None,
) -> SurrogateGateReport:
    """Gate the surrogate's reported error bound on fresh held-out configs.

    Each case assembles its family's fit from the
    :class:`~repro.cpu.surrogate.UipcFitJob` members, read through
    ``store`` (shared across cases); the exact reference for each case
    runs with a *fresh* derived sampling seed, so the gate also covers
    seed-to-seed sampling variation — the same variation the fit's
    ``error_margin`` is meant to absorb.
    """
    from repro.engine.store import default_store
    from repro.experiments.common import Fidelity

    if store is None:
        store = default_store()
    sampling = Fidelity.surrogate(seed=42).sampling
    families = _families(grid)

    results = []
    cases = build_gate_cases(n_configs, seed=seed, grid=grid)
    for case in cases:
        canon, __ = families[case.kind]
        fit = UipcFitJob(
            kind=case.kind, workloads=case.workloads, config=canon,
            sampling=sampling, grid=grid,
        )
        surrogate = fit.assemble([store.compute(job) for job in fit.members()])
        member = family_config_at(case.kind, canon, case.x)
        fresh = replace(
            sampling,
            seed=derive_seed(seed, "surrogate-gate-exact", case.seed_index),
        )
        exact = thread_means(
            store.compute(SimJob(case.kind, case.workloads, member, fresh)),
            len(case.workloads),
        )
        predicted = tuple(
            surrogate.predict(case.x, thread=t)
            for t in range(len(case.workloads))
        )
        result = GateResult(
            case=case,
            predicted=predicted,
            exact=exact,
            error_bound=surrogate.error_bound,
        )
        results.append(result)
        if progress is not None:
            progress(result)
    return SurrogateGateReport(results=tuple(results))
