"""CRN-paired autotuning of the Stretch monitor against scenario suites.

The paper fixes :class:`~repro.core.monitor.MonitorConfig` by hand
(engage fraction and streak, violation streak, throttle length).  This
module searches that space against a **weighted portfolio of
adversarial scenarios** (:mod:`repro.scenarios`) and scores each
candidate on the violation-rate-vs-batch-UIPC trade the paper's Fig. 14
frames, using the SLO error-budget machinery of :mod:`repro.obs.slo`.

Methodology — **common random numbers, content-addressed**:

* every candidate is evaluated with the *same* ``config.seed``, so all
  balancing jitter, surrogate noise and scenario masks are identical
  across candidates (paired evaluation: score differences are policy
  effects, not resampling noise);
* each (candidate, scenario) day runs as a
  :class:`~repro.fleet.shard.FleetShardJob` through the
  :class:`~repro.engine.store.ResultStore`, whose key covers the config
  *and* the scenario — coordinate descent revisits and warm re-runs of
  the tuner are cache hits, not simulations.

The search is deliberately simple and derivative-free: the paper
default, ``n_trials`` random draws from the :class:`TuneSpace` grid,
then coordinate descent (full axis sweeps around the incumbent) until
no axis improves or the round budget runs out.  All randomness derives
from ``derive_seed(seed, "tune-trial", t)`` — re-running a tune is
deterministic and (via the store) nearly free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from repro.core.monitor import MonitorConfig
from repro.fleet.engine import FleetConfig, FleetEngine, FleetTimeline
from repro.fleet.shard import FleetShardJob, window_loads
from repro.obs.slo import SLOSpec, parse_slo
from repro.scenarios import ScenarioSpec, as_scenario
from repro.util.rng import derive_seed

__all__ = [
    "CandidateScore",
    "PortfolioEntry",
    "ScenarioOutcome",
    "TuneResult",
    "TuneSpace",
    "confirm_candidates",
    "default_portfolio",
    "tune_monitor",
]

#: Score penalty per whole error budget burned beyond the SLO target.
OVER_BUDGET_PENALTY = 1.0
#: Throughput-gain units traded per error budget consumed within target
#: (a mild pressure toward cleaner days among budget-compliant configs).
BURN_TIEBREAK = 0.02


@dataclass(frozen=True)
class TuneSpace:
    """The monitor-parameter grid the tuner searches.

    One axis per :class:`~repro.core.monitor.MonitorConfig` field; each
    axis is a tuple of admissible values.  The default grid brackets the
    paper's hand-picked config (0.6 / 3 / 3 / 10) on every axis.

    Attributes
    ----------
    engage_fraction:
        Candidate B-mode engage thresholds (fraction of the QoS target).
    engage_windows:
        Candidate compliant-streak lengths before engaging B-mode.
    violation_windows_to_throttle:
        Candidate violation-streak lengths before ordering a throttle.
    throttle_windows:
        Candidate throttle interval lengths.
    """

    engage_fraction: tuple[float, ...] = (0.4, 0.5, 0.6, 0.7, 0.8)
    engage_windows: tuple[int, ...] = (1, 2, 3, 4, 6)
    violation_windows_to_throttle: tuple[int, ...] = (1, 2, 3, 4, 6)
    throttle_windows: tuple[int, ...] = (4, 6, 10, 14, 20)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "engage_fraction",
            tuple(float(v) for v in self.engage_fraction),
        )
        for name in (
            "engage_windows", "violation_windows_to_throttle",
            "throttle_windows",
        ):
            object.__setattr__(
                self, name, tuple(int(v) for v in getattr(self, name))
            )
        for name, values in self.axes.items():
            if not values:
                raise ValueError(f"axis {name} has no values")
            for value in values:
                # Fail fast on values MonitorConfig would reject mid-search.
                MonitorConfig(**{name: value})

    @property
    def axes(self) -> dict[str, tuple]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def size(self) -> int:
        """Number of distinct configurations on the grid."""
        return math.prod(len(v) for v in self.axes.values())

    def sample(self, rng: np.random.Generator) -> MonitorConfig:
        """One uniform draw from the grid."""
        return MonitorConfig(**{
            name: values[int(rng.integers(len(values)))]
            for name, values in self.axes.items()
        })


@dataclass(frozen=True)
class PortfolioEntry:
    """One weighted scenario in the tuning portfolio.

    ``load`` overrides the tune-level diurnal curve for this entry
    (``None`` inherits it); ``weight`` scales the entry's contribution
    to the aggregate score.
    """

    scenario: ScenarioSpec
    weight: float = 1.0
    load: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenario", as_scenario(self.scenario))
        if not isinstance(self.scenario, ScenarioSpec):
            raise TypeError("portfolio entries need a scenario")
        if self.weight <= 0:
            raise ValueError("portfolio weights must be positive")


def default_portfolio() -> tuple[PortfolioEntry, ...]:
    """The stock tuning portfolio: calm plus one preset per family.

    The calm day anchors the throughput side (a tuned config must not
    give up batch UIPC on ordinary days to survive the adversaries).
    """
    return tuple(
        PortfolioEntry(scenario=name)
        for name in ("calm", "stragglers", "incident", "flash_crowd")
    )


@dataclass(frozen=True)
class ScenarioOutcome:
    """One (candidate, scenario) day's aggregates."""

    scenario: str
    weight: float
    violation_rate: float
    mean_batch_uipc: float
    bmode_fraction: float
    throttled_fraction: float
    budget_burn: float  # violation_rate / SLO target (1.0 = budget spent)


@dataclass(frozen=True)
class CandidateScore:
    """One monitor configuration's portfolio evaluation."""

    monitor: MonitorConfig
    score: float
    violation_rate: float  # weighted across the portfolio
    batch_gain: float  # weighted mean batch UIPC vs always-Baseline
    budget_burn: float  # weighted violation_rate / SLO target
    outcomes: tuple[ScenarioOutcome, ...]

    def dominates(self, other: "CandidateScore") -> tuple[str, ...]:
        """Scenarios where self strictly dominates ``other``.

        Domination on a scenario: strictly lower violation rate at
        equal-or-better mean batch UIPC (the ``ext_autotune``
        acceptance relation).
        """
        names = []
        theirs = {o.scenario: o for o in other.outcomes}
        for ours in self.outcomes:
            base = theirs.get(ours.scenario)
            if base is None:
                continue
            if (ours.violation_rate < base.violation_rate
                    and ours.mean_batch_uipc >= base.mean_batch_uipc):
                names.append(ours.scenario)
        return tuple(names)


class _Evaluator:
    """Scores monitor candidates over the portfolio, CRN-paired.

    Every fleet day goes through the result store as a full-fleet
    :class:`FleetShardJob` (``lo=0, hi=n_servers``), so repeated
    evaluations of the same (monitor, scenario) pair — coordinate
    descent revisits, warm tuner re-runs — are cache hits.
    """

    def __init__(
        self,
        ls_profile,
        performance,
        config: FleetConfig,
        portfolio: tuple[PortfolioEntry, ...],
        *,
        load: str,
        slo: SLOSpec,
        store,
        surrogate_values: tuple[float, ...] | None,
        corunners=None,
        baseline_uipc: float,
    ):
        self.ls_profile = ls_profile
        self.performance = performance
        self.config = config
        self.portfolio = portfolio
        self.load = load
        self.slo = slo
        self.store = store
        self.surrogate_values = surrogate_values
        self.corunners = corunners
        self.baseline_uipc = baseline_uipc
        self.fleet_runs = 0
        self.cached_runs = 0
        self._memo: dict[MonitorConfig, CandidateScore] = {}

    def _day(self, monitor: MonitorConfig, entry: PortfolioEntry):
        load = entry.load if entry.load is not None else self.load
        job = FleetShardJob(
            ls_profile=self.ls_profile,
            performance=self.performance,
            config=replace(self.config, monitor=monitor),
            loads=window_loads(load, self.config),
            lo=0,
            hi=self.config.n_servers,
            surrogate_values=self.surrogate_values,
            corunners=self.corunners,
            # Null scenarios run as plain fleet days, sharing cache
            # entries with non-tuner runs of the same config.
            scenario=None if entry.scenario.is_null else entry.scenario,
        )
        if self.store.get(job.key) is not None:
            self.cached_runs += 1
        else:
            self.fleet_runs += 1
        return FleetTimeline.from_values(self.store.compute(job))

    def __call__(self, monitor: MonitorConfig) -> CandidateScore:
        hit = self._memo.get(monitor)
        if hit is not None:
            return hit
        outcomes = []
        for entry in self.portfolio:
            day = self._day(monitor, entry)
            windows = day.total_windows
            vr = day.violation_rate
            outcomes.append(ScenarioOutcome(
                scenario=entry.scenario.name,
                weight=entry.weight,
                violation_rate=vr,
                mean_batch_uipc=(
                    float(day.batch_uipc_sum.sum()) / windows
                    if windows else 0.0
                ),
                bmode_fraction=day.bmode_fraction,
                throttled_fraction=day.throttled_fraction,
                budget_burn=vr / self.slo.target,
            ))
        total_weight = sum(o.weight for o in outcomes)
        vr = sum(o.weight * o.violation_rate for o in outcomes) / total_weight
        uipc = sum(
            o.weight * o.mean_batch_uipc for o in outcomes
        ) / total_weight
        gain = uipc / self.baseline_uipc - 1.0 if self.baseline_uipc else 0.0
        burn = vr / self.slo.target
        score = (
            gain
            - OVER_BUDGET_PENALTY * max(0.0, burn - 1.0)
            - BURN_TIEBREAK * burn
        )
        result = CandidateScore(
            monitor=monitor,
            score=score,
            violation_rate=vr,
            batch_gain=gain,
            budget_burn=burn,
            outcomes=tuple(outcomes),
        )
        self._memo[monitor] = result
        return result

    @property
    def evaluations(self) -> int:
        return len(self._memo)


@dataclass(frozen=True)
class TuneResult:
    """Outcome of one :func:`tune_monitor` search.

    ``candidates`` holds every distinct configuration evaluated, best
    first; ``default`` is the incumbent the search started from (the
    paper's hand-picked config unless overridden).  ``fleet_runs`` /
    ``cached_runs`` split simulated from store-served fleet days — a
    warm re-run reports ``fleet_runs == 0``.
    """

    best: CandidateScore
    default: CandidateScore
    candidates: tuple[CandidateScore, ...]
    fleet_runs: int
    cached_runs: int
    slo: SLOSpec
    portfolio: tuple[PortfolioEntry, ...]
    seed: int

    @property
    def improved(self) -> bool:
        return self.best.score > self.default.score

    @property
    def dominating_scenarios(self) -> tuple[str, ...]:
        """Scenarios where the tuned config strictly dominates the default."""
        return self.best.dominates(self.default)

    def format(self) -> str:
        lines = [
            f"tuned monitor vs default "
            f"({len(self.candidates)} candidates, "
            f"{self.fleet_runs} simulated + {self.cached_runs} cached "
            f"fleet days, SLO {self.slo.name}<{self.slo.target:g})",
        ]
        for label, cand in (("default", self.default), ("tuned", self.best)):
            m = cand.monitor
            lines.append(
                f"  {label:<8} engage={m.engage_fraction:g}/"
                f"{m.engage_windows}w throttle="
                f"{m.violation_windows_to_throttle}v/{m.throttle_windows}w"
                f"  score={cand.score:+.4f} gain={cand.batch_gain:+.3f} "
                f"vr={cand.violation_rate:.4f}"
            )
        header = (
            f"  {'scenario':<18}{'vr(def)':>9}{'vr(tuned)':>11}"
            f"{'uipc(def)':>11}{'uipc(tuned)':>12}"
        )
        lines.append(header)
        base = {o.scenario: o for o in self.default.outcomes}
        for ours in self.best.outcomes:
            ref = base[ours.scenario]
            lines.append(
                f"  {ours.scenario:<18}{ref.violation_rate:>9.4f}"
                f"{ours.violation_rate:>11.4f}"
                f"{ref.mean_batch_uipc:>11.4f}{ours.mean_batch_uipc:>12.4f}"
            )
        dom = self.dominating_scenarios
        lines.append(
            "  dominates default on: " + (", ".join(dom) if dom else "none")
        )
        return "\n".join(lines)


def confirm_candidates(
    ls_profile,
    performance,
    config: FleetConfig | None,
    monitors,
    *,
    portfolio: tuple[PortfolioEntry, ...] | None = None,
    load: str = "web_search",
    slo: SLOSpec | str = "qos:violation_rate<0.05",
    surrogate=None,
    corunners=None,
    store=None,
) -> tuple[tuple[CandidateScore, ...], int, int]:
    """Re-score specific monitor configurations against the portfolio.

    The confirmation half of surrogate-tier tuning: after a cheap
    screening pass ranks candidates with an approximate ``performance``
    model, the short-listed ``monitors`` are re-evaluated here with an
    exact-tier model — same portfolio, same CRN fleet seed, same store
    memoization — so the reported winner's score carries no surrogate
    error.  Returns ``(scores, fleet_runs, cached_runs)`` with scores in
    ``monitors`` order.
    """
    if config is None:
        config = FleetConfig()
    if portfolio is None:
        portfolio = default_portfolio()
    portfolio = tuple(portfolio)
    if not portfolio:
        raise ValueError("confirmation needs a non-empty portfolio")
    slo = parse_slo(slo) if isinstance(slo, str) else slo
    if store is None:
        from repro.engine.store import default_store

        store = default_store()
    fleet = FleetEngine(
        ls_profile, performance, config,
        surrogate=surrogate, corunners=corunners, store=store,
    )
    evaluate = _Evaluator(
        ls_profile, performance, config, portfolio,
        load=load, slo=slo, store=store,
        surrogate_values=fleet.ensure_surrogate().to_values(),
        corunners=corunners,
        baseline_uipc=fleet.baseline_batch_uipc,
    )
    scores = tuple(evaluate(monitor) for monitor in monitors)
    return scores, evaluate.fleet_runs, evaluate.cached_runs


def tune_monitor(
    ls_profile,
    performance,
    config: FleetConfig | None = None,
    *,
    portfolio: tuple[PortfolioEntry, ...] | None = None,
    space: TuneSpace | None = None,
    load: str = "web_search",
    n_trials: int = 12,
    descent_rounds: int = 2,
    seed: int = 17,
    slo: SLOSpec | str = "qos:violation_rate<0.05",
    surrogate=None,
    corunners=None,
    store=None,
) -> TuneResult:
    """Search :class:`MonitorConfig` space against a scenario portfolio.

    ``config.monitor`` is the incumbent/default; all candidates are
    evaluated CRN-paired (same ``config.seed``) through the result
    store.  ``slo`` supplies the violation-rate budget the score
    penalizes against (an :class:`~repro.obs.slo.SLOSpec` or its
    compact string form).  Deterministic for a given ``seed``.
    """
    if config is None:
        config = FleetConfig()
    if portfolio is None:
        portfolio = default_portfolio()
    portfolio = tuple(portfolio)
    if not portfolio:
        raise ValueError("tuning needs a non-empty portfolio")
    space = space if space is not None else TuneSpace()
    slo = parse_slo(slo) if isinstance(slo, str) else slo
    if slo.objective != "violation_rate":
        raise ValueError(
            f"tuning scores the violation_rate objective, got "
            f"{slo.objective!r}"
        )
    if n_trials < 0:
        raise ValueError("n_trials must be >= 0")
    if descent_rounds < 0:
        raise ValueError("descent_rounds must be >= 0")

    if store is None:
        from repro.engine.store import default_store

        store = default_store()
    fleet = FleetEngine(
        ls_profile, performance, config,
        surrogate=surrogate, corunners=corunners, store=store,
    )
    surrogate_values = fleet.ensure_surrogate().to_values()
    evaluate = _Evaluator(
        ls_profile, performance, config, portfolio,
        load=load, slo=slo, store=store,
        surrogate_values=surrogate_values, corunners=corunners,
        baseline_uipc=fleet.baseline_batch_uipc,
    )

    default = evaluate(config.monitor)
    best = default
    for t in range(n_trials):
        rng = np.random.default_rng(derive_seed(seed, "tune-trial", t))
        cand = evaluate(space.sample(rng))
        if cand.score > best.score:
            best = cand
    for _ in range(descent_rounds):
        improved = False
        for name, values in space.axes.items():
            for value in values:
                cand = evaluate(replace(best.monitor, **{name: value}))
                if cand.score > best.score:
                    best = cand
                    improved = True
        if not improved:
            break

    candidates = tuple(sorted(
        evaluate._memo.values(), key=lambda c: -c.score
    ))
    return TuneResult(
        best=best,
        default=default,
        candidates=candidates,
        fleet_runs=evaluate.fleet_runs,
        cached_runs=evaluate.cached_runs,
        slo=slo,
        portfolio=portfolio,
        seed=seed,
    )
