"""Adversarial fleet scenarios: declarative perturbations of a fleet day.

The fleet engine simulates a *well-behaved* cluster: every server is the
same hardware, the diurnal curve is the only traffic signal, and nothing
breaks mid-day.  Real fleets are messier, and a monitor configuration
tuned on calm traffic can fall over exactly when it matters.  This
module declares the messiness as data: a :class:`ScenarioSpec` bundles
up to five perturbation components —

* :class:`Stragglers` — a random subset of servers runs slow all day
  (per-server tail-latency scaling, the "5% bad NICs" axis);
* :class:`Generations` — heterogeneous server generations: each server
  draws a generation with a per-generation tail scale factor;
* :class:`Migration` — a mid-day workload/population migration: a subset
  of servers drains most of its traffic onto the rest of the fleet;
* :class:`Incident` — a partial-fleet incident: a fraction of servers
  loses capacity for a bounded span (served load is inflated on the
  affected servers while it lasts);
* :class:`FlashCrowd` — a cluster-wide load spike over a bounded span.

A spec compiles into a :class:`ScenarioSampler`, which the
:class:`~repro.fleet.engine.FleetStepper` consults each window.  Every
perturbation vector is a **pure function of ``(seed, window)``** drawn
for the *whole* fleet and sliced per shard — the same stateless-RNG
discipline as the balancing and placement policies — so checkpoint/resume
changes no outcome, and shard count and chunk size change no integer
aggregate (the float window sums only up to summation order).  Servers a
component does not touch receive a multiplier of exactly ``1.0``
(bit-preserving), and a *null* scenario (no components, or all at zero
magnitude) is skipped entirely: results are bit-identical to an
unperturbed run.  Both guarantees are test-gated
(``tests/test_scenarios.py``).

Specs are frozen, hashable and ``repr``-stable, so they ride in
content-addressed :class:`~repro.fleet.shard.FleetShardJob` payloads
(the CRN-paired evaluation cache behind :mod:`repro.tune`) and in
service checkpoint identities.  :data:`SCENARIO_NAMES` lists the named
presets of the adversarial suite; :func:`as_scenario` resolves the
public entry points' ``scenario=`` argument (spec, preset name, dict,
or ``None``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Mapping

import numpy as np

from repro.util.rng import derive_seed

__all__ = [
    "SCENARIO_NAMES",
    "FlashCrowd",
    "Generations",
    "Incident",
    "Migration",
    "ScenarioSampler",
    "ScenarioSpec",
    "Stragglers",
    "as_scenario",
    "get_scenario",
    "scenario_from_dict",
]


@dataclass(frozen=True)
class Stragglers:
    """Chronically slow servers (bad NIC, failing disk, noisy neighbor).

    Attributes
    ----------
    fraction:
        Fraction of the fleet affected, in ``[0, 1]``; each server is
        drawn independently from the scenario's seed.
    slowdown:
        Tail-latency multiplier applied to affected servers all day
        (``>= 1``; ``1.0`` disables the component).
    """

    fraction: float = 0.05
    slowdown: float = 1.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("straggler fraction must be in [0, 1]")
        if self.slowdown < 1.0:
            raise ValueError("straggler slowdown must be >= 1")

    @property
    def is_null(self) -> bool:
        return self.fraction == 0.0 or self.slowdown == 1.0


@dataclass(frozen=True)
class Generations:
    """Heterogeneous server generations with per-generation tail scaling.

    Attributes
    ----------
    factors:
        Tail-latency scale per generation (``1.0`` = the reference
        generation; older generations are ``> 1``).
    mix:
        Fractional share per generation (same length as ``factors``;
        empty = uniform shares).
    """

    factors: tuple[float, ...] = (1.0, 1.15, 1.3)
    mix: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors",
                           tuple(float(f) for f in self.factors))
        object.__setattr__(self, "mix", tuple(float(m) for m in self.mix))
        if not self.factors:
            raise ValueError("generations need at least one factor")
        if min(self.factors) <= 0.0:
            raise ValueError("generation factors must be positive")
        if self.mix:
            if len(self.mix) != len(self.factors):
                raise ValueError("mix length must match factors")
            if min(self.mix) <= 0.0:
                raise ValueError("mix shares must be positive")

    @property
    def is_null(self) -> bool:
        return all(f == 1.0 for f in self.factors)

    @property
    def shares(self) -> tuple[float, ...]:
        n = len(self.factors)
        if not self.mix:
            return (1.0 / n,) * n
        total = sum(self.mix)
        return tuple(m / total for m in self.mix)


@dataclass(frozen=True)
class Migration:
    """Mid-day workload migration: a server subset drains onto the rest.

    From ``start_hour`` on, each affected server keeps only ``retain``
    of its balanced load; the drained remainder is redistributed over
    the unaffected servers (count-weighted, conserving the fleet's
    total balanced load).

    Attributes
    ----------
    start_hour:
        Hour of day the migration begins (it never reverts).
    fraction:
        Fraction of the fleet that drains, in ``[0, 1)``.
    retain:
        Load share a drained server keeps, in ``[0, 1]``
        (``1.0`` disables the component).
    """

    start_hour: float = 12.0
    fraction: float = 0.3
    retain: float = 0.2

    def __post_init__(self) -> None:
        if not 0.0 <= self.start_hour < 24.0:
            raise ValueError("start_hour must be in [0, 24)")
        if not 0.0 <= self.fraction < 1.0:
            raise ValueError("migration fraction must be in [0, 1)")
        if not 0.0 <= self.retain <= 1.0:
            raise ValueError("retain must be in [0, 1]")

    @property
    def is_null(self) -> bool:
        return self.fraction == 0.0 or self.retain == 1.0


@dataclass(frozen=True)
class Incident:
    """Partial-fleet incident: some servers lose capacity for a span.

    While active, each affected server's load is inflated by
    ``1 / (1 - capacity_loss)`` — the queueing-level effect of serving
    the same traffic with fewer effective workers.

    Attributes
    ----------
    start_hour:
        Hour of day the incident begins.
    duration_hours:
        Incident length in hours (must be positive).
    fraction:
        Fraction of the fleet affected, in ``[0, 1]``.
    capacity_loss:
        Fraction of capacity lost on affected servers, in ``[0, 1)``
        (``0.0`` disables the component).
    """

    start_hour: float = 10.0
    duration_hours: float = 3.0
    fraction: float = 0.25
    capacity_loss: float = 0.4

    def __post_init__(self) -> None:
        if not 0.0 <= self.start_hour < 24.0:
            raise ValueError("start_hour must be in [0, 24)")
        if self.duration_hours <= 0.0:
            raise ValueError("duration_hours must be positive")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("incident fraction must be in [0, 1]")
        if not 0.0 <= self.capacity_loss < 1.0:
            raise ValueError("capacity_loss must be in [0, 1)")

    @property
    def is_null(self) -> bool:
        return self.fraction == 0.0 or self.capacity_loss == 0.0


@dataclass(frozen=True)
class FlashCrowd:
    """Cluster-wide load spike over a bounded span.

    Attributes
    ----------
    start_hour:
        Hour of day the spike begins.
    duration_hours:
        Spike length in hours (must be positive).
    magnitude:
        Cluster-load multiplier while active (``> 0``; ``1.0``
        disables the component).
    """

    start_hour: float = 18.0
    duration_hours: float = 2.0
    magnitude: float = 1.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.start_hour < 24.0:
            raise ValueError("start_hour must be in [0, 24)")
        if self.duration_hours <= 0.0:
            raise ValueError("duration_hours must be positive")
        if self.magnitude <= 0.0:
            raise ValueError("magnitude must be positive")

    @property
    def is_null(self) -> bool:
        return self.magnitude == 1.0


#: Component field name -> component class (spec (de)serialization).
_COMPONENTS = {
    "stragglers": Stragglers,
    "generations": Generations,
    "migration": Migration,
    "incident": Incident,
    "flash_crowd": FlashCrowd,
}


@dataclass(frozen=True)
class ScenarioSpec:
    """A declarative adversarial scenario: up to five perturbations.

    Attributes
    ----------
    name:
        Scenario label (metrics, experiment rows, checkpoint identity).
    stragglers:
        Chronically slow servers, or ``None``.
    generations:
        Heterogeneous server generations, or ``None``.
    migration:
        Mid-day workload migration, or ``None``.
    incident:
        Partial-fleet capacity incident, or ``None``.
    flash_crowd:
        Cluster-wide load spike, or ``None``.
    salt:
        Extra seed label mixed into every scenario draw, decorrelating
        repeated runs of the same scenario shape.
    """

    name: str = "scenario"
    stragglers: Stragglers | None = None
    generations: Generations | None = None
    migration: Migration | None = None
    incident: Incident | None = None
    flash_crowd: FlashCrowd | None = None
    salt: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario needs a name")
        for field_name, cls in _COMPONENTS.items():
            value = getattr(self, field_name)
            if value is not None and not isinstance(value, cls):
                raise TypeError(
                    f"{field_name} must be a {cls.__name__} or None, "
                    f"got {value!r}"
                )

    @property
    def components(self) -> tuple[str, ...]:
        """Names of the non-null components this scenario carries."""
        return tuple(
            field_name for field_name in _COMPONENTS
            if getattr(self, field_name) is not None
            and not getattr(self, field_name).is_null
        )

    @property
    def is_null(self) -> bool:
        """True when the scenario perturbs nothing (bit-identical no-op)."""
        return not self.components

    def to_dict(self) -> dict:
        """JSON-ready form (the control plane's ``scenario`` payloads)."""
        out: dict = {"name": self.name, "salt": self.salt}
        for field_name in _COMPONENTS:
            value = getattr(self, field_name)
            if value is not None:
                out[field_name] = asdict(value)
        return out


def scenario_from_dict(payload: Mapping) -> ScenarioSpec:
    """Build a :class:`ScenarioSpec` from its :meth:`~ScenarioSpec.to_dict`
    form, strictly (unknown keys raise)."""
    known = {f.name for f in fields(ScenarioSpec)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ValueError(
            f"unknown scenario fields {unknown}; known: {sorted(known)}"
        )
    kwargs: dict = {}
    for key, value in payload.items():
        if key in _COMPONENTS and value is not None and not isinstance(
            value, _COMPONENTS[key]
        ):
            component_cls = _COMPONENTS[key]
            component_fields = {f.name for f in fields(component_cls)}
            bad = sorted(set(value) - component_fields)
            if bad:
                raise ValueError(
                    f"unknown {key} fields {bad}; "
                    f"known: {sorted(component_fields)}"
                )
            value = component_cls(**{
                k: tuple(v) if isinstance(v, list) else v
                for k, v in value.items()
            })
        kwargs[key] = value
    return ScenarioSpec(**kwargs)


#: The named adversarial suite: one preset per perturbation family plus
#: the calm anchor and a combined stress day.
_SUITE: dict[str, ScenarioSpec] = {
    "calm": ScenarioSpec(name="calm"),
    "stragglers": ScenarioSpec(name="stragglers", stragglers=Stragglers()),
    "mixed_generations": ScenarioSpec(
        name="mixed_generations",
        generations=Generations(factors=(1.0, 1.15, 1.3), mix=(0.5, 0.3, 0.2)),
    ),
    "migration": ScenarioSpec(name="migration", migration=Migration()),
    "incident": ScenarioSpec(name="incident", incident=Incident()),
    "flash_crowd": ScenarioSpec(name="flash_crowd", flash_crowd=FlashCrowd()),
    "black_friday": ScenarioSpec(
        name="black_friday",
        stragglers=Stragglers(fraction=0.03, slowdown=1.5),
        incident=Incident(start_hour=12.0, duration_hours=2.0,
                          fraction=0.15, capacity_loss=0.3),
        flash_crowd=FlashCrowd(start_hour=9.0, duration_hours=6.0,
                               magnitude=1.4),
    ),
}

SCENARIO_NAMES: tuple[str, ...] = tuple(_SUITE)


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a named scenario preset from the adversarial suite."""
    try:
        return _SUITE[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {', '.join(SCENARIO_NAMES)}"
        ) from None


def as_scenario(spec) -> ScenarioSpec | None:
    """Resolve a public ``scenario=`` argument.

    Accepts ``None`` (no scenario), a :class:`ScenarioSpec`, a preset
    name from :data:`SCENARIO_NAMES`, or a dict in
    :meth:`ScenarioSpec.to_dict` form.
    """
    if spec is None or isinstance(spec, ScenarioSpec):
        return spec
    if isinstance(spec, str):
        return get_scenario(spec)
    if isinstance(spec, Mapping):
        return scenario_from_dict(spec)
    raise TypeError(
        f"scenario must be a ScenarioSpec, preset name, dict or None; "
        f"got {spec!r}"
    )


class ScenarioSampler:
    """A :class:`ScenarioSpec` compiled against one fleet's shape.

    All vectors are drawn once for the **full fleet** from
    ``derive_seed(seed, "scenario-<component>", salt)`` label paths —
    no carried RNG state — and callers slice ``[lo:hi]`` per shard, so
    perturbation streams are shard-slice- and resume-invariant by
    construction.  Per-window activation is a pure function of the
    window's hour.  Servers outside a component's mask carry a
    multiplier of exactly ``1.0``; their trajectories are
    bit-identical to an unperturbed run.
    """

    def __init__(self, spec: ScenarioSpec, *, n_servers: int, seed: int):
        if n_servers <= 0:
            raise ValueError("n_servers must be positive")
        self.spec = spec
        self.n_servers = int(n_servers)
        self.seed = int(seed)
        n = self.n_servers

        # Static per-server tail multiplier: stragglers × generations.
        tail = None
        stragglers = spec.stragglers
        if stragglers is not None and not stragglers.is_null:
            mask = self._mask("stragglers", stragglers.fraction)
            tail = np.where(mask, stragglers.slowdown, 1.0)
        generations = spec.generations
        if generations is not None and not generations.is_null:
            u = self._rng("generations").random(n)
            cuts = np.cumsum(generations.shares)
            gen = np.minimum(
                np.searchsorted(cuts, u, side="right"),
                len(generations.factors) - 1,
            )
            gen_tail = np.asarray(generations.factors)[gen]
            tail = gen_tail if tail is None else tail * gen_tail
        self._tail = tail

        # Static per-server load-factor vectors; activation is windowed.
        migration = spec.migration
        if migration is not None and not migration.is_null:
            mask = self._mask("migration", migration.fraction)
            moved = int(mask.sum())
            stayers = n - moved
            # Count-weighted conservation: the drained share lands
            # evenly on the remaining servers (none -> drop the load).
            spill = (
                1.0 + moved * (1.0 - migration.retain) / stayers
                if stayers > 0 else 1.0
            )
            self._migration_vec = np.where(mask, migration.retain, spill)
        else:
            self._migration_vec = None
        incident = spec.incident
        if incident is not None and not incident.is_null:
            mask = self._mask("incident", incident.fraction)
            self._incident_vec = np.where(
                mask, 1.0 / (1.0 - incident.capacity_loss), 1.0
            )
        else:
            self._incident_vec = None

        # Combined load-factor vectors, memoized per activation signature
        # (which components are live this window).  The underlying
        # vectors are static for the day, so each of the <=8 signatures
        # is combined exactly once — steady-state windows allocate
        # nothing here.
        self._lf_cache: dict[tuple[bool, bool, bool], np.ndarray | None] = {}

    def _rng(self, label: str) -> np.random.Generator:
        return np.random.default_rng(
            derive_seed(self.seed, f"scenario-{label}", self.spec.salt)
        )

    def _mask(self, label: str, fraction: float) -> np.ndarray:
        return self._rng(label).random(self.n_servers) < fraction

    # -- per-window perturbations ----------------------------------------

    @staticmethod
    def _in_span(hour: float, start: float, duration: float) -> bool:
        return start <= hour < start + duration

    def tail_factors(self) -> np.ndarray | None:
        """Static full-fleet tail-latency multiplier (``None`` = none)."""
        return self._tail

    def active_components(self, hour: float) -> tuple[str, ...]:
        """Component names perturbing the fleet at ``hour``."""
        spec = self.spec
        active = []
        if self._tail is not None:
            if spec.stragglers is not None and not spec.stragglers.is_null:
                active.append("stragglers")
            if spec.generations is not None and not spec.generations.is_null:
                active.append("generations")
        if self._migration_vec is not None and hour >= spec.migration.start_hour:
            active.append("migration")
        if self._incident_vec is not None and self._in_span(
            hour, spec.incident.start_hour, spec.incident.duration_hours
        ):
            active.append("incident")
        flash = spec.flash_crowd
        if flash is not None and not flash.is_null and self._in_span(
            hour, flash.start_hour, flash.duration_hours
        ):
            active.append("flash_crowd")
        return tuple(active)

    def load_factors(self, window: int, hour: float) -> np.ndarray | None:
        """Full-fleet per-server load multiplier for this window.

        ``None`` when no load-perturbing component is active — the
        caller skips the multiply entirely, keeping inactive windows
        bit-identical to an unperturbed run.  Windows sharing an
        activation signature share one cached combined vector (the
        caller must not mutate it).
        """
        spec = self.spec
        migrating = self._migration_vec is not None and (
            hour >= spec.migration.start_hour
        )
        incident = self._incident_vec is not None and self._in_span(
            hour, spec.incident.start_hour, spec.incident.duration_hours
        )
        flash = spec.flash_crowd
        flashing = flash is not None and not flash.is_null and self._in_span(
            hour, flash.start_hour, flash.duration_hours
        )
        signature = (migrating, incident, flashing)
        if signature in self._lf_cache:
            return self._lf_cache[signature]
        factors = None
        if migrating:
            factors = self._migration_vec
        if incident:
            factors = (
                self._incident_vec if factors is None
                else factors * self._incident_vec
            )
        if flashing:
            scale = np.full(self.n_servers, flash.magnitude)
            factors = scale if factors is None else factors * flash.magnitude
        self._lf_cache[signature] = factors
        return factors

    def window_summary(
        self,
        hour: float,
        load_factors_slice: np.ndarray | None,
        tail_factors_slice: np.ndarray | None,
    ) -> dict:
        """The window record's ``scenario`` section for one fleet slice.

        ``load_factors_slice``/``tail_factors_slice`` are the already
        sliced per-server multipliers the stepper applied this window
        (``None`` = not active).  A pure read: computing the summary
        never perturbs the simulation.
        """
        affected = None
        mean_factor = 1.0
        if load_factors_slice is not None:
            mean_factor = float(load_factors_slice.mean())
            affected = load_factors_slice != 1.0
        if tail_factors_slice is not None:
            slow = tail_factors_slice != 1.0
            affected = slow if affected is None else (affected | slow)
        return {
            "name": self.spec.name,
            "active": list(self.active_components(hour)),
            "load_factor": mean_factor,
            "affected": 0 if affected is None else int(affected.sum()),
        }
