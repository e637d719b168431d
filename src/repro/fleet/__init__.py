"""Fleet-scale vectorized cluster simulation (``repro.fleet``).

The paper's case studies (Figs. 13–14) argue at datacenter scale; this
package advances *fleets* of colocated servers — all servers of a
monitoring window as numpy array operations:

* :mod:`repro.fleet.engine` — the vectorized Stretch monitor state machine
  (:func:`monitor_transition_vec`, one source of truth with the scalar
  monitor via :func:`repro.core.monitor.monitor_transition`) and
  :class:`FleetEngine`, with an ``exact`` per-server DES evaluator (the
  oracle the surrogate is gated against) and a ``surrogate`` evaluator
  for 100k+ servers;
* :mod:`repro.fleet.surrogate` — the CRN-calibrated tail-latency surrogate
  with a stated, held-out-validated error bound;
* :mod:`repro.fleet.policies` — pluggable load-balancing policies
  (``uniform``, ``jittered``, ``power-of-two-choices``,
  ``locality-sharded``) and the named diurnal load-curve registry;
* :mod:`repro.fleet.placement` — heterogeneous co-runner populations:
  the per-profile UIPC/pressure table (:class:`CorunnerTable`) and the
  pluggable placement policies (``random``, ``symbiosis``, ``locality``)
  assigning batch profiles to servers, one extra gather per window;
* :mod:`repro.fleet.shard` — content-addressed shard jobs on the
  ``repro.engine`` process pool; a sharded day's integer aggregates equal
  the unsharded day's, its float window sums up to summation order.

The stable entry point is :func:`repro.api.run_fleet`.
"""

from repro.fleet.engine import (
    DEFAULT_CHUNK_SERVERS,
    FleetConfig,
    FleetEngine,
    FleetState,
    FleetStepper,
    FleetTimeline,
    monitor_transition_vec,
)
from repro.fleet.placement import (
    PLACEMENT_NAMES,
    CorunnerTable,
    PlacementPolicy,
    make_placement,
    mix_counts,
)
from repro.fleet.policies import (
    POLICY_NAMES,
    LoadBalancingPolicy,
    make_policy,
    register_load_curve,
    resolve_load_curve,
)
from repro.fleet.shard import FleetShardJob, run_fleet_sharded, shard_bounds
from repro.fleet.surrogate import (
    PeakLoadJob,
    SurrogateFitJob,
    SurrogateGrid,
    SurrogateReplicateJob,
    TailSurrogate,
    fit_tail_surrogate,
    peak_jobs,
)

__all__ = [
    "CorunnerTable",
    "DEFAULT_CHUNK_SERVERS",
    "FleetConfig",
    "FleetEngine",
    "FleetShardJob",
    "FleetState",
    "FleetStepper",
    "FleetTimeline",
    "LoadBalancingPolicy",
    "PLACEMENT_NAMES",
    "POLICY_NAMES",
    "PeakLoadJob",
    "PlacementPolicy",
    "SurrogateFitJob",
    "SurrogateGrid",
    "SurrogateReplicateJob",
    "TailSurrogate",
    "fit_tail_surrogate",
    "make_placement",
    "make_policy",
    "mix_counts",
    "monitor_transition_vec",
    "peak_jobs",
    "register_load_curve",
    "resolve_load_curve",
    "run_fleet_sharded",
    "shard_bounds",
]
