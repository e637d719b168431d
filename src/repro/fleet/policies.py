"""Pluggable cluster load-balancing policies and named load curves.

A policy answers one question per monitoring window: given the cluster-wide
load fraction, how much load does each server of the fleet see?  All
policies are deterministic functions of the fleet seed, and
:meth:`~LoadBalancingPolicy.server_loads` gives any slice ``[lo, hi)`` of
the window's full-fleet load vector, bit for bit, without building the
rest of it: a shard or a chunk of servers sees the loads the unsharded
run would give them, so neither sharding nor chunking changes a server's
load.  What a window's slices share (an allocation over the whole fleet,
a cached matrix or weight vector) is built by
:meth:`~LoadBalancingPolicy.prepare`, once per window on one thread;
slices of that window may then be taken on several threads at once.

Provided policies (the paper's §II deployment setting, plus the imbalance
regimes fleet-scale schedulers care about):

* ``uniform`` — perfect balancing: every server sees the cluster share.
* ``jittered`` — bounded deterministic per-window imbalance, one jitter
  stream per server for fleets up to :data:`EXACT_JITTER_MAX` servers
  (above that, a statistically equivalent per-window stream is used so the
  jitter matrix never materializes at 100k × windows scale).
* ``power-of-two-choices`` — request chunks are assigned to the less
  loaded of two random servers (the classic balanced-allocations scheme),
  approximated in fixed vectorized batches.
* ``locality-sharded`` — servers are grouped into locality shards with
  static lognormal hot-spot weights (cache/data locality keeps some shards
  persistently hotter).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.qos.diurnal import web_search_cluster_load, youtube_cluster_load
from repro.util.rng import derive_seed

__all__ = [
    "EXACT_JITTER_MAX",
    "POLICY_NAMES",
    "LoadBalancingPolicy",
    "PolicyContext",
    "UniformPolicy",
    "JitteredPolicy",
    "PowerOfTwoPolicy",
    "LocalityShardedPolicy",
    "make_policy",
    "register_load_curve",
    "resolve_load_curve",
]

#: Largest fleet for which ``jittered`` draws one jitter stream per server
#: (one cached row each; the streams behind the frozen cluster days in
#: ``tests/golden``).  Beyond this the policy switches to per-window
#: streams of identical distribution.
EXACT_JITTER_MAX = 4096


# ----------------------------------------------------------------------
# Named load curves
# ----------------------------------------------------------------------

_LOAD_CURVES: dict[str, Callable[[float], float]] = {
    "web_search": web_search_cluster_load,
    "youtube": youtube_cluster_load,
}


def register_load_curve(name: str, fn: Callable[[float], float]) -> None:
    """Register a named diurnal load curve."""
    _LOAD_CURVES[str(name)] = fn


def resolve_load_curve(
    load, *, window_minutes: float = 10.0
) -> tuple[str | None, Callable[[float], float]]:
    """Resolve a load spec into ``(name, fn)``.

    Accepts a registered curve name, ``"flat:<fraction>"`` for a constant
    load, ``"replay:<path>"`` to replay a recorded JSONL window stream
    whose windows are ``window_minutes`` long (see
    :func:`repro.service.feeds.replay_curve`), or a bare callable (name
    ``None``).
    """
    if callable(load):
        return None, load
    name = str(load)
    if name.startswith("flat:"):
        level = float(name.split(":", 1)[1])
        return name, lambda hour: level
    if name.startswith("replay:"):
        # Lazy import: repro.service.feeds imports this module at load.
        from repro.service.feeds import replay_curve

        return name, replay_curve(
            name.split(":", 1)[1], window_minutes=window_minutes
        )
    try:
        return name, _LOAD_CURVES[name]
    except KeyError:
        known = ", ".join(sorted(_LOAD_CURVES))
        raise KeyError(
            f"unknown load curve {name!r}; known: {known}, "
            "or 'flat:<x>' / 'replay:<path>'"
        ) from None


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------


@dataclass
class PolicyContext:
    """Everything a policy may draw on, plus a per-run cache."""

    n_servers: int
    n_windows: int
    overprovision: float
    balance_jitter: float
    seed: int
    cache: dict = field(default_factory=dict)


class LoadBalancingPolicy:
    """Base class: map one window's cluster load to per-server loads."""

    name = "abstract"

    def prepare(self, window: int, ctx: PolicyContext) -> None:
        """Build what every slice of ``window`` reads (a policy without
        fleet-wide work builds nothing), so that :meth:`server_loads`
        calls for that window only read shared state."""

    def server_loads(
        self,
        cluster_load: float,
        window: int,
        ctx: PolicyContext,
        lo: int = 0,
        hi: int | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-server load fractions of servers ``[lo, hi)`` (default: the
        whole fleet) for one window, unclamped: the ``[lo:hi]`` slice of
        the window's full-fleet vector, written into ``out`` when given."""
        raise NotImplementedError


def _out(ctx: PolicyContext, lo: int, hi: int | None, out) -> np.ndarray:
    """``out``, or a fresh vector for servers ``[lo, hi)``."""
    if out is None:
        return np.empty((ctx.n_servers if hi is None else hi) - lo)
    return out


class UniformPolicy(LoadBalancingPolicy):
    """Perfect balancing: every server sees the over-provisioned share."""

    name = "uniform"

    def server_loads(self, cluster_load, window, ctx, lo=0, hi=None, out=None):
        out = _out(ctx, lo, hi, out)
        out.fill(cluster_load / ctx.overprovision)
        return out


class JitteredPolicy(LoadBalancingPolicy):
    """Bounded deterministic per-(server, window) imbalance.

    For fleets up to :data:`EXACT_JITTER_MAX` servers each server draws
    from its own RNG (label path ``(seed, "jitter", k)``) into a cached
    matrix; larger fleets draw one uniform vector per window (label path
    ``(seed, "fleet-jitter", window)``) with the same distribution, and a
    slice ``[lo, hi)`` draws only its part: the window's stream advanced
    by ``lo`` doubles yields the full draw's ``[lo:hi]``.
    """

    name = "jittered"

    def _jitter_matrix(self, ctx: PolicyContext, min_rows: int) -> np.ndarray:
        """Cached per-server jitter draws, grown on demand past the day.

        A run that outlives the configured day (a long ``serve`` loop)
        must keep drawing *fresh* jitter, not replay window 0 with period
        ``n_windows + 1`` — so when ``min_rows`` exceeds the cached
        horizon the matrix is regenerated with more draws from the same
        per-server streams (uniform draws consume the bit stream
        sequentially, so the regenerated prefix is bit-identical to the
        cached rows).
        """
        matrix = ctx.cache.get("jitter_matrix")
        if matrix is None or matrix.shape[1] < min_rows:
            rows = max(min_rows, ctx.n_windows + 1)
            if matrix is not None:
                rows = max(rows, 2 * matrix.shape[1])  # amortize regrowth
            matrix = np.empty((ctx.n_servers, rows))
            for k in range(ctx.n_servers):
                rng = np.random.default_rng(derive_seed(ctx.seed, "jitter", k))
                matrix[k] = 1.0 + rng.uniform(
                    -ctx.balance_jitter, ctx.balance_jitter, size=rows
                )
            ctx.cache["jitter_matrix"] = matrix
        return matrix

    def prepare(self, window, ctx):
        if ctx.n_servers <= EXACT_JITTER_MAX:
            self._jitter_matrix(ctx, window + 1)

    def server_loads(self, cluster_load, window, ctx, lo=0, hi=None, out=None):
        share = cluster_load / ctx.overprovision
        out = _out(ctx, lo, hi, out)
        if ctx.n_servers <= EXACT_JITTER_MAX:
            column = self._jitter_matrix(ctx, window + 1)[lo:hi, window]
            return np.multiply(column, share, out=out)
        rng = np.random.default_rng(
            derive_seed(ctx.seed, "fleet-jitter", window)
        )
        # PCG64 jumps ahead exactly, one double per server.  uniform(low,
        # high) is low + (high - low) * random(), so the slice's draw is
        # the full-fleet draw's [lo:hi], bit for bit; ``share * (1.0 + x)``
        # then runs in place.
        rng.bit_generator.advance(lo)
        low, high = -ctx.balance_jitter, ctx.balance_jitter
        rng.random(out=out)
        out *= high - low
        out += low
        out += 1.0
        out *= share
        return out


class PowerOfTwoPolicy(LoadBalancingPolicy):
    """Balanced allocations: each request chunk picks the less loaded of
    two random servers.

    The chunk stream is processed in a fixed number of vectorized batches;
    within a batch, load counts are read once (stale reads approximate the
    sequential scheme but keep the per-window cost at a few array
    operations even for 100k servers).  Lower imbalance than ``jittered``,
    with the characteristic max-load ~ log log n behavior.
    """

    name = "power-of-two-choices"

    def __init__(self, chunks_per_server: int = 8, batches: int = 8):
        if chunks_per_server < 1 or batches < 1:
            raise ValueError("chunks_per_server and batches must be >= 1")
        self.chunks_per_server = chunks_per_server
        self.batches = batches

    def _counts(self, window: int, ctx: PolicyContext) -> np.ndarray:
        """Request chunks per server in ``window``'s allocation (the
        latest window's is cached)."""
        key = (window, self.chunks_per_server, self.batches)
        cached = ctx.cache.get("p2c_counts")
        if cached is not None and cached[0] == key:
            return cached[1]
        n = ctx.n_servers
        rng = np.random.default_rng(derive_seed(ctx.seed, "fleet-p2c", window))
        counts = np.zeros(n)
        total = n * self.chunks_per_server
        per_batch = max(total // self.batches, 1)
        assigned = 0
        while assigned < total:
            size = min(per_batch, total - assigned)
            a = rng.integers(0, n, size=size)
            b = rng.integers(0, n, size=size)
            target = np.where(counts[a] <= counts[b], a, b)
            np.add.at(counts, target, 1.0)
            assigned += size
        ctx.cache["p2c_counts"] = (key, counts)
        return counts

    def prepare(self, window, ctx):
        self._counts(window, ctx)

    def server_loads(self, cluster_load, window, ctx, lo=0, hi=None, out=None):
        share = cluster_load / ctx.overprovision
        out = np.multiply(
            share, self._counts(window, ctx)[lo:hi], out=_out(ctx, lo, hi, out)
        )
        out /= self.chunks_per_server
        return out


class LocalityShardedPolicy(LoadBalancingPolicy):
    """Locality-driven imbalance: static hot and cold server groups.

    Servers are split into ``n_shards`` contiguous locality groups whose
    relative weights are drawn once per fleet from a lognormal distribution
    (σ = ``skew``) and normalized to mean 1 — persistent hot shards, the
    regime where per-machine Stretch mode skew shows up.
    """

    name = "locality-sharded"

    def __init__(self, n_shards: int = 16, skew: float = 0.25):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if skew < 0:
            raise ValueError("skew must be non-negative")
        self.n_shards = n_shards
        self.skew = skew

    def _weights(self, ctx: PolicyContext) -> np.ndarray:
        weights = ctx.cache.get("locality_weights")
        if weights is None:
            rng = np.random.default_rng(derive_seed(ctx.seed, "fleet-locality"))
            shard_w = rng.lognormal(0.0, self.skew, size=self.n_shards)
            shard_of = (
                np.arange(ctx.n_servers, dtype=np.int64) * self.n_shards
                // max(ctx.n_servers, 1)
            )
            weights = shard_w[shard_of]
            # Normalize the *expanded* per-server vector, not the shard
            # vector: when n_servers % n_shards != 0 the shards are
            # unequal-sized and a shard-mean normalization would bias the
            # fleet's mean load away from the cluster share.
            weights /= weights.mean()
            ctx.cache["locality_weights"] = weights
        return weights

    def prepare(self, window, ctx):
        self._weights(ctx)

    def server_loads(self, cluster_load, window, ctx, lo=0, hi=None, out=None):
        share = cluster_load / ctx.overprovision
        return np.multiply(
            share, self._weights(ctx)[lo:hi], out=_out(ctx, lo, hi, out)
        )


POLICY_NAMES = (
    "uniform",
    "jittered",
    "power-of-two-choices",
    "locality-sharded",
)


def make_policy(spec) -> LoadBalancingPolicy:
    """Build a policy from a name (or pass an instance through)."""
    if isinstance(spec, LoadBalancingPolicy):
        return spec
    name = str(spec)
    if name == "uniform":
        return UniformPolicy()
    if name == "jittered":
        return JitteredPolicy()
    if name == "power-of-two-choices":
        return PowerOfTwoPolicy()
    if name == "locality-sharded":
        return LocalityShardedPolicy()
    raise KeyError(
        f"unknown load-balancing policy {name!r}; known: {', '.join(POLICY_NAMES)}"
    )
