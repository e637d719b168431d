"""Tests for the vectorized fleet engine (`repro.fleet`).

The load-bearing guarantees:

* `monitor_transition_vec` is element-wise identical to the scalar
  `monitor_transition` (exhaustive state-space sweep);
* the four-point `TailSurrogate.sample` is bit-identical to the
  full-stack reference sampler `full_stack_sample`;
* the `tail="exact"` fleet path reproduces the retired per-object cluster
  loop's frozen days (`tests/golden/fleet_exact_legacy.json`);
* the surrogate path matches the exact path within the surrogate's
  *stated* held-out error bound (the ISSUE's seeded equivalence gate);
* sharding a fleet run never changes results (integer aggregates are
  exactly equal; float sums only to summation-order noise);
* a surrogate fit's peak bisections and DES replicates run on a process
  pool, land in the engine's store and assemble the serial fit's bits,
  and the store is the only way a peak reaches a later fit.
"""

import contextlib
import itertools
import os
import sys
import threading
import warnings

import numpy as np
import pytest

import repro.fleet.engine as fleet_engine
import repro.fleet.surrogate as surrogate_module
from repro.core.adaptive import AdaptiveStretchPolicy
from repro.core.colocation import ColocationPerformance, ModePerformance
from repro.core.monitor import MonitorConfig, MonitorState, monitor_transition
from repro.core.stretch import StretchMode
from repro.engine import EngineConfig, ExecutionEngine
from repro.engine.executor import usable_workers
from repro.engine.store import CACHE_VERSION, ResultStore
from repro.fleet import (
    FleetConfig,
    FleetEngine,
    FleetState,
    FleetStepper,
    FleetTimeline,
    PeakLoadJob,
    SurrogateFitJob,
    SurrogateGrid,
    SurrogateReplicateJob,
    TailSurrogate,
    fit_tail_surrogate,
    make_policy,
    monitor_transition_vec,
    peak_jobs,
    register_load_curve,
    resolve_load_curve,
    run_fleet_sharded,
    shard_bounds,
)
from repro.core.partitioning import B_MODES
from repro.fleet.policies import EXACT_JITTER_MAX, PolicyContext
from repro.qos import queueing
from repro.scenarios import get_scenario
from repro.util.rng import derive_seed
from repro.workloads.registry import get_profile
from tests.test_cluster import exact_day, golden_cases


def performance_model() -> ColocationPerformance:
    """Hand-built per-mode model (avoids slow core simulation in tests)."""
    return ColocationPerformance(
        ls_workload="web_search",
        batch_workload="zeusmp",
        ls_solo_uipc=0.6,
        per_mode={
            StretchMode.BASELINE: ModePerformance(0.52, 0.50),
            StretchMode.B_MODE: ModePerformance(0.46, 0.58),
            StretchMode.Q_MODE: ModePerformance(0.58, 0.40),
        },
    )


#: Small calibration grid: same request horizon the exact evaluator uses
#: (peak at max(20000, rpw)), coarse load axis, few replicates.
TEST_RPW = 400
TEST_GRID = SurrogateGrid(
    loads=(0.02, 0.3, 0.6, 0.9, 1.2),
    n_requests=TEST_RPW,
    peak_requests=20000,
    n_reps=6,
    n_val_reps=2,
    seed=0,
)


def fleet_config(**kwargs) -> FleetConfig:
    defaults = dict(
        n_servers=8,
        window_minutes=120.0,
        requests_per_window=TEST_RPW,
        seed=5,
    )
    defaults.update(kwargs)
    return FleetConfig(**defaults)


@pytest.fixture(scope="module")
def web_search_qos():
    return get_profile("web_search").qos


@pytest.fixture(scope="module")
def surrogate(web_search_qos) -> TailSurrogate:
    perf_factors = FleetEngine(
        get_profile("web_search"), performance_model(), fleet_config()
    ).perf_factors
    return fit_tail_surrogate(web_search_qos, perf_factors, TEST_GRID)


def full_stack_sample(surrogate, load, perf, u, rows=None) -> np.ndarray:
    """Reference sampler: blends every server's whole quantile stack.

    The original ``TailSurrogate.sample`` — a binary search for the load
    interval, the full ``(n, n_reps)`` stacks at both neighboring load
    points, then two order statistics picked out of the blend — kept as
    the oracle the four-point production kernel must match bit for bit.
    """
    load = np.asarray(load, dtype=float)
    if rows is None:
        perf = np.broadcast_to(np.asarray(perf, dtype=float), load.shape)
        rows = surrogate._row_indices(perf)
    loads = np.asarray(surrogate.loads)
    li = np.clip(
        np.searchsorted(loads, load, side="right") - 1, 0, len(loads) - 2
    )
    span = loads[li + 1] - loads[li]
    weight = np.clip((load - loads[li]) / span, 0.0, 1.0)
    lower = surrogate.quantiles_ms[rows, :, li]
    upper = surrogate.quantiles_ms[rows, :, li + 1]
    stack = lower * (1.0 - weight)[:, None] + upper * weight[:, None]
    n_reps = stack.shape[1]
    position = np.clip(
        np.asarray(u, dtype=float) * n_reps - 0.5, 0.0, n_reps - 1.0
    )
    j0 = np.floor(position).astype(np.int64)
    j1 = np.minimum(j0 + 1, n_reps - 1)
    fraction = position - j0
    v0 = np.take_along_axis(stack, j0[:, None], axis=1)[:, 0]
    v1 = np.take_along_axis(stack, j1[:, None], axis=1)[:, 0]
    tail = v0 * (1.0 - fraction) + v1 * fraction
    return np.maximum(tail, 0.5 * surrogate.qos.base_service_ms)


def default_shape_surrogate(qos) -> TailSurrogate:
    """Synthetic surrogate with the default grid's table layout.

    Built the way :func:`fit_tail_surrogate` builds its table (``np.sort``
    of a transposed ``(n_reps, n_perf, n_loads)`` surface), so it carries
    the same non-C-contiguous strides at the default 13-load, 10-replicate
    grid without running the DES.
    """
    loads = SurrogateGrid().loads
    rng = np.random.default_rng(17)
    surface = rng.lognormal(
        mean=np.linspace(0.0, 3.0, len(loads)), sigma=0.8,
        size=(10, 4, len(loads)),
    )
    return TailSurrogate(
        qos=qos,
        perf_factors=(0.5, 0.8, 1.0, 1.25),
        loads=loads,
        quantiles_ms=np.sort(np.transpose(surface, (1, 0, 2)), axis=1),
        error_bound_ms=1.0,
    )


class TestMonitorTransitionVec:
    @pytest.mark.parametrize("config", [
        # All-ones thresholds: every window is an engage, order or expiry.
        MonitorConfig(
            engage_windows=1, violation_windows_to_throttle=1,
            throttle_windows=1,
        ),
        MonitorConfig(
            engage_fraction=0.6, engage_windows=2,
            violation_windows_to_throttle=2, throttle_windows=3,
        ),
        MonitorConfig(),
        MonitorConfig(
            engage_windows=4, violation_windows_to_throttle=1,
            throttle_windows=2,
        ),
    ], ids=["ones", "2-2-3", "default", "4-1-2"])
    def test_exhaustive_equivalence_with_scalar(self, config):
        # Streak and throttle ranges run at least 2 past every threshold.
        space = list(itertools.product(
            range(3),                                         # mode
            range(config.engage_windows + 3),                 # compliant
            range(config.violation_windows_to_throttle + 3),  # violation
            range(config.throttle_windows + 3),               # throttle
            (False, True),                                    # violated
            (False, True),                                    # slack
        ))
        n, pad = len(space), 5
        columns = np.array(space, dtype=np.int64).T
        for q_mode_available in (True, False):
            # The stepper hands the kernel chunk views of fleet-wide
            # arrays: updates must land in the view and nowhere else.
            backing = np.full((4, n + 2 * pad), -7, dtype=np.int64)
            backing[:, pad:pad + n] = columns[:4]
            mode, compliant, violation, throttle = (
                row[pad:pad + n] for row in backing
            )
            violated = columns[4].astype(bool)
            slack = columns[5].astype(bool)
            ordered = monitor_transition_vec(
                mode, compliant, violation, throttle, violated, slack,
                config, q_mode_available,
            )
            assert ordered.shape == (n,) and ordered.dtype == bool
            assert np.all(backing[:, :pad] == -7)
            assert np.all(backing[:, pad + n:] == -7)
            for i, (m, cs, vs, tr, v, s) in enumerate(space):
                state, _, want_ordered = monitor_transition(
                    MonitorState(m, cs, vs, tr), v, s, config, q_mode_available
                )
                got = tuple(backing[:, pad + i])
                want = (state.mode, state.compliant_streak,
                        state.violation_streak, state.throttle_remaining)
                assert got == want, (space[i], q_mode_available)
                assert bool(ordered[i]) == want_ordered, (
                    space[i], q_mode_available,
                )

    def test_throttle_corunner_equals_pre_window_throttle(self):
        # The engine derives "co-runner throttled this window" from
        # throttle_remaining > 0 at window start; scalar decisions agree.
        config = MonitorConfig()
        state = MonitorState(mode=0, violation_streak=2)
        state, corunner, ordered = monitor_transition(
            state, True, False, config
        )
        assert ordered and corunner
        assert state.throttle_remaining == config.throttle_windows
        # Next windows: throttling continues exactly while remaining > 0.
        for _ in range(config.throttle_windows - 1):
            pre = state.throttle_remaining > 0
            state, corunner, _ = monitor_transition(state, False, True, config)
            assert pre  # engine's view of "throttled now"


class TestPolicies:
    def ctx(self, n_servers=6, n_windows=12, seed=5) -> PolicyContext:
        return PolicyContext(
            n_servers=n_servers, n_windows=n_windows,
            overprovision=1.2, balance_jitter=0.05, seed=seed,
        )

    def test_uniform_equal_shares(self):
        ctx = self.ctx()
        loads = make_policy("uniform").server_loads(0.9, 3, ctx)
        assert loads.shape == (6,)
        assert np.allclose(loads, 0.9 / 1.2)

    def test_jittered_matches_legacy_streams(self):
        # Small fleets draw one jitter rng per server.
        ctx = self.ctx()
        loads = make_policy("jittered").server_loads(0.6, 4, ctx)
        share = 0.6 / 1.2
        for k in range(ctx.n_servers):
            rng = np.random.default_rng(derive_seed(ctx.seed, "jitter", k))
            jitter = 1.0 + rng.uniform(-0.05, 0.05, size=ctx.n_windows + 1)
            assert loads[k] == share * jitter[4 % (ctx.n_windows + 1)]

    def test_jittered_large_fleet_branch(self):
        ctx = self.ctx(n_servers=EXACT_JITTER_MAX + 1)
        policy = make_policy("jittered")
        loads = policy.server_loads(0.6, 2, ctx)
        share = 0.6 / 1.2
        assert loads.shape == (EXACT_JITTER_MAX + 1,)
        assert np.all(loads >= share * 0.95) and np.all(loads <= share * 1.05)
        assert np.array_equal(loads, policy.server_loads(0.6, 2, self.ctx(
            n_servers=EXACT_JITTER_MAX + 1)))
        assert not np.array_equal(loads, policy.server_loads(0.6, 3, ctx))

    def test_power_of_two_conserves_total_load(self):
        ctx = self.ctx(n_servers=64)
        loads = make_policy("power-of-two-choices").server_loads(0.6, 1, ctx)
        share = 0.6 / 1.2
        assert loads.mean() == pytest.approx(share)
        assert loads.std() > 0.0

    def test_locality_sharded_static_weights(self):
        ctx = self.ctx(n_servers=64)
        policy = make_policy("locality-sharded")
        first = policy.server_loads(0.6, 0, ctx)
        again = policy.server_loads(0.6, 7, ctx)
        assert np.array_equal(first, again)  # weights are static per fleet
        assert first.mean() == pytest.approx(0.6 / 1.2)
        assert len(np.unique(np.round(first, 12))) <= 16

    def test_locality_sharded_conserves_load_on_awkward_sizes(self):
        # Regression: normalizing the 16-entry *shard* weight vector
        # instead of the expanded per-server vector biased the fleet's
        # mean load whenever n_servers % n_shards != 0 (unequal shard
        # sizes weight the shard means unequally).
        share = 0.6 / 1.2
        for n_servers in (10, 17, 33, 63, 65, 100):
            ctx = self.ctx(n_servers=n_servers)
            loads = make_policy("locality-sharded").server_loads(0.6, 0, ctx)
            assert loads.mean() == pytest.approx(share), n_servers
        # 3 shards over 10 servers: maximally unequal split.
        from repro.fleet.policies import LocalityShardedPolicy

        ctx = self.ctx(n_servers=10)
        loads = LocalityShardedPolicy(n_shards=3).server_loads(0.6, 0, ctx)
        assert loads.mean() == pytest.approx(share)

    def test_jittered_never_wraps_past_configured_day(self):
        # Regression: the exact path indexed its cached matrix with
        # window % (n_windows + 1), so a serve run outliving the day
        # replayed window-0 jitter with period n_windows + 1.  Draws must
        # keep advancing each server's stream instead.
        ctx = self.ctx(n_windows=4)
        policy = make_policy("jittered")
        wrap_period = ctx.n_windows + 1
        early = policy.server_loads(0.6, 0, ctx)
        late = policy.server_loads(0.6, wrap_period, ctx)
        assert not np.array_equal(early, late)
        # The extended draws continue the legacy per-server streams: the
        # regenerated matrix prefix is bit-identical, and window w reads
        # draw w for any horizon.
        for window in (wrap_period, 3 * wrap_period + 2):
            loads = policy.server_loads(0.6, window, ctx)
            share = 0.6 / 1.2
            for k in range(ctx.n_servers):
                rng = np.random.default_rng(derive_seed(ctx.seed, "jitter", k))
                draws = 1.0 + rng.uniform(-0.05, 0.05, size=window + 1)
                assert loads[k] == share * draws[window], (window, k)

    def test_jittered_extension_keeps_cached_prefix(self):
        # Growing the cached matrix past the day must not perturb draws
        # already handed out (uniform draws consume the bit stream
        # sequentially, so the regenerated prefix is bit-identical).
        ctx = self.ctx(n_windows=4)
        policy = make_policy("jittered")
        before = [policy.server_loads(0.6, w, ctx) for w in range(5)]
        policy.server_loads(0.6, 40, ctx)  # grow well past the horizon
        after = [policy.server_loads(0.6, w, ctx) for w in range(5)]
        for w, (a, b) in enumerate(zip(before, after)):
            assert np.array_equal(a, b), w

    def test_make_policy_and_curves(self):
        with pytest.raises(KeyError, match="unknown load-balancing policy"):
            make_policy("round-robin")
        name, fn = resolve_load_curve("flat:0.4")
        assert name == "flat:0.4" and fn(13.0) == 0.4
        with pytest.raises(KeyError, match="unknown load curve"):
            resolve_load_curve("tides")
        register_load_curve("test-constant", lambda hour: 0.25)
        _, registered = resolve_load_curve("test-constant")
        assert registered(0.0) == 0.25
        assert resolve_load_curve(lambda hour: 0.1)[0] is None


class TestSurrogate:
    def test_roundtrip_values(self, surrogate):
        clone = TailSurrogate.from_values(surrogate.to_values())
        assert clone.perf_factors == surrogate.perf_factors
        assert clone.loads == surrogate.loads
        assert clone.error_bound_ms == surrogate.error_bound_ms
        assert np.array_equal(clone.quantiles_ms, surrogate.quantiles_ms)
        assert clone.qos == surrogate.qos

    def test_predict_interpolates_grid_means(self, surrogate):
        perf = surrogate.perf_factors[0]
        at_grid = surrogate.predict(np.asarray(surrogate.loads), perf)
        assert np.allclose(at_grid, surrogate.mean_ms[0])
        mid = (surrogate.loads[1] + surrogate.loads[2]) / 2.0
        between = surrogate.predict(np.array([mid]), perf)[0]
        lo, hi = sorted(surrogate.mean_ms[0][1:3])
        assert lo <= between <= hi

    def test_sample_monotone_in_uniform(self, surrogate):
        perf = np.full(9, surrogate.perf_factors[-1])
        load = np.full(9, 0.9)
        u = np.linspace(0.02, 0.98, 9)
        tails = surrogate.sample(load, perf, u)
        assert np.all(np.diff(tails) >= 0.0)
        assert np.all(tails >= 0.5 * surrogate.qos.base_service_ms)

    @pytest.mark.parametrize("table", ["fitted", "clone", "default_shape"])
    def test_sample_matches_full_stack_oracle(self, surrogate, table):
        if table == "fitted":
            model = surrogate
            # The fit stores np.sort of a transpose: not C-contiguous, so
            # an index into the raw buffer would read the wrong quantiles.
            assert not model.quantiles_ms.flags.c_contiguous
        elif table == "clone":
            model = TailSurrogate.from_values(surrogate.to_values())
            assert model.quantiles_ms.flags.c_contiguous
        else:
            model = default_shape_surrogate(surrogate.qos)
            assert model.quantiles_ms.strides == (104, 416, 8)
        grid = np.asarray(model.loads)
        n_reps = model.n_reps
        rng = np.random.default_rng(23)
        # Loads: outside the clamp range, exactly on and one ulp either
        # side of every grid point, and random interior points.
        load_set = np.concatenate([
            [0.0, 0.01, np.nextafter(grid[0], 0.0), 1.25, 2.0],
            grid,
            np.nextafter(grid, -np.inf),
            np.nextafter(grid, np.inf),
            rng.uniform(0.0, 1.3, 16),
        ])
        # Uniforms: 0, exact plotting positions (u·R − 0.5 an integer),
        # the largest double below 1, and random draws.
        positions = (np.arange(n_reps) + 0.5) / n_reps
        assert np.array_equal(
            positions * n_reps - 0.5, np.arange(n_reps, dtype=float)
        )
        u_set = np.concatenate([
            [0.0, np.nextafter(1.0, 0.0)], positions, rng.random(8),
        ])
        n_rows = len(model.perf_factors)
        load, u, rows = (
            axis.ravel() for axis in np.meshgrid(
                load_set, u_set, np.arange(n_rows), indexing="ij"
            )
        )
        perf = np.asarray(model.perf_factors)[rows]
        for kwargs in ({"rows": rows}, {}):
            got = model.sample(load, perf, u, **kwargs)
            want = full_stack_sample(model, load, perf, u, **kwargs)
            assert got.tobytes() == want.tobytes(), kwargs

    def test_unknown_perf_row_raises(self, surrogate):
        with pytest.raises(KeyError, match="not in fitted rows"):
            surrogate.sample(np.array([0.5]), np.array([0.123]), np.array([0.5]))

    def test_error_bound_is_positive_and_finite(self, surrogate):
        assert 0.0 < surrogate.error_bound_ms < 10_000.0


class TestExactEquivalence:
    """tail="exact" fleet runs reproduce the frozen per-object cluster day
    (golden case ``web_search_2x240`` of ``tests/test_cluster.py``)."""

    @pytest.fixture(scope="class")
    def pair(self):
        fleet = exact_day("web_search_2x240")[0]
        frozen = golden_cases()["web_search_2x240"]["timeline"]
        return fleet, FleetTimeline.from_values(frozen)

    def test_integer_aggregates_identical(self, pair):
        fleet, legacy = pair
        assert np.array_equal(fleet.mode_counts, legacy.mode_counts)
        assert np.array_equal(fleet.violations, legacy.violations)
        assert np.array_equal(fleet.throttled, legacy.throttled)
        assert np.array_equal(fleet.server_violations, legacy.server_violations)
        assert np.array_equal(
            fleet.server_bmode_windows, legacy.server_bmode_windows
        )

    def test_float_aggregates_identical(self, pair):
        fleet, legacy = pair
        assert np.array_equal(fleet.tail_ms_sum, legacy.tail_ms_sum)
        assert np.array_equal(fleet.batch_uipc_sum, legacy.batch_uipc_sum)
        assert np.array_equal(fleet.hours, legacy.hours)


class TestSurrogateEquivalenceGate:
    """Surrogate fleet vs exact DES fleet, within the stated error bound."""

    @pytest.fixture(scope="class")
    def runs(self, surrogate):
        profile = get_profile("web_search")
        performance = performance_model()
        config = fleet_config(n_servers=8)
        exact = FleetEngine(profile, performance, config).run_day(
            "web_search", tail="exact"
        )
        approx = FleetEngine(
            profile, performance, config, surrogate=surrogate
        ).run_day("web_search", tail="surrogate")
        return exact, approx

    def test_mean_tail_within_stated_error_bound(self, runs, surrogate):
        exact, approx = runs
        assert abs(approx.mean_tail_ms - exact.mean_tail_ms) <= (
            surrogate.error_bound_ms
        )

    def test_dynamics_agree(self, runs):
        exact, approx = runs
        assert abs(approx.violation_rate - exact.violation_rate) <= 0.15
        assert abs(approx.bmode_fraction - exact.bmode_fraction) <= 0.30
        # Both see the diurnal shape: more B-mode off-peak than at peak.
        assert approx.bmode_fraction > 0.2
        assert exact.bmode_fraction > 0.2


class TestSharding:
    def test_shard_bounds(self):
        assert shard_bounds(10, 3) == [(0, 3), (3, 6), (6, 10)]
        assert shard_bounds(2, 8) == [(0, 1), (1, 2)]
        assert shard_bounds(5, 1) == [(0, 5)]
        with pytest.raises(ValueError):
            shard_bounds(0, 2)

    def test_server_range_slices_match_full_run(self, surrogate):
        profile = get_profile("web_search")
        config = fleet_config(n_servers=64)
        engine = FleetEngine(
            profile, performance_model(), config, surrogate=surrogate
        )
        full = engine.run_day("web_search")
        parts = [
            engine.run_day("web_search", server_range=(lo, hi))
            for lo, hi in ((0, 21), (21, 43), (43, 64))
        ]
        merged = FleetTimeline.merge(parts)
        assert merged.n_servers == full.n_servers
        assert np.array_equal(merged.mode_counts, full.mode_counts)
        assert np.array_equal(merged.violations, full.violations)
        assert np.array_equal(merged.server_violations, full.server_violations)
        # Float sums agree up to summation-order noise only.
        assert np.allclose(merged.tail_ms_sum, full.tail_ms_sum, rtol=1e-12)
        assert np.allclose(
            merged.batch_uipc_sum, full.batch_uipc_sum, rtol=1e-12
        )

    def test_run_fleet_sharded_on_process_pool(self, tmp_path, surrogate):
        profile = get_profile("web_search")
        config = fleet_config(n_servers=12)
        full = FleetEngine(
            profile, performance_model(), config, surrogate=surrogate
        ).run_day("web_search")
        store = ResultStore(tmp_path)
        sharded = run_fleet_sharded(
            profile, performance_model(), config, "web_search",
            engine=ExecutionEngine(EngineConfig(workers=2)),
            store=store, n_shards=3, surrogate=surrogate,
        )
        assert sharded.n_servers == 12
        assert np.array_equal(sharded.violations, full.violations)
        assert np.array_equal(sharded.mode_counts, full.mode_counts)
        assert np.allclose(sharded.tail_ms_sum, full.tail_ms_sum, rtol=1e-12)

    def test_sharded_run_ships_custom_curve_to_workers(
        self, tmp_path, surrogate
    ):
        # Regression: register_load_curve writes a module-global dict that
        # never reaches shard pool workers — a custom named curve resolved
        # on the driver but raised KeyError inside run_fleet_sharded
        # workers.  A spawn-context pool reproduces the clean-process
        # worker state (fork would inherit the driver's registry and mask
        # the bug); shard jobs now carry the day's per-window loads.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        register_load_curve(
            "test-ramp", lambda hour: 0.2 + 0.02 * hour
        )
        profile = get_profile("web_search")
        config = fleet_config(n_servers=6)
        full = FleetEngine(
            profile, performance_model(), config, surrogate=surrogate
        ).run_day("test-ramp")
        spawn = multiprocessing.get_context("spawn")
        sharded = run_fleet_sharded(
            profile, performance_model(), config, "test-ramp",
            engine=ExecutionEngine(
                EngineConfig(workers=2),
                pool_factory=lambda workers: ProcessPoolExecutor(
                    max_workers=workers, mp_context=spawn
                ),
            ),
            store=ResultStore(tmp_path), n_shards=2, surrogate=surrogate,
        )
        assert np.array_equal(sharded.violations, full.violations)
        assert np.array_equal(sharded.mode_counts, full.mode_counts)
        assert np.allclose(sharded.tail_ms_sum, full.tail_ms_sum, rtol=1e-12)

    def test_in_process_shard_leaves_registered_curve(
        self, tmp_path, surrogate
    ):
        # A shard runs on the loads it carries; it used to re-register a
        # window-start step function under the curve's name, which then
        # answered every later lookup in this process.
        def ramp(hour):
            return 0.2 + 0.02 * hour

        register_load_curve("test-ramp-in-process", ramp)
        run_fleet_sharded(
            get_profile("web_search"), performance_model(),
            fleet_config(n_servers=2, window_minutes=240.0),
            "test-ramp-in-process",
            engine=ExecutionEngine(EngineConfig(workers=1)),
            store=ResultStore(tmp_path), n_shards=1, surrogate=surrogate,
        )
        assert resolve_load_curve("test-ramp-in-process")[1] is ramp


class TestFleetTimeline:
    def test_values_roundtrip(self, surrogate):
        engine = FleetEngine(
            get_profile("web_search"), performance_model(),
            fleet_config(n_servers=4), surrogate=surrogate,
        )
        timeline = engine.run_day("flat:0.5")
        clone = FleetTimeline.from_values(timeline.to_values())
        assert clone.n_servers == timeline.n_servers
        assert np.array_equal(clone.mode_counts, timeline.mode_counts)
        assert np.array_equal(clone.server_violations, timeline.server_violations)
        assert np.allclose(clone.tail_ms_sum, timeline.tail_ms_sum)
        assert clone.violation_rate == timeline.violation_rate

    def test_merge_rejects_mismatched_grids(self):
        a = FleetTimeline.empty(2, 12, 120.0)
        b = FleetTimeline.empty(2, 6, 240.0, shard_lo=2)
        with pytest.raises(ValueError, match="window grid"):
            FleetTimeline.merge([a, b])
        with pytest.raises(ValueError):
            FleetTimeline.merge([])

    def test_to_values_equal_the_elementwise_construction(self, surrogate):
        stepper = FleetEngine(
            get_profile("web_search"), performance_model(),
            fleet_config(n_servers=6), surrogate=surrogate,
        ).stepper("web_search", server_range=(1, 6))
        stepper.run(n_windows=5)
        state, t = stepper.state, stepper.timeline
        timeline_values = tuple(
            [
                float(t.n_servers), float(t.shard_lo), float(t.n_windows),
                float(t.window_minutes),
            ]
            + [float(v) for v in t.mode_counts.ravel()]
            + [float(v) for v in t.violations]
            + [float(v) for v in t.throttled]
            + [float(v) for v in t.tail_ms_sum]
            + [float(v) for v in t.batch_uipc_sum]
            + [float(v) for v in t.server_violations]
            + [float(v) for v in t.server_bmode_windows]
        )
        state_values = tuple(
            [float(state.lo), float(state.hi), float(state.window)]
            + [float(v) for v in state.mode]
            + [float(v) for v in state.compliant]
            + [float(v) for v in state.violation]
            + [float(v) for v in state.throttle]
        ) + timeline_values
        for got, want in (
            (t.to_values(), timeline_values), (state.to_values(), state_values)
        ):
            assert got == want
            assert all(type(v) is float for v in got)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_empty_aggregates(self):
        t = FleetTimeline.empty(0, 0, 10.0)
        assert t.violation_rate == 0.0
        assert t.bmode_fraction == 0.0
        assert t.mean_tail_ms == 0.0
        assert t.batch_throughput_gain(1.0) == 0.0
        assert t.straggler_p99_violations == 0.0


class TestFleetConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(n_servers=0)
        with pytest.raises(ValueError):
            FleetConfig(overprovision=0.9)
        with pytest.raises(ValueError):
            FleetConfig(balance_jitter=0.7)
        with pytest.raises(KeyError):
            FleetConfig(policy="round-robin")
        with pytest.raises(ValueError):
            FleetConfig(monitor=MonitorConfig(engage_fraction=0.5).__class__(
                engage_fraction=0.5, engage_windows=0))

    def test_engine_rejects_bad_ranges(self, surrogate):
        engine = FleetEngine(
            get_profile("web_search"), performance_model(),
            fleet_config(n_servers=4), surrogate=surrogate,
        )
        with pytest.raises(ValueError, match="server_range"):
            engine.run_day("flat:0.5", server_range=(2, 8))
        with pytest.raises(ValueError, match="tail"):
            engine.run_day("flat:0.5", tail="psychic")

    def test_engine_requires_qos_and_matching_model(self):
        with pytest.raises(ValueError, match="no QoS contract"):
            FleetEngine(get_profile("zeusmp"), performance_model())
        with pytest.raises(ValueError, match="performance model"):
            FleetEngine(get_profile("data_serving"), performance_model())


class TestFleetStepper:
    """The resumable step-window API behind `repro.service`."""

    def engine(self, surrogate, **cfg_kwargs) -> FleetEngine:
        return FleetEngine(
            get_profile("web_search"), performance_model(),
            fleet_config(**cfg_kwargs), surrogate=surrogate,
        )

    @staticmethod
    def assert_timelines_identical(a, b):
        assert np.array_equal(a.hours, b.hours)
        assert np.array_equal(a.mode_counts, b.mode_counts)
        assert np.array_equal(a.violations, b.violations)
        assert np.array_equal(a.throttled, b.throttled)
        assert np.array_equal(a.tail_ms_sum, b.tail_ms_sum)
        assert np.array_equal(a.batch_uipc_sum, b.batch_uipc_sum)
        assert np.array_equal(a.server_violations, b.server_violations)
        assert np.array_equal(a.server_bmode_windows, b.server_bmode_windows)

    def test_stepping_matches_run_day(self, surrogate):
        engine = self.engine(surrogate)
        stepper = engine.stepper("web_search")
        records = []
        while not stepper.done:
            records.append(stepper.step())
        self.assert_timelines_identical(
            stepper.timeline, self.engine(surrogate).run_day("web_search")
        )
        assert [r["window"] for r in records] == list(range(12))
        assert records[3]["hour"] == pytest.approx(6.0)

    def test_profiled_stepping_records_phases_identically(self, surrogate):
        """Phase timers populate under profiling without touching results."""
        from repro.obs.profiler import disable_profiling, enable_profiling

        baseline = self.engine(surrogate).run_day("web_search")
        profiler = enable_profiling()
        try:
            profiler.reset()
            profiled = self.engine(surrogate).run_day("web_search")
            for phase in ("loads", "gather", "tails", "monitor", "aggregate"):
                name = f"fleet.step.{phase}"
                assert profiler.calls(name) == 12, name
                assert profiler.seconds(name) >= 0.0
        finally:
            disable_profiling()
        self.assert_timelines_identical(profiled, baseline)

    def test_step_load_override_matches_curve(self, surrogate):
        """Feeding the curve's own values per window is bit-identical."""
        _, fn = resolve_load_curve("web_search")
        engine = self.engine(surrogate)
        fed = engine.stepper()
        k = 0
        while not fed.done:
            fed.step(fn(k * 2.0))
            k += 1
        self.assert_timelines_identical(
            fed.timeline, self.engine(surrogate).run_day("web_search")
        )

    def test_stepper_without_load_requires_fed_windows(self, surrogate):
        stepper = self.engine(surrogate).stepper()
        with pytest.raises(ValueError, match="cluster_load"):
            stepper.step()

    def test_step_past_end_raises(self, surrogate):
        stepper = self.engine(surrogate).stepper("flat:0.5")
        stepper.run()
        assert stepper.done and stepper.remaining == 0
        with pytest.raises(RuntimeError, match="complete"):
            stepper.step()

    def test_partial_run_then_finish(self, surrogate):
        stepper = self.engine(surrogate).stepper("web_search")
        stepper.run(n_windows=5)
        assert stepper.remaining == 7
        stepper.run()
        self.assert_timelines_identical(
            stepper.timeline, self.engine(surrogate).run_day("web_search")
        )

    def test_state_roundtrip_resumes_bit_identical(self, surrogate):
        from repro.fleet import FleetState

        first = self.engine(surrogate).stepper("web_search")
        first.run(n_windows=7)
        values = first.state.to_values()
        resumed = self.engine(surrogate).stepper(
            "web_search", state=FleetState.from_values(values)
        )
        resumed.run()
        self.assert_timelines_identical(
            resumed.timeline, self.engine(surrogate).run_day("web_search")
        )

    def test_state_slice_validation(self, surrogate):
        from repro.fleet import FleetState

        engine = self.engine(surrogate)
        state = FleetState.fresh(0, 4, 12, 120.0)
        with pytest.raises(ValueError, match="state covers"):
            engine.stepper("flat:0.5", state=state)

    def test_chunked_integer_aggregates_are_invariant(self, surrogate):
        whole = self.engine(surrogate).run_day("web_search")
        chunked = self.engine(surrogate).stepper(
            "web_search", chunk_size=3
        )
        chunked.run()
        t = chunked.timeline
        assert np.array_equal(t.mode_counts, whole.mode_counts)
        assert np.array_equal(t.violations, whole.violations)
        assert np.array_equal(t.throttled, whole.throttled)
        assert np.array_equal(t.server_violations, whole.server_violations)
        assert np.array_equal(
            t.server_bmode_windows, whole.server_bmode_windows
        )
        # float window sums differ only by summation order
        assert t.tail_ms_sum == pytest.approx(whole.tail_ms_sum)
        assert t.batch_uipc_sum == pytest.approx(whole.batch_uipc_sum)

    def test_chunk_env_override(self, surrogate, monkeypatch):
        from repro.fleet.engine import _resolve_chunk_size

        monkeypatch.setenv("REPRO_FLEET_CHUNK", "17")
        assert _resolve_chunk_size(None) == 17
        assert _resolve_chunk_size(4) == 4
        monkeypatch.setenv("REPRO_FLEET_CHUNK", "0")
        with pytest.raises(ValueError, match="REPRO_FLEET_CHUNK"):
            _resolve_chunk_size(None)

    def test_sliced_steppers_merge_to_whole(self, surrogate):
        parts = []
        for lo, hi in ((0, 3), (3, 8)):
            stepper = self.engine(surrogate).stepper(
                "web_search", server_range=(lo, hi)
            )
            stepper.run()
            parts.append(stepper.timeline)
        merged = FleetTimeline.merge(parts)
        whole = self.engine(surrogate).run_day("web_search")
        assert np.array_equal(merged.mode_counts, whole.mode_counts)
        assert np.array_equal(merged.violations, whole.violations)
        assert np.array_equal(merged.throttled, whole.throttled)
        assert np.array_equal(
            merged.server_violations, whole.server_violations
        )
        # float sums reassociate across the slice boundary
        assert merged.tail_ms_sum == pytest.approx(whole.tail_ms_sum)
        assert merged.batch_uipc_sum == pytest.approx(whole.batch_uipc_sum)


# ----------------------------------------------------------------------
# Threaded chunk steps
# ----------------------------------------------------------------------

#: 5 000 servers in 700-server chunks: eight chunks per window.
THREADED_SERVERS = 5000
THREADED_CHUNK = 700
THREADED_POPULATION = ("zeusmp", "lbm")


def threaded_corunners() -> tuple[ColocationPerformance, ...]:
    """zeusmp as performance_model(), plus an aggressor co-runner."""
    return (
        performance_model(),
        ColocationPerformance(
            ls_workload="web_search",
            batch_workload="lbm",
            ls_solo_uipc=0.6,
            per_mode={
                StretchMode.BASELINE: ModePerformance(0.44, 0.55),
                StretchMode.B_MODE: ModePerformance(0.38, 0.63),
                StretchMode.Q_MODE: ModePerformance(0.49, 0.45),
            },
        ),
    )


def threaded_adaptive() -> AdaptiveStretchPolicy:
    return AdaptiveStretchPolicy(
        get_profile("web_search").qos, performance_model(), tuple(B_MODES)
    )


@pytest.fixture(scope="module")
def threaded_surrogate(web_search_qos) -> TailSurrogate:
    """One surrogate for every threaded case: it covers the population's
    and the adaptive policy's perf factors."""
    population = FleetEngine(
        get_profile("web_search"), performance_model(),
        fleet_config(population=THREADED_POPULATION),
        corunners=threaded_corunners(),
    )
    adaptive = FleetEngine(
        get_profile("web_search"), performance_model(), fleet_config(),
        adaptive=threaded_adaptive(),
    )
    factors = sorted(set(population.perf_factors) | set(adaptive.perf_factors))
    return fit_tail_surrogate(web_search_qos, tuple(factors), TEST_GRID)


def force_workers(monkeypatch, workers: int) -> None:
    """Size the chunk threads and the fit's pool at ``workers``."""
    monkeypatch.setattr(
        fleet_engine, "usable_workers", lambda n_jobs: min(workers, n_jobs)
    )


def threaded_stepper(case: str, surrogate, state=None):
    """The stepper of one threaded case, at ``THREADED_CHUNK``."""
    kwargs = {}
    cfg = dict(n_servers=THREADED_SERVERS)
    if case == "placement_black_friday":
        cfg.update(population=THREADED_POPULATION, placement="symbiosis")
        kwargs.update(
            corunners=threaded_corunners(),
            scenario=get_scenario("black_friday"),
        )
    elif case == "adaptive":
        kwargs["adaptive"] = threaded_adaptive()
    engine = FleetEngine(
        get_profile("web_search"), performance_model(), fleet_config(**cfg),
        surrogate=surrogate, **kwargs,
    )
    load = None if case == "fed" else "web_search"
    stepper = engine.stepper(load, chunk_size=THREADED_CHUNK, state=state)
    if case == "capture":
        stepper.capture_violators = 8
    return stepper


def threaded_day(case: str, surrogate) -> dict:
    """Everything a threaded case writes: step records, captured
    violators, the timeline and the state arrays."""
    stepper = threaded_stepper(case, surrogate)
    records, violators = [], []
    while not stepper.done:
        if case == "resumed" and stepper.state.window == 5:
            values = stepper.state.to_values()
            stepper = threaded_stepper(
                case, surrogate, state=FleetState.from_values(values)
            )
        hour = stepper.state.window * 2.0
        fed = 0.25 + 0.5 * np.sin(hour / 4.0) ** 2 if case == "fed" else None
        records.append(stepper.step(fed))
        violators.append(stepper.last_violators)
    arrays = {
        name: getattr(stepper.timeline, name)
        for name in (
            "hours", "mode_counts", "violations", "throttled",
            "tail_ms_sum", "batch_uipc_sum", "server_violations",
            "server_bmode_windows",
        )
    }
    for name in ("mode", "compliant", "violation", "throttle"):
        arrays[f"state.{name}"] = getattr(stepper.state, name)
    return {"records": records, "violators": violators, "arrays": arrays}


def assert_same_day(got: dict, want: dict) -> None:
    assert got["records"] == want["records"]
    assert got["violators"] == want["violators"]
    for name, array in want["arrays"].items():
        assert np.array_equal(got["arrays"][name], array), name


@contextlib.contextmanager
def recorded_fork_warnings():
    """Every warning raised inside, recorded (Python 3.12 warns, and does
    not raise, when a multi-threaded process forks)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield caught


def assert_no_fork_warning(caught) -> None:
    forks = [str(w.message) for w in caught if "multi-threaded" in str(w.message)]
    assert not forks, forks


def assert_same_fleet_day(got: FleetTimeline, want: FleetTimeline) -> None:
    """Integer aggregates exactly, float sums to summation-order noise."""
    for name in ("mode_counts", "violations", "throttled",
                 "server_violations", "server_bmode_windows"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert np.allclose(got.tail_ms_sum, want.tail_ms_sum, rtol=1e-12)
    assert np.allclose(got.batch_uipc_sum, want.batch_uipc_sum, rtol=1e-12)


class TestThreadedStep:
    """A window's chunks step on several threads and write the serial
    step's bits: chunk boundaries stay fixed and the partial sums add in
    chunk order."""

    @pytest.mark.parametrize("case", [
        "jittered", "placement_black_friday", "adaptive", "capture", "fed",
        "resumed",
    ])
    def test_every_worker_count_writes_the_serial_bits(
        self, case, threaded_surrogate, monkeypatch
    ):
        force_workers(monkeypatch, 1)
        serial = threaded_day(case, threaded_surrogate)
        if case == "capture":
            assert any(serial["violators"])
        threads = set()
        step_chunk = FleetStepper._step_chunk

        def recording(self, *args, **kwargs):
            threads.add(threading.get_ident())
            return step_chunk(self, *args, **kwargs)

        monkeypatch.setattr(FleetStepper, "_step_chunk", recording)
        for workers in (2, 3):
            force_workers(monkeypatch, workers)
            assert_same_day(threaded_day(case, threaded_surrogate), serial)
        assert len(threads) >= 2  # the chunks did run on several threads

    def test_partial_sums_add_in_chunk_order(
        self, threaded_surrogate, monkeypatch
    ):
        force_workers(monkeypatch, 3)
        partials = {}
        step_chunk = FleetStepper._step_chunk

        def recording(self, s0, **kwargs):
            result = step_chunk(self, s0, **kwargs)
            partials[s0] = result[0][3:5]  # the tail and batch-UIPC sums
            return result

        monkeypatch.setattr(FleetStepper, "_step_chunk", recording)
        stepper = threaded_stepper("jittered", threaded_surrogate)
        for k in range(3):
            partials.clear()
            stepper.step()
            tail_sum = batch_sum = 0.0
            for s0 in sorted(partials):
                tail_sum += partials[s0][0]
                batch_sum += partials[s0][1]
            assert len(partials) == 8
            assert stepper.timeline.tail_ms_sum[k] == tail_sum
            assert stepper.timeline.batch_uipc_sum[k] == batch_sum

    def test_one_chunk_builds_no_pool(self, surrogate, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-chunk window built a thread pool")

        monkeypatch.setattr(fleet_engine, "ThreadPoolExecutor", no_pool)
        FleetEngine(
            get_profile("web_search"), performance_model(), fleet_config(),
            surrogate=surrogate,
        ).run_day("web_search")

    def test_no_thread_outlives_a_step(self, threaded_surrogate, monkeypatch):
        force_workers(monkeypatch, 3)
        before = threading.active_count()
        stepper = threaded_stepper("jittered", threaded_surrogate)
        stepper.step()
        assert threading.active_count() == before

    def test_chunk_error_raises_without_leaking_threads(
        self, threaded_surrogate, monkeypatch
    ):
        force_workers(monkeypatch, 3)
        stepper = threaded_stepper("jittered", threaded_surrogate)
        stepper.step()
        before = threading.active_count()
        calls = itertools.count()
        transition = fleet_engine.monitor_transition_vec

        def failing(*args, **kwargs):
            if next(calls) == 2:
                raise RuntimeError("third chunk failed")
            return transition(*args, **kwargs)

        monkeypatch.setattr(fleet_engine, "monitor_transition_vec", failing)
        with pytest.raises(RuntimeError, match="third chunk failed"):
            stepper.step()
        assert threading.active_count() == before

    def test_pool_fork_after_a_threaded_step(
        self, threaded_surrogate, monkeypatch, tmp_path
    ):
        from repro import api

        force_workers(monkeypatch, 2)
        threaded_stepper("jittered", threaded_surrogate).step()
        common = dict(
            performance=performance_model(), load="web_search",
            n_servers=8, window_minutes=120.0,
            requests_per_window=TEST_RPW, seed=5,
            surrogate=threaded_surrogate,
        )
        in_process = api.run_fleet("web_search", **common)
        before = threading.active_count()
        with recorded_fork_warnings() as caught:
            pooled = api.run_fleet(
                "web_search", workers=2, store=ResultStore(tmp_path),
                **common,
            )
        assert_no_fork_warning(caught)
        assert threading.active_count() == before
        assert_same_fleet_day(pooled, in_process)

    def test_profiled_phases_flush_once_per_window(
        self, threaded_surrogate, monkeypatch
    ):
        from repro.obs.profiler import disable_profiling, enable_profiling

        force_workers(monkeypatch, 1)
        serial = threaded_day("jittered", threaded_surrogate)
        force_workers(monkeypatch, 2)
        profiler = enable_profiling()
        try:
            profiler.reset()
            profiled = threaded_day("jittered", threaded_surrogate)
            for phase in ("loads", "gather", "tails", "aggregate", "monitor",
                          "chunks"):
                assert profiler.calls(f"fleet.step.{phase}") == 12, phase
        finally:
            disable_profiling()
        assert_same_day(profiled, serial)

    def test_more_workers_than_cores_under_fast_switching(
        self, threaded_surrogate, monkeypatch
    ):
        # Six workers on eight chunks, switching threads every
        # microsecond: a chunk taken twice, or a partial lost, would
        # change the day.
        force_workers(monkeypatch, 1)
        serial = threaded_day("capture", threaded_surrogate)
        force_workers(monkeypatch, 6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = threaded_day("capture", threaded_surrogate)
        finally:
            sys.setswitchinterval(interval)
        assert_same_day(threaded, serial)

    def test_a_live_thread_keeps_the_chunk_threads(
        self, threaded_surrogate, monkeypatch
    ):
        # Chunk threads never fork, so a thread blocked on its input
        # (stretch-repro serve's control-plane reader) leaves their count
        # at the usable cores.
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
        )
        helpers = []
        pool = fleet_engine.ThreadPoolExecutor

        def recording(workers):
            helpers.append(workers)
            return pool(workers)

        monkeypatch.setattr(fleet_engine, "ThreadPoolExecutor", recording)
        release = threading.Event()
        reader = threading.Thread(target=release.wait)
        reader.start()
        try:
            threaded_stepper("jittered", threaded_surrogate).step()
        finally:
            release.set()
            reader.join()
        assert helpers == [1]  # one helper beside the calling thread

    def test_worker_count_is_derived(self):
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # One helper sizes the chunk threads, --jobs auto and the fit's
        # pool (whose thread rule run_jobs applies; its tests are in
        # tests/test_engine.py).
        assert fleet_engine.usable_workers is usable_workers
        assert usable_workers(1) == 1
        assert 1 <= usable_workers(8) <= 8
        assert usable_workers(2) <= 2
        # A multiprocessing child steps its chunks on one thread.
        with ProcessPoolExecutor(
            max_workers=1, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            assert pool.submit(usable_workers, 8).result(timeout=60) == 1


# ----------------------------------------------------------------------
# Surrogate fits on every core
# ----------------------------------------------------------------------

#: A small fit: three calibration and two validation replicates.
POOL_GRID = SurrogateGrid(
    loads=(0.1, 0.6, 1.2), n_requests=TEST_RPW, peak_requests=2000,
    n_reps=3, n_val_reps=2, seed=2,
)


def pool_grid_engine(monkeypatch, store) -> FleetEngine:
    """A fleet engine whose surrogate is fitted on :data:`POOL_GRID`."""
    monkeypatch.setattr(FleetConfig, "surrogate_grid", lambda self: POOL_GRID)
    return FleetEngine(
        get_profile("web_search"), performance_model(), fleet_config(),
        store=store,
    )


def pool_grid_job(perf_factors) -> SurrogateFitJob:
    return SurrogateFitJob(get_profile("web_search").qos, perf_factors, POOL_GRID)


def serial_fit(job: SurrogateFitJob) -> tuple[float, ...]:
    """``job``'s values as :func:`fit_tail_surrogate` fits them."""
    return fit_tail_surrogate(job.qos, job.perf_factors, job.grid).to_values()


def fit_jobs(job: SurrogateFitJob, store) -> tuple:
    """``job``'s peak jobs and, at the peaks ``store`` holds, its
    replicates."""
    peaks = peak_jobs(job.qos, job.grid, job.n_workers)
    return peaks, job.replicates([store.get(peak.key)[0] for peak in peaks])


def grid_queries(job: SurrogateFitJob) -> int:
    """DES queries of ``job``'s grid streams, bisections not counted."""
    grid, n_perf = job.grid, len(set(job.perf_factors))
    n_loads = len(grid.loads)
    return n_perf * (
        grid.n_reps * n_loads + grid.n_val_reps * (n_loads - 1)
    )


def fit_in_a_child() -> tuple[list[str], tuple, tuple]:
    """A fleet engine's cold fit on :data:`POOL_GRID` inside a
    multiprocessing child: how its jobs ran, its values and its rows."""
    FleetConfig.surrogate_grid = lambda self: POOL_GRID  # this child's class
    store = ResultStore(None)
    engine = FleetEngine(
        get_profile("web_search"), performance_model(), fleet_config(),
        store=store,
    )
    values = engine.ensure_surrogate().to_values()
    peaks, replicates = fit_jobs(pool_grid_job(engine.perf_factors), store)
    modes = {store.job_telemetry[j.key]["mode"] for j in (*peaks, *replicates)}
    return sorted(modes), values, engine.perf_factors


@pytest.fixture
def fit_runs(monkeypatch) -> list:
    """``(workers, report)`` of every job set a fit runs."""
    runs = []

    class Recording(ExecutionEngine):
        def run_jobs(self, jobs, *args, **kwargs):
            report = super().run_jobs(jobs, *args, **kwargs)
            runs.append((report.stats.workers, report))
            return report

    monkeypatch.setattr(surrogate_module, "ExecutionEngine", Recording)
    return runs


def bits(values) -> bytes:
    return np.array(values).tobytes()


class TestPooledFit:
    """``ensure_surrogate`` runs a fit's peak bisections, then its DES
    replicates, on every core, writes each into the engine's store and
    assembles the serial fit's bits (the 1/4/13-row, 1/2/3-worker matrix
    is in tests/test_qos_queueing.py)."""

    @pytest.fixture(autouse=True)
    def cold_peaks(self):
        # Each fit here bisects: a peak an earlier test memoized in this
        # process would answer the bisection here and in forked workers.
        queueing._PEAK_MEMO.clear()

    def test_cold_fit_runs_each_replicate_once_into_the_store(
        self, monkeypatch, tmp_path, fit_runs
    ):
        force_workers(monkeypatch, 2)
        store = ResultStore(tmp_path)
        engine = pool_grid_engine(monkeypatch, store)
        fitted = engine.ensure_surrogate()
        job = pool_grid_job(engine.perf_factors)
        peaks, replicates = fit_jobs(job, store)
        assert [(r.label, r.rep) for r in replicates] == [
            ("surrogate-cal", 0), ("surrogate-cal", 1), ("surrogate-cal", 2),
            ("surrogate-val", 0), ("surrogate-val", 1),
        ]
        assert [(p.label, p.rep) for p in peaks] == [
            (r.label, r.rep) for r in replicates
        ]
        # Two job sets on one engine: the peaks, then the replicates.
        assert [workers for workers, __ in fit_runs] == [2, 2]
        for __, report in fit_runs:
            stats = report.stats
            assert (stats.unique, stats.executed, stats.cache_hits) == (5, 5, 0)
        entries = tmp_path / f"v{CACHE_VERSION}"
        for fit_job in (*peaks, *replicates):
            assert (entries / f"{fit_job.key}.json").exists()
            record = store.job_telemetry[fit_job.key]
            assert (record["mode"], record["tries"]) == ("pool", 1)
        assert (entries / f"{job.key}.json").exists()
        assert bits(fitted.to_values()) == bits(serial_fit(job))

    def test_warm_fit_runs_no_replicate_and_builds_no_pool(
        self, monkeypatch, tmp_path
    ):
        force_workers(monkeypatch, 2)
        store = ResultStore(tmp_path)
        cold = pool_grid_engine(monkeypatch, store).ensure_surrogate()

        def no_job(self):
            raise AssertionError("a warm fit ran a job")

        def no_engine(*args, **kwargs):
            raise AssertionError("a warm fit started an execution engine")

        monkeypatch.setattr(PeakLoadJob, "run", no_job)
        monkeypatch.setattr(SurrogateReplicateJob, "run", no_job)
        monkeypatch.setattr(surrogate_module, "ExecutionEngine", no_engine)
        # Warm in memory, then on disk through a fresh store.
        for warm_store in (store, ResultStore(tmp_path)):
            warm = pool_grid_engine(monkeypatch, warm_store).ensure_surrogate()
            assert bits(warm.to_values()) == bits(cold.to_values())

    def test_fit_resumes_from_stored_replicates(
        self, monkeypatch, tmp_path, fit_runs
    ):
        # A fit cut short leaves its peaks and its finished replicates in
        # the store; the next fit runs only the other replicates.
        force_workers(monkeypatch, 2)
        store = ResultStore(tmp_path)
        engine = pool_grid_engine(monkeypatch, store)
        job = pool_grid_job(engine.perf_factors)
        for peak in peak_jobs(job.qos, job.grid, job.n_workers):
            store.put(peak.key, peak.run())
        __, replicates = fit_jobs(job, store)
        for replicate in replicates[:2]:
            store.put(replicate.key, replicate.run())
        fitted = engine.ensure_surrogate()
        assert [
            (report.stats.cache_hits, report.stats.executed)
            for __, report in fit_runs
        ] == [(5, 0), (2, 3)]
        assert bits(fitted.to_values()) == bits(serial_fit(job))

    def test_fit_in_a_multiprocessing_child_runs_serially(self):
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=1, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            modes, values, rows = pool.submit(fit_in_a_child).result(
                timeout=120
            )
        assert modes == ["serial"]
        assert bits(values) == bits(serial_fit(pool_grid_job(rows)))

    def test_fit_beside_a_live_thread_runs_serially(
        self, monkeypatch, fit_runs
    ):
        # The pool forks, which must not copy another thread's locks.
        force_workers(monkeypatch, 2)
        store = ResultStore(None)
        engine = pool_grid_engine(monkeypatch, store)
        release = threading.Event()
        reader = threading.Thread(target=release.wait)
        reader.start()
        try:
            values = engine.ensure_surrogate().to_values()
        finally:
            release.set()
            reader.join()
        assert [workers for workers, __ in fit_runs] == [1, 1]
        job = pool_grid_job(engine.perf_factors)
        peaks, replicates = fit_jobs(job, store)
        modes = {
            store.job_telemetry[j.key]["mode"] for j in (*peaks, *replicates)
        }
        assert modes == {"serial"}
        assert bits(values) == bits(serial_fit(job))

    def test_second_fit_of_other_rows_runs_no_bisection(self, tmp_path):
        from repro.obs.profiler import disable_profiling, enable_profiling

        first, second = pool_grid_job((0.7, 1.0)), pool_grid_job((0.6, 0.8, 1.0))
        surrogate_module._fit(first, 2, ResultStore(tmp_path))
        # Nothing but the first fit's store entries reaches the second fit:
        # a fresh store over its directory, and no peak in this process.
        queueing._PEAK_MEMO.clear()
        profiler = enable_profiling()
        try:
            profiler.reset()
            fitted = surrogate_module._fit(second, 2, ResultStore(tmp_path))
            queries = profiler.calls("qos.des.serve")
        finally:
            disable_profiling()
        assert queries == grid_queries(second)
        assert bits(fitted.to_values()) == bits(serial_fit(second))

    def test_profiled_cold_fit_times_its_wall_and_counts_worker_queries(
        self, monkeypatch
    ):
        from repro.obs.profiler import disable_profiling, enable_profiling

        force_workers(monkeypatch, 2)
        store = ResultStore(None)
        profiler = enable_profiling()
        try:
            profiler.reset()
            engine = pool_grid_engine(monkeypatch, store)
            engine.ensure_surrogate()
            job = pool_grid_job(engine.perf_factors)
            # Every worker's DES sections came back: 41 bisection probes
            # per replicate plus the grid streams' queries.
            assert profiler.calls("qos.des.serve") == (
                41 * (POOL_GRID.n_reps + POOL_GRID.n_val_reps)
                + grid_queries(job)
            )
            assert profiler.calls("fleet.fit") == 1
            pool_grid_engine(monkeypatch, store).ensure_surrogate()
            assert profiler.calls("fleet.fit") == 1  # a warm fit is no fit
        finally:
            disable_profiling()

    def test_cold_pooled_day_forks_no_threaded_process(
        self, monkeypatch, tmp_path
    ):
        # run_fleet(workers=2) without surrogate= fits on one pool and then
        # forks its shard pool: the fit's pool must be joined by then.
        from repro import api

        force_workers(monkeypatch, 2)
        monkeypatch.setattr(FleetConfig, "surrogate_grid", lambda self: POOL_GRID)
        common = dict(
            performance=performance_model(), load="web_search",
            n_servers=8, window_minutes=120.0,
            requests_per_window=TEST_RPW, seed=5,
        )
        before = threading.active_count()
        with recorded_fork_warnings() as caught:
            pooled = api.run_fleet(
                "web_search", workers=2, store=ResultStore(tmp_path),
                **common,
            )
        assert_no_fork_warning(caught)
        assert threading.active_count() == before
        in_process = api.run_fleet(
            "web_search", store=ResultStore(tmp_path), **common
        )
        assert_same_fleet_day(pooled, in_process)
