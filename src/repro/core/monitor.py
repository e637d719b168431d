"""CPI²-extended software monitor (paper §IV-C).

Google's CPI² framework watches per-task performance counters to detect
interference at runtime.  Stretch extends it with a QoS metric — tail
latency, the representative and readily available choice — reflecting the
service's performance slack:

* when the monitor sees slack (tail latency comfortably below target) for a
  few consecutive windows, it engages **B-mode**;
* on a QoS violation it immediately disengages B-mode, falling back to
  Baseline partitioning, or **Q-mode** if one is provisioned;
* if violations persist, it takes CPI²'s corrective action: **throttle the
  co-runner** for an interval of time.

The monitor is a pure state machine, :func:`monitor_transition`: one
window's ``violated`` / ``slack`` verdict moves a :class:`MonitorState`.
The fleet engine applies it element-wise over every server
(:func:`repro.fleet.engine.monitor_transition_vec`, held equal to it by an
exhaustive test), which is also how :func:`repro.api.run_day` runs one
server's day.  :class:`QueueLengthMonitor` drives the same transition
from queue depth instead of tail latency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.stretch import StretchMode
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "MODE_ORDER",
    "MonitorConfig",
    "MonitorDecision",
    "MonitorState",
    "QueueLengthMonitorConfig",
    "QueueLengthMonitor",
    "monitor_transition",
    "validate_monitor_config",
]

#: Canonical mode indexing shared by the scalar monitor, the metrics
#: pipeline and the vectorized fleet engine: 0 = BASELINE, 1 = B_MODE,
#: 2 = Q_MODE.
MODE_ORDER: tuple[StretchMode, ...] = tuple(StretchMode)


@dataclass(frozen=True)
class MonitorConfig:
    """Thresholds and hysteresis of the software monitor.

    The defaults are the paper's operating point; :func:`repro.tune.
    tune_monitor` searches these same four axes against adversarial
    scenario portfolios when the fleet's SLO budget calls for a
    different trade-off.

    Attributes
    ----------
    engage_fraction:
        B-mode engages when tail latency stays below this fraction of the
        QoS target (slack exists).  Must lie strictly inside ``(0, 1)``;
        default ``0.6``.
    engage_windows:
        Consecutive compliant windows required before engaging B-mode
        (``>= 1``; default ``3``).
    violation_windows_to_throttle:
        Consecutive violating windows (after leaving B-mode) before the
        monitor orders co-runner throttling (``>= 1``; default ``3``).
    throttle_windows:
        Duration of a throttling interval, in windows (``>= 1``;
        default ``10``).
    """

    engage_fraction: float = 0.6
    engage_windows: int = 3
    violation_windows_to_throttle: int = 3
    throttle_windows: int = 10

    def __post_init__(self) -> None:
        if not 0.0 < self.engage_fraction < 1.0:
            raise ValueError("engage_fraction must be in (0, 1)")
        if min(self.engage_windows, self.violation_windows_to_throttle,
               self.throttle_windows) < 1:
            raise ValueError("window counts must be at least 1")


def validate_monitor_config(config) -> MonitorConfig:
    """Validate a monitor configuration eagerly (duck-typed).

    Re-applies the :class:`MonitorConfig` field invariants against whatever
    object the caller handed over, so a malformed or wrong-typed config
    raises at construction time instead of mid-``run_day``.  Returns the
    config unchanged on success.
    """
    try:
        engage_fraction = float(config.engage_fraction)
        counts = (
            int(config.engage_windows),
            int(config.violation_windows_to_throttle),
            int(config.throttle_windows),
        )
    except (AttributeError, TypeError, ValueError) as exc:
        raise TypeError(
            f"monitor_config must provide MonitorConfig's numeric fields; "
            f"got {config!r}"
        ) from exc
    if not 0.0 < engage_fraction < 1.0:
        raise ValueError("engage_fraction must be in (0, 1)")
    if min(counts) < 1:
        raise ValueError("window counts must be at least 1")
    return config


@dataclass(frozen=True)
class MonitorDecision:
    """What the system software should do for the next window."""

    mode: StretchMode
    throttle_corunner: bool = False


@dataclass(frozen=True)
class MonitorState:
    """The complete internal state of the tail-latency monitor state machine.

    ``mode`` is an index into :data:`MODE_ORDER` (0 = Baseline, 1 = B-mode,
    2 = Q-mode) so the same representation works element-wise over numpy
    arrays in the vectorized fleet engine.
    """

    mode: int = 0
    compliant_streak: int = 0
    violation_streak: int = 0
    throttle_remaining: int = 0


#: Mode indices (module-private aliases keep the transition readable).
_BASELINE, _B_MODE, _Q_MODE = 0, 1, 2


def monitor_transition(
    state: MonitorState,
    violated: bool,
    slack: bool,
    config: MonitorConfig | QueueLengthMonitorConfig,
    q_mode_available: bool = True,
) -> tuple[MonitorState, bool, bool]:
    """One window of the Stretch monitor state machine, as a pure function.

    This is the single source of truth for the monitor's decision logic:
    :class:`QueueLengthMonitor` applies it per observation, and the
    vectorized fleet engine (:mod:`repro.fleet`) applies the same rules
    element-wise over server arrays (equivalence is enforced by an
    exhaustive state-space test).

    Parameters mirror one digested window: ``violated`` means the QoS
    metric exceeded its target, ``slack`` means it sat below the engage
    threshold (``violated`` and ``slack`` are mutually exclusive).

    Returns ``(new_state, throttle_corunner, throttle_ordered)`` where
    ``throttle_ordered`` marks the windows on which a fresh CPI²-style
    throttling interval was ordered (for counting throttle orders).
    """
    mode = state.mode
    cs = state.compliant_streak
    vs = state.violation_streak
    tr = state.throttle_remaining

    if tr > 0:
        # Mid-throttle: count down; mode is frozen until the interval ends.
        tr -= 1
        return MonitorState(mode, cs, vs, tr), tr > 0, False

    if violated:
        cs = 0
        if mode == _B_MODE:
            # First response: give capacity back to the service.
            mode = _Q_MODE if q_mode_available else _BASELINE
            vs = 1
        else:
            vs += 1
            if mode == _BASELINE and q_mode_available:
                mode = _Q_MODE
            if vs >= config.violation_windows_to_throttle:
                # CPI²'s corrective action: throttle the co-runner.
                return (
                    MonitorState(mode, cs, 0, config.throttle_windows),
                    True,
                    True,
                )
        return MonitorState(mode, cs, vs, 0), False, False

    vs = 0
    if slack:
        cs += 1
        if mode != _B_MODE and cs >= config.engage_windows:
            mode = _B_MODE
    else:
        cs = 0
        # Compliant but tight: prefer Baseline over an engaged B-mode, and
        # return capacity to the co-runner if Q-mode pressure eased.
        if mode in (_B_MODE, _Q_MODE):
            mode = _BASELINE
    return MonitorState(mode, cs, vs, 0), False, False


@dataclass(frozen=True)
class QueueLengthMonitorConfig:
    """Thresholds for the queue-length monitor variant.

    Attributes
    ----------
    engage_max_depth:
        Mean in-system request count below which B-mode may engage — "when
        queue length is short, high single-thread performance is not
        necessary" (the Rubik observation the paper cites in §IV-C).  The
        count includes requests in service, so the threshold should be a
        fraction of the worker-pool size (default assumes ~8 workers).
    violate_depth:
        Depth above which the monitor treats the service as queue-bound and
        escalates (Baseline / Q-mode, then throttling).
    engage_windows / violation_windows_to_throttle / throttle_windows:
        Same hysteresis semantics as :class:`MonitorConfig`.
    """

    engage_max_depth: float = 4.0
    violate_depth: float = 12.0
    engage_windows: int = 3
    violation_windows_to_throttle: int = 3
    throttle_windows: int = 10

    def __post_init__(self) -> None:
        if self.engage_max_depth < 0:
            raise ValueError("engage_max_depth must be non-negative")
        if self.violate_depth <= self.engage_max_depth:
            raise ValueError("violate_depth must exceed engage_max_depth")
        if min(self.engage_windows, self.violation_windows_to_throttle,
               self.throttle_windows) < 1:
            raise ValueError("window counts must be at least 1")


class QueueLengthMonitor:
    """Queue-length-driven Stretch monitor (paper §IV-C's alternative metric).

    Instead of tail latency, the decision input is the mean number of
    requests in the system over the monitoring window — an indirect but
    cheaply available slack signal: an empty queue means per-request
    processing time has plenty of headroom, a deep queue means single-thread
    performance is needed *now*.  A deep queue counts as a violation and a
    calm one as slack in :func:`monitor_transition`.
    """

    def __init__(
        self,
        config: QueueLengthMonitorConfig = QueueLengthMonitorConfig(),
        q_mode_available: bool = True,
        metrics: MetricsRegistry | None = None,
    ):
        self.config = config
        self.q_mode_available = q_mode_available
        self.metrics = metrics
        self.state = MonitorState()
        self.windows_observed = 0
        #: Deep-queue windows, throttled ones included.
        self.deep_queue_windows = 0
        self.throttle_orders = 0

    @property
    def mode(self) -> StretchMode:
        return MODE_ORDER[self.state.mode]

    @property
    def throttling(self) -> bool:
        return self.state.throttle_remaining > 0

    def observe_window(self, observation) -> MonitorDecision:
        """Digest one window's mean queue depth; emit a decision.

        ``observation`` is the depth, or anything carrying it as
        ``mean_queue_depth`` (e.g. the queueing DES's
        :class:`~repro.qos.queueing.LatencyStats`).
        """
        mean_queue_depth = float(
            getattr(observation, "mean_queue_depth", observation)
        )
        if mean_queue_depth < 0:
            raise ValueError("queue depth cannot be negative")
        self.windows_observed += 1
        deep = mean_queue_depth > self.config.violate_depth
        self.state, throttle, ordered = monitor_transition(
            self.state, deep,
            mean_queue_depth <= self.config.engage_max_depth,
            self.config, self.q_mode_available,
        )
        self.deep_queue_windows += deep
        self.throttle_orders += ordered
        decision = MonitorDecision(self.mode, throttle_corunner=throttle)
        registry = self.metrics
        if registry is not None:
            registry.counter("monitor.windows").inc()
            registry.series("monitor.queue_depth").append(
                self.windows_observed, mean_queue_depth
            )
            if throttle:
                registry.counter("monitor.throttled_windows").inc()
        return decision
