"""Finer-grain Stretch control: multiple B-mode configurations (paper §IV-D).

The paper notes that "multiple configurations may be provisioned that differ
in the fractions of ROB capacity assigned to the two hardware threads.
These would enable finer-grain control over per-thread performance but would
necessitate more sophisticated software control to choose the appropriate
configuration as a function of load."

This module implements that sophistication:

* :class:`SlackBudget` converts a tail-latency observation into an estimate
  of how much additional service-time inflation the QoS target can absorb;
* :class:`AdaptiveStretchPolicy` picks, each monitoring window, the deepest
  provisioned B-mode whose predicted latency impact stays inside that
  budget — falling back toward Baseline (and Q-mode under violations)
  exactly like the two-point monitor.  :meth:`~AdaptiveStretchPolicy.decide`
  is the scalar rule; :meth:`~AdaptiveStretchPolicy.next_rows` applies it
  element-wise over a fleet's tails (``FleetEngine(..., adaptive=policy)``),
  and an exhaustive test holds the two equal.

The latency prediction uses the queueing-theoretic first-order rule that
tail latency scales with service-time inflation as long as the system stays
away from saturation: ``predicted_tail ≈ tail_now × (factor_now /
factor_candidate)``.  A safety margin guards the nonlinear region.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.colocation import ColocationPerformance
from repro.core.partitioning import BASELINE, DEFAULT_B_MODE, PartitionScheme
from repro.core.stretch import StretchMode
from repro.workloads.profiles import QoSSpec

__all__ = ["SlackBudget", "AdaptiveStretchPolicy", "AdaptiveDecision"]


@dataclass(frozen=True)
class SlackBudget:
    """How much service-time inflation the QoS target can still absorb.

    ``headroom`` is the multiplicative latency increase the target allows
    from the current operating point, after a safety margin.
    """

    tail_latency_ms: float
    target_ms: float
    safety_margin: float = 0.85

    def __post_init__(self) -> None:
        if self.tail_latency_ms < 0 or self.target_ms <= 0:
            raise ValueError("latencies must be positive")
        if not 0.0 < self.safety_margin <= 1.0:
            raise ValueError("safety_margin must be in (0, 1]")

    @property
    def headroom(self) -> float:
        """Allowed multiplicative tail-latency growth (>= 1 means slack)."""
        if self.tail_latency_ms <= 0.0:
            return float("inf")
        return (self.target_ms * self.safety_margin) / self.tail_latency_ms


@dataclass(frozen=True)
class AdaptiveDecision:
    """The scheme chosen for the next window and why."""

    scheme: PartitionScheme
    mode: StretchMode
    headroom: float


class AdaptiveStretchPolicy:
    """Chooses among multiple provisioned B-modes as a function of slack.

    Parameters
    ----------
    qos:
        The service's latency contract.
    performance:
        Per-mode measurements for the running pair.  Only the relative
        latency-sensitive factors between schemes are used, extended to the
        additional B-modes via interpolation on the LS partition size.
    b_modes:
        Provisioned batch-boost schemes, shallow to deep (e.g. the paper's
        64-128 … 32-160).  ``BASELINE`` is always available.
    """

    def __init__(
        self,
        qos: QoSSpec,
        performance: ColocationPerformance,
        b_modes: tuple[PartitionScheme, ...],
        safety_margin: float = 0.85,
    ):
        if not b_modes:
            raise ValueError("provision at least one B-mode")
        if sorted(b_modes, key=lambda s: -s.ls_entries) != list(b_modes):
            raise ValueError("b_modes must be ordered shallow to deep")
        self.qos = qos
        self.performance = performance
        self.b_modes = b_modes
        self.safety_margin = safety_margin
        self._factors = {scheme: self._estimate_factor(scheme) for scheme in b_modes}
        self._factors[BASELINE] = performance.ls_perf_factor(StretchMode.BASELINE)
        #: Row ``j`` of :meth:`next_rows`: the scheme it runs and the mode
        #: it reports — Baseline, each B-mode, then Baseline after a
        #: violation (reported as Q-mode, as :meth:`decide` does).
        self.rows: tuple[tuple[PartitionScheme, StretchMode], ...] = (
            ((BASELINE, StretchMode.BASELINE),)
            + tuple((scheme, StretchMode.B_MODE) for scheme in b_modes)
            + ((BASELINE, StretchMode.Q_MODE),)
        )
        # decide()'s per-scheme inflation, shallow to deep.
        current = self._factors[BASELINE]
        self._inflation = np.array(
            [current / max(self._factors[scheme], 1e-9) for scheme in b_modes]
        )

    def _estimate_factor(self, scheme: PartitionScheme) -> float:
        """LS performance factor of a scheme, interpolated on partition size.

        Anchored at the measured Baseline and B-mode (``BASELINE`` and
        ``DEFAULT_B_MODE``); other skews scale linearly in LS-partition size
        between those two anchors (and extrapolate below, floored at 20% of
        Baseline).  This mirrors what production software would do: profile
        a couple of points, interpolate the rest.
        """
        base_entries = BASELINE.ls_entries
        base_factor = self.performance.ls_perf_factor(StretchMode.BASELINE)
        b_scheme_entries = DEFAULT_B_MODE.ls_entries
        b_factor = self.performance.ls_perf_factor(StretchMode.B_MODE)
        if scheme.ls_entries >= base_entries:
            return base_factor
        slope = (base_factor - b_factor) / max(base_entries - b_scheme_entries, 1)
        estimate = base_factor - slope * (base_entries - scheme.ls_entries)
        return max(estimate, 0.2 * base_factor)

    def factor_for(self, scheme: PartitionScheme) -> float:
        """Estimated LS performance factor under ``scheme``."""
        return self._factors[scheme]

    def decide(self, tail_latency_ms: float) -> AdaptiveDecision:
        """Pick the deepest scheme whose predicted tail stays within target.

        On a violation the policy returns Baseline reported as Q-mode.
        This scalar rule is the oracle of :meth:`next_rows`.
        """
        tail_latency_ms = float(tail_latency_ms)
        if tail_latency_ms < 0:
            raise ValueError("latency cannot be negative")
        budget = SlackBudget(tail_latency_ms, self.qos.target_ms,
                             self.safety_margin)
        if tail_latency_ms > self.qos.target_ms:
            return AdaptiveDecision(BASELINE, StretchMode.Q_MODE,
                                    budget.headroom)

        current = self._factors[BASELINE]
        chosen = BASELINE
        for scheme in self.b_modes:  # shallow -> deep
            inflation = current / max(self._factors[scheme], 1e-9)
            if inflation <= budget.headroom:
                chosen = scheme
            else:
                break
        mode = StretchMode.BASELINE if chosen is BASELINE else StretchMode.B_MODE
        return AdaptiveDecision(chosen, mode, budget.headroom)

    def next_rows(self, tails: np.ndarray) -> np.ndarray:
        """Element-wise :meth:`decide`: the :attr:`rows` index per tail.

        Same float operations as :meth:`decide`: the headroom is
        ``(target * margin) / tail`` (infinite at a zero tail), the row is
        the length of the leading run of B-modes whose inflation fits it
        (``decide`` stops at the first that does not), and a violated tail
        gives the last row.
        """
        tails = np.asarray(tails, dtype=float)
        headroom = np.full(tails.shape, np.inf)
        with np.errstate(over="ignore"):  # tiny tails: inf, as in decide
            np.divide(self.qos.target_ms * self.safety_margin, tails,
                      out=headroom, where=tails > 0.0)
        fits = self._inflation <= headroom[:, None]
        rows = np.cumprod(fits, axis=1).sum(axis=1)
        rows[tails > self.qos.target_ms] = len(self.rows) - 1
        return rows
