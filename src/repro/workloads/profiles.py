"""Workload profile model.

A :class:`WorkloadProfile` captures the statistical microarchitectural
signature of one application.  The fields map one-to-one onto the behaviors
the paper's analysis identifies as decisive:

* **MLP / ROB sensitivity** — ``cold_miss_frac`` (independent long-latency
  loads whose overlap grows with window size) versus ``pointer_chase_frac``
  (dependent loads that serialize regardless of window size, the signature of
  scale-out services per Ferdman et al. / Kanev et al., cited as [8] and [2]).
* **L1-D pressure** — ``data_footprint_kb``, ``hot_region_kb``,
  ``hot_access_frac`` and ``streaming_frac`` (lbm's streaming writes are the
  paper's L1-D outlier).
* **L1-I / BTB pressure** — ``instr_footprint_kb`` and ``block_len_mean``
  (large multi-megabyte instruction footprints are characteristic of server
  workloads).
* **Branch behavior** — ``branch_predictability``.

Latency-sensitive profiles additionally carry a :class:`QoSSpec` with the
paper's Table I latency targets and a request service-time model for the
queueing substrate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["WorkloadKind", "QoSSpec", "WorkloadProfile"]

#: Latency percentiles the queueing DES reports (``LatencyStats.p50`` /
#: ``p95`` / ``p99``), and so the only ones a QoS contract may target.
TRACKED_PERCENTILES = (50.0, 95.0, 99.0)


class WorkloadKind(enum.Enum):
    LATENCY_SENSITIVE = "latency-sensitive"
    BATCH = "batch"


@dataclass(frozen=True)
class QoSSpec:
    """Quality-of-service contract of a latency-sensitive service (Table I).

    Attributes
    ----------
    target_ms:
        Tail-latency target in milliseconds.
    percentile:
        The percentile the target applies to, one of
        :data:`TRACKED_PERCENTILES`; Media Streaming uses a delivery
        timeout, which we model as a high-percentile bound.
    base_service_ms:
        Mean per-request service time on an uncontended full core.
    service_cv:
        Coefficient of variation of the service-time distribution.
    """

    target_ms: float
    percentile: float
    base_service_ms: float
    service_cv: float = 1.0

    def __post_init__(self) -> None:
        if self.target_ms <= 0 or self.base_service_ms <= 0:
            raise ValueError("latency values must be positive")
        if self.percentile not in TRACKED_PERCENTILES:
            raise ValueError(
                f"percentile must be one of {TRACKED_PERCENTILES}, "
                f"got {self.percentile}"
            )
        if self.base_service_ms >= self.target_ms:
            raise ValueError("service time must be below the latency target")


@dataclass(frozen=True)
class WorkloadProfile:
    """Statistical microarchitectural signature of one workload."""

    name: str
    kind: WorkloadKind
    description: str
    # --- instruction mix (branch fraction is implied by block_len_mean) ---
    frac_load: float = 0.25
    frac_store: float = 0.10
    frac_int_mul: float = 0.02
    frac_fp: float = 0.05
    # --- register dependency structure ---
    dep_short_frac: float = 0.7
    dep_near_mean: float = 3.0
    dep_far_mean: float = 24.0
    dep2_frac: float = 0.4
    # --- data-side memory behavior ---
    data_footprint_kb: int = 8 * 1024
    hot_region_kb: int = 32
    hot_access_frac: float = 0.85
    streaming_frac: float = 0.0
    stream_count: int = 4
    cold_miss_frac: float = 0.05
    pointer_chase_frac: float = 0.0
    # --- instruction-side behavior ---
    instr_footprint_kb: int = 24
    block_len_mean: float = 9.0
    #: Zipf exponent of taken-edge targets in the synthetic CFG.  Higher
    #: values concentrate execution on a small hot code set (typical SPEC
    #: loop nests); lower values spread it across the footprint (deep server
    #: software stacks, which is what pressures L1-I/BTB).
    code_zipf: float = 1.15
    # --- control flow ---
    branch_predictability: float = 0.95
    # --- QoS (latency-sensitive workloads only) ---
    qos: QoSSpec | None = None

    def __post_init__(self) -> None:
        fracs = {
            "frac_load": self.frac_load,
            "frac_store": self.frac_store,
            "frac_int_mul": self.frac_int_mul,
            "frac_fp": self.frac_fp,
        }
        for field_name, value in fracs.items():
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{field_name} must be in [0, 1], got {value}")
        if sum(fracs.values()) >= 1.0:
            raise ValueError("instruction-mix fractions must leave room for ALU ops")
        for field_name in (
            "dep_short_frac",
            "dep2_frac",
            "hot_access_frac",
            "streaming_frac",
            "cold_miss_frac",
            "pointer_chase_frac",
        ):
            value = getattr(self, field_name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{field_name} must be in [0, 1], got {value}")
        if self.streaming_frac + self.cold_miss_frac + self.pointer_chase_frac > 1.0:
            raise ValueError(
                "streaming, cold-miss and pointer-chase fractions cannot exceed 1"
            )
        if not 0.5 <= self.branch_predictability <= 1.0:
            raise ValueError("branch_predictability must be in [0.5, 1]")
        if not 0.0 <= self.code_zipf <= 3.0:
            raise ValueError("code_zipf must be in [0, 3]")
        if self.block_len_mean < 2.0:
            raise ValueError("mean basic-block length must be at least 2")
        if self.hot_region_kb > self.data_footprint_kb:
            raise ValueError("hot region cannot exceed the data footprint")
        if self.kind is WorkloadKind.LATENCY_SENSITIVE and self.qos is None:
            raise ValueError(f"latency-sensitive workload {self.name!r} needs a QoSSpec")
        if self.kind is WorkloadKind.BATCH and self.qos is not None:
            raise ValueError(f"batch workload {self.name!r} must not carry a QoSSpec")

    @property
    def frac_branch(self) -> float:
        """Branch fraction implied by the mean basic-block length."""
        return 1.0 / self.block_len_mean

    @property
    def is_latency_sensitive(self) -> bool:
        return self.kind is WorkloadKind.LATENCY_SENSITIVE
