"""Request-level QoS substrate.

The paper's Figures 1, 2 and 14 are measured on real server hardware driving
real latency-sensitive services.  This package substitutes a discrete-event
queueing model: bursty (MMPP-modulated) request arrivals into a pool of
workers whose service rate scales with the core performance delivered by the
SMT simulator.  That preserves exactly the relationships those figures rest
on — tail latency versus load, slack versus load, and diurnal-load case
studies — without the proprietary measurement setup.
"""

from repro.qos.queueing import (
    LatencyStats,
    MMPPConfig,
    RequestStream,
    ServiceSimulator,
)
from repro.qos.slack import (
    DutyCycleModulator,
    required_performance,
    slack_curve,
)
from repro.qos.diurnal import (
    DiurnalCaseStudy,
    web_search_cluster_load,
    youtube_cluster_load,
)
from repro.qos.loadgen import (
    clamp,
    compose_max,
    constant,
    flash_crowd,
    sinusoidal,
    step,
)

__all__ = [
    "LatencyStats",
    "MMPPConfig",
    "RequestStream",
    "ServiceSimulator",
    "DutyCycleModulator",
    "required_performance",
    "slack_curve",
    "DiurnalCaseStudy",
    "web_search_cluster_load",
    "youtube_cluster_load",
    "clamp",
    "compose_max",
    "constant",
    "flash_crowd",
    "sinusoidal",
    "step",
]
