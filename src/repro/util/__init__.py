"""Shared utilities: RNG discipline, statistics, tables, progress reporting."""

from repro.util.progress import ProgressPrinter, format_duration
from repro.util.rng import SeedSequenceFactory, derive_seed
from repro.util.stats import (
    DistributionSummary,
    geometric_mean,
    percentile,
    summarize,
)
from repro.util.tables import format_table

__all__ = [
    "SeedSequenceFactory",
    "derive_seed",
    "DistributionSummary",
    "geometric_mean",
    "percentile",
    "summarize",
    "format_table",
    "ProgressPrinter",
    "format_duration",
]
