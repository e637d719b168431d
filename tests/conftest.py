"""Shared fixtures: tiny sampling configurations and common profiles.

Tests use deliberately small instruction budgets — they verify behavior and
invariants, not paper-fidelity statistics (the benchmarks do that).
"""

from __future__ import annotations

import threading

import pytest

from repro.cpu.config import CoreConfig
from repro.cpu.sampling import SamplingConfig
from repro.workloads.registry import get_profile


@pytest.fixture(autouse=True)
def no_thread_left_alive():
    """Fail a test that leaves a thread alive.  ``ExecutionEngine.run_jobs``
    forks no pool beside another live thread, so a thread one test left
    behind would quietly run the next tests' pools in process."""
    before = set(threading.enumerate())
    yield
    left = [thread for thread in threading.enumerate() if thread not in before]
    assert not left, f"threads left alive: {left}"


@pytest.fixture(scope="session")
def tiny_sampling() -> SamplingConfig:
    """One short sample: fast enough for unit tests."""
    return SamplingConfig(
        n_samples=1, warmup_instructions=1000, measure_instructions=1000, seed=7
    )


@pytest.fixture(scope="session")
def small_sampling() -> SamplingConfig:
    """Two medium samples: for tests asserting relative performance."""
    return SamplingConfig(
        n_samples=2, warmup_instructions=3000, measure_instructions=3000, seed=7
    )


@pytest.fixture(scope="session")
def base_config() -> CoreConfig:
    return CoreConfig()


@pytest.fixture(scope="session")
def web_search_profile():
    return get_profile("web_search")


@pytest.fixture(scope="session")
def zeusmp_profile():
    return get_profile("zeusmp")


@pytest.fixture(scope="session")
def gamess_profile():
    return get_profile("gamess")
