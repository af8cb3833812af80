"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from repro.workloads import WorkloadProfile

# Example budgets of the scheduler differential test
# (tests/test_scheduler_differential.py), where one example is two whole
# simulations.  Tier-1 runs the small deterministic profile; CI selects the
# long one with ``--hypothesis-profile=scheduler-long``.  Registering them
# loads neither, so every other property test keeps the stock settings.
_SLOW_EXAMPLES = {"deadline": None, "suppress_health_check": [HealthCheck.too_slow]}
settings.register_profile("scheduler-tier1", max_examples=20, derandomize=True, **_SLOW_EXAMPLES)
settings.register_profile("scheduler-long", max_examples=500, **_SLOW_EXAMPLES)


@pytest.fixture
def tiny_profile() -> WorkloadProfile:
    """A small, fast-to-simulate workload used by integration tests."""
    return WorkloadProfile(
        name="tiny-test",
        suite="test",
        code_footprint_kb=4.0,
        inner_window_kb=2.0,
        data_footprint_kb=32.0,
        hot_data_kb=8.0,
        simulation_window=2_000,
    )


@pytest.fixture
def memory_bound_profile() -> WorkloadProfile:
    """A memory-bound workload whose working set exceeds the minimal caches."""
    return WorkloadProfile(
        name="membound-test",
        suite="test",
        code_footprint_kb=4.0,
        inner_window_kb=2.0,
        data_footprint_kb=768.0,
        hot_data_kb=384.0,
        hot_data_fraction=0.85,
        sequential_fraction=0.35,
        mean_dependence_distance=12.0,
        simulation_window=2_000,
    )
