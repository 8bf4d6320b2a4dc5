"""Fixtures shared across test modules."""

import time

import pytest

from mrfrf.bench import build_benchmark_scenario, run_benchmark


@pytest.fixture(scope="session")
def default_run():
    """One run of the noiseless `default` preset, for the tests that only
    read it: (scenario, result, report, sim, seconds the run took)."""
    t0 = time.perf_counter()
    scenario = build_benchmark_scenario("default")
    result, report, sim = run_benchmark(scenario)
    return scenario, result, report, sim, time.perf_counter() - t0
