"""Seed-determinism regression tests for every workload generator.

Two generators built with identical arguments must emit identical
query streams, and a scenario run must be event-bit-identical across
repeats -- that contract is what makes the ``repro scenarios``
verdicts comparable across commits and what protects the rotation
fast-forward equivalence work (docs/performance.md) from silent
nondeterminism sneaking in through a workload.
"""

import pytest

from repro.core.config import MB, DataCyclotronConfig
from repro.core.ring import DataCyclotron
from repro.events.tracer import Tracer
from repro.workloads.base import UniformDataset, populate_ring
from repro.workloads.gaussian import GaussianWorkload
from repro.workloads.scenarios import (
    DiurnalWorkload,
    FlashCrowdWorkload,
    LocalityShiftWorkload,
    MultiTenantWorkload,
)
from repro.workloads.skewed import SkewedWorkload, paper_phases
from repro.workloads.suite import run_scenario, scenario_names
from repro.workloads.uniform import UniformWorkload

DATASET = UniformDataset(n_bats=120, min_size=MB, max_size=2 * MB, seed=0)


def build(factory, seed):
    common = dict(n_nodes=4, min_bats=1, max_bats=3,
                  min_proc_time=0.05, max_proc_time=0.10, seed=seed)
    if factory is UniformWorkload:
        return UniformWorkload(DATASET, queries_per_second=20.0, duration=4.0, **common)
    if factory is GaussianWorkload:
        return GaussianWorkload(DATASET, queries_per_second=20.0, duration=4.0,
                                mean=60.0, std=10.0, **common)
    if factory is SkewedWorkload:
        return SkewedWorkload(DATASET, paper_phases(time_scale=0.05, rate_scale=0.1),
                              **common)
    if factory is DiurnalWorkload:
        return DiurnalWorkload(DATASET, base_rate=30.0, period=4.0, duration=6.0,
                               **common)
    if factory is FlashCrowdWorkload:
        return FlashCrowdWorkload(DATASET, base_rate=20.0, burst_start=2.0,
                                  burst_duration=1.0, duration=6.0, **common)
    if factory is MultiTenantWorkload:
        return MultiTenantWorkload(DATASET, n_tenants=4, total_rate=40.0,
                                   duration=5.0, **common)
    if factory is LocalityShiftWorkload:
        return LocalityShiftWorkload(DATASET, rate=30.0, duration=6.0, **common)
    raise AssertionError(factory)


GENERATORS = [
    UniformWorkload,
    GaussianWorkload,
    SkewedWorkload,
    DiurnalWorkload,
    FlashCrowdWorkload,
    MultiTenantWorkload,
    LocalityShiftWorkload,
]


@pytest.mark.parametrize("factory", GENERATORS)
def test_same_seed_means_identical_query_streams(factory):
    for seed in (0, 7):
        first = list(build(factory, seed).queries())
        second = list(build(factory, seed).queries())
        assert first == second  # QuerySpec/PinStep dataclass equality


@pytest.mark.parametrize("factory", GENERATORS)
def test_different_seeds_mean_different_streams(factory):
    a = list(build(factory, 0).queries())
    b = list(build(factory, 1).queries())
    assert a != b


def test_generator_is_restartable():
    """queries() must be a fresh stream per call, not a spent iterator."""
    workload = build(DiurnalWorkload, 0)
    assert list(workload.queries()) == list(workload.queries())


def trace_run(seed: int):
    """One small simulated run; returns the full event record list."""
    dc = DataCyclotron(DataCyclotronConfig(
        n_nodes=4, seed=seed, bandwidth=40 * MB, bat_queue_capacity=15 * MB,
        disk_latency=1e-4, load_all_interval=0.02,
    ))
    tracer = Tracer().attach(dc.bus)
    populate_ring(dc, DATASET)
    build(FlashCrowdWorkload, seed).submit_to(dc)
    dc.run_until_done(max_time=600.0)
    return tracer.records


def test_scenario_simulation_is_event_bit_identical_across_repeats():
    assert trace_run(seed=3) == trace_run(seed=3)


@pytest.mark.parametrize("name", scenario_names())
def test_suite_scenarios_are_deterministic(name):
    first = run_scenario(name, seed=1)
    second = run_scenario(name, seed=1)
    assert first == second
