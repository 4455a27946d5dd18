"""Shared plumbing for the figure/table benchmarks.

Every benchmark runs at one of two scales:

* **quick** (default): a documented scale-down that preserves the shape
  ratios of the paper's setup -- the data:capacity ratio (~4:1), the
  rotation-time : processing-time ratio (full-ring rotation ~1.5 s vs
  100-200 ms per-BAT processing), and the per-node query pressure.
* **full** (``REPRO_FULL=1``): the paper's exact parameters (10 nodes,
  10 Gb/s, 200 MB queues, 1000 BATs of 1-10 MB, 80 q/s/node for 60 s).

Rendered tables/series are written to ``benchmarks/results/*.txt`` and
echoed to stdout.
"""

from __future__ import annotations

import functools
import os
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core import DataCyclotron, DataCyclotronConfig, MB
from repro.metrics.collector import MetricsCollector
from repro.multiring import MultiRingConfig, RingFederation
from repro.workloads.base import UniformDataset, populate_ring
from repro.workloads.gaussian import GaussianWorkload
from repro.workloads.uniform import UniformWorkload

FULL = os.environ.get("REPRO_FULL", "") not in ("", "0")

RESULTS_DIR = Path(__file__).parent / "results"


def write_result(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n=== {name} ===\n{text}")


# ----------------------------------------------------------------------
# the section 5.1 setup at either scale
# ----------------------------------------------------------------------
def uniform_params() -> Dict:
    """Knobs of the section 5.1 scenario at the active scale."""
    if FULL:
        return dict(
            n_nodes=10,
            n_bats=1000,
            min_size=1 * MB,
            max_size=10 * MB,
            bandwidth=10 * 1e9 / 8,
            queue_capacity=200 * MB,
            queries_per_second=80.0,
            duration=60.0,
            min_bats=1,
            max_bats=5,
            min_proc=0.100,
            max_proc=0.200,
            resend_timeout=None,
            max_time=1200.0,
        )
    return dict(
        n_nodes=4,
        n_bats=150,
        min_size=1 * MB,
        max_size=2 * MB,
        bandwidth=40 * MB,
        queue_capacity=15 * MB,
        queries_per_second=20.0,
        duration=10.0,
        min_bats=1,
        max_bats=3,
        min_proc=0.050,
        max_proc=0.100,
        resend_timeout=5.0,
        max_time=600.0,
    )


def build_uniform_run(
    loit_static: Optional[float],
    seed: int = 7,
    gaussian: bool = False,
    loit_levels: Tuple[float, ...] = (0.1, 0.6, 1.1),
) -> Tuple[DataCyclotron, int]:
    """One section 5.1 (or 5.3 with ``gaussian``) deployment, submitted."""
    p = uniform_params()
    dataset = UniformDataset(
        n_bats=p["n_bats"], min_size=p["min_size"], max_size=p["max_size"], seed=seed
    )
    config = DataCyclotronConfig(
        n_nodes=p["n_nodes"],
        bandwidth=p["bandwidth"],
        bat_queue_capacity=p["queue_capacity"],
        loit_static=loit_static,
        loit_levels=loit_levels,
        resend_timeout=p["resend_timeout"],
        seed=seed,
    )
    dc = DataCyclotron(config)
    populate_ring(dc, dataset)
    cls = GaussianWorkload if gaussian else UniformWorkload
    kwargs = {
        "n_nodes": p["n_nodes"],
        "queries_per_second": p["queries_per_second"],
        "duration": p["duration"],
        "min_bats": p["min_bats"],
        "max_bats": p["max_bats"],
        "min_proc_time": p["min_proc"],
        "max_proc_time": p["max_proc"],
        "seed": seed,
    }
    if gaussian:
        kwargs["mean"] = p["n_bats"] / 2
        kwargs["std"] = p["n_bats"] / 20
    workload = cls(dataset, **kwargs)
    submitted = workload.submit_to(dc)
    return dc, submitted


@functools.lru_cache(maxsize=None)
def loit_sweep_levels() -> Tuple[float, ...]:
    if FULL:
        return tuple(round(0.1 * i, 1) for i in range(1, 12))  # 0.1 .. 1.1
    return (0.1, 0.5, 1.1)


@functools.lru_cache(maxsize=None)
def run_loit_level(loit: float) -> MetricsCollector:
    """One LOIT iteration of the section 5.1 sweep (cached: Figures 6
    and 7 read the same runs)."""
    dc, _ = build_uniform_run(loit_static=loit)
    dc.run_until_done(max_time=uniform_params()["max_time"])
    return dc.metrics


def mean_or_zero(values: List[float]) -> float:
    return statistics.mean(values) if values else 0.0


# ----------------------------------------------------------------------
# federation runs (test_multiring_scaling.py)
# ----------------------------------------------------------------------
def build_federation(
    dataset: UniformDataset,
    total_nodes: int,
    n_rings: int,
    queue_capacity: int,
    seed: int,
    **multiring_kwargs,
) -> RingFederation:
    """``total_nodes`` split evenly over ``n_rings``, dataset pre-loaded."""
    assert total_nodes % n_rings == 0
    nodes_per_ring = total_nodes // n_rings
    fed = RingFederation(MultiRingConfig(
        base=DataCyclotronConfig(
            n_nodes=nodes_per_ring, bat_queue_capacity=queue_capacity, seed=seed,
        ),
        n_rings=n_rings,
        nodes_per_ring=nodes_per_ring,
        **multiring_kwargs,
    ))
    for bat_id, size in dataset.sizes.items():
        fed.add_bat(bat_id, size)
    return fed


def gaussian_workload(
    dataset: UniformDataset,
    total_nodes: int,
    total_rate: float,
    duration: float,
    min_proc: float,
    max_proc: float,
    seed: int,
) -> GaussianWorkload:
    """The section 5.3 skew: queries normal around the dataset's middle,
    at the paper's spread (``std`` = n_bats/20)."""
    return GaussianWorkload(
        dataset,
        n_nodes=total_nodes,
        queries_per_second=total_rate / total_nodes,
        duration=duration,
        mean=dataset.n_bats / 2,
        std=dataset.n_bats / 20,
        min_bats=1,
        max_bats=5,
        min_proc_time=min_proc,
        max_proc_time=max_proc,
        seed=seed,
    )


def federation_peak_request_latency(fed: RingFederation) -> float:
    """Worst wait for any BAT anywhere: the slowest in-ring request or
    the slowest cross-ring fetch (a remote pin waits for both paths)."""
    peak = 0.0
    for ring in fed.rings:
        for s in ring.metrics.bats.values():
            if s.max_request_latency > peak:
                peak = s.max_request_latency
    for latency in fed.router.fetch_latency_max.values():
        if latency > peak:
            peak = latency
    return peak
