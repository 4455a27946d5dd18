"""The section 5.1 micro-benchmark workload.

"The experiment consists of firing 80 queries per second on each of the
10 nodes over a period of 60 seconds, and then letting the system run
until the execution of all 48000 queries have finished.  We use a
synthetic workload that consists of queries requesting between one and
five randomly chosen BATs.  The net query execution times ... are
arbitrarily determined by scoring each accessed BAT with a randomly
chosen processing time between 100 msec and 200 msec."

"The workload is restricted to queries that access remote BATs only."
"""

from __future__ import annotations

import random
from typing import Iterator, List

from repro.core.query import QuerySpec
from repro.sim.rng import RngRegistry
from repro.workloads.base import UniformDataset, Workload

__all__ = ["UniformWorkload"]


class UniformWorkload(Workload):
    """Uniform random BAT access at a fixed per-node query rate."""

    def __init__(
        self,
        dataset: UniformDataset,
        n_nodes: int = 10,
        queries_per_second: float = 80.0,
        duration: float = 60.0,
        min_bats: int = 1,
        max_bats: int = 5,
        min_proc_time: float = 0.100,
        max_proc_time: float = 0.200,
        remote_only: bool = True,
        seed: int = 0,
        tag: str = "",
    ):
        if queries_per_second <= 0 or duration <= 0:
            raise ValueError("rate and duration must be positive")
        if not 1 <= min_bats <= max_bats:
            raise ValueError("invalid BATs-per-query range")
        if not 0 < min_proc_time <= max_proc_time:
            raise ValueError("invalid processing-time range")
        self.dataset = dataset
        self.n_nodes = n_nodes
        self.queries_per_second = queries_per_second
        self.duration = duration
        self.min_bats = min_bats
        self.max_bats = max_bats
        self.min_proc_time = min_proc_time
        self.max_proc_time = max_proc_time
        self.remote_only = remote_only
        self.tag = tag
        self._rng = RngRegistry(seed)

    # ------------------------------------------------------------------
    def _eligible_bats(self, node: int) -> List[int]:
        """Remote-only workloads never touch BATs the node owns.

        Ownership is round-robin in :func:`populate_ring`, so node ``n``
        owns exactly the BATs with ``id % n_nodes == n``.
        """
        if not self.remote_only or self.n_nodes == 1:
            return self.dataset.bat_ids()
        return [b for b in self.dataset.bat_ids() if b % self.n_nodes != node]

    def pick_bats(self, rng: random.Random, eligible: List[int]) -> List[int]:
        """One query's BATs out of its node's :meth:`_eligible_bats`."""
        count = rng.randint(self.min_bats, min(self.max_bats, len(eligible)))
        return rng.sample(eligible, count)

    @property
    def total_queries(self) -> int:
        return int(self.queries_per_second * self.duration) * self.n_nodes

    def queries(self) -> Iterator[QuerySpec]:
        interval = 1.0 / self.queries_per_second
        per_node = int(self.queries_per_second * self.duration)
        query_id = 0
        for node in range(self.n_nodes):
            rng = self._rng.stream(f"node-{node}")
            # one list per node, not per query: it is the same every time
            eligible = self._eligible_bats(node)
            for k in range(per_node):
                bats = self.pick_bats(rng, eligible)
                times = [
                    rng.uniform(self.min_proc_time, self.max_proc_time)
                    for _ in bats
                ]
                yield QuerySpec.simple(
                    query_id,
                    node=node,
                    arrival=k * interval,
                    bat_ids=bats,
                    processing_times=times,
                    tag=self.tag,
                )
                query_id += 1
