"""Mixed-engine workload: three QPU classes on one ring (docs/qpu.md).

The QPU refactor's payoff scenario: point lookups, MAL analytics and
streaming aggregates share a single hot-set economy.  One table is
partitioned over the ring, then three tenant classes hammer it through
their respective engines:

* **kv** -- high-rate point probes with a hot key set, so a couple of
  partitions accumulate LOI against everyone else,
* **mal** -- moderate-rate SQL group-sum range scans (the paper's own
  query class),
* **stream** -- low-rate whole-table streaming folds that touch every
  partition exactly once per query, in ring-cycle order.

Arrivals sit on per-class deterministic grids and every random choice
comes from a seeded per-class stream, so a ``(params, seed)`` pair
replays bit-identically -- the property the scenario suite's per-seed
verdicts rely on.  The scenario wrapper lives in
:mod:`repro.workloads.suite` (``mixed-engine``), which grades each
class against its own :class:`~repro.metrics.slo.EngineSloTarget`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Tuple

import numpy as np

from repro.dbms.qpu import KvLookup, StreamAggregate

__all__ = ["MixedEngineWorkload"]

# (arrival, node, request) -- request is SQL text or a QPU request object
Submission = Tuple[float, int, Any]

HOT_KEYS = 16         # size of the KV hot key set
HOT_FRACTION = 0.8    # probes hitting the hot set
MISS_FRACTION = 0.02  # probes for keys past the table end


@dataclass
class MixedEngineWorkload:
    """Deterministic three-engine request mix over one partitioned table."""

    n_rows: int = 6000
    rows_per_partition: int = 500
    n_nodes: int = 4
    kv_rate: float = 30.0        # point probes per simulated second
    mal_rate: float = 5.0        # SQL range scans per simulated second
    stream_rate: float = 1.0     # whole-table folds per simulated second
    duration: float = 5.0
    table: str = "mixed"
    seed: int = 0
    counts: Dict[str, int] = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_rows < self.rows_per_partition:
            raise ValueError("need at least one full partition")
        if self.duration <= 0:
            raise ValueError("duration must be positive")

    # ------------------------------------------------------------------
    # data
    # ------------------------------------------------------------------
    def table_data(self) -> Dict[str, np.ndarray]:
        rng = np.random.default_rng(self.seed)
        return {
            "id": np.arange(self.n_rows, dtype=np.int64),
            "val": np.round(rng.uniform(0.0, 100.0, self.n_rows), 3),
            "grp": rng.integers(0, 8, self.n_rows),
        }

    def load_into(self, rdb) -> None:
        """Load the shared table into a :class:`RingDatabase`."""
        rdb.load_table(
            self.table,
            self.table_data(),
            rows_per_partition=self.rows_per_partition,
        )

    # ------------------------------------------------------------------
    # request streams
    # ------------------------------------------------------------------
    def _kv_requests(self) -> Iterator[Submission]:
        """Zipf-ish probes: ``HOT_FRACTION`` land on ``HOT_KEYS`` keys
        inside the first partition, a sliver are deliberate misses."""
        rng = random.Random(self.seed * 7919 + 1)
        hot = [rng.randrange(self.rows_per_partition) for _ in range(HOT_KEYS)]
        for i in range(int(self.duration * self.kv_rate)):
            roll = rng.random()
            if roll < MISS_FRACTION:
                key = self.n_rows + rng.randrange(1000)
            elif roll < MISS_FRACTION + HOT_FRACTION:
                key = hot[rng.randrange(len(hot))]
            else:
                key = rng.randrange(self.n_rows)
            yield (
                i / self.kv_rate,
                rng.randrange(self.n_nodes),
                KvLookup(table=self.table, key=key, column="val"),
            )

    def _mal_requests(self) -> Iterator[Submission]:
        rng = random.Random(self.seed * 7919 + 2)
        for i in range(int(self.duration * self.mal_rate)):
            lo = rng.randrange(0, self.n_rows - self.rows_per_partition)
            hi = lo + rng.randrange(
                self.rows_per_partition // 2, 3 * self.rows_per_partition
            )
            sql = (
                f"SELECT grp, sum(val) s FROM {self.table} "
                f"WHERE id >= {lo} AND id < {hi} GROUP BY grp"
            )
            yield (i / self.mal_rate, rng.randrange(self.n_nodes), sql)

    def _stream_requests(self) -> Iterator[Submission]:
        rng = random.Random(self.seed * 7919 + 3)
        funcs = ("sum", "avg", "count", "max")
        for i in range(int(self.duration * self.stream_rate)):
            func = funcs[i % len(funcs)]
            grouped = i % 2 == 0
            yield (
                i / self.stream_rate,
                rng.randrange(self.n_nodes),
                StreamAggregate(
                    table=self.table,
                    value_column="val",
                    func=func,
                    group_column="grp" if grouped else None,
                ),
            )

    def submissions(self) -> List[Submission]:
        """All requests merged in arrival order (stable per class)."""
        merged = (
            list(self._kv_requests())
            + list(self._mal_requests())
            + list(self._stream_requests())
        )
        merged.sort(key=lambda s: s[0])
        return merged

    # ------------------------------------------------------------------
    def submit_to(self, rdb) -> int:
        """Load the table, submit every request; returns the count."""
        self.load_into(rdb)
        self.counts = {"kv": 0, "mal": 0, "stream": 0}
        for arrival, node, request in self.submissions():
            handle = rdb.submit_request(request, node=node, arrival=arrival)
            self.counts[handle.engine] += 1
        return sum(self.counts.values())
