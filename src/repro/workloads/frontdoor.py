"""Open-loop front-door workload: three engines, a cold wide burst.

The serving-tier grading scenario (docs/frontdoor.md).  One table with
a handful of equally-sized columns is partitioned over the ring, then
three tenant classes arrive open-loop -- nobody waits for answers, the
offered load is whatever the grids say:

* **kv** -- steady point probes: a single-partition footprint, the
  protected class;
* **mal baseline** -- narrow range scans (``id`` + ``val``: two
  columns of footprint, whatever the range -- the MAL planner binds
  whole columns);
* **stream** -- periodic whole-column folds;
* **mal burst** -- a :class:`ColdBurstWorkload`-shaped window of
  ``SELECT *`` scans that reference *every* column, tripling the
  per-query footprint exactly when the arrival rate steps up.

During the burst window the offered footprint-byte rate exceeds the
ring bandwidth several times over (``offered_byte_rate`` /
``capacity_ratio`` compute the exact figures from the same arithmetic
the statistics catalog uses), so *somebody* must shed; the scenario
twin grades who sheds better -- a blind byte valve or the
statistics-driven front door.

Determinism: per-class arrival grids, per-class seeded RNG streams,
``(params, seed)`` replays bit-identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Tuple

import numpy as np

from repro.dbms.qpu import KvLookup, StreamAggregate

__all__ = ["FrontDoorWorkload"]

# (arrival, node, request) -- request is SQL text or a QPU request object
Submission = Tuple[float, int, Any]

_VALUE_BYTES = 8  # int64 / float64 columns throughout
N_EXTRA_COLUMNS = 3  # c0..c2 beyond id/val/grp (widens SELECT *)


@dataclass
class FrontDoorWorkload:
    """Deterministic open-loop three-engine mix with a wide cold burst."""

    n_rows: int = 6000
    rows_per_partition: int = 500
    n_nodes: int = 4
    kv_rate: float = 40.0        # point probes per simulated second
    mal_rate: float = 15.0       # baseline two-column range scans / s
    stream_rate: float = 3.0     # whole-column folds / s
    burst_rate: float = 30.0     # SELECT * wide scans / s inside the window
    burst_kv_rate: float = 0.0   # extra cold probes / s inside the window
    burst_stream_rate: float = 0.0  # extra wide folds / s inside the window
    burst_start: float = 1.0
    burst_end: float = 5.0
    duration: float = 6.0
    hot_rows: int = 2000         # baseline scans stay inside this prefix
    table: str = "front"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_rows < self.rows_per_partition:
            raise ValueError("need at least one full partition")
        if not 0 <= self.burst_start <= self.burst_end <= self.duration:
            raise ValueError("burst window must sit inside the run")
        if self.hot_rows > self.n_rows:
            raise ValueError("hot_rows cannot exceed n_rows")

    # ------------------------------------------------------------------
    # data
    # ------------------------------------------------------------------
    @property
    def n_columns(self) -> int:
        return 3 + N_EXTRA_COLUMNS

    def table_data(self) -> Dict[str, np.ndarray]:
        rng = np.random.default_rng(self.seed)
        data = {
            "id": np.arange(self.n_rows, dtype=np.int64),
            "val": np.round(rng.uniform(0.0, 100.0, self.n_rows), 3),
            "grp": rng.integers(0, 8, self.n_rows),
        }
        for i in range(N_EXTRA_COLUMNS):
            data[f"c{i}"] = np.round(rng.uniform(0.0, 1.0, self.n_rows), 3)
        return data

    def load_into(self, rdb) -> None:
        rdb.load_table(
            self.table,
            self.table_data(),
            rows_per_partition=self.rows_per_partition,
        )

    # ------------------------------------------------------------------
    # offered-load arithmetic (documented in the scenario extras)
    # ------------------------------------------------------------------
    @property
    def column_bytes(self) -> int:
        return self.n_rows * _VALUE_BYTES

    @property
    def partition_bytes(self) -> int:
        return self.rows_per_partition * _VALUE_BYTES

    def offered_byte_rate(self, in_burst: bool = True) -> float:
        """Predicted footprint bytes offered per second.

        Uses the same whole-column arithmetic as the statistics
        estimator: a baseline scan binds ``id`` + ``val``, a burst
        ``SELECT *`` binds every column, a stream fold one or two
        columns (the grid alternates), a probe one partition.
        """
        rate = (
            self.kv_rate * self.partition_bytes
            + self.mal_rate * 2 * self.column_bytes
            + self.stream_rate * 1.5 * self.column_bytes
        )
        if in_burst:
            rate += self.burst_rate * self.n_columns * self.column_bytes
            rate += self.burst_kv_rate * self.partition_bytes
            rate += self.burst_stream_rate * 2 * self.column_bytes
        return rate

    def capacity_ratio(self, bandwidth: float, in_burst: bool = True) -> float:
        """Offered footprint bytes vs ring link bandwidth."""
        return self.offered_byte_rate(in_burst) / bandwidth

    # ------------------------------------------------------------------
    # request streams
    # ------------------------------------------------------------------
    def _kv_requests(self) -> Iterator[Submission]:
        rng = random.Random(self.seed * 7919 + 1)
        for i in range(int(self.duration * self.kv_rate)):
            key = rng.randrange(self.n_rows)
            yield (
                i / self.kv_rate,
                rng.randrange(self.n_nodes),
                KvLookup(table=self.table, key=key, column="val"),
            )

    def _mal_requests(self) -> Iterator[Submission]:
        """Baseline narrow scans over the hot prefix (two columns)."""
        rng = random.Random(self.seed * 7919 + 2)
        for i in range(int(self.duration * self.mal_rate)):
            lo = rng.randrange(0, max(1, self.hot_rows - 200))
            hi = lo + rng.randrange(100, 400)
            sql = (
                f"SELECT val FROM {self.table} "
                f"WHERE id >= {lo} AND id < {hi}"
            )
            yield (i / self.mal_rate, rng.randrange(self.n_nodes), sql)

    def _stream_requests(self) -> Iterator[Submission]:
        rng = random.Random(self.seed * 7919 + 3)
        funcs = ("sum", "avg", "count", "max")
        for i in range(int(self.duration * self.stream_rate)):
            yield (
                i / self.stream_rate,
                rng.randrange(self.n_nodes),
                StreamAggregate(
                    table=self.table,
                    value_column="val",
                    func=funcs[i % len(funcs)],
                    group_column="grp" if i % 2 == 0 else None,
                ),
            )

    def _burst_requests(self) -> Iterator[Submission]:
        """The cold wide flood: every column of every row, open loop."""
        rng = random.Random(self.seed * 7919 + 4)
        window = self.burst_end - self.burst_start
        for i in range(int(window * self.burst_rate)):
            yield (
                self.burst_start + i / self.burst_rate,
                rng.randrange(self.n_nodes),
                f"SELECT * FROM {self.table}",
            )

    def _burst_kv_requests(self) -> Iterator[Submission]:
        """Extra probes riding the burst (the all-engines overload mix)."""
        rng = random.Random(self.seed * 7919 + 5)
        window = self.burst_end - self.burst_start
        for i in range(int(window * self.burst_kv_rate)):
            yield (
                self.burst_start + i / self.burst_kv_rate,
                rng.randrange(self.n_nodes),
                KvLookup(
                    table=self.table, key=rng.randrange(self.n_rows),
                    column="val",
                ),
            )

    def _burst_stream_requests(self) -> Iterator[Submission]:
        """Extra grouped folds over the cold wide columns."""
        rng = random.Random(self.seed * 7919 + 6)
        window = self.burst_end - self.burst_start
        for i in range(int(window * self.burst_stream_rate)):
            column = f"c{i % N_EXTRA_COLUMNS}"
            yield (
                self.burst_start + i / self.burst_stream_rate,
                rng.randrange(self.n_nodes),
                StreamAggregate(
                    table=self.table, value_column=column, func="sum",
                    group_column="grp",
                ),
            )

    def submissions(self) -> List[Submission]:
        """All requests merged in arrival order (stable per class)."""
        merged = (
            list(self._kv_requests())
            + list(self._mal_requests())
            + list(self._stream_requests())
            + list(self._burst_requests())
            + list(self._burst_kv_requests())
            + list(self._burst_stream_requests())
        )
        merged.sort(key=lambda s: s[0])
        return merged

    # ------------------------------------------------------------------
    def offer_to(self, door) -> int:
        """Load the table (if absent) and push every arrival through a
        :class:`~repro.frontdoor.FrontDoor`; returns the offered count."""
        return door.offer_all(self.submissions())
