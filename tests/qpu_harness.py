"""Shared harness for the QPU golden event-bit-identity suite.

The QPU refactor (docs/qpu.md) rehosts the MAL stack behind the
``QueryProcessingUnit`` protocol and turns ``RingDatabase`` into a
dispatcher.  The contract is that the MAL path comes out *event-bit-
identical*: for a fixed seed, every event published on the bus -- type,
timestamp, every field -- must match the pre-refactor stream.

This module defines the four deterministic SQL workloads (uniform,
gaussian-skewed, TPC-H, and repeated texts) the contract is pinned
against, and a capture helper that subscribes to every typed event
(``SimEventFired`` is excluded: it names internal callbacks, which a
refactor may legally rename) and digests the stream.  ``tests/data/golden_qpu_streams.json``
was generated by running ``python tests/qpu_harness.py`` against the
pre-refactor executor and re-recorded once, when MAL queries started
registering on the bus like every other engine's (one ``QpuQueryRouted``
and one ``QueryRegistered(tag="mal")`` more per query; result sets,
finish times and clocks unchanged).  The ``repeat`` workload was added
later and recorded against the engine that re-ran every text through
the interpreter, before repeated texts replayed their recorded ring
calls (docs/qpu.md section 7).  ``tests/test_qpu_golden.py``
replays the same workloads through the dispatcher and compares.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Dict, List

import numpy as np

import repro.events.types as ev
from repro.core import MB, DataCyclotronConfig
from repro.dbms.executor import RingDatabase

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_qpu_streams.json"
SEEDS = [0, 1, 2, 3, 4]
WORKLOADS = ("uniform", "gaussian", "tpch", "repeat")


def _event_types() -> List[type]:
    """Every typed event except the engine-internal ``SimEventFired``."""
    return [
        getattr(ev, name)
        for name in ev.__all__
        if name != "SimEventFired"
    ]


class StreamRecorder:
    """Records ``repr()`` of every published event, in publish order."""

    def __init__(self, bus) -> None:
        self.lines: List[str] = []
        self.by_type: Dict[str, int] = {}
        bus.subscribe_many(_event_types(), self._on_event)

    def _on_event(self, event) -> None:
        name = type(event).__name__
        self.lines.append(repr(event))
        self.by_type[name] = self.by_type.get(name, 0) + 1

    def digest(self) -> str:
        payload = "\n".join(self.lines).encode()
        return hashlib.sha256(payload).hexdigest()


def _ring_config(seed: int, fast_forward: bool = False) -> DataCyclotronConfig:
    # the golden snapshot pins the *classic* rotation path;
    # test_qpu_golden.py holds the coalesced one to it
    return DataCyclotronConfig(
        n_nodes=4,
        bandwidth=40 * MB,
        seed=seed,
        fast_forward=fast_forward,
    )


def _base_table(seed: int, n_rows: int = 1200) -> Dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {
        "id": np.arange(n_rows, dtype=np.int64),
        "v": np.round(rng.uniform(0.0, 100.0, n_rows), 3),
        "g": rng.integers(0, 8, n_rows),
    }


def run_uniform(seed: int, observe=None, fast_forward: bool = False) -> RingDatabase:
    """Uniformly distributed range scans and group-aggregates."""
    rdb = RingDatabase(_ring_config(seed, fast_forward))
    if observe is not None:
        observe(rdb)
    n_rows = 1200
    rdb.load_table("t", _base_table(seed, n_rows), rows_per_partition=100)
    rng = random.Random(1000 + seed)
    for i in range(12):
        lo = rng.randrange(0, n_rows - 100)
        hi = lo + rng.randrange(50, 400)
        kind = i % 3
        if kind == 0:
            sql = f"SELECT v FROM t WHERE id >= {lo} AND id < {hi}"
        elif kind == 1:
            sql = (
                f"SELECT g, sum(v) s FROM t "
                f"WHERE id >= {lo} AND id < {hi} GROUP BY g"
            )
        else:
            sql = f"SELECT count(*) c FROM t WHERE g = {rng.randrange(8)}"
        rdb.submit(sql, node=rng.randrange(4), arrival=0.05 * i)
    assert rdb.run_until_done(max_time=600.0)
    return rdb


def run_gaussian(seed: int, observe=None, fast_forward: bool = False) -> RingDatabase:
    """Gaussian-skewed ranges: the middle partitions stay hot."""
    rdb = RingDatabase(_ring_config(seed, fast_forward))
    if observe is not None:
        observe(rdb)
    n_rows = 1200
    rdb.load_table("t", _base_table(seed, n_rows), rows_per_partition=100)
    rng = random.Random(2000 + seed)
    for i in range(16):
        center = int(rng.gauss(n_rows / 2, n_rows / 8))
        center = max(0, min(n_rows - 1, center))
        width = rng.randrange(40, 200)
        lo = max(0, center - width)
        hi = min(n_rows, center + width)
        if i % 2 == 0:
            sql = f"SELECT v FROM t WHERE id >= {lo} AND id < {hi}"
        else:
            sql = (
                f"SELECT g, avg(v) a FROM t "
                f"WHERE id >= {lo} AND id < {hi} GROUP BY g"
            )
        rdb.submit(sql, node=rng.randrange(4), arrival=0.04 * i)
    assert rdb.run_until_done(max_time=600.0)
    return rdb


def run_tpch(seed: int, observe=None, fast_forward: bool = False) -> RingDatabase:
    """A handful of TPC-H queries at tiny scale over the ring."""
    from repro.workloads.tpch.queries import TPCH_QUERIES
    from repro.workloads.tpch.schema import generate_tpch

    rdb = RingDatabase(_ring_config(seed, fast_forward))
    if observe is not None:
        observe(rdb)
    for table, columns in generate_tpch(scale_factor=0.001, seed=seed).items():
        rdb.load_table(table, columns, rows_per_partition=2000)
    numbers = (1, 3, 6, 4)
    for i, number in enumerate(numbers):
        query = TPCH_QUERIES[number - 1]
        rdb.submit(query.sql, node=i % 4, arrival=0.1 * i)
    assert rdb.run_until_done(max_time=600.0)
    return rdb


def run_repeat(seed: int, observe=None, fast_forward: bool = False) -> RingDatabase:
    """Four texts, each submitted four times in a shuffled order: some
    repeats start after an earlier run of their text finished, some
    while one is still running."""
    rdb = RingDatabase(_ring_config(seed, fast_forward))
    if observe is not None:
        observe(rdb)
    n_rows = 1200
    rdb.load_table("t", _base_table(seed, n_rows), rows_per_partition=100)
    rng = random.Random(3000 + seed)
    lo = rng.randrange(0, n_rows - 400)
    hi = lo + rng.randrange(100, 400)
    texts = [
        f"SELECT v FROM t WHERE id >= {lo} AND id < {hi}",
        f"SELECT g, sum(v) s FROM t WHERE id < {hi} GROUP BY g ORDER BY g",
        f"SELECT count(*) c FROM t WHERE g = {rng.randrange(8)}",
        f"SELECT g, avg(v) a FROM t WHERE id >= {lo} GROUP BY g",
    ]
    order = [sql for sql in texts for _ in range(4)]
    rng.shuffle(order)
    for i, sql in enumerate(order):
        rdb.submit(sql, node=rng.randrange(4), arrival=0.25 * i)
    assert rdb.run_until_done(max_time=600.0)
    return rdb


RUNNERS = {
    "uniform": run_uniform,
    "gaussian": run_gaussian,
    "tpch": run_tpch,
    "repeat": run_repeat,
}


def capture(workload: str, seed: int) -> dict:
    """Run one workload with a recorder attached; return its fingerprint."""
    recorders: List[StreamRecorder] = []
    rdb = RUNNERS[workload](
        seed, observe=lambda r: recorders.append(StreamRecorder(r.dc.bus))
    )
    recorder = recorders[0]
    return {
        "n_events": len(recorder.lines),
        "by_type": dict(sorted(recorder.by_type.items())),
        "sha256": recorder.digest(),
        "now": repr(rdb.dc.now),
        "events_processed": rdb.dc.sim.processed,
        "finished": rdb.metrics.finished_count(),
    }


def generate(path: Path = GOLDEN_PATH) -> dict:
    golden = {
        workload: {str(seed): capture(workload, seed) for seed in SEEDS}
        for workload in WORKLOADS
    }
    path.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return golden


if __name__ == "__main__":
    result = generate()
    for workload, seeds in result.items():
        for seed, fp in seeds.items():
            print(
                f"{workload} seed={seed}: {fp['n_events']} events, "
                f"sha256={fp['sha256'][:12]}..."
            )
