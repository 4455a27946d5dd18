"""The Table 4 experiment: TPC-H trace replay on rings of 1..8 nodes.

Paper setup (section 5.4): "In total, the workload for each node
contains 1200 queries.  The query registration rate is 8 queries per
second ... The scheduling of the queries follows a Gaussian distribution
with mean 10 and standard deviation 2.  On this distribution the fastest
queries are the ones with higher probability to be scheduled. ... Each
node is composed by four cores."
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.config import DataCyclotronConfig
from repro.core.messages import BAT_HEADER_SIZE
from repro.core.query import PinStep, QuerySpec
from repro.core.ring import DataCyclotron
from repro.dbms.database import Database
from repro.dbms.cost import OperatorCostModel, default_cost_model
from repro.workloads.tpch.calibration import QueryTrace, calibrate
from repro.workloads.tpch.queries import TPCH_QUERIES
from repro.workloads.tpch.schema import generate_tpch

__all__ = ["TpchResult", "TpchExperiment"]

TARGET_MEAN_NET_TIME = 1.05  # core-seconds per query (Table 4, see below)


@dataclass
class TpchResult:
    """One row of Table 4."""

    label: str
    n_nodes: int
    exec_time: float
    throughput: float
    throughput_per_node: float
    cpu_pct: float

    def row(self) -> Tuple[str, float, float, float, float]:
        return (
            self.label,
            round(self.exec_time, 1),
            round(self.throughput, 1),
            round(self.throughput_per_node, 1),
            round(self.cpu_pct, 1),
        )


class TpchExperiment:
    """Calibrate once, replay on rings of any size."""

    def __init__(
        self,
        scale_factor: float = 0.01,
        seed: int = 0,
        rows_per_partition: Optional[int] = None,
        cost_model: Optional[OperatorCostModel] = None,
        time_scale: Optional[float] = None,
    ):
        """Generate data, load the local engine, calibrate the traces.

        ``time_scale`` stretches calibrated operator times; by default it
        is derived so the mean net query time matches
        :data:`TARGET_MEAN_NET_TIME` core-seconds -- the magnitude implied by
        the paper's single-node row (1200 queries, 317 s, 4 cores at
        99.7 %).
        """
        self.scale_factor = scale_factor
        self.seed = seed
        self.db = Database()
        data = generate_tpch(scale_factor=scale_factor, seed=seed)
        for table, columns in data.items():
            self.db.load_table(table, columns, rows_per_partition=rows_per_partition)
        cost_model = cost_model if cost_model is not None else default_cost_model()
        raw = sorted(
            calibrate(self.db, TPCH_QUERIES, cost_model), key=lambda t: t.net_time
        )
        if time_scale is None:
            # Normalise so the *scheduled* mix (ranks ~N(10,2) over the
            # fastest-first ordering) has the paper's mean net time --
            # its single-node row implies ~1.05 core-seconds per query
            # (1200 queries, 317 s, 4 cores at 99.7%), which makes the
            # single node CPU-bound as in Table 4.
            weights = self._rank_weights(len(raw))
            expected = sum(w * t.net_time for w, t in zip(weights, raw))
            time_scale = TARGET_MEAN_NET_TIME / expected if expected > 0 else 1.0
        self.time_scale = time_scale
        # ranked fastest-first: rank ~N(10, 2) favours the fast half
        self.traces: List[QueryTrace] = [t.scaled(time_scale) for t in raw]

    @staticmethod
    def _rank_weights(n: int, mean: float = 10.0, std: float = 2.0) -> List[float]:
        """P(rank = r) under the rounded, clipped Gaussian query pick."""
        import math

        def cdf(x: float) -> float:
            return 0.5 * (1 + math.erf((x - mean) / (std * math.sqrt(2))))

        weights = []
        for r in range(1, n + 1):
            lo = -math.inf if r == 1 else r - 0.5
            hi = math.inf if r == n else r + 0.5
            lo_p = 0.0 if lo == -math.inf else cdf(lo)
            hi_p = 1.0 if hi == math.inf else cdf(hi)
            weights.append(hi_p - lo_p)
        return weights

    # ------------------------------------------------------------------
    def pick_trace(self, rng: random.Random, mean: float = 10.0, std: float = 2.0) -> QueryTrace:
        rank = int(round(rng.gauss(mean, std)))
        rank = max(1, min(len(self.traces), rank))
        return self.traces[rank - 1]

    # ------------------------------------------------------------------
    def build_ring(
        self,
        n_nodes: int,
        queries_per_node: int = 1200,
        registration_rate: float = 8.0,
        size_scale: float = 1.0,
        config: Optional[DataCyclotronConfig] = None,
        seed: Optional[int] = None,
        transfer_mode: str = "rdma",
    ) -> Tuple[DataCyclotron, List[QuerySpec]]:
        """A ring loaded with the TPC-H partition BATs plus the specs.

        ``size_scale`` inflates BAT wire sizes, emulating a larger scale
        factor's data volumes without regenerating data (the calibration
        ran at ``scale_factor``; the paper's is SF-5).
        """
        if config is None:
            config = DataCyclotronConfig(
                n_nodes=n_nodes,
                cores_per_node=4,
                cpu_constrained=True,
                loit_static=None,
                transfer_mode=transfer_mode,
                seed=self.seed if seed is None else seed,
            )
        dc = DataCyclotron(config)
        key_to_id: Dict[tuple, int] = {}
        for handle in self.db.catalog.all_handles():
            size = max(int(handle.bat.nbytes * size_scale), 1)
            wire = size + BAT_HEADER_SIZE
            if wire > config.bat_queue_capacity:
                raise ValueError(
                    f"BAT {handle.key} scales to {wire} wire bytes, beyond the "
                    f"{config.bat_queue_capacity}-byte BAT queue: partition the "
                    f"tables (rows_per_partition) or lower size_scale"
                )
            dc.add_bat(handle.bat_id, size=size)
            key_to_id[handle.key] = handle.bat_id

        rng = random.Random(self.seed if seed is None else seed)
        specs: List[QuerySpec] = []
        query_id = 0
        interval = 1.0 / registration_rate
        for node in range(n_nodes):
            for k in range(queries_per_node):
                trace = self.pick_trace(rng)
                steps = [
                    PinStep(bat_id=key_to_id[s.bat_key], op_time=s.op_time)
                    for s in trace.steps
                ]
                specs.append(
                    QuerySpec(
                        query_id=query_id,
                        node=node,
                        arrival=k * interval,
                        steps=steps,
                        tail_time=trace.tail_time,
                        tag=f"q{trace.number}",
                    )
                )
                query_id += 1
        return dc, specs

    # ------------------------------------------------------------------
    def run(
        self,
        n_nodes: int,
        queries_per_node: int = 1200,
        registration_rate: float = 8.0,
        size_scale: float = 1.0,
        max_time: float = 3600.0,
        seed: Optional[int] = None,
        transfer_mode: str = "rdma",
    ) -> TpchResult:
        """One Table 4 row: replay the workload on an ``n_nodes`` ring."""
        dc, specs = self.build_ring(
            n_nodes,
            queries_per_node=queries_per_node,
            registration_rate=registration_rate,
            size_scale=size_scale,
            seed=seed,
            transfer_mode=transfer_mode,
        )
        dc.submit_all(specs)
        finished = dc.run_until_done(max_time=max_time, check_interval=2.0)
        if not finished:
            raise RuntimeError(
                f"TPC-H replay on {n_nodes} nodes did not finish by {max_time}s"
            )
        exec_time = max(
            rec.finished_at
            for rec in dc.metrics.queries.values()
            if rec.finished_at is not None
        )
        total = len(specs)
        return TpchResult(
            label=str(n_nodes),
            n_nodes=n_nodes,
            exec_time=exec_time,
            throughput=total / exec_time,
            throughput_per_node=total / exec_time / n_nodes,
            cpu_pct=100.0 * dc.cpu_utilisation(horizon=exec_time),
        )

    # ------------------------------------------------------------------
    def monetdb_row(
        self, single_node: TpchResult, efficiency: float = 0.70
    ) -> TpchResult:
        """The measured-MonetDB contrast row of Table 4.

        The paper attributes the gap between real MonetDB (420 s, 70 %
        CPU) and the simulated single node (317 s, 99.7 %) to thread
        management and client context switches.  We model that contrast:
        the same work at ``efficiency`` CPU utilisation.
        """
        if not 0 < efficiency <= 1:
            raise ValueError("efficiency must be in (0, 1]")
        slowdown = max((single_node.cpu_pct / 100.0) / efficiency, 1.0)
        exec_time = single_node.exec_time * slowdown
        total = single_node.throughput * single_node.exec_time
        return TpchResult(
            label="MonetDB",
            n_nodes=1,
            exec_time=exec_time,
            throughput=total / exec_time,
            throughput_per_node=total / exec_time,
            cpu_pct=100.0 * efficiency,
        )
