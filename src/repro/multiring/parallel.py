"""The partitioned federation facade (docs/parallel.md).

A :class:`PartitionedFederation` runs the federation of
:class:`~repro.multiring.federation.RingFederation` -- the same
:class:`~repro.multiring.config.MultiRingConfig`, global node
addressing and round-robin BAT placement, and literally the same
router, query process and retry ladder (each
:class:`~repro.multiring.partition.RingPartition` hosts them for its
ring) -- under a different clock arrangement: every ring has its **own**
simulator, synchronised by :class:`~repro.sim.parallel.ParallelKernel`
through conservative lookahead windows.

Scope: static placement with cross-ring fetches.  The placement
manager, split/merge controller and nomadic query shipping need a
shared clock and stay with :class:`RingFederation`; here they are
simply never constructed, so configurations relying on them should not
be ported.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, List, Optional

from repro.core.query import QuerySpec
from repro.events.bus import Bus
from repro.multiring.catalog import GlobalCatalog
from repro.multiring.config import MultiRingConfig
from repro.multiring.partition import RingPartition
from repro.multiring.router import fetch_timeout_for
from repro.sim.parallel import INFINITY, ParallelKernel
from repro.sim.process import Process

__all__ = ["PartitionedFederation"]


class PartitionedFederation:
    """N rings, N clocks, one conservative-lookahead kernel."""

    def __init__(self, config: Optional[MultiRingConfig] = None, workers: int = 1):
        # fossil: bench/ passes workers=1 and is frozen; the next
        # benchmark issue drops the parameter (ROADMAP)
        if workers != 1:
            raise ValueError(
                f"workers={workers!r}: the process pool was deleted, the "
                "kernel is one sequential window loop (docs/parallel.md section 6)"
            )
        self.config = config if config is not None else MultiRingConfig()
        cfg = self.config
        if cfg.max_rings != cfg.n_rings:
            raise ValueError(
                "standby rings (split/merge) need the shared-clock "
                "RingFederation; the partitioned kernel is static-topology"
            )
        if cfg.n_rings > 1 and not cfg.link_delay() > 0:
            raise ValueError(
                "the partitioned kernel derives its lookahead from the "
                "inter-ring propagation delay, which must be positive"
            )
        self.bus = Bus()  # coordinator bus: PartitionSynced rounds
        self.catalog = GlobalCatalog()  # shared, frozen once the kernel starts
        self.partitions: List[RingPartition] = [
            RingPartition(r, cfg, self.catalog) for r in range(cfg.n_rings)
        ]
        self.kernel = ParallelKernel(
            self.partitions,
            lookahead=cfg.link_delay() if cfg.n_rings > 1 else INFINITY,
            bus=self.bus,
        )
        self._next_ring = 0
        self._submitted = 0
        self._started = False

    # ------------------------------------------------------------------
    # topology helpers
    # ------------------------------------------------------------------
    @property
    def total_nodes(self) -> int:
        return self.config.total_nodes

    def global_node(self, ring_id: int, local: int) -> int:
        return ring_id * self.config.nodes_per_ring + local

    def locate(self, global_node: int) -> tuple:
        """(ring_id, local_node); static topology, so nothing is remapped."""
        if not 0 <= global_node < self.total_nodes:
            raise ValueError(f"node {global_node} outside [0, {self.total_nodes})")
        return divmod(global_node, self.config.nodes_per_ring)

    # ------------------------------------------------------------------
    # data placement
    # ------------------------------------------------------------------
    def add_bat(
        self, bat_id: int, size: int, ring: Optional[int] = None, **kwargs
    ) -> int:
        """Register a BAT; returns its *global* owner node index."""
        if self._started:
            raise RuntimeError("cannot add BATs after the kernel started")
        if ring is None:
            ring = self._next_ring % self.config.n_rings
            self._next_ring += 1
        if not 0 <= ring < self.config.n_rings:
            raise ValueError(f"ring {ring} out of range")
        local_owner = self.partitions[ring].add_bat(bat_id, size, **kwargs)
        return self.global_node(ring, local_owner)

    # ------------------------------------------------------------------
    # workload submission
    # ------------------------------------------------------------------
    def submit(self, spec: QuerySpec) -> Process:
        """Submit one query addressed to a global node index."""
        unknown = [b for b in spec.bat_ids if b not in self.catalog]
        if unknown:
            raise ValueError(f"query {spec.query_id} references unknown BATs {unknown}")
        if spec.arrival < self.kernel.now:
            raise ValueError(f"query {spec.query_id} arrives in the past")
        ring_id, local = self.locate(spec.node)
        self._submitted += 1
        return self.partitions[ring_id].submit(replace(spec, node=local))

    def submit_all(self, specs: Iterable[QuerySpec]) -> int:
        count = 0
        for spec in specs:
            self.submit(spec)
            count += 1
        return count

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _start(self) -> None:
        if self._started:
            return
        self._started = True
        for part in self.partitions:
            part.start()
        timeout = fetch_timeout_for(
            self.config, self.catalog,
            {part.ring_id: part.dc.config for part in self.partitions},
        )
        for part in self.partitions:
            part.router.fetch_timeout = timeout

    def run(self, until: float) -> None:
        self._start()
        self.kernel.run(until)

    def run_until_done(
        self, max_time: float = 3600.0, check_interval: float = 1.0
    ) -> bool:
        """Identical polling loop to ``RingFederation.run_until_done``."""
        self._start()
        while self.kernel.now < max_time:
            if self.kernel.completed >= self._submitted:
                return True
            self.kernel.run(min(self.kernel.now + check_interval, max_time))
        return self.kernel.completed >= self._submitted

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def finish(self) -> None:
        """Flush every partition's open flights; no ``run`` may follow."""
        self._start()
        self.kernel.finish()

    def ring_summaries(self) -> List[dict]:
        self.finish()
        return [part.summary() for part in self.partitions]

    def summary(self) -> dict:
        rings = self.ring_summaries()
        return {
            "n_rings": self.config.n_rings,
            "nodes_per_ring": self.config.nodes_per_ring,
            "workers": 1,  # fossil: bench/ hashes the whole summary
            "kernel_rounds": self.kernel.rounds,
            "kernel_messages": self.kernel.messages_exchanged,
            "lookahead": self.kernel.lookahead,
            "submitted": self._submitted,
            "completed": sum(r["completed"] for r in rings),
            "failed": sum(r["failed"] for r in rings),
            "events_processed": sum(r["events_processed"] for r in rings),
            "events_dispatched": sum(r["events_dispatched"] for r in rings),
            "fetches_dispatched": sum(r["fetches_dispatched"] for r in rings),
            "fetches_served": sum(r["fetches_served"] for r in rings),
            "fetches_failed": sum(r["fetches_failed"] for r in rings),
            "rings": rings,
        }
