"""A closed-loop client population (docs/workloads.md).

The open-loop generators of :mod:`repro.workloads.scenarios` fire their
arrival grid regardless of what the system does with it -- the right
model for a front door fed by the internet.  A *closed-loop* population
models the other common shape: N clients, each with at most one query
outstanding, thinking for a while after every completion before issuing
the next.  Offered load then falls automatically as latency rises --
which is exactly the regime where an admission controller must prove it
degrades *gracefully* rather than merely shedding what an open-loop
flood would have dropped anyway.

Determinism contract: per-client RNG streams
(``RngRegistry(seed).stream("client<i>")``) and per-client query-id
namespaces make the issued stream identical across runs regardless of
how completions interleave.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.query import QuerySpec
from repro.sim.rng import RngRegistry
from repro.workloads.base import UniformDataset

__all__ = ["ClosedLoopWorkload"]

# Each client allocates query ids from its own slice of the namespace,
# so the stream is deterministic under any completion interleaving.
CLIENT_ID_SPAN = 10_000
ID_BASE = 500_000  # clear of the open-loop workloads' ids


class ClosedLoopWorkload:
    """N think-time clients, one outstanding query each."""

    def __init__(
        self,
        dataset: UniformDataset,
        n_nodes: int,
        n_clients: int = 8,
        duration: float = 8.0,
        think_min: float = 0.05,
        think_max: float = 0.20,
        min_bats: int = 1,
        max_bats: int = 3,
        min_proc_time: float = 0.05,
        max_proc_time: float = 0.10,
        nodes: Optional[Sequence[int]] = None,
        seed: int = 0,
        tag: str = "closed",
        tier: int = 0,
    ):
        if n_clients < 1:
            raise ValueError("need at least one client")
        if duration <= 0:
            raise ValueError("duration must be positive")
        if not 0 <= think_min <= think_max:
            raise ValueError("invalid think-time range")
        if not 1 <= min_bats <= max_bats <= dataset.n_bats:
            raise ValueError("invalid BATs-per-query range")
        if not 0 < min_proc_time <= max_proc_time:
            raise ValueError("invalid processing-time range")
        self.dataset = dataset
        self.n_nodes = n_nodes
        self.n_clients = n_clients
        self.duration = duration
        self.think_min = think_min
        self.think_max = think_max
        self.min_bats = min_bats
        self.max_bats = max_bats
        self.min_proc_time = min_proc_time
        self.max_proc_time = max_proc_time
        self.nodes = list(nodes) if nodes is not None else list(range(n_nodes))
        if not self.nodes:
            raise ValueError("need at least one arrival node")
        self.seed = seed
        self.tag = tag
        self.tier = tier
        # run-time accounting (reset on every submit_to)
        self.issued = 0
        self.shed = 0
        self.failed = 0
        self.latencies: list = []

    # ------------------------------------------------------------------
    def _spec(self, client: int, rng, counter: int, now: float) -> QuerySpec:
        node = self.nodes[client % len(self.nodes)]
        count = rng.randint(self.min_bats, self.max_bats)
        bats = []
        while len(bats) < count:
            bat_id = rng.randrange(self.dataset.n_bats)
            if bat_id not in bats:
                bats.append(bat_id)
        times = [
            rng.uniform(self.min_proc_time, self.max_proc_time) for _ in bats
        ]
        return QuerySpec.simple(
            ID_BASE + client * CLIENT_ID_SPAN + counter,
            node=node,
            arrival=now,
            bat_ids=bats,
            processing_times=times,
            tag=self.tag,
            tier=self.tier,
        )

    def submit_to(self, dc, gate=None) -> int:
        """Start the client population against ``dc``.

        ``dc`` is any deployment with ``sim`` and ``submit`` (classic
        ring or federation); ``gate`` optionally interposes an
        admission-controlled ``submit`` (e.g.
        :meth:`~repro.resilience.overload.OverloadController.submit`).
        A shed query costs the client a think time too -- a refused
        user backs off, they don't hammer the refused request.

        Returns the number of clients started; :attr:`issued` counts
        the queries they submit as the simulation runs.
        """
        self.issued = 0
        self.shed = 0
        self.failed = 0
        self.latencies = []
        sim = dc.sim
        registry = RngRegistry(self.seed)
        submit = gate.submit if gate is not None else dc.submit

        def think(client: int, rng) -> float:
            return rng.uniform(self.think_min, self.think_max)

        def issue(client: int, rng, counter: int) -> None:
            if sim.now >= self.duration:
                return
            spec = self._spec(client, rng, counter, sim.now)
            self.issued += 1
            proc = submit(spec)
            if proc is None:
                self.shed += 1
                sim.post(think(client, rng), issue, client, rng, counter + 1)
                return
            issued_at = sim.now

            def done(error, c=client, r=rng, k=counter, t0=issued_at):
                if error is None:
                    self.latencies.append(sim.now - t0)
                else:
                    self.failed += 1
                sim.post(think(c, r), issue, c, r, k + 1)

            proc.join().add_callback(done)

        for client in range(self.n_clients):
            rng = registry.stream(f"client{client}")
            # stagger the first issues so the population does not arrive
            # as one synchronized pulse
            sim.post(client * (self.think_min + 1e-3), issue, client, rng, 0)
        return self.n_clients
