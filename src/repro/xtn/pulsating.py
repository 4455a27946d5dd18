"""Pulsating rings: size adaptation and the ring-size sweep (section 6.3).

"We introduce the notion of pulsating rings that adaptively shrink or
grow to match the requirements of the workload ... The decision to leave
a ring can be made locally, in a self-organizing way, based on the
amount of data and requests flowing by the nodes. ... Extending a ring
calls for a named service, where nodes are awaiting a call of duty."

Two pieces:

* :class:`PulsatingController` -- the local leave/join decision rule: a
  node leaves after its resource exploitation stays under a threshold
  for several consecutive observations; an overload calls the named
  service for an extra node.
* :class:`RingSizeSweep` -- the section 6.3 "peek-preview experiment":
  the Gaussian workload of section 5.3, total query volume held stable,
  while the ring grows from 5 to 20 nodes.  Its outcome feeds Figures 10
  (maximum request latency per BAT) and 11 (maximum cycles per BAT), and
  the observed "for every five nodes added, a latency growth of 75% in
  the BAT cycle duration".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.config import MB, DataCyclotronConfig
from repro.core.ring import DataCyclotron
from repro.events import types as ev
from repro.workloads.base import UniformDataset, populate_ring
from repro.workloads.gaussian import GaussianWorkload

__all__ = [
    "EpochReport",
    "PulsatingController",
    "PulsatingRing",
    "RingSizeSweep",
    "SweepOutcome",
]


class PulsatingController:
    """The local shrink/grow decision rule of section 6.3."""

    def __init__(
        self,
        leave_threshold: float = 0.15,
        join_threshold: float = 0.90,
        patience: int = 3,
        bus=None,
        ring: int = 0,
        clock=None,
    ):
        """A node volunteers to leave after ``patience`` consecutive
        observations of exploitation below ``leave_threshold``; a node
        observing load above ``join_threshold`` calls for reinforcement.

        With a ``bus``, every decision is also published as a typed
        event (``RingLeaveVolunteered`` / ``RingJoinCalled``) stamped
        ``ring`` and timestamped by ``clock`` (a zero-argument callable,
        typically ``lambda: sim.now``), so the multiring split/merge
        controller and the tracer can subscribe.
        """
        if not 0 <= leave_threshold < join_threshold <= 1:
            raise ValueError("thresholds must satisfy 0 <= leave < join <= 1")
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.leave_threshold = leave_threshold
        self.join_threshold = join_threshold
        self.patience = patience
        self.bus = bus
        self.ring = ring
        self.clock = clock if clock is not None else (lambda: 0.0)
        self._idle_streak: Dict[int, int] = {}
        self.leave_events: List[int] = []
        self.join_calls: int = 0

    def _publish(self, event) -> None:
        if self.bus is not None and self.bus.active:
            self.bus.publish(event)

    def observe(self, node: int, exploitation: float) -> Optional[str]:
        """Feed one utilisation sample; returns "leave", "join" or None."""
        if exploitation > self.join_threshold:
            self._idle_streak[node] = 0
            self.join_calls += 1
            self._publish(ev.RingJoinCalled(self.clock(), node, self.ring))
            return "join"
        if exploitation < self.leave_threshold:
            streak = self._idle_streak.get(node, 0) + 1
            self._idle_streak[node] = streak
            if streak >= self.patience:
                self._idle_streak[node] = 0
                self.leave_events.append(node)
                self._publish(ev.RingLeaveVolunteered(self.clock(), node, self.ring))
                return "leave"
            return None
        self._idle_streak[node] = 0
        return None

    def recommend_size(self, current: int, utilisations: Sequence[float]) -> int:
        """Ring-level recommendation from a snapshot of all nodes."""
        if not utilisations:
            return current
        mean = sum(utilisations) / len(utilisations)
        if mean > self.join_threshold:
            return current + 1
        if mean < self.leave_threshold and current > 1:
            return current - 1
        return current


@dataclass
class SweepOutcome:
    """One ring size's results for Figures 10 and 11."""

    n_nodes: int
    max_request_latency: Dict[int, float]  # per BAT id (Figure 10)
    max_cycles: Dict[int, int]             # per BAT id (Figure 11)
    mean_cycle_duration: float             # the 75%-per-5-nodes claim
    finished: int
    duration: float

    @property
    def peak_latency(self) -> float:
        return max(self.max_request_latency.values(), default=0.0)

    @property
    def peak_cycles(self) -> int:
        return max(self.max_cycles.values(), default=0)


class RingSizeSweep:
    """The Gaussian scenario at several ring sizes, constant workload."""

    def __init__(
        self,
        n_bats: int = 1000,
        min_size: int = 1 * MB,
        max_size: int = 10 * MB,
        total_rate: float = 800.0,     # aggregate queries/second over the ring
        duration: float = 60.0,
        mean: Optional[float] = None,  # default: centre of the id range
        std: Optional[float] = None,
        min_proc_time: float = 0.100,
        max_proc_time: float = 0.200,
        bat_queue_capacity: int = 200 * MB,
        seed: int = 0,
    ):
        self.n_bats = n_bats
        self.min_size = min_size
        self.max_size = max_size
        self.total_rate = total_rate
        self.duration = duration
        self.mean = mean if mean is not None else n_bats / 2
        self.std = std if std is not None else n_bats / 20
        self.min_proc_time = min_proc_time
        self.max_proc_time = max_proc_time
        self.bat_queue_capacity = bat_queue_capacity
        self.seed = seed

    def dataset(self) -> UniformDataset:
        return UniformDataset(
            n_bats=self.n_bats,
            min_size=self.min_size,
            max_size=self.max_size,
            seed=self.seed,
        )

    def config(self, n_nodes: int) -> DataCyclotronConfig:
        return DataCyclotronConfig(
            n_nodes=n_nodes,
            bat_queue_capacity=self.bat_queue_capacity,
            seed=self.seed,
        )

    def workload(self, dataset: UniformDataset, n_nodes: int) -> GaussianWorkload:
        """The stable stream: ``total_rate`` spread over ``n_nodes``."""
        return GaussianWorkload(
            dataset,
            n_nodes=n_nodes,
            queries_per_second=self.total_rate / n_nodes,
            duration=self.duration,
            mean=self.mean,
            std=self.std,
            min_proc_time=self.min_proc_time,
            max_proc_time=self.max_proc_time,
            seed=self.seed,
        )

    def run_size(self, n_nodes: int, max_time: float = 3600.0) -> SweepOutcome:
        """Run the stable workload on a ring of ``n_nodes``."""
        dataset = self.dataset()
        config = self.config(n_nodes)
        dc = DataCyclotron(config)
        populate_ring(dc, dataset)
        workload = self.workload(dataset, n_nodes)
        workload.submit_to(dc)
        dc.run_until_done(max_time=max_time)

        latencies = {
            b: s.max_request_latency
            for b, s in dc.metrics.bats.items()
            if s.max_request_latency > 0
        }
        cycles = {
            b: s.max_cycles for b, s in dc.metrics.bats.items() if s.max_cycles > 0
        }
        # cycle duration estimate: per-hop transfer of the mean BAT times n
        mean_bat = dataset.mean_size
        per_hop = mean_bat / config.bandwidth + config.link_delay
        return SweepOutcome(
            n_nodes=n_nodes,
            max_request_latency=latencies,
            max_cycles=cycles,
            mean_cycle_duration=per_hop * n_nodes,
            finished=dc.metrics.finished_count(),
            duration=dc.now,
        )

    def run(self, sizes: Sequence[int] = (5, 10, 15, 20)) -> List[SweepOutcome]:
        return [self.run_size(n) for n in sizes]


# ----------------------------------------------------------------------
# epoch-based dynamic resizing
# ----------------------------------------------------------------------
@dataclass
class EpochReport:
    """What one epoch of a pulsating ring looked like."""

    epoch: int
    n_nodes: int
    submitted: int
    finished: int
    mean_lifetime: float
    mean_exploitation: float
    next_n_nodes: int

    @property
    def action(self) -> str:
        if self.next_n_nodes > self.n_nodes:
            return "grow"
        if self.next_n_nodes < self.n_nodes:
            return "shrink"
        return "stay"


class PulsatingRing:
    """Adaptive ring sizing at epoch granularity (section 6.3).

    The paper envisions nodes joining/leaving a live ring with updates
    "localized to its two (envisioned) neighbors"; we realise the
    decision loop at epoch boundaries: run an epoch of workload, measure
    each node's resource exploitation (data-channel link utilisation,
    the "amount of data and requests flowing by the nodes"), ask the
    :class:`PulsatingController` for a new size, and reconfigure.  A
    reconfigured ring starts with cold buffers -- the hot set reloads on
    demand, which mirrors the real cost of membership changes.

    ``make_workload(n_nodes, duration, epoch)`` must return an object
    with ``submit_to(dc)`` (any :class:`~repro.workloads.base.Workload`)
    whose arrivals fall within ``[0, duration)``.
    """

    def __init__(
        self,
        dataset: UniformDataset,
        make_workload,
        controller: Optional[PulsatingController] = None,
        initial_nodes: int = 10,
        min_nodes: int = 2,
        max_nodes: int = 20,
        config_overrides: Optional[dict] = None,
    ):
        if not min_nodes <= initial_nodes <= max_nodes:
            raise ValueError("need min_nodes <= initial_nodes <= max_nodes")
        self.dataset = dataset
        self.make_workload = make_workload
        self.controller = (
            controller if controller is not None else PulsatingController()
        )
        self.n_nodes = initial_nodes
        self.min_nodes = min_nodes
        self.max_nodes = max_nodes
        self.config_overrides = dict(config_overrides or {})
        self.reports: List[EpochReport] = []

    def run_epoch(self, epoch: int, duration: float, max_time: float = 3600.0) -> EpochReport:
        config = DataCyclotronConfig(
            n_nodes=self.n_nodes, **self.config_overrides
        )
        dc = DataCyclotron(config)
        populate_ring(dc, self.dataset)
        workload = self.make_workload(self.n_nodes, duration, epoch)
        submitted = workload.submit_to(dc)
        dc.run_until_done(max_time=max_time)
        horizon = max(dc.now, duration)
        # exploitation: CPU demand each node actually served, the
        # resource a leaving node would hand back to the pool
        utilisations = [
            node.cpu_seconds / (config.cores_per_node * horizon)
            for node in dc.nodes
        ]
        mean_util = sum(utilisations) / len(utilisations)
        recommended = self.controller.recommend_size(self.n_nodes, utilisations)
        next_nodes = max(self.min_nodes, min(self.max_nodes, recommended))
        lifetimes = dc.metrics.lifetimes()
        report = EpochReport(
            epoch=epoch,
            n_nodes=self.n_nodes,
            submitted=submitted,
            finished=dc.metrics.finished_count(),
            mean_lifetime=sum(lifetimes) / len(lifetimes) if lifetimes else 0.0,
            mean_exploitation=mean_util,
            next_n_nodes=next_nodes,
        )
        self.reports.append(report)
        self.n_nodes = next_nodes
        return report

    def run(self, epochs: int, epoch_duration: float) -> List[EpochReport]:
        for epoch in range(epochs):
            self.run_epoch(epoch, epoch_duration)
        return self.reports
