"""Conservative-lookahead parallel simulation kernel (docs/parallel.md).

The classic deployment runs every ring on one :class:`~repro.sim.engine.
Simulator`.  This module shards a federation into **partitions** -- one
ring, one simulator each -- and advances them in lockstep *windows*
bounded by a conservative lookahead: no partition may execute past the
earliest instant at which any peer could still send it a message.

The protocol is the classic null-message scheme (Chandy/Misra/Bryant)
specialised to the Data Cyclotron topology, where the only inter-ring
traffic is the gateway fetch/serve exchange:

1. **Deliver** -- cross-partition messages collected in the previous
   round are handed to their destination partitions, which schedule
   them at their (pre-stamped) delivery times.
2. **Grant** -- every partition reports its *earliest output time*
   (EOT): a lower bound on the emission time of its next cross-partition
   message, plus the link lookahead (the inter-ring propagation delay,
   which is never simulated inside a partition -- it lives entirely in
   the message timestamp, so EOT really is a floor on what a peer can
   receive).  Each grant is published as a
   :class:`~repro.events.types.TimeGrantIssued` event.
3. **Run** -- all partitions execute events strictly below the window
   edge ``W = min(EOT)`` (``Simulator.run(until=W, inclusive=False)``),
   one after another.  Events *at* the edge are deferred until
   edge-stamped messages have been delivered, so a partition's trace
   never depends on the order its peers ran in.
4. **Exchange** -- emitted messages are collected, sorted by the
   canonical ``(deliver_at, source, seq)`` key, and carried into the
   next round's deliver step.  A :class:`~repro.events.types.
   PartitionSynced` event closes the round.

Every step is deterministic -- the window schedule depends only on
partition states, and deliveries are canonically ordered -- so a run is
a pure function of its seed; tests/test_parallel_equivalence.py pins
the per-ring event streams with repr-hash digests.

The kernel is one sequential loop in one process: "parallel" names the
algorithm, not the execution (docs/parallel.md section 6 has the
measurements a process pool failed on).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.events.types import PartitionSynced

__all__ = ["CrossPartitionMessage", "ParallelKernel"]

INFINITY = float("inf")


class CrossPartitionMessage:
    """The envelope of one timestamped inter-partition message.

    ``deliver_at`` is stamped by the *sender* as emission time plus the
    link propagation delay; the kernel guarantees it is never below the
    window edge at which the message is exchanged, so the destination
    can always still schedule it.  ``(deliver_at, src, seq)`` is the
    canonical total order every delivery follows.
    """

    __slots__ = ("deliver_at", "src", "seq", "dst", "payload", "size")

    def __init__(
        self,
        deliver_at: float,
        src: int,
        seq: int,
        dst: int,
        payload: Any,
        size: int,
    ):
        self.deliver_at = deliver_at
        self.src = src
        self.seq = seq
        self.dst = dst
        self.payload = payload
        self.size = size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CrossPartitionMessage(t={self.deliver_at:.6f}, "
            f"{self.src}->{self.dst}, #{self.seq}, {self.payload!r})"
        )


def _msg_key(msg: CrossPartitionMessage) -> Tuple[float, int, int]:
    return (msg.deliver_at, msg.src, msg.seq)


class ParallelKernel:
    """Coordinate N partition simulators through lookahead windows.

    Partitions are duck-typed; the kernel needs:

    * ``sim`` -- the partition's :class:`~repro.sim.engine.Simulator`,
    * ``start()`` / ``finish()`` -- lifecycle hooks,
    * ``end_of_timestep(lookahead) -> float`` -- the EOT bound,
    * ``deliver(msg)`` / ``collect_outbox()`` -- message plumbing,
    * ``completed`` -- queries finished so far.

    Message ``dst`` fields index into the ``partitions`` sequence.
    """

    def __init__(
        self,
        partitions: Sequence[Any],
        lookahead: float,
        bus: Optional[Any] = None,
    ):
        if not partitions:
            raise ValueError("ParallelKernel needs at least one partition")
        if not lookahead > 0:
            raise ValueError("lookahead must be positive (got %r)" % lookahead)
        self.partitions = list(partitions)
        self.lookahead = lookahead
        self.bus = bus
        self.now = 0.0
        self.rounds = 0
        self.messages_exchanged = 0
        self._carry: List[CrossPartitionMessage] = []
        self._started = False
        self._finished = False

    def run(self, until: float) -> None:
        """Advance every partition to simulated time ``until``."""
        if self._finished:
            raise RuntimeError("kernel already finished")
        if until < self.now:
            raise ValueError(f"cannot run backwards to {until} (now {self.now})")
        parts = self.partitions
        if not self._started:
            self._started = True
            for part in parts:
                part.start()
        bus, lookahead = self.bus, self.lookahead
        final = False
        while not final:
            carry = self._carry
            for msg in carry:
                parts[msg.dst].deliver(msg)
            horizon = min(p.end_of_timestep(lookahead) for p in parts)
            # the window edge, and whether it closes the run
            target = min(horizon, until)
            final = until <= horizon
            for p in parts:
                sim = p.sim
                # a partition with nothing due before the edge only has
                # its clock moved there, as Simulator.run would do
                due = sim.peek()
                if due is not None and (due < target or (final and due == target)):
                    sim.run(until=target, inclusive=final)
                else:
                    sim.skip_to(target, final)
            out: List[CrossPartitionMessage] = []
            for p in parts:
                out.extend(p.collect_outbox())
            out.sort(key=_msg_key)
            self._carry = out
            self.rounds += 1
            self.messages_exchanged += len(carry)
            if bus is not None and bus.active:
                bus.publish(PartitionSynced(target, target, len(parts), len(carry)))
        self.now = until

    @property
    def completed(self) -> int:
        """Queries finished across all partitions."""
        return sum(p.completed for p in self.partitions)

    def finish(self) -> None:
        """Flush every partition's open flights.  Idempotent; no
        :meth:`run` may follow."""
        if self._finished:
            return
        self._finished = True
        for part in self.partitions:
            part.finish()
