"""Unit tests for the conservative-lookahead kernel (docs/parallel.md).

The window protocol is exercised against minimal duck-typed partitions
so every guarantee is visible in isolation: strict window boundaries,
no-overtake past a peer's time grant, canonical delivery order, and the
grant/sync events.  The engine-level primitives the kernel rests on --
``run(inclusive=False)`` and the backdated scheduling lane -- are pinned
here too.
"""

import pytest

from repro.events.bus import Bus
from repro.events import types as ev
from repro.sim.engine import SimulationError, Simulator
from repro.sim.parallel import CrossPartitionMessage, ParallelKernel

LOOKAHEAD = 0.5


# ----------------------------------------------------------------------
# engine primitives
# ----------------------------------------------------------------------
class TestEngineWindowBoundary:
    def test_inclusive_default_fires_events_at_until(self):
        sim = Simulator()
        hits = []
        sim.post_at(1.0, hits.append, "edge")
        sim.run(until=1.0)
        assert hits == ["edge"]

    def test_strict_boundary_defers_events_at_until(self):
        sim = Simulator()
        hits = []
        sim.post_at(1.0, hits.append, "edge")
        sim.run(until=1.0, inclusive=False)
        assert hits == []
        assert sim.now == 1.0  # clock still advances to the edge
        # the deferred event fires in the next (inclusive) window
        sim.run(until=1.0)
        assert hits == ["edge"]

    def test_strict_boundary_fires_everything_below_until(self):
        sim = Simulator()
        hits = []
        sim.post_at(0.25, hits.append, "a")
        sim.post_at(0.999999, hits.append, "b")
        sim.post_at(1.0, hits.append, "edge")
        sim.run(until=1.0, inclusive=False)
        assert hits == ["a", "b"]


class TestBackdatedLane:
    def test_backdated_entries_order_by_scheduling_time(self):
        # Three same-instant entries: scheduled at origins 0.3 / 0.1 /
        # 0.2; dispatch order must follow origin, not push order.
        sim = Simulator()
        hits = []
        sim.post_backdated(1.0, 0.3, hits.append, "late")
        sim.post_backdated(1.0, 0.1, hits.append, "early")
        sim.schedule_backdated_at(1.0, 0.2, hits.append, "middle")
        sim.run()
        assert hits == ["early", "middle", "late"]

    def test_backdated_interleaves_with_normal_entries(self):
        sim = Simulator()
        hits = []

        def at_half():
            # now == 0.5: a normal push records sched=0.5
            sim.post_at(1.0, hits.append, "normal@0.5")

        sim.post(0.5, at_half)
        sim.post_backdated(1.0, 0.25, hits.append, "backdated@0.25")
        sim.post_backdated(1.0, 0.75, hits.append, "backdated@0.75")
        sim.run()
        assert hits == ["backdated@0.25", "normal@0.5", "backdated@0.75"]

    def test_dispatch_origin_reports_scheduling_time(self):
        sim = Simulator()
        seen = []

        def probe():
            seen.append(sim.dispatch_origin)

        sim.post_backdated(1.0, 0.125, probe)
        sim.post_at(1.0, probe)  # normal: origin == push-time == 0.0
        sim.run()
        assert seen == [0.0, 0.125]  # origin order == dispatch order

    def test_backdated_cannot_target_the_past(self):
        sim = Simulator()
        sim.post(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.post_backdated(0.5, 0.0, lambda: None)


# ----------------------------------------------------------------------
# kernel protocol, against minimal partitions
# ----------------------------------------------------------------------
class FakePartition:
    """A duck partition: emits scripted messages, logs every delivery.

    ``sends`` is a list of ``(emit_time, dst)``; each send emits one
    message stamped ``emit_time + LOOKAHEAD``, honouring the kernel's
    lookahead contract.  Deliveries are logged as
    ``(fire_time, deliver_at, src, seq)`` so tests can assert both the
    causal placement and the canonical order.
    """

    def __init__(self, index, sends=()):
        self.index = index
        self.sim = Simulator()
        self.bus = Bus()
        self.log = []
        self.completed = 0
        self.finishes = 0
        self._outbox = []
        self._sends = sorted(sends)
        self._emitted = 0
        for t, dst in self._sends:
            self.sim.post_at(t, self._emit, t, dst)

    def _emit(self, t, dst):
        self._emitted += 1
        self._outbox.append(CrossPartitionMessage(
            t + LOOKAHEAD, self.index, self._emitted, dst, f"msg@{t}", 0
        ))

    def local_event(self, t, label):
        self.sim.post_at(t, self.log.append, (t, label))

    # --- kernel duck interface ---
    def start(self):
        pass

    def finish(self):
        self.finishes += 1

    def end_of_timestep(self, lookahead):
        pending = self._sends[self._emitted:]
        return pending[0][0] + lookahead if pending else float("inf")

    def deliver(self, msg):
        self.sim.post_at(
            msg.deliver_at,
            lambda m=msg: self.log.append((self.sim.now, m.deliver_at, m.src, m.seq)),
        )

    def collect_outbox(self):
        out = self._outbox
        self._outbox = []
        return out


class TestKernelProtocol:
    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelKernel([], lookahead=1.0)
        with pytest.raises(ValueError):
            ParallelKernel([FakePartition(0)], lookahead=0.0)
        kernel = ParallelKernel([FakePartition(0)], lookahead=1.0)
        kernel.run(5.0)
        with pytest.raises(ValueError):
            kernel.run(1.0)  # backwards

    def test_idle_partitions_take_one_window(self):
        parts = [FakePartition(0), FakePartition(1)]
        kernel = ParallelKernel(parts, lookahead=LOOKAHEAD)
        kernel.run(10.0)
        assert kernel.rounds == 1  # both grant infinity: single window
        assert all(p.sim.now == 10.0 for p in parts)

    def test_a_partition_with_nothing_due_only_moves_its_clock(self):
        # the first edge is 1.5 (A emits at 1.0) and B's own event sits
        # at 3.0: B is not run in that window, only brought to its edge;
        # in the final window both A's message and B's event are due
        sender = FakePartition(0, sends=[(1.0, 1)])
        idle = FakePartition(1)
        idle.local_event(3.0, "late")
        entered = []
        run = idle.sim.run

        def counted_run(*args, **kwargs):
            entered.append(idle.sim.now)
            run(*args, **kwargs)

        idle.sim.run = counted_run
        kernel = ParallelKernel([sender, idle], lookahead=LOOKAHEAD)
        kernel.run(10.0)
        assert kernel.rounds == 2 and entered == [1.5]
        assert idle.log == [(1.5, 1.5, 0, 1), (3.0, "late")]
        assert sender.sim.now == idle.sim.now == 10.0

    def test_no_overtake_past_a_peer_grant(self):
        # A emits at t=1.0 toward B (delivery 1.5).  B is otherwise
        # idle; without the grant protocol B's clock would reach 10.0
        # before the exchange and the delivery could not be scheduled.
        sender = FakePartition(0, sends=[(1.0, 1)])
        receiver = FakePartition(1)
        kernel = ParallelKernel([sender, receiver], lookahead=LOOKAHEAD)
        kernel.run(10.0)  # raises SimulationError if causality broke
        assert receiver.log == [(1.5, 1.5, 0, 1)]  # fired exactly at deliver_at
        assert kernel.messages_exchanged == 1

    def test_strict_window_defers_edge_events_until_delivery(self):
        # B has a local event at exactly the first window edge (1.5);
        # A's message is also stamped 1.5.  The strict boundary defers
        # B's local event past the exchange, so both fire in one heap in
        # scheduling order -- local first (pushed at build time).
        sender = FakePartition(0, sends=[(1.0, 1)])
        receiver = FakePartition(1)
        receiver.local_event(1.5, "edge-local")
        kernel = ParallelKernel([sender, receiver], lookahead=LOOKAHEAD)
        kernel.run(10.0)
        assert receiver.log == [(1.5, "edge-local"), (1.5, 1.5, 0, 1)]

    def test_deliveries_follow_canonical_order(self):
        # Two senders emit same-instant messages to one receiver; the
        # (deliver_at, src, seq) order decides scheduling order.
        a = FakePartition(0, sends=[(1.0, 2), (1.0, 2)])
        b = FakePartition(1, sends=[(1.0, 2)])
        sink = FakePartition(2)
        kernel = ParallelKernel([a, b, sink], lookahead=LOOKAHEAD)
        kernel.run(5.0)
        assert sink.log == [(1.5, 1.5, 0, 1), (1.5, 1.5, 0, 2), (1.5, 1.5, 1, 1)]

    def test_partition_synced_published_per_round(self):
        bus = Bus()
        synced = []
        bus.subscribe(ev.PartitionSynced, synced.append)
        parts = [FakePartition(0, sends=[(1.0, 1)]), FakePartition(1)]
        kernel = ParallelKernel(parts, lookahead=LOOKAHEAD, bus=bus)
        kernel.run(4.0)
        assert len(synced) == kernel.rounds
        windows = [s.window for s in synced]
        assert windows == sorted(windows)
        assert windows[-1] == 4.0
        assert all(s.partitions == 2 for s in synced)
        assert sum(s.messages for s in synced) == kernel.messages_exchanged

    def test_finish_is_idempotent_and_blocks_further_runs(self):
        parts = [FakePartition(0)]
        kernel = ParallelKernel(parts, lookahead=LOOKAHEAD)
        kernel.run(1.0)
        kernel.finish()
        kernel.finish()
        assert parts[0].finishes == 1
        with pytest.raises(RuntimeError):
            kernel.run(2.0)


class TestRingPartitionGrants:
    """The real partition's time grants, observed through a tiny run."""

    def _build(self, **kwargs):
        from repro.core.config import DataCyclotronConfig
        from repro.core.query import QuerySpec
        from repro.multiring import MultiRingConfig, PartitionedFederation

        cfg = MultiRingConfig(
            base=DataCyclotronConfig(seed=11), n_rings=2, nodes_per_ring=3
        )
        fed = PartitionedFederation(cfg, **kwargs)
        for bat_id in range(4):
            fed.add_bat(bat_id, size=1 << 20)
        # one ring-local query, one cross-ring query (bat 1 lives on ring 1)
        fed.submit(QuerySpec.simple(
            0, node=0, arrival=0.05, bat_ids=[0], processing_times=[0.001]
        ))
        fed.submit(QuerySpec.simple(
            1, node=1, arrival=0.10, bat_ids=[1], processing_times=[0.001]
        ))
        return fed

    def test_grant_labels_and_lower_bounds(self):
        fed = self._build()
        grants = []
        for part in fed.partitions:
            part.bus.subscribe(ev.TimeGrantIssued, grants.append)
        assert fed.run_until_done(max_time=20.0)
        assert grants, "no time grants were issued"
        lookahead = fed.kernel.lookahead
        labels = {g.bound for g in grants}
        assert labels <= {"idle", "inflight", "query", "inbound"}
        assert "idle" in labels and "query" in labels
        for g in grants:
            assert g.eot == float("inf") or g.eot >= g.t + lookahead

    def test_cross_ring_fetch_served(self):
        fed = self._build()
        assert fed.run_until_done(max_time=20.0)
        summary = fed.summary()
        assert summary["completed"] == 2
        assert summary["failed"] == 0
        assert summary["fetches_served"] == 1
        assert summary["kernel_messages"] >= 2  # request + reply

    def test_workers_is_a_fossil_that_fails_loudly(self):
        # bench/ still passes workers=1; nothing else is a valid value
        with pytest.raises(ValueError, match=r"docs/parallel\.md"):
            self._build(workers=2)
        default, explicit = self._build(), self._build(workers=1)
        assert default.run_until_done(max_time=20.0)
        assert explicit.run_until_done(max_time=20.0)
        assert default.summary() == explicit.summary()
        assert default.summary()["workers"] == 1
