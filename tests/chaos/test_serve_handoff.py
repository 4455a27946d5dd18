"""Gateway serve handoff under chaos (docs/workloads.md).

A gateway dies with fetch serves in flight.  With ``serve_handoff``
enabled the guard's re-election hands those serves to the new gateway
immediately; disabled, the requesters sit out their resend timers.
These tests pin the mechanism itself -- the event, the counter, the
re-dispatch target -- while tests/test_scenario_gates.py pins the
p999 improvement it buys.
"""

import pytest

from repro.core.config import MB, DataCyclotronConfig
from repro.events import types as ev
from repro.multiring.config import MultiRingConfig
from repro.multiring.federation import RingFederation
from repro.workloads.base import UniformDataset
from repro.workloads.scenarios import LocalityShiftWorkload

pytestmark = pytest.mark.chaos_smoke

N_RINGS = 3
NODES_PER_RING = 3
DURATION = 3.0


def build_federation(seed: int, serve_handoff: bool) -> RingFederation:
    fed = RingFederation(MultiRingConfig(
        base=DataCyclotronConfig(
            n_nodes=NODES_PER_RING,
            seed=seed,
            bandwidth=40 * MB,
            bat_queue_capacity=15 * MB,
            disk_latency=1e-4,
            load_all_interval=0.02,
            resend_timeout=0.5,
            resend_backoff_base=2.0,
            max_resends=6,
            resilience=True,
            replication_k=2,
        ),
        n_rings=N_RINGS,
        nodes_per_ring=NODES_PER_RING,
        gateways_per_ring=1,
        splitmerge_interval=0.0,
        placement_interval=60.0,  # placement frozen: only the fault moves data
        serve_handoff=serve_handoff,
        fetch_timeout=2.5,
    ))
    dataset = UniformDataset(n_bats=60, min_size=MB, max_size=2 * MB, seed=seed)
    for bat_id, size in sorted(dataset.sizes.items()):
        fed.add_bat(bat_id, size, ring=bat_id * N_RINGS // dataset.n_bats)
    return fed


def chaos_run(seed: int, serve_handoff: bool):
    """Crash ring 1's gateway mid-serve; returns (events, crashed_at,
    completed, summary)."""
    fed = build_federation(seed, serve_handoff)
    handoffs = []
    fed.bus.subscribe(ev.ServeHandedOff, handoffs.append)

    # arrivals on the edge rings, interest in ring 1's block: ring 1's
    # gateway serves a steady stream of first-touch fetches
    dataset_bats = 60
    edge_nodes = (
        list(range(NODES_PER_RING)) + list(range(2 * NODES_PER_RING, 3 * NODES_PER_RING))
    )
    workload = LocalityShiftWorkload(
        UniformDataset(n_bats=dataset_bats, min_size=MB, max_size=2 * MB, seed=seed),
        n_nodes=fed.config.total_nodes,
        nodes=edge_nodes,
        rate=60.0,
        center_start=dataset_bats / 3 + 3,
        center_end=2 * dataset_bats / 3 - 3,
        std=dataset_bats / 24,
        shift_duration=DURATION,
        duration=DURATION,
        min_proc_time=0.02,
        max_proc_time=0.05,
        seed=seed,
        tag="handoff",
    )
    workload.submit_to(fed)

    # deterministic sim-time watchdog: crash at the first instant after
    # t=0.5 at which the doomed gateway has a serve in flight
    crashed_at = [0.0]

    def watch() -> None:
        node = fed.router.gateway(1)
        ring = fed.rings[1]
        if not ring.ring.is_alive(node) or fed.sim.now > DURATION:
            return
        if fed.router.pending_serve_count(1, node) > 0:
            ring.crash_node(node)
            crashed_at[0] = fed.sim.now
            return
        fed.sim.post(0.005, watch)

    fed.sim.post(0.5, watch)
    completed = fed.run_until_done(max_time=120.0)
    return handoffs, crashed_at[0], completed, fed.summary(), fed


def test_handoff_moves_stranded_serves_to_a_live_gateway():
    handoffs, crashed_at, completed, summary, fed = chaos_run(0, serve_handoff=True)
    assert crashed_at > 0.0, "the watchdog found a serve in flight"
    assert completed
    assert summary["gateway_failures"] == 1
    assert summary["gateway_elections"] >= 1
    assert summary["serves_handed_off"] == len(handoffs) >= 1
    for event in handoffs:
        assert event.ring == 1
        assert event.from_node != event.to_node
        assert fed.rings[1].ring.is_alive(event.to_node)
        assert event.to_node == fed.router.gateway(1)
    assert summary["failed"] == 0, "resilience plus handoff saves every query"


def test_handoff_disabled_leaves_serves_to_the_resend_timers():
    handoffs, crashed_at, completed, summary, _fed = chaos_run(0, serve_handoff=False)
    assert crashed_at > 0.0
    assert completed, "resends still terminate, just later"
    assert handoffs == []
    assert summary["serves_handed_off"] == 0
    assert summary["failed"] == 0


def test_handoff_resolves_faster_than_resend_timers():
    # same seed, same fault instant: the only difference is the handoff,
    # and the stranded requesters finish sooner with it
    _, crash_on, _, summary_on, fed_on = chaos_run(0, serve_handoff=True)
    _, crash_off, _, summary_off, fed_off = chaos_run(0, serve_handoff=False)
    assert crash_on == crash_off, "identical runs up to the crash"
    assert fed_on.sim.now < fed_off.sim.now


def test_handoff_requires_pending_serves_and_a_replacement():
    fed = build_federation(0, serve_handoff=True)
    router = fed.router
    # nothing pending anywhere: nothing to move
    assert router.pending_serve_count(1) == 0
    assert router.handoff_serves(1, router.gateway(1)) == 0
    assert router.stats()["serves_handed_off"] == 0


def test_handoff_chaos_is_deterministic_per_seed():
    def fingerprint(run):
        handoffs, crashed_at, completed, summary, _fed = run
        return (
            [(e.t, e.bat_id, e.ring, e.from_node, e.to_node) for e in handoffs],
            crashed_at,
            completed,
            summary,
        )

    assert fingerprint(chaos_run(2, True)) == fingerprint(chaos_run(2, True))
