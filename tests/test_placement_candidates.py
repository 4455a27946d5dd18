"""The placement tick visits candidates only -- and only the right ones.

``PlacementManager._drive_interest`` used to run its body for every BAT
of the catalog on every tick; it now filters the walk down to the BATs
that can possibly qualify (docs/multiring.md, "LOI-driven placement").
The full walk lives on here as the oracle, verbatim: over randomised
interest tables, streaks, forced moves, in-flight migrations and
non-quiescent homes, both must leave the same streaks, start the same
migrations in the same order and defer the same number.

The second half pins the other property of that tick: its input is the
manager's own ``BatPinned`` subscription, so a detached MetricsCollector
(an observer) cannot change where fragments go.
"""

from types import SimpleNamespace

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import MB, DataCyclotronConfig
from repro.multiring import MultiRingConfig, RingFederation
from repro.workloads import LocalityShiftWorkload, UniformDataset

N_BATS = 12
RINGS = 4  # three active, ring 3 on standby


# ----------------------------------------------------------------------
# the reference: the walk over the whole catalog, as it stood
# ----------------------------------------------------------------------
def full_walk_drive_interest(self) -> None:
    cfg = self.config
    for bat_id in self.catalog.bat_ids:
        if bat_id in self._migrations or self.catalog.is_migrating(bat_id):
            continue
        if bat_id in self._forced:
            continue
        home = self.catalog.home(bat_id)
        home_interest = self.interest.get((home, bat_id), 0.0)
        best_ring = None
        best_interest = 0.0
        for ring_id in self.fed.active_rings:
            if ring_id == home:
                continue
            value = self.interest.get((ring_id, bat_id), 0.0)
            if value > best_interest:
                best_interest = value
                best_ring = ring_id
        qualifies = (
            best_ring is not None
            and best_interest >= cfg.migration_min_interest
            and best_interest
            >= cfg.migration_hysteresis * max(home_interest, 1e-9)
        )
        if not qualifies:
            self._streak.pop(bat_id, None)
            continue
        ring, run = self._streak.get(bat_id, (best_ring, 0))
        run = run + 1 if ring == best_ring else 1
        self._streak[bat_id] = (best_ring, run)
        if run < cfg.migration_patience:
            continue
        if self._begin(bat_id, home, best_ring):
            self._streak.pop(bat_id, None)
        else:
            self.migrations_deferred += 1


def federation(order, homes, min_interest):
    base = DataCyclotronConfig(n_nodes=2, bat_queue_capacity=15 * MB, seed=5)
    fed = RingFederation(MultiRingConfig(
        base=base, n_rings=3, max_rings=RINGS, nodes_per_ring=2,
        gateways_per_ring=1, placement_interval=0.0, splitmerge_interval=0.0,
        migration_patience=2, migration_min_interest=min_interest,
    ))
    for bat_id in order:  # catalog order is not BAT-id order
        fed.add_bat(bat_id, MB, ring=homes[bat_id])
    return fed


bat_sets = st.sets(st.integers(0, N_BATS - 1), max_size=4)
tick = st.fixed_dictionaries({
    "interest": st.dictionaries(
        st.tuples(st.integers(0, RINGS - 1), st.integers(0, N_BATS - 1)),
        st.sampled_from([1e-5, 0.2, 0.5, 1.0, 1.0, 3.0, 40.0]),
        max_size=30,
    ),
    "forced": bat_sets,
    "migrating": bat_sets,
    "busy": bat_sets,  # homes that are not quiescent: _begin refuses
})


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    order=st.permutations(range(N_BATS)),
    homes=st.lists(st.integers(0, 2), min_size=N_BATS, max_size=N_BATS),
    min_interest=st.sampled_from([0.0, 0.5]),
    seeded_streaks=st.dictionaries(
        st.integers(0, N_BATS - 1),
        st.tuples(st.integers(0, RINGS - 1), st.integers(1, 3)),
        max_size=4,
    ),
    ticks=st.lists(tick, min_size=1, max_size=5),
)
def test_candidate_walk_equals_the_full_walk(
    order, homes, min_interest, seeded_streaks, ticks
):
    fed = federation(order, homes, min_interest)
    manager = fed.placement
    assert fed.catalog.bat_ids == list(order)

    began, ref_began = [], []
    ref = SimpleNamespace(
        config=manager.config, catalog=manager.catalog, fed=fed,
        _streak=dict(seeded_streaks), migrations_deferred=0,
    )
    manager._streak = dict(seeded_streaks)

    for step in ticks:
        busy = step["busy"]

        def begin_into(log):
            def _begin(bat_id, home, to_ring):
                log.append((bat_id, home, to_ring))
                return bat_id not in busy
            return _begin

        manager._begin, ref._begin = begin_into(began), begin_into(ref_began)
        manager.interest = ref.interest = step["interest"]
        manager._forced = ref._forced = dict.fromkeys(step["forced"], 0)
        manager._migrations = ref._migrations = dict.fromkeys(step["migrating"])

        manager._drive_interest()
        full_walk_drive_interest(ref)

        assert manager._streak == ref._streak
        assert began == ref_began
        assert manager.migrations_deferred == ref.migrations_deferred


def test_reference_walk_is_not_vacuous():
    """The oracle above does begin, defer and break streaks."""
    fed = federation(range(N_BATS), [0] * N_BATS, 0.5)
    began = []
    ref = SimpleNamespace(
        config=fed.config, catalog=fed.catalog, fed=fed,
        interest={(1, 3): 5.0, (2, 4): 5.0, (3, 5): 5.0},
        _streak={3: (1, 1), 4: (2, 1), 6: (1, 1)},
        _forced={}, _migrations={}, migrations_deferred=0,
        _begin=lambda b, h, r: began.append(b) or b == 3,
    )
    full_walk_drive_interest(ref)
    assert began == [3, 4]                 # standby ring 3 never qualifies
    assert ref.migrations_deferred == 1    # BAT 4's home was busy
    assert ref._streak == {4: (2, 2)}      # 3 began, 6 lost its streak


# ----------------------------------------------------------------------
# the fold reads the bus, not the collector
# ----------------------------------------------------------------------
def _locality_shift_run(detach: bool):
    """The bench's ``fed_shift`` deployment at a fifth of its horizon."""
    n_rings = nodes = 4
    fed = RingFederation(MultiRingConfig(
        base=DataCyclotronConfig(
            n_nodes=nodes, seed=1, bandwidth=40 * MB, bat_queue_capacity=15 * MB,
        ),
        n_rings=n_rings, nodes_per_ring=nodes, splitmerge_interval=0.0,
        placement_interval=0.25, migration_patience=2, ship_threshold=0.7,
    ))
    dataset = UniformDataset(n_bats=400, min_size=MB, max_size=2 * MB, seed=1)
    for bat_id, size in sorted(dataset.sizes.items()):
        fed.add_bat(bat_id, size, ring=bat_id * n_rings // dataset.n_bats)
    if detach:
        for ring in fed.rings:
            ring.detach_metrics()
    fed.submit_all(LocalityShiftWorkload(
        dataset, n_nodes=fed.config.total_nodes, nodes=list(range(nodes)),
        rate=60.0, duration=40.0, seed=1,
    ).queries())
    assert fed.run_until_done(max_time=3600.0)
    stats = fed.placement.stats()
    return (
        stats["migrations_started"], stats["migrations_completed"],
        stats["migrations_deferred"], fed.sim.processed,
    )


def test_detaching_every_ring_collector_does_not_move_a_fragment():
    attached = _locality_shift_run(detach=False)
    assert attached[0] > 0, "the scenario must migrate something"
    assert _locality_shift_run(detach=True) == attached
