"""The LOI-driven placement manager (docs/multiring.md).

Within a ring, Hot Set Management already moves each BAT in and out of
the hot set by its Level Of Interest.  Across rings, the analogous
signal is *per-ring aggregate interest*: how often each ring pinned or
fetched a BAT recently.  The placement manager folds those counts into
an EWMA per (ring, BAT) on a fixed tick, and re-homes a fragment when a
foreign ring's interest has dominated its home ring's by a hysteresis
factor for several consecutive ticks -- the anti-thrash discipline of
the fragment-allocation literature (arXiv:1607.06063).

A migration is only started from a *quiescent* home: no outstanding S2
entries, no blocked pins, no disk fetch in flight for the fragment.
The payload stays on the source ring until the shipment lands, so an
aborted migration (gateway death mid-flight) rolls back to a consistent
state by simply dropping the in-flight copy.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.events import types as ev
from repro.multiring.messages import MigrationShipment

if TYPE_CHECKING:  # pragma: no cover
    from repro.multiring.federation import RingFederation

__all__ = ["PlacementManager"]


class _Migration:
    __slots__ = ("gen", "bat_id", "from_ring", "to_ring", "size", "started")

    def __init__(self, gen: int, bat_id: int, from_ring: int, to_ring: int,
                 size: int, started: float):
        self.gen = gen
        self.bat_id = bat_id
        self.from_ring = from_ring
        self.to_ring = to_ring
        self.size = size
        self.started = started


def _count_pins(counts: Dict[int, int], event: ev.BatPinned) -> None:
    counts[event.bat_id] = counts.get(event.bat_id, 0) + event.count


class PlacementManager:
    """Interest accounting, migration decisions, and the cutover protocol."""

    def __init__(self, fed: "RingFederation"):
        self.fed = fed
        self.sim = fed.sim
        self.bus = fed.bus
        self.config = fed.config
        self.catalog = fed.catalog
        # raw counts since the last tick
        self._fetch_counts: Dict[Tuple[int, int], int] = {}  # (ring, bat) -> n
        # per ring, bat -> pins, fed by the manager's own typed subscription
        # on each ring's bus: a control loop must not read its input from
        # the MetricsCollector, an observer the operator may detach
        self._pin_counts: List[Dict[int, int]] = [{} for _ in fed.rings]
        for ring, counts in zip(fed.rings, self._pin_counts):
            ring.bus.subscribe(ev.BatPinned, partial(_count_pins, counts))
        # folded interest EWMA
        self.interest: Dict[Tuple[int, int], float] = {}
        # bat -> (candidate ring, consecutive ticks over the hysteresis bar)
        self._streak: Dict[int, Tuple[int, int]] = {}
        # forced moves requested by the split/merge controller: bat -> dst
        self._forced: Dict[int, int] = {}
        self._migrations: Dict[int, _Migration] = {}  # bat -> in-flight move
        self._started = False
        self.migrations_started = 0
        self.migrations_completed = 0
        self.migrations_aborted = 0
        self.migrations_deferred = 0  # quiescence not reached this tick

    # ------------------------------------------------------------------
    # signal intake
    # ------------------------------------------------------------------
    def note_fetch(self, requester_ring: int, bat_id: int) -> None:
        key = (requester_ring, bat_id)
        self._fetch_counts[key] = self._fetch_counts.get(key, 0) + 1

    def request_migration(self, bat_id: int, dst_ring: int) -> None:
        """Queue a forced move (split/merge path); executed when quiescent."""
        if self.catalog.maybe_home(bat_id) == dst_ring:
            return
        self._forced[bat_id] = dst_ring

    # ------------------------------------------------------------------
    # the periodic tick
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started or self.config.placement_interval <= 0:
            return
        self._started = True
        self.sim.post(self.config.placement_interval, self._tick)

    def _tick(self) -> None:
        self._fold_interest()
        self._drive_forced()
        self._drive_interest()
        self.sim.post(self.config.placement_interval, self._tick)

    def _fold_interest(self) -> None:
        alpha = self.config.interest_decay
        fresh: Dict[Tuple[int, int], float] = {}
        # cross-ring fetches: interest of the *requesting* ring
        for key, count in self._fetch_counts.items():
            fresh[key] = fresh.get(key, 0.0) + count
        self._fetch_counts.clear()
        # local pins: interest of the home ring (a standby or drained
        # ring keeps accumulating until it is active again)
        for ring_id in self.fed.active_rings:
            counts = self._pin_counts[ring_id]
            for bat_id, count in counts.items():
                key = (ring_id, bat_id)
                fresh[key] = fresh.get(key, 0.0) + count
            counts.clear()
        decayed: Dict[Tuple[int, int], float] = {}
        for key, value in self.interest.items():
            kept = (1.0 - alpha) * value
            if kept > 1e-6:
                decayed[key] = kept
        for key, value in fresh.items():
            decayed[key] = decayed.get(key, 0.0) + alpha * value
        self.interest = decayed

    def _drive_forced(self) -> None:
        for bat_id, dst in list(self._forced.items()):
            home = self.catalog.maybe_home(bat_id)
            if home is None or home == dst or dst not in self.fed.active_rings:
                self._forced.pop(bat_id, None)
                continue
            if bat_id in self._migrations or self.catalog.is_migrating(bat_id):
                continue
            if self._begin(bat_id, home, dst):
                self._forced.pop(bat_id, None)
            else:
                self.migrations_deferred += 1

    def _drive_interest(self) -> None:
        cfg = self.config
        # Only a BAT with enough interest on a ring other than its home
        # can qualify, and only one with a streak can lose it; every
        # other BAT of the catalog is a no-op below.  The set is a
        # membership filter only: the walk stays in catalog order so the
        # migrations of one tick start in the order they always did.
        candidates = set(self._streak)
        min_interest = cfg.migration_min_interest
        home_of = self.catalog.maybe_home
        for (ring_id, bat_id), value in self.interest.items():
            if value >= min_interest and home_of(bat_id) != ring_id:
                candidates.add(bat_id)
        if not candidates:
            return
        for bat_id in self.catalog.bat_ids:
            if bat_id not in candidates:
                continue
            if bat_id in self._migrations or self.catalog.is_migrating(bat_id):
                continue
            if bat_id in self._forced:
                continue
            home = self.catalog.home(bat_id)
            home_interest = self.interest.get((home, bat_id), 0.0)
            best_ring: Optional[int] = None
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

    # ------------------------------------------------------------------
    # the migration protocol: quiesce -> ship -> cut over
    # ------------------------------------------------------------------
    def quiescent(self, ring_id: int, bat_id: int) -> bool:
        """True when the home ring holds no live references to the BAT.

        A loaded copy still circulating is fine -- after the cutover it
        is swallowed at its former owner by the regular Hot Set
        Management path.  Loads in flight or outstanding requests are
        not: they would dangle across the ownership change.
        """
        ring = self.fed.rings[ring_id]
        owner = ring.bat_owner(bat_id)
        entry = ring.nodes[owner].s1.maybe(bat_id)
        if entry is None or entry.loading or entry.pending:
            return False
        for node in ring.nodes:
            if node.s2.has(bat_id) or node.s3.has_pins(bat_id):
                return False
            if bat_id in node._local_fetches:
                return False
        return True

    def _begin(self, bat_id: int, from_ring: int, to_ring: int) -> bool:
        if not self.quiescent(from_ring, bat_id):
            return False
        ring = self.fed.rings[from_ring]
        size = ring.bat_size(bat_id)
        gen = self.catalog.begin_migration(bat_id)
        owner = ring.bat_owner(bat_id)
        payload = ring.nodes[owner].loader.payloads.get(bat_id)
        migration = _Migration(gen, bat_id, from_ring, to_ring, size, self.sim.now)
        self._migrations[bat_id] = migration
        self.migrations_started += 1
        if self.bus.active:
            self.bus.publish(ev.MigrationStarted(
                self.sim.now, bat_id, from_ring, to_ring, size
            ))
        self.fed.router.link(from_ring, to_ring).send(
            MigrationShipment(gen, bat_id, size, payload, from_ring, to_ring),
            size + self.config.base.bat_header_size,
        )
        return True

    def on_shipment_arrived(self, shipment: MigrationShipment) -> None:
        migration = self._migrations.get(shipment.bat_id)
        if migration is None or migration.gen != shipment.mig_id:
            return  # aborted while in flight; drop the stale copy
        bat_id = shipment.bat_id
        src = self.fed.rings[migration.from_ring]
        dst = self.fed.rings[migration.to_ring]
        payload = src.remove_bat(bat_id)
        dst.add_bat(bat_id, migration.size, payload=payload)
        self.catalog.move(bat_id, migration.to_ring)
        self.catalog.end_migration(bat_id)
        self._migrations.pop(bat_id, None)
        self.migrations_completed += 1
        if self.bus.active:
            self.bus.publish(ev.FragmentMigrated(
                self.sim.now, bat_id, migration.from_ring, migration.to_ring,
                migration.size, self.sim.now - migration.started,
            ))
        self.fed.router.release_held(bat_id)

    def abort_for_ring(self, ring_id: int, reason: str) -> List[int]:
        """Roll back every in-flight migration touching ``ring_id``."""
        aborted = []
        for bat_id, migration in list(self._migrations.items()):
            if ring_id in (migration.from_ring, migration.to_ring):
                self._abort(migration, reason)
                aborted.append(bat_id)
        return aborted

    def _abort(self, migration: _Migration, reason: str) -> None:
        self._migrations.pop(migration.bat_id, None)
        self.catalog.end_migration(migration.bat_id)
        self.migrations_aborted += 1
        if self.bus.active:
            self.bus.publish(ev.MigrationAborted(
                self.sim.now, migration.bat_id, migration.from_ring,
                migration.to_ring, reason,
            ))
        # nothing moved yet: the source keeps serving; flush queued fetches
        self.fed.router.release_held(migration.bat_id)

    @property
    def in_flight(self) -> List[int]:
        return list(self._migrations)

    def stats(self) -> dict:
        return {
            "migrations_started": self.migrations_started,
            "migrations_completed": self.migrations_completed,
            "migrations_aborted": self.migrations_aborted,
            "migrations_deferred": self.migrations_deferred,
        }
