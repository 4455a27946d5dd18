"""The DC data loader: the owner side of hot-set membership.

Section 4 (Figure 2): BATs "are randomly assigned to nodes in the ring
where the local DC data loader becomes their owner and administers them
in its own catalog (Structure S1).  The BAT owner node is responsible
for putting it into or pulling it out of the hot set occupying the
storage ring.  Infrequently used BATs are retained on a local disk at
the discretion of the DC data loader."

Section 4.2.3: ``loadAll()`` "executes postponed BAT loads ... Every T
msec, it starts the load for the oldest ones.  If a BAT does not fit in
the BAT queue, it tries the next one and so on until it fills up the
queue.  The leftovers stay for the next call."
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict

from repro.core.config import MB
from repro.core.messages import BAT_HEADER_SIZE, BATMessage
from repro.core.structures import OwnedBat
from repro.events import types as ev

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime import NodeRuntime

__all__ = ["DataLoader"]

INITIAL_LOI = 1.0           # LOI of a freshly loaded BAT
DISK_BANDWIDTH = 400 * MB   # bytes/s: the paper's RAID reference rate


class DataLoader:
    """Owner-side load/unload machinery of one node."""

    def __init__(self, runtime: "NodeRuntime"):
        self.runtime = runtime
        self.config = runtime.config
        self.sim = runtime.sim
        # Bytes of queue space promised to disk fetches that have not yet
        # reached the BAT queue; prevents loadAll over-committing space.
        self.reserved_bytes = 0
        # Functional mode: real column payloads keyed by bat_id.
        self.payloads: Dict[int, Any] = {}

    # ------------------------------------------------------------------
    # space accounting
    # ------------------------------------------------------------------
    def wire_size(self, entry: OwnedBat) -> int:
        return entry.size + BAT_HEADER_SIZE

    def fits_in_queue(self, entry: OwnedBat) -> bool:
        """Outcome-4 test of Request Propagation: ``bat_can_be_loaded``."""
        used = self.runtime.out_data.queued_bytes + self.reserved_bytes
        return used + self.wire_size(entry) <= self.config.bat_queue_capacity

    def disk_fetch_time(self, size: int) -> float:
        return self.config.disk_latency + size / DISK_BANDWIDTH

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def try_load(self, bat_id: int) -> bool:
        """Load ``bat_id`` into the ring if the BAT queue has room.

        Returns True when a load started (or is already under way);
        otherwise the BAT is tagged pending (outcome 3 of Request
        Propagation) for a later ``load_all`` tick.
        """
        entry = self.runtime.s1.get(bat_id)
        if entry.deleted:
            return False
        if entry.loaded or entry.loading:
            return True
        if not self.fits_in_queue(entry):
            self.tag_pending(entry)
            return False
        self._start_fetch(entry)
        return True

    def tag_pending(self, entry: OwnedBat) -> None:
        if self.runtime.s1.note_pending(entry):
            entry.pending_since = self.sim.now
            if self.runtime.bus.active:
                self.runtime.bus.publish(
                    ev.LoadPostponed(self.sim.now, entry.bat_id, self.runtime.node_id)
                )

    def _start_fetch(self, entry: OwnedBat) -> None:
        entry.loading = True
        self.runtime.s1.note_unpending(entry)
        size = self.wire_size(entry)
        self.reserved_bytes += size
        self.sim.post(
            self.disk_fetch_time(entry.size),
            self._fetch_done,
            entry,
            self.runtime.epoch,
        )

    def _fetch_done(self, entry: OwnedBat, epoch: int) -> None:
        if epoch != self.runtime.epoch:
            # the node crashed mid-fetch; crash() zeroed the reservation
            # and restart() cleared the loading flag
            return
        size = self.wire_size(entry)
        self.reserved_bytes -= size
        entry.loading = False
        if entry.deleted:
            return
        entry.incarnation += 1
        message = BATMessage(
            owner=self.runtime.node_id,
            bat_id=entry.bat_id,
            size=entry.size,
            loi=INITIAL_LOI,
            payload=self.payloads.get(entry.bat_id),
            version=entry.version,
            incarnation=entry.incarnation,
        )
        entry.loaded = True
        entry.loads += 1
        self.runtime.note_bat_forwarded(entry)
        if self.runtime.bus.active:
            self.runtime.bus.publish(
                ev.BatLoaded(self.sim.now, entry.bat_id, entry.size, self.runtime.node_id)
            )
        self.runtime.forward_bat(message)

    # ------------------------------------------------------------------
    # the periodic loadAll tick (section 4.2.3)
    # ------------------------------------------------------------------
    def load_all(self) -> int:
        """Start every pending load that currently fits; returns how many."""
        s1 = self.runtime.s1
        if s1.pending_count == 0:
            return 0
        started = 0
        for entry in s1.pending_oldest_first(self.config.load_priority):
            if entry.loaded or entry.loading:
                s1.note_unpending(entry)
                continue
            if self.fits_in_queue(entry):
                self._start_fetch(entry)
                started += 1
            # else: leftovers stay for the next call
        return started

    # ------------------------------------------------------------------
    # unloading (Hot Set Management, Figure 5)
    # ------------------------------------------------------------------
    def unload(self, entry: OwnedBat) -> None:
        """Pull the BAT out of circulation; it stays on the local disk."""
        entry.loaded = False
        if self.runtime.bus.active:
            self.runtime.bus.publish(
                ev.BatUnloaded(self.sim.now, entry.bat_id, entry.size, self.runtime.node_id)
            )
