"""The federation's global placement catalog.

The S-structures of the paper are per-node; a federation needs one more
level: *which ring* is a BAT homed on.  :class:`GlobalCatalog` is that
map -- the ring-id extension of S1/S2 described in docs/multiring.md.
Every router decision and every placement move reads and writes it, and
a BAT mid-migration is flagged so fetches queue instead of racing the
shipment.
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["GlobalCatalog"]


class GlobalCatalog:
    """bat_id -> home ring, with migration in-flight bookkeeping."""

    def __init__(self) -> None:
        self._home: Dict[int, int] = {}
        self._size: Dict[int, int] = {}
        # bat_id -> migration generation (guards late shipments after abort)
        self._migrating: Dict[int, int] = {}
        self._mig_gen = 0

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def place(self, bat_id: int, ring: int, size: int) -> None:
        if bat_id in self._home:
            raise ValueError(f"BAT {bat_id} already placed")
        self._home[bat_id] = ring
        self._size[bat_id] = size

    def move(self, bat_id: int, ring: int) -> None:
        if bat_id not in self._home:
            raise KeyError(f"BAT {bat_id} not placed")
        self._home[bat_id] = ring

    def home(self, bat_id: int) -> int:
        return self._home[bat_id]

    def maybe_home(self, bat_id: int) -> Optional[int]:
        return self._home.get(bat_id)

    def size(self, bat_id: int) -> int:
        return self._size[bat_id]

    def bats_on(self, ring: int) -> List[int]:
        return [b for b, r in self._home.items() if r == ring]

    def bytes_on(self, ring: int) -> int:
        return sum(self._size[b] for b, r in self._home.items() if r == ring)

    @property
    def bat_ids(self) -> List[int]:
        return list(self._home)

    def __contains__(self, bat_id: int) -> bool:
        return bat_id in self._home

    def __len__(self) -> int:
        return len(self._home)

    # ------------------------------------------------------------------
    # migration bookkeeping
    # ------------------------------------------------------------------
    def begin_migration(self, bat_id: int) -> int:
        """Flag the BAT in flight; returns the migration generation."""
        if bat_id in self._migrating:
            raise ValueError(f"BAT {bat_id} is already migrating")
        self._mig_gen += 1
        self._migrating[bat_id] = self._mig_gen
        return self._mig_gen

    def end_migration(self, bat_id: int) -> None:
        self._migrating.pop(bat_id, None)

    def is_migrating(self, bat_id: int) -> bool:
        return bat_id in self._migrating

    def migration_gen(self, bat_id: int) -> Optional[int]:
        return self._migrating.get(bat_id)
