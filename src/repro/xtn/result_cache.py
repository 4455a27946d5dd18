"""Intermediate results as first-class ring citizens (paper section 6.2).

"Multi-query processing can be boosted by reusing (intermediate) query
results ... they are simply treated as persistent data and pushed into
the storage ring for queries being interested.  Like base data,
intermediate results are characterized by their age and their popularity
on the ring.  They only keep flowing as long as there is interest."

A :class:`ResultCache` keys intermediates by a caller-chosen fingerprint
(e.g. a canonicalised plan fragment).  ``publish`` registers the result
as a new BAT owned by its creator node; once published, any node can
``request``/``pin`` it exactly like base data, and the LOI machinery
ages it out naturally.  The paper's two policies are both available:
``eager`` pushes the intermediate into the ring immediately; ``lazy``
keeps it on the creator's disk until a request arrives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.core.ring import DataCyclotron

__all__ = ["CachedResult", "ResultCache"]


@dataclass
class CachedResult:
    """Bookkeeping for one published intermediate."""

    key: str
    bat_id: int
    owner: int
    size: int
    created_at: float
    hits: int = 0


class ResultCache:
    """A ring-wide index of published intermediate results."""

    def __init__(
        self,
        dc: DataCyclotron,
        first_bat_id: int = 1_000_000_000,
        eager: bool = False,
    ):
        self.dc = dc
        self.eager = eager
        self._next_bat_id = first_bat_id
        self._by_key: Dict[str, CachedResult] = {}
        self.publishes = 0
        self.lookups = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def lookup(self, key: str) -> Optional[CachedResult]:
        """Find a published intermediate; counts hit/miss statistics."""
        self.lookups += 1
        entry = self._by_key.get(key)
        if entry is None:
            self.misses += 1
            return None
        entry.hits += 1
        return entry

    def publish(
        self,
        key: str,
        size: int,
        owner: int,
        payload: Any = None,
    ) -> CachedResult:
        """Register an intermediate result created at ``owner``.

        With ``eager`` circulation the result enters the storage ring
        immediately (the "throw all intermediates into the ring" policy);
        otherwise it stays on the creator's disk until requested (the
        "stay alive in the local cache" policy).  Re-publishing a key
        returns the existing entry.
        """
        if size <= 0:
            raise ValueError("result size must be positive")
        existing = self._by_key.get(key)
        if existing is not None:
            return existing
        bat_id = self._next_bat_id
        self._next_bat_id += 1
        self.dc.add_bat(bat_id, size=size, owner=owner, payload=payload)
        entry = CachedResult(
            key=key,
            bat_id=bat_id,
            owner=owner,
            size=size,
            created_at=self.dc.sim.now,
        )
        self._by_key[key] = entry
        self.publishes += 1
        if self.eager:
            self.dc.nodes[owner].loader.try_load(bat_id)
        return entry

    def invalidate(self, key: str) -> None:
        """Drop an intermediate (e.g. after an update to its inputs).

        The owning loader marks the BAT deleted; a copy still flowing is
        swallowed on its next pass at the owner, and late requests fail
        with "BAT does not exist" -- the paper's outcome 1.
        """
        entry = self._by_key.pop(key, None)
        if entry is None:
            return
        s1 = self.dc.nodes[entry.owner].s1
        owned = s1.maybe(entry.bat_id)
        if owned is not None:
            # the next pass at the owner swallows a flowing copy classically
            self.dc.ff.flush_bat(entry.bat_id, entry.owner)
            s1.mark_deleted(owned)

    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return (self.lookups - self.misses) / self.lookups

    def entries(self) -> Dict[str, CachedResult]:
        return dict(self._by_key)
