"""The three catalog structures of the DC layer (section 4.2, Figure 2).

* **S1** -- the DC data loader's catalog of all BATs *owned* by the local
  node: their size, whether they are currently loaded into the storage
  ring, and whether a load is pending because the ring was full.
* **S2** -- the outstanding requests of the local node, organised by BAT
  identifier; each entry remembers which active queries depend on the
  BAT and which of them have already pinned it.
* **S3** -- "the identity of the BATs needed urgently as indicated by the
  pin calls": the blocked pin() calls waiting for a BAT to flow past.

The paper only ever looks S2 and S3 up by BAT.  Leaving them at the
last unpin (Fig. 4 line 09) is the one lookup by *query*, and S2 keeps
the inverse index for it: per query, the BATs it registered.  The index
is an over-approximation that is allowed to go stale -- see
:class:`RequestTable`.

The ring asks the opposite question on every forward -- *which nodes*
hold an S2 entry for this BAT, which own it, which have a load pending
-- and :class:`RingIndex` answers it without visiting a node: the
tables of all nodes of a ring share one, and keep it exact from inside
their own mutators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.sim.process import Future

__all__ = [
    "RingIndex",
    "OwnedBat",
    "OwnedCatalog",
    "OutstandingRequest",
    "RequestTable",
    "PinWait",
    "PinTable",
]


# ----------------------------------------------------------------------
# the ring-level view of S1 and S2
# ----------------------------------------------------------------------
class RingIndex:
    """Per BAT, the ring positions that would stop it; per ring, the
    nodes with work for a tick.

    ``requested[bat]`` has a bit per position holding an S2 entry for
    the BAT, ``owned[bat]`` one per position whose S1 owns it (deleted
    stubs do not).  Both are *doubled* like the fast-forward lane --
    position ``p`` sets bits ``p`` and ``p + n`` -- so "the next stop
    after node ``s``" is one shift and a lowest-set-bit, whichever way
    the message travels and wherever the run wraps.  A BAT nobody asks
    for has no entry.  ``pending_nodes`` (plain, one bit per node) are
    the nodes whose S1 has a load pending, ``completed`` the queries
    finished or failed anywhere on the ring.

    The tables write it from the only places their membership changes;
    a table built alone gets a private one-position index, so none of
    those places needs a branch.
    """

    __slots__ = ("bits", "requested", "owned", "pending_nodes", "completed")

    def __init__(self, n: int = 1):
        self.bits = [(1 << p) | (1 << (p + n)) for p in range(n)]
        self.requested: Dict[int, int] = {}
        self.owned: Dict[int, int] = {}
        self.pending_nodes = 0
        self.completed = 0


def _mark(masks: Dict[int, int], key: int, bit: int) -> None:
    masks[key] = masks.get(key, 0) | bit


def _unmark(masks: Dict[int, int], key: int, bit: int) -> None:
    left = masks.get(key, 0) & ~bit
    if left:
        masks[key] = left
    else:
        masks.pop(key, None)


# ----------------------------------------------------------------------
# S1: the owner-side catalog
# ----------------------------------------------------------------------
@dataclass
class OwnedBat:
    """State the DC data loader keeps per owned BAT."""

    bat_id: int
    size: int
    loaded: bool = False          # currently part of the hot set (in the ring)
    loading: bool = False         # disk fetch in flight
    pending: bool = False         # load postponed: ring was full (outcome 3)
    pending_since: float = 0.0
    loads: int = 0                # times this BAT entered the ring
    incarnation: int = 0          # increments per (re-)load; stamps messages
    last_seen: float = 0.0        # when the owner last forwarded it
    version: int = 0              # update extension (section 6.4)
    deleted: bool = False         # dropped from the database


class OwnedCatalog:
    """S1: all BATs owned by the local node."""

    def __init__(self, index: Optional[RingIndex] = None, pos: int = 0) -> None:
        self._bats: Dict[int, OwnedBat] = {}
        # entries with the pending flag up; lets the loadAll tick skip
        # the full catalog scan when nothing is waiting (the common case)
        self.pending_count = 0
        self._index = index if index is not None else RingIndex()
        self._bit = self._index.bits[pos]
        self._node = 1 << pos

    def add(self, bat_id: int, size: int) -> OwnedBat:
        if bat_id in self._bats:
            raise ValueError(f"BAT {bat_id} already owned")
        entry = OwnedBat(bat_id=bat_id, size=size)
        self._bats[bat_id] = entry
        _mark(self._index.owned, bat_id, self._bit)
        return entry

    def remove(self, bat_id: int) -> None:
        entry = self._bats.pop(bat_id, None)
        if entry is not None:
            _unmark(self._index.owned, bat_id, self._bit)
            self.note_unpending(entry)

    def mark_deleted(self, entry: OwnedBat) -> None:
        """Drop the BAT from the database: the stub stays, ownership ends."""
        entry.deleted = True
        _unmark(self._index.owned, entry.bat_id, self._bit)

    def note_pending(self, entry: OwnedBat) -> bool:
        """Raise the pending flag; returns False if it was already up."""
        if entry.pending:
            return False
        entry.pending = True
        self.pending_count += 1
        self._index.pending_nodes |= self._node
        return True

    def note_unpending(self, entry: OwnedBat) -> None:
        if entry.pending:
            entry.pending = False
            self.pending_count -= 1
            if not self.pending_count:
                self._index.pending_nodes &= ~self._node

    def owns(self, bat_id: int) -> bool:
        entry = self._bats.get(bat_id)
        return entry is not None and not entry.deleted

    def get(self, bat_id: int) -> OwnedBat:
        return self._bats[bat_id]

    def maybe(self, bat_id: int) -> Optional[OwnedBat]:
        return self._bats.get(bat_id)

    def pending_oldest_first(self, mode: str = "age_size") -> List[OwnedBat]:
        """Pending loads ordered by waiting time (oldest first).

        ``loadAll`` "starts the load for the oldest ones" every T msec
        (section 4.2.3); in the paper's policy (``age_size``) ties break
        toward the smaller BAT so the queue fills greedily, matching the
        observed small-BAT bias of Fig. 7.  ``fifo`` ignores size -- the
        ablation baseline.
        """
        pending = []
        for b in self._bats.values():
            if not b.pending:
                continue
            if b.deleted:
                # deletion does not clear the flag itself; repair lazily
                self.note_unpending(b)
                continue
            pending.append(b)
        if mode == "fifo":
            pending.sort(key=lambda b: (b.pending_since, b.bat_id))
        else:
            pending.sort(key=lambda b: (b.pending_since, b.size, b.bat_id))
        return pending

    def __len__(self) -> int:
        return len(self._bats)

    def __iter__(self):
        return iter(self._bats.values())

    @property
    def loaded_bytes(self) -> int:
        return sum(b.size for b in self._bats.values() if b.loaded)


# ----------------------------------------------------------------------
# S2: outstanding requests
# ----------------------------------------------------------------------
@dataclass
class OutstandingRequest:
    """A local request for a remote BAT, shared by all interested queries."""

    bat_id: int
    registered_at: float
    sent: bool = False            # the request message left this node
    sent_at: float = 0.0
    served_at: Optional[float] = None  # first time the BAT reached this node
    last_data_seen: Optional[float] = None  # last time the BAT flowed past
    resends: int = 0
    # query id -> has that query pinned the BAT yet?
    queries: Dict[int, bool] = field(default_factory=dict)

    def all_pinned(self) -> bool:
        """Fig. 4 line 09: every associated query pinned the BAT."""
        return bool(self.queries) and all(self.queries.values())


class RequestTable:
    """S2: outstanding requests organised by BAT identifier.

    Beside the paper's table it keeps ``query id -> [BAT ids]``, the BATs
    a query joined in the order it joined them, so a finished query
    leaves S2 (and, through the same list, S3) in time proportional to
    its own footprint instead of walking every outstanding BAT of the
    node.  Every insert into an entry's ``queries`` dict goes through
    :meth:`register` or :meth:`mark_served`, which is what keeps the
    index *complete*: each (query, BAT) in an S2 entry or an S3 wait is
    listed.  It is deliberately not *exact*: :meth:`unregister` drops an
    entry without chasing the lists of the queries it named, so a list
    may name a BAT whose entry is gone, was re-created by other queries,
    or (unregister, then register again) appears twice.
    :meth:`drop_query` skips all three.

    ``_requests`` gains and loses keys in :meth:`register`,
    :meth:`unregister`, :meth:`drop_query` and :meth:`clear` only, and
    each of the four tells the ring's :class:`RingIndex`.
    """

    def __init__(self, index: Optional[RingIndex] = None, pos: int = 0) -> None:
        self._requests: Dict[int, OutstandingRequest] = {}
        self._by_query: Dict[int, List[int]] = {}
        index = index if index is not None else RingIndex()
        self._interest = index.requested
        self._bit = index.bits[pos]

    def register(self, bat_id: int, query_id: int, now: float) -> OutstandingRequest:
        """Attach ``query_id`` to the request for ``bat_id``, creating it.

        Returns the entry; callers check ``sent`` to decide whether a
        request message must actually leave the node -- several queries
        share one in-flight request (the absorption of section 4.2.2).
        """
        entry = self._requests.get(bat_id)
        if entry is None:
            entry = OutstandingRequest(bat_id=bat_id, registered_at=now)
            self._requests[bat_id] = entry
            _mark(self._interest, bat_id, self._bit)
        if query_id not in entry.queries:
            entry.queries[query_id] = False
            self._by_query.setdefault(query_id, []).append(bat_id)
        return entry

    def unregister(self, bat_id: int) -> None:
        if self._requests.pop(bat_id, None) is not None:
            _unmark(self._interest, bat_id, self._bit)

    def has(self, bat_id: int) -> bool:
        return bat_id in self._requests

    def get(self, bat_id: int) -> Optional[OutstandingRequest]:
        return self._requests.get(bat_id)

    def mark_pinned(self, bat_id: int, query_id: int) -> None:
        entry = self._requests.get(bat_id)
        if entry is not None and query_id in entry.queries:
            entry.queries[query_id] = True

    def mark_served(self, entry: OutstandingRequest, query_id: int) -> None:
        """A blocked pin of ``query_id`` was just served from ``entry``.

        Unlike :meth:`mark_pinned` this may *insert*: the wait can outlive
        the entry the query registered in (unregistered, then re-created
        by another query before the BAT came around).  An insert the
        index did not see would never be dropped, so this one is listed
        here rather than trusted to an older, stale listing.
        """
        if query_id not in entry.queries:
            self._by_query.setdefault(query_id, []).append(entry.bat_id)
        entry.queries[query_id] = True

    def bat_ids(self) -> List[int]:
        return list(self._requests)

    def bats_of(self, query_id: int) -> Sequence[int]:
        """The BATs ``query_id`` joined (possibly stale, possibly repeated)."""
        return self._by_query.get(query_id, ())

    def drop_query(self, query_id: int) -> List[int]:
        """Remove a finished/aborted query from every request it joined.

        Returns the BAT ids whose requests became empty and were dropped,
        in the order the query registered them, so the caller can cancel
        exactly those resend timers instead of sweeping the whole timer
        table.
        """
        empty = []
        requests = self._requests
        for bat_id in self._by_query.pop(query_id, ()):
            entry = requests.get(bat_id)
            if entry is None or query_id not in entry.queries:
                continue  # stale: unregistered since, or listed twice
            del entry.queries[query_id]
            if not entry.queries:
                del requests[bat_id]
                _unmark(self._interest, bat_id, self._bit)
                empty.append(bat_id)
        return empty

    def clear(self) -> None:
        """Forget every request and the whole index (node crash)."""
        for bat_id in self._requests:
            _unmark(self._interest, bat_id, self._bit)
        self._requests.clear()
        self._by_query.clear()

    def __len__(self) -> int:
        return len(self._requests)

    def __iter__(self):
        return iter(self._requests.values())


# ----------------------------------------------------------------------
# S3: blocked pin calls
# ----------------------------------------------------------------------
@dataclass
class PinWait:
    """A pin() call blocked until its BAT flows in from the predecessor."""

    query_id: int
    future: Future
    since: float


class PinTable:
    """S3: blocked pin calls keyed by BAT identifier.

    It has no per-query index of its own; S2's serves both tables.
    """

    def __init__(self) -> None:
        self._waits: Dict[int, List[PinWait]] = {}

    def add(self, bat_id: int, wait: PinWait) -> None:
        self._waits.setdefault(bat_id, []).append(wait)

    def has_pins(self, bat_id: int) -> bool:
        """Fig. 4 line 06: ``request_has_pin_calls``."""
        return bool(self._waits.get(bat_id))

    def pop_all(self, bat_id: int) -> List[PinWait]:
        """Take (and clear) every blocked pin for ``bat_id``."""
        return self._waits.pop(bat_id, [])

    def drop_query(self, query_id: int, bat_ids: Iterable[int]) -> None:
        """Drop the blocked pins of ``query_id``, looking only at ``bat_ids``.

        ``bat_ids`` is S2's list for the query
        (:meth:`RequestTable.bats_of`): every wait is added right after
        the same (query, BAT) was registered there, so the list covers
        them all; BATs with no wait left, or listed twice, are skipped.
        """
        for bat_id in bat_ids:
            waits = self._waits.get(bat_id)
            if waits is None:
                continue
            waits[:] = [w for w in waits if w.query_id != query_id]
            if not waits:
                del self._waits[bat_id]

    def waiting_queries(self, bat_id: int) -> List[int]:
        return [w.query_id for w in self._waits.get(bat_id, [])]

    def bat_ids(self) -> List[int]:
        return list(self._waits)

    def __len__(self) -> int:
        return sum(len(w) for w in self._waits.values())
