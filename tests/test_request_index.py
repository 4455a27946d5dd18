"""S2's per-query index against the full-table scans it replaced.

``RequestTable.drop_query`` and ``PinTable.drop_query`` used to walk
every outstanding BAT of the node; they now walk the finished query's
own list (docs/performance.md section 7).  The scans live on here,
verbatim, as the oracle: a rule machine drives both pairs of tables
through every mutation the runtime performs and compares them after
each step.  The index is allowed to be stale, so the deterministic
cases pin the ways it goes stale, and a spy counts what a drop touches.
"""

from typing import Dict, List

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.structures import (
    OutstandingRequest,
    OwnedCatalog,
    PinTable,
    PinWait,
    RequestTable,
    RingIndex,
)


# ----------------------------------------------------------------------
# the reference: the scan code as it stood before the index
# ----------------------------------------------------------------------
class ScanRequestTable:
    def __init__(self) -> None:
        self._requests: Dict[int, OutstandingRequest] = {}

    def register(self, bat_id, query_id, now):
        entry = self._requests.get(bat_id)
        if entry is None:
            entry = OutstandingRequest(bat_id=bat_id, registered_at=now)
            self._requests[bat_id] = entry
        entry.queries.setdefault(query_id, False)
        return entry

    def unregister(self, bat_id):
        self._requests.pop(bat_id, None)

    def get(self, bat_id):
        return self._requests.get(bat_id)

    def mark_pinned(self, bat_id, query_id):
        entry = self._requests.get(bat_id)
        if entry is not None and query_id in entry.queries:
            entry.queries[query_id] = True

    def bat_ids(self):
        return list(self._requests)

    def drop_query(self, query_id):
        empty = []
        for bat_id, entry in self._requests.items():
            entry.queries.pop(query_id, None)
            if not entry.queries:
                empty.append(bat_id)
        for bat_id in empty:
            del self._requests[bat_id]
        return empty


class ScanPinTable:
    def __init__(self) -> None:
        self._waits: Dict[int, List[PinWait]] = {}

    def add(self, bat_id, wait):
        self._waits.setdefault(bat_id, []).append(wait)

    def pop_all(self, bat_id):
        return self._waits.pop(bat_id, [])

    def bat_ids(self):
        return list(self._waits)

    def drop_query(self, query_id):
        empty = []
        for bat_id, waits in self._waits.items():
            waits[:] = [w for w in waits if w.query_id != query_id]
            if not waits:
                empty.append(bat_id)
        for bat_id in empty:
            del self._waits[bat_id]


def wait_for(query_id):
    return PinWait(query_id=query_id, future=None, since=0.0)


def s2_state(table):
    return [(b, list(e.queries.items())) for b, e in table._requests.items()]


def s3_state(table):
    return [(b, [w.query_id for w in ws]) for b, ws in table._waits.items()]


# ----------------------------------------------------------------------
# the rule machine
# ----------------------------------------------------------------------
bats = st.integers(min_value=0, max_value=5)
queries = st.integers(min_value=0, max_value=4)


class IndexedVersusScan(RuleBasedStateMachine):
    """Every S2/S3 mutation of ``NodeRuntime``, on both pairs of tables."""

    def __init__(self):
        super().__init__()
        self.s2, self.s3 = RequestTable(), PinTable()
        self.ref2, self.ref3 = ScanRequestTable(), ScanPinTable()

    @rule(bat=bats, query=queries)
    def request(self, bat, query):
        self.s2.register(bat, query, 0.0)
        self.ref2.register(bat, query, 0.0)

    @rule(bat=bats, query=queries)
    def blocking_pin(self, bat, query):
        # runtime.pin: the register always precedes the s3.add
        self.request(bat, query)
        self.s3.add(bat, wait_for(query))
        self.ref3.add(bat, wait_for(query))

    @rule(bat=bats)
    def unregister(self, bat):
        self.s2.unregister(bat)
        self.ref2.unregister(bat)

    @rule(bat=bats, query=queries)
    def mark_pinned(self, bat, query):
        self.s2.mark_pinned(bat, query)
        self.ref2.mark_pinned(bat, query)

    @rule(bat=bats)
    def serve_pins(self, bat):
        # runtime._serve_pins; the reference is the direct dict write
        entry, ref_entry = self.s2.get(bat), self.ref2.get(bat)
        assert (entry is None) == (ref_entry is None)
        if entry is None:
            return
        for wait in self.s3.pop_all(bat):
            self.s2.mark_served(entry, wait.query_id)
        for wait in self.ref3.pop_all(bat):
            ref_entry.queries[wait.query_id] = True

    @rule(bat=bats)
    def fail_request(self, bat):
        # runtime._fail_request / adopt_ownership
        self.unregister(bat)
        assert [w.query_id for w in self.s3.pop_all(bat)] == [
            w.query_id for w in self.ref3.pop_all(bat)
        ]

    @rule(query=queries)
    def release_query(self, query):
        # runtime.release_query against the two scans
        self.s3.drop_query(query, self.s2.bats_of(query))
        emptied = self.s2.drop_query(query)
        self.ref3.drop_query(query)
        assert len(emptied) == len(set(emptied))
        assert set(emptied) == set(self.ref2.drop_query(query))
        assert self.s2.bats_of(query) == ()

    @rule()
    def crash(self):
        for bat in self.s3.bat_ids():
            self.s3.pop_all(bat)
        self.s2.clear()
        for bat in self.ref3.bat_ids():
            self.ref3.pop_all(bat)
        for bat in self.ref2.bat_ids():
            self.ref2.unregister(bat)
        assert self.s2._by_query == {}

    @invariant()
    def tables_agree(self):
        assert s2_state(self.s2) == s2_state(self.ref2)
        assert s3_state(self.s3) == s3_state(self.ref3)

    @invariant()
    def index_is_complete(self):
        index = self.s2._by_query
        for bat, named in s2_state(self.s2):
            for query, _pinned in named:
                assert bat in index[query]
        for bat, waiting in s3_state(self.s3):
            for query in waiting:
                assert bat in index[query]


IndexedVersusScan.TestCase.settings = settings(
    max_examples=200, stateful_step_count=40, deadline=None
)
TestIndexedVersusScan = IndexedVersusScan.TestCase


# ----------------------------------------------------------------------
# the ways the index goes stale, one by one
# ----------------------------------------------------------------------
def test_served_wait_in_a_recreated_entry_is_still_dropped():
    """Query 1 blocks on BAT 7, the entry it registered in goes away,
    query 2 re-creates it, then the BAT arrives: serving the old wait
    inserts query 1 into an entry it never registered in."""
    s2, s3 = RequestTable(), PinTable()
    s2.register(7, 1, 0.0)
    s3.add(7, wait_for(1))
    s2.unregister(7)
    entry = s2.register(7, 2, 1.0)
    for wait in s3.pop_all(7):
        s2.mark_served(entry, wait.query_id)
    assert entry.queries == {2: False, 1: True}
    assert s2.drop_query(1) == []
    assert entry.queries == {2: False}
    assert s2.drop_query(2) == [7]
    assert len(s2) == 0 and s2._by_query == {}


def test_mark_served_indexes_a_query_it_has_to_insert():
    s2 = RequestTable()
    entry = s2.register(7, 2, 0.0)
    s2.mark_served(entry, 1)  # query 1 never went through register()
    assert s2.bats_of(1) == [7]
    s2.drop_query(2)
    assert s2.drop_query(1) == [7]
    assert not s2.has(7)


def test_bat_listed_twice_is_dropped_once():
    """unregister -> register again lists the BAT a second time."""
    s2, s3 = RequestTable(), PinTable()
    s2.register(7, 1, 0.0)
    s2.unregister(7)
    s2.register(7, 1, 1.0)
    s3.add(7, wait_for(1))
    s2.register(8, 1, 1.0)
    assert s2.bats_of(1) == [7, 7, 8]
    s3.drop_query(1, s2.bats_of(1))
    assert len(s3) == 0
    assert s2.drop_query(1) == [7, 8]
    assert len(s2) == 0


def test_drop_query_skips_entries_that_no_longer_name_the_query():
    s2 = RequestTable()
    s2.register(7, 1, 0.0)
    s2.unregister(7)
    s2.register(7, 2, 1.0)  # same BAT, someone else's entry now
    assert s2.drop_query(1) == []
    assert set(s2.get(7).queries) == {2}


def test_emptied_bats_come_back_in_registration_order():
    s2 = RequestTable()
    for bat_id in (30, 10, 20):
        s2.register(bat_id, 1, 0.0)
    s2.register(10, 2, 0.0)
    assert s2.drop_query(1) == [30, 20]


def test_clear_empties_the_table_in_place():
    """Nothing is rebound by a crash, and the ring's index forgets the
    node along with the table."""
    index = RingIndex(4)
    s2, other = RequestTable(index, 2), RequestTable(index, 0)
    held = s2._requests
    s2.register(7, 1, 0.0)
    other.register(7, 5, 0.0)
    assert index.requested == {7: index.bits[2] | index.bits[0]}
    s2.clear()
    assert s2._requests is held and held == {}
    assert s2._by_query == {}
    assert s2.drop_query(1) == []
    assert index.requested == {7: index.bits[0]}


# ----------------------------------------------------------------------
# the ring's view of all its nodes' S1 and S2 against looking at each node
# ----------------------------------------------------------------------
def walk_to_stop(stops_at, n, start, step):
    """Hops a message out of ``start`` makes before the node it is
    delivered into satisfies ``stops_at`` -- the per-hop question the
    fast-forward scan used to ask; ``n`` if nobody does."""
    for hops in range(n):
        if stops_at((start + step * (hops + 1)) % n):
            return hops
    return n


def shift_to_stop(mask, n, start, step):
    """The same from a doubled mask: a shift and a lowest set bit one
    way, a mask and a highest set bit the other."""
    if not mask:
        return n
    if step > 0:
        ahead = mask >> (start + 1)
        return (ahead & -ahead).bit_length() - 1
    top = start + n
    return top - (mask & ((1 << top) - 1)).bit_length()


ring_bats = st.integers(min_value=0, max_value=3)
positions = st.integers(min_value=0, max_value=63)


class RingIndexVersusNodes(RuleBasedStateMachine):
    """Every way S1 / S2 membership changes, on 3-64 nodes sharing one
    :class:`RingIndex`; the index must equal a walk over the nodes."""

    @initialize(n=st.integers(3, 64))
    def build(self, n):
        self.n = n
        self.index = RingIndex(n)
        self.s1 = [OwnedCatalog(self.index, p) for p in range(n)]
        self.s2 = [RequestTable(self.index, p) for p in range(n)]

    def node(self, pos):
        return pos % self.n

    @rule(pos=positions, bat=ring_bats, query=queries)
    def register(self, pos, bat, query):
        self.s2[self.node(pos)].register(bat, query, 0.0)

    @rule(pos=positions, bat=ring_bats)
    def unregister(self, pos, bat):
        self.s2[self.node(pos)].unregister(bat)

    @rule(pos=positions, query=queries)
    def drop_query(self, pos, query):
        self.s2[self.node(pos)].drop_query(query)

    @rule(pos=positions, bat=ring_bats, query=queries)
    def mark_served(self, pos, bat, query):
        table = self.s2[self.node(pos)]
        entry = table.get(bat)
        if entry is not None:
            table.mark_served(entry, query)

    @rule(pos=positions)
    def crash(self, pos):
        self.s2[self.node(pos)].clear()

    @rule(pos=positions, bat=ring_bats)
    def add_bat(self, pos, bat):
        s1 = self.s1[self.node(pos)]
        if s1.maybe(bat) is None:
            s1.add(bat, 1)

    @rule(pos=positions, bat=ring_bats)
    def remove_bat(self, pos, bat):
        self.s1[self.node(pos)].remove(bat)

    @rule(pos=positions, bat=ring_bats)
    def delete_bat(self, pos, bat):
        s1 = self.s1[self.node(pos)]
        if s1.maybe(bat) is not None:
            s1.mark_deleted(s1.get(bat))

    @rule(pos=positions, bat=ring_bats, up=st.booleans())
    def pending(self, pos, bat, up):
        s1 = self.s1[self.node(pos)]
        entry = s1.maybe(bat)
        if entry is not None:
            (s1.note_pending if up else s1.note_unpending)(entry)

    @rule(pos=positions)
    def load_all(self, pos):
        self.s1[self.node(pos)].pending_oldest_first()  # repairs deleted stubs

    @invariant()
    def index_equals_a_walk_over_the_nodes(self):
        n, index = self.n, self.index
        for masks, tables, has in (
            (index.requested, self.s2, lambda table, bat: bat in table._requests),
            (index.owned, self.s1, lambda table, bat: table.owns(bat)),
        ):
            assert 0 not in masks.values()  # nobody left: no entry
            for bat in range(4):
                mask = masks.get(bat, 0)
                assert mask == sum(
                    index.bits[p] for p in range(n) if has(tables[p], bat)
                )
                for start in (0, n // 2, n - 1):
                    for step in (1, -1):
                        assert shift_to_stop(mask, n, start, step) == walk_to_stop(
                            lambda p: has(tables[p], bat), n, start, step
                        )
        assert index.pending_nodes == sum(
            1 << p for p in range(n) if self.s1[p].pending_count
        )
        for s1 in self.s1:
            assert s1.pending_count == sum(b.pending for b in s1)


RingIndexVersusNodes.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
TestRingIndexVersusNodes = RingIndexVersusNodes.TestCase


# ----------------------------------------------------------------------
# cost, counted in operations
# ----------------------------------------------------------------------
def counting(base, names):
    """A subclass of ``base`` whose listed methods count their calls."""

    class Spy(base):
        touched = 0

    for name in names:
        def method(self, *args, _inner=getattr(base, name)):
            Spy.touched += 1
            return _inner(self, *args)

        setattr(Spy, name, method)
    return Spy


SpyDict = counting(dict, (
    "__contains__", "__getitem__", "__delitem__", "__len__", "__iter__",
    "get", "pop", "setdefault",
))
SpyList = counting(list, ("__iter__", "__len__", "__getitem__", "__setitem__"))


def test_drop_query_touches_nothing_outside_the_query_footprint():
    s2, s3 = RequestTable(), PinTable()
    for bat_id in range(5000):
        entry = s2.register(bat_id, 1, 0.0)
        entry.queries = SpyDict(entry.queries)
        s3.add(bat_id, wait_for(1))
        s3._waits[bat_id] = SpyList(s3._waits[bat_id])
    for bat_id in (6001, 6002, 6003):
        s2.register(bat_id, 2, 0.0)
        s3.add(bat_id, wait_for(2))
    SpyDict.touched = SpyList.touched = 0

    s3.drop_query(2, s2.bats_of(2))
    assert s2.drop_query(2) == [6001, 6002, 6003]

    assert SpyDict.touched == 0
    assert SpyList.touched == 0
    assert len(s2) == 5000 and len(s3) == 5000

    # the spies do see a drop that is theirs
    s3.drop_query(1, [0])
    s2.drop_query(1)
    assert SpyList.touched > 0 and SpyDict.touched >= 5000
