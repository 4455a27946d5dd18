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
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.structures import (
    OutstandingRequest,
    PinTable,
    PinWait,
    RequestTable,
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
    """The fast-forward scan holds ``_requests`` by reference."""
    s2 = RequestTable()
    held = s2._requests
    s2.register(7, 1, 0.0)
    s2.clear()
    assert s2._requests is held and held == {}
    assert s2._by_query == {}
    assert s2.drop_query(1) == []


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
