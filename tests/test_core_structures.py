"""Unit tests for the S1/S2/S3 catalog structures."""

import pytest

from repro.core.structures import (
    OutstandingRequest,
    OwnedCatalog,
    PinTable,
    PinWait,
    RequestTable,
)
from repro.sim.engine import Simulator
from repro.sim.process import Future


# ----------------------------------------------------------------------
# S1
# ----------------------------------------------------------------------
def test_s1_add_and_lookup():
    s1 = OwnedCatalog()
    s1.add(1, 100)
    assert s1.owns(1)
    assert not s1.owns(2)
    assert s1.get(1).size == 100
    assert len(s1) == 1


def test_s1_duplicate_rejected():
    s1 = OwnedCatalog()
    s1.add(1, 100)
    with pytest.raises(ValueError):
        s1.add(1, 200)


def test_s1_deleted_bat_not_owned():
    s1 = OwnedCatalog()
    entry = s1.add(1, 100)
    entry.deleted = True
    assert not s1.owns(1)


def test_s1_pending_oldest_first():
    s1 = OwnedCatalog()
    a = s1.add(1, 300)
    b = s1.add(2, 100)
    c = s1.add(3, 200)
    a.pending, a.pending_since = True, 5.0
    b.pending, b.pending_since = True, 1.0
    c.pending, c.pending_since = True, 1.0
    # oldest first; same age -> smaller first
    assert [e.bat_id for e in s1.pending_oldest_first()] == [2, 3, 1]


def test_s1_loaded_bytes():
    s1 = OwnedCatalog()
    a = s1.add(1, 100)
    s1.add(2, 200)
    a.loaded = True
    assert s1.loaded_bytes == 100


def test_s1_remove():
    s1 = OwnedCatalog()
    s1.add(1, 100)
    s1.remove(1)
    assert not s1.owns(1)
    s1.remove(99)  # idempotent


# ----------------------------------------------------------------------
# S2
# ----------------------------------------------------------------------
def test_s2_register_creates_once():
    s2 = RequestTable()
    first = s2.register(7, query_id=1, now=0.0)
    second = s2.register(7, query_id=2, now=1.0)
    assert first is second
    assert first.registered_at == 0.0
    assert set(first.queries) == {1, 2}
    assert len(s2) == 1


def test_s2_all_pinned_requires_every_query():
    s2 = RequestTable()
    s2.register(7, 1, 0.0)
    s2.register(7, 2, 0.0)
    s2.mark_pinned(7, 1)
    assert not s2.get(7).all_pinned()
    s2.mark_pinned(7, 2)
    assert s2.get(7).all_pinned()


def test_s2_all_pinned_false_when_empty():
    req = OutstandingRequest(bat_id=1, registered_at=0.0)
    assert not req.all_pinned()


def test_s2_mark_pinned_unknown_is_noop():
    s2 = RequestTable()
    s2.mark_pinned(99, 1)
    s2.register(7, 1, 0.0)
    s2.mark_pinned(7, 42)  # query never registered
    assert not s2.get(7).all_pinned()


def test_s2_drop_query_removes_empty_requests():
    s2 = RequestTable()
    s2.register(7, 1, 0.0)
    s2.register(8, 1, 0.0)
    s2.register(8, 2, 0.0)
    s2.drop_query(1)
    assert not s2.has(7)
    assert s2.has(8)
    assert set(s2.get(8).queries) == {2}


def test_s2_unregister():
    s2 = RequestTable()
    s2.register(7, 1, 0.0)
    s2.unregister(7)
    assert not s2.has(7)
    s2.unregister(7)  # idempotent


# ----------------------------------------------------------------------
# S3
# ----------------------------------------------------------------------
def make_wait(query_id):
    return PinWait(query_id=query_id, future=Future(Simulator()), since=0.0)


def test_s3_add_and_pop():
    s3 = PinTable()
    s3.add(5, make_wait(1))
    s3.add(5, make_wait(2))
    assert s3.has_pins(5)
    assert len(s3) == 2
    waits = s3.pop_all(5)
    assert [w.query_id for w in waits] == [1, 2]
    assert not s3.has_pins(5)
    assert s3.pop_all(5) == []


def test_s3_drop_query():
    s3 = PinTable()
    s3.add(5, make_wait(1))
    s3.add(5, make_wait(2))
    s3.add(6, make_wait(1))
    s3.drop_query(1, [5, 6])
    assert s3.waiting_queries(5) == [2]
    assert not s3.has_pins(6)


def test_s3_waiting_queries_empty():
    assert PinTable().waiting_queries(1) == []
