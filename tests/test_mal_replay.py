"""A MAL text executes once per data (docs/qpu.md section 7, "Execute
once per data").

The linear interpreter's second run of a cached text records its ring
calls -- request, pin (with the payload it returned), unpin and each
operator's cost -- and its result; later runs replay them.  The
contract is that nobody can tell: every replayed run must publish the
same typed events at the same instants and return the same rows as the
interpreter would, and a pin that returns other data must hand over to
a live interpreter.  The reference run defeats the recorder with a
monkeypatch: ``MalQpu._entry`` answering ``None`` means no text has an
entry to record into or replay from.
"""

import numpy as np
import pytest

from repro.core import DataCyclotronConfig
from repro.dbms.bat import BAT
from repro.dbms.executor import RingDatabase
from repro.dbms.qpu.mal import PLAN_CACHE_SIZE, MalQpu
from repro.xtn.updates import UpdateCoordinator

from qpu_harness import StreamRecorder, _ring_config, run_repeat

SUM_SQL = "SELECT sum(v) s FROM t"


def defeat_recorder(monkeypatch):
    monkeypatch.setattr(MalQpu, "_entry", lambda self, compiled: None)


def run_tpch_repeat(seed: int, observe=None) -> RingDatabase:
    """Four TPC-H texts (joins, grouping, ordering), three runs each."""
    from repro.workloads.tpch.queries import TPCH_QUERIES
    from repro.workloads.tpch.schema import generate_tpch

    rdb = RingDatabase(_ring_config(seed))
    if observe is not None:
        observe(rdb)
    for table, columns in generate_tpch(scale_factor=0.001, seed=seed).items():
        rdb.load_table(table, columns, rows_per_partition=2000)
    for i in range(12):
        query = TPCH_QUERIES[(1, 3, 6, 10)[i % 4] - 1]
        rdb.submit(query.sql, node=i % 4, arrival=0.4 * i)
    assert rdb.run_until_done(max_time=600.0)
    return rdb


def observed(runner, seed: int) -> dict:
    recorders = []
    rdb = runner(seed, observe=lambda r: recorders.append(StreamRecorder(r.dc.bus)))
    return {
        "events": recorders[0].lines,
        "finished": [
            (q, repr(r.finished_at), r.failed, r.error)
            for q, r in sorted(rdb.metrics.queries.items())
        ],
        "rows": [repr(h.result.rows()) for h in rdb.handles],
        "now": repr(rdb.dc.now),
        "processed": rdb.dc.sim.processed,
        "stats": rdb.plan_cache_stats(),
    }


@pytest.mark.parametrize(
    "runner, seed",
    [(run_repeat, s) for s in range(5)] + [(run_tpch_repeat, s) for s in (0, 1)],
)
def test_a_replay_is_indistinguishable_from_the_interpreter(monkeypatch, runner, seed):
    replayed = observed(runner, seed)
    defeat_recorder(monkeypatch)
    live = observed(runner, seed)
    stats = replayed.pop("stats")
    assert stats["replays"] > 0
    assert stats["diverged"] == 0
    assert live.pop("stats")["replays"] == 0
    assert replayed == live


def make_ring() -> RingDatabase:
    ring = RingDatabase(DataCyclotronConfig(n_nodes=3, seed=4))
    ring.load_table("t", {"id": np.arange(4), "v": np.array([1.0, 2.0, 3.0, 4.0])})
    return ring


def run_once(ring: RingDatabase, sql: str = SUM_SQL, node: int = 1):
    handle = ring.submit(sql, node=node)
    assert ring.run_until_done(max_time=60.0)
    return handle.result


def counts(ring: RingDatabase) -> tuple:
    stats = ring.plan_cache_stats()
    return stats["recorded"], stats["replays"], stats["diverged"]


def test_the_second_run_records_and_the_third_replays():
    ring = make_ring()
    first = run_once(ring)
    assert counts(ring) == (0, 0, 0)        # a text seen once pays nothing
    second = run_once(ring)
    assert counts(ring) == (1, 0, 0)
    third = run_once(ring)
    assert counts(ring) == (1, 1, 0)
    assert first.rows() == second.rows() == third.rows() == [(10.0,)]
    # a fresh result set that shares the recorded columns
    assert third is not second
    assert third.names == second.names
    assert all(a is b for a, b in zip(third.columns, second.columns))


def test_an_update_hands_the_replay_over_to_a_live_interpreter():
    # following tests/test_xtn_updates.py::test_functional_update_changes_payloads
    ring = make_ring()
    for _ in range(3):
        assert run_once(ring).rows() == [(10.0,)]
    assert counts(ring) == (1, 1, 0)

    def double_payload(bat_id, payload):
        return BAT(payload.tail * 2, head=payload.head, hseqbase=payload.hseqbase)

    coordinator = UpdateCoordinator(ring.dc, mutate=double_payload)
    v_handle = next(h for h in ring.catalog.all_handles() if h.column == "v")
    update = coordinator.submit_update(
        bat_id=v_handle.bat_id, node=2, apply_time=0.01, arrival=ring.dc.now
    )
    assert ring.dc.run_until_done(max_time=120.0)
    assert update.new_version == 1
    # let the stale circulating copy retire at the owner
    ring.dc.run(until=ring.dc.now + 5.0)

    # the replay's pin of v returns the new payload: a live interpreter
    # takes over and sees it
    assert run_once(ring).rows() == [(20.0,)]
    assert counts(ring) == (1, 2, 1)
    # the stale script is gone: the next run records, the one after
    # replays the new data
    assert run_once(ring).rows() == [(20.0,)]
    assert run_once(ring).rows() == [(20.0,)]
    assert counts(ring) == (2, 3, 1)


def test_a_script_leaves_with_its_text_on_the_cache_bound():
    ring = make_ring()
    for _ in range(3):
        run_once(ring)
    assert counts(ring) == (1, 1, 0)
    for i in range(PLAN_CACHE_SIZE):
        ring.compile(f"SELECT v FROM t WHERE id = {i}")
    assert SUM_SQL not in ring._mal._plan_cache
    # compiled afresh: its first run is live, its second records again
    assert run_once(ring).rows() == [(10.0,)]
    assert counts(ring) == (1, 1, 0)
    assert run_once(ring).rows() == [(10.0,)]
    assert counts(ring) == (2, 1, 0)


def test_a_script_leaves_with_its_text_on_a_catalog_version_change():
    ring = make_ring()
    for _ in range(3):
        run_once(ring)
    # submitted (compiled) under the old version, executed under the new
    handle = ring.submit(SUM_SQL, node=1)
    ring.load_table("u", {"w": np.arange(3)})
    assert ring.run_until_done(max_time=60.0)
    assert handle.result.rows() == [(10.0,)]
    assert counts(ring) == (1, 1, 0)
    assert run_once(ring).rows() == [(10.0,)]      # recompiled: first run
    assert counts(ring) == (1, 1, 0)
    assert SUM_SQL in ring._mal._plan_cache


@pytest.mark.parametrize(
    "engine", [{"dataflow": True}, {"cache_intermediates": True}]
)
def test_the_dataflow_and_result_cache_engines_never_replay(engine):
    ring = RingDatabase(DataCyclotronConfig(n_nodes=3, seed=4), **engine)
    ring.load_table("t", {"id": np.arange(4), "v": np.array([1.0, 2.0, 3.0, 4.0])})
    for _ in range(4):
        assert run_once(ring).rows() == [(10.0,)]
    assert counts(ring) == (0, 0, 0)


# ----------------------------------------------------------------------
# an aborted query releases its pins, whether it ran live or replayed
# ----------------------------------------------------------------------
LEAK_SQL = "SELECT sum(v) s FROM t WHERE id >= 10"


def leak_ring() -> RingDatabase:
    ring = RingDatabase(DataCyclotronConfig(n_nodes=3, seed=4))
    ring.load_table(
        "t", {"id": np.arange(400), "v": np.arange(400, dtype=float)},
        rows_per_partition=100,
    )
    return ring


def abort_at_node_0(ring: RingDatabase):
    # the query pins v's partition 0 and then finds partition 1 gone
    handle = ring.submit(LEAK_SQL, node=0)
    gone = ring.catalog.handle("sys", "t", "v", 1).bat_id
    ring.dc.sim.post(1e-7, ring.dc.remove_bat, gone)
    assert ring.run_until_done(max_time=60.0)
    record = ring.metrics.queries[handle.query_id]
    assert record.failed and record.error == "BAT does not exist"
    node = ring.dc.nodes[0]
    assert dict(node.cache.items()) == {}
    assert node.pinned_bytes == 0


def test_an_aborted_query_releases_the_pins_it_holds():
    abort_at_node_0(leak_ring())


def test_an_aborted_replay_releases_the_pins_it_holds():
    ring = leak_ring()
    for _ in range(3):
        assert run_once(ring, LEAK_SQL, node=0).rows() == [(79755.0,)]
    assert counts(ring) == (1, 1, 0)
    abort_at_node_0(ring)
    assert counts(ring) == (1, 2, 0)
