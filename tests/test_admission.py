"""Route, price, valve, compile: the dispatcher's and the door's rules.

``RingDatabase.submit_request`` prices every request with the
database's estimator when a byte valve is set, weighs the estimate, and
compiles only what it admits (docs/qpu.md section 7).  The front door
prices each arrival with the same estimator and slices a byte budget by
tier over the dispatcher's ledger, its only book (docs/frontdoor.md).

Hypothesis drives both over random mixes of repeated, one-off and
unpriceable kv / MAL / stream requests, byte budgets and finish orders,
and holds every decision to the rule as documented:

* the valve refuses exactly when something is inflight and the ledger
  plus the request's estimated bytes would pass the budget, so an empty
  valve always admits; a refusal consumes a query id;
* the door refuses on the budget exactly when its book is not empty and
  the book plus the estimate would pass its tier's slice,
  ``budget * (tier + 1) / n_tiers``; its book is the ledger, and its
  peak counts the admitted query's own estimate;
* every admitted query settles exactly once, every ticket settles once,
  and the ledger returns to zero at quiescence.

The unit tests after the properties pin what pricing first buys and
what it costs: a refused request is never compiled, no valve means no
statistics catalog, the front door and the valve share one estimator, a
request the door priced is not priced again, a SQL text is priced once
per statistics catalog, a text its engine refuses to price falls back
to compile, counted, and raises there whether the valve is full or
not, and an arrival in the past is refused before anything
is routed, priced or numbered.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.events.types as ev
from repro.core import DataCyclotronConfig
from repro.dbms.executor import RingDatabase
from repro.dbms.qpu import KvLookup, MalQuery, StreamAggregate
from repro.dbms.sql import SqlError
from repro.dbms.statistics import QueryEstimator
from repro.frontdoor import FrontDoor, FrontDoorPolicy

N_ROWS = 1200


def table_data():
    rng = np.random.default_rng(11)
    return {
        "id": np.arange(N_ROWS, dtype=np.int64),
        "v": np.round(rng.uniform(0.0, 10.0, N_ROWS), 3),
        "g": rng.integers(0, 4, N_ROWS),
    }


def make() -> RingDatabase:
    rdb = RingDatabase(DataCyclotronConfig(n_nodes=4, seed=7))
    rdb.load_table("t", table_data(), rows_per_partition=100)
    return rdb


# ----------------------------------------------------------------------
# the request mix
# ----------------------------------------------------------------------
REPEATED = [
    "SELECT v FROM t",                 # binds id too, as the scan universe
    "SELECT g, max(v) m FROM t GROUP BY g",
    "SELECT v FROM t WHERE id < 300",
    "SELECT g, sum(v) s FROM t WHERE id >= 200 GROUP BY g",
    "SELECT * FROM t",
    MalQuery("SELECT count(*) c FROM t WHERE g = 2"),
    KvLookup(table="t", key=5, column="v"),
    KvLookup(table="t", key=1150, column="g"),
    KvLookup(table="t", key=-3, column="v"),          # a miss weighs nothing
    KvLookup(table="t", key=N_ROWS, column="v"),      # one past the last row
    StreamAggregate(table="t", value_column="v"),
    StreamAggregate(table="t", value_column="v", func="avg", group_column="g"),
]

# the estimator cannot price these, and compiling them raises
UNPRICEABLE = [
    "SELECT nope FROM t",
    "SELECT v FROM nowhere",
    "THIS IS NOT SQL",
    KvLookup(table="t", key=1, column="nope"),
    StreamAggregate(table="t", value_column="v", func="median"),
]

one_off = st.builds(
    lambda lo, width, column: (
        f"SELECT {column} FROM t WHERE id >= {lo} AND id < {lo + width}"
    ),
    st.integers(0, N_ROWS), st.integers(1, 600), st.sampled_from(["v", "g", "v, g"]),
)
probes = st.builds(
    lambda k: KvLookup(table="t", key=k, column="v"), st.integers(-50, 1300)
)
# one_of draws its branches about evenly: listing one twice doubles its share
requests = st.one_of(
    st.sampled_from(REPEATED), st.sampled_from(REPEATED),
    one_off, one_off, probes, st.sampled_from(UNPRICEABLE),
)
submits = st.tuples(
    st.just("submit"), requests, st.integers(0, 3),
    st.sampled_from([None, 0.0, 0.01, 0.05]),
)
ops = st.lists(
    st.one_of(submits, submits, st.tuples(st.just("advance"), st.floats(0.0, 0.08))),
    min_size=12, max_size=48,
)
budgets = st.one_of(st.none(), st.integers(1, 60_000))

SETTINGS = {
    "deadline": None,
    "max_examples": 40,
    "suppress_health_check": [HealthCheck.too_slow],
}


def ledger(rdb):
    return rdb._inflight, rdb._inflight_bytes


class Recorder:
    """Sheds by query id and reason; settlements per query id."""

    def __init__(self, rdb):
        self.shed = []
        self.settled = {}
        bus = rdb.dc.bus
        bus.subscribe(ev.QueryShed, lambda e: self.shed.append(
            (e.t, e.query_id, e.node, e.engine, e.reason)))
        bus.subscribe(ev.QueryFinished, self._settle)
        bus.subscribe(ev.QueryFailed, self._settle)

    def _settle(self, e):
        self.settled[e.query_id] = self.settled.get(e.query_id, 0) + 1

    def refused(self) -> set:
        return {qid for _, qid, *_ in self.shed}


@settings(**SETTINGS)
@given(budget=budgets, steps=ops)
def test_the_valve_weighs_the_estimate_and_settles_every_query_once(
    budget, steps
):
    rdb = make()
    rdb.byte_budget = budget
    recorder = Recorder(rdb)
    for step in steps:
        if step[0] == "advance":
            rdb.dc.sim.run(until=rdb.dc.sim.now + step[1])
            continue
        _, request, node, delay = step
        count, inflight = ledger(rdb)
        next_id = rdb.next_query_id
        arrival = None if delay is None else rdb.dc.sim.now + delay
        try:
            handle = rdb.submit_request(request, node=node, arrival=arrival)
        except (SqlError, ValueError, KeyError):
            assert request in UNPRICEABLE
            assert rdb.next_query_id == next_id and ledger(rdb) == (count, inflight)
            continue
        assert handle.query_id == next_id and rdb.next_query_id == next_id + 1
        weight = rdb.estimator.estimate(request).footprint_bytes
        refused = handle.query_id in recorder.refused()
        assert refused == bool(
            budget is not None and count and inflight + weight > budget
        )
        if refused:
            # busy until its process ends, weighing nothing
            assert ledger(rdb) == (count + 1, inflight) and handle.footprint_bytes == 0
        else:
            assert ledger(rdb) == (count + 1, inflight + weight)
            assert handle.footprint_bytes == weight
    assert rdb.run_until_done(max_time=600.0)
    # quiescence: every admitted query settled exactly once, no shed
    # query settled at all, and the ledger is back to zero
    admitted = {h.query_id for h in rdb.handles} - recorder.refused()
    assert recorder.settled == dict.fromkeys(admitted, 1)
    assert ledger(rdb) == (0, 0)
    # an unpriceable request raises at compile, so every refusal was
    # decided on an estimate
    assert rdb.plan_cache_stats()["refused_before_compile"] == len(recorder.refused())


# ----------------------------------------------------------------------
# the door's tier slices over the ledger
# ----------------------------------------------------------------------
class DoorLog:
    """Every door decision, checked against the tier-slice rule when it
    is made (before the admitted query reaches the ledger)."""

    def __init__(self, door):
        self.decisions = 0
        self.door = door
        bus = door.rdb.dc.bus
        bus.subscribe(ev.FrontDoorAdmitted, self._admitted)
        bus.subscribe(ev.FrontDoorRejected, self._rejected)

    def _over(self, tier: int, estimate: int) -> bool:
        door = self.door
        policy = door.policy
        book = door.rdb._inflight_bytes
        assert door.estimated_inflight_bytes == book  # the ledger is the book
        return bool(
            policy.admission == "estimate" and policy.byte_budget is not None
            and book
            and book + estimate > policy.byte_budget * (tier + 1) / policy.n_tiers
        )

    def _admitted(self, e):
        self.decisions += 1
        assert e.tier == self.door.policy.tier_for(e.estimated_bytes)
        assert not self._over(e.tier, e.estimated_bytes)

    def _rejected(self, e):
        self.decisions += 1
        if e.cause == "budget":
            assert self._over(e.tier, e.estimated_bytes)
        elif e.cause != "estimate-error":
            assert e.cause == "single-query-cap"
            assert e.estimated_bytes > self.door.policy.reject_above_bytes


door_policies = st.builds(
    lambda admission, budget, cap, boundaries, tag: FrontDoorPolicy(
        tier_boundaries=boundaries, byte_budget=budget,
        reject_above_bytes=cap, admission=admission, tag_tiers=tag,
    ),
    st.sampled_from(["estimate", "estimate", "none"]),  # "none" only observes
    # always set: the valve that reads the ledger; whole columns (9600 B)
    # put the tier slices' edges where the footprints are
    st.one_of(st.integers(1, 60_000), st.integers(1, 6).map(lambda k: k * 9600)),
    st.one_of(st.none(), st.integers(1, 40_000)),
    st.sampled_from([(64 * 1024, 1024 * 1024), (1000, 20_000), (100, 5000)]),
    st.booleans(),
)


@settings(**{**SETTINGS, "max_examples": 60})  # the tier slices' edges are narrow
@given(policy=door_policies, budget=budgets, steps=ops)
def test_the_door_slices_the_ledger_by_tier_and_settles_every_ticket_once(
    policy, budget, steps
):
    rdb = make()
    rdb.byte_budget = budget
    door = FrontDoor(rdb, policy=policy)
    log = DoorLog(door)
    recorder = Recorder(rdb)
    offered = 0
    for step in steps:
        if step[0] == "advance":
            rdb.dc.sim.run(until=rdb.dc.sim.now + step[1])
            continue
        _, request, node, delay = step
        next_id = rdb.next_query_id
        now = rdb.dc.sim.now
        door.offer(request, node=node, arrival=None if delay is None else now + delay)
        offered += 1
        if delay in (None, 0.0):  # the door decided now: one id either way
            assert rdb.next_query_id == next_id + 1
        # the peak counts each admitted query's own estimate
        assert door.peak_estimated_inflight_bytes >= rdb._inflight_bytes
    assert rdb.run_until_done(max_time=600.0)
    assert log.decisions == door.offered == offered
    assert door.admitted + door.rejected == offered
    assert sum(t.offered for t in door.by_tier.values()) == offered
    # quiescence: the ledger is back to zero and every ticket settled
    # exactly once (finished, failed, or shed downstream)
    assert ledger(rdb) == (0, 0)
    shed = [qid for _, qid, *_ in recorder.shed]
    assert len(door.tickets) == door.admitted
    for qid, ticket in door.tickets.items():
        assert ticket.outcome != "inflight"
        assert recorder.settled.get(qid, 0) + shed.count(qid) == 1


# ----------------------------------------------------------------------
# what pricing first buys, and what it costs
# ----------------------------------------------------------------------
def test_a_refused_request_is_never_compiled():
    rdb = make()
    rdb.byte_budget = 1
    rdb.submit("SELECT v FROM t WHERE id < 100")       # empty valve: admitted
    misses = rdb.plan_cache_stats()["misses"]
    handle = rdb.submit("SELECT v FROM t WHERE id < 200")
    stats = rdb.plan_cache_stats()
    assert stats["misses"] == misses                     # no compile
    assert stats["refused_before_compile"] == 1
    assert stats["priced"] == 2 and stats["unpriced"] == 0
    assert handle.sql == "SELECT v FROM t WHERE id < 200"
    assert handle.footprint_bytes == 0
    assert rdb.run_until_done()
    assert handle.result is None


def test_without_a_valve_nothing_is_priced_and_no_catalog_is_built():
    rdb = make()
    rdb.submit("SELECT v FROM t")
    rdb.submit_request(KvLookup(table="t", key=3, column="v"))
    assert rdb.run_until_done()
    assert rdb._estimator is None
    stats = rdb.plan_cache_stats()
    assert stats["priced"] == stats["unpriced"] == stats["refused_before_compile"] == 0


def test_door_and_valves_share_one_estimator_and_price_once(monkeypatch):
    calls = []
    inner = QueryEstimator._estimate
    monkeypatch.setattr(
        QueryEstimator, "_estimate",
        lambda self, request: calls.append(request) or inner(self, request),
    )
    rdb = make()
    rdb.byte_budget = 1 << 40
    door = FrontDoor(rdb, policy=FrontDoorPolicy(admission="none"))
    assert door.estimator is rdb.estimator
    for request in ("SELECT v FROM t WHERE id < 7", KvLookup(table="t", key=9, column="g")):
        door.offer(request)
    assert len(calls) == 2                 # the door priced, the valve looked up
    assert rdb.plan_cache_stats()["priced"] == 2
    assert rdb.run_until_done()


def test_a_catalog_change_rebuilds_the_statistics_not_the_estimator():
    rdb = make()
    estimator = rdb.estimator
    stats = estimator.stats
    star = "SELECT * FROM t"
    before = estimator.estimate(star)
    assert estimator.estimate(star) is before          # the identity memo
    rdb.load_table("u", {"w": np.arange(50)}, rows_per_partition=10)
    assert rdb.estimator is estimator and estimator.stats is not stats
    assert estimator.estimate(star) is not before      # not answered from before
    sql = "SELECT w FROM u"
    compiled = rdb._mal.compile(sql)
    assert estimator.estimate(sql).footprint_bytes == compiled.footprint_bytes > 0


def test_a_sql_text_is_priced_once_per_catalog(monkeypatch):
    calls = []
    inner = QueryEstimator._price
    monkeypatch.setattr(
        QueryEstimator, "_price",
        lambda self, sql: calls.append(sql) or inner(self, sql),
    )
    rdb = make()
    estimator = rdb.estimator
    star = "SELECT * FROM t"
    first = estimator.estimate(star)
    # another object with the same text, bare or as a MAL request
    assert estimator.estimate(" ".join(["SELECT", "*", "FROM", "t"])) is first
    assert estimator.estimate(MalQuery(star)) is first
    assert calls == [star]
    with pytest.raises(AttributeError):  # shared, so frozen
        first.cost = 0.0
    rdb.load_table("u", {"w": np.arange(50)}, rows_per_partition=10)
    assert rdb.estimator is estimator  # rebuilds the statistics
    again = estimator.estimate(MalQuery(star))
    assert again == first and again is not first
    assert calls == [star, star]  # the rebuilt catalog priced it afresh


def test_an_unpriceable_request_falls_back_to_compile_and_is_counted():
    """The engine that compiles a text prices it, so a text it refuses
    is unpriced and raises at compile, whether the valve is full or not."""
    for bad in (
        "SELECT nope FROM t",
        "SELECT v, count(*) c FROM t",   # the planner's own refusal
    ):
        for full in (False, True):
            rdb = make()
            rdb.byte_budget = 1
            if full:
                rdb.submit("SELECT v FROM t")
            before = rdb.plan_cache_stats()
            query_id = rdb.next_query_id
            with pytest.raises(SqlError):
                rdb.submit(bad)
            stats = rdb.plan_cache_stats()
            assert rdb.next_query_id == query_id                 # no id consumed
            assert stats["unpriced"] == 1 and stats["priced"] == before["priced"]
            assert stats["refused_before_compile"] == 0
            # nothing cached: no text, no shape
            assert (stats["size"], stats["shapes"]) == (before["size"], before["shapes"])
            assert rdb.run_until_done()


@pytest.mark.parametrize("budget", [None, 1], ids=["no-valve", "full-valve"])
def test_an_arrival_in_the_past_is_refused_before_it_is_routed(budget):
    """Checked with the node, before routing: nothing is priced, compiled
    or numbered, and a full valve does not turn it into a shed handle."""
    rdb = make()
    rdb.byte_budget = budget
    rdb.submit("SELECT v FROM t WHERE id < 100")  # fills the valve
    rdb.dc.run(until=1.0)
    before = (rdb.next_query_id, rdb.plan_cache_stats(), len(rdb.handles),
              rdb.dc.submitted_queries)
    with pytest.raises(ValueError, match="in the past"):
        rdb.submit("SELECT v FROM t WHERE id < 200", node=1, arrival=0.2)
    assert (rdb.next_query_id, rdb.plan_cache_stats(), len(rdb.handles),
            rdb.dc.submitted_queries) == before
    assert rdb.run_until_done()

