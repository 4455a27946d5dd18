"""Route, price, valve, compile: the dispatcher against its own past.

``RingDatabase.submit_request`` prices every request with the
database's estimator when a valve is set, weighs the estimate, and
compiles only what it admits (docs/qpu.md section 7).  The oracle below
is the compile-then-shed dispatcher it replaced -- ``submit_request``,
``_shed`` and ``_shed_handle`` kept verbatim -- and hypothesis drives
both over random mixes of repeated, one-off and unpriceable kv / MAL /
stream requests, byte budgets and finish orders.  The oracle's count
and per-engine valves are never set: those options are gone.
After every step both sides agree on the query ids, the admit/shed
decision and its ``QueryShed.reason``, every ``QueryHandle`` field, and
the inflight ledger.

The valve's own properties ride along: an empty valve always admits,
every admitted query settles exactly once, and the ledger returns to
zero at quiescence.  The unit tests after the property pin what pricing
first buys and what it costs: a refused request is never compiled, no
valve means no statistics catalog, the front door and the valves share
one estimator, a request the door priced is not priced again, a SQL
text is priced once per statistics catalog, and a text the estimator
cannot price falls back to compile-then-shed, counted.

The second oracle is the front door that kept its own books:
``_arrive``, ``_admission_cause``, ``_reject`` and ``_settle`` kept
verbatim, with the private ``estimated_inflight_bytes`` counter they
moved.  The live door reads the dispatcher's ledger instead and takes
its ids through ``RingDatabase.next_query_id`` / ``skip_query_id``.
Hypothesis drives both doors over the same request mix, both admission
modes, with and without the dispatcher's byte valve (the parent's
brownout hook is never given, and its deadline knobs read the live
constants); after every step they agree on every decision, ticket,
tally and byte count -- save the one tally the live door fixed, an
unpriced arrival offered in tier 0 -- and at quiescence the ledger is
back to zero with every ticket settled exactly once.
"""

from dataclasses import asdict, fields
from typing import Any, Generator, Optional

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.events.types as ev
from repro.core import DataCyclotronConfig
from repro.dbms.executor import QueryHandle, RingDatabase
from repro.dbms.qpu import KvLookup, MalQuery, QpuContext, QueryAbort, StreamAggregate
from repro.dbms.sql import SqlError
from repro.dbms.statistics import EstimateError, QueryEstimate, QueryEstimator
from repro.frontdoor import FrontDoor, FrontDoorPolicy
from repro.frontdoor.door import DEADLINE_FLOOR, DEADLINE_SCALE, Ticket
from repro.sim.process import Process

N_ROWS = 1200


class CompileThenShed(RingDatabase):
    """The dispatcher before pricing: every request is compiled, then
    weighed by ``CompiledQuery.footprint_bytes``."""

    # never given: the parent's count and per-engine valves and their book
    max_inflight = None
    engine_byte_budgets: dict = {}
    _inflight_engine_bytes: dict = {}

    # the parent's ledger named the engine; the live one moves bytes only
    def _enter(self, engine: str, footprint_bytes: int) -> None:
        super()._enter(footprint_bytes)

    def _leave(self, engine: str, footprint_bytes: int) -> None:
        super()._leave(footprint_bytes)

    def submit_request(
        self,
        request: Any,
        node: int = 0,
        arrival: Optional[float] = None,
        tag: Optional[str] = None,
    ) -> QueryHandle:
        """Route any engine request to its QPU and schedule it.

        ``arrival`` defaults to the current simulated time.  ``tag``
        overrides the registration tag (default: the engine class, or
        the legacy ``"sql"`` on the golden-pinned MAL path) -- the
        front door uses it to label serving tiers for SLO accounting.
        """
        if arrival is None:
            arrival = self.dc.sim.now
        if not 0 <= node < self.dc.config.n_nodes:
            raise ValueError(f"node {node} out of range")
        qpu = self.route(request)
        compiled = qpu.compile(request)
        query_id = self._next_query_id
        self._next_query_id += 1
        runtime = self.dc.nodes[node]
        estimated = qpu.estimate_cost(compiled)
        if self._shed(query_id, node, qpu.engine_class, compiled.footprint_bytes):
            return self._shed_handle(request, compiled, query_id, node, estimated)
        ctx = QpuContext(
            runtime=runtime,
            query_id=query_id,
            catalog=self.catalog,
            cost_model=self.cost_model,
        )
        # the default MAL path keeps the pre-refactor direct metrics
        # call (no bus event), pinned by the golden bit-identity suite
        legacy = qpu is self._mal and not self.lifecycle_events and tag is None

        def process() -> Generator:
            try:
                now = runtime.sim.now
                if legacy:
                    self.dc.metrics.query_registered(
                        ev.QueryRegistered(now, query_id, node, tag="sql"))
                else:
                    self._register(now, query_id, node, qpu.engine_class,
                                   compiled, estimated, tag=tag)
                try:
                    result = yield from qpu.execute(compiled, ctx)
                except QueryAbort as abort:
                    self._release_pins(ctx, runtime, query_id)
                    runtime.finish_query(query_id, failed=True, error=str(abort))
                    return None
                runtime.finish_query(query_id)
                return result
            finally:
                self._leave(qpu.engine_class, compiled.footprint_bytes)

        delay = arrival - self.dc.sim.now
        if delay < 0:
            raise ValueError("arrival is in the past")
        self.dc._submitted += 1
        proc = Process(self.dc.sim, process, start_delay=delay)
        handle = QueryHandle(
            query_id=query_id,
            node=node,
            sql=compiled.description,
            process=proc,
            engine=qpu.engine_class,
            request=request,
            estimated_cost=estimated,
            footprint_bytes=compiled.footprint_bytes,
        )
        self.handles.append(handle)
        self._enter(qpu.engine_class, compiled.footprint_bytes)
        return handle

    def _shed(
        self, query_id: int, node: int, engine: str, footprint_bytes: int
    ) -> bool:
        """Admission valves: inflight count, then inflight bytes.

        The count valve is the historical behaviour; the byte valves
        weigh each query by ``CompiledQuery.footprint_bytes`` so one
        wide analytic scan can't hide behind the same count slot as a
        point lookup.  Per-engine budgets shed only their own class.
        An empty valve always admits, so progress is guaranteed even
        for a query wider than the whole budget.
        """
        over = False
        reason = ""
        if self.max_inflight is not None:
            over = self._inflight >= self.max_inflight
            if over:
                reason = "count-valve"
        if not over and (self.byte_budget is not None or self.engine_byte_budgets):
            if (
                self._inflight
                and self.byte_budget is not None
                and self._inflight_bytes + footprint_bytes > self.byte_budget
            ):
                over = True
            cap = self.engine_byte_budgets.get(engine)
            per_engine = self._inflight_engine_bytes.get(engine, 0)
            if (
                cap is not None
                and per_engine > 0
                and per_engine + footprint_bytes > cap
            ):
                over = True
            if over:
                reason = "byte-valve"
        if not over:
            return False
        bus = self.dc.bus
        if bus.active:
            bus.publish(
                ev.QueryShed(
                    self.dc.sim.now, query_id, node, engine=engine,
                    reason=reason,
                )
            )
        return True

    def _shed_handle(
        self, request, compiled, query_id: int, node: int, estimated: float
    ) -> QueryHandle:
        def refused() -> Generator:
            self._leave(compiled.engine, 0)
            return None
            yield  # pragma: no cover - makes this a generator

        handle = QueryHandle(
            query_id=query_id,
            node=node,
            sql=compiled.description,
            process=Process(self.dc.sim, refused),
            engine=compiled.engine,
            request=request,
            estimated_cost=estimated,
        )
        self.handles.append(handle)
        self._enter(compiled.engine, 0)  # weighs nothing, but is busy
        return handle


def table_data():
    rng = np.random.default_rng(11)
    return {
        "id": np.arange(N_ROWS, dtype=np.int64),
        "v": np.round(rng.uniform(0.0, 10.0, N_ROWS), 3),
        "g": rng.integers(0, 4, N_ROWS),
    }


def make(cls=RingDatabase, **kwargs) -> RingDatabase:
    rdb = cls(DataCyclotronConfig(n_nodes=4, seed=7), **kwargs)
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
valves = st.fixed_dictionaries({
    "byte_budget": st.one_of(st.none(), st.integers(1, 60_000)),
})


def ledger(rdb):
    return rdb._inflight, rdb._inflight_bytes


def handle_fields(handle):
    out = {f.name: getattr(handle, f.name) for f in fields(handle) if f.name != "process"}
    out["done"] = handle.done
    return out


def outcome(result):
    return result.rows() if hasattr(result, "rows") else result


def submit(rdb, request, node, delay):
    arrival = None if delay is None else rdb.dc.sim.now + delay
    try:
        return rdb.submit_request(request, node=node, arrival=arrival)
    except Exception as exc:  # the error itself is what both sides must agree on
        return (type(exc), str(exc))


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


SETTINGS = {
    "deadline": None,
    "max_examples": 40,
    "suppress_health_check": [HealthCheck.too_slow],
}


@settings(**SETTINGS)
@given(valve=valves, steps=ops, lifecycle=st.booleans())
def test_pricing_first_decides_exactly_as_compile_then_shed(valve, steps, lifecycle):
    new = make(lifecycle_events=lifecycle)
    old = make(CompileThenShed, lifecycle_events=lifecycle)
    sides = [(new, Recorder(new)), (old, Recorder(old))]
    for rdb, _ in sides:
        for knob, value in valve.items():
            setattr(rdb, knob, value)
    for step in steps:
        if step[0] == "advance":
            for rdb, _ in sides:
                rdb.dc.sim.run(until=rdb.dc.sim.now + step[1])
        else:
            _, request, node, delay = step
            empty = new._inflight == 0
            got = [submit(rdb, request, node, delay) for rdb, _ in sides]
            assert type(got[0]) is type(got[1])
            if isinstance(got[0], tuple):
                assert got[0] == got[1]                 # same error, same type
            elif empty:
                refused = {qid for _, qid, *_ in sides[0][1].shed}
                assert got[0].query_id not in refused, "an empty valve refused"
        assert new._next_query_id == old._next_query_id
        assert sides[0][1].shed == sides[1][1].shed     # decisions + reasons
        assert ledger(new) == ledger(old)
        assert [handle_fields(h) for h in new.handles] == [
            handle_fields(h) for h in old.handles
        ]
    for rdb, _ in sides:
        assert rdb.run_until_done(max_time=600.0)
    assert [outcome(h.result) for h in new.handles] == [
        outcome(h.result) for h in old.handles
    ]
    # quiescence: every admitted query settled exactly once, no shed
    # query settled at all, and the ledger is back to zero
    recorder = sides[0][1]
    refused = {qid for _, qid, *_ in recorder.shed}
    admitted = {h.query_id for h in new.handles} - refused
    assert recorder.settled == dict.fromkeys(admitted, 1)
    assert new._inflight == new._inflight_bytes == 0
    # an unpriceable request raises at compile, so every refusal was
    # decided on an estimate
    assert new.plan_cache_stats()["refused_before_compile"] == len(refused)


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
    inner = QueryEstimator._estimate_sql
    monkeypatch.setattr(
        QueryEstimator, "_estimate_sql",
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
    rdb = make()
    rdb.byte_budget = 1 << 40
    with pytest.raises(SqlError):
        rdb.submit("SELECT nope FROM t")
    assert rdb._next_query_id == 0                       # no id consumed
    stats = rdb.plan_cache_stats()
    assert stats["unpriced"] == 1 and stats["priced"] == 0


def test_a_text_the_planner_rejects_is_refused_unseen_by_a_full_valve():
    """The one thing pricing first changes: the planner's own checks run
    at compile, so a priceable text it would reject raises only when
    the valve admits it; a full valve refuses it like any other."""
    bad = "SELECT v, count(*) c FROM t"   # aggregate beside a plain column
    rdb = make()
    rdb.byte_budget = 1
    with pytest.raises(SqlError):
        rdb.submit(bad)                                   # admitted: compiles
    rdb.submit("SELECT v FROM t")
    handle = rdb.submit(bad)                              # full: refused
    assert handle.sql == bad and rdb.plan_cache_stats()["refused_before_compile"] == 1
    assert rdb.run_until_done()


# ----------------------------------------------------------------------
# the front door against its own past
# ----------------------------------------------------------------------
class ParentPolicy(FrontDoorPolicy):
    """The parent door read its deadline knobs off the policy; they are
    module constants now, with the same values."""

    deadline_floor = DEADLINE_FLOOR
    deadline_scale = DEADLINE_SCALE


class OwnBooksDoor(FrontDoor):
    """The front door before it read the dispatcher's ledger: it kept
    its own count of estimated inflight bytes, moved at admit and at
    settle, and wrote the dispatcher's id counter itself."""

    estimated_inflight_bytes = 0  # shadows the property: the private book
    controller = None  # the parent's brownout hook, never given

    def __init__(self, rdb, policy):
        super().__init__(rdb, ParentPolicy(**asdict(policy)))

    def _arrive(self, request: Any, node: int) -> None:
        sim = self.rdb.dc.sim
        bus = self.rdb.dc.bus
        now = sim.now
        self.offered += 1
        # reserve the id the dispatcher would assign: refused queries
        # consume it too, so SLO tracks never collide across twins
        query_id = self.rdb._next_query_id
        try:
            est = self.estimator.estimate(request)
        except EstimateError:
            self.rdb._next_query_id += 1
            self._reject(query_id, node, None, 0, "estimate-error")
            return
        tier = self.policy.tier_for(est.footprint_bytes)
        deadline = (
            self.policy.deadline_floor
            + self.policy.deadline_scale * est.footprint_bytes / self._bandwidth
        )
        self.by_tier[tier].offered += 1
        if bus.active:
            bus.publish(ev.QueryEstimated(
                t=now, query_id=query_id, node=node, engine=est.engine,
                footprint_bytes=est.footprint_bytes, cost=est.cost,
                selectivity=est.selectivity, tier=tier, deadline=deadline,
            ))
        cause = self._admission_cause(query_id, node, est, tier)
        if cause is not None:
            self.rdb._next_query_id += 1
            self._reject(query_id, node, est, tier, cause)
            return
        # the ticket must exist *before* the dispatcher sees the query:
        # its blind valves shed synchronously inside submit_request, and
        # that QueryShed must find the ticket to settle
        ticket = Ticket(
            query_id=query_id, node=node, estimate=est, tier=tier,
            deadline=deadline, admitted_at=now,
        )
        self.tickets[query_id] = ticket
        self.admitted += 1
        self.by_tier[tier].admitted += 1
        self.estimated_inflight_bytes += est.footprint_bytes
        self.peak_estimated_inflight_bytes = max(
            self.peak_estimated_inflight_bytes, self.estimated_inflight_bytes
        )
        if bus.active:
            bus.publish(ev.FrontDoorAdmitted(
                t=now, query_id=query_id, node=node, engine=est.engine,
                tier=tier, deadline=deadline,
                estimated_bytes=est.footprint_bytes,
            ))
        tag = f"tier{tier}" if self.policy.tag_tiers else None
        handle = self.rdb.submit_request(request, node=node, tag=tag)
        assert handle.query_id == query_id
        ticket.handle = handle

    def _admission_cause(
        self, query_id: int, node: int, est: QueryEstimate, tier: int
    ) -> Optional[str]:
        """None admits; otherwise the rejection cause."""
        pol = self.policy
        if pol.admission != "estimate":
            return None
        if (
            pol.reject_above_bytes is not None
            and est.footprint_bytes > pol.reject_above_bytes
        ):
            return "single-query-cap"
        if self.controller is not None:
            if tier < self.controller.effective_level():
                return "controller"
        if pol.byte_budget is not None and self.tickets:
            cap = pol.byte_budget * (tier + 1) / pol.n_tiers
            if (
                self.estimated_inflight_bytes
                and self.estimated_inflight_bytes + est.footprint_bytes > cap
            ):
                return "budget"
        return None

    def _reject(
        self, query_id: int, node: int, est: Optional[QueryEstimate],
        tier: int, cause: str,
    ) -> None:
        self.rejected += 1
        self.rejected_by_cause[cause] = (
            self.rejected_by_cause.get(cause, 0) + 1
        )
        self.by_tier[tier].rejected += 1
        bus = self.rdb.dc.bus
        now = self.rdb.dc.sim.now
        engine = est.engine if est is not None else ""
        nbytes = est.footprint_bytes if est is not None else 0
        if bus.active:
            bus.publish(ev.FrontDoorRejected(
                t=now, query_id=query_id, node=node, engine=engine,
                tier=tier, estimated_bytes=nbytes, cause=cause,
            ))
            bus.publish(ev.QueryShed(
                now, query_id, node, engine=engine,
                reason="front-door-estimate",
            ))

    def _settle(self, query_id: int, t: float, outcome: str) -> None:
        ticket = self.tickets.get(query_id)
        if ticket is None or ticket.outcome != "inflight":
            return
        ticket.outcome = outcome
        self.estimated_inflight_bytes -= ticket.estimate.footprint_bytes
        tally = self.by_tier[ticket.tier]
        if outcome == "shed":
            tally.shed_downstream += 1
            return
        ticket.service_time = t - ticket.admitted_at
        if outcome == "failed":
            tally.failed += 1
            return
        tally.finished += 1
        ticket.within_deadline = ticket.service_time <= ticket.deadline
        if ticket.within_deadline:
            tally.good += 1
        actual = ticket.handle.footprint_bytes if ticket.handle else 0
        self.estimator.record(
            ticket.estimate, actual, service_time=ticket.service_time
        )
        bus = self.rdb.dc.bus
        if bus.active:
            bus.publish(ev.EstimateFeedback(
                t=t, query_id=query_id, engine=ticket.estimate.engine,
                query_class=ticket.estimate.query_class,
                predicted_bytes=ticket.estimate.footprint_bytes,
                actual_bytes=actual,
                predicted_cost=ticket.estimate.cost,
                service_time=ticket.service_time,
            ))


class DoorLog:
    """Every door decision, in order; refusals on an empty byte book."""

    def __init__(self, door):
        self.decisions = []
        self.refused_empty = 0
        self._door = door
        bus = door.rdb.dc.bus
        bus.subscribe(ev.FrontDoorAdmitted, lambda e: self.decisions.append(
            ("admit", e.t, e.query_id, e.node, e.engine, e.tier,
             e.deadline, e.estimated_bytes)))
        bus.subscribe(ev.FrontDoorRejected, self._rejected)

    def _rejected(self, e):
        self.decisions.append(("reject", e.t, e.query_id, e.node, e.engine,
                               e.tier, e.cause, e.estimated_bytes))
        if e.cause == "budget" and self._door.estimated_inflight_bytes == 0:
            self.refused_empty += 1


def door_state(door):
    tickets = {
        qid: (t.outcome, t.tier, t.deadline, t.admitted_at, t.service_time,
              t.within_deadline, t.handle.query_id if t.handle else None)
        for qid, t in door.tickets.items()
    }
    summary = door.summary()
    if isinstance(door, OwnBooksDoor):
        # the one tally the live door fixed: the parent rejected an
        # unpriced arrival from tier 0 without counting it offered there
        summary["by_tier"][0]["offered"] += door.rejected_by_cause.get(
            "estimate-error", 0)
    return (summary, door.estimated_inflight_bytes, tickets,
            door.rdb.next_query_id)


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
door_ops = st.lists(
    st.one_of(
        submits, submits,
        st.tuples(st.just("advance"), st.floats(0.0, 0.08)),
    ),
    min_size=12, max_size=48,
)


@settings(**{**SETTINGS, "max_examples": 100})  # the tier slices' edges are narrow
@given(policy=door_policies, valve=st.one_of(st.just({}), valves),
       steps=door_ops, lifecycle=st.booleans())
def test_the_door_on_the_ledger_decides_exactly_as_on_its_own_books(
    policy, valve, steps, lifecycle
):
    sides = []
    for door_cls in (FrontDoor, OwnBooksDoor):
        rdb = make(lifecycle_events=lifecycle)
        for knob, value in valve.items():
            setattr(rdb, knob, value)
        door = door_cls(rdb, policy=policy)
        sides.append((door, DoorLog(door), Recorder(rdb)))
    (new, new_log, recorder), (old, old_log, _) = sides
    for step in steps:
        if step[0] == "advance":
            for door, _, _ in sides:
                door.rdb.dc.sim.run(until=door.rdb.dc.sim.now + step[1])
        else:
            _, request, node, delay = step
            for door, _, _ in sides:
                now = door.rdb.dc.sim.now
                door.offer(request, node=node,
                           arrival=None if delay is None else now + delay)
        assert new_log.decisions == old_log.decisions
        assert door_state(new) == door_state(old)
    for door, _, _ in sides:
        assert door.rdb.run_until_done(max_time=600.0)
    assert new_log.decisions == old_log.decisions
    assert door_state(new) == door_state(old)
    # an empty byte book always admits, on either side
    assert new_log.refused_empty == old_log.refused_empty == 0
    # quiescence: the ledger is back to zero and every ticket settled
    # exactly once (finished, failed, or shed downstream)
    rdb = new.rdb
    assert rdb._inflight == rdb._inflight_bytes == 0
    shed = [qid for _, qid, *_ in recorder.shed]
    for qid, ticket in new.tickets.items():
        assert ticket.outcome != "inflight"
        assert recorder.settled.get(qid, 0) + shed.count(qid) == 1
