"""Unit-cost microbenches: one layer's public functions in an isolating loop.

Each bench is a function ``loop(n) -> (cpu_seconds, units)`` that sets
up its state untimed, runs about ``n`` operations under
``time.process_time()`` and says how many units of work that was.
``measure`` grows ``n`` until one loop lasts ``min_seconds``, repeats it
and reports the median cost per unit.  Run as a script (the harness
does, in a fresh interpreter) it prints one JSON line of every unit
cost by ledger name.

The numbers are workload-independent: they price one operation of one
layer with nothing else running, so ``count x unit cost`` can be held
against that layer's traced self time (README, "How the metrics
interact").
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time

import workloads  # first: it puts the checkout's src/ on sys.path

import repro.events.types as ev
from repro.core import MB, DataCyclotron, DataCyclotronConfig
from repro.dbms import Database, KvLookup, RingDatabase
from repro.dbms.statistics import StatisticsCatalog
from repro.events.bridge import attach_metrics
from repro.events.bus import Bus
from repro.frontdoor import FrontDoor
from repro.metrics.collector import MetricsCollector
from repro.metrics.slo import SloCollector, SloTarget
from repro.multiring import MultiRingConfig, PartitionedFederation
from repro.net.link import Link
from repro.sim import Simulator
from repro.workloads import UniformDataset, UniformWorkload, populate_ring
from repro.workloads.tpch import TPCH_QUERIES

SEED = 1


def timed(fn, *args) -> float:
    gc.collect()
    start = time.process_time()
    fn(*args)
    return time.process_time() - start


def noop(*_args) -> None:
    pass


# ----------------------------------------------------------------------
# sim
# ----------------------------------------------------------------------
def sim_event(n: int):
    """post -> pop -> dispatch, 64 self-reposting chains (a small heap)."""
    sim = Simulator()
    left = [n]

    def tick() -> None:
        left[0] -= 1
        if left[0] > 0:
            sim.post(1.0, tick)

    for i in range(64):
        sim.post(i / 64, tick)
    return timed(sim.run), sim.processed


def sim_cancelled_event(n: int):
    """schedule + cancel churn, then drain what the lazy compaction left."""
    sim = Simulator()

    def churn() -> None:
        for i in range(n):
            sim.schedule(1.0 + i * 1e-9, noop).cancel()
        sim.run()

    return timed(churn), n


def parallel_idle_window(n: int):
    """A traffic-free 8-ring partitioned run stepped one lookahead at a
    time: almost every window holds no event, so this is the kernel's
    deliver/grant/run/exchange round itself."""
    fed = PartitionedFederation(MultiRingConfig(
        base=DataCyclotronConfig(n_nodes=8, seed=SEED),
        n_rings=8, nodes_per_ring=8, splitmerge_interval=0.0,
        inter_ring_delay=0.002,
    ), workers=1)

    def windows() -> None:
        for i in range(1, n + 1):
            fed.run(i * 0.002)

    cpu = timed(windows)
    return cpu, fed.kernel.rounds


# ----------------------------------------------------------------------
# net
# ----------------------------------------------------------------------
def link_hop(n: int):
    """Link.send -> serialise -> deliver on a bare Simulator."""
    sim = Simulator()
    left = [n]

    def receive(message, size) -> None:
        left[0] -= 1
        if left[0] > 0:
            link.send(message, size)

    link = Link(sim, on_receive=receive)
    link.send("bat", MB)
    cpu = timed(sim.run)
    return cpu, link.stats.messages_delivered


# ----------------------------------------------------------------------
# events + metrics
# ----------------------------------------------------------------------
def publish(n_subscribers: int):
    def loop(n: int):
        bus = Bus()
        for _ in range(n_subscribers):
            bus.subscribe(ev.BatForwarded, noop)

        def site() -> None:
            # the guarded publish site every producer uses
            for i in range(n):
                if bus.active:
                    bus.publish(ev.BatForwarded(0.0, i, 0))

        return timed(site), n

    return loop


def bridged_event(n: int):
    """attach_metrics + MetricsCollector under a ring-shaped event mix."""
    bus = Bus()
    attach_metrics(bus, MetricsCollector())
    rounds = max(1, n // 10)

    def mix() -> None:
        publish = bus.publish
        for q in range(rounds):
            t = float(q)
            publish(ev.QueryRegistered(t, q, 0))
            publish(ev.RequestCreated(t, q % 64, 0))
            publish(ev.RequestForwarded(t, q % 64, 1))
            publish(ev.BatLoaded(t, q % 64, MB, 2))
            for node in range(4):
                publish(ev.BatForwarded(t, q % 64, node))
            publish(ev.BatPinned(t, q % 64, 0))
            publish(ev.QueryFinished(t, q, 0))

    return timed(mix), rounds * 10


def verdict_query(n: int):
    """SloCollector.verdict over a collector holding 20 000 queries."""
    queries = 20_000
    bus = Bus()
    slo = SloCollector().attach(bus)
    for q in range(queries):
        bus.publish(ev.QueryRegistered(float(q), q, 0))
        bus.publish(ev.QueryFinished(q + 0.5 + (q % 7) * 0.1, q, 0))
    target = SloTarget(p50=1.0, p99=2.0, p999=3.0)
    rounds = max(1, n // queries)

    def verdicts() -> None:
        for _ in range(rounds):
            slo.verdict("micro", SEED, target)

    return timed(verdicts), rounds * queries


# ----------------------------------------------------------------------
# core
# ----------------------------------------------------------------------
def bat_hop(fast_forward: bool):
    def loop(n: int):
        """A request-less 64-node ring at static LOIT 0: one BAT is
        pulled in once, then rotates with nobody interested."""
        dc = DataCyclotron(DataCyclotronConfig(
            n_nodes=64, seed=SEED, loit_static=0.0, fast_forward=fast_forward,
        ))
        dc.detach_metrics()
        dc.add_bat(0, MB)
        dc.submit(workloads.QuerySpec.simple(0, 32, 0.0, [0], [0.001]))
        dc.run(until=1.0)  # warm-up: the load and the one query
        dc.ff.flush_all()
        data = dc.ring.data
        before = sum(ch.stats.messages_sent for ch in data)
        hop_time = MB / dc.config.bandwidth + dc.config.link_delay

        def rotate() -> None:
            dc.run(until=1.0 + n * hop_time)
            dc.ff.flush_all()

        cpu = timed(rotate)
        return cpu, sum(ch.stats.messages_sent for ch in data) - before

    return loop


def workload_spec(n: int):
    """UniformWorkload.queries() + DataCyclotron.submit_all, per spec."""
    dataset = UniformDataset(n_bats=1000, min_size=MB, max_size=2 * MB, seed=SEED)
    dc = DataCyclotron(DataCyclotronConfig(n_nodes=10, seed=SEED))
    populate_ring(dc, dataset)
    workload = UniformWorkload(
        dataset, n_nodes=10, queries_per_second=10.0,
        duration=max(1.0, n / 100), min_bats=1, max_bats=3, seed=SEED,
    )
    cpu = timed(lambda: dc.submit_all(workload.queries()))
    return cpu, dc.submitted_queries


# ----------------------------------------------------------------------
# dbms, statistics, front door (on the benchmark workloads' own inputs)
# ----------------------------------------------------------------------
def loaded(cls):
    """A benchmark workload built, loaded and generated (not submitted)."""
    workload = cls(SEED)
    workload.build()
    workload.load()
    workload.generate()
    return workload


def sample(items: list, n: int) -> list:
    """About ``n`` items strided over the whole list, so the burst's
    wide scans are in the mix at any ``n``."""
    return items[::max(1, len(items) // n)]


def sql_compile(n: int):
    """RingDatabase.compile over the sql_tpch texts."""
    wl = loaded(workloads.SqlTpch)
    texts = sorted({sql for _, _, sql in wl.requests})
    rounds = max(1, n // len(texts))

    def compile_all() -> None:
        for _ in range(rounds):
            for sql in texts:
                wl.rdb.compile(sql)

    return timed(compile_all), rounds * len(texts)


def tpch_query_local(n: int):
    """Database.query over the 22 TPC-H queries at the sql_tpch scale."""
    wl = loaded(workloads.SqlTpch)
    db = Database()
    for table, columns in wl.tables.items():
        db.load_table(table, columns, rows_per_partition=wl.rows_per_partition)
    rounds = max(1, n // len(TPCH_QUERIES))

    def query_all() -> None:
        for _ in range(rounds):
            for query in TPCH_QUERIES:
                db.query(query.sql)

    return timed(query_all), rounds * len(TPCH_QUERIES)


def estimate(n: int):
    """QueryEstimator.estimate over the door_burst request mix."""
    wl = loaded(workloads.DoorBurst)
    requests = [request for _, _, request in sample(wl.submissions, n)]
    estimator = wl.door.estimator

    def estimate_all() -> None:
        for request in requests:
            estimator.estimate(request)

    return timed(estimate_all), len(requests)


def catalog_build(n: int):
    """StatisticsCatalog.from_catalog over the door_burst table."""
    wl = loaded(workloads.DoorBurst)

    def build() -> None:
        for _ in range(n):
            StatisticsCatalog.from_catalog(wl.rdb.catalog)

    return timed(build), n


def door_offer(n: int):
    """FrontDoor.offer(arrival=None) on an idle ring: estimate, tier,
    admit (no budget, so every offer takes the admit path), compile,
    schedule."""
    wl = loaded(workloads.DoorBurst)
    door = FrontDoor(wl.rdb)
    requests = [(request, node) for _, node, request in sample(wl.submissions, n)]

    def offer_all() -> None:
        for request, node in requests:
            door.offer(request, node=node)

    return timed(offer_all), len(requests)


def valve_submit(live_handles: int):
    def loop(n: int):
        """submit_request behind ``live_handles`` unfinished handles with
        a byte budget that never binds: what is left is the _shed scan."""
        rdb = RingDatabase(DataCyclotronConfig(n_nodes=4, seed=SEED))
        rdb.load_table("t", {"id": list(range(64)), "v": [1.0] * 64})
        probe = KvLookup(table="t", key=1, column="v")
        for _ in range(live_handles):
            rdb.submit_request(probe, arrival=1e9)
        rdb.byte_budget = 1 << 60
        # few enough submits that the scanned list stays near its size
        submits = min(n, max(1, live_handles // 10))

        def submit() -> None:
            for _ in range(submits):
                rdb.submit_request(probe, arrival=1e9)

        return timed(submit), submits

    return loop


# ledger name -> (loop, unit scale, unit, first n)
BENCHES = {
    "sim.ns_per_event": (sim_event, 1e9, "ns", 100_000),
    "sim.ns_per_cancelled_event": (sim_cancelled_event, 1e9, "ns", 100_000),
    "sim.parallel.us_per_idle_window": (parallel_idle_window, 1e6, "us", 2_000),
    "net.us_per_link_hop": (link_hop, 1e6, "us", 20_000),
    "events.ns_per_publish_0sub": (publish(0), 1e9, "ns", 200_000),
    "events.ns_per_publish_1sub": (publish(1), 1e9, "ns", 100_000),
    "events.ns_per_publish_8sub": (publish(8), 1e9, "ns", 50_000),
    "events.us_per_bridged_event": (bridged_event, 1e6, "us", 50_000),
    "metrics.us_per_verdict_query": (verdict_query, 1e6, "us", 400_000),
    "core.us_per_bat_hop_classic": (bat_hop(False), 1e6, "us", 30_000),
    "core.us_per_bat_hop_ff": (bat_hop(True), 1e6, "us", 200_000),
    "workloads.us_per_spec": (workload_spec, 1e6, "us", 2_000),
    "dbms.sql.us_per_compile": (sql_compile, 1e6, "us", 400),
    "dbms.exec.ms_per_tpch_query_local": (tpch_query_local, 1e3, "ms", 22),
    "dbms.statistics.us_per_estimate": (estimate, 1e6, "us", 2_000),
    "dbms.statistics.ms_per_catalog_build": (catalog_build, 1e3, "ms", 5),
    "frontdoor.us_per_offer": (door_offer, 1e6, "us", 200),
    "dbms.us_per_valve_submit_1k": (valve_submit(1000), 1e6, "us", 100),
    "dbms.us_per_valve_submit_4k": (valve_submit(4000), 1e6, "us", 400),
}


def measure(loop, n: int, min_seconds: float, repeats: int) -> dict:
    """Median cost per unit over ``repeats`` loops of >= ``min_seconds``."""
    cpu, units = loop(n)
    while cpu < min_seconds and n < 1 << 26:
        n = int(n * max(2.0, 1.2 * min_seconds / max(cpu, 1e-4)))
        previous = units
        cpu, units = loop(n)
        if units <= previous:  # the loop caps its own size (valve, inputs)
            break
    samples = [cpu / units]
    for _ in range(repeats - 1):
        cpu, units = loop(n)
        samples.append(cpu / units)
    return {"per_unit_s": statistics.median(samples), "n": len(samples), "units": units}


def run_all(min_seconds: float, repeats: int) -> dict:
    out = {}
    for name, (loop, scale, unit, first_n) in BENCHES.items():
        m = measure(loop, first_n, min_seconds, repeats)
        out[name] = {
            "value": m["per_unit_s"] * scale, "unit": unit,
            "n": m["n"], "units_per_loop": m["units"],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--min-seconds", type=float, default=0.5)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    print(json.dumps(run_all(args.min_seconds, args.repeats)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
