"""The seven benchmark workloads and the pass that runs one of them.

Every workload is a *simulated open loop*: arrivals are generated in
simulated time from the seed before the run starts, the program
receives only the generated inputs, and latency is timed from the
scheduled arrival.  On the host side one process drains the simulation
as fast as it can, so the host metrics are "work per CPU second at a
stated input size".

``python bench/workloads.py NAME --seed N --scale X --mode MODE`` runs
one pass in this (fresh) interpreter and prints one JSON line; the
harness in ``run.py`` spawns it once per repeat.  Modes: ``timed`` (the
workload's own observer set), ``verify`` (observers attached: the twin
of a zero-observer workload) and ``traced`` (``timed`` under cProfile).

Why each workload exists is in ``WORKLOADS[name].why`` and, at length,
in ``README.md``.  A workload is added or resized only by its own
benchmark issue (choosing-metrics guide, section 6).
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import random
import resource
import sys
import time
from bisect import bisect_right
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    raise ImportError(f"bench: no program to measure at {ROOT / 'src' / 'repro'}")
sys.path.insert(0, str(ROOT / "src"))

from repro.core import MB, DataCyclotron, DataCyclotronConfig, QuerySpec  # noqa: E402
from repro.dbms import Database, RingDatabase  # noqa: E402
from repro.frontdoor import FrontDoor, FrontDoorPolicy  # noqa: E402
from repro.metrics.slo import exact_quantile  # noqa: E402
from repro.multiring import (  # noqa: E402
    MultiRingConfig,
    PartitionedFederation,
    RingFederation,
)
from repro.workloads import (  # noqa: E402
    LocalityShiftWorkload,
    UniformDataset,
    UniformWorkload,
    populate_ring,
)
from repro.workloads.frontdoor import FrontDoorWorkload  # noqa: E402
from repro.workloads.tpch import TPCH_QUERIES, generate_tpch  # noqa: E402

import layers  # noqa: E402

# A run that reaches this simulated time did not quiesce; that is a
# failed check, never a result.
MAX_TIME = 1e6

SETUP_PHASES = ("build", "load", "generate", "submit")


# ----------------------------------------------------------------------
# exact work counts read off the public counters
# ----------------------------------------------------------------------
COUNT_NAMES = (
    "sim.events_processed", "sim.events_dispatched", "sim.events_credited",
    "sim.parallel.windows", "sim.parallel.messages",
    "net.link_messages", "net.link_bytes", "net.droptail_drops",
    "core.bat_hops", "core.bat_loads", "core.requests_sent",
    "core.requests_absorbed", "core.resends", "core.loit_changes",
    "core.ff_flights", "core.ff_hops_coalesced", "core.ff_flushes",
    "dbms.queries_mal", "dbms.queries_kv", "dbms.queries_stream",
    "dbms.valve_shed", "dbms.handles",
    "dbms.statistics.estimates", "dbms.statistics.exact_bytes_ratio",
    "frontdoor.offered", "frontdoor.admitted", "frontdoor.rejected",
    "frontdoor.peak_est_inflight_bytes",
    "multiring.cross_ring_requests", "multiring.fetches_served",
    "multiring.fetches_failed", "multiring.queries_shipped",
    "multiring.fragments_migrated",
)


def ring_counts(rings, sims) -> dict:
    """Kernel, link, ring-runtime and fast-forward counts over ``rings``.

    ``sims`` are the distinct simulators behind them (one for a classic
    ring or a shared-clock federation, one per ring when partitioned).
    Flights are landed first so every coalesced hop is in the link
    statistics, exactly as ``summary()`` does.
    """
    for dc in rings:
        dc.ff.flush_all()
    counts = dict.fromkeys(COUNT_NAMES, 0)
    for sim in sims:
        counts["sim.events_processed"] += sim.processed
        counts["sim.events_dispatched"] += sim.dispatched
        counts["sim.events_credited"] += sim.credited
    for dc in rings:
        for channel in dc.ring.data + dc.ring.request:
            counts["net.link_messages"] += channel.stats.messages_sent
            counts["net.link_bytes"] += channel.stats.bytes_sent
        counts["net.droptail_drops"] += dc.ring.total_data_messages_dropped
        m = dc.metrics
        counts["core.bat_hops"] += m.bat_messages_forwarded
        counts["core.bat_loads"] += sum(s.loads for s in m.bats.values())
        counts["core.requests_sent"] += m.requests_sent
        counts["core.requests_absorbed"] += m.requests_absorbed
        counts["core.resends"] += m.resends
        counts["core.loit_changes"] += m.loit_changes
        ff = dc.ff.stats()
        counts["core.ff_flights"] += ff["flights"]
        counts["core.ff_hops_coalesced"] += ff["hops_coalesced"]
        counts["core.ff_flushes"] += ff["flushes"]
    return counts


def finish_times(collectors) -> dict:
    """``{query_id: finish time}`` of every successful query."""
    return {
        qid: rec.finished_at
        for metrics in collectors
        for qid, rec in metrics.queries.items()
        if rec.finished_at is not None and not rec.failed
    }


def check(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def fetches_settled(summary: dict) -> dict:
    """Every cross-ring fetch a federation dispatched was served or failed."""
    sent, served, failed = (
        summary[k] for k in ("fetches_dispatched", "fetches_served", "fetches_failed")
    )
    return check("fetches-dispatched=served+failed", sent == served + failed,
                 f"{sent} = {served} + {failed}")


# ----------------------------------------------------------------------
# the workloads
# ----------------------------------------------------------------------
class Workload:
    """One deployment + one generated input set, phase by phase.

    ``generate`` fills ``self.arrivals`` (``{query_id: scheduled
    arrival}``); ``observe`` returns the deployment's ``summary()``,
    ``finishes`` (successful queries only) and its ``counts``.
    """

    name = ""
    horizon = 0.0          # simulated seconds of arrivals at scale 1
    detached = False       # timed passes run with zero observers

    def __init__(self, seed: int, scale: float = 1.0, attached: bool = True):
        self.seed = seed
        self.duration = self.horizon * scale
        self.attached = attached
        self.arrivals: dict = {}

    def build(self) -> None:
        raise NotImplementedError

    def load(self) -> None:
        raise NotImplementedError

    def generate(self) -> None:
        raise NotImplementedError

    def submit(self) -> None:
        raise NotImplementedError

    def run(self) -> bool:
        """Drain the simulation; True when it quiesced before MAX_TIME."""
        raise NotImplementedError

    def observe(self) -> dict:
        raise NotImplementedError

    def verify(self, obs: dict) -> list:
        """Workload-specific output checks; wrong results are counted
        into ``obs["wrong"]``."""
        return []


class RingDense(Workload):
    """Paper 5.1 saturated ring, metrics attached: core runtime, net,
    sim and the events -> bridge -> metrics path do the work;
    fast-forward coalesces little.

    Size: 10 nodes, 1000 BATs of 1-2 MB, 40 MB/s links, 15 MB queues,
    adaptive LOIT, 10 q/s/node x 30 s = 3000 queries of 1-3 BATs.
    """

    name = "ring_dense"
    horizon = 30.0

    def build(self) -> None:
        self.dc = DataCyclotron(DataCyclotronConfig(
            n_nodes=10, seed=self.seed, bandwidth=40 * MB,
            bat_queue_capacity=15 * MB, fast_forward=True,
        ))

    def load(self) -> None:
        self.dataset = UniformDataset(
            n_bats=1000, min_size=MB, max_size=2 * MB, seed=self.seed
        )
        populate_ring(self.dc, self.dataset)

    def generate(self) -> None:
        self.specs = list(UniformWorkload(
            self.dataset, n_nodes=10, queries_per_second=10.0,
            duration=self.duration, min_bats=1, max_bats=3, seed=self.seed,
        ).queries())
        self.arrivals = {s.query_id: s.arrival for s in self.specs}

    def submit(self) -> None:
        self.dc.submit_all(self.specs)

    def run(self) -> bool:
        return self.dc.run_until_done(max_time=MAX_TIME)

    def observe(self) -> dict:
        return {
            "summary": self.dc.summary(),
            "finishes": finish_times([self.dc.metrics]),
            "counts": ring_counts([self.dc], [self.dc.sim]),
        }


class RingSparse(RingDense):
    """Same core/sim layers used the other way: zero observers and long
    disinterested runs, so core.fastforward does the work and
    events/metrics none.

    Size: 64 nodes, 8 BATs of 1 MB with 1 hot, 2 q/s Poisson x 2400 s
    (about 4800 queries), detach_metrics(), fast_forward=True.
    """

    name = "ring_sparse"
    horizon = 2400.0
    detached = True

    def build(self) -> None:
        self.dc = DataCyclotron(DataCyclotronConfig(
            n_nodes=64, seed=self.seed, fast_forward=True,
            # frequent ticks keep the periodic machinery in the measurement
            load_all_interval=0.2, loit_adapt_interval=0.5,
        ))
        if not self.attached:
            self.dc.detach_metrics()

    def load(self) -> None:
        for bat_id in range(8):
            self.dc.add_bat(bat_id, MB)

    def generate(self) -> None:
        rng = random.Random(self.seed)
        self.specs = []
        t = 0.0
        while True:
            t += rng.expovariate(2.0)
            if t >= self.duration:
                break
            self.specs.append(QuerySpec.simple(
                len(self.specs), rng.randrange(64), t, [0], [0.002]
            ))
        self.arrivals = {s.query_id: s.arrival for s in self.specs}

    def verify(self, obs: dict) -> list:
        done = self.dc.completed_queries
        return [check("all-completed", done == len(self.specs),
                      f"{done}/{len(self.specs)}")]


LIGHT_QUERIES = (
    # range group-by, top-k, 2-way join count, filtered avg
    "SELECT l_returnflag, sum(l_quantity) q FROM lineitem "
    "WHERE l_shipdate >= {d} AND l_shipdate < {e} GROUP BY l_returnflag",
    "SELECT o_orderkey, o_totalprice FROM orders "
    "WHERE o_orderdate >= {d} AND o_orderdate < {e} "
    "ORDER BY o_totalprice DESC LIMIT 10",
    "SELECT count(*) c FROM orders, customer WHERE o_custkey = c_custkey "
    "AND c_mktsegment = {k} AND o_orderdate < {d}",
    "SELECT avg(l_extendedprice) a FROM lineitem "
    "WHERE l_discount >= 0.0{k} AND l_quantity < {q}",
)


def canonical_rows(result) -> list:
    """A result set as a sorted row multiset, floats rounded to 9
    significant digits (ring and local plans may fold partitions in a
    different order)."""
    rows = [
        tuple(float(f"{v:.9g}") if isinstance(v, float) else v for v in row)
        for row in result.rows()
    ]
    return sorted(rows, key=repr)


class SqlTpch(Workload):
    """Functional mode: dbms (sql compile at submit, DC optimizer,
    interpreter, numpy kernel) is the largest layer; dbms work lands
    here.  Every result set is checked against a local Database.

    Size: 4-node RingDatabase(lifecycle_events=True), TPC-H sf 0.001
    at 2000 rows/partition, the 22 TPC-H queries + 600 light
    queries (4 templates x 24 parameter sets) over 20 simulated s.
    """

    name = "sql_tpch"
    horizon = 20.0
    scale_factor = 0.001
    rows_per_partition = 2000
    n_light = 600
    n_params = 24

    def build(self) -> None:
        self.rdb = RingDatabase(
            DataCyclotronConfig(n_nodes=4, seed=self.seed),
            lifecycle_events=True,
        )

    def load(self) -> None:
        self.tables = generate_tpch(self.scale_factor, seed=self.seed)
        for table, columns in self.tables.items():
            self.rdb.load_table(
                table, columns, rows_per_partition=self.rows_per_partition
            )

    def generate(self) -> None:
        rng = random.Random(self.seed)
        texts = [q.sql for q in TPCH_QUERIES]
        rng.shuffle(texts)
        # a small parameter pool: texts repeat, as parametrised
        # statements do, so verification runs each distinct text once
        params = [
            {"d": day, "e": day + 300, "k": rng.randrange(0, 5),
             "q": rng.randrange(10, 40)}
            for day in (rng.randrange(100, 2000) for _ in range(self.n_params))
        ]
        n_light = max(1, int(self.n_light * self.duration / self.horizon))
        texts.extend(
            rng.choice(LIGHT_QUERIES).format(**rng.choice(params))
            for _ in range(n_light)
        )
        rng.shuffle(texts)
        gap = self.duration / len(texts)
        # (arrival, node, sql); query ids are assigned in this order
        self.requests = [
            (i * gap, rng.randrange(4), sql) for i, sql in enumerate(texts)
        ]
        self.arrivals = {i: r[0] for i, r in enumerate(self.requests)}

    def submit(self) -> None:
        self.handles = [
            self.rdb.submit(sql, node=node, arrival=arrival)
            for arrival, node, sql in self.requests
        ]

    def run(self) -> bool:
        return self.rdb.run_until_done(max_time=MAX_TIME)

    def observe(self) -> dict:
        dc = self.rdb.dc
        counts = ring_counts([dc], [dc.sim])
        counts.update(dbms_counts(self.rdb))
        return {
            "summary": dc.summary(),
            "finishes": finish_times([dc.metrics]),
            "counts": counts,
        }

    def verify(self, obs: dict) -> list:
        """Every result set equals a local ``Database.query`` of the
        same text (row-multiset equality)."""
        local = Database()
        for table, columns in self.tables.items():
            local.load_table(
                table, columns, rows_per_partition=self.rows_per_partition
            )
        expected: dict = {}
        wrong = []
        for handle, (_, _, sql) in zip(self.handles, self.requests):
            if sql not in expected:
                expected[sql] = canonical_rows(local.query(sql))
            if handle.result is None or canonical_rows(handle.result) != expected[sql]:
                wrong.append(handle.query_id)
        obs["wrong"] = len(wrong)
        return [check("results-match-local", not wrong, f"wrong: {wrong[:5]}")]


def dbms_counts(rdb: RingDatabase) -> dict:
    m = rdb.metrics
    return {
        "dbms.queries_mal": m.queries_by_engine.get("mal", 0),
        "dbms.queries_kv": m.queries_by_engine.get("kv", 0),
        "dbms.queries_stream": m.queries_by_engine.get("stream", 0),
        "dbms.valve_shed": m.queries_shed_by_reason.get("byte-valve", 0)
        + m.queries_shed_by_reason.get("count-valve", 0),
        "dbms.handles": len(rdb.handles),
    }


class DoorBurst(Workload):
    """The serving tier's own path: frontdoor + dbms.statistics price
    and gate every arrival of a 3.3x-capacity burst; dispatcher
    valves off.

    Size: FrontDoorWorkload (12000 rows, kv 40/s + mal 15/s + stream
    3/s, SELECT * burst 30/s over the middle two thirds of 60 s = 4680
    offered), FrontDoor(estimate, 3 MB budget, 512 KB single-query
    cap), 4-node 6 MB/s ring.
    """

    name = "door_burst"
    horizon = 60.0
    admission = "estimate"
    byte_budget = 3 * MB
    # The burst's SELECT * binds 576 KB.  Without a single-query cap,
    # whether one slips through an empty valve early in the burst flips
    # the whole run between two regimes (344 k vs 538 k events), seed by
    # seed; with it the door refuses wide scans outright and the row
    # repeats to within 3 % across seeds.
    wide_scan_cap = 512 * 1024

    def build(self) -> None:
        self.rdb = RingDatabase(
            DataCyclotronConfig(
                n_nodes=4, seed=self.seed, bandwidth=6 * MB, fast_forward=False,
            ),
            lifecycle_events=True,
        )
        self.workload = FrontDoorWorkload(
            n_rows=12000, rows_per_partition=500, kv_rate=40.0, mal_rate=15.0,
            stream_rate=3.0, burst_rate=30.0,
            burst_start=self.duration / 6, burst_end=self.duration * 5 / 6,
            duration=self.duration, seed=self.seed,
        )

    def load(self) -> None:
        self.workload.load_into(self.rdb)
        # With admission="none" the door only observes: budget and cap
        # are ignored and the dispatcher's blind byte valve gates instead.
        policy = FrontDoorPolicy(
            tier_boundaries=(16 * 1024, 120 * 1024), admission=self.admission,
            byte_budget=self.byte_budget, reject_above_bytes=self.wide_scan_cap,
        )
        if self.admission == "none":
            self.rdb.byte_budget = self.byte_budget
        # the door builds its statistics catalog from the loaded tables
        self.door = FrontDoor(self.rdb, policy=policy)

    def generate(self) -> None:
        self.submissions = self.workload.submissions()
        # the door hands out query ids in arrival order
        self.arrivals = {i: s[0] for i, s in enumerate(self.submissions)}

    def submit(self) -> None:
        self.door.offer_all(self.submissions)

    def run(self) -> bool:
        return self.rdb.run_until_done(max_time=MAX_TIME)

    def observe(self) -> dict:
        dc = self.rdb.dc
        door = self.door
        counts = ring_counts([dc], [dc.sim])
        counts.update(dbms_counts(self.rdb))
        m = dc.metrics
        counts.update({
            "dbms.statistics.estimates": m.queries_estimated,
            "dbms.statistics.exact_bytes_ratio": (
                m.estimate_exact_bytes / m.estimate_feedback_count
                if m.estimate_feedback_count else 0.0
            ),
            "frontdoor.offered": door.offered,
            "frontdoor.admitted": door.admitted,
            "frontdoor.rejected": door.rejected,
            "frontdoor.peak_est_inflight_bytes":
                door.peak_estimated_inflight_bytes,
        })
        summary = dc.summary()
        summary["door"] = door.summary()
        return {
            "summary": summary,
            "finishes": finish_times([dc.metrics]),
            "counts": counts,
            # admission control said no: by design under overload, so
            # counted apart from operations that failed
            "refused": door.rejected + counts["dbms.valve_shed"],
        }

    def verify(self, obs: dict) -> list:
        door = self.door
        outcomes = dict(Counter(t.outcome for t in door.tickets.values()))
        settled = sum(
            t.finished + t.failed + t.shed_downstream
            for t in door.by_tier.values()
        )
        on_time = all(
            self.rdb.metrics.queries[qid].registered_at == self.arrivals[qid]
            for qid in obs["finishes"]
        )
        return [
            check("offered=admitted+rejected",
                  door.offered == door.admitted + door.rejected
                  == len(self.submissions),
                  f"{door.offered} = {door.admitted} + {door.rejected}"),
            check("admitted-settled-once",
                  settled == door.admitted and "inflight" not in outcomes
                  and door.estimated_inflight_bytes == 0,
                  f"settled {settled}/{door.admitted}, outcomes {outcomes}"),
            check("registered-at-arrival", on_time),
        ]


class ValveBurst(DoorBurst):
    """Blind twin of door_burst: the same admission job done by the
    post-compile valve, whose _shed rescans every handle per submit
    (ROADMAP's first finding to fix).

    Size: as door_burst with admission='none' and rdb.byte_budget =
    3 MB, 24 s = 1872 offered.
    """

    name = "valve_burst"
    horizon = 24.0
    admission = "none"


class FedPartitioned(Workload):
    """The only row where the conservative-lookahead kernel
    (sim.parallel) and the multiring.partition router run at all, at
    workers=1.

    Size: PartitionedFederation(workers=1): 8 rings x 8 nodes, 64
    BATs of 1 MB round-robin, 30 q/s/ring x 28 s, every 8th query +
    1 remote BAT, 2 ms inter-ring delay = lookahead.
    """

    name = "fed_partitioned"
    horizon = 28.0
    n_rings = 8
    nodes = 8

    def build(self) -> None:
        self.fed = PartitionedFederation(MultiRingConfig(
            base=DataCyclotronConfig(
                n_nodes=self.nodes, seed=self.seed, fast_forward=True
            ),
            n_rings=self.n_rings, nodes_per_ring=self.nodes,
            splitmerge_interval=0.0, inter_ring_delay=0.002,
        ), workers=1)

    def load(self) -> None:
        for bat_id in range(8 * self.n_rings):
            self.fed.add_bat(bat_id, MB)

    def generate(self) -> None:
        """Per ring a Poisson stream of single-BAT ring-local queries,
        every 8th adding one remote BAT so the windows do real work."""
        rng = random.Random(self.seed)
        n_rings = self.n_rings
        bats = range(8 * n_rings)
        self.specs = []
        for ring in range(n_rings):
            local = [b for b in bats if b % n_rings == ring]
            remote = [b for b in bats if b % n_rings != ring]
            t = 0.0
            while True:
                t += rng.expovariate(30.0)
                if t >= self.duration:
                    break
                qid = len(self.specs) + 1
                wanted = [rng.choice(local)]
                if qid % 8 == 0:
                    wanted.append(rng.choice(remote))
                node = self.fed.global_node(ring, rng.randrange(self.nodes))
                self.specs.append(QuerySpec.simple(
                    qid, node, t, wanted, [0.002] * len(wanted)
                ))
        self.specs.sort(key=lambda s: (s.arrival, s.query_id))
        self.arrivals = {s.query_id: s.arrival for s in self.specs}

    def submit(self) -> None:
        self.fed.submit_all(self.specs)

    def run(self) -> bool:
        done = self.fed.run_until_done(max_time=MAX_TIME)
        self.fed.finish()
        return done

    def observe(self) -> dict:
        summary = self.fed.summary()
        rings = [part.dc for part in self.fed.partitions]
        counts = ring_counts(rings, [dc.sim for dc in rings])
        counts.update({
            "sim.parallel.windows": summary["kernel_rounds"],
            "sim.parallel.messages": summary["kernel_messages"],
            "multiring.cross_ring_requests": summary["fetches_dispatched"],
            "multiring.fetches_served": summary["fetches_served"],
            "multiring.fetches_failed": summary["fetches_failed"],
        })
        return {
            "summary": summary,
            "finishes": finish_times([dc.metrics for dc in rings]),
            "counts": counts,
        }

    def verify(self, obs: dict) -> list:
        return [fetches_settled(obs["summary"])]


class FedShift(Workload):
    """The production shared-clock federation (multiring.router,
    placement, ship-vs-fetch) the suite scenarios run; it bypasses
    the partitioned kernel.

    Size: RingFederation: 4 rings x 4 nodes, 400 BATs of 1-2 MB in
    contiguous blocks, LocalityShiftWorkload 60 q/s x 200 s from
    ring 0, placement_interval 0.25, patience 2, ship_threshold 0.7.
    """

    name = "fed_shift"
    horizon = 200.0
    n_rings = 4
    nodes = 4

    def build(self) -> None:
        self.fed = RingFederation(MultiRingConfig(
            base=DataCyclotronConfig(
                n_nodes=self.nodes, seed=self.seed, bandwidth=40 * MB,
                bat_queue_capacity=15 * MB,
            ),
            n_rings=self.n_rings, nodes_per_ring=self.nodes,
            splitmerge_interval=0.0, placement_interval=0.25,
            migration_patience=2, ship_threshold=0.7,
        ))

    def load(self) -> None:
        self.dataset = UniformDataset(
            n_bats=400, min_size=MB, max_size=2 * MB, seed=self.seed
        )
        n = self.dataset.n_bats
        for bat_id, size in sorted(self.dataset.sizes.items()):
            self.fed.add_bat(bat_id, size, ring=bat_id * self.n_rings // n)

    def generate(self) -> None:
        self.specs = list(LocalityShiftWorkload(
            self.dataset, n_nodes=self.fed.config.total_nodes,
            nodes=list(range(self.nodes)), rate=60.0, duration=self.duration,
            seed=self.seed,
        ).queries())
        self.arrivals = {s.query_id: s.arrival for s in self.specs}

    def submit(self) -> None:
        self.fed.submit_all(self.specs)

    def run(self) -> bool:
        done = self.fed.run_until_done(max_time=MAX_TIME)
        for ring in self.fed.rings:
            ring.ff.flush_all()
        return done

    def observe(self) -> dict:
        fed = self.fed
        summary = fed.summary()
        counts = ring_counts(fed.rings, [fed.sim])
        counts.update({
            "multiring.cross_ring_requests": summary["fetches_dispatched"],
            "multiring.fetches_served": summary["fetches_served"],
            "multiring.fetches_failed": summary["fetches_failed"],
            "multiring.queries_shipped": summary["queries_shipped"],
            "multiring.fragments_migrated": summary["fragments_migrated"],
        })
        return {
            "summary": summary,
            "finishes": finish_times([ring.metrics for ring in fed.rings]),
            "counts": counts,
        }

    def verify(self, obs: dict) -> list:
        return [fetches_settled(obs["summary"])]


WORKLOADS = {
    cls.name: cls
    for cls in (
        RingDense, RingSparse, SqlTpch, DoorBurst, ValveBurst,
        FedPartitioned, FedShift,
    )
}


# ----------------------------------------------------------------------
# one pass
# ----------------------------------------------------------------------
TAIL_SHARE = 0.10      # sim_latency_tail_s averages the slowest tenth
GOODPUT_QUANTILE = 0.99


def simulated_metrics(arrivals: dict, finishes: dict, refused: int, wrong: int) -> dict:
    """The simulated-time metrics, timed from the scheduled arrival.

    The three end-to-end ones are smooth in the sample on purpose: a
    quantile that sits on the edge of a point mass (a cache hit, a
    resend timeout) jumps between seeds, and a makespan is set by one
    straggler.  So: the mean, the mean of the slowest tenth, and the
    completion rate up to the instant 99 % of the successes were done.
    p50, p99 and the makespan stay in the report as diagnostics.
    """
    latencies = sorted(finishes[q] - arrivals[q] for q in finishes)
    done = sorted(finishes.values())
    n = len(latencies)
    start = min(arrivals.values())
    tail = latencies[n - max(1, int(n * TAIL_SHARE)):]
    t99 = exact_quantile(done, GOODPUT_QUANTILE)
    return {
        "sim_latency_mean_s": sum(latencies) / n if n else 0.0,
        "sim_latency_tail_s": sum(tail) / len(tail) if n else 0.0,
        "sim_goodput_qps": bisect_right(done, t99) / (t99 - start) if n else 0.0,
        "sim_latency_p50_s": exact_quantile(latencies, 0.50),
        "sim_latency_p99_s": exact_quantile(latencies, 0.99),
        "sim_makespan_s": done[-1] - start if n else 0.0,
        "latency_samples": n,
        "ops_attempted": len(arrivals),
        "ops_refused": refused,
        "ops_failed": len(arrivals) - refused - n + wrong,
    }


def run_pass(name: str, seed: int, scale: float, mode: str) -> dict:
    """Build, load, generate, submit, run, observe and verify once."""
    cls = WORKLOADS[name]
    workload = cls(seed, scale, attached=not cls.detached or mode == "verify")
    spans = []

    def phase(label, fn, *args):
        start = time.process_time()
        out = fn(*args)
        spans.append({
            "name": f"phase.{label}", "parent": name,
            "start": start, "end": time.process_time(),
        })
        return out

    for label in SETUP_PHASES:
        phase(label, getattr(workload, label))
    # GC stays enabled: users pay for it, and disabling it lets flight
    # cycles pile up (README, "Methodology")
    gc.collect()
    profiler = cProfile.Profile() if mode == "traced" else None
    wall = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    quiesced = phase("run", workload.run)
    if profiler is not None:
        profiler.disable()
    wall = time.perf_counter() - wall
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    obs = phase("summarise", workload.observe)
    checks = [check("quiesced-before-max-time", quiesced)]
    checks += phase("verify", workload.verify, obs)
    sim = simulated_metrics(
        workload.arrivals, obs["finishes"], obs.get("refused", 0), obs.get("wrong", 0)
    )
    digest = hashlib.sha256(json.dumps(
        {"summary": obs["summary"], "sim": sim}, sort_keys=True, default=repr,
    ).encode()).hexdigest()
    phases = {s["name"] + "_s": s["end"] - s["start"] for s in spans}
    result = {
        "workload": name, "seed": seed, "scale": scale, "mode": mode,
        "spans": spans,
        "phases": phases,
        "setup_s": sum(phases[f"phase.{p}_s"] for p in SETUP_PHASES),
        "host_cpu_s": phases["phase.run_s"],
        "host_wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "sim": sim,
        "counts": obs["counts"],
        "checks": checks,
        "sim_digest": digest,
    }
    if profiler is not None:
        result["trace"] = layers.fold(profiler)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--mode", choices=("timed", "verify", "traced"),
                        default="timed")
    args = parser.parse_args(argv)
    print(json.dumps(run_pass(args.workload, args.seed, args.scale, args.mode)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
