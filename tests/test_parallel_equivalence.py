"""Bit-identity of the partitioned kernel (docs/parallel.md).

Two contracts, both pinned by sha256 repr-hash digests over the typed
event stream of every ring (the tests/qpu_harness.py currency):

1. **Partitioned == classic.**  On ring-local workloads a
   :class:`~repro.multiring.parallel.PartitionedFederation` ring emits
   the *identical* event stream to a stand-alone
   :class:`~repro.core.ring.DataCyclotron` with the same per-ring
   configuration -- across seeds, arrival distributions and the
   resilience toggle.

2. **Today == the recorded past.**  With live cross-ring fetch traffic
   there is no classic twin to compare against, so the 20
   ``(done, digests, summary)`` triples of the cross-ring workload
   are pinned to constants
   (``tests/data/golden_partition_digests.json``, captured before the
   partition was re-hosted on the shared router and retry ladder).  The
   summaries' ``events_dispatched`` were re-pinned once since, when a
   link's serialise-end stopped being an event unless a message waits
   behind it (e.g. ``1-gaussian-plain`` 350 -> 250); nothing else moved.
"""

import json
import random
from pathlib import Path

import pytest

from repro.core.config import DataCyclotronConfig
from repro.core.query import QuerySpec
from repro.core.ring import DataCyclotron
from repro.multiring import MultiRingConfig, PartitionedFederation
from repro.multiring.messages import FetchRequest
from repro.multiring.partition import attach_stream_digest

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_partition_digests.json").read_text()
)

N_RINGS = 2
NODES = 3
N_BATS = 6
N_QUERIES = 8
HORIZON = 0.6
MAX_TIME = 30.0

SEEDS = [1, 2, 3, 4, 5]


def _arrivals(kind: str, rng: random.Random, n: int):
    if kind == "uniform":
        return sorted(rng.uniform(0.0, HORIZON) for _ in range(n))
    # gaussian burst around the middle of the horizon, clamped
    return sorted(
        min(max(rng.gauss(HORIZON / 2.0, HORIZON / 6.0), 0.0), HORIZON)
        for _ in range(n)
    )


def _config(seed: int, resilience: bool) -> MultiRingConfig:
    return MultiRingConfig(
        base=DataCyclotronConfig(seed=seed, resilience=resilience),
        n_rings=N_RINGS,
        nodes_per_ring=NODES,
    )


def _local_workload(kind: str, seed: int):
    """Ring-local specs: every query touches only its own ring's BATs.

    BAT ``b`` is homed round-robin (ring ``b % N_RINGS``), matching
    ``PartitionedFederation.add_bat``'s placement.
    """
    rng = random.Random(seed * 1009 + 17)
    arrivals = _arrivals(kind, rng, N_QUERIES)
    out = []
    for q, arrival in enumerate(arrivals):
        ring = rng.randrange(N_RINGS)
        node = rng.randrange(NODES)
        ring_bats = [b for b in range(N_BATS) if b % N_RINGS == ring]
        bats = rng.sample(ring_bats, 2)
        out.append((ring, QuerySpec.simple(
            q, node=node, arrival=arrival,
            bat_ids=bats, processing_times=[0.002, 0.003],
        )))
    return out


def _mixed_workload(kind: str, seed: int):
    """Cross-ring specs: every other query touches one remote BAT."""
    rng = random.Random(seed * 2003 + 29)
    arrivals = _arrivals(kind, rng, N_QUERIES)
    out = []
    for q, arrival in enumerate(arrivals):
        ring = rng.randrange(N_RINGS)
        node = rng.randrange(NODES)
        ring_bats = [b for b in range(N_BATS) if b % N_RINGS == ring]
        other_bats = [b for b in range(N_BATS) if b % N_RINGS != ring]
        bats = [rng.choice(ring_bats)]
        bats.append(rng.choice(other_bats if q % 2 == 0 else ring_bats))
        if bats[1] == bats[0]:
            bats[1] = ring_bats[(ring_bats.index(bats[0]) + 1) % len(ring_bats)]
        out.append((ring, QuerySpec.simple(
            q, node=node, arrival=arrival,
            bat_ids=bats, processing_times=[0.002, 0.003],
        )))
    return out


def _build_partitioned(cfg: MultiRingConfig, workload):
    fed = PartitionedFederation(cfg)
    for bat_id in range(N_BATS):
        fed.add_bat(bat_id, size=1 << 20)
    for ring, spec in workload:
        fed.submit(QuerySpec(
            query_id=spec.query_id,
            node=fed.global_node(ring, spec.node),
            arrival=spec.arrival,
            steps=spec.steps,
            tail_time=spec.tail_time,
            tag=spec.tag,
            tier=spec.tier,
        ))
    return fed


def _run_partitioned(cfg: MultiRingConfig, workload):
    fed = _build_partitioned(cfg, workload)
    digests = [attach_stream_digest(part.bus) for part in fed.partitions]
    done = fed.run_until_done(max_time=MAX_TIME)
    summary = fed.summary()  # finishes the run: open flights are flushed
    return done, [d.hexdigest() for d in digests], summary


def _run_classic(cfg: MultiRingConfig, workload):
    """The reference: each ring as a stand-alone classic deployment."""
    digests = []
    for ring in range(N_RINGS):
        dc = DataCyclotron(config=cfg.ring_config(ring))
        digest = attach_stream_digest(dc.bus)
        for bat_id in range(N_BATS):
            if bat_id % N_RINGS == ring:
                dc.add_bat(bat_id, size=1 << 20)
        for r, spec in workload:
            if r == ring:
                dc.submit(spec)
        dc.run_until_done(max_time=MAX_TIME)
        digests.append(digest.hexdigest())
    return digests


# ----------------------------------------------------------------------
# contract 1: partitioned == classic, ring-local workloads
# ----------------------------------------------------------------------
@pytest.mark.parametrize("resilience", [False, True], ids=["plain", "resilience"])
@pytest.mark.parametrize("kind", ["uniform", "gaussian"])
@pytest.mark.parametrize("seed", SEEDS)
def test_partitioned_matches_classic(seed, kind, resilience):
    cfg = _config(seed, resilience)
    workload = _local_workload(kind, seed)
    done, partitioned, summary = _run_partitioned(cfg, workload)
    assert done, "partitioned run did not finish"
    assert summary["failed"] == 0
    classic = _run_classic(_config(seed, resilience), workload)
    assert partitioned == classic


# ----------------------------------------------------------------------
# contract 2: the cross-ring runs match constants recorded at the parent
# ----------------------------------------------------------------------
@pytest.mark.parametrize("resilience", [False, True], ids=["plain", "resilience"])
@pytest.mark.parametrize("kind", ["uniform", "gaussian"])
@pytest.mark.parametrize("seed", SEEDS)
def test_cross_ring_runs_match_the_golden_digests(seed, kind, resilience):
    golden = GOLDEN[f"{seed}-{kind}-{'resilience' if resilience else 'plain'}"]
    done, digests, summary = _run_partitioned(
        _config(seed, resilience), _mixed_workload(kind, seed)
    )
    summary.pop("workers")  # recorded without it
    assert done == golden["done"]
    assert digests == golden["ring_digests"]
    assert summary == golden["summary"]


def test_partitions_issue_disjoint_request_ids():
    """Serves are tracked by request id on the *home* ring, so two
    partitions' routers must never hand out the same id."""
    fed = _build_partitioned(_config(1, False), _mixed_workload("uniform", 1))
    issued = {part.ring_id: set() for part in fed.partitions}
    for part in fed.partitions:
        def tapped(collect=part.collect_outbox, seen=issued[part.ring_id]):
            out = collect()
            seen.update(
                m.payload.req_id for m in out if isinstance(m.payload, FetchRequest)
            )
            return out
        part.collect_outbox = tapped
    assert fed.run_until_done(max_time=MAX_TIME)
    assert all(issued.values()), "a ring issued no cross-ring fetch"
    assert not issued[0] & issued[1]


def test_cross_ring_traffic_is_actually_exercised():
    _, _, summary = _run_partitioned(_config(1, False), _mixed_workload("uniform", 1))
    assert summary["fetches_served"] > 0
    assert summary["kernel_messages"] >= 2 * summary["fetches_served"]
