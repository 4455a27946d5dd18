"""System-level property tests: random workloads, global invariants.

Hypothesis generates small but adversarial deployments (ring size, BAT
sizes, query mixes, loss rates, thresholds) and we assert the paper's
safety properties always hold:

* **liveness** -- every submitted query eventually completes,
* **BAT conservation** -- loads = unloads + drops once quiescent, and
  the ring drains to empty when interest ends,
* **catalog hygiene** -- no node retains S2/S3 entries, request-index
  lists or pinned memory after its queries are done,
* **determinism** -- identical seeds give identical traces.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import DataCyclotron, DataCyclotronConfig, MB, QuerySpec
from repro.faults.invariants import check_request_index, check_terminal

SLOW = {
    "deadline": None,
    "max_examples": 20,
    "suppress_health_check": [HealthCheck.too_slow, HealthCheck.data_too_large],
}


def deployment(n_nodes, bat_sizes, loit_static, loss_rate=0.0, queue_mb=None):
    config = DataCyclotronConfig(
        n_nodes=n_nodes,
        bat_queue_capacity=(queue_mb or 32) * MB,
        loit_static=loit_static,
        data_loss_rate=loss_rate,
        resend_timeout=0.2,
        disk_latency=1e-4,
        load_all_interval=0.01,
        seed=9,
    )
    dc = DataCyclotron(config)
    for bat_id, size in enumerate(bat_sizes):
        dc.add_bat(bat_id, size=size)
    return dc


queries_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=99),   # node (mod n_nodes)
        st.floats(min_value=0.0, max_value=0.5),  # arrival
        st.lists(st.integers(min_value=0, max_value=99), min_size=1, max_size=3),
        st.floats(min_value=0.001, max_value=0.05),  # per-BAT time
    ),
    min_size=1,
    max_size=12,
)


@settings(**SLOW)
@given(
    n_nodes=st.integers(min_value=1, max_value=6),
    n_bats=st.integers(min_value=1, max_value=12),
    loit=st.sampled_from([None, 0.0, 0.1, 0.6, 1.1]),
    queries=queries_strategy,
)
def test_property_all_queries_complete(n_nodes, n_bats, loit, queries):
    """Liveness: any random mix of queries finishes."""
    sizes = [(1 + i % 3) * 256 * 1024 for i in range(n_bats)]
    dc = deployment(n_nodes, sizes, loit)
    for qid, (node, arrival, bats, t) in enumerate(queries):
        bats = sorted({b % n_bats for b in bats})
        dc.submit(
            QuerySpec.simple(
                qid,
                node=node % n_nodes,
                arrival=arrival,
                bat_ids=bats,
                processing_times=[t] * len(bats),
            )
        )
    assert dc.run_until_done(max_time=120.0)
    assert dc.metrics.finished_count() == len(queries)
    assert not any(r.failed for r in dc.metrics.queries.values())


@settings(**SLOW)
@given(
    n_nodes=st.integers(min_value=2, max_value=5),
    loit=st.sampled_from([0.1, 0.6, 1.1]),
    queries=queries_strategy,
)
def test_property_bat_conservation_and_drain(n_nodes, loit, queries):
    """Once interest ends, loads == unloads + drops and the ring is empty."""
    n_bats = 10
    sizes = [(1 + i % 4) * 256 * 1024 for i in range(n_bats)]
    dc = deployment(n_nodes, sizes, loit)
    for qid, (node, arrival, bats, t) in enumerate(queries):
        bats = sorted({b % n_bats for b in bats})
        dc.submit(
            QuerySpec.simple(
                qid, node=node % n_nodes, arrival=arrival,
                bat_ids=bats, processing_times=[t] * len(bats),
            )
        )
    assert dc.run_until_done(max_time=120.0)
    # drain: with no new interest every BAT cools down eventually
    dc.run(until=dc.now + 30.0)
    for bat_id, stats in dc.metrics.bats.items():
        assert stats.loads == stats.unloads + stats.drops, bat_id
    assert dc.ring_load_bats == 0
    assert dc.ring_load_bytes == 0


@settings(**SLOW)
@given(
    loss=st.floats(min_value=0.0, max_value=0.3),
    queries=queries_strategy,
)
def test_property_loss_never_blocks_completion(loss, queries):
    """Any data-loss rate up to 30% is recovered by resend."""
    n_nodes, n_bats = 3, 8
    sizes = [512 * 1024] * n_bats
    dc = deployment(n_nodes, sizes, loit_static=0.3, loss_rate=loss)
    for qid, (node, arrival, bats, t) in enumerate(queries):
        bats = sorted({b % n_bats for b in bats})
        dc.submit(
            QuerySpec.simple(
                qid, node=node % n_nodes, arrival=arrival,
                bat_ids=bats, processing_times=[t] * len(bats),
            )
        )
    assert dc.run_until_done(max_time=300.0)
    assert dc.metrics.finished_count() == len(queries)
    assert check_terminal(dc) == []


@settings(**SLOW)
@given(queries=queries_strategy)
def test_property_catalog_hygiene_after_completion(queries):
    """S2/S3 and pinned memory are clean once all queries finished."""
    n_nodes, n_bats = 4, 10
    sizes = [256 * 1024] * n_bats
    dc = deployment(n_nodes, sizes, loit_static=0.2)
    for qid, (node, arrival, bats, t) in enumerate(queries):
        bats = sorted({b % n_bats for b in bats})
        dc.submit(
            QuerySpec.simple(
                qid, node=node % n_nodes, arrival=arrival,
                bat_ids=bats, processing_times=[t] * len(bats),
            )
        )
    # mid-run, while requests and blocked pins are outstanding
    for until in (0.05, 0.2, 0.6):
        dc.run(until=until)
        assert check_request_index(dc) == []
    assert dc.run_until_done(max_time=120.0)
    assert check_terminal(dc) == []
    for node in dc.nodes:
        assert len(node.s2) == 0
        assert len(node.s3) == 0
        assert node.pinned_bytes == 0
        assert not node.cache
        assert not node._resend_timers


@settings(deadline=None, max_examples=5,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=1000))
def test_property_deterministic_replay(seed):
    """Identical seeds produce identical event counts and lifetimes."""

    def run():
        dc = deployment(3, [512 * 1024] * 6, loit_static=None)
        for qid in range(6):
            dc.submit(
                QuerySpec.simple(
                    qid, node=qid % 3, arrival=0.05 * qid,
                    bat_ids=[(qid + 1) % 6, (qid + 3) % 6],
                    processing_times=[0.01, 0.02],
                )
            )
        assert dc.run_until_done(max_time=60.0)
        return (
            dc.sim.processed,
            sorted((q, round(r.lifetime, 12)) for q, r in dc.metrics.queries.items()),
        )

    assert run() == run()
