"""Federated ring-size scaling: the Figure 10 curve, capped.

The section 6.3 sweep shows a single ring's maximum per-BAT request
latency growing with node count: every added node lengthens the
rotation every request must wait out.  The federation's claim
(docs/multiring.md) is that the curve is *rotation-bound, not
node-bound*: keep rings small and add rings instead of nodes, and the
worst-case wait grows with the (constant) ring circumference plus a
bounded cross-ring hop, not with the total node count.

This benchmark re-runs the section 5.3 Gaussian workload at equal
total node count -- N nodes as one classic ring vs the same N nodes as
a 4-ring federation -- at two scales, and asserts:

* growth: doubling the node count inflates the federation's maximum
  per-BAT request latency strictly slower than the single ring's,
* absolute: at the larger scale the federation's worst-case latency
  beats the single ring's.
"""

from bench_utils import SCALE, write_result
from repro import experiments
from repro.metrics.report import render_table
from repro.multiring import MultiRingConfig, RingFederation

N_RINGS = 4
SIZES = (8, 16, 20) if SCALE == "paper" else (8, 16)
MAX_TIME = 3600.0


def run_single_ring(n_nodes: int):
    """One point of the classic Figure 10 curve."""
    return experiments.ring_size_sweep(SCALE).run_size(n_nodes, max_time=MAX_TIME)


def run_federation(total_nodes: int) -> dict:
    """The same workload over ``total_nodes`` split into N_RINGS rings."""
    sweep = experiments.ring_size_sweep(SCALE)
    nodes_per_ring = total_nodes // N_RINGS
    fed = RingFederation(MultiRingConfig(
        base=sweep.config(nodes_per_ring),
        n_rings=N_RINGS,
        nodes_per_ring=nodes_per_ring,
        splitmerge_interval=0.0,  # fixed topology: measure routing, not resizing
    ))
    dataset = sweep.dataset()
    for bat_id, size in dataset.sizes.items():
        fed.add_bat(bat_id, size)
    sweep.workload(dataset, total_nodes).submit_to(fed)
    completed = fed.run_until_done(max_time=MAX_TIME)
    return {
        "total_nodes": total_nodes,
        "completed": completed,
        "peak_latency": federation_peak_request_latency(fed),
        "summary": fed.summary(),
    }


def federation_peak_request_latency(fed: RingFederation) -> float:
    """Worst wait for any BAT anywhere: the slowest in-ring request or
    the slowest cross-ring fetch (a remote pin waits for both paths)."""
    peak = 0.0
    for ring in fed.rings:
        for s in ring.metrics.bats.values():
            if s.max_request_latency > peak:
                peak = s.max_request_latency
    for latency in fed.router.fetch_latency_max.values():
        if latency > peak:
            peak = latency
    return peak


def test_federation_caps_the_figure10_latency_curve():
    single = {n: run_single_ring(n) for n in SIZES}
    fed = {n: run_federation(n) for n in SIZES}

    rows = [
        (
            n,
            round(single[n].peak_latency, 3),
            round(fed[n]["peak_latency"], 3),
            single[n].finished,
            fed[n]["summary"]["completed"],
        )
        for n in SIZES
    ]
    write_result(
        "multiring_scaling",
        render_table(
            ["#nodes", "single max lat(s)", f"{N_RINGS}-ring max lat(s)",
             "single finished", "fed finished"],
            rows,
            title="Figure 10 at equal node count: one ring vs a federation",
        ),
    )

    for n in SIZES:
        assert single[n].finished > 0
        assert fed[n]["completed"], f"federation at {n} nodes must terminate"
        assert fed[n]["summary"]["failed"] == 0

    lo, hi = SIZES[0], SIZES[-1]
    single_growth = single[hi].peak_latency / single[lo].peak_latency
    fed_growth = fed[hi]["peak_latency"] / fed[lo]["peak_latency"]
    # the tentpole claim: the federation's worst-case request latency
    # grows strictly slower than the single ring's
    assert fed_growth < single_growth, (
        f"federation growth x{fed_growth:.2f} must stay under the single "
        f"ring's x{single_growth:.2f}"
    )
    # and at the larger scale it wins outright
    assert fed[hi]["peak_latency"] < single[hi].peak_latency, (
        f"at {hi} nodes: federation {fed[hi]['peak_latency']:.2f}s vs "
        f"single ring {single[hi].peak_latency:.2f}s"
    )


def test_cross_ring_traffic_is_actually_exercised():
    result = run_federation(SIZES[0])
    s = result["summary"]
    # the Gaussian hot set is spread round-robin over all rings, so a
    # meaningful share of pins must cross rings (shipped or fetched)
    assert s["queries_shipped"] + s["fetches_served"] > 0
    assert s["failed"] == 0
