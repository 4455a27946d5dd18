"""Table 4: TPC-H trace replay on rings of 1..8 nodes.

Paper claims reproduced here (SF-5 in the paper; trace times here are
calibrated against our own engine and normalised to the same ~1.05
core-seconds mean, see DESIGN.md):

* the simulated single node is CPU-bound at near-total utilisation
  (99.7% in the paper) and beats measured MonetDB (70% CPU),
* adding nodes raises throughput ~linearly while the throughput *per
  node* plateaus (3.4 in the paper),
* the per-node CPU utilisation declines slowly as ring latency grows
  ("came slowly down ... for 8 nodes ring").
"""

from bench_utils import SCALE, write_results
from repro import experiments


def test_tab4_tpch_scaling():
    results = experiments.tab4(SCALE)
    write_results(experiments.render_tab4(results))
    monetdb, single, *scaled = results

    # the simulated single node is CPU-bound and beats measured MonetDB
    assert single.cpu_pct > 90.0
    assert single.exec_time < monetdb.exec_time
    assert single.throughput > monetdb.throughput

    # throughput grows with ring size
    throughputs = [single.throughput] + [r.throughput for r in scaled]
    assert all(b > a for a, b in zip(throughputs, throughputs[1:]))

    # per-node throughput plateaus: the n>=2 rows sit within a band and
    # never exceed the single node's
    per_node = [r.throughput_per_node for r in scaled]
    assert max(per_node) <= single.throughput_per_node + 0.2
    assert max(per_node) - min(per_node) < 0.35 * single.throughput_per_node

    # CPU% declines as latency grows with ring size
    assert scaled[-1].cpu_pct < single.cpu_pct
    assert scaled[-1].cpu_pct > 50.0  # but stays high, the paper's point
