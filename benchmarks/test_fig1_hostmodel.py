"""Figure 1: CPU-load breakdown of legacy / NIC-offload / RDMA transfers.

Paper claims reproduced here: only RDMA significantly reduces the local
I/O overhead; offloading the network stack alone is not sufficient
because intermediate data copying dominates; and the rule of thumb that
1 GHz of CPU is needed per 1 Gb/s of legacy throughput [12].
"""

from bench_utils import write_results
from repro import experiments
from repro.net.hostmodel import TransferMode


def test_fig1_cpu_breakdown():
    load = experiments.fig1()
    write_results(experiments.render_fig1(load))
    legacy, offload, rdma = load.rows
    # only RDMA collapses the overhead
    assert rdma[5] < 0.05 * legacy[5]
    # offload alone is not sufficient: copying still dominates
    assert offload[1] > 0 and offload[5] > 0.5 * legacy[5]
    # ~1 GHz per Gb/s: the host is (barely) saturated by 10 Gb/s legacy
    assert 90 <= legacy[5] <= 130
    # RDMA reaches the wire; legacy cannot exceed what the CPU sustains
    assert rdma[6] == 10.0
    assert load.model.max_throughput_gbps(TransferMode.LEGACY, 40.0) < 40.0
