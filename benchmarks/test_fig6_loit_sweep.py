"""Figure 6: query throughput and life time across LOIT levels.

Paper claims reproduced here:

* 6(a): "the query throughput is monotonously increasing with
  increasing LOITn" -- a low threshold keeps cold BATs in the ring,
  postponing the pending loads queries actually wait for.
* 6(b): "a high LOITn leads to lower life time of a query"; the low
  threshold shows the bimodal shape -- a peak of fast queries plus a
  long tail of stragglers waiting for pending (large) BATs.
"""

from bench_utils import SCALE


def test_fig6a_throughput_monotone_in_loit(loit_sweep):
    levels = sorted(loit_sweep)
    low, high = levels[0], levels[-1]
    # mid-run, before everything drains
    checkpoint = loit_sweep[low].setup.duration * 2
    finished_at_checkpoint = {
        loit: sum(1 for t in run.metrics.finished_times() if t <= checkpoint)
        for loit, run in loit_sweep.items()
    }
    # the headline claim: higher LOIT -> more queries finished early
    assert finished_at_checkpoint[high] > finished_at_checkpoint[low]
    # and broadly monotone: top level at least matches every level
    assert finished_at_checkpoint[high] >= max(finished_at_checkpoint.values())
    # everything eventually completes at every level
    for loit, run in loit_sweep.items():
        if SCALE == "paper":
            # the paper's own Fig. 6a shows low thresholds with large
            # pending tails; accept a straggler remainder at the bounded
            # horizon while the bulk completed
            assert run.metrics.finished_count() >= 0.8 * run.submitted, (
                f"too many pending queries at LoiT {loit}"
            )
        else:
            assert run.metrics.all_finished(), f"queries pending at LoiT {loit}"


def test_fig6b_lifetime_distribution(loit_sweep):
    levels = sorted(loit_sweep)
    low, high = loit_sweep[levels[0]], loit_sweep[levels[-1]]
    bin_width = low.setup.duration / 2
    low_hist = low.metrics.lifetime_histogram(bin_width=bin_width)
    high_hist = high.metrics.lifetime_histogram(bin_width=bin_width)
    # "a high LOITn leads to lower life time of a query"
    assert high_hist.mean < low_hist.mean
    # the low level's long tail: its slowest queries wait far longer
    assert low_hist.max >= high_hist.max
