"""Figure 7: ring load in bytes and in #BATs over time, per LOIT level.

Paper claims reproduced here: with a continuously overloaded ring, the
load of big BATs is postponed -- the ring "gets loaded with more and
more small BATs" -- so the mean size of circulating BATs sinks over the
run, and low LOIT levels keep the ring fuller (in bytes) for longer.
"""


def _grids(metrics, end, step=1.0):
    _, load_bytes = metrics.ring_bytes.grid(end, step)
    _, load_bats = metrics.ring_bats.grid(end, step)
    return load_bytes, load_bats


def test_fig7_ring_load_bytes_and_bats(loit_sweep):
    levels = sorted(loit_sweep)
    low, high = loit_sweep[levels[0]], loit_sweep[levels[-1]]
    setup = low.setup
    end = setup.duration * 3

    # ring occupancy approaches (but respects) the configured capacity
    capacity = setup.n_nodes * setup.bat_queue_capacity
    for loit, run in loit_sweep.items():
        peak = run.metrics.ring_bytes.maximum()
        assert peak > 0.2 * capacity, f"ring barely used at LoiT {loit}"

    # a low threshold keeps data in rotation longer: time-integrated
    # ring load is higher than at the high threshold
    def integral(run):
        return sum(_grids(run.metrics, end)[0])

    assert integral(low) > integral(high)

    # the small-BAT bias: the mean circulating BAT size at the end of
    # the loaded phase is below the dataset mean
    dataset_mean = (setup.min_size + setup.max_size) / 2
    loaded = [(b, n) for b, n in zip(*_grids(low.metrics, end)) if n >= 5]
    if loaded:
        late_bytes, late_bats = loaded[-1]
        assert late_bytes / late_bats < 1.15 * dataset_mean
