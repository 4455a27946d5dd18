"""Figure 9: Gaussian data access -- touches, requests, loads per BAT.

Paper claims reproduced here:

* 9(a): the *in vogue* BATs (around the distribution centre) collect by
  far the most touches (pin-level usage); the unpopular tails barely
  any.
* 9(b): the in-vogue BATs have a LOW load rate -- "the in vogue are the
  ones staying longer periods as hot BATs" -- while the *standard* BATs
  at the shoulders are "more frequently in and out of the ring": their
  loads-per-touch ratio is higher.
* the request anomaly: "The low rate of requests ... for the in vogue
  BATs contradicts the common believe" -- a request serves every query
  that joins it before the last pin, so popular BATs need *fewer*
  request messages per touch, not more.
"""

from bench_utils import SCALE, write_results
from repro import experiments


def test_fig9_gaussian_access():
    run = experiments.fig9(SCALE)
    write_results(experiments.render_fig9(run))
    assert run.finished
    n = run.setup.n_bats
    centre, std = n / 2, n / 20

    bats = run.metrics.bats
    touches = {b: float(s.pins) for b, s in bats.items()}
    requests = {b: float(s.requests) for b, s in bats.items()}
    loads = {b: float(s.loads) for b, s in bats.items()}

    def zone(b):
        d = abs(b - centre)
        if d <= 1.5 * std:
            return "in_vogue"
        if d <= 4 * std:
            return "standard"
        return "unpopular"

    def zone_sum(counter, z):
        return sum(v for b, v in counter.items() if zone(b) == z)

    def zone_count(z):
        return max(sum(1 for b in range(n) if zone(b) == z), 1)

    # 9(a): touches concentrate on the in-vogue group
    vogue_rate = zone_sum(touches, "in_vogue") / zone_count("in_vogue")
    standard_rate = zone_sum(touches, "standard") / zone_count("standard")
    unpop_rate = zone_sum(touches, "unpopular") / zone_count("unpopular")
    assert vogue_rate > 2 * standard_rate
    assert standard_rate > 2 * unpop_rate

    # 9(b): standard BATs cycle in and out more -- their loads per touch
    # exceed the in-vogue BATs' loads per touch
    vogue_loads = zone_sum(loads, "in_vogue") / max(zone_sum(touches, "in_vogue"), 1)
    standard_loads = zone_sum(loads, "standard") / max(
        zone_sum(touches, "standard"), 1
    )
    assert standard_loads > vogue_loads

    # the request anomaly: in-vogue BATs need fewer requests per touch
    vogue_reqs = zone_sum(requests, "in_vogue") / max(
        zone_sum(touches, "in_vogue"), 1
    )
    standard_reqs = zone_sum(requests, "standard") / max(
        zone_sum(touches, "standard"), 1
    )
    assert vogue_reqs < standard_reqs
