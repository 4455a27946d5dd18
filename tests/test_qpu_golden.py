"""QPU refactor golden suite: the MAL path is event-bit-identical.

``tests/data/golden_qpu_streams.json`` fingerprints the full typed
event stream (every event except ``SimEventFired``, in publish order,
repr-exact) of four SQL workloads x five seeds, captured against the
pre-refactor executor and re-recorded once when MAL queries began to
register on the bus (tests/qpu_harness.py says what moved); the fourth,
``repeat``, was captured before repeated texts replayed their ring
calls.  Replaying
the same workloads through the QPU dispatcher must reproduce each
stream byte for byte: same event count, same per-type census, same
sha256 over the reprs, same final clock and same number of simulator
events processed.

Any diff here -- an extra bus publish, a reordered pin, a shifted
timestamp -- is a bug even if results stay correct.
"""

import json

import pytest

from qpu_harness import GOLDEN_PATH, RUNNERS, SEEDS, WORKLOADS, capture


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_mal_event_stream_matches_pre_refactor_golden(golden, workload, seed):
    expected = golden[workload][str(seed)]
    actual = capture(workload, seed)
    # cheap, readable checks first; the sha256 is the strong claim
    assert actual["n_events"] == expected["n_events"]
    assert actual["by_type"] == expected["by_type"]
    assert actual["now"] == expected["now"]
    assert actual["events_processed"] == expected["events_processed"]
    assert actual["finished"] == expected["finished"]
    assert actual["sha256"] == expected["sha256"]


def test_golden_covers_the_full_matrix(golden):
    assert sorted(golden) == sorted(WORKLOADS)
    for workload in WORKLOADS:
        assert sorted(golden[workload]) == sorted(str(s) for s in SEEDS)


def _outcome(seed: int, workload: str, fast_forward: bool) -> dict:
    # no StreamRecorder: it subscribes LinkTransmit, which pins the
    # classic path on both sides
    rdb = RUNNERS[workload](seed, fast_forward=fast_forward)
    return {
        "results": [
            None if h.result is None else repr(h.result.rows()) for h in rdb.handles
        ],
        "finished": [
            (q, repr(r.finished_at), r.failed, r.error)
            for q, r in sorted(rdb.metrics.queries.items())
        ],
        "summary": repr(rdb.dc.summary()),
        "flights": rdb.dc.ff.stats()["flights"],
    }


# how many of the 20 workloads launch a flight with the switch on: none.
# A four-node ring holding 36-72 BATs gates BAT scans off, and a request
# scan finds its first hop busy or fewer disinterested hops than
# ``min_flight`` (3) before its stop.  The test still holds the gate and
# the refused scans to the classic run.
FLYING = 0


def test_fast_forward_on_equals_off_on_every_workload():
    flying = 0
    for workload in WORKLOADS:
        for seed in SEEDS:
            on = _outcome(seed, workload, True)
            off = _outcome(seed, workload, False)
            assert off.pop("flights") == 0
            flying += on.pop("flights") > 0
            assert on == off, (workload, seed)
    assert flying == FLYING
