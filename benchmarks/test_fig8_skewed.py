"""Figure 8: the skewed workloads SW1..SW4 with the adaptive LOIT.

Paper claims reproduced here:

* *Reactive behavior*: when a workload phase starts, its DH data is
  loaded into the ring promptly (the paper sees the DH2 load/finish
  peak right after SW2 starts at second 15).
* *Post workload changes*: data of an overlapping previous workload is
  not evicted wholesale -- SW1 queries keep finishing (and DH1 bytes
  stay in the ring) after SW2 starts.
* Every phase's queries complete despite the turbulence.
"""

from bench_utils import SCALE, write_results
from repro import experiments


def test_fig8_skewed_workloads():
    run = experiments.fig8(SCALE)
    write_results(experiments.render_fig8(run))
    assert run.finished, "skewed workload did not complete"
    metrics, phases = run.metrics, run.workload.phases

    # --- reactive behavior: DH_i bytes appear shortly after SW_i starts
    for phase in phases[1:]:
        tag = phase.name.replace("sw", "dh")
        series = metrics.ring_bytes_by_tag.get(tag)
        if series is None:
            continue
        before = series.value_at(max(phase.start - 1e-6, 0.0))
        react_window = phase.start + 0.25 * phase.duration
        after = series.value_at(react_window)
        assert after > before, f"no load reaction for {tag}"

    # --- post workload changes: SW1 queries keep finishing after SW2
    # starts (the 50% overlap keeps DH1 serviced)
    sw1_after_sw2 = [
        t for t in metrics.finished_times(tag="sw1") if t > phases[1].start
    ]
    assert sw1_after_sw2, "SW1 starved as soon as SW2 arrived"

    # --- every phase completed all its queries
    for phase in phases:
        registered = len(metrics.registered_times(tag=phase.name))
        assert metrics.finished_count(tag=phase.name) == registered

    # --- the adaptive LOIT actually moved during the turbulence
    assert metrics.loit_changes > 0
