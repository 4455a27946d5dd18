#!/usr/bin/env python3
"""Hot-set dynamics under a turbulent workload (paper section 5.2).

Replays the quick-scale Figure 8 experiment: four workload phases
SW1..SW4 (Table 3) with overlapping time windows and disjoint hot sets
DH1..DH4.  Watch the ring replace one phase's data with the next one's
while in-flight queries keep being served, and the per-node LOIT
thresholds ride the buffer-load watermarks.

Run:  python examples/hot_set_dynamics.py
"""

from repro import experiments


def main() -> None:
    run = experiments.fig8("quick")
    workload = run.workload
    print(f"submitted {run.submitted} queries across phases:")
    for phase in workload.phases:
        subset = workload.disjoint_subset(phase)
        print(
            f"  {phase.name}: skew {phase.skew}, window "
            f"[{phase.start:.1f}s, {phase.end:.1f}s), "
            f"{phase.queries_per_second:.0f} q/s, |DH|={len(subset)} BATs"
        )
    assert run.finished

    rendered = experiments.render_fig8(run)
    print("\n=== ring space per disjoint hot set (paper Figure 8a) ===")
    print(rendered["fig8a_ring_space_per_dh"])
    print("\n=== queries finished per workload (paper Figure 8b) ===")
    print(rendered["fig8b_queries_per_workload"])

    print("\n=== adaptive LOIT at node 0 ===")
    for time, threshold in run.dc.nodes[0].loit_history:
        print(f"  t={time:6.2f}s  LOIT -> {threshold}")

    print(f"\nall {run.metrics.finished_count()} queries finished;"
          f" {run.metrics.loit_changes} LOIT adjustments across the ring")


if __name__ == "__main__":
    main()
