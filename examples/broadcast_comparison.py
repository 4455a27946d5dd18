#!/usr/bin/env python3
"""Data Cyclotron vs the broadcast architectures of the related work.

The paper's section 7 positions the Data Cyclotron against DataCycle
(broadcast the whole database from a central pump, repeatedly) and
Broadcast Disks (tier the broadcast by popularity).  This example makes
the contrast concrete: the same Gaussian query stream runs against all
three systems at the same link bandwidth.

Run:  python examples/broadcast_comparison.py
"""

import statistics

from repro import experiments
from repro.metrics.report import render_table


def main() -> None:
    systems = experiments.baselines("quick")
    ring, pump = systems["data cyclotron"], systems["datacycle"]
    dataset = ring.dataset
    centre, std = dataset.n_bats / 2, dataset.n_bats / 20
    hot_bytes = sum(
        size for bat_id, size in dataset.sizes.items()
        if abs(bat_id - centre) <= 2 * std
    )
    print(f"database: {dataset.total_bytes / 2**20:.0f} MB in {dataset.n_bats} BATs; "
          f"the Gaussian hot set (±2σ) is only ~{hot_bytes / 2**20:.0f} MB")
    print(f"DataCycle cycle time (whole DB broadcast): {pump.cycle_time:.1f}s")

    print()
    print(render_table(
        ["system", "mean lifetime (s)", "p95 (s)", "max (s)"],
        [
            (
                name,
                round(statistics.mean(v), 2),
                round(sorted(v)[int(0.95 * len(v))], 2),
                round(max(v), 2),
            )
            for name, v in (
                (name, system.metrics.lifetimes()) for name, system in systems.items()
            )
        ],
        title="identical Gaussian query stream, identical link bandwidth:",
    ))
    print("\nthe self-organising hot set needs no popularity oracle and no"
          "\ncentral pump -- and still wins (paper section 7's contrast).")

    print("\n=== ring summary ===")
    for key, value in ring.dc.summary().items():
        print(f"  {key:>24}: {value}")


if __name__ == "__main__":
    main()
