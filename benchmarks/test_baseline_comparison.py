"""Data Cyclotron vs the broadcast baselines of the related work (§7).

The paper argues its pull-based, self-organising hot set beats the
seminal broadcast architectures: DataCycle repeatedly broadcasts the
*entire* database (cycle time grows with DB size, not with interest),
and Broadcast Disks needs an a-priori popularity assignment.  This
benchmark makes that contrast quantitative: identical query streams --
the section 5.3 Gaussian access pattern, where the hot set is a small
fraction of the database -- replay against all three systems at the
same link bandwidth.

Claims asserted:

* the Data Cyclotron's mean query life time beats DataCycle by a wide
  margin (the hot set is far smaller than the database, so waiting for
  full-database broadcasts wastes most of the channel),
* Broadcast Disks (with *oracle* popularity knowledge) lands between
  the two: better than flat broadcasting, still behind the
  self-organising ring that adapts with no advance knowledge.
"""

import statistics

from bench_utils import SCALE, write_result
from repro import experiments
from repro.metrics.report import render_table


def test_baseline_comparison():
    systems = experiments.baselines(SCALE)
    lifetimes = {name: s.metrics.lifetimes() for name, s in systems.items()}
    means = {name: statistics.mean(v) for name, v in lifetimes.items()}
    write_result(
        "baseline_comparison",
        render_table(
            ["system", "mean lifetime (s)", "max lifetime (s)"],
            [
                (name, round(means[name], 3), round(max(v), 2))
                for name, v in lifetimes.items()
            ],
            title="Gaussian workload: Data Cyclotron vs broadcast baselines",
        ),
    )
    # every system drained the same stream
    total = len(lifetimes["data cyclotron"])
    for name, system in systems.items():
        assert system.metrics.all_finished(), f"{name} left queries pending"
        assert len(lifetimes[name]) == total
    # the self-organising hot set beats broadcasting the whole database
    assert means["data cyclotron"] < 0.5 * means["datacycle"]
    # oracle-tiered broadcasting improves on flat broadcasting
    assert means["broadcast disks"] < means["datacycle"]
    # and the Data Cyclotron still wins without any advance knowledge
    assert means["data cyclotron"] < means["broadcast disks"]
