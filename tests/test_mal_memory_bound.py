"""A wide scan holds about its result, not every partial union.

The planner combines a column's partitions with a left-deep
``algebra.kunion`` chain.  Kept until the plan ends, those partial
unions make a ``k``-partition scan hold about ``k / 2`` copies of every
column; freed at their last use (the plan's end-of-life table), two.
The bound: the largest summed ``nbytes`` of the BATs in the variable
environment at any assignment stays within twice the result's bytes.
"""

import pytest

from repro.core import DataCyclotronConfig
from repro.dbms.bat import BAT
from repro.dbms.caching import CachingInterpreter
from repro.dbms.executor import RingDatabase
from repro.dbms.interpreter import Interpreter
from repro.workloads.frontdoor import FrontDoorWorkload

PARTITIONS = 24
ROWS_PER_PARTITION = 200


class PeakEnv(dict):
    """A variable environment that remembers its largest BAT footprint."""

    peak = 0

    def __setitem__(self, name, value) -> None:
        super().__setitem__(name, value)
        held = sum(v.nbytes for v in self.values() if isinstance(v, BAT))
        PeakEnv.peak = max(PeakEnv.peak, held)


@pytest.mark.parametrize("interpreter", [Interpreter, CachingInterpreter])
def test_select_star_over_24_partitions_holds_at_most_twice_its_result(
    interpreter, monkeypatch
):
    original = interpreter.run_gen

    def run_gen(self, plan, env=None, **kwargs):
        return original(self, plan, PeakEnv(), **kwargs)

    monkeypatch.setattr(interpreter, "run_gen", run_gen)
    monkeypatch.setattr(PeakEnv, "peak", 0)
    rdb = RingDatabase(
        DataCyclotronConfig(n_nodes=4, seed=1),
        cache_intermediates=interpreter is CachingInterpreter,
    )
    # the front door's wide table: six columns of 24 partitions
    front = FrontDoorWorkload(
        n_rows=PARTITIONS * ROWS_PER_PARTITION,
        rows_per_partition=ROWS_PER_PARTITION,
        hot_rows=ROWS_PER_PARTITION,
    )
    front.load_into(rdb)
    n = front.n_rows
    handle = rdb.submit(f"SELECT * FROM {front.table}", node=0, arrival=0.0)
    assert rdb.run_until_done()
    assert handle.result.n_rows == n
    result_bytes = sum(col.nbytes for col in handle.result.columns)
    assert PeakEnv.peak <= 2 * result_bytes, (
        f"peak {PeakEnv.peak} B = {PeakEnv.peak / result_bytes:.1f}x the result"
    )
