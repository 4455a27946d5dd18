"""Shared helpers for building small Data Cyclotron test deployments."""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional

from repro.core import DataCyclotron, DataCyclotronConfig
from repro.dbms.mal import Plan, Var

MB = 1024 * 1024


def build_dc(
    n_nodes: int = 4,
    bats: Optional[Dict[int, int]] = None,
    owners: Optional[Dict[int, int]] = None,
    **config_overrides,
) -> DataCyclotron:
    """A small ring with fast defaults suitable for unit tests."""
    defaults = {
        "n_nodes": n_nodes,
        "seed": 1,
        "disk_latency": 1e-4,
        "load_all_interval": 0.01,
        "loit_adapt_interval": 0.05,
    }
    defaults.update(config_overrides)
    dc = DataCyclotron(DataCyclotronConfig(**defaults))
    bats = bats if bats is not None else {i: MB for i in range(8)}
    for bat_id, size in bats.items():
        owner = owners.get(bat_id) if owners else None
        dc.add_bat(bat_id, size=size, owner=owner)
    return dc


class LiveSetEnv(dict):
    """A MAL variable environment that holds the end-of-life rule.

    At every assignment, each variable present must still have a read
    to come: a variable whose last reader has resolved its arguments is
    gone.  Exempt are the plan's result and the assigning instruction's
    own results and arguments (the linear interpreters drop those right
    after the assignment).  Reads are counted off as the interpreter
    resolves them (``env[name]``), so the rule holds in the dataflow
    executor's completion order as well as in plan order.
    """

    def __init__(self, plan: Plan, result_var: str):
        super().__init__()
        self.result_var = result_var
        self.reads_left: Counter = Counter()
        self.defined_by: Dict[str, int] = {}
        self.reads_of = [instr.uses() for instr in plan]
        for index, instr in enumerate(plan):
            for arg in instr.args:
                items = arg if isinstance(arg, (list, tuple)) else (arg,)
                for item in items:
                    if isinstance(item, Var):
                        self.reads_left[item.name] += 1
            for name in instr.results:
                self.defined_by[name] = index
        self.assignments = 0

    def __getitem__(self, name):
        self.reads_left[name] -= 1
        return super().__getitem__(name)

    def __setitem__(self, name, value) -> None:
        here = self.defined_by[name]
        dead = [
            other for other in self
            if self.reads_left[other] <= 0
            and other != self.result_var
            and self.defined_by.get(other) != here
            and other not in self.reads_of[here]
        ]
        assert not dead, f"{dead} outlive their last read (assigning {name})"
        self.assignments += 1
        super().__setitem__(name, value)


def result_of(plan: Plan, dies) -> str:
    """The one variable a plan defines that its end-of-life table never
    drops: the plan's result."""
    defined = {name for instr in plan for name in instr.results}
    (result,) = defined.difference(*dies)
    return result
