"""Shared dataset and workload plumbing for the experiments.

The paper's detailed analysis uses "a raw data-set of 8 GB composed of
1000 BATs with sizes varying from 1 MB to 10 MB.  The BATs are uniformly
distributed over all nodes, giving ownership over about 0.8 GB of data
per node" (section 5, Setup).  :class:`UniformDataset` builds that (or a
scaled-down version) deterministically from a seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.core.config import MB
from repro.core.query import QuerySpec
from repro.core.ring import DataCyclotron

__all__ = ["UniformDataset", "populate_ring", "Workload"]


@dataclass
class UniformDataset:
    """BAT ids and sizes drawn uniformly from [min_size, max_size]."""

    n_bats: int = 1000
    min_size: int = 1 * MB
    max_size: int = 10 * MB
    seed: int = 0
    sizes: Dict[int, int] = field(init=False)

    def __post_init__(self) -> None:
        if self.n_bats < 1:
            raise ValueError("need at least one BAT")
        if not 0 < self.min_size <= self.max_size:
            raise ValueError("invalid size range")
        rng = random.Random(self.seed)
        self.sizes = {
            bat_id: rng.randint(self.min_size, self.max_size)
            for bat_id in range(self.n_bats)
        }

    @property
    def total_bytes(self) -> int:
        return sum(self.sizes.values())

    @property
    def mean_size(self) -> float:
        return self.total_bytes / self.n_bats

    def bat_ids(self) -> List[int]:
        return list(self.sizes)


def populate_ring(
    dc: DataCyclotron,
    dataset: UniformDataset,
    tags: Optional[Dict[int, str]] = None,
    random_assignment: bool = False,
    seed: int = 0,
) -> None:
    """Register every dataset BAT with the ring.

    The paper assigns BATs "randomly ... uniformly distributed over all
    nodes"; the default here is round-robin (deterministic and exactly
    uniform), with ``random_assignment=True`` for the literal policy.
    """
    rng = random.Random(seed) if random_assignment else None
    for bat_id, size in dataset.sizes.items():
        tag = tags.get(bat_id) if tags else None
        owner = rng.randrange(dc.config.n_nodes) if rng is not None else None
        dc.add_bat(bat_id, size=size, owner=owner, tag=tag)


class Workload:
    """Interface: a workload yields QuerySpec objects."""

    def queries(self) -> Iterator[QuerySpec]:  # pragma: no cover - interface
        raise NotImplementedError

    def bat_tags(self) -> Dict[int, str]:
        """Tags for :func:`populate_ring`; only a workload that names
        data subsets (section 5.2's DH1..DH4) has any."""
        return {}

    def submit_to(self, dc: DataCyclotron) -> int:
        return dc.submit_all(self.queries())
