"""Multi-ring federation: several small Data Cyclotrons, one clock.

The paper's ring-size sweep (section 6.3, Figures 10-11) shows a single
ring's rotation latency growing super-linearly with node count.  This
subsystem caps that curve by federating N small rings instead of
growing one big one (docs/multiring.md):

* :class:`RingFederation` -- the facade: N classic rings on a shared
  simulator, global node addressing, federated query processes,
* :class:`CrossRingRouter` -- gateway-to-gateway fetches for BATs homed
  on another ring, with nomadic query shipping via the section 6.1
  cost bids,
* :class:`PlacementManager` -- LOI-style per-ring interest EWMAs that
  re-home fragments toward the ring that wants them (with hysteresis),
* :class:`SplitMergeController` -- activates standby rings for hot
  ones and drains idle rings, fed by the pulsating-ring signals,
* :class:`MultiRingChaosHarness` -- fixed-seed gateway-failure
  scenarios with per-ring invariant checks,
* :class:`PartitionedFederation` -- the same router, query process and
  retry ladder on one simulator per ring, synchronised by conservative
  lookahead windows (docs/parallel.md).
"""

from repro.multiring.catalog import GlobalCatalog
from repro.multiring.chaos import MultiRingChaosHarness, MultiRingChaosResult
from repro.multiring.config import MultiRingConfig
from repro.multiring.federation import RingFederation, federated_query_process
from repro.multiring.parallel import PartitionedFederation
from repro.multiring.partition import RingPartition
from repro.multiring.placement import PlacementManager
from repro.multiring.router import CrossRingRouter
from repro.multiring.splitmerge import SplitMergeController

__all__ = [
    "CrossRingRouter",
    "GlobalCatalog",
    "MultiRingChaosHarness",
    "MultiRingChaosResult",
    "MultiRingConfig",
    "PartitionedFederation",
    "PlacementManager",
    "RingFederation",
    "RingPartition",
    "SplitMergeController",
    "federated_query_process",
]
