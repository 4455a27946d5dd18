"""Configuration for a multi-ring Data Cyclotron federation.

One :class:`MultiRingConfig` describes N small rings plus the knobs of
the three federation mechanisms (docs/multiring.md):

* the cross-ring request router (gateway count, inter-ring link delay,
  fetch timeout, nomadic query shipping),
* the LOI-driven placement manager (fold cadence, hysteresis, patience),
* the split/merge controller (split watermark, patience, standby rings).

Every ring reuses the classic :class:`DataCyclotronConfig` (``base``)
with its node count replaced by ``nodes_per_ring`` and its seed offset
by the ring id, so ring 0 of a degenerate one-ring federation is
bit-identical to the classic deployment.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.config import LINK_DELAY, DataCyclotronConfig

__all__ = ["MultiRingConfig"]


@dataclass
class MultiRingConfig:
    """Shape and policy of a ring federation."""

    base: DataCyclotronConfig = field(default_factory=DataCyclotronConfig)
    n_rings: int = 4                      # rings active at start
    nodes_per_ring: int = 4
    max_rings: int = 0                    # 0 -> n_rings (no standby pool)

    # --- cross-ring router -------------------------------------------
    gateways_per_ring: int = 1            # 0 disables all federation traffic
    inter_ring_delay: Optional[float] = None      # None -> LINK_DELAY
    fetch_timeout: Optional[float] = None  # None -> derived at start
    # hand a dead gateway's in-flight serves to the re-elected gateway
    # instead of waiting out the requester's resend timers
    serve_handoff: bool = True
    # ship the whole query when one remote ring holds at least this
    # fraction of its data bytes (the section 6.1 nomadic phase, lifted
    # to ring granularity); <= 0 or > 1 disables shipping
    ship_threshold: float = 0.7

    # --- LOI-driven placement manager --------------------------------
    placement_interval: float = 0.5       # seconds between interest folds
    migration_hysteresis: float = 2.0     # foreign/home interest ratio to move
    migration_patience: int = 3           # consecutive ticks over the ratio
    migration_min_interest: float = 0.5   # EWMA floor before moving at all

    # --- split/merge controller --------------------------------------
    splitmerge_interval: float = 1.0      # 0 disables the controller
    split_high_watermark: float = 0.90    # mean BAT-queue load to split at
    splitmerge_patience: int = 3          # consecutive ticks past a watermark

    def __post_init__(self) -> None:
        if self.n_rings < 1:
            raise ValueError("n_rings must be >= 1")
        if self.nodes_per_ring < 1:
            raise ValueError("nodes_per_ring must be >= 1")
        if self.max_rings == 0:
            self.max_rings = self.n_rings
        if self.max_rings < self.n_rings:
            raise ValueError("max_rings must be >= n_rings")
        if not 0 <= self.gateways_per_ring <= self.nodes_per_ring:
            raise ValueError("gateways_per_ring must be in [0, nodes_per_ring]")
        if self.n_rings > 1 and self.gateways_per_ring == 0:
            raise ValueError("a multi-ring federation needs at least one gateway per ring")
        if self.placement_interval < 0 or self.splitmerge_interval < 0:
            raise ValueError("tick intervals must be >= 0")
        if self.migration_hysteresis < 1.0:
            raise ValueError("migration_hysteresis must be >= 1 (anti-thrash)")
        if self.migration_patience < 1 or self.splitmerge_patience < 1:
            raise ValueError("patience values must be >= 1")

    # ------------------------------------------------------------------
    @property
    def total_nodes(self) -> int:
        return self.n_rings * self.nodes_per_ring

    @property
    def federated(self) -> bool:
        """False for the degenerate one-ring, zero-gateway configuration."""
        return self.n_rings > 1 or self.max_rings > 1 or self.gateways_per_ring > 0

    def ring_config(self, ring_id: int) -> DataCyclotronConfig:
        """The classic per-ring configuration for ring ``ring_id``."""
        return replace(
            self.base,
            n_nodes=self.nodes_per_ring,
            seed=self.base.seed + ring_id,
        )

    def link_delay(self) -> float:
        return (
            self.inter_ring_delay
            if self.inter_ring_delay is not None
            else LINK_DELAY
        )
