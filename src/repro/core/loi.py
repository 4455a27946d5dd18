"""Level-of-interest arithmetic and the adaptive LOIT controller.

Section 4.4, Equation (1): each time a BAT completes a ring cycle its
owner recomputes

    CAVG   = copies / hops
    newLOI = LOI / cycles + CAVG

which is exactly the expression of Figure 5 line 04,
``(loi + (copies/hops) * cycles) / cycles``.  The division by ``cycles``
ages old interest away; the CAVG term renews interest proportional to
the fraction of ring nodes that actually used the BAT in the last cycle.

The *threshold* LOIT_n separating hot from cold is per node and adapts
to the local BAT-queue load (section 5.2): above the 80 % watermark the
threshold steps up one level (BATs die faster, freeing buffer space);
below the 40 % watermark it steps down (BATs linger, exploiting the
spare capacity).
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["new_loi", "LoitController"]


def new_loi(loi: float, copies: int, hops: int, cycles: int) -> float:
    """Equation (1) of the paper.

    ``cycles`` is the value *after* the owner incremented it for the
    completed rotation, so it is at least 1.  ``hops`` counts the hops
    since the BAT left its owner; on a ring it equals the ring size when
    the BAT returns, and can only be 0 if the owner is the sole node --
    in that degenerate case the CAVG term is defined as 0.
    """
    if cycles < 1:
        raise ValueError(f"cycles must be >= 1 when recomputing LOI (got {cycles})")
    if hops < 0 or copies < 0:
        raise ValueError("copies and hops cannot be negative")
    cavg = (copies / hops) if hops > 0 else 0.0
    return loi / cycles + cavg


class LoitController:
    """Per-node LOIT ladder with watermark-driven adaptation.

    With ``static`` set, the threshold never moves (the section 5.1
    sweep).  Otherwise the controller walks the ``levels`` ladder one
    step per observation, as section 5.2 prescribes: "Every time the
    buffer load is above 80% of its capacity, the LOITn is increased one
    level ... if it is below the 40% of its capacity, the LOITn is
    decreased one level."
    """

    def __init__(
        self,
        levels: Sequence[float] = (0.1, 0.6, 1.1),
        initial_level: int = 0,
        high_watermark: float = 0.80,
        low_watermark: float = 0.40,
        static: float | None = None,
    ):
        if static is None:
            if not levels:
                raise ValueError("levels cannot be empty")
            if any(b <= a for a, b in zip(levels, levels[1:])):
                raise ValueError("levels must be strictly increasing")
            if not 0 <= initial_level < len(levels):
                raise ValueError("initial_level out of range")
        if not 0 <= low_watermark < high_watermark <= 1:
            raise ValueError("watermarks must satisfy 0 <= low < high <= 1")
        self.levels = tuple(levels)
        self.level = initial_level
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.static = static
        self.adjustments_up = 0
        self.adjustments_down = 0

    @property
    def threshold(self) -> float:
        """The current LOIT_n value."""
        if self.static is not None:
            return self.static
        return self.levels[self.level]

    def observe(self, buffer_load: float) -> float:
        """Feed the current buffer-load fraction; returns the new threshold."""
        if self.static is not None:
            return self.static
        if buffer_load > self.high_watermark and self.level < len(self.levels) - 1:
            self.level += 1
            self.adjustments_up += 1
        elif buffer_load < self.low_watermark and self.level > 0:
            self.level -= 1
            self.adjustments_down += 1
        return self.threshold

    def is_hot(self, loi: float) -> bool:
        """True when a BAT with this LOI stays in the ring (Fig. 5 line 07)."""
        # ``threshold`` inlined: the fast path asks once per owner pass
        static = self.static
        return loi >= (self.levels[self.level] if static is None else static)
