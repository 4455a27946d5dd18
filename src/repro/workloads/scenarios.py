"""Production-shaped workload generators (docs/workloads.md).

The paper's evaluation fires steady uniform/Gaussian streams; a system
that claims to serve heavy traffic must also survive the shapes real
front doors see.  Four generators, all deterministic under seed and all
emitting ordinary :class:`~repro.core.query.QuerySpec` streams:

* :class:`DiurnalWorkload` -- a day/night arrival-rate cycle (sinusoid
  between trough and peak) over a Gaussian interest centre,
* :class:`FlashCrowdWorkload` -- a steady baseline plus a step burst
  arriving far above ring capacity, concentrated on a small hot set,
* :class:`MultiTenantWorkload` -- N tenants with Zipf-skewed traffic
  shares and per-tenant Zipf data interest, tagged ``tenant<i>`` for
  per-tenant SLO accounting,
* :class:`LocalityShiftWorkload` -- an interest centre that drifts
  across the BAT id space over time; with block data placement on a
  federation the drift crosses ring boundaries and organically
  triggers cross-ring fetches and placement migrations.

Determinism contract: two instances built with identical arguments
yield identical query streams (tests/test_workloads_determinism.py),
which is what makes the ``repro scenarios`` verdicts comparable across
commits.
"""

from __future__ import annotations

import bisect
import math
import random
from typing import Iterator, List, Optional, Sequence

from repro.core.query import QuerySpec
from repro.sim.rng import RngRegistry
from repro.workloads.base import UniformDataset, Workload

__all__ = [
    "ColdBurstWorkload",
    "DiurnalWorkload",
    "FlashCrowdWorkload",
    "LocalityShiftWorkload",
    "MultiTenantWorkload",
    "ZipfSampler",
]

TENANT_SKEW = 1.0  # MultiTenantWorkload's Zipf exponent over tenants
DATA_SKEW = 1.2    # ... and over each tenant's BAT slice


class ZipfSampler:
    """Draw ranks 0..n-1 with probability proportional to 1/(rank+1)^s.

    Inverse-CDF over the finite harmonic weights -- exact, and
    deterministic for a given :class:`random.Random` stream (the
    rejection samplers in numpy are neither bounded nor stable across
    versions, so we do not use them).
    """

    def __init__(self, n: int, s: float = 1.1):
        if n < 1:
            raise ValueError("need at least one rank")
        if s <= 0:
            raise ValueError("skew exponent must be positive")
        self.n = n
        self.s = s
        self._cdf: List[float] = []
        total = 0.0
        for rank in range(n):
            total += 1.0 / (rank + 1) ** s
            self._cdf.append(total)
        self._total = total

    def weight(self, rank: int) -> float:
        """The probability mass of ``rank``."""
        return (1.0 / (rank + 1) ** self.s) / self._total

    def draw(self, rng: random.Random) -> int:
        return bisect.bisect_left(self._cdf, rng.random() * self._total)


class _ScenarioWorkload(Workload):
    """Shared plumbing: rate-driven arrivals round-robined over nodes.

    Subclasses provide ``rate_at(t)`` (aggregate queries/second) and
    ``pick_bats(rng, node, t)``; the base class walks simulated time in
    per-arrival steps (gap = 1/rate(t)), which keeps the stream exactly
    reproducible and lets the rate vary continuously.
    """

    def __init__(
        self,
        dataset: UniformDataset,
        n_nodes: int,
        duration: float,
        min_bats: int = 1,
        max_bats: int = 3,
        min_proc_time: float = 0.05,
        max_proc_time: float = 0.10,
        nodes: Optional[Sequence[int]] = None,
        seed: int = 0,
        tag: str = "",
    ):
        if n_nodes < 1:
            raise ValueError("need at least one node")
        if duration <= 0:
            raise ValueError("duration must be positive")
        if not 1 <= min_bats <= max_bats:
            raise ValueError("invalid BATs-per-query range")
        if not 0 < min_proc_time <= max_proc_time:
            raise ValueError("invalid processing-time range")
        self.dataset = dataset
        self.n_nodes = n_nodes
        self.duration = duration
        self.min_bats = min_bats
        self.max_bats = max_bats
        self.min_proc_time = min_proc_time
        self.max_proc_time = max_proc_time
        self.nodes = list(nodes) if nodes is not None else list(range(n_nodes))
        if not self.nodes:
            raise ValueError("need at least one arrival node")
        self.tag = tag
        self.seed = seed

    # -- subclass interface -------------------------------------------
    def rate_at(self, t: float) -> float:  # pragma: no cover - interface
        raise NotImplementedError

    def pick_bats(self, rng: random.Random, node: int, t: float) -> List[int]:
        raise NotImplementedError  # pragma: no cover - interface

    def tag_at(self, k: int, t: float) -> str:
        """Per-query tag; default is the scenario-wide tag."""
        return self.tag

    # -----------------------------------------------------------------
    def arrival_times(self) -> List[float]:
        """The deterministic arrival grid implied by ``rate_at``."""
        times: List[float] = []
        t = 0.0
        while t < self.duration:
            rate = self.rate_at(t)
            if rate <= 0:
                raise ValueError(f"rate_at({t}) must be positive")
            times.append(t)
            t += 1.0 / rate
        return times

    @property
    def total_queries(self) -> int:
        return len(self.arrival_times())

    def queries(self) -> Iterator[QuerySpec]:
        # a fresh registry per call: the stream restarts from the seed,
        # so the same instance can be replayed (determinism contract)
        rng = RngRegistry(self.seed).stream("queries")
        for k, t in enumerate(self.arrival_times()):
            node = self.nodes[k % len(self.nodes)]
            bats = self.pick_bats(rng, node, t)
            times = [
                rng.uniform(self.min_proc_time, self.max_proc_time) for _ in bats
            ]
            yield QuerySpec.simple(
                k, node=node, arrival=t, bat_ids=bats,
                processing_times=times, tag=self.tag_at(k, t),
            )

    # -- shared interest helpers --------------------------------------
    def _gauss_bat(self, rng: random.Random, mean: float, std: float) -> int:
        """One clipped Gaussian draw over the BAT id range (re-draw on
        out-of-range, the same rule as :class:`GaussianWorkload`)."""
        n = self.dataset.n_bats
        while True:
            bat_id = int(round(rng.gauss(mean, std)))
            if 0 <= bat_id < n:
                return bat_id

    def _distinct(self, rng: random.Random, draw, support: Optional[int] = None) -> List[int]:
        """``count`` distinct BATs from repeated ``draw`` calls; ``support``
        caps the count at the size of the draw's value set."""
        cap = support if support is not None else self.dataset.n_bats
        count = min(rng.randint(self.min_bats, self.max_bats), cap)
        bats: List[int] = []
        while len(bats) < count:
            bat_id = draw(rng)
            if bat_id not in bats:
                bats.append(bat_id)
        return bats


class DiurnalWorkload(_ScenarioWorkload):
    """A day/night cycle: the arrival rate swings trough -> peak -> trough.

    ``rate(t) = base * (1 + amplitude * sin(2*pi*t/period - pi/2))``
    starts at the trough (``base * (1-amplitude)``), peaks half a period
    in, and completes ``duration/period`` cycles.  Interest stays
    Gaussian around a fixed centre -- the point of the scenario is the
    load swing, not a data shift.
    """

    def __init__(
        self,
        dataset: UniformDataset,
        n_nodes: int,
        base_rate: float = 40.0,
        amplitude: float = 0.8,
        period: float = 8.0,
        duration: float = 16.0,
        mean: Optional[float] = None,
        std: Optional[float] = None,
        tag: str = "diurnal",
        **kwargs,
    ):
        super().__init__(dataset, n_nodes, duration, tag=tag, **kwargs)
        if base_rate <= 0:
            raise ValueError("base_rate must be positive")
        if not 0 <= amplitude < 1:
            raise ValueError("amplitude must be in [0, 1) so the rate stays positive")
        if period <= 0:
            raise ValueError("period must be positive")
        self.base_rate = base_rate
        self.amplitude = amplitude
        self.period = period
        self.mean = mean if mean is not None else dataset.n_bats / 2
        self.std = std if std is not None else dataset.n_bats / 20

    def rate_at(self, t: float) -> float:
        phase = 2.0 * math.pi * t / self.period - math.pi / 2.0
        return self.base_rate * (1.0 + self.amplitude * math.sin(phase))

    def pick_bats(self, rng: random.Random, node: int, t: float) -> List[int]:
        return self._distinct(
            rng, lambda r: self._gauss_bat(r, self.mean, self.std)
        )


class FlashCrowdWorkload(_ScenarioWorkload):
    """A steady baseline with a step burst far above ring capacity.

    During ``[burst_start, burst_start + burst_duration)`` the aggregate
    rate multiplies by ``burst_factor`` and every burst query draws from
    a ``hot_set_size``-BAT window -- the "everyone loads the same page"
    shape.  Burst queries carry the tag ``<tag>-burst`` so the SLO
    report can split the phases.
    """

    def __init__(
        self,
        dataset: UniformDataset,
        n_nodes: int,
        base_rate: float = 30.0,
        burst_factor: float = 8.0,
        burst_start: float = 4.0,
        burst_duration: float = 2.0,
        hot_set_size: int = 8,
        duration: float = 12.0,
        tag: str = "flash",
        **kwargs,
    ):
        super().__init__(dataset, n_nodes, duration, tag=tag, **kwargs)
        if base_rate <= 0 or burst_factor < 1:
            raise ValueError("base_rate must be positive and burst_factor >= 1")
        if burst_start < 0 or burst_duration <= 0:
            raise ValueError("invalid burst window")
        if not 1 <= hot_set_size <= dataset.n_bats:
            raise ValueError("hot_set_size must be in [1, n_bats]")
        self.base_rate = base_rate
        self.burst_factor = burst_factor
        self.burst_start = burst_start
        self.burst_duration = burst_duration
        self.hot_set_size = hot_set_size
        # the crowd converges on the middle of the id space
        self.hot_low = (dataset.n_bats - hot_set_size) // 2

    def in_burst(self, t: float) -> bool:
        return self.burst_start <= t < self.burst_start + self.burst_duration

    def rate_at(self, t: float) -> float:
        return self.base_rate * (self.burst_factor if self.in_burst(t) else 1.0)

    def tag_at(self, k: int, t: float) -> str:
        return f"{self.tag}-burst" if self.in_burst(t) else self.tag

    def pick_bats(self, rng: random.Random, node: int, t: float) -> List[int]:
        if self.in_burst(t):
            return self._distinct(
                rng,
                lambda r: self.hot_low + r.randrange(self.hot_set_size),
                support=self.hot_set_size,
            )
        return self._distinct(
            rng, lambda r: r.randrange(self.dataset.n_bats)
        )


class ColdBurstWorkload(FlashCrowdWorkload):
    """A flash crowd that floods *cold* data over a hot-set baseline.

    :class:`FlashCrowdWorkload` models "everyone loads the same page":
    the burst converges on a tiny hot window, which the ring economy
    absorbs almost for free once the window is resident.  The inverse
    shape is the one that actually hurts a Data Cyclotron: a healthy
    baseline pinned to a small resident hot set, then a burst that
    draws *uniformly* over the whole dataset -- every burst query
    demands data movement, the BAT queues overflow, requests exhaust
    their resends and queries start failing with ``DATA_UNAVAILABLE``.
    This is the regime the closed-loop overload controller is graded
    in (docs/overload.md).

    With ``burst_factor == 1`` the burst window changes nothing (the
    rate is flat and the draws stay on the hot set), so a baseline
    calibration run really is hot-only.
    """

    def pick_bats(self, rng: random.Random, node: int, t: float) -> List[int]:
        if self.burst_factor > 1 and self.in_burst(t):
            return self._distinct(
                rng, lambda r: r.randrange(self.dataset.n_bats)
            )
        return self._distinct(
            rng,
            lambda r: self.hot_low + r.randrange(self.hot_set_size),
            support=self.hot_set_size,
        )


class MultiTenantWorkload(_ScenarioWorkload):
    """N tenants sharing one ring with Zipf-skewed traffic and data.

    Tenant shares follow Zipf(``TENANT_SKEW``) -- tenant 0 is the whale
    -- and each query's tenant is drawn per arrival, so the interleaving
    is realistic rather than phase-sorted.  Every tenant owns a
    contiguous slice of the BAT id space and draws BATs within it by
    Zipf(``DATA_SKEW``) rank from a tenant-specific permutation anchor,
    so hot sets of different tenants do not collide.  Queries are tagged
    ``tenant<i>``; the SLO layer turns the tags into per-tenant
    percentiles and a fairness index.
    """

    def __init__(
        self,
        dataset: UniformDataset,
        n_nodes: int,
        n_tenants: int = 4,
        total_rate: float = 60.0,
        duration: float = 10.0,
        tag: str = "tenant",
        **kwargs,
    ):
        super().__init__(dataset, n_nodes, duration, tag=tag, **kwargs)
        if n_tenants < 1 or n_tenants > dataset.n_bats:
            raise ValueError("n_tenants must be in [1, n_bats]")
        if total_rate <= 0:
            raise ValueError("total_rate must be positive")
        self.n_tenants = n_tenants
        self.total_rate = total_rate
        self._tenant_sampler = ZipfSampler(n_tenants, TENANT_SKEW)
        slice_size = dataset.n_bats // n_tenants
        self._slice_size = slice_size
        self._data_sampler = ZipfSampler(slice_size, DATA_SKEW)

    def tenant_share(self, tenant: int) -> float:
        """The fraction of total traffic tenant ``tenant`` generates."""
        return self._tenant_sampler.weight(tenant)

    def tenant_slice(self, tenant: int) -> range:
        """The contiguous BAT id range tenant ``tenant`` draws from."""
        low = tenant * self._slice_size
        return range(low, low + self._slice_size)

    def rate_at(self, t: float) -> float:
        return self.total_rate

    def queries(self) -> Iterator[QuerySpec]:
        registry = RngRegistry(self.seed)
        rng = registry.stream("queries")
        tenant_rng = registry.stream("tenants")
        for k, t in enumerate(self.arrival_times()):
            tenant = self._tenant_sampler.draw(tenant_rng)
            node = self.nodes[k % len(self.nodes)]
            low = tenant * self._slice_size
            bats = self._distinct(
                rng,
                lambda r, _low=low: _low + self._data_sampler.draw(r),
                support=self._slice_size,
            )
            times = [
                rng.uniform(self.min_proc_time, self.max_proc_time) for _ in bats
            ]
            yield QuerySpec.simple(
                k, node=node, arrival=t, bat_ids=bats,
                processing_times=times, tag=f"{self.tag}{tenant}",
            )


class LocalityShiftWorkload(_ScenarioWorkload):
    """A Gaussian interest centre that drifts across the BAT id space.

    The centre moves linearly from ``center_start`` to ``center_end``
    over ``shift_duration`` seconds, then stays.  Deployed on a
    federation whose BATs are placed in contiguous per-ring blocks
    (``bat_id * n_rings // n_bats``), the drift walks the hot set from
    one ring's data into another's: cross-ring fetch pressure ramps up
    and the placement manager's interest EWMAs migrate the fragments
    after the load, no chaos injection required.
    """

    def __init__(
        self,
        dataset: UniformDataset,
        n_nodes: int,
        rate: float = 40.0,
        center_start: Optional[float] = None,
        center_end: Optional[float] = None,
        std: Optional[float] = None,
        shift_duration: Optional[float] = None,
        duration: float = 12.0,
        tag: str = "shift",
        **kwargs,
    ):
        super().__init__(dataset, n_nodes, duration, tag=tag, **kwargs)
        if rate <= 0:
            raise ValueError("rate must be positive")
        n = dataset.n_bats
        self.rate = rate
        self.center_start = center_start if center_start is not None else n / 6
        self.center_end = center_end if center_end is not None else 5 * n / 6
        self.std = std if std is not None else n / 25
        self.shift_duration = (
            shift_duration if shift_duration is not None else duration
        )
        if self.shift_duration <= 0:
            raise ValueError("shift_duration must be positive")

    def center_at(self, t: float) -> float:
        frac = min(1.0, max(0.0, t / self.shift_duration))
        return self.center_start + (self.center_end - self.center_start) * frac

    def rate_at(self, t: float) -> float:
        return self.rate

    def pick_bats(self, rng: random.Random, node: int, t: float) -> List[int]:
        center = self.center_at(t)
        return self._distinct(
            rng, lambda r: self._gauss_bat(r, center, self.std)
        )
