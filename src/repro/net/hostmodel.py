"""Analytic host-side CPU/memory-bus cost model of network transfers.

Reproduces Figure 1 of the paper: the CPU-load breakdown of high-speed
transfers under three technologies --

* ``LEGACY`` (everything on the CPU): the kernel TCP/IP stack burns
  cycles on intermediate data copying, context switches, the driver and
  network-stack processing.  The paper quotes the rule of thumb that
  "about 1 GHz in CPU performance is necessary for every 1 Gb/s network
  throughput" [12], which this model uses for calibration.
* ``OFFLOAD`` (network stack on the NIC): stack processing moves to the
  NIC but "offloading only the network stack processing to the NIC is
  not sufficient ... data copying must be avoided as well" -- the copy
  and context-switch costs remain.
* ``RDMA``: direct data placement removes the copies, OS bypass removes
  the context switches; only a negligible driver/doorbell cost remains.

The model also accounts memory-bus crossings: RDMA crosses the bus once
per transfer, the kernel stack several times (section 2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict

__all__ = ["TransferMode", "HostCostModel", "CpuBreakdown"]


class TransferMode(Enum):
    """The three technologies contrasted in Figure 1."""

    LEGACY = "everything-on-cpu"
    OFFLOAD = "network-stack-on-nic"
    RDMA = "rdma"


GHZ_PER_GBPS = 1.0  # "about 1 GHz ... for every 1 Gb/s" [12] (section 2)

# Fraction of the 1 GHz-per-Gb/s budget each component consumes when the
# whole stack runs on the CPU.  Figure 1 shows data copying dominating,
# followed by the network stack, context switches, and the driver.
_LEGACY_SHARES: Dict[str, float] = {
    "data_copying": 0.45,
    "network_stack": 0.30,
    "context_switches": 0.15,
    "driver": 0.10,
}

# Memory-bus crossings per payload byte (section 2.2): the kernel stack
# copies user->kernel, kernel->NIC plus the DMA itself; RDMA DMAs once.
_BUS_CROSSINGS = {
    TransferMode.LEGACY: 3,
    TransferMode.OFFLOAD: 2,
    TransferMode.RDMA: 1,
}


@dataclass(frozen=True)
class CpuBreakdown:
    """Per-component CPU load (fractions of one core) for a transfer rate."""

    data_copying: float
    network_stack: float
    context_switches: float
    driver: float

    @property
    def total(self) -> float:
        return (
            self.data_copying
            + self.network_stack
            + self.context_switches
            + self.driver
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "data_copying": self.data_copying,
            "network_stack": self.network_stack,
            "context_switches": self.context_switches,
            "driver": self.driver,
        }


class HostCostModel:
    """CPU and memory-bus cost of sustaining a given network throughput.

    Parameters
    ----------
    cpu_ghz:
        Aggregate clock of the host CPU; the paper's testbed is a
        2.33 GHz quad core that was "barely able to saturate the
        10 Gb/s link" under full load.
    """

    def __init__(self, cpu_ghz: float = 2.33 * 4):
        if cpu_ghz <= 0:
            raise ValueError("cpu_ghz must be positive")
        self.cpu_ghz = cpu_ghz

    # ------------------------------------------------------------------
    def breakdown(self, mode: TransferMode, throughput_gbps: float) -> CpuBreakdown:
        """CPU-load breakdown (fraction of total CPU) at ``throughput_gbps``."""
        if throughput_gbps < 0:
            raise ValueError("throughput cannot be negative")
        budget = throughput_gbps * GHZ_PER_GBPS / self.cpu_ghz
        s = _LEGACY_SHARES
        if mode is TransferMode.LEGACY:
            shares = s
        elif mode is TransferMode.OFFLOAD:
            # Stack processing moved to the NIC; copies and switches stay.
            shares = {**s, "network_stack": 0.0}
        else:  # RDMA: zero-copy + OS bypass; tiny doorbell cost remains.
            shares = {
                "data_copying": 0.0,
                "network_stack": 0.0,
                "context_switches": 0.0,
                "driver": s["driver"] * 0.2,
            }
        return CpuBreakdown(
            data_copying=budget * shares["data_copying"],
            network_stack=budget * shares["network_stack"],
            context_switches=budget * shares["context_switches"],
            driver=budget * shares["driver"],
        )

    def cpu_load(self, mode: TransferMode, throughput_gbps: float) -> float:
        """Total CPU load fraction (may exceed 1.0 = saturated CPU)."""
        return self.breakdown(mode, throughput_gbps).total

    def max_throughput_gbps(self, mode: TransferMode, link_gbps: float) -> float:
        """Achievable throughput: min of the link and what the CPU sustains."""
        per_gbps = self.cpu_load(mode, 1.0)
        if per_gbps <= 0:
            return link_gbps
        cpu_limit = 1.0 / per_gbps
        return min(link_gbps, cpu_limit)

    def bus_crossings(self, mode: TransferMode) -> int:
        """Memory-bus crossings per transferred byte (section 2.2)."""
        return _BUS_CROSSINGS[mode]

    def bus_bytes(self, mode: TransferMode, payload_bytes: int) -> int:
        """Total bytes moved over the memory bus for a payload."""
        return payload_bytes * _BUS_CROSSINGS[mode]
