"""All Data Cyclotron tunables, defaulting to the paper's setup.

Section 5 ("Setup"): ten nodes, duplex links of 10 Gb/s with 350 us
delay and DropTail queues, 200 MB of BAT-queue buffer per node (2 GB of
ring capacity), an 8 GB data set of 1000 BATs of 1-10 MB.  Section 5.2
defines the adaptive LOIT ladder {0.1, 0.6, 1.1} with the 80 % / 40 %
buffer-load watermarks.  Section 5.4 models four cores per node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = ["DataCyclotronConfig", "MB", "GBIT"]

MB = 1024 * 1024
GBIT = 1e9 / 8  # bytes/second for 1 Gb/s


@dataclass
class DataCyclotronConfig:
    """Configuration of a Data Cyclotron ring.

    The defaults reproduce the paper's simulation setup; experiments
    override only what their section changes (e.g. a static LOIT for the
    section 5.1 sweep).
    """

    # --- topology / network (section 5, Setup) -----------------------
    n_nodes: int = 10
    bandwidth: float = 10 * GBIT            # bytes per second per link
    link_delay: float = 350e-6              # propagation delay, seconds
    bat_queue_capacity: int = 200 * MB      # per-node network buffer
    request_queue_capacity: Optional[int] = None  # requests are tiny
    request_message_size: int = 64          # bytes on the wire
    bat_header_size: int = 64               # administrative header bytes
    data_loss_rate: float = 0.0             # injected loss, data channel
    request_loss_rate: float = 0.0          # injected loss, request channel

    # --- LOIT: the level-of-interest threshold (sections 4.4, 5.1-5.2)
    loit_static: Optional[float] = None     # fixed threshold; disables adaptation
    loit_levels: Tuple[float, ...] = (0.1, 0.6, 1.1)
    loit_initial_level: int = 0
    loit_high_watermark: float = 0.80       # buffer load above -> step up
    loit_low_watermark: float = 0.40        # buffer load below -> step down
    loit_adapt_interval: float = 0.25       # seconds between controller ticks
    initial_loi: float = 1.0                # LOI of a freshly loaded BAT

    # --- loader / pending loads (section 4.2.3) ----------------------
    load_all_interval: float = 0.05         # "every T msec" loadAll tick
    disk_bandwidth: float = 400 * MB        # the paper's RAID reference rate
    disk_latency: float = 5e-3              # per-access seek/dispatch cost

    # --- loss recovery (section 4.2.3) --------------------------------
    resend_timeout: Optional[float] = None  # None -> derived from ring size
    resend_timeout_factor: float = 4.0      # x estimated rotational delay
    # Escalation beyond the paper (docs/faults.md): each resend multiplies
    # the timeout by ``resend_backoff_base`` (capped at ``_cap`` times the
    # base timeout); 1.0 keeps the paper's fixed-interval behaviour.
    # After ``max_resends`` unanswered resends the request gives up and
    # the blocked queries fail with DATA_UNAVAILABLE; None retries forever.
    resend_backoff_base: float = 1.0
    resend_backoff_cap: float = 8.0
    max_resends: Optional[int] = None

    # --- fault tolerance (fault-injection subsystem, docs/faults.md) ---
    # What happens to BATs owned by a crashed node: "fail_fast" fails
    # pending and future requests with DATA_UNAVAILABLE until the owner
    # rejoins; "successor" re-homes ownership to the live successor,
    # which reloads them from shared storage on demand.
    rehome_policy: str = "fail_fast"

    # --- resilience subsystem (docs/resilience.md) ---------------------
    # Off by default: with ``resilience=False`` nothing below schedules a
    # single event, keeping the paper-faithful event stream bit-identical
    # (the golden-equivalence test relies on it).
    resilience: bool = False
    # Failure detector: each node beacons to its live predecessor every
    # ``heartbeat_interval`` seconds; the predecessor keeps a sliding
    # window of inter-arrival gaps and scores phi = log10(e)*elapsed/mean
    # (exponential phi-accrual).  Crossing ``phi_suspect`` publishes
    # NodeSuspected; crossing ``phi_confirm`` publishes NodeConfirmedDead
    # and triggers the detector-driven ring repair.
    heartbeat_interval: float = 0.05
    heartbeat_window: int = 16
    phi_suspect: float = 1.5
    phi_confirm: float = 3.0
    # K-replica BAT ownership: every BAT gets K-1 replica owners placed
    # round-robin clockwise of the primary; on confirmed death the first
    # live replica is promoted.  K=1 keeps single ownership.
    replication_k: int = 1
    # Query retry/failover: attempts are capped, spaced by exponential
    # backoff with +-``retry_jitter`` relative jitter, and bounded by a
    # per-query deadline (seconds from first arrival; None = none).
    # ``retry_attempt_timeout`` abandons an attempt that shows no outcome
    # in time and re-dispatches; the superseded attempt's eventual result
    # is discarded by epoch tagging.
    retry_max_attempts: int = 4
    retry_backoff_initial: float = 0.2
    retry_backoff_base: float = 2.0
    retry_backoff_cap: float = 2.0
    retry_jitter: float = 0.25
    retry_deadline: Optional[float] = None
    retry_attempt_timeout: Optional[float] = None
    # Cluster-wide retry token bucket (docs/overload.md): every
    # re-dispatch (attempt >= 2) consumes one token; an empty bucket
    # fails the query terminally instead of amplifying load on a
    # degraded ring.  ``None`` capacity keeps retries unlimited (the
    # pre-budget behaviour); ``retry_budget_refill`` adds tokens/second.
    retry_budget_capacity: Optional[float] = None
    retry_budget_refill: float = 0.0
    # Admission valve: shed (fast-fail) new queries while at least this
    # fraction of the ring is known-dead or under suspicion.
    admission_suspect_fraction: float = 0.5

    # --- node resources ----------------------------------------------
    local_memory_bytes: Optional[int] = None  # pinned-BAT budget; None = ample
    cores_per_node: int = 4
    cpu_constrained: bool = False           # True only for the TPC-H experiment

    # --- network technology (section 2, Figure 1) ---------------------
    # "rdma" (the paper's design point), "offload" or "legacy": non-RDMA
    # modes charge the Figure 1 host CPU overhead for every BAT a node
    # puts on the wire, competing with query processing for the cores.
    transfer_mode: str = "rdma"
    host_cpu_ghz: float = 2.33 * 4          # the paper's quad-core testbed

    # --- ablation switches (paper behaviour by default) ----------------
    request_absorption: bool = True         # outcome 5 of Request Propagation
    load_priority: str = "age_size"         # loadAll order: "age_size" | "fifo"
    requests_clockwise: bool = False        # paper: requests go anti-clockwise

    # --- performance (docs/performance.md) -----------------------------
    # Coalesce runs of disinterested ring hops into one analytically
    # computed arrival (repro.core.fastforward).  Externally observable
    # behaviour is identical on or off; golden/event-count tests pin the
    # classic path by turning it off.
    fast_forward: bool = True

    # --- bookkeeping ---------------------------------------------------
    seed: int = 0
    # JSONL event-trace path; None disables tracing (docs/events.md).
    trace: Optional[str] = None
    _total_data_bytes: Optional[int] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("need at least one node")
        if self.bandwidth <= 0 or self.link_delay < 0:
            raise ValueError("invalid link parameters")
        if self.bat_queue_capacity <= 0:
            raise ValueError("bat_queue_capacity must be positive")
        if not self.loit_levels:
            raise ValueError("loit_levels cannot be empty")
        if any(b <= a for a, b in zip(self.loit_levels, self.loit_levels[1:])):
            raise ValueError("loit_levels must be strictly increasing")
        if not (0 <= self.loit_low_watermark < self.loit_high_watermark <= 1):
            raise ValueError("watermarks must satisfy 0 <= low < high <= 1")
        if not 0 <= self.loit_initial_level < len(self.loit_levels):
            raise ValueError("loit_initial_level out of range")
        if self.cores_per_node < 1:
            raise ValueError("cores_per_node must be >= 1")
        if self.load_priority not in ("age_size", "fifo"):
            raise ValueError("load_priority must be 'age_size' or 'fifo'")
        if self.rehome_policy not in ("fail_fast", "successor"):
            raise ValueError("rehome_policy must be 'fail_fast' or 'successor'")
        if self.resend_backoff_base < 1.0:
            raise ValueError("resend_backoff_base must be >= 1.0")
        if self.resend_backoff_cap < 1.0:
            raise ValueError("resend_backoff_cap must be >= 1.0")
        if self.max_resends is not None and self.max_resends < 1:
            raise ValueError("max_resends must be >= 1 (or None)")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.heartbeat_window < 1:
            raise ValueError("heartbeat_window must be >= 1")
        if not 0 < self.phi_suspect <= self.phi_confirm:
            raise ValueError("need 0 < phi_suspect <= phi_confirm")
        if not 1 <= self.replication_k <= self.n_nodes:
            raise ValueError("replication_k must be in [1, n_nodes]")
        if self.retry_max_attempts < 1:
            raise ValueError("retry_max_attempts must be >= 1")
        if self.retry_backoff_initial < 0 or self.retry_backoff_base < 1.0:
            raise ValueError("invalid retry backoff parameters")
        if self.retry_backoff_cap < self.retry_backoff_initial:
            raise ValueError("retry_backoff_cap must be >= retry_backoff_initial")
        if not 0 <= self.retry_jitter < 1:
            raise ValueError("retry_jitter must be in [0, 1)")
        if self.retry_deadline is not None and self.retry_deadline <= 0:
            raise ValueError("retry_deadline must be positive (or None)")
        if self.retry_attempt_timeout is not None and self.retry_attempt_timeout <= 0:
            raise ValueError("retry_attempt_timeout must be positive (or None)")
        if self.retry_budget_capacity is not None and self.retry_budget_capacity <= 0:
            raise ValueError("retry_budget_capacity must be positive (or None)")
        if self.retry_budget_refill < 0:
            raise ValueError("retry_budget_refill cannot be negative")
        if not 0 < self.admission_suspect_fraction <= 1:
            raise ValueError("admission_suspect_fraction must be in (0, 1]")
        if self.resilience and self.requests_clockwise:
            raise ValueError(
                "resilience monitors the anti-clockwise request channel; "
                "it is incompatible with the requests_clockwise ablation"
            )
        if self.transfer_mode not in ("rdma", "offload", "legacy"):
            raise ValueError("transfer_mode must be 'rdma', 'offload' or 'legacy'")
        if self.host_cpu_ghz <= 0:
            raise ValueError("host_cpu_ghz must be positive")

    def network_cpu_factor(self) -> float:
        """CPU-core-seconds burnt per second of wire transmission.

        Figure 1's host-cost model at the configured line rate: RDMA is
        near zero; the legacy stack needs ~1 GHz per Gb/s, enough to
        saturate the paper's quad-core at 10 Gb/s.
        """
        from repro.net.hostmodel import HostCostModel, TransferMode

        if self.transfer_mode == "rdma":
            # "the CPU(s) of neither host are involved in the data
            # transfer" (section 2.1): the RNIC does everything
            return 0.0
        mode = {
            "offload": TransferMode.OFFLOAD,
            "legacy": TransferMode.LEGACY,
        }[self.transfer_mode]
        model = HostCostModel(cpu_ghz=self.host_cpu_ghz)
        gbps = self.bandwidth * 8 / 1e9
        # fraction of the whole host, scaled to core-seconds
        return model.cpu_load(mode, gbps) * self.cores_per_node

    # ------------------------------------------------------------------
    def derived_resend_timeout(self, mean_bat_size: float) -> float:
        """Resend timeout from the estimated ring rotational delay.

        The paper triggers ``resend()`` "by a timeout on the rotational
        delay for BATs requested into the storage ring" (section 4.2.3).
        A rotation costs, per hop, the BAT's serialisation time plus the
        link delay -- *plus queueing behind everything else in the BAT
        queues*: with a loaded ring, a BAT waits for up to a full queue
        of predecessors at every hop, so the worst-case rotation is
        bounded by draining the whole ring capacity through one link.
        Under-estimating this made owners falsely declare circulating
        BATs lost and flood the ring with duplicates.
        """
        if self.resend_timeout is not None:
            return self.resend_timeout
        per_hop = mean_bat_size / self.bandwidth + self.link_delay
        loaded_rotation = (
            self._circulating_bound() / self.bandwidth
            + self.n_nodes * self.link_delay
        )
        rotation = max(self.n_nodes * per_hop, loaded_rotation)
        return max(self.resend_timeout_factor * rotation, 0.1)

    def _circulating_bound(self) -> float:
        """Upper bound on bytes that can be in flight at once.

        The ring holds at most its aggregate queue capacity -- but never
        more than the whole database (set via :meth:`note_total_data`).
        """
        if self._total_data_bytes is not None:
            return min(self.ring_capacity, self._total_data_bytes)
        return self.ring_capacity

    def note_total_data(self, total_bytes: int) -> None:
        """Tell the config how much data exists, tightening timeouts."""
        self._total_data_bytes = total_bytes

    @property
    def ring_capacity(self) -> int:
        """Total BAT-queue bytes across the ring (2 GB in the paper)."""
        return self.n_nodes * self.bat_queue_capacity
