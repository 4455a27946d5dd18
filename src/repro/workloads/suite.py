"""The named scenario suite behind ``repro scenarios`` (docs/workloads.md).

Each scenario builds a deployment (classic ring or federation), attaches
an :class:`~repro.metrics.slo.SloCollector` to the query lifecycle,
drives one of the :mod:`repro.workloads.scenarios` generators through
it, and returns an SLO verdict plus scenario-specific extras.
``SCENARIOS`` at the bottom is the catalogue (``repro scenarios
--list`` prints it).  Five of the scenarios are on/off twins declared
through :func:`_twin`: one function runs the workload with a mechanism
on or off, and the twin reports both runs in one result.

Everything is deterministic per seed: ``run_scenario(name, seed)``
returns a bit-identical result dict on every call, which is what the
CI ``scenario-smoke`` job (``repro scenarios --check-determinism``) and
the gates in tests/test_scenario_gates.py rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.config import MB, DataCyclotronConfig
from repro.core.query import QuerySpec
from repro.core.ring import DataCyclotron
from repro.dbms.executor import RingDatabase
from repro.experiments import FAST_DISK, FAULT_ENVELOPE, QUICK
from repro.metrics.slo import (
    EngineSloTarget,
    SloCollector,
    SloTarget,
    slo_verdict,
    validate_verdict,
)
from repro.multiring.config import MultiRingConfig
from repro.multiring.federation import RingFederation
from repro.resilience.overload import OverloadController, OverloadPolicy
from repro.sim.rng import RngRegistry
from repro.workloads.base import UniformDataset, Workload, populate_ring
from repro.workloads.closedloop import ClosedLoopWorkload
from repro.workloads.frontdoor import FrontDoorWorkload
from repro.workloads.mixed import MixedEngineWorkload
from repro.workloads.scenarios import (
    ColdBurstWorkload,
    DiurnalWorkload,
    FlashCrowdWorkload,
    LocalityShiftWorkload,
    MultiTenantWorkload,
)
__all__ = [
    "MIXED_ENGINE_TARGETS",
    "SCENARIOS",
    "ScenarioSpec",
    "run_scenario",
    "scenario_names",
]

MAX_TIME = 600.0


@dataclass(frozen=True)
class ScenarioSpec:
    """One named scenario: a runner plus its declared SLO target."""

    name: str
    description: str
    target: SloTarget
    runner: Callable[[int, bool, SloTarget], Tuple[Dict, Dict]]

    def run(self, seed: int, quick: bool) -> Dict:
        verdict, extras = self.runner(seed, quick, self.target)
        validate_verdict(verdict)
        return {
            "name": self.name,
            "seed": seed,
            "quick": quick,
            "verdict": verdict,
            "extras": extras,
        }


# ----------------------------------------------------------------------
# shared deployment builders
# ----------------------------------------------------------------------
def _classic_config(seed: int) -> DataCyclotronConfig:
    """The quick ring with a fast disk and the derived resend timeout."""
    return QUICK.config(seed, resend_timeout=None, **FAST_DISK)


def _run_extras(submitted: int, completed: bool, sim) -> Dict:
    """The three extras every scenario reports about its own run."""
    return {
        "submitted": submitted,
        "completed_in_time": completed,
        "sim_time": round(sim.now, 6),
    }


def _run_classic(
    workload: Workload,
    dataset: UniformDataset,
    seed: int,
    target: SloTarget,
    scenario: str,
) -> Tuple[Dict, Dict]:
    dc = DataCyclotron(_classic_config(seed))
    populate_ring(dc, dataset)
    slo = SloCollector().attach(dc.bus)
    submitted = workload.submit_to(dc)
    completed = dc.run_until_done(max_time=MAX_TIME)
    verdict = slo.verdict(scenario, seed, target)
    return verdict, _run_extras(submitted, completed, dc.sim)


def _block_federation(
    dataset: UniformDataset,
    seed: int,
    n_rings: int,
    nodes_per_ring: int,
    resilience: bool = False,
    splitmerge_interval: float = 0.0,  # fixed topology: measure the workload
    **multiring_kwargs,
) -> Tuple[RingFederation, SloCollector]:
    """A federation with *contiguous block* data placement: BAT ids map
    to rings in order, so a drifting interest centre walks from one
    ring's data into the next (the locality-shift premise).  One SLO
    collector listens on every ring's bus."""
    base = QUICK.config(
        seed,
        n_nodes=nodes_per_ring,  # replaced per ring by MultiRingConfig
        **FAULT_ENVELOPE,
        resilience=resilience,
        replication_k=2 if resilience else 1,
    )
    fed = RingFederation(MultiRingConfig(
        base=base,
        n_rings=n_rings,
        nodes_per_ring=nodes_per_ring,
        gateways_per_ring=1,
        splitmerge_interval=splitmerge_interval,
        **multiring_kwargs,
    ))
    n = dataset.n_bats
    for bat_id, size in sorted(dataset.sizes.items()):
        fed.add_bat(bat_id, size, ring=bat_id * n_rings // n)
    slo = SloCollector()
    for ring in fed.rings:
        slo.attach(ring.bus)
    return fed, slo


# ----------------------------------------------------------------------
# the scenarios
# ----------------------------------------------------------------------
def _dataset(seed: int, quick: bool) -> UniformDataset:
    if quick:
        return UniformDataset(n_bats=120, min_size=MB, max_size=2 * MB, seed=seed)
    return UniformDataset(n_bats=1000, min_size=MB, max_size=10 * MB, seed=seed)


def _run_diurnal(seed: int, quick: bool, target: SloTarget) -> Tuple[Dict, Dict]:
    dataset = _dataset(seed, quick)
    workload = DiurnalWorkload(
        dataset,
        n_nodes=4,
        base_rate=40.0 if quick else 80.0,
        amplitude=0.8,
        period=4.0 if quick else 16.0,
        duration=8.0 if quick else 32.0,
        seed=seed,
    )
    verdict, extras = _run_classic(workload, dataset, seed, target, "diurnal")
    extras["peak_rate"] = workload.rate_at(workload.period / 2)
    extras["trough_rate"] = workload.rate_at(0.0)
    return verdict, extras


def _run_flash_crowd(seed: int, quick: bool, target: SloTarget) -> Tuple[Dict, Dict]:
    dataset = _dataset(seed, quick)
    workload = FlashCrowdWorkload(
        dataset,
        n_nodes=4,
        base_rate=25.0 if quick else 60.0,
        burst_factor=8.0,
        burst_start=3.0,
        burst_duration=1.5 if quick else 4.0,
        hot_set_size=8,
        duration=8.0 if quick else 20.0,
        seed=seed,
    )
    verdict, extras = _run_classic(workload, dataset, seed, target, "flash-crowd")
    extras["burst_rate"] = workload.rate_at(workload.burst_start)
    return verdict, extras


def _run_multi_tenant(seed: int, quick: bool, target: SloTarget) -> Tuple[Dict, Dict]:
    dataset = _dataset(seed, quick)
    workload = MultiTenantWorkload(
        dataset,
        n_nodes=4,
        n_tenants=4,
        total_rate=50.0 if quick else 120.0,
        duration=7.0 if quick else 20.0,
        seed=seed,
    )
    verdict, extras = _run_classic(workload, dataset, seed, target, "multi-tenant")
    extras["tenant_shares"] = {
        f"tenant{i}": round(workload.tenant_share(i), 6)
        for i in range(workload.n_tenants)
    }
    return verdict, extras


def _run_locality_shift(seed: int, quick: bool, target: SloTarget) -> Tuple[Dict, Dict]:
    dataset = _dataset(seed, quick)
    fed, slo = _block_federation(
        dataset, seed,
        n_rings=3, nodes_per_ring=3,
        placement_interval=0.25,
        migration_patience=2,
        ship_threshold=0.0,  # fetch, don't ship: migrations must carry the load
    )
    # every query arrives at ring 0 (the clients live in one region);
    # the interest centre drifts out of ring 0's block into rings 1 and
    # 2, so the foreign-fetch pressure re-homes the hot set to ring 0
    workload = LocalityShiftWorkload(
        dataset,
        n_nodes=fed.config.total_nodes,
        nodes=list(range(fed.config.nodes_per_ring)),
        rate=40.0 if quick else 100.0,
        duration=8.0 if quick else 24.0,
        seed=seed,
    )
    submitted = workload.submit_to(fed)
    completed = fed.run_until_done(max_time=MAX_TIME)
    summary = fed.summary()
    verdict = slo.verdict("locality-shift", seed, target)
    extras = _run_extras(submitted, completed, fed.sim)
    extras.update((key, summary[key]) for key in (
        "cross_ring_requests", "fetches_served",
        "migrations_started", "fragments_migrated",
    ))
    return verdict, extras


# ----------------------------------------------------------------------
# on/off twins
# ----------------------------------------------------------------------
def _twin(
    label: str, side: Callable[[int, bool, SloTarget, bool], Tuple[Dict, Dict, Dict]]
) -> Callable[[int, bool, SloTarget], Tuple[Dict, Dict]]:
    """A scenario runner that measures one mechanism on, then off.

    ``side(seed, quick, target, on)`` runs the identical workload once
    per setting and returns ``(verdict, stats, pair)``.  The twin
    reports the on run's verdict and stats.  Each ``pair`` entry appears
    once per run that reports it, as ``<key>_on`` / ``<key>_off``, so a
    measure only the on run has (a controller's level) is a key the off
    run leaves out.  The two tails appear as ``p999_<label>_on`` /
    ``p999_<label>_off`` and the off run's whole verdict as
    ``<label>_off_verdict``.
    """
    def run(seed: int, quick: bool, target: SloTarget) -> Tuple[Dict, Dict]:
        verdict, extras, on = side(seed, quick, target, True)
        verdict_off, _, off = side(seed, quick, target, False)
        for suffix, pair in (("on", on), ("off", off)):
            extras.update((f"{key}_{suffix}", value) for key, value in pair.items())
        extras[f"p999_{label}_on"] = verdict["latency"]["p999"]
        extras[f"p999_{label}_off"] = verdict_off["latency"]["p999"]
        extras[f"{label}_off_verdict"] = verdict_off
        return verdict, extras

    return run


def _gateway_chaos_once(
    seed: int, quick: bool, target: SloTarget, serve_handoff: bool
) -> Tuple[Dict, Dict, Dict]:
    """One gateway-crash run, serve handoff on or off."""
    dataset = (
        UniformDataset(n_bats=96, min_size=MB, max_size=2 * MB, seed=seed)
        if quick
        else UniformDataset(n_bats=300, min_size=MB, max_size=4 * MB, seed=seed)
    )
    fed, slo = _block_federation(
        dataset, seed,
        n_rings=3, nodes_per_ring=3,
        resilience=True,
        serve_handoff=serve_handoff,
        fetch_timeout=2.5,
        placement_interval=60.0,  # topology and placement stay fixed
    )
    # arrivals only on rings 0 and 2, interest drifting through ring
    # 1's block: a steady stream of first-touch fetches keeps serves in
    # flight on ring 1's (doomed) gateway for the whole run
    npr = fed.config.nodes_per_ring
    edge_nodes = list(range(npr)) + list(range(2 * npr, 3 * npr))
    n = dataset.n_bats
    duration = 4.0 if quick else 10.0
    workload = LocalityShiftWorkload(
        dataset,
        n_nodes=fed.config.total_nodes,
        nodes=edge_nodes,
        rate=60.0 if quick else 150.0,
        center_start=n / 3 + 4,
        center_end=2 * n / 3 - 4,
        std=n / 24,
        shift_duration=duration,
        duration=duration,
        min_proc_time=0.02,
        max_proc_time=0.05,
        seed=seed,
        tag="chaos",
    )
    submitted = workload.submit_to(fed)

    # the fault: ring 1's gateway dies *mid-serve*.  A fixed crash time
    # would mostly miss the few-millisecond serve windows, so a sim-time
    # watchdog (deterministic: it polls the simulation clock, nothing
    # wall-clock) fires the crash at the first instant after t=1.0 at
    # which the gateway actually has a fetch serve in flight.
    crashed_at = [0.0]

    def watch() -> None:
        ring_id = 1
        node = fed.router.gateway(ring_id)
        ring = fed.rings[ring_id]
        if not ring.ring.is_alive(node) or fed.sim.now > duration:
            return
        if fed.router.pending_serve_count(ring_id, node) > 0:
            ring.crash_node(node)
            crashed_at[0] = fed.sim.now
            return
        fed.sim.post(0.005, watch)

    fed.sim.post(1.0, watch)
    completed = fed.run_until_done(max_time=MAX_TIME)
    summary = fed.summary()
    verdict = slo.verdict("gateway-chaos", seed, target)
    extras = _run_extras(submitted, completed, fed.sim)
    extras["serve_handoff"] = serve_handoff
    extras["crashed_at"] = round(crashed_at[0], 6)
    extras.update((key, summary[key]) for key in (
        "serves_handed_off", "gateway_failures", "gateway_elections",
    ))
    return verdict, extras, {}


# ----------------------------------------------------------------------
# closed-loop overload control scenarios (docs/overload.md)
# ----------------------------------------------------------------------
def _tiered_specs(workload: Workload, seed: int) -> List[QuerySpec]:
    """Assign priority tiers 0/1/2 to an open-loop stream, deterministically.

    45/45/10: most of the flood is best-effort (tiers 0 and 1), a thin
    top tier models the paying traffic a brownout must protect.  The
    tier doubles as the tenant tag (``tier0``/``tier1``/``tier2``) so
    per-tier stats need no extra machinery.
    """
    rng = RngRegistry(seed).stream("tiers")
    out: List[QuerySpec] = []
    for spec in workload.queries():
        u = rng.random()
        tier = 0 if u < 0.45 else (1 if u < 0.9 else 2)
        out.append(replace(spec, tier=tier, tag=f"tier{tier}"))
    return out


# Deadline the overload goodput metric counts completions against:
# *useful* work is a success the caller was still waiting for, not a
# completion that limped home after the client gave up.
OVERLOAD_DEADLINE = 2.0


def _on_time(latencies) -> int:
    """Completions within the overload deadline."""
    return sum(1 for x in latencies if x <= OVERLOAD_DEADLINE)


def _controller_extras(ctrl: OverloadController) -> Dict:
    stats = ctrl.stats()
    shed_fraction = {}
    for tier, offered in sorted(stats["offered_by_tier"].items()):
        shed = stats["shed_by_tier"].get(tier, 0)
        shed_fraction[tier] = round(shed / offered, 6) if offered else 0.0
    return {
        "offered_by_tier": stats["offered_by_tier"],
        "shed_by_tier": stats["shed_by_tier"],
        "shed_fraction_by_tier": shed_fraction,
        "max_shed_level": stats["max_level"],
        "level_changes": stats["level_changes"],
    }


def _retrier_verdict(retrier, scenario: str, seed: int, target: SloTarget) -> Dict:
    """An SLO verdict over the retrier's *logical* queries.

    Under the resilience manager each logical query runs as several
    attempts with fresh ids, so the event-stream collector would count
    every attempt separately; the retry states are the source of truth
    here.  Shed queries count as failed, the ``SloCollector``
    convention."""
    states = retrier.states.values()
    samples = retrier.latencies()
    return slo_verdict(
        scenario, seed, target, samples,
        total=len(states),
        failed=len(states) - len(samples),
        shed=sum(1 for s in states if s.shed),
    )


def _tier_outcomes(retrier, deadline: float, duration: float) -> Dict[int, Dict]:
    """Per-tier offered/shed/failed counts and deadline goodput."""
    per: Dict[int, Dict] = {}
    for state in retrier.states.values():
        d = per.setdefault(state.spec.tier, {
            "offered": 0, "succeeded": 0, "failed": 0, "shed": 0, "good": 0,
        })
        d["offered"] += 1
        if state.shed:
            d["shed"] += 1
        elif state.succeeded:
            d["succeeded"] += 1
            if state.latency is not None and state.latency <= deadline:
                d["good"] += 1
        elif state.done:
            d["failed"] += 1
    for d in per.values():
        d["goodput"] = round(d["good"] / duration, 6)
        d["shed_fraction"] = round(d["shed"] / d["offered"], 6)
    return dict(sorted(per.items()))


def _cold_flood_once(
    scenario: str, seed: int, quick: bool, target: SloTarget, controlled: bool
) -> Tuple[Dict, Dict, Dict]:
    """One tiered cold-burst flood, with or without the closed-loop
    controller (and, on the ring, its retry budget).

    ``overload`` floods a resilient 4-node ring through its resilience
    manager, so failed queries retry.  ``split-under-load`` pins the
    crowd on ring 0 of a two-ring federation with one standby ring and
    the pulsating split/merge controller live, so the burst triggers a
    ring split mid-overload.  The flood, its tiers, the closed-loop
    clients, the controller and the grace ticks are shared; the
    deployment and what is measured on it differ.
    """
    federated = scenario == "split-under-load"
    dataset = UniformDataset(
        n_bats=120 if quick else 240, min_size=MB, max_size=2 * MB, seed=seed
    )
    duration = 8.0 if quick else 14.0
    if federated:
        host, slo = _block_federation(
            dataset, seed,
            n_rings=2, nodes_per_ring=3,
            max_rings=3,
            splitmerge_interval=0.25,
            splitmerge_patience=2,
            split_high_watermark=0.80,
            placement_interval=0.25,
            migration_patience=2,
        )
        slo.attach(host.bus)  # the admission gate publishes QueryShed here
        n_nodes = host.config.total_nodes
        entry = list(range(host.config.nodes_per_ring))  # the crowd's ring 0
        base_rate, n_clients, max_bats = 25.0, (6 if quick else 12), 3
        policy = dict(
            target_p99=3.0, topology_guard_window=0.5, split_nudge_ticks=6,
        )
    else:
        # a resilient 4-node ring with a tight resend envelope.  Small
        # BAT queues plus bounded resends are what make sustained
        # overload *lossy* here: once the cold-burst demand overflows
        # the queues, unserved requests exhaust their resends and
        # queries fail with DATA_UNAVAILABLE, which the retrier then
        # amplifies into even more traffic.  The controlled run adds the
        # retry-budget token bucket; nothing else differs.
        host = DataCyclotron(QUICK.config(
            seed,
            bat_queue_capacity=8 * MB,
            **dict(FAULT_ENVELOPE, max_resends=3),
            resilience=True,
            retry_max_attempts=4,
            retry_backoff_initial=0.2,
            retry_backoff_base=2.0,
            retry_backoff_cap=1.0,
            retry_jitter=0.25,
            retry_deadline=8.0,
            retry_budget_capacity=40.0 if controlled else None,
            retry_budget_refill=8.0 if controlled else 0.0,
        ))
        populate_ring(host, dataset)
        n_nodes, entry = host.config.n_nodes, None
        base_rate, n_clients, max_bats = 30.0, 4, 2
        policy = dict(target_p99=2.0)
    flash = ColdBurstWorkload(
        dataset,
        n_nodes=n_nodes,
        nodes=entry,
        base_rate=base_rate,
        burst_factor=10.0,
        burst_start=1.0,
        burst_duration=4.0 if quick else 8.0,
        hot_set_size=8,
        duration=duration,
        seed=seed,
    )
    if federated:
        # the baseline hot set sits in the middle of ring 0's contiguous
        # block (fast and stable); the burst floods *cold* data from every
        # ring's block, so relief needs both shedding and a ring split
        flash.hot_low = dataset.n_bats // 4
    specs = _tiered_specs(flash, seed)
    closed = ClosedLoopWorkload(
        dataset,
        n_nodes=n_nodes,
        n_clients=n_clients,
        duration=duration,
        max_bats=max_bats,
        nodes=entry,
        seed=seed,
        tag="tier2",
        tier=2,
    )
    ctrl: Optional[OverloadController] = None
    if controlled:
        ctrl = OverloadController(host, OverloadPolicy(
            min_samples=8, recover_fraction=0.7, **policy,
        ))
        ctrl.start()
    if federated:
        gate = ctrl if ctrl is not None else host
        for spec in specs:
            gate.submit(spec)
    else:
        mgr = host.resilience
        mgr.overload = ctrl
        # admission decisions belong to arrival time, not enqueue time
        for spec in specs:
            host.sim.post(spec.arrival, mgr.submit, spec)
    closed.submit_to(host, gate=ctrl)
    host.run(until=duration)
    if federated:
        completed = host.run_until_done(max_time=MAX_TIME)
    else:
        def drained() -> bool:
            return mgr.retrier.all_done and host.completed_queries >= host._submitted

        while host.sim.now < MAX_TIME and not drained():
            host.sim.run(until=host.sim.now + 0.5)
        completed = drained()
    # grace ticks: the hysteretic valve should step back to level 0
    host.sim.run(until=host.sim.now + 4.0)
    stats = _run_extras(len(specs) + closed.issued, completed, host.sim)
    stats["deadline"] = OVERLOAD_DEADLINE
    if federated:
        summary = host.summary()
        verdict = slo.verdict(scenario, seed, target)
        # tier2 tags both the protected open-loop slice and the closed-loop
        # clients, so one tag filter covers the whole protected population
        pair = {
            "goodput": round(_on_time(slo.latencies("tier2")) / duration, 6),
            "goodput_all": round(_on_time(slo.latencies()) / duration, 6),
            "ring_splits": summary["ring_splits"],
        }
        stats["migrations_started"] = summary["migrations_started"]
        stats["fragments_migrated"] = summary["fragments_migrated"]
    else:
        verdict = _retrier_verdict(mgr.retrier, scenario, seed, target)
        counts = mgr.retrier.counts()
        tiers = _tier_outcomes(mgr.retrier, OVERLOAD_DEADLINE, duration)
        closed_good = _on_time(closed.latencies)
        pair = {
            # protected goodput: top-tier open-loop queries plus the
            # closed-loop client population, both graded on the deadline
            "goodput": round((tiers[max(tiers)]["good"] + closed_good) / duration, 6),
            "goodput_all": round(
                (sum(d["good"] for d in tiers.values()) + closed_good) / duration,
                6,
            ),
            "failed": counts["failed"],
            "attempts": counts["attempts"],
            "tiers": tiers,
            "closed_issued": closed.issued,
            "closed_good": closed_good,
            "closed_failed": closed.failed,
        }
        if controlled:  # only the controlled run has a budget and a gate
            pair["budget_exhausted"] = mgr.retrier.budget_exhausted
            pair["closed_shed"] = closed.shed
    if ctrl is not None:
        pair["final_level"] = ctrl.shed_level
        stats.update(_controller_extras(ctrl))
    return verdict, stats, pair


# per-engine-class objectives for the mixed-engine scenario: each QPU
# class is graded on the number its tenants actually care about
MIXED_ENGINE_TARGETS: Dict[str, EngineSloTarget] = {
    "kv": EngineSloTarget(p99=0.3),
    "mal": EngineSloTarget(p99=4.0),
    "stream": EngineSloTarget(min_throughput=0.5),
}


def _run_mixed_engine(seed: int, quick: bool, target: SloTarget) -> Tuple[Dict, Dict]:
    # quick is the workload's own default mix
    full = dict(
        n_rows=24000, rows_per_partition=1000,
        kv_rate=60.0, mal_rate=8.0, stream_rate=2.0, duration=12.0,
    )
    workload = MixedEngineWorkload(seed=seed, **({} if quick else full))
    rdb = RingDatabase(_classic_config(seed))
    slo = SloCollector().attach(rdb.dc.bus)
    submitted = workload.submit_to(rdb)
    completed = rdb.run_until_done(max_time=MAX_TIME)
    verdict = slo.verdict("mixed-engine", seed, target)
    verdict["engine_classes"] = slo.engine_verdicts(
        MIXED_ENGINE_TARGETS, duration=rdb.dc.sim.now
    )
    metrics = rdb.metrics
    extras = _run_extras(submitted, completed, rdb.dc.sim)
    extras["submitted_by_engine"] = dict(workload.counts)
    extras["queries_by_engine"] = dict(metrics.queries_by_engine)
    extras.update((key, getattr(metrics, key)) for key in (
        "kv_probes", "kv_misses", "stream_bats_consumed", "stream_rows_consumed",
    ))
    return verdict, extras


# ----------------------------------------------------------------------
# front-door serving tier scenarios (docs/frontdoor.md)
# ----------------------------------------------------------------------
def _frontdoor_workload(seed: int, quick: bool, **overrides) -> FrontDoorWorkload:
    """The sized front-door mix; capacity math lives in the workload.

    Quick is the workload's own default: a 6000-row, 6-column table ->
    48 KB columns, so a burst ``SELECT *`` binds 288 KB while a probe
    costs one 4 KB partition.  With a 3 MB/s ring the offered
    footprint-byte rate is ~0.58x capacity outside the burst window and
    ~3.3x inside it (the >= 3x open-loop overload the acceptance gate
    requires; ``capacity_ratio`` reports the exact figure in the
    extras).  Full doubles the table and the run on a 6 MB/s ring.
    """
    if not quick:
        overrides = {
            "n_rows": 12000, "burst_start": 2.0, "burst_end": 10.0,
            "duration": 12.0, **overrides,
        }
    return FrontDoorWorkload(seed=seed, **overrides)


def _frontdoor_ring(seed: int, quick: bool) -> RingDatabase:
    """A deliberately thin ring: the front door, not the pipe, must
    absorb the burst.  ``fast_forward`` stays off so transfer times are
    the real latency signal the deadlines grade."""
    return RingDatabase(
        DataCyclotronConfig(
            n_nodes=4,
            seed=seed,
            bandwidth=(3 if quick else 6) * MB,
            fast_forward=False,
        ),
    )


def _frontdoor_budget(quick: bool) -> int:
    return int((1.5 if quick else 3.0) * MB)


# predicted-bytes tier boundaries: probes (<=16 KB) ride the protected
# top tier, single-column scans and folds the middle, wide scans tier 0
FRONTDOOR_TIERS = (16 * 1024, 120 * 1024)


def _frontdoor_door(
    rdb: RingDatabase, quick: bool, estimate: bool, tag_tiers: bool = False
) -> "FrontDoor":
    """The door in front of ``rdb``, with the budget the ring is sized
    for enforced by the estimate valve or by the dispatcher's blind one."""
    from repro.frontdoor import FrontDoor, FrontDoorPolicy

    budget = _frontdoor_budget(quick)
    # statistics-driven: a tier-sliced valve over *predicted* bytes.  The
    # blind twin keeps the tiers, deadlines and tickets, but admission
    # falls to the dispatcher's tier-blind byte valve with the same cap
    door = FrontDoor(rdb, policy=FrontDoorPolicy(
        tier_boundaries=FRONTDOOR_TIERS,
        byte_budget=budget if estimate else None,
        admission="estimate" if estimate else "none",
        tag_tiers=tag_tiers,
    ))
    if not estimate:
        rdb.byte_budget = budget
    return door


def _door_summary(door, duration: float) -> Dict:
    stats = door.summary()
    top = door.policy.n_tiers - 1
    acc = door.accuracy_report()
    n = sum(c["queries"] for c in acc.values())
    exact = sum(c["queries"] * c["exact_bytes_fraction"] for c in acc.values())
    return {
        "door": stats,
        "goodput_top_tier": round(door.goodput(top, duration), 6),
        "estimates_recorded": n,
        "exact_bytes_fraction": round(exact / n, 6) if n else 0.0,
    }


# per-engine objectives for the all-engines burst: probes must stay
# fast, scans may stretch, folds must keep flowing
FRONTDOOR_ENGINE_TARGETS: Dict[str, EngineSloTarget] = {
    # a probe's latency floor is the ring rotation wait (~0.37 s on the
    # thin 4-node scenario ring), not the 4 KB transfer
    "kv": EngineSloTarget(p99=0.5, max_failure_rate=1.0),
    "mal": EngineSloTarget(p99=5.0, max_failure_rate=1.0),
    "stream": EngineSloTarget(min_throughput=0.5, max_failure_rate=1.0),
}


def _frontdoor_once(
    scenario: str, seed: int, quick: bool, target: SloTarget, estimate: bool
) -> Tuple[Dict, Dict, Dict]:
    """One burst through the door, estimate valve or blind byte valve.

    ``frontdoor`` tags registrations by door tier and grades the
    protected tier's goodput.  ``mixed-engine-overload`` floods all
    three engine classes at once -- wide scans, cold probes, grouped
    folds over the cold wide columns -- and keeps the engine tags, so
    its per-engine-class verdicts reuse the mixed-engine machinery.
    """
    mixed = scenario == "mixed-engine-overload"
    burst = {"burst_kv_rate": 40.0, "burst_stream_rate": 4.0} if mixed else {}
    wl = _frontdoor_workload(seed, quick, **burst)
    rdb = _frontdoor_ring(seed, quick)
    wl.load_into(rdb)
    slo = SloCollector().attach(rdb.dc.bus)
    door = _frontdoor_door(rdb, quick, estimate, tag_tiers=not mixed)
    wl.offer_to(door)
    completed = rdb.run_until_done(max_time=MAX_TIME)
    verdict = slo.verdict(scenario, seed, target)
    bandwidth = rdb.dc.config.bandwidth
    summary = _door_summary(door, wl.duration)
    stats = {
        "offered": door.offered,
        "completed_in_time": completed,
        "capacity_ratio_burst": round(wl.capacity_ratio(bandwidth), 6),
    }
    pair = {"estimate": summary}
    if mixed:
        verdict["engine_classes"] = slo.engine_verdicts(
            FRONTDOOR_ENGINE_TARGETS, duration=wl.duration
        )
        pair["engine_p99"] = {
            eng: v["p99"] for eng, v in verdict["engine_classes"].items()
        }
    else:
        stats["capacity_ratio_base"] = round(
            wl.capacity_ratio(bandwidth, in_burst=False), 6
        )
        stats["byte_budget"] = _frontdoor_budget(quick)
        # beside the p999 pair, the acceptance gate's protected-tier goodput
        pair["goodput"] = summary["goodput_top_tier"]
    return verdict, stats, pair


SCENARIOS: Dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in (
        ScenarioSpec(
            "diurnal",
            "day/night arrival-rate cycle over a Gaussian hot set",
            SloTarget(p50=1.0, p99=12.0, p999=18.0),
            _run_diurnal,
        ),
        ScenarioSpec(
            "flash-crowd",
            "step burst far above ring capacity on a small hot set",
            SloTarget(p50=6.0, p99=20.0, p999=36.0),
            _run_flash_crowd,
        ),
        ScenarioSpec(
            "multi-tenant",
            "Zipf tenant mix with per-tenant SLOs and fairness",
            SloTarget(p50=2.0, p99=18.0, p999=24.0),
            _run_multi_tenant,
        ),
        ScenarioSpec(
            "locality-shift",
            "drifting interest over block-placed federation data",
            SloTarget(p50=1.0, p99=3.0, p999=4.0),
            _run_locality_shift,
        ),
        ScenarioSpec(
            "gateway-chaos",
            "gateway crash mid-workload, serve handoff on vs off",
            SloTarget(p50=1.0, p99=2.5, p999=4.5),
            _twin("handoff", _gateway_chaos_once),
        ),
        ScenarioSpec(
            "mixed-engine",
            "KV probes, MAL scans and streaming folds on one ring",
            SloTarget(p50=0.5, p99=3.0, p999=5.0),
            _run_mixed_engine,
        ),
        ScenarioSpec(
            "frontdoor",
            "statistics-driven admission vs blind byte valve, 3x overload",
            SloTarget(p50=1.0, p99=6.0, p999=8.0, max_failure_rate=0.6),
            _twin("estimate", partial(_frontdoor_once, "frontdoor")),
        ),
        ScenarioSpec(
            "mixed-engine-overload",
            "all-engines cold burst through the front door, per-class SLOs",
            SloTarget(p50=1.0, p99=6.0, p999=8.0, max_failure_rate=0.6),
            _twin("estimate", partial(_frontdoor_once, "mixed-engine-overload")),
        ),
        ScenarioSpec(
            "overload",
            "lossy cold-data flood with closed-loop admission on vs off",
            SloTarget(p50=2.5, p99=13.0, p999=16.0, max_failure_rate=0.92),
            _twin("controller", partial(_cold_flood_once, "overload")),
        ),
        ScenarioSpec(
            "split-under-load",
            "cold flood forcing a ring split, controller on vs off",
            SloTarget(p50=2.5, p99=14.0, p999=18.0, max_failure_rate=0.88),
            _twin("controller", partial(_cold_flood_once, "split-under-load")),
        ),
    )
}


def scenario_names() -> List[str]:
    return list(SCENARIOS)


def run_scenario(name: str, seed: int = 0, quick: bool = True) -> Dict:
    """Run one named scenario; raises ``KeyError`` on unknown names."""
    if name not in SCENARIOS:
        raise KeyError(
            f"unknown scenario {name!r}; pick from {', '.join(SCENARIOS)}"
        )
    return SCENARIOS[name].run(seed, quick)

