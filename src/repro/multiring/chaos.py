"""Fixed-seed chaos scenarios for the federation (docs/multiring.md).

Two scenarios, both deterministic per seed:

* ``gateway``: a ring's primary gateway crashes mid-workload.  Cross-
  ring fetches through the dead endpoint time out, re-dispatch to the
  freshly elected gateway and complete; with resilience on, the
  federation-level retry also re-runs every query the crash failed.
* ``migration``: a fragment migration is forced, then the source ring's
  gateway crashes while the shipment is on the inter-ring link.  The
  migration aborts, the source keeps serving the fragment, and held
  fetches are flushed back to it.

Invariants are audited per ring at every fault event (the classic
:class:`~repro.faults.invariants.InvariantMonitor`) and once more at
the end, together with a federation-level terminal check: every
submitted query reached a terminal state.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List

from repro.core.config import MB
from repro.experiments import FAULT_ENVELOPE, QUICK, uniform
from repro.faults.invariants import InvariantMonitor, check_terminal
from repro.multiring.config import MultiRingConfig
from repro.multiring.federation import RingFederation

__all__ = ["MultiRingChaosHarness", "MultiRingChaosResult", "run_multiring_chaos"]

SCENARIOS = ("gateway", "migration")


@dataclass
class MultiRingChaosResult:
    """Everything one federated chaos run produced."""

    seed: int
    scenario: str
    resilience: bool
    completed: bool
    summary: Dict
    invariant_checks: int = 0
    violations: List[str] = field(default_factory=list)
    fault_log: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.completed and not self.violations

    def report(self) -> str:
        """Canonical, deterministic text rendering of the run."""
        lines = [
            f"multiring chaos scenario {self.scenario} "
            f"(seed {self.seed}, resilience {self.resilience})",
            f"completed: {self.completed}",
            f"invariant checks: {self.invariant_checks}, "
            f"violations: {len(self.violations)}",
        ]
        for key in sorted(self.summary):
            if key == "rings":
                continue
            lines.append(f"  {key}: {self.summary[key]!r}")
        lines.extend(f"fault: {entry}" for entry in self.fault_log)
        lines.extend(f"VIOLATION: {entry}" for entry in self.violations)
        return "\n".join(lines) + "\n"


class MultiRingChaosHarness:
    """Replay a seeded federated workload under a fixed fault schedule."""

    def __init__(
        self,
        scenario: str = "gateway",
        seed: int = 0,
        n_rings: int = 3,
        nodes_per_ring: int = 3,
        n_bats: int = 36,
        queries_per_second: float = 10.0,
        duration: float = 6.0,
        resilience: bool = False,
    ):
        if scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {scenario!r}; pick from {SCENARIOS}")
        self.scenario = scenario
        self.seed = seed
        self.resilience = resilience
        self.duration = duration
        setup = replace(
            QUICK,
            n_nodes=n_rings * nodes_per_ring,
            n_bats=n_bats,
            queries_per_second=queries_per_second,
            duration=duration,
            min_proc_time=0.02,
            max_proc_time=0.05,
        )
        base = setup.config(
            seed,
            n_nodes=nodes_per_ring,  # replaced per ring by MultiRingConfig
            **FAULT_ENVELOPE,
            resilience=resilience,
            replication_k=2 if resilience else 1,
        )
        self.config = MultiRingConfig(
            base=base,
            n_rings=n_rings,
            nodes_per_ring=nodes_per_ring,
            gateways_per_ring=1,
            placement_interval=0.5,
            splitmerge_interval=0.0,  # keep the topology fixed under faults
        )
        self.fed = RingFederation(self.config)
        self.dataset = setup.dataset(seed)
        for bat_id, size in sorted(self.dataset.sizes.items()):
            self.fed.add_bat(bat_id, size)
        # the migration probe: a fragment no query ever touches, so the
        # forced migration starts deterministically at the first
        # placement tick after the request
        self.probe_bat = n_bats
        self.fed.add_bat(self.probe_bat, 2 * MB, ring=0)
        self.workload = uniform(setup, self.dataset, seed)
        self.specs = {spec.query_id: spec for spec in self.workload.queries()}
        self.monitors = [InvariantMonitor(ring) for ring in self.fed.rings]
        self.fault_log: List[str] = []

    # ------------------------------------------------------------------
    # the fault schedule
    # ------------------------------------------------------------------
    def _arm(self) -> None:
        sim = self.fed.sim
        if self.scenario == "gateway":
            sim.post(1.0, self._crash_gateway, 1)
        else:
            # force the probe fragment to re-home ring 0 -> ring 1; the
            # placement tick at t=1.0 starts the shipment, and the
            # source gateway dies while it is on the link
            sim.post(0.8, self.fed.placement.request_migration,
                         self.probe_bat, 1)
            sim.post(1.01, self._crash_gateway, 0)

    def _crash_gateway(self, ring_id: int) -> None:
        node = self.fed.router.gateway(ring_id)
        ring = self.fed.rings[ring_id]
        if not ring.ring.is_alive(node):
            return
        ring.crash_node(node)
        self.fault_log.append(
            f"t={self.fed.sim.now:.3f} crash ring {ring_id} gateway node {node}"
        )

    # ------------------------------------------------------------------
    def run(self, max_time: float = 300.0) -> MultiRingChaosResult:
        self._arm()
        self.fed.submit_all(self.specs.values())
        completed = self.fed.run_until_done(max_time=max_time)
        # grace: let circulating copies of purged/migrated BATs reach
        # their (former) owner and be retired before the terminal audit
        grace = 4.0 * max(
            ring.config.derived_resend_timeout(self.dataset.mean_size)
            for ring in self.fed.rings
        )
        self.fed.run(until=self.fed.sim.now + grace)
        violations: List[str] = []
        checks = 0
        for ring_id, monitor in enumerate(self.monitors):
            checks += monitor.checks + 1
            violations.extend(
                f"ring {ring_id}: {v}" for v in monitor.violations
            )
            violations.extend(
                f"ring {ring_id} terminal: {v}"
                for v in check_terminal(self.fed.rings[ring_id])
            )
        if not self.fed.all_terminal():
            violations.append(
                f"federation: {self.fed._submitted - self.fed.completed_queries}"
                " queries never reached a terminal state"
            )
        summary = self.fed.summary()
        summary["queries_submitted"] = len(self.specs)
        return MultiRingChaosResult(
            seed=self.seed,
            scenario=self.scenario,
            resilience=self.resilience,
            completed=completed,
            summary=summary,
            invariant_checks=checks,
            violations=violations,
            fault_log=list(self.fault_log),
        )


def run_multiring_chaos(
    scenario: str = "gateway",
    seeds=(0,),
    resilience: bool = False,
    **harness_kwargs,
) -> List[MultiRingChaosResult]:
    """One harness run per seed (used by the CLI and CI)."""
    return [
        MultiRingChaosHarness(
            scenario=scenario, seed=seed, resilience=resilience, **harness_kwargs
        ).run()
        for seed in seeds
    ]
