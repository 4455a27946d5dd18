"""The deterministic chaos harness.

Builds a ring + uniform workload + fault scenario from a single seed,
runs it to completion, checks the ring invariants immediately after
every injected fault, and renders a canonical text report.  Two
harness runs with identical parameters produce byte-identical reports
-- the determinism regression test relies on it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.events.tracer import Tracer
from repro.experiments import FAULT_ENVELOPE, QUICK, build_ring
from repro.faults.injector import FaultInjector
from repro.faults.invariants import InvariantMonitor, check_terminal
from repro.faults.scenario import ChaosScenario

__all__ = ["ChaosHarness", "ChaosResult"]


@dataclass
class ChaosResult:
    """Everything one chaos run produced."""

    seed: int
    scenario_name: str
    completed: bool
    summary: Dict
    fault_log: List[str] = field(default_factory=list)
    skipped_faults: List[str] = field(default_factory=list)
    invariant_checks: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.completed and not self.violations

    def report(self) -> str:
        """Canonical, deterministic text rendering of the run."""
        lines = [
            f"chaos scenario {self.scenario_name} (seed {self.seed})",
            f"completed: {self.completed}",
            f"invariant checks: {self.invariant_checks}, "
            f"violations: {len(self.violations)}",
        ]
        lines.extend(f"  {key}: {self.summary[key]!r}"
                     for key in sorted(self.summary))
        lines.extend(f"fault: {entry}" for entry in self.fault_log)
        lines.extend(f"skipped: {entry}" for entry in self.skipped_faults)
        lines.extend(f"VIOLATION: {entry}" for entry in self.violations)
        return "\n".join(lines) + "\n"


class ChaosHarness:
    """Replay a seeded workload under a seeded fault schedule."""

    def __init__(
        self,
        n_nodes: int = 6,
        seed: int = 0,
        scenario: Optional[ChaosScenario] = None,
        n_bats: int = 60,
        queries_per_second: float = 10.0,
        duration: float = 6.0,
        crashes: int = 1,
        rejoin_fraction: float = 1.0,
        degradations: int = 0,
        rehome_policy: str = "fail_fast",
        resilience: bool = False,
        replication: int = 2,
        trace: Optional[str] = None,
        **config_overrides,
    ):
        self.seed = seed
        self.duration = duration
        self.resilience = resilience
        self.trace_path = trace
        setup = replace(
            QUICK,
            n_nodes=n_nodes,
            n_bats=n_bats,
            queries_per_second=queries_per_second,
            duration=duration,
            min_proc_time=0.02,
            max_proc_time=0.05,
        )
        config = dict(FAULT_ENVELOPE, rehome_policy=rehome_policy)
        if resilience:
            config.update(resilience=True, replication_k=replication)
        config.update(config_overrides)
        run = build_ring(setup, seed, **config)
        self.dc = run.dc
        self.dataset = run.dataset
        self.workload = run.workload
        self.scenario = (
            scenario
            if scenario is not None
            else ChaosScenario.random(
                seed=seed,
                n_nodes=n_nodes,
                duration=duration,
                crashes=crashes,
                rejoin_fraction=rejoin_fraction,
                degradations=degradations,
            )
        )
        # materialised up front so tests can ask which BATs a query needs
        self.specs = {spec.query_id: spec for spec in self.workload.queries()}
        # The invariant checkpoints ride the event bus: the facade
        # publishes NodeCrashed/NodeRejoined/LinkDegraded at the end of
        # each fault action, exactly where the old injector callback ran.
        self.monitor = InvariantMonitor(self.dc)
        self.tracer: Optional[Tracer] = None
        if trace is not None:
            self.tracer = Tracer()
            self.tracer.attach(self.dc.bus)
        self.injector = FaultInjector(self.dc, self.scenario)

    # ------------------------------------------------------------------
    def workload_bats(self, query_id: int) -> List[int]:
        """The distinct BATs ``query_id`` pins (empty if unknown)."""
        spec = self.specs.get(query_id)
        return spec.bat_ids if spec is not None else []

    def run(self, max_time: float = 300.0) -> ChaosResult:
        if self.resilience:
            # Route every query through the retry/failover manager; it
            # dispatches attempts via dc.submit, so run_until_done still
            # balances completions against submissions.
            for spec in self.specs.values():
                self.dc.resilience.submit(spec)
            total = len(self.specs)
        else:
            total = self.dc.submit_all(self.specs.values())
        completed = self.dc.run_until_done(max_time=max_time)
        # grace period: let in-flight orphans reach their next hop and be
        # retired before the terminal audit
        grace = 4.0 * self.dc.config.derived_resend_timeout(self.dataset.mean_size)
        self.dc.run(until=self.dc.now + grace)
        violations = list(self.monitor.violations)
        terminal = check_terminal(self.dc)
        violations.extend(f"terminal: {v}" for v in terminal)
        if self.tracer is not None and self.trace_path is not None:
            self.tracer.detach()
            self.tracer.to_chrome(self.trace_path)
        summary = self.dc.summary()
        summary["queries_submitted"] = total
        return ChaosResult(
            seed=self.seed,
            scenario_name=self.scenario.name,
            completed=completed,
            summary=summary,
            fault_log=list(self.monitor.log),
            skipped_faults=list(self.injector.skipped),
            invariant_checks=self.monitor.checks + 1,
            violations=violations,
        )

def run_chaos(
    seeds=(0,),
    trace_dir=None,
    **harness_kwargs,
) -> List[ChaosResult]:
    """Convenience: one harness run per seed (used by CLI and tests).

    With ``trace_dir`` set, each seed additionally writes a Chrome trace
    to ``<trace_dir>/chaos-seed<N>.trace.json``.
    """
    results = []
    for seed in seeds:
        trace = None
        if trace_dir is not None:
            os.makedirs(trace_dir, exist_ok=True)
            trace = os.path.join(trace_dir, f"chaos-seed{seed}.trace.json")
        harness = ChaosHarness(seed=seed, trace=trace, **harness_kwargs)
        harness.injector.arm()
        results.append(harness.run())
    return results
