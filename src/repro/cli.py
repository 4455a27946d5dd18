"""Command-line interface: reproduce the paper's experiments.

Usage::

    python -m repro list                 # available experiments
    python -m repro fig6 [--full]        # the LOIT sweep (Figures 6-7)
    python -m repro fig8 [--full]        # skewed workloads (Figure 8)
    python -m repro fig9 [--full]        # Gaussian access (Figure 9)
    python -m repro tab4 [--nodes 1 2 4] # TPC-H scaling (Table 4)
    python -m repro sweep [--sizes 5 10] # ring-size sweep (Figures 10-11)
    python -m repro fig1                 # the RDMA host cost model
    python -m repro chaos [--seeds 0 1]  # fault injection (docs/faults.md)
    python -m repro profile [--top 15]   # cProfile + event-stream attribution
    python -m repro multiring [--rings 4]           # federation (docs/multiring.md)
    python -m repro multiring --chaos gateway       # federated chaos scenarios
    python -m repro scenarios --all                 # SLO scenario suite (docs/workloads.md)
    python -m repro frontdoor                       # serving tier demo (docs/frontdoor.md)
    python -m repro stats                           # statistics catalog + accuracy

The paper artefacts (``fig1`` ... ``sweep``) are defined in
:mod:`repro.experiments`; each command runs one, renders it and prints
the texts ``benchmarks/results/*.txt`` hold -- verbatim at the default
``--seed``.  ``--full`` switches to the paper's exact parameters (slow;
see EXPERIMENTS.md).
"""

from __future__ import annotations

import argparse
import statistics
import sys
from dataclasses import replace
from typing import Dict, List, Optional

from repro import experiments
from repro.core import DataCyclotronConfig, MB
from repro.metrics.report import render_table

__all__ = ["main"]


def _scale(args: argparse.Namespace) -> str:
    return "paper" if args.full else "quick"


def _print(rendered: Dict[str, str]) -> None:
    """The texts ``benchmarks/results/<name>.txt`` hold, under their names."""
    for name, text in rendered.items():
        print(f"=== {name} ===\n{text}")


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
def cmd_fig6(args: argparse.Namespace) -> int:
    runs = experiments.fig6(_scale(args), args.seed)
    _print(experiments.render_fig6(runs))
    for loit, run in runs.items():
        print(
            f"LoiT {loit}: {run.metrics.finished_count()}/{run.submitted} "
            f"finished by t={run.dc.now:.0f}s, mean life time "
            f"{statistics.mean(run.metrics.lifetimes()):.2f}s, "
            f"peak ring load {run.metrics.ring_bytes.maximum() / MB:.0f} MB"
        )
    return 0


def cmd_fig8(args: argparse.Namespace) -> int:
    run = experiments.fig8(_scale(args), args.seed)
    _print(experiments.render_fig8(run))
    print(f"{run.metrics.finished_count()}/{run.submitted} queries finished; "
          f"{run.metrics.loit_changes} LOIT adjustments")
    return 0


def cmd_fig9(args: argparse.Namespace) -> int:
    _print(experiments.render_fig9(experiments.fig9(_scale(args), args.seed)))
    return 0


def cmd_tab4(args: argparse.Namespace) -> int:
    print(f"calibrating TPC-H traces ({_scale(args)} scale)...")
    _print(experiments.render_tab4(experiments.tab4(
        _scale(args), args.seed, nodes=args.nodes, size_scale=args.size_scale,
        transfer_mode=args.transfer_mode,
    )))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    _print(experiments.render_fig10_11(
        experiments.fig10_11(_scale(args), args.seed, sizes=args.sizes)
    ))
    return 0


def cmd_fig1(args: argparse.Namespace) -> int:
    _print(experiments.render_fig1(experiments.fig1(args.gbps, args.cpu_ghz)))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.events.tracer import Tracer, read_jsonl, write_chrome

    if args.from_jsonl:
        # convert mode: JSONL capture -> Chrome trace, no simulation
        try:
            records = read_jsonl(args.from_jsonl)
            count = write_chrome(records, args.out)
        except (OSError, ValueError) as exc:
            print(f"repro trace: {exc}", file=sys.stderr)
            return 2
        print(f"converted {count} events -> {args.out}")
        return 0

    try:
        tracer = Tracer(jsonl_path=args.jsonl)
    except OSError as exc:
        print(f"repro trace: cannot open JSONL output: {exc}", file=sys.stderr)
        return 2
    run = experiments.build_ring(_scale(args), args.seed)
    tracer.attach(run.dc.bus)
    run.go()
    tracer.close()
    try:
        count = tracer.to_chrome(args.out)
    except OSError as exc:
        print(f"repro trace: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    print(
        f"{run.submitted} queries, {count} events -> {args.out}"
        + (f" (JSONL: {args.jsonl})" if args.jsonl else "")
    )
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.faults import ChaosHarness, ChaosScenario

    scenario = None
    if args.scenario:
        try:
            with open(args.scenario) as fh:
                scenario = ChaosScenario.from_dict(json.load(fh))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"repro chaos: bad scenario file: {exc}", file=sys.stderr)
            return 2
    if args.trace:
        try:
            os.makedirs(args.trace, exist_ok=True)
        except OSError as exc:
            print(f"repro chaos: cannot create trace dir: {exc}", file=sys.stderr)
            return 2
    failures = 0
    for seed in args.seeds:
        trace_path = (
            os.path.join(args.trace, f"chaos-seed{seed}.trace.json")
            if args.trace
            else None
        )
        try:
            harness = ChaosHarness(
                n_nodes=args.nodes,
                seed=seed,
                scenario=scenario,
                duration=args.duration,
                crashes=args.crashes,
                rejoin_fraction=args.rejoin_fraction,
                degradations=args.degradations,
                rehome_policy=args.rehome,
                resilience=args.resilience,
                replication=args.replication,
                trace=trace_path,
            )
        except ValueError as exc:
            print(f"repro chaos: invalid parameters: {exc}", file=sys.stderr)
            return 2
        harness.injector.arm()
        result = harness.run()
        print(result.report())
        if args.resilience:
            latencies = harness.dc.metrics.repair_latencies
            mean = sum(latencies) / len(latencies) if latencies else 0.0
            peak = max(latencies) if latencies else 0.0
            print(
                f"recovery: {len(latencies)} detector-driven repair(s), "
                f"mean latency {mean:.3f}s, max {peak:.3f}s"
            )
        if trace_path:
            print(f"trace: {trace_path}")
        if not result.ok:
            failures += 1
    return 1 if failures else 0


def cmd_multiring(args: argparse.Namespace) -> int:
    from repro.metrics.federation import render_federation_report
    from repro.multiring import MultiRingConfig, RingFederation
    from repro.multiring.chaos import run_multiring_chaos

    if args.chaos:
        failures = 0
        for result in run_multiring_chaos(
            scenario=args.chaos,
            seeds=args.seeds,
            resilience=args.resilience,
            n_rings=args.rings,
            nodes_per_ring=args.nodes_per_ring,
            duration=args.duration,
        ):
            print(result.report())
            if not result.ok:
                failures += 1
        return 1 if failures else 0

    # the demo run: the section 5.3 Gaussian workload, its total volume
    # held constant, over a federation of quick rings with 10 MB queues
    quick = experiments.QUICK
    try:
        config = MultiRingConfig(
            base=quick.config(
                args.seed, n_nodes=args.nodes_per_ring,
                bat_queue_capacity=10 * MB, resend_timeout=None,
            ),
            n_rings=args.rings, nodes_per_ring=args.nodes_per_ring,
        )
    except ValueError as exc:
        print(f"repro multiring: invalid parameters: {exc}", file=sys.stderr)
        return 2
    fed = RingFederation(config)
    stream = replace(
        quick,
        n_nodes=fed.total_nodes,
        n_bats=1000 if args.full else 120,
        queries_per_second=(800.0 if args.full else 80.0) / fed.total_nodes,
        duration=60.0 if args.full else args.duration,
        max_bats=5,
    )
    dataset = stream.dataset(args.seed)
    for bat_id, size in dataset.sizes.items():
        fed.add_bat(bat_id, size)
    total = experiments.gaussian(stream, dataset, args.seed).submit_to(fed)
    done = fed.run_until_done(max_time=2000.0 if args.full else 600.0)
    print(render_federation_report(fed))
    print(f"{fed.completed_queries}/{total} queries terminal by t={fed.sim.now:.0f}s")
    return 0 if done else 1


def _profile_per_ring(args: argparse.Namespace) -> int:
    """Per-ring attribution over the partitioned kernel (docs/parallel.md).

    Runs a 4-ring :class:`PartitionedFederation`: the kernel is one
    process, so every published event can be charged the wall time
    since the previous event *anywhere*, and the table shows which ring
    partitions the kernel actually spends its time simulating
    (stragglers stand out) next to each ring's own events/sec.
    """
    import cProfile
    import pstats
    import random as _random
    import time as _time

    from repro.core.query import QuerySpec
    from repro.multiring import MultiRingConfig, PartitionedFederation

    n_rings = 4
    nodes = 8 if args.full else 4
    bats_per_ring = 8 if args.full else 4
    horizon = 8.0 if args.full else 3.0
    rate_per_ring = 30.0 if args.full else 20.0

    cfg = MultiRingConfig(
        base=DataCyclotronConfig(n_nodes=nodes, seed=args.seed, fast_forward=True),
        n_rings=n_rings,
        nodes_per_ring=nodes,
        splitmerge_interval=0.0,
        inter_ring_delay=0.002,
    )
    fed = PartitionedFederation(cfg)
    n_bats = bats_per_ring * n_rings
    for bat_id in range(n_bats):
        fed.add_bat(bat_id, MB)

    counts = [0] * n_rings
    walls = [0.0] * n_rings
    last = [0.0]

    def observer(ring_id: int):
        def observe(_event) -> None:
            now = _time.perf_counter()
            counts[ring_id] += 1
            walls[ring_id] += now - last[0]
            last[0] = now
        return observe

    for part in fed.partitions:
        part.bus.subscribe_all(observer(part.ring_id))

    rng = _random.Random(args.seed)
    qid = 0
    specs = []
    for ring in range(n_rings):
        ring_bats = [b for b in range(n_bats) if b % n_rings == ring]
        other_bats = [b for b in range(n_bats) if b % n_rings != ring]
        t = 0.0
        while True:
            t += rng.expovariate(rate_per_ring)
            if t >= horizon:
                break
            qid += 1
            bats = [rng.choice(ring_bats)]
            if qid % 8 == 0:
                bats.append(rng.choice(other_bats))
            node = fed.global_node(ring, rng.randrange(nodes))
            specs.append(QuerySpec.simple(qid, node, t, bats, [0.002] * len(bats)))
    specs.sort(key=lambda s: (s.arrival, s.query_id))
    total = fed.submit_all(specs)

    profiler = cProfile.Profile()
    last[0] = _time.perf_counter()
    start = last[0]
    profiler.enable()
    done = fed.run_until_done(max_time=600.0)
    profiler.disable()
    wall = _time.perf_counter() - start

    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)

    summary = fed.summary()
    attributed = sum(walls)
    rows = []
    for ring_summary in summary["rings"]:
        ring_id = ring_summary["ring"]
        ring_wall = walls[ring_id]
        events = ring_summary["events_processed"]
        rows.append((
            ring_id,
            ring_summary["completed"],
            ring_summary["fetches_served"],
            events,
            round(events / ring_wall) if ring_wall else 0,
            round(ring_wall * 1e3, 1),
            round(100.0 * ring_wall / attributed, 1) if attributed else 0.0,
        ))
    print(render_table(
        ["ring", "queries", "serves", "events", "events/sec", "wall(ms)",
         "share%"],
        rows,
        title="Per-ring attribution: wall time charged to the publishing ring",
    ))
    print(
        f"{total} queries ({summary['completed']} terminal, done={done}), "
        f"{summary['events_processed']} events in {wall:.2f}s wall "
        f"({summary['events_processed'] / wall:,.0f} aggregate events/sec "
        f"under instrumentation); {summary['kernel_rounds']} kernel rounds, "
        f"{summary['kernel_messages']} cross-ring messages, "
        f"lookahead {fed.kernel.lookahead}s"
    )
    return 0 if done else 1


def cmd_profile(args: argparse.Namespace) -> int:
    """Run the section 5.1 workload under cProfile + bus attribution.

    Two views of the same run: the cProfile table says where the *host*
    CPU goes (engine dispatch, link maths, catalog probes), and the bus
    attribution table says which *event streams* dominate -- each
    published event is charged the wall time since the previous one, so
    high-frequency per-hop streams surface even when every single
    handler is cheap.  The wildcard observer pins the classic rotation
    path (fast-forwarding disables lazy coalescing under full
    observation), which is exactly what a per-hop profile needs.
    """
    if args.per_ring:
        return _profile_per_ring(args)

    import cProfile
    import pstats
    import time as _time

    run = experiments.build_ring(_scale(args), args.seed)
    dc = run.dc

    counts: dict = {}
    walls: dict = {}
    last = [0.0]

    def observe(event) -> None:
        now = _time.perf_counter()
        name = type(event).__name__
        counts[name] = counts.get(name, 0) + 1
        walls[name] = walls.get(name, 0.0) + (now - last[0])
        last[0] = now

    dc.bus.subscribe_all(observe)
    total = run.workload.submit_to(dc)

    profiler = cProfile.Profile()
    last[0] = _time.perf_counter()
    start = last[0]
    profiler.enable()
    dc.run_until_done(max_time=run.setup.max_time)
    profiler.disable()
    wall = _time.perf_counter() - start

    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)

    attributed = sum(walls.values())
    rows = [
        (
            name,
            counts[name],
            round(walls[name] * 1e3, 1),
            round(100.0 * walls[name] / attributed, 1) if attributed else 0.0,
        )
        for name in sorted(counts, key=lambda k: walls[k], reverse=True)[:args.top]
    ]
    print(render_table(
        ["event type", "count", "wall(ms)", "share%"],
        rows,
        title="Bus attribution: wall time charged to the publishing stream",
    ))
    print(
        f"{total} queries, {dc.sim.processed} events in {wall:.2f}s wall "
        f"({dc.sim.processed / wall:,.0f} events/sec under instrumentation); "
        f"{sum(counts.values())} bus events "
        f"({attributed / wall * 100:.0f}% of wall attributed)"
    )
    return 0


def cmd_scenarios(args: argparse.Namespace) -> int:
    import json

    from repro.workloads.suite import SCENARIOS, run_scenario, scenario_names

    if args.list:
        for name, spec in SCENARIOS.items():
            print(f"  {name:<15} {spec.description}")
        return 0
    names = args.scenarios if args.scenarios and not args.all else scenario_names()
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        print(
            f"repro scenarios: unknown scenario(s) {', '.join(unknown)}; "
            f"pick from {', '.join(scenario_names())}",
            file=sys.stderr,
        )
        return 2
    quick = not args.full
    payload = {"quick": quick, "seeds": args.seeds, "scenarios": {n: [] for n in names}}
    rows = []
    for name in names:
        for seed in args.seeds:
            try:
                result = run_scenario(name, seed, quick=quick)
                if args.check_determinism and run_scenario(name, seed, quick=quick) != result:
                    print(
                        f"repro scenarios: {name} seed {seed} is nondeterministic",
                        file=sys.stderr,
                    )
                    return 1
            except ValueError as exc:  # validate_verdict schema failure
                print(f"repro scenarios: {name} seed {seed}: {exc}", file=sys.stderr)
                return 1
            payload["scenarios"][name].append(result)
            v = result["verdict"]
            rows.append((
                name, seed,
                v["latency"]["p50"], v["latency"]["p99"], v["latency"]["p999"],
                v["failed"], "ok" if v["ok"] else "MISS",
            ))
            extras = result["extras"]
            if "p999_handoff_off" in extras:
                print(
                    f"  {name} seed {seed}: p999 {extras['p999_handoff_on']}s with "
                    f"serve handoff vs {extras['p999_handoff_off']}s without "
                    f"({extras['serves_handed_off']} serve(s) handed off)"
                )
            if "p999_estimate_off" in extras:
                print(
                    f"  {name} seed {seed}: p999 {extras['p999_estimate_on']}s "
                    f"with estimate-driven admission vs "
                    f"{extras['p999_estimate_off']}s blind"
                    + (
                        f"; protected goodput {extras['goodput_on']}/s vs "
                        f"{extras['goodput_off']}/s"
                        if "goodput_on" in extras else ""
                    )
                )
            if "p999_controller_off" in extras:
                line = (
                    f"  {name} seed {seed}: p999 {extras['p999_controller_on']}s "
                    f"with overload controller vs "
                    f"{extras['p999_controller_off']}s without; protected "
                    f"goodput {extras['goodput_on']}/s vs "
                    f"{extras['goodput_off']}/s"
                )
                if "ring_splits_on" in extras:
                    line += (
                        f"; splits {extras['ring_splits_on']} vs "
                        f"{extras['ring_splits_off']}"
                    )
                print(line)
            for engine, section in v.get("engine_classes", {}).items():
                gates = ", ".join(
                    f"{gate}={'ok' if passed else 'MISS'}"
                    for gate, passed in section["passed"].items()
                )
                print(
                    f"  {name} seed {seed} [{engine}]: p99 {section['p99']}s, "
                    f"{section['throughput']}/s over {section['queries']} "
                    f"queries ({gates})"
                )
    print(render_table(
        ["scenario", "seed", "p50(s)", "p99(s)", "p999(s)", "failed", "SLO"],
        rows,
        title=f"scenario suite ({'quick' if quick else 'full'} scale)",
    ))
    if args.out:
        try:
            with open(args.out, "w") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            print(f"repro scenarios: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
        print(f"written: {args.out}")
    return 0


def cmd_frontdoor(args: argparse.Namespace) -> int:
    """Run the front-door serving-tier demo (docs/frontdoor.md).

    One seed of the ``frontdoor`` scenario: the statistics-driven
    admission valve against its blind byte-valve twin, with the
    per-tier door ledger and the estimator accuracy for both runs.
    """
    from repro.workloads.suite import run_scenario

    result = run_scenario("frontdoor", args.seed, quick=not args.full)
    verdict, extras = result["verdict"], result["extras"]
    print(
        f"offered {extras['offered']} queries at "
        f"{extras['capacity_ratio_burst']}x ring capacity in the burst "
        f"window ({extras['capacity_ratio_base']}x outside it)"
    )
    rows = []
    for mode in ("on", "off"):
        summary = extras[f"estimate_{mode}"]
        door = summary["door"]
        for tier, tally in sorted(door["by_tier"].items(), reverse=True):
            rows.append((
                "estimate" if mode == "on" else "blind", f"tier{tier}",
                tally["offered"], tally["admitted"], tally["rejected"],
                tally["shed_downstream"], tally["finished"], tally["good"],
            ))
    print(render_table(
        ["admission", "tier", "offered", "admitted", "rejected",
         "shed-downstream", "finished", "good"],
        rows,
        title="front door: statistics-driven admission vs blind byte valve",
    ))
    print(
        f"admitted p999: {extras['p999_estimate_on']}s estimate-driven vs "
        f"{extras['p999_estimate_off']}s blind; protected-tier goodput "
        f"{extras['goodput_on']}/s vs {extras['goodput_off']}/s"
    )
    print(
        f"estimates recorded: {extras['estimate_on']['estimates_recorded']} "
        f"({extras['estimate_on']['exact_bytes_fraction']:.3f} byte-exact)"
    )
    print(f"SLO: {'ok' if verdict['ok'] else 'MISS'}")
    return 0 if verdict["ok"] else 1


def cmd_stats(args: argparse.Namespace) -> int:
    """Print the statistics catalog and the estimator accuracy report.

    Loads the front-door workload table, dumps the database's per-column
    catalog its :class:`~repro.dbms.statistics.QueryEstimator` prices
    against,
    then replays the workload through a :class:`~repro.frontdoor.FrontDoor`
    and reports predicted-vs-actual footprint accuracy per query class.
    """
    from repro.workloads.suite import (
        _frontdoor_door,
        _frontdoor_ring,
        _frontdoor_workload,
    )

    # the quick frontdoor scenario's table, ring and estimate-valve door
    wl = _frontdoor_workload(args.seed, quick=True)
    rdb = _frontdoor_ring(args.seed, quick=True)
    wl.load_into(rdb)
    door = _frontdoor_door(rdb, quick=True, estimate=True)

    rows = []
    for table in rdb.estimator.stats.tables():
        for col in table.columns.values():
            hist = col.histogram
            rows.append((
                f"{table.schema}.{table.name}", col.column, col.n_rows,
                col.n_partitions, col.total_bytes, col.n_distinct,
                col.vmin if col.numeric else "-",
                col.vmax if col.numeric else "-",
                len(hist.edges) - 1 if hist is not None else 0,
            ))
    print(render_table(
        ["table", "column", "rows", "parts", "bytes", "distinct",
         "min", "max", "buckets"],
        rows,
        title="statistics catalog (equi-depth histograms + distinct sketches)",
    ))

    wl.offer_to(door)
    rdb.run_until_done(max_time=600.0)
    acc = door.accuracy_report()
    rows = [
        (
            cls,
            rep["queries"],
            f"{rep['exact_bytes_fraction']:.3f}",
            f"{rep['mean_bytes_ratio']:.3f}",
            f"{rep['mean_abs_rel_error']:.3f}",
            rep["predicted_bytes"],
            rep["actual_bytes"],
            f"{rep['mean_service_time']:.4f}",
        )
        for cls, rep in sorted(acc.items())
    ]
    print(render_table(
        ["query class", "queries", "exact", "bytes ratio", "abs rel err",
         "predicted B", "actual B", "mean svc(s)"],
        rows,
        title="predicted-vs-actual accuracy (the estimator feedback loop)",
    ))
    summary = door.summary()
    print(
        f"admitted {summary['admitted']}/{summary['offered']} "
        f"(rejected by cause: {summary['rejected_by_cause']})"
    )
    return 0


def cmd_shell(args: argparse.Namespace) -> int:
    from repro.shell import run_shell

    return run_shell(sys.stdin, sys.stdout, n_nodes=args.nodes, seed=args.seed)


def cmd_list(args: argparse.Namespace) -> int:
    for name, (_fn, help_text) in sorted(_COMMANDS.items()):
        print(f"  {name:<6} {help_text}")
    return 0


_COMMANDS = {
    "fig1": (cmd_fig1, "RDMA host CPU-cost breakdown (Figure 1)"),
    "fig6": (cmd_fig6, "LOIT sweep: throughput & life time (Figures 6-7)"),
    "fig8": (cmd_fig8, "skewed workloads SW1..SW4 (Figure 8)"),
    "fig9": (cmd_fig9, "Gaussian access pattern (Figure 9)"),
    "tab4": (cmd_tab4, "TPC-H trace replay scaling (Table 4)"),
    "sweep": (cmd_sweep, "ring-size sweep (Figures 10-11)"),
    "chaos": (cmd_chaos, "fault injection: crashes, rejoins, link faults"),
    "multiring": (cmd_multiring, "multi-ring federation (docs/multiring.md)"),
    "trace": (cmd_trace, "capture an event trace (JSONL / Chrome trace_event)"),
    "profile": (cmd_profile, "cProfile + per-event-stream attribution "
                             "(docs/performance.md)"),
    "scenarios": (cmd_scenarios, "production-shaped SLO scenario suite "
                                 "(docs/workloads.md)"),
    "frontdoor": (cmd_frontdoor, "statistics-driven admission vs blind "
                                 "byte valve (docs/frontdoor.md)"),
    "stats": (cmd_stats, "statistics catalog + estimator accuracy report"),
    "shell": (cmd_shell, "interactive SQL over a simulated ring"),
    "list": (cmd_list, "list available experiments"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the Data Cyclotron experiments (EDBT 2010).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--full", action="store_true",
                       help="paper-scale parameters (slow)")
        p.add_argument("--seed", type=int, default=experiments.SEEDS.get(name, 7))
        if name == "tab4":
            p.add_argument("--nodes", type=int, nargs="+",
                           default=list(experiments.TAB4["quick"].nodes))
            p.add_argument("--size-scale", type=float,
                           default=experiments.TAB4["quick"].size_scale,
                           dest="size_scale")
            p.add_argument("--transfer-mode", default="rdma",
                           choices=("rdma", "offload", "legacy"),
                           dest="transfer_mode")
        if name == "sweep":
            p.add_argument("--sizes", type=int, nargs="+",
                           default=list(experiments.SWEEP_SIZES["quick"]))
        if name == "shell":
            p.add_argument("--nodes", type=int, default=4)
        if name == "chaos":
            p.add_argument("--nodes", type=int, default=6)
            p.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
            p.add_argument("--duration", type=float, default=6.0)
            p.add_argument("--crashes", type=int, default=1)
            p.add_argument("--rejoin-fraction", type=float, default=1.0,
                           dest="rejoin_fraction")
            p.add_argument("--degradations", type=int, default=0)
            p.add_argument("--rehome", default="fail_fast",
                           choices=("fail_fast", "successor"))
            p.add_argument("--resilience", action="store_true",
                           help="heartbeat detector + query retry + "
                                "K-replica re-homing (docs/resilience.md)")
            p.add_argument("--replication", type=int, default=2,
                           help="replica count K with --resilience")
            p.add_argument("--scenario", default=None,
                           help="JSON scenario file (overrides --crashes etc.)")
            p.add_argument("--trace", default=None, metavar="DIR",
                           help="write chaos-seed<N>.trace.json per seed")
        if name == "multiring":
            p.add_argument("--rings", type=int, default=4)
            p.add_argument("--nodes-per-ring", type=int, default=4,
                           dest="nodes_per_ring")
            p.add_argument("--duration", type=float, default=10.0)
            p.add_argument("--chaos", default=None,
                           choices=("gateway", "migration"),
                           help="run a federated chaos scenario instead "
                                "of the Gaussian demo")
            p.add_argument("--seeds", type=int, nargs="+", default=[0],
                           help="chaos seeds (with --chaos)")
            p.add_argument("--resilience", action="store_true",
                           help="per-ring detector + federated retry "
                                "(with --chaos)")
        if name == "scenarios":
            p.add_argument("scenarios", nargs="*", metavar="SCENARIO",
                           help="scenario names (default: all)")
            p.add_argument("--all", action="store_true",
                           help="run every scenario")
            p.add_argument("--list", action="store_true",
                           help="list scenarios and exit")
            p.add_argument("--seeds", type=int, nargs="+", default=[0])
            p.add_argument("--check-determinism", action="store_true",
                           dest="check_determinism",
                           help="run each scenario twice, fail on drift")
            p.add_argument("--out", default="",
                           help="also write the JSON report to this path")
        if name == "trace":
            p.add_argument("--out", default="repro.trace.json",
                           help="Chrome trace_event output file")
            p.add_argument("--jsonl", default=None,
                           help="also stream raw records to this JSONL file")
            p.add_argument("--from-jsonl", default=None, dest="from_jsonl",
                           metavar="FILE",
                           help="convert an existing JSONL capture instead "
                                "of running a simulation")
        if name == "profile":
            p.add_argument("--top", type=int, default=15,
                           help="rows per table")
            p.add_argument("--sort", default="cumulative",
                           choices=("cumulative", "tottime", "ncalls"),
                           help="cProfile sort key")
            p.add_argument("--per-ring", action="store_true", dest="per_ring",
                           help="profile the partitioned kernel instead: "
                                "wall seconds and events/sec per ring "
                                "(docs/parallel.md)")
        if name == "fig1":
            p.add_argument("--gbps", type=float, default=10.0)
            p.add_argument("--cpu-ghz", type=float, default=2.33 * 4,
                           dest="cpu_ghz")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
