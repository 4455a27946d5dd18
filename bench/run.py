"""The repo's one benchmark: seven workloads, host-time and simulated-time
end-to-end metrics, and a per-layer cost ledger measured from outside.

    python3 bench/run.py [--workload NAME ...] [--seed N] [--seconds S]
                         [--trace 0|1] [--repeats K] [--smoke] [--out PATH]

Every pass runs in a fresh interpreter (``PYTHONHASHSEED=0``, one
process, no threads, sequential), timed with ``time.process_time()``
around the run phase only.  Timed passes repeat until their measured
CPU reaches ``--seconds`` (at least three; ``--repeats`` fixes the
count); the host time metrics are the fastest pass, memory the median,
and the report keeps median, quartiles, range and count.  The simulated
metrics, the work counts and the output checks come from the same
passes -- or, for a workload that runs with zero observers, from one
extra pass with the observers attached.  ``--trace 1`` (alias ``--layers``) adds one pass
under cProfile and the unit-cost microbenches, and makes the last line
carry the per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``, named as in BENCHMARK.json
(prefixed ``workload/`` when several workloads ran).  The exit code is
non-zero when any output check failed.  README.md has the method, the
reasons and the gaps.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import workloads  # refuses to start without the checkout's src/repro
from layers import LAYERS

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

MIN_REPEATS = 3
# What calibrate() costs on the box of BASELINE.json in its fast state:
# host times are quoted as CPU seconds on that box at that speed.
CALIBRATION_REFERENCE_S = 0.0275
SMOKE_SCALE = 0.1
PASS_TIMEOUT = 170.0  # seconds of wall time one pass may take
HOST_METRICS = ("setup_s", "host_cpu_s", "peak_rss_mb")
SIM_METRICS = ("sim_latency_mean_s", "sim_latency_tail_s", "sim_goodput_qps")
# p99 needs ten samples beyond it (choosing-metrics, section 1)
P99_MIN_SAMPLES = 1000


def spawn(script: str, *args) -> dict:
    """One pass in a fresh interpreter; its last stdout line is JSON."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(BENCH / script), *map(str, args)],
        capture_output=True, text=True, env=env, timeout=PASS_TIMEOUT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{script} {args} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def calibrate() -> float:
    """CPU seconds of a fixed interpreter-bound loop: heap, dict, floats.

    The shared box this runs on drifts by a third over an hour and the
    drift is uniform -- this loop and a simulation pass slow down
    together -- so the host time metrics are divided by the box's speed
    as this loop reads it (README, "Method").  The loop runs nothing of
    the program under test: a faster simulator cannot make it faster.
    The fastest of six short runs: a short run slips between bursts of
    interference more often than a long one.
    """
    best = float("inf")
    for _ in range(6):
        heap: list = []
        seen: dict = {}
        x = 0.0
        start = time.process_time()
        for i in range(40_000):
            heapq.heappush(heap, ((i * 7919) % 1000 + x, i))
            if i & 1:
                t, j = heapq.heappop(heap)
                x = t * 1e-9
                seen[j & 1023] = t
        best = min(best, time.process_time() - start)
    return best


def spread(values) -> dict:
    """Median, quartiles, range and count of one metric's samples."""
    q1, _, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    )
    return {
        "median": statistics.median(values), "q1": q1, "q3": q3,
        "min": min(values), "max": max(values), "n": len(values),
    }


def measure(name: str, seed: int, scale: float, seconds: float,
            repeats, trace: bool) -> dict:
    """Every pass of one workload, folded into one report entry."""
    def one_pass(mode: str) -> dict:
        return spawn("workloads.py", name, "--seed", seed,
                     "--scale", scale, "--mode", mode)

    timed = []
    calibrations = [calibrate()]
    while len(timed) < (repeats or MIN_REPEATS) or (
        repeats is None
        and sum(p["setup_s"] + p["host_cpu_s"] for p in timed) < seconds
    ):
        timed.append(one_pass("timed"))
        calibrations.append(calibrate())
    # > 1 on a box (or in a minute) slower than the reference
    slowdown = min(calibrations) / CALIBRATION_REFERENCE_S
    passes = list(timed)
    reference = timed[0]
    if workloads.WORKLOADS[name].detached:
        reference = one_pass("verify")
        passes.append(reference)
    traced = None
    if trace:
        traced = one_pass("traced")
        passes.append(traced)

    checks = [c for p in passes for c in p["checks"]]
    digests = {p["sim_digest"] for p in passes if p["mode"] != "verify"}
    checks.append(workloads.check(
        "one-sim-digest-across-repeats", len(digests) == 1, f"{sorted(digests)}"
    ))
    events = {p["counts"]["sim.events_processed"] for p in passes}
    checks.append(workloads.check(
        "events-processed-identical-across-passes", len(events) == 1,
        f"{sorted(events)}",
    ))

    host = {m: spread([p[m] for p in timed]) for m in HOST_METRICS}
    host["host_wall_s"] = spread([p["host_wall_s"] for p in timed])
    sim = reference["sim"]
    counts = reference["counts"]
    entry = {
        "seed": seed, "scale": scale,
        "end_to_end": {
            # interference on a shared box only ever adds CPU time, so the
            # fastest pass (and the fastest calibration) is the steadiest
            # estimate of the cost; memory has no such one-sided noise
            "setup_s": host["setup_s"]["min"] / slowdown,
            "host_cpu_s": host["host_cpu_s"]["min"] / slowdown,
            "peak_rss_mb": host["peak_rss_mb"]["median"],
            **{m: sim[m] for m in SIM_METRICS},
        },
        "host": host,
        "box_slowdown": slowdown,
        "sim": sim,
        "sim_digest": reference["sim_digest"],
        "failed_share": (sim["ops_refused"] + sim["ops_failed"]) / sim["ops_attempted"],
        "checks": checks,
        "correct": all(c["ok"] for c in checks),
        "counts": counts,
        "spans": timed[0]["spans"],
    }
    if traced is not None:
        entry["per_layer"] = ledger(
            timed[0]["phases"], counts, traced, host["host_cpu_s"]["min"]
        )
    return entry


def ledger(phases: dict, counts: dict, traced: dict, untraced_cpu: float) -> dict:
    """The per-workload rows of the per-layer ledger."""
    trace = traced["trace"]
    flights = counts["core.ff_flights"]
    rows = dict(phases)
    rows.update({f"{layer}.self_s": trace["self_s"][layer] for layer in LAYERS})
    rows.update({f"{group}.calls": n for group, n in trace["calls"].items()})
    rows["trace.overhead_ratio"] = traced["host_cpu_s"] / untraced_cpu
    rows["trace.attributed_share"] = trace["attributed_share"]
    rows.update(counts)
    rows["sim.events_per_cpu_s"] = counts["sim.events_processed"] / untraced_cpu
    rows["core.ff_useful_ratio"] = (
        (flights - counts["core.ff_flushes"]) / flights if flights else 0.0
    )
    return rows


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(BENCH), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "platform": platform.platform(), "nproc": os.cpu_count(),
        "commit": commit, "PYTHONHASHSEED": "0",
    }


def show(name: str, entry: dict) -> None:
    print(f"\n== {name} (seed {entry['seed']}, scale {entry['scale']})")
    for metric, value in entry["end_to_end"].items():
        spec = END_TO_END[metric]
        line = f"  {metric:<22} {value:>14.6g} {spec['unit']:<8}"
        if metric in entry["host"]:
            h = entry["host"][metric]
            line += (f" raw: median {h['median']:.4g} q1 {h['q1']:.4g} q3 {h['q3']:.4g} "
                     f"min {h['min']:.4g} max {h['max']:.4g} n {h['n']}")
        print(line)
    sim = entry["sim"]
    flag = ("" if sim["latency_samples"] >= P99_MIN_SAMPLES
            else " (unsupported: < 10 samples beyond it)")
    print(f"  diagnostics: box slowdown {entry['box_slowdown']:.3f}, "
          f"wall {entry['host']['host_wall_s']['median']:.3f} s, "
          f"sim p50 {sim['sim_latency_p50_s']:.6g} s, "
          f"p99 {sim['sim_latency_p99_s']:.6g} s over "
          f"{sim['latency_samples']} samples{flag}, "
          f"makespan {sim['sim_makespan_s']:.6g} s")
    print(f"  ops: attempted {sim['ops_attempted']}, refused "
          f"{sim['ops_refused']}, failed {sim['ops_failed']}, "
          f"failed_share {entry['failed_share']:.6f}")
    print(f"  sim_digest {entry['sim_digest']}")
    for c in entry["checks"]:
        if not c["ok"]:
            print(f"  CHECK FAILED {c['name']}: {c['detail']}")
    for metric, value in entry.get("per_layer", {}).items():
        print(f"    {metric:<40} {value:>16.6g} {PER_LAYER[metric]['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS),
                        help="repeatable; default: all seven")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="measured CPU seconds the timed passes must reach")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--layers", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--repeats", type=int, help="timed passes (and micro loops)")
    parser.add_argument("--smoke", action="store_true",
                        help="1/10 horizon, one repeat, same code paths and checks")
    parser.add_argument("--out", help="write the full report as JSON here")
    args = parser.parse_args(argv)

    names = args.workload or [w["name"] for w in SPEC["workloads"]]
    scale = SMOKE_SCALE if args.smoke else 1.0
    repeats = 1 if args.smoke and args.repeats is None else args.repeats
    report = {
        "environment": environment(),
        "arguments": {"seed": args.seed, "seconds": args.seconds, "scale": scale,
                      "repeats": repeats, "trace": args.trace},
        "workloads": {},
    }
    print(f"environment: {json.dumps(report['environment'])}")
    micro = None
    if args.trace:
        micro = spawn("micro.py", "--min-seconds", 0.02 if args.smoke else 0.1,
                      "--repeats", repeats or MIN_REPEATS)
        report["micro"] = micro
    for name in names:
        entry = measure(name, args.seed, scale, args.seconds, repeats, bool(args.trace))
        if micro is not None:
            entry["per_layer"].update({k: v["value"] for k, v in micro.items()})
        report["workloads"][name] = entry
        show(name, entry)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    entries = report["workloads"]
    section, specs = ("per_layer", PER_LAYER) if args.trace else ("end_to_end", END_TO_END)
    prefix = len(entries) > 1
    metrics = {
        (f"{name}/{metric}" if prefix else metric):
            {"value": entry[section][metric], "unit": specs[metric]["unit"]}
        for name, entry in entries.items() for metric in specs
    }
    correct = all(e["correct"] for e in entries.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(e["sim"]["ops_attempted"] for e in entries.values()),
        "failed": sum(e["sim"]["ops_failed"] for e in entries.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
