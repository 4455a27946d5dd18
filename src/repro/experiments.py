"""The paper's experiments, each defined once (EXPERIMENTS.md).

Section 5 fixes one setup and varies one thing per experiment.  This
module is that setup and those experiments:

* :class:`Setup` -- the section 5 "Setup" as one frozen record with two
  instances, :data:`QUICK` (the documented scale-down every checked-in
  number under ``benchmarks/results/`` comes from) and :data:`PAPER`
  (the paper's exact parameters); an experiment that deviates says so
  with :func:`dataclasses.replace`.  :func:`build_ring` turns a record,
  a seed and config overrides into a populated ring plus its workload.
* one function per artefact -- :func:`fig1`, :func:`fig6` (Figures 6
  and 7 read the same sweep), :func:`fig8`, :func:`fig9`, :func:`tab4`,
  :func:`fig10_11` -- taking ``(scale, seed)`` and returning data; none
  prints or asserts.
* one renderer per artefact returning ``{result name: text}``, the
  exact texts of ``benchmarks/results/<result name>.txt``.

``python -m repro <artefact>`` runs, renders and prints;
``benchmarks/test_*.py`` runs, renders, writes and asserts the paper's
shape claims.  ``scale`` is ``"quick"`` or ``"paper"`` (``--full`` on
the command line, ``REPRO_FULL=1`` for the benchmarks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core import GBIT, MB, DataCyclotron, DataCyclotronConfig
from repro.metrics.collector import MetricsCollector
from repro.metrics.report import render_distribution, render_series, render_table
from repro.net.hostmodel import HostCostModel, TransferMode
from repro.workloads.base import UniformDataset, Workload, populate_ring
from repro.workloads.gaussian import GaussianWorkload
from repro.workloads.skewed import SkewedWorkload, paper_phases
from repro.workloads.uniform import UniformWorkload
from repro.xtn.pulsating import RingSizeSweep, SweepOutcome

__all__ = [
    "FAST_DISK",
    "FAULT_ENVELOPE",
    "PAPER",
    "QUICK",
    "SEEDS",
    "SWEEP_SIZES",
    "TAB4",
    "HostLoad",
    "Run",
    "Setup",
    "Tab4Setup",
    "baselines",
    "build_ring",
    "fig1",
    "fig6",
    "fig8",
    "fig9",
    "fig10_11",
    "gaussian",
    "render_fig1",
    "render_fig6",
    "render_fig8",
    "render_fig9",
    "render_fig10_11",
    "render_tab4",
    "ring_size_sweep",
    "setup",
    "tab4",
    "tpch_experiment",
    "uniform",
]


# ----------------------------------------------------------------------
# the section 5 setup
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Setup:
    """Section 5 "Setup": the ring, the data and the query stream."""

    n_nodes: int
    bandwidth: float                  # bytes/second per link
    bat_queue_capacity: int           # per-node network buffer
    resend_timeout: Optional[float]   # None: derived from the ring size
    n_bats: int
    min_size: int
    max_size: int
    queries_per_second: float         # per node
    duration: float                   # seconds of arrivals
    min_bats: int                     # BATs per query
    max_bats: int
    min_proc_time: float              # seconds per accessed BAT
    max_proc_time: float
    max_time: float                   # simulated horizon of a run
    loit_sweep: Tuple[float, ...]     # section 5.1's static LOIT levels

    def config(self, seed: int, **overrides) -> DataCyclotronConfig:
        params = {
            "n_nodes": self.n_nodes,
            "bandwidth": self.bandwidth,
            "bat_queue_capacity": self.bat_queue_capacity,
            "resend_timeout": self.resend_timeout,
            "seed": seed,
        }
        params.update(overrides)
        return DataCyclotronConfig(**params)

    def dataset(self, seed: int) -> UniformDataset:
        return UniformDataset(
            n_bats=self.n_bats, min_size=self.min_size, max_size=self.max_size,
            seed=seed,
        )

    def query_shape(self) -> Dict:
        """Keyword arguments every section 5 workload class takes."""
        return {
            "n_nodes": self.n_nodes,
            "min_bats": self.min_bats,
            "max_bats": self.max_bats,
            "min_proc_time": self.min_proc_time,
            "max_proc_time": self.max_proc_time,
        }


# 10 nodes, 10 Gb/s links, 200 MB queues, 1000 BATs of 1-10 MB,
# 80 q/s/node for 60 s (48 000 queries), eleven LOIT levels.
PAPER = Setup(
    n_nodes=10, bandwidth=10 * GBIT, bat_queue_capacity=200 * MB,
    resend_timeout=None,
    n_bats=1000, min_size=1 * MB, max_size=10 * MB,
    queries_per_second=80.0, duration=60.0, min_bats=1, max_bats=5,
    min_proc_time=0.100, max_proc_time=0.200,
    max_time=2000.0,
    loit_sweep=tuple(round(0.1 * i, 1) for i in range(1, 12)),
)

# The scale-down keeps the paper's shape ratios, not its sizes: data
# volume : ring capacity ~4:1, full-ring rotation (~1.5 s) against
# 50-100 ms per-BAT processing -- which is why bandwidth shrinks with
# the data -- and the per-node query pressure (docs/INTERNALS.md 4).
QUICK = Setup(
    n_nodes=4, bandwidth=40 * MB, bat_queue_capacity=15 * MB,
    resend_timeout=5.0,
    n_bats=150, min_size=1 * MB, max_size=2 * MB,
    queries_per_second=20.0, duration=10.0, min_bats=1, max_bats=3,
    min_proc_time=0.050, max_proc_time=0.100,
    max_time=600.0,
    loit_sweep=(0.1, 0.5, 1.1),
)

_SETUPS = {"quick": QUICK, "paper": PAPER}

# The seed each artefact's checked-in results were generated with, keyed
# by its ``python -m repro`` command.
SEEDS = {"fig6": 7, "fig8": 11, "fig9": 13, "tab4": 1, "sweep": 3}

Scale = Union[str, Setup]


def setup(scale: Scale) -> Setup:
    """The record behind a scale name; a ``replace``d record passes through."""
    return scale if isinstance(scale, Setup) else _SETUPS[scale]


# Config overrides for the scenario suite and the chaos harnesses, which
# grade the ring rather than the loader: a disk fast enough to vanish...
FAST_DISK = {"disk_latency": 1e-4, "load_all_interval": 0.02}
# ...and, where faults are injected, a short resend ladder that escalates
# (backed-off resends, then DATA_UNAVAILABLE) so every run terminates.
FAULT_ENVELOPE = {
    **FAST_DISK,
    "resend_timeout": 0.5,
    "resend_backoff_base": 2.0,
    "max_resends": 6,
}


def uniform(s: Setup, dataset: UniformDataset, seed: int) -> UniformWorkload:
    """The section 5.1 stream: uniformly random remote BATs."""
    return UniformWorkload(
        dataset, queries_per_second=s.queries_per_second, duration=s.duration,
        seed=seed, **s.query_shape(),
    )


def gaussian(s: Setup, dataset: UniformDataset, seed: int) -> GaussianWorkload:
    """The section 5.3 stream: normal around the middle BAT id, sd n/20."""
    return GaussianWorkload(
        dataset, queries_per_second=s.queries_per_second, duration=s.duration,
        mean=s.n_bats / 2, std=s.n_bats / 20, seed=seed, **s.query_shape(),
    )


@dataclass
class Run:
    """A populated ring and the workload that drives it."""

    setup: Setup
    dc: DataCyclotron
    dataset: UniformDataset
    workload: Workload
    submitted: int = 0
    finished: bool = False  # every query terminal within setup.max_time

    @property
    def metrics(self) -> MetricsCollector:
        return self.dc.metrics

    def go(self) -> "Run":
        """Submit the workload and run the ring until it drains."""
        self.submitted = self.workload.submit_to(self.dc)
        self.finished = self.dc.run_until_done(max_time=self.setup.max_time)
        return self


def build_ring(
    scale: Scale,
    seed: int,
    workload: Callable[[Setup, UniformDataset, int], Workload] = uniform,
    **config_overrides,
) -> Run:
    """The ring of ``scale``'s setup with its dataset registered, and the
    workload built over that dataset (not yet submitted)."""
    s = setup(scale)
    dataset = s.dataset(seed)
    stream = workload(s, dataset, seed)
    dc = DataCyclotron(s.config(seed, **config_overrides))
    populate_ring(dc, dataset, tags=stream.bat_tags())
    return Run(s, dc, dataset, stream)


# ----------------------------------------------------------------------
# Figure 1 -- CPU-load breakdown of legacy / NIC-offload / RDMA transfers
# ----------------------------------------------------------------------
@dataclass
class HostLoad:
    model: HostCostModel
    gbps: float
    # (mode, copy%, ctx%, drv%, stack%, total%, achievable Gb/s, bus
    # crossings) for legacy, offload, rdma in that order
    rows: List[tuple]


def fig1(gbps: float = 10.0, cpu_ghz: float = 2.33 * 4) -> HostLoad:
    """Analytic, so neither scale nor seed; the default host is the
    paper's quad-core."""
    model = HostCostModel(cpu_ghz=cpu_ghz)
    rows = []
    for mode in (TransferMode.LEGACY, TransferMode.OFFLOAD, TransferMode.RDMA):
        breakdown = model.breakdown(mode, gbps)
        rows.append((
            mode.value,
            round(100 * breakdown.data_copying, 1),
            round(100 * breakdown.context_switches, 1),
            round(100 * breakdown.driver, 1),
            round(100 * breakdown.network_stack, 1),
            round(100 * breakdown.total, 1),
            round(model.max_throughput_gbps(mode, gbps), 2),
            model.bus_crossings(mode),
        ))
    return HostLoad(model, gbps, rows)


def render_fig1(load: HostLoad) -> Dict[str, str]:
    return {
        "fig1_hostmodel": render_table(
            ["mode", "copy%", "ctx%", "drv%", "stack%", "total%",
             "achievable Gb/s", "bus crossings"],
            load.rows,
            title=f"Figure 1: CPU load at {load.gbps:g} Gb/s",
        )
    }


# ----------------------------------------------------------------------
# Figures 6 and 7 -- the section 5.1 LOIT sweep
# ----------------------------------------------------------------------
def fig6(scale: Scale = "quick", seed: int = SEEDS["fig6"]) -> Dict[float, Run]:
    """The identical uniform workload once per static LOIT level."""
    return {
        loit: build_ring(scale, seed, loit_static=loit).go()
        for loit in setup(scale).loit_sweep
    }


def render_fig6(runs: Dict[float, Run]) -> Dict[str, str]:
    levels = sorted(runs)
    duration = runs[levels[0]].setup.duration

    # 6(a): registered and finished queries over time, to mid-drain
    end = duration * 4
    times, counts = runs[levels[0]].metrics.registered_series(end=end, step=1.0)
    throughput = [render_series("registered", times, [float(c) for c in counts])]
    for loit in levels:
        times, counts = runs[loit].metrics.throughput_series(end=end, step=1.0)
        throughput.append(
            render_series(f"LoiT {loit}", times, [float(c) for c in counts])
        )

    # 6(b): life time at the lowest, middle and highest level
    rows = []
    for loit in (levels[0], levels[len(levels) // 2], levels[-1]):
        hist = runs[loit].metrics.lifetime_histogram(bin_width=duration / 2)
        rows.append((
            f"LoiT {loit}",
            round(hist.mean, 2),
            round(hist.quantile(0.5), 1),
            round(hist.quantile(0.95), 1),
            round(hist.max, 1),
        ))

    # 7(a)(b): ring load in bytes and in BATs through the loaded phase
    in_bytes, in_bats = [], []
    for loit in levels:
        metrics = runs[loit].metrics
        times, load_bytes = metrics.ring_bytes.grid(duration * 3, 1.0)
        _, load_bats = metrics.ring_bats.grid(duration * 3, 1.0)
        in_bytes.append(render_series(
            f"LoiT {loit} (MB)", times, [b / 2**20 for b in load_bytes]
        ))
        in_bats.append(render_series(f"LoiT {loit} (#BATs)", times, load_bats))

    return {
        "fig6a_throughput": "\n".join(throughput),
        "fig6b_lifetime": render_table(
            ["level", "mean", "p50", "p95", "max"], rows,
            title="query life time (seconds)",
        ),
        "fig7a_ring_load_bytes": "\n".join(in_bytes),
        "fig7b_ring_load_bats": "\n".join(in_bats),
    }


# ----------------------------------------------------------------------
# Figure 8 -- the skewed workloads SW1..SW4 under the adaptive LOIT
# ----------------------------------------------------------------------
def fig8(
    scale: str = "quick", seed: int = SEEDS["fig8"], **config_overrides
) -> Run:
    """Table 3's four overlapping phases; ``run.workload.phases`` has them."""
    if scale == "quick":
        # Table 3 compressed 5x in time and to 15 % of its rates, over
        # 200 BATs; the watermark controller ticks faster to keep pace
        record = replace(QUICK, n_bats=200)
        phases = paper_phases(time_scale=0.2, rate_scale=0.15)
        config_overrides = {"loit_adapt_interval": 0.1, **config_overrides}
    else:
        record, phases = PAPER, paper_phases()

    def skewed(s: Setup, dataset: UniformDataset, seed: int) -> SkewedWorkload:
        return SkewedWorkload(dataset, phases, seed=seed, **s.query_shape())

    return build_ring(record, seed, skewed, **config_overrides).go()


def render_fig8(run: Run) -> Dict[str, str]:
    metrics, phases = run.metrics, run.workload.phases
    end = phases[-1].end * 1.3
    step = end / 60

    times, total = metrics.ring_bytes.grid(end, step=step)
    space = [render_series("total (MB)", times, [b / 2**20 for b in total])]
    for tag in sorted(metrics.ring_bytes_by_tag):
        times, series = metrics.ring_bytes_by_tag[tag].grid(end, step=step)
        space.append(
            render_series(f"{tag} (MB)", times, [b / 2**20 for b in series])
        )

    finished = []
    for phase in phases:
        times, counts = metrics.throughput_series(end, step=step, tag=phase.name)
        finished.append(
            render_series(phase.name, times, [float(c) for c in counts])
        )

    return {
        "fig8a_ring_space_per_dh": "\n".join(space),
        "fig8b_queries_per_workload": "\n".join(finished),
    }


# ----------------------------------------------------------------------
# Figure 9 -- Gaussian access: touches, requests and loads per BAT
# ----------------------------------------------------------------------
def fig9(scale: str = "quick", seed: int = SEEDS["fig9"]) -> Run:
    s = PAPER
    if scale == "quick":
        # twice the section 5.1 rate for half as long again: enough
        # touches per BAT for the in-vogue / standard contrast to show
        s = replace(QUICK, queries_per_second=40.0, duration=15.0)
    return build_ring(s, seed, gaussian).go()


def render_fig9(run: Run) -> Dict[str, str]:
    bats = run.metrics.bats
    key_range = (0, run.setup.n_bats - 1)

    def profile(name: str, field: str) -> str:
        return render_distribution(
            name, {b: float(getattr(s, field)) for b, s in bats.items()},
            key_range=key_range,
        )

    return {
        "fig9a_touches_requests":
            profile("touches", "pins") + "\n" + profile("requests", "requests"),
        "fig9b_loads": profile("loads", "loads"),
    }


# ----------------------------------------------------------------------
# Table 4 -- TPC-H trace replay on rings of 1..8 nodes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Tab4Setup:
    scale_factor: float                # of the calibration run
    rows_per_partition: Optional[int]  # None: one BAT per column
    queries_per_node: int
    nodes: Tuple[int, ...]             # ring sizes
    size_scale: float                  # wire-size inflation to SF-5 volumes


TAB4 = {
    "quick": Tab4Setup(0.005, None, 150, (1, 2, 3, 4, 6, 8), 200.0),
    # 10k-row partitions keep every scaled BAT inside a 200 MB queue
    "paper": Tab4Setup(0.01, 10_000, 1200, (1, 2, 3, 4, 5, 6, 7, 8), 500.0),
}


def tpch_experiment(scale: str = "quick", seed: int = SEEDS["tab4"]):
    """The calibrated TPC-H traces Table 4 replays."""
    # imported here: ``repro.multiring`` reaches this module through its
    # chaos harness and must not drag the TPC-H package in with it
    from repro.workloads.tpch import TpchExperiment

    return TpchExperiment(
        scale_factor=TAB4[scale].scale_factor, seed=seed,
        rows_per_partition=TAB4[scale].rows_per_partition,
    )


def tab4(
    scale: str = "quick",
    seed: int = SEEDS["tab4"],
    nodes: Optional[Sequence[int]] = None,
    size_scale: Optional[float] = None,
    transfer_mode: str = "rdma",
) -> List:
    """One :class:`TpchResult` per ring size, preceded by the modelled
    MonetDB contrast row when the first ring is the single node."""
    t = TAB4[scale]
    experiment = tpch_experiment(scale, seed)
    nodes = t.nodes if nodes is None else nodes
    rows = [
        experiment.run(
            n,
            queries_per_node=t.queries_per_node,
            size_scale=t.size_scale if size_scale is None else size_scale,
            transfer_mode=transfer_mode,
        )
        for n in nodes
    ]
    if nodes[0] == 1:
        rows.insert(0, experiment.monetdb_row(rows[0]))
    return rows


def render_tab4(rows: List) -> Dict[str, str]:
    return {
        "tab4_tpch": render_table(
            ["#nodes", "exec(sec)", "throughput", "throughP/node", "CPU%"],
            [r.row() for r in rows],
            title="Table 4: TPC-H trace replay",
        )
    }


# ----------------------------------------------------------------------
# Figures 10 and 11 -- the section 6.3 ring-size sweep
# ----------------------------------------------------------------------
SWEEP_SIZES = {"quick": (3, 6, 9), "paper": (5, 10, 15, 20)}


def ring_size_sweep(
    scale: str = "quick", seed: int = SEEDS["sweep"]
) -> RingSizeSweep:
    """The Gaussian scenario with the total query volume held constant."""
    if scale == "paper":
        return RingSizeSweep(seed=seed)  # its defaults are the paper's
    return RingSizeSweep(
        n_bats=120, min_size=1 * MB, max_size=2 * MB, total_rate=80.0,
        duration=10.0, min_proc_time=0.05, max_proc_time=0.10,
        bat_queue_capacity=10 * MB, seed=seed,
    )


def fig10_11(
    scale: str = "quick",
    seed: int = SEEDS["sweep"],
    sizes: Optional[Sequence[int]] = None,
) -> List[SweepOutcome]:
    sizes = SWEEP_SIZES[scale] if sizes is None else sizes
    return ring_size_sweep(scale, seed).run(sizes=tuple(sizes))


def render_fig10_11(outcomes: List[SweepOutcome]) -> Dict[str, str]:
    rendered = {
        "fig10_fig11_summary": render_table(
            ["#nodes", "cycle(ms)", "max req latency(s)", "max cycles", "finished"],
            [
                (o.n_nodes, round(o.mean_cycle_duration * 1e3, 1),
                 round(o.peak_latency, 2), o.peak_cycles, o.finished)
                for o in outcomes
            ],
            title="Ring-size sweep (Figures 10 & 11)",
        )
    }
    for o in outcomes:
        rendered[f"fig10_latency_{o.n_nodes}nodes"] = render_distribution(
            f"max request latency, {o.n_nodes} nodes", o.max_request_latency
        )
        rendered[f"fig11_cycles_{o.n_nodes}nodes"] = render_distribution(
            f"max cycles per BAT, {o.n_nodes} nodes",
            {b: float(c) for b, c in o.max_cycles.items()},
        )
    return rendered


# ----------------------------------------------------------------------
# Section 7 -- the Data Cyclotron against the broadcast architectures
# ----------------------------------------------------------------------
def baselines(scale: str = "quick", seed: int = 19) -> Dict[str, object]:
    """The identical Gaussian stream, at the same link bandwidth, through
    the ring, a DataCycle pump broadcasting the whole database, and
    Broadcast Disks tiered by *oracle* popularity.  Returns the three
    drained systems by name (the ring as its :class:`Run`); each has
    ``metrics``."""
    from repro.baselines import BroadcastDisks, DataCycle

    s = PAPER
    if scale == "quick":
        # twice section 5.1's data under a lighter stream: the hot set
        # must be a small fraction of what DataCycle has to broadcast
        s = replace(
            QUICK, n_bats=300, queries_per_second=15.0, duration=8.0,
            max_bats=2, min_proc_time=0.03, max_proc_time=0.06, max_time=900.0,
        )
    run = build_ring(s, seed, gaussian).go()
    pump = DataCycle(bandwidth=s.bandwidth)
    disks = BroadcastDisks(bandwidth=s.bandwidth, rel_freqs=(8, 2, 1))
    centre, std = s.n_bats / 2, s.n_bats / 20
    for bat_id, size in run.dataset.sizes.items():
        pump.add_bat(bat_id, size)
        # the true Gaussian access density, unavailable to real systems
        density = math.exp(-((bat_id - centre) ** 2) / (2 * std**2))
        disks.add_bat(bat_id, size, popularity=density)
    for system in (pump, disks):
        gaussian(s, run.dataset, seed).submit_to(system)
        system.run_until_done(max_time=4 * s.max_time)
    return {"data cyclotron": run, "broadcast disks": disks, "datacycle": pump}
