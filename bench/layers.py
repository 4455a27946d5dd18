"""Fold a cProfile run into per-layer self time, measured from outside.

Layers are the package names under ``src/repro``.  A function's self
time belongs to the layer of its source file; self time of code outside
the tree (builtins, numpy, heapq, the rest of the standard library) is
charged to the layer of the function that called it, through the
profiler's callers table, so ``numpy.add`` under the MAL interpreter is
``dbms.exec`` time and ``heappush`` under ``Simulator.post`` is ``sim``
time.  Layer self time is therefore span minus children by
construction: every profiled second lands in exactly one row.

cProfile taxes every Python call and no native work, which shifts the
proportions towards call-heavy layers; ``trace.overhead_ratio`` (in
``run.py``) says by how much.  Use these rows to find where time goes,
and ``host_cpu_s`` to decide whether a change helped.
"""

from __future__ import annotations

import pstats
from pathlib import Path

BENCH_DIR = str(Path(__file__).resolve().parent) + "/"
SRC_DIR = str(Path(__file__).resolve().parent.parent / "src" / "repro") + "/"

# first matching prefix wins
RULES = (
    ("sim/parallel.py", "sim.parallel"),
    ("sim/", "sim"),
    ("net/", "net"),
    ("core/fastforward.py", "core.fastforward"),
    ("core/", "core.runtime"),
    ("events/", "events"),
    ("metrics/", "metrics"),
    ("dbms/sql/", "dbms.sql"),
    ("dbms/optimizer.py", "dbms.sql"),
    ("dbms/passes.py", "dbms.sql"),
    ("dbms/mal.py", "dbms.sql"),
    ("dbms/statistics/", "dbms.statistics"),
    ("dbms/", "dbms.exec"),
    ("frontdoor/", "frontdoor"),
    ("resilience/", "resilience"),
    ("multiring/", "multiring"),
    ("workloads/", "workloads"),
)
LAYERS = tuple(dict.fromkeys(layer for _, layer in RULES)) + ("bench",)
# call-count rows and the layers each sums over
CALL_GROUPS = {
    "sim": ("sim",),
    "net": ("net",),
    "core": ("core.runtime", "core.fastforward"),
    "events": ("events",),
    "dbms": ("dbms.sql", "dbms.exec", "dbms.statistics"),
}
# how many external frames (numpy wrapper -> ufunc -> ...) to climb
# before giving up on finding the repro caller
MAX_CLIMB = 8


def layer_of(filename: str):
    """The ledger row of a source file; None for code outside the tree."""
    if filename.startswith(BENCH_DIR):
        return "bench"
    if not filename.startswith(SRC_DIR):
        return None
    rel = filename[len(SRC_DIR):]
    for prefix, layer in RULES:
        if rel.startswith(prefix):
            return layer
    return "bench"  # a package without a ledger row of its own (xtn, faults)


def fold(profiler) -> dict:
    """``{"self_s": {layer: s}, "calls": {group: n}, "total_s", "attributed_share"}``."""
    stats = pstats.Stats(profiler).stats
    layers = {func: layer_of(func[0]) for func in stats}
    shares_memo: dict = {}

    def shares(func, climb: int) -> dict:
        """Which layers own ``func``'s time: ``{layer: share}``."""
        layer = layers.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in shares_memo:
            return shares_memo[func]
        shares_memo[func] = {}  # cycle guard: recursion among externals
        out: dict = {}
        callers = stats[func][4] if climb and func in stats else {}
        total = sum(c[3] for c in callers.values())
        if total > 0:
            for caller, c in callers.items():
                for owner, share in shares(caller, climb - 1).items():
                    out[owner] = out.get(owner, 0.0) + share * c[3] / total
        shares_memo[func] = out
        return out

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    total_s = unattributed_s = 0.0
    for func, (_cc, ncalls, tt, _ct, callers) in stats.items():
        total_s += tt
        layer = layers[func]
        if layer is not None:
            self_s[layer] += tt
            calls[layer] += ncalls
            continue
        charged = 0.0
        from_callers = sum(c[2] for c in callers.values())
        if from_callers > 0:
            for caller, c in callers.items():
                part = tt * c[2] / from_callers
                for owner, share in shares(caller, MAX_CLIMB).items():
                    self_s[owner] += part * share
                    charged += part * share
        unattributed_s += tt - charged
    self_s["bench"] += unattributed_s
    return {
        "self_s": self_s,
        "calls": {g: sum(calls[m] for m in members) for g, members in CALL_GROUPS.items()},
        "total_s": total_s,
        "attributed_share": 1.0 - unattributed_s / total_s if total_s else 0.0,
    }
