"""Intra-query parallelism: splitting queries over disjoint data subsets.

Paper section 6.1: "the Data Cyclotron architecture allows for highly
efficient shared-nothing intra-query parallelism.  During the nomadic
phase, a query can be split into independent sub-queries to consume
disjoint data subsets. ... All sub-queries are then processed
concurrently, each settling on a different node following the basic
procedures of a normal query.  The individual intermediate results are
combined to form the final query result."
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.core.query import PinStep, QuerySpec
from repro.core.ring import DataCyclotron
from repro.sim.process import Process, all_of

__all__ = ["split_query", "combine_results", "submit_parallel"]


def split_query(
    spec: QuerySpec,
    n_subqueries: int,
    nodes: Optional[List[int]] = None,
    id_stride: int = 1_000_000,
) -> List[QuerySpec]:
    """Split a query into up to ``n_subqueries`` over disjoint pin steps.

    Steps are dealt round-robin so each sub-query consumes a disjoint
    BAT subset; sub-query *i* runs on ``nodes[i]`` (default: the parent's
    node and its successors).  Sub-query ids are derived from the parent
    (``parent_id * id_stride + i``) so metrics stay traceable.
    """
    if n_subqueries < 1:
        raise ValueError("need at least one sub-query")
    n_subqueries = min(n_subqueries, len(spec.steps))
    groups: List[List[PinStep]] = [[] for _ in range(n_subqueries)]
    for i, step in enumerate(spec.steps):
        groups[i % n_subqueries].append(step)
    subs: List[QuerySpec] = []
    for i, steps in enumerate(groups):
        node = nodes[i] if nodes else spec.node
        # The first step of a sub-query starts immediately: its original
        # op_time belonged to a step now in another sub-query.
        adjusted = [
            PinStep(bat_id=s.bat_id, op_time=(0.0 if j == 0 else s.op_time))
            for j, s in enumerate(steps)
        ]
        subs.append(
            QuerySpec(
                query_id=spec.query_id * id_stride + i,
                node=node,
                arrival=spec.arrival,
                steps=adjusted,
                tail_time=steps[-1].op_time if steps else spec.tail_time,
                tag=f"{spec.tag}/sub{i}" if spec.tag else f"sub{i}",
            )
        )
    return subs


def combine_results(sub_lifetimes: List[float], merge_cost: float = 0.0) -> float:
    """The parent query's lifetime: the slowest sub-query plus the merge."""
    if not sub_lifetimes:
        raise ValueError("no sub-queries to combine")
    return max(sub_lifetimes) + merge_cost


def submit_parallel(
    dc: DataCyclotron,
    spec: QuerySpec,
    n_subqueries: int,
    merge_cost: float = 0.0,
    on_done: Optional[Callable[[float], None]] = None,
) -> List[QuerySpec]:
    """Split, spread over successive nodes, submit, and watch completion.

    Returns the submitted sub-specs.  When every sub-query finishes, the
    optional ``on_done`` callback receives the combined completion time
    (after ``merge_cost`` of result combination).
    """
    nodes = [
        (spec.node + i) % dc.config.n_nodes for i in range(n_subqueries)
    ]
    subs = split_query(spec, n_subqueries, nodes=nodes)
    processes: List[Process] = [dc.submit(sub) for sub in subs]
    if on_done is not None:

        def watcher():
            joined = all_of(dc.sim, [p.join() for p in processes])
            yield joined
            done_at = dc.sim.now + merge_cost
            on_done(done_at)

        Process(dc.sim, watcher)
    return subs
