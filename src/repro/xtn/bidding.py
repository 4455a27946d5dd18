"""Nomadic query placement via cost bids (paper section 6.1).

"Once the BAT requests are sent off, a query can start with a nomadic
phase, 'chasing' the data requests upstream to find a more satisfactory
node to settle for its execution.  At each node visited, we ask for a
bid to execute the query locally.  The price is the result of a
heuristic cost model for solving the query, based on its data needs and
the node's current workload."

:class:`BidScheduler` implements that heuristic: each node quotes a
price combining its current load (outstanding queries) with the data
cost of serving the query's BATs there (bytes owned elsewhere weighted
by ring distance from the owner).  The query settles on the cheapest
node; the nomadic hop itself costs one request-channel traversal per
visited node, charged to the query's arrival time.

A query is priced by one quote table: :meth:`BidScheduler.quote` walks
its BATs once and fills in every node's load and data cost side by
side, so the winner, a single :class:`NodeBid` and the full list of
bids all read the same numbers from the same formula.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import add
from typing import Dict, List, Set, Tuple

from repro.core.query import QuerySpec
from repro.core.ring import DataCyclotron

__all__ = ["NodeBid", "BidScheduler"]


@dataclass(frozen=True)
class NodeBid:
    """One node's quote for executing a query."""

    node: int
    load_cost: float
    data_cost: float

    @property
    def price(self) -> float:
        return self.load_cost + self.data_cost


class BidScheduler:
    """Places queries on the cheapest-bidding node.

    Parameters
    ----------
    load_weight:
        Seconds of price per outstanding query at the node.
    data_weight:
        Seconds of price per byte-hop of remote data (a BAT owned
        ``h`` clockwise hops away contributes ``size * h * data_weight``
        -- data arrives faster when the owner is just upstream).
    """

    def __init__(
        self,
        dc: DataCyclotron,
        load_weight: float = 0.05,
        data_weight: float = 1e-9,
    ):
        self.dc = dc
        self.load_weight = load_weight
        self.data_weight = data_weight
        self._outstanding: Dict[int, int] = {n: 0 for n in range(dc.config.n_nodes)}
        self.placements: Dict[int, int] = {}  # query_id -> chosen node
        self._open: Set[int] = set()  # placed, not yet finished

    # ------------------------------------------------------------------
    def quote(self, bat_ids: List[int]) -> Tuple[List[float], List[float]]:
        """Every node's ``(load costs, data costs)`` for a query reading
        ``bat_ids``, in one pass over the BATs.

        Each BAT's owner and size are looked up once; a BAT owned ``h``
        clockwise hops upstream of a node adds ``size * h * data_weight``
        to that node's data cost, in BAT order, and nothing to its owner's
        (local disk access: no ring traffic).  A federated query quotes
        only the data homed on this ring; the cross-ring router fetches
        the rest either way.
        """
        dc = self.dc
        n = dc.config.n_nodes
        weight = self.data_weight
        data_cost = [0.0] * n
        for bat_id in bat_ids:
            if not dc.has_bat(bat_id):
                continue
            owner = dc.bat_owner(bat_id)
            size = dc.bat_size(bat_id)
            for hops in range(1, n):
                node = (owner + hops) % n
                data_cost[node] += size * hops * weight
        outstanding = self._outstanding
        load_cost = [outstanding[node] * self.load_weight for node in range(n)]
        return load_cost, data_cost

    def cheapest(self, bat_ids: List[int]) -> Tuple[float, int]:
        """``(price, node)`` of the winning quote: least price, ties to
        the least node index."""
        load_cost, data_cost = self.quote(bat_ids)
        return min(zip(map(add, load_cost, data_cost), range(len(load_cost))))

    def bid(self, node: int, spec: QuerySpec) -> NodeBid:
        """The node's quote: its workload plus the query's data needs."""
        load_cost, data_cost = self.quote(spec.bat_ids)
        return NodeBid(node=node, load_cost=load_cost[node], data_cost=data_cost[node])

    def collect_bids(self, spec: QuerySpec) -> List[NodeBid]:
        load_cost, data_cost = self.quote(spec.bat_ids)
        return [
            NodeBid(node=n, load_cost=load, data_cost=data)
            for n, (load, data) in enumerate(zip(load_cost, data_cost))
        ]

    def book(self, query_id: int, node: int) -> None:
        """Count ``query_id`` as outstanding at ``node`` until
        :meth:`query_finished` hears of it."""
        self._outstanding[node] += 1
        self.placements[query_id] = node
        self._open.add(query_id)

    def place(self, spec: QuerySpec) -> QuerySpec:
        """The nomadic phase: pick the cheapest node, charge the travel.

        The query visits nodes upstream (anti-clockwise) from its entry
        node until it has seen every node; settling ``k`` hops away
        delays its start by ``k`` request-channel traversals.
        """
        _price, node = self.cheapest(spec.bat_ids)
        hops = self.dc.ring.hops_anticlockwise(spec.node, node)
        return self.place_at(spec, node, extra_travel=hops * self.dc.config.link_delay)

    def place_at(self, spec: QuerySpec, node: int, extra_travel: float = 0.0) -> QuerySpec:
        """Settle ``spec`` on a node chosen by an outside arbiter, with the
        same load bookkeeping as :meth:`place`."""
        self.book(spec.query_id, node)
        return replace(spec, node=node, arrival=spec.arrival + extra_travel)

    def query_finished(self, spec: QuerySpec) -> None:
        """Feed back completions so load costs stay current.

        Only a query this scheduler placed counts down, and only once:
        a query that ends here without a placement (or ends again, after
        a retry) left no load to take back.
        """
        if spec.query_id in self._open:
            self._open.discard(spec.query_id)
            self._outstanding[self.placements[spec.query_id]] -= 1

    # ------------------------------------------------------------------
    def place_split(
        self,
        spec: QuerySpec,
        max_subqueries: int = 4,
        split_threshold: float = 0.0,
        merge_cost: float = 0.0,
        on_done=None,
    ) -> List[QuerySpec]:
        """The full section 6.1 nomadic phase: bid, maybe split, settle.

        "During the nomadic phase, a query can be split into independent
        sub-queries to consume disjoint data subsets.  The number of
        sub-queries depend on the price attached dynamically."  If the
        cheapest bid exceeds ``split_threshold`` (every node is loaded or
        the data is spread far), the query splits into up to
        ``max_subqueries`` sub-queries, each placed by its own bids;
        otherwise it settles whole on the winning node.

        Submits the placed specs and returns them.  ``on_done`` receives
        the combined completion time once every piece finished.
        """
        from repro.sim.process import Process, all_of
        from repro.xtn.parallel import split_query

        price, _node = self.cheapest(spec.bat_ids)
        if price <= split_threshold or len(spec.steps) < 2:
            placed = [self.place(spec)]
        else:
            n_subqueries = min(max_subqueries, len(spec.steps))
            placed = [self.place(sub) for sub in split_query(spec, n_subqueries)]
        processes = [self.dc.submit(p) for p in placed]
        if on_done is not None:

            def watcher():
                joined = all_of(self.dc.sim, [proc.join() for proc in processes])
                yield joined
                on_done(self.dc.sim.now + merge_cost)

            Process(self.dc.sim, watcher())
        return placed

    def submit_placed(self, specs) -> int:
        """Place and submit a whole workload; returns the count."""
        count = 0
        for spec in specs:
            self.dc.submit(self.place(spec))
            count += 1
        return count

    def placement_counts(self) -> Dict[int, int]:
        counts: Dict[int, int] = {n: 0 for n in range(self.dc.config.n_nodes)}
        for node in self.placements.values():
            counts[node] += 1
        return counts
