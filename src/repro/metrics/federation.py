"""Federation-level reporting (docs/multiring.md).

One text artefact per federated run: a per-ring table (fragments,
bytes, query outcomes, peak ring load) followed by the cross-ring
traffic counters -- fetches, shipped queries, migrations, split/merge
and gateway-failover activity.  Everything is read from the
federation's :meth:`summary`, which in turn is fed exclusively by the
typed events on the bus, so the report is a pure function of the event
stream.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.metrics.report import render_table

if TYPE_CHECKING:  # pragma: no cover
    from repro.multiring.federation import RingFederation

__all__ = ["render_federation_report"]

# counters shown in the traffic section, in display order; the router's
# and the placement manager's keys are absent from a summary without them
_TRAFFIC_KEYS = (
    "submitted",
    "completed",
    "failed",
    "queries_shipped",
    "cross_ring_requests",
    "cross_ring_transfers",
    "fetches_dispatched",
    "fetches_served",
    "fetches_failed",
    "fetch_mean_latency",
    "fetch_max_latency",
    "migrations_started",
    "fragments_migrated",
    "migrations_aborted",
    "migrations_deferred",
    "ring_splits",
    "rings_merged",
    "gateway_failures",
    "gateway_elections",
    "serves_handed_off",
    "events_processed",
)


def render_federation_report(fed: "RingFederation") -> str:
    """The full text report: per-ring table + traffic counters."""
    summary = fed.summary()
    ring_rows = [
        [
            row["ring"],
            "yes" if row["active"] else "no",
            row["nodes"],
            row["fragments"],
            row["fragment_bytes"],
            row["queries_finished"],
            row["queries_failed"],
            row["mean_lifetime"],
            row["peak_ring_bytes"],
        ]
        for row in summary["rings"]
    ]
    table = render_table(
        headers=[
            "ring", "active", "nodes", "fragments", "bytes",
            "finished", "failed", "mean lifetime", "peak ring bytes",
        ],
        rows=ring_rows,
        title=(
            f"federation: {summary['n_rings']} rings x "
            f"{summary['nodes_per_ring']} nodes "
            f"(active: {summary['active_rings']})"
        ),
    )
    traffic = render_table(
        headers=["counter", "value"],
        rows=[[k, summary[k]] for k in _TRAFFIC_KEYS if k in summary],
        title="cross-ring traffic",
    )
    return table + "\n\n" + traffic + "\n"
