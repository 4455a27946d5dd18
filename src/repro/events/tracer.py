"""Structured event tracing: JSONL capture and Chrome trace export.

A :class:`Tracer` is a wildcard bus subscriber that flattens every event
into a plain dict record (``{"event": <type name>, <field>: <value>,
...}``).  Records can be kept in memory, streamed to a JSON-Lines file
as they happen (the ``trace=`` runtime-config option), or exported in
the Chrome ``trace_event`` format that ``chrome://tracing`` / Perfetto
load directly -- one instant event per record, one track per ring node.

The same seed produces the same trace byte for byte; the regression
tests rely on it.
"""

from __future__ import annotations

import json
from dataclasses import fields
from typing import IO, Any, Dict, List, Optional, Tuple, Type

from repro.events.bus import Bus

__all__ = [
    "Tracer",
    "event_record",
    "read_jsonl",
    "records_to_chrome",
    "write_chrome",
]

_FIELD_CACHE: Dict[Type, Tuple[str, ...]] = {}


def _fields_of(event_type: Type) -> Tuple[str, ...]:
    cached = _FIELD_CACHE.get(event_type)
    if cached is None:
        cached = tuple(f.name for f in fields(event_type))
        _FIELD_CACHE[event_type] = cached
    return cached


def event_record(event: Any) -> Dict[str, Any]:
    """Flatten an event dataclass into a JSON-serialisable dict."""
    record: Dict[str, Any] = {"event": type(event).__name__}
    for name in _fields_of(type(event)):
        record[name] = getattr(event, name)
    return record


class Tracer:
    """Record every published event; replay as JSONL or a Chrome trace.

    Parameters
    ----------
    jsonl_path:
        When given, the file is opened immediately (so path errors
        surface early) and every record is appended as one JSON line
        the moment it is published.
    keep:
        Keep records in memory (needed for in-process export).  Defaults
        to True; long streaming runs can disable it and rely purely on
        the JSONL file.
    """

    def __init__(self, jsonl_path: Optional[str] = None, keep: bool = True):
        self.records: List[Dict[str, Any]] = []
        self.keep = keep
        self.jsonl_path = jsonl_path
        self._fh: Optional[IO[str]] = None
        self._buses: List[Bus] = []
        if jsonl_path is not None:
            self._fh = open(jsonl_path, "w")

    # ------------------------------------------------------------------
    # bus wiring
    # ------------------------------------------------------------------
    def attach(self, bus: Bus) -> "Tracer":
        """Start recording every event published on ``bus``."""
        bus.subscribe_all(self._on_event)
        self._buses.append(bus)
        return self

    def detach(self, bus: Optional[Bus] = None) -> None:
        """Stop recording (from ``bus``, or from every attached bus)."""
        buses = [bus] if bus is not None else list(self._buses)
        for b in buses:
            b.unsubscribe_all(self._on_event)
            if b in self._buses:
                self._buses.remove(b)

    def _on_event(self, event: Any) -> None:
        record = event_record(event)
        if self.keep:
            self.records.append(record)
        if self._fh is not None:
            json.dump(record, self._fh, separators=(",", ":"))
            self._fh.write("\n")

    def close(self) -> None:
        """Detach from every bus and close the JSONL stream, if any."""
        self.detach()
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_jsonl(self, path: str) -> int:
        """Write the in-memory records as JSON Lines; returns the count."""
        with open(path, "w") as fh:
            for record in self.records:
                json.dump(record, fh, separators=(",", ":"))
                fh.write("\n")
        return len(self.records)

    def to_chrome(self, path: str) -> int:
        """Write a Chrome ``trace_event`` file; returns the event count."""
        return write_chrome(self.records, path)


# ----------------------------------------------------------------------
# module-level converters (shared with the ``repro trace`` CLI)
# ----------------------------------------------------------------------
def read_jsonl(path: str) -> List[Dict[str, Any]]:
    """Load trace records from a JSON-Lines file."""
    records = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: not valid JSON: {exc}") from exc
            if not isinstance(record, dict) or "event" not in record:
                raise ValueError(f"{path}:{line_no}: not a trace record")
            records.append(record)
    return records


def records_to_chrome(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Convert flat records to the Chrome ``trace_event`` JSON object.

    Every record becomes one *instant* event (``"ph": "i"``) with the
    simulated time in microseconds and the publishing node as both pid
    and tid, so chrome://tracing renders one track per ring node (events
    without a node -- link and engine events -- land on track 0).
    """
    trace_events: List[Dict[str, Any]] = []
    for record in records:
        args = {
            k: v for k, v in record.items() if k not in ("event", "t", "node")
        }
        node = record.get("node")
        track = node if isinstance(node, int) else 0
        trace_events.append(
            {
                "name": record["event"],
                "ph": "i",
                "s": "t",
                "ts": round(float(record.get("t", 0.0)) * 1e6, 3),
                "pid": track,
                "tid": track,
                "args": args,
            }
        )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome(records: List[Dict[str, Any]], path: str) -> int:
    """Write records as a Chrome-loadable trace file; returns the count."""
    document = records_to_chrome(records)
    with open(path, "w") as fh:
        json.dump(document, fh, separators=(",", ":"))
    return len(document["traceEvents"])
