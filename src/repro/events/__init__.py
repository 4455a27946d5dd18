"""The monitoring backbone: a typed event bus plus stock subscribers.

Every layer of the simulated Data Cyclotron -- the event engine, the
network links, the per-node runtimes, the fault injector -- publishes
:mod:`repro.events.types` dataclasses onto a :class:`~repro.events.bus.Bus`
instead of mutating a metrics object directly.  Observers subscribe:

* :func:`~repro.events.bridge.attach_metrics` subscribes the
  :class:`~repro.metrics.collector.MetricsCollector` to the events it
  declares,
* :class:`~repro.events.tracer.Tracer` records JSONL / Chrome traces,
* :class:`~repro.faults.invariants.InvariantMonitor` audits the ring
  live at every fault.

See docs/events.md for the taxonomy and a subscription quick-start.
"""

from repro.events.bus import Bus
from repro.events.bridge import attach_metrics
from repro.events.tracer import Tracer

__all__ = ["Bus", "Tracer", "attach_metrics"]
