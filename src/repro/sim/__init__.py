"""Discrete-event simulation kernel.

This package replaces NS-2, the network simulator the paper used for its
evaluation (section 5).  It provides:

* :class:`~repro.sim.engine.Simulator` -- the event loop with a simulated
  clock, ``schedule``/``cancel`` primitives and deterministic FIFO
  tie-breaking for simultaneous events,
* :class:`~repro.sim.process.Process` -- generator-based processes that
  can sleep (`yield Delay(t)`) and block on futures (`yield fut`),
* :class:`~repro.sim.process.ArrivalStream` -- processes booked up front
  that hold a record, not a process, until they are the next to start,
* :class:`~repro.sim.rng.RngRegistry` -- named, independently seeded
  random streams so that subsystems draw reproducible randomness,
* :class:`~repro.sim.timeline.CoreTimeline` -- the multi-core operator
  scheduler used by the TPC-H experiment (paper section 5.4).
"""

from repro.sim.engine import Event, Simulator
from repro.sim.process import ArrivalStream, Delay, Future, Process
from repro.sim.rng import RngRegistry
from repro.sim.timeline import CoreTimeline

__all__ = [
    "ArrivalStream",
    "CoreTimeline",
    "Delay",
    "Event",
    "Future",
    "Process",
    "RngRegistry",
    "Simulator",
]
