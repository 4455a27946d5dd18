"""Workload generators for the section 5 experiments.

* :mod:`repro.workloads.base` -- the shared dataset builder (1000 BATs
  of 1-10 MB, uniformly spread; section 5 "Setup") and helpers,
* :mod:`repro.workloads.uniform` -- the section 5.1 micro-benchmark,
* :mod:`repro.workloads.skewed` -- the section 5.2 skewed workloads
  SW1..SW4 (Table 3),
* :mod:`repro.workloads.gaussian` -- the section 5.3 Gaussian access
  pattern,
* :mod:`repro.workloads.tpch` -- the section 5.4 TPC-H trace workload
  with its calibration pass,
* :mod:`repro.workloads.scenarios` -- production-shaped generators
  (diurnal, flash-crowd, multi-tenant, locality-shift) for the SLO
  scenario suite (docs/workloads.md),
* :mod:`repro.workloads.closedloop` -- N think-time clients with one
  outstanding query each, for graceful-degradation experiments
  (docs/overload.md),
* :mod:`repro.workloads.mixed` -- the mixed-engine workload driving all
  three QPU classes through one ring economy (docs/qpu.md),
* :mod:`repro.workloads.suite` -- the named scenario registry behind
  ``repro scenarios`` and tests/test_scenario_gates.py.
"""

from repro.workloads.base import UniformDataset, populate_ring
from repro.workloads.closedloop import ClosedLoopWorkload
from repro.workloads.gaussian import GaussianWorkload
from repro.workloads.mixed import MixedEngineWorkload
from repro.workloads.scenarios import (
    ColdBurstWorkload,
    DiurnalWorkload,
    FlashCrowdWorkload,
    LocalityShiftWorkload,
    MultiTenantWorkload,
    ZipfSampler,
)
from repro.workloads.skewed import SkewedPhase, SkewedWorkload, paper_phases
from repro.workloads.uniform import UniformWorkload

__all__ = [
    "ClosedLoopWorkload",
    "ColdBurstWorkload",
    "DiurnalWorkload",
    "FlashCrowdWorkload",
    "GaussianWorkload",
    "LocalityShiftWorkload",
    "MixedEngineWorkload",
    "MultiTenantWorkload",
    "SkewedPhase",
    "SkewedWorkload",
    "UniformDataset",
    "UniformWorkload",
    "ZipfSampler",
    "paper_phases",
    "populate_ring",
]
