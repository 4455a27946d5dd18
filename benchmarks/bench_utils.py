"""Shared plumbing for the figure/table benchmarks.

Every benchmark here is "run, render, write, assert": the experiment
and its rendering are defined once in :mod:`repro.experiments` (what
``python -m repro <artefact>`` prints); this directory holds the
paper's shape claims about the result.  Two scales:

* **quick** (default): the documented scale-down, ``experiments.QUICK``;
* **paper** (``REPRO_FULL=1``): the paper's exact parameters,
  ``experiments.PAPER``.

Rendered tables/series are written to ``benchmarks/results/*.txt`` and
echoed to stdout.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict

SCALE = "paper" if os.environ.get("REPRO_FULL", "") not in ("", "0") else "quick"

RESULTS_DIR = Path(__file__).parent / "results"


def write_result(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n=== {name} ===\n{text}")


def write_results(rendered: Dict[str, str]) -> None:
    for name, text in rendered.items():
        write_result(name, text)
