"""No dangling references: a path the docs, CI or a docstring names exists.

Deleting a script or a report must not leave a document pointing at
nothing.  Every ``benchmarks/*.py``, ``bench/*``, ``tests/**/*.py``,
``docs/*.md`` and root-level ``BENCH_*.json`` path named in the living
documents, the CI workflow or the Python sources is checked against the
checkout.  ROADMAP.md, CHANGES.md and bench/README.md are history and
may name what is gone; files CI *writes* are named outside these
patterns (``scenarios_ci.json``, not ``BENCH_*_ci.json``).
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

REFERENCE = re.compile(
    r"(?<![\w-])(?:"
    r"benchmarks/[\w/]+\.py"
    r"|bench/[\w.-]*\w"
    r"|tests/[\w/]+\.py"
    r"|docs/\w+\.md"
    r"|BENCH_\w+\.json"
    r")"
)

SOURCES = (
    "docs/*.md",
    "README.md",
    "EXPERIMENTS.md",
    "DESIGN.md",
    ".github/workflows/ci.yml",
    "src/**/*.py",
    "tests/**/*.py",
    "benchmarks/*.py",
)


def test_every_named_path_exists():
    dangling = {}
    for pattern in SOURCES:
        for source in sorted(ROOT.glob(pattern)):
            missing = sorted(
                ref for ref in set(REFERENCE.findall(source.read_text()))
                if not (ROOT / ref).exists()
            )
            if missing:
                dangling[str(source.relative_to(ROOT))] = missing
    assert not dangling
