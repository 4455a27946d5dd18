"""No dangling references: a path the docs, CI or a docstring names exists.

Deleting a script or a report must not leave a document pointing at
nothing.  Every ``benchmarks/*.py``, ``bench/*``, ``tests/**/*.py``,
``docs/*.md`` and root-level ``BENCH_*.json`` path named in the living
documents, the CI workflow or the Python sources is checked against the
checkout.  ROADMAP.md, CHANGES.md and bench/README.md are history and
may name what is gone; files CI *writes* are named outside these
patterns (``scenarios_ci.json``, not ``BENCH_*_ci.json``).
"""

import inspect
import re
from dataclasses import fields
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


# The collector and the bridge declare and fill the counters.  A counter
# read nowhere else is a copy of a count its owner keeps, or a count
# nobody looks at.
COUNTER_HOMES = {
    "src/repro/metrics/collector.py",
    "src/repro/events/bridge.py",
}

# producers that build these through a variable holding the class: the
# per-hop forward (NodeRuntime._forwarded) and a landed flight's
# skipped-node forwards (FastForwarder._publish_forwards)
BUILT_THROUGH_A_VARIABLE = {
    "BatForwarded": ("src/repro/core/runtime.py", "src/repro/core/fastforward.py"),
    "RequestForwarded": ("src/repro/core/runtime.py", "src/repro/core/fastforward.py"),
}


def _python_text(dirs, skip=()):
    return "\n".join(
        path.read_text()
        for d in dirs
        for path in sorted((ROOT / d).rglob("*.py"))
        if str(path.relative_to(ROOT)) not in skip
    )


def test_every_collector_attribute_is_read_outside_the_collector():
    from repro.metrics.collector import MetricsCollector

    text = _python_text(("src", "tests", "bench", "benchmarks"), skip=COUNTER_HOMES)
    unread = sorted(
        attr for attr in vars(MetricsCollector())
        if not attr.startswith("_") and not re.search(rf"\b{attr}\b", text)
    )
    assert not unread


def test_every_event_type_is_constructed_under_src():
    from repro.events import types

    text = _python_text(("src",), skip={"src/repro/events/types.py"})
    never = []
    for name in types.__all__:
        if name in BUILT_THROUGH_A_VARIABLE:
            built = all(
                f"ev.{name}" in (ROOT / path).read_text()
                for path in BUILT_THROUGH_A_VARIABLE[name]
            )
        else:
            built = re.search(rf"\b{name}\(", text) is not None
        if not built:
            never.append(name)
    assert not never


def test_every_config_field_is_read_under_src():
    # a field nothing reads is an option that selects nothing; checking
    # it in its own __post_init__ does not count as reading it
    from repro.core import DataCyclotronConfig
    from repro.frontdoor import FrontDoorPolicy
    from repro.multiring import MultiRingConfig
    from repro.resilience.overload import OverloadPolicy

    text = _python_text(("src",))
    unread = []
    for cls in (DataCyclotronConfig, MultiRingConfig, FrontDoorPolicy, OverloadPolicy):
        elsewhere = text.replace(inspect.getsource(cls.__post_init__), "")
        unread += [
            f"{cls.__name__}.{f.name}" for f in fields(cls)
            if not re.search(rf"\.{f.name}\b", elsewhere)
        ]
    assert not unread


# Fields that only a test sets: each reaches a state no constant reaches
# (a LOIT ring that swings or starts high, a memory-starved node, an
# attempt timeout, a migration trigger, a recovery cadence), mapped to
# the test file that sets it.
TEST_INSTRUMENTS = {
    "DataCyclotronConfig.loit_levels": "tests/test_differential.py",
    "DataCyclotronConfig.loit_initial_level": "tests/test_differential.py",
    "DataCyclotronConfig.loit_high_watermark": "tests/test_core_ring.py",
    "DataCyclotronConfig.loit_low_watermark": "tests/test_core_ring.py",
    "DataCyclotronConfig.local_memory_bytes": "tests/test_core_runtime.py",
    "DataCyclotronConfig.retry_attempt_timeout": "tests/chaos/test_resilience.py",
    "MultiRingConfig.migration_hysteresis": "tests/test_multiring.py",
    "MultiRingConfig.migration_min_interest": "tests/test_placement_candidates.py",
    "OverloadPolicy.recover_patience": "tests/test_overload.py",
}


def _sets(name):
    """A keyword argument ``name=`` or a mapping key ``"name":``."""
    return re.compile(rf"[(,]\s*{name}\s*=(?!=)|[\"']{name}[\"']\s*:")


def test_every_config_field_is_set_outside_its_class():
    # a field nothing sets is a constant with a constructor around it;
    # a field only a test sets must say which test needs it
    from repro.core import DataCyclotronConfig
    from repro.frontdoor import FrontDoorPolicy
    from repro.multiring import MultiRingConfig
    from repro.resilience.overload import OverloadPolicy

    homes = {
        DataCyclotronConfig: "src/repro/core/config.py",
        MultiRingConfig: "src/repro/multiring/config.py",
        FrontDoorPolicy: "src/repro/frontdoor/door.py",
        OverloadPolicy: "src/repro/resilience/overload.py",
    }
    tests = _python_text(("tests",))
    unset, untested, unlisted = [], [], []
    for cls, home in homes.items():
        text = _python_text(("src", "bench", "benchmarks", "examples"), skip={home})
        for f in fields(cls):
            if f.name.startswith("_"):
                continue
            key = f"{cls.__name__}.{f.name}"
            setter = _sets(f.name)
            if setter.search(text):
                continue
            if key in TEST_INSTRUMENTS:
                if not setter.search((ROOT / TEST_INSTRUMENTS[key]).read_text()):
                    untested.append(key)
            elif setter.search(tests):
                unlisted.append(key)
            else:
                unset.append(key)
    assert not (unset or unlisted or untested), (
        f"set nowhere: {unset}; "
        f"set only by tests, not in TEST_INSTRUMENTS: {unlisted}; "
        f"not set by the file TEST_INSTRUMENTS names: {untested}"
    )
