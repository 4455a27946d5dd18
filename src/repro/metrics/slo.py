"""Latency SLOs over the typed event stream (docs/workloads.md).

The scenario suite reports what production systems report: latency
percentiles per run and per tenant, failure rates, and a pass/fail
verdict against declared targets.  Everything here is a pure function
of the bus events -- the :class:`SloCollector` subscribes to the query
lifecycle (``QueryRegistered`` / ``QueryFinished`` / ``QueryFailed`` /
``QueryShed``) and never reaches into runtime state, so a verdict can
be recomputed from a JSONL trace of the same run.

Percentiles are *exact* (sorted-sample order statistics with the
nearest-rank rule), not binned: the p999 of a failover tail is the
whole point of the gateway-chaos scenario, and a histogram bin edge
would blur exactly the number we gate on.  The streaming
:class:`~repro.metrics.histogram.Histogram` keeps its role for the
figure reproductions; the property tests in
``tests/test_metrics_histogram.py`` pin how close its binned quantiles
stay to the exact ones computed here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil
from typing import Callable, Dict, List, Optional, Tuple

from repro.events import types as ev
from repro.events.bus import Bus

__all__ = [
    "PERCENTILES",
    "EngineSloTarget",
    "SloCollector",
    "SloTarget",
    "exact_quantile",
    "jain_fairness",
    "latency_percentiles",
    "slo_verdict",
    "validate_verdict",
]

# the percentile set every scenario reports, in report order
PERCENTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p99", 0.99),
    ("p999", 0.999),
)


def exact_quantile(samples: List[float], q: float) -> float:
    """Nearest-rank quantile of ``samples`` (which must be sorted).

    ``q=0`` is the minimum, ``q=1`` the maximum; an empty sample list
    yields 0.0 (the same convention as ``Histogram.quantile``).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    if not samples:
        return 0.0
    if q == 0.0:
        return samples[0]
    return samples[min(len(samples) - 1, ceil(q * len(samples)) - 1)]


def latency_percentiles(samples: List[float]) -> Dict[str, float]:
    """The standard p50/p99/p999 dict over an unsorted sample list."""
    ordered = sorted(samples)
    return {name: exact_quantile(ordered, q) for name, q in PERCENTILES}


def jain_fairness(values: List[float]) -> float:
    """Jain's fairness index: 1.0 when every tenant fares the same.

    ``(sum x)^2 / (n * sum x^2)``, in (0, 1]; degenerate inputs (no
    tenants, all-zero) report perfect fairness rather than dividing by
    zero.
    """
    if not values:
        return 1.0
    square_sum = sum(x * x for x in values)
    if square_sum == 0.0:
        return 1.0
    total = sum(values)
    return (total * total) / (len(values) * square_sum)


@dataclass(frozen=True)
class SloTarget:
    """Declared latency/availability objectives for one scenario."""

    p50: float
    p99: float
    p999: float
    max_failure_rate: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.p50 <= self.p99 <= self.p999:
            raise ValueError("targets must satisfy 0 < p50 <= p99 <= p999")
        if not 0.0 <= self.max_failure_rate <= 1.0:
            raise ValueError("max_failure_rate must be in [0, 1]")

    def as_dict(self) -> Dict[str, float]:
        return {
            "p50": self.p50,
            "p99": self.p99,
            "p999": self.p999,
            "max_failure_rate": self.max_failure_rate,
        }


@dataclass(frozen=True)
class EngineSloTarget:
    """Declared objectives for one engine class in a mixed workload.

    Different engines gate on different numbers: a KV tenant cares
    about tail latency (``p99``), a streaming aggregate about sustained
    ``min_throughput`` (successful queries per simulated second).  Any
    field left ``None`` is simply not gated, so one schema covers all
    three engine classes without dummy targets.
    """

    p99: Optional[float] = None
    min_throughput: Optional[float] = None
    max_failure_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.p99 is not None and self.p99 <= 0:
            raise ValueError("p99 target must be positive")
        if self.min_throughput is not None and self.min_throughput <= 0:
            raise ValueError("min_throughput target must be positive")
        if not 0.0 <= self.max_failure_rate <= 1.0:
            raise ValueError("max_failure_rate must be in [0, 1]")

    def as_dict(self) -> Dict[str, Optional[float]]:
        return {
            "p99": self.p99,
            "min_throughput": self.min_throughput,
            "max_failure_rate": self.max_failure_rate,
        }


def slo_verdict(
    scenario: str,
    seed: int,
    target: SloTarget,
    samples: List[float],
    total: int,
    failed: int,
    shed: int,
) -> Dict:
    """The serialisable SLO verdict over ``total`` logical queries, of
    which ``samples`` are the latencies of the successful ones."""
    percentiles = {
        name: round(value, 6)
        for name, value in latency_percentiles(samples).items()
    }
    failure_rate = failed / total if total else 0.0
    passed = {
        name: percentiles[name] <= getattr(target, name)
        for name, _q in PERCENTILES
    }
    passed["failure_rate"] = failure_rate <= target.max_failure_rate
    return {
        "scenario": scenario,
        "seed": seed,
        "queries": total,
        "succeeded": len(samples),
        "failed": failed,
        "shed": shed,
        "failure_rate": round(failure_rate, 6),
        "latency": percentiles,
        "target": target.as_dict(),
        "passed": passed,
        "ok": all(passed.values()),
    }


@dataclass
class _QueryTrack:
    """First registration and terminal outcome of one logical query."""

    registered_at: float
    tag: str
    finished_at: Optional[float] = None
    failed_at: Optional[float] = None
    shed: bool = False


class SloCollector:
    """Per-query end-to-end latency accounting from bus events.

    Retries re-register the *same* ``query_id``; the collector keeps the
    first registration time so the recorded latency is what the user
    saw -- submission to final success -- not the latency of the lucky
    last attempt.  A query counts as failed only if it never finished
    (a ``QueryFailed`` followed by a retried ``QueryFinished`` is a
    success with an honest, long latency).
    """

    def __init__(self) -> None:
        self._queries: Dict[int, _QueryTrack] = {}
        self._detach: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # bus wiring
    # ------------------------------------------------------------------
    def attach(self, bus: Bus) -> "SloCollector":
        """Subscribe to the query lifecycle on ``bus`` (chainable).

        A federation publishes lifecycle events on every ring's bus;
        attach the same collector to each of them.
        """
        pairs = (
            (ev.QueryRegistered, self._on_registered),
            (ev.QueryFinished, self._on_finished),
            (ev.QueryFailed, self._on_failed),
            (ev.QueryShed, self._on_shed),
        )
        for event_type, handler in pairs:
            bus.subscribe(event_type, handler)
            self._detach.append(
                lambda _b=bus, _t=event_type, _h=handler: _b.unsubscribe(_t, _h)
            )
        return self

    def detach(self) -> None:
        for fn in self._detach:
            fn()
        self._detach.clear()

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _on_registered(self, e: ev.QueryRegistered) -> None:
        track = self._queries.get(e.query_id)
        if track is None:
            self._queries[e.query_id] = _QueryTrack(e.t, e.tag)

    def _on_finished(self, e: ev.QueryFinished) -> None:
        track = self._queries.get(e.query_id)
        if track is not None and track.finished_at is None:
            track.finished_at = e.t

    def _on_failed(self, e: ev.QueryFailed) -> None:
        track = self._queries.get(e.query_id)
        if track is not None:
            track.failed_at = e.t

    def _on_shed(self, e: ev.QueryShed) -> None:
        track = self._queries.get(e.query_id)
        if track is None:
            self._queries[e.query_id] = _QueryTrack(e.t, "", shed=True)
        else:
            track.shed = True

    # ------------------------------------------------------------------
    # derived stats
    # ------------------------------------------------------------------
    @property
    def query_count(self) -> int:
        return len(self._queries)

    def latencies(self, tag: Optional[str] = None) -> List[float]:
        """End-to-end latencies of successful queries, submission order agnostic."""
        return [
            track.finished_at - track.registered_at
            for track in self._queries.values()
            if track.finished_at is not None
            and (tag is None or track.tag == tag)
        ]

    def failed_count(self, tag: Optional[str] = None) -> int:
        return sum(
            1
            for track in self._queries.values()
            if track.finished_at is None
            and (tag is None or track.tag == tag)
        )

    def shed_count(self) -> int:
        return sum(1 for track in self._queries.values() if track.shed)

    def tags(self) -> List[str]:
        return sorted({t.tag for t in self._queries.values() if t.tag})

    # ------------------------------------------------------------------
    # fairness + verdicts
    # ------------------------------------------------------------------
    def tenant_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-tag latency percentiles, counts and mean (tenant accounting)."""
        out: Dict[str, Dict[str, float]] = {}
        for tag in self.tags():
            samples = self.latencies(tag)
            stats = latency_percentiles(samples)
            stats["queries"] = float(len(samples) + self.failed_count(tag))
            stats["failed"] = float(self.failed_count(tag))
            stats["mean"] = sum(samples) / len(samples) if samples else 0.0
            out[tag] = stats
        return out

    def fairness(self) -> Dict[str, float]:
        """Jain indices over per-tenant mean latency and p99."""
        per_tenant = self.tenant_stats()
        return {
            "tenants": float(len(per_tenant)),
            "mean_latency_jain": round(
                jain_fairness([s["mean"] for s in per_tenant.values()]), 6
            ),
            "p99_jain": round(
                jain_fairness([s["p99"] for s in per_tenant.values()]), 6
            ),
        }

    def verdict(self, scenario: str, seed: int, target: SloTarget) -> Dict:
        """The serialisable SLO verdict object for one scenario run."""
        verdict = slo_verdict(
            scenario, seed, target, self.latencies(),
            self.query_count, self.failed_count(), self.shed_count(),
        )
        tenants = self.tenant_stats()
        if tenants:
            verdict["tenants"] = {
                tag: {k: round(v, 6) for k, v in stats.items()}
                for tag, stats in tenants.items()
            }
            verdict["fairness"] = self.fairness()
        return verdict

    def engine_verdicts(
        self, targets: Dict[str, EngineSloTarget], duration: float
    ) -> Dict[str, Dict]:
        """Per-engine-class verdicts for a mixed-engine run.

        On a :class:`RingDatabase` each query's registration tag
        *is* its engine class (``mal`` / ``kv`` /
        ``stream``), so this reuses the tenant machinery: for every
        engine in ``targets`` it gates the declared objectives --
        ``p99`` for point lookups, ``min_throughput`` (successes per
        simulated second over ``duration``) for streaming folds -- and
        returns a dict ready to embed as ``verdict["engine_classes"]``
        (``validate_verdict`` checks it when present).
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        out: Dict[str, Dict] = {}
        for engine, target in sorted(targets.items()):
            samples = sorted(self.latencies(engine))
            failed = self.failed_count(engine)
            total = len(samples) + failed
            p99 = exact_quantile(samples, 0.99)
            throughput = len(samples) / duration
            failure_rate = failed / total if total else 0.0
            passed: Dict[str, bool] = {}
            if target.p99 is not None:
                passed["p99"] = p99 <= target.p99
            if target.min_throughput is not None:
                passed["throughput"] = throughput >= target.min_throughput
            passed["failure_rate"] = failure_rate <= target.max_failure_rate
            out[engine] = {
                "queries": total,
                "succeeded": len(samples),
                "failed": failed,
                "p99": round(p99, 6),
                "throughput": round(throughput, 6),
                "failure_rate": round(failure_rate, 6),
                "target": target.as_dict(),
                "passed": passed,
                "ok": all(passed.values()),
            }
        return out


# ----------------------------------------------------------------------
# verdict schema
# ----------------------------------------------------------------------
_REQUIRED_FIELDS: Tuple[Tuple[str, type], ...] = (
    ("scenario", str),
    ("seed", int),
    ("queries", int),
    ("succeeded", int),
    ("failed", int),
    ("shed", int),
    ("failure_rate", float),
    ("latency", dict),
    ("target", dict),
    ("passed", dict),
    ("ok", bool),
)

_PERCENTILE_KEYS = tuple(name for name, _q in PERCENTILES)


def validate_verdict(verdict: Dict) -> None:
    """Raise ``ValueError`` unless ``verdict`` matches the SLO schema.

    Every scenario run passes its verdict through this before
    returning it, so schema drift fails ``repro scenarios`` and
    tests/test_scenario_gates.py even when the SLO itself is met.
    """
    for name, expected in _REQUIRED_FIELDS:
        if name not in verdict:
            raise ValueError(f"verdict missing field {name!r}")
        value = verdict[name]
        if expected is float:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"verdict field {name!r} must be a number")
        elif not isinstance(value, expected):
            raise ValueError(
                f"verdict field {name!r} must be {expected.__name__}, "
                f"got {type(value).__name__}"
            )
    for section in ("latency", "target"):
        for key in _PERCENTILE_KEYS:
            if key not in verdict[section]:
                raise ValueError(f"verdict {section!r} missing {key!r}")
            if verdict[section][key] < 0:
                raise ValueError(f"verdict {section!r}[{key!r}] is negative")
    for key in (*_PERCENTILE_KEYS, "failure_rate"):
        if key not in verdict["passed"]:
            raise ValueError(f"verdict 'passed' missing {key!r}")
        if not isinstance(verdict["passed"][key], bool):
            raise ValueError(f"verdict 'passed'[{key!r}] must be a bool")
    if verdict["ok"] != all(verdict["passed"].values()):
        raise ValueError("verdict 'ok' contradicts its 'passed' map")
    if verdict["queries"] != verdict["succeeded"] + verdict["failed"]:
        raise ValueError("verdict counts do not add up")
    # mixed-engine scenarios attach per-engine-class verdicts (docs/qpu.md)
    for engine, section in verdict.get("engine_classes", {}).items():
        if not isinstance(section, dict):
            raise ValueError(f"engine_classes[{engine!r}] must be a dict")
        for key in ("queries", "succeeded", "failed", "target", "passed", "ok"):
            if key not in section:
                raise ValueError(f"engine_classes[{engine!r}] missing {key!r}")
        for key, value in section["passed"].items():
            if not isinstance(value, bool):
                raise ValueError(
                    f"engine_classes[{engine!r}] 'passed'[{key!r}] must be a bool"
                )
        if section["ok"] != all(section["passed"].values()):
            raise ValueError(
                f"engine_classes[{engine!r}] 'ok' contradicts its 'passed' map"
            )
        if section["queries"] != section["succeeded"] + section["failed"]:
            raise ValueError(f"engine_classes[{engine!r}] counts do not add up")
