"""Statistics catalog + query estimator accuracy (docs/frontdoor.md).

Two layers of guarantees:

* **Property tests** -- the equi-depth histogram's cumulative estimate
  is provably within ``max_bucket_fraction`` of the true fraction
  (linear interpolation can only be wrong inside the straddled
  bucket), selectivities stay in [0, 1], and the distinct sketch is
  exact below its capacity.
* **The estimator's own answers** -- a KV hit and miss and a
  streaming fold are priced exactly as their engine compiles them, a
  request no engine accepts or its engine refuses is an
  ``EstimateError``, and the feedback loop folds predicted against
  actual.  ``tests/test_pricing_parity.py`` holds every request source
  (the QPU golden harness streams below among them) to what ``compile``
  declares, byte for byte; ``tests/test_pricing_golden.py`` pins the
  selectivities and query classes.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dbms.qpu import KvLookup, StreamAggregate
from repro.dbms.statistics import (
    DistinctSketch,
    EquiDepthHistogram,
    EstimateError,
    StatisticsCatalog,
)
from tests.qpu_harness import _base_table, _ring_config

SETTINGS = {
    "deadline": None,
    "max_examples": 60,
    "suppress_health_check": [HealthCheck.too_slow],
}

floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
samples = st.lists(floats, min_size=1, max_size=200)


# ----------------------------------------------------------------------
# histogram properties
# ----------------------------------------------------------------------
@settings(**SETTINGS)
@given(values=samples, probe=floats, n_buckets=st.integers(1, 16))
def test_histogram_cumulative_within_bucket_bound(values, probe, n_buckets):
    hist = EquiDepthHistogram(np.array(values), n_buckets=n_buckets)
    true = sum(1 for v in values if v <= probe) / len(values)
    est = hist.fraction_le(probe)
    assert 0.0 <= est <= 1.0
    assert abs(est - true) <= hist.max_bucket_fraction + 1e-9


@settings(**SETTINGS)
@given(values=samples, a=floats, b=floats)
def test_histogram_cumulative_is_monotonic(values, a, b):
    hist = EquiDepthHistogram(np.array(values))
    lo, hi = min(a, b), max(a, b)
    assert hist.fraction_le(lo) <= hist.fraction_le(hi) + 1e-12
    frac = hist.fraction_between(lo, hi, low_inclusive=True, high_inclusive=True)
    assert -1e-12 <= frac <= 1.0 + 1e-12


@settings(**SETTINGS)
@given(values=samples)
def test_histogram_extremes_are_exact(values):
    hist = EquiDepthHistogram(np.array(values))
    assert hist.fraction_le(max(values)) == pytest.approx(1.0)
    assert hist.fraction_le(min(values) - 1.0) == 0.0


# ----------------------------------------------------------------------
# distinct sketch
# ----------------------------------------------------------------------
@settings(**SETTINGS)
@given(st.lists(st.integers(0, 100), min_size=1, max_size=150))
def test_distinct_sketch_exact_below_capacity(values):
    # <= 101 possible distincts, capacity 256: always exact
    assert DistinctSketch(np.array(values)).estimate == len(set(values))


def test_distinct_sketch_estimates_large_cardinalities():
    rng = np.random.default_rng(7)
    values = rng.integers(0, 50_000, 20_000)
    true = len(np.unique(values))
    est = DistinctSketch(values, k=256).estimate
    assert true / 2 <= est <= true * 2  # KMV with k=256: ~6% typical error


def test_distinct_sketch_is_deterministic():
    values = np.arange(10_000)
    assert DistinctSketch(values).estimate == DistinctSketch(values).estimate


# ----------------------------------------------------------------------
# column selectivities stay in [0, 1]
# ----------------------------------------------------------------------
@settings(**SETTINGS)
@given(probe=floats, op=st.sampled_from(["==", "!=", "<", "<=", ">", ">="]))
def test_column_selectivity_bounds(probe, op):
    from repro.dbms.catalog import Catalog

    catalog = Catalog()
    catalog.load_table("sys", "t", _base_table(3), rows_per_partition=100)
    stats = StatisticsCatalog.from_catalog(catalog)
    col = stats.table("sys", "t").column("v")
    assert 0.0 <= col.selectivity_cmp(op, probe) <= 1.0
    assert 0.0 <= col.selectivity_between(min(probe, 0.0), max(probe, 0.0)) <= 1.0


# ----------------------------------------------------------------------
# the QPU golden harness request streams (tests/test_pricing_parity.py)
# ----------------------------------------------------------------------
def _uniform_requests(seed):
    """The exact query stream of ``qpu_harness.run_uniform``."""
    n_rows = 1200
    rng = random.Random(1000 + seed)
    out = []
    for i in range(12):
        lo = rng.randrange(0, n_rows - 100)
        hi = lo + rng.randrange(50, 400)
        kind = i % 3
        if kind == 0:
            sql = f"SELECT v FROM t WHERE id >= {lo} AND id < {hi}"
        elif kind == 1:
            sql = (
                f"SELECT g, sum(v) s FROM t "
                f"WHERE id >= {lo} AND id < {hi} GROUP BY g"
            )
        else:
            sql = f"SELECT count(*) c FROM t WHERE g = {rng.randrange(8)}"
        rng.randrange(4)  # the node draw, kept to stay stream-aligned
        out.append(sql)
    return out


def _gaussian_requests(seed):
    """The exact query stream of ``qpu_harness.run_gaussian``."""
    n_rows = 1200
    rng = random.Random(2000 + seed)
    out = []
    for i in range(16):
        center = int(rng.gauss(n_rows / 2, n_rows / 8))
        center = max(0, min(n_rows - 1, center))
        width = rng.randrange(40, 200)
        lo = max(0, center - width)
        hi = min(n_rows, center + width)
        if i % 2 == 0:
            sql = f"SELECT v FROM t WHERE id >= {lo} AND id < {hi}"
        else:
            sql = (
                f"SELECT g, avg(v) a FROM t "
                f"WHERE id >= {lo} AND id < {hi} GROUP BY g"
            )
        rng.randrange(4)
        out.append(sql)
    return out


def _rdb():
    from repro.dbms.executor import RingDatabase

    rdb = RingDatabase(_ring_config(0))
    rdb.load_table("t", _base_table(0, 1200), rows_per_partition=100)
    return rdb


def test_estimator_prices_kv_and_stream():
    rdb = _rdb()
    for request, nbytes, selectivity in [
        (KvLookup(table="t", key=5, column="v"), 800, 1 / 1200),
        (KvLookup(table="t", key=1150, column="v"), 800, 1 / 1200),
        (KvLookup(table="t", key=-3, column="v"), 0, 0.0),     # miss: zero bytes
        (KvLookup(table="t", key=99999, column="v"), 0, 0.0),  # miss past the end
        (StreamAggregate(table="t", value_column="v", func="sum"), 9600, 1.0),
        (StreamAggregate(table="t", value_column="v", func="avg",
                         group_column="g"), 19200, 1.0),
    ]:
        qpu = rdb.route(request)
        compiled = qpu.compile(request)
        est = rdb.estimator.estimate(request)
        assert (est.engine, est.footprint_bytes, est.description, est.cost) == (
            compiled.engine, compiled.footprint_bytes, compiled.description,
            qpu.estimate_cost(compiled),
        ), request
        assert (est.footprint_bytes, est.selectivity) == (nbytes, selectivity)


def test_estimator_rejects_what_it_cannot_price():
    estimator = _rdb().estimator
    for request in [
        "SELECT v FROM nowhere",
        "THIS IS NOT SQL",
        "SELECT v, sum(v) s FROM t",      # the planner refuses it
        KvLookup(table="nowhere", key=1, column="v"),
        StreamAggregate(table="t", value_column="v", func="median"),
        ("not", "a", "request"),          # no engine accepts it
    ]:
        with pytest.raises(EstimateError):
            estimator.estimate(request)


# ----------------------------------------------------------------------
# the feedback loop
# ----------------------------------------------------------------------
def test_accuracy_report_folds_predicted_vs_actual():
    estimator = _rdb().estimator
    est = estimator.estimate("SELECT v FROM t WHERE id < 50")
    estimator.record(est, est.footprint_bytes, service_time=0.5)
    estimator.record(est, est.footprint_bytes * 2, service_time=1.5)
    report = estimator.accuracy_report()
    cls = report[est.query_class]
    assert cls["queries"] == 2
    assert cls["exact_bytes_fraction"] == pytest.approx(0.5)
    assert cls["min_bytes_ratio"] == pytest.approx(0.5)
    assert cls["max_bytes_ratio"] == pytest.approx(1.0)
    assert cls["mean_service_time"] == pytest.approx(1.0)
