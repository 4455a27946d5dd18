"""Statistics catalog + pre-compilation query estimator (docs/frontdoor.md).

The paper's cyclotron economics (admission, LOI tuning, hot-set
competition) assume a query's BAT footprint is known *before* it rides
the ring.  Inside the engine that knowledge only exists after a QPU
compiles (``CompiledQuery.footprint_bytes``).  This package moves it in
front of compilation: :class:`StatisticsCatalog` summarises every loaded
table deterministically (row counts, widths, equi-depth histograms,
distinct-value sketches) and :class:`QueryEstimator` asks the engine
that would run a request -- SQL text / ``MalQuery`` / ``KvLookup`` /
``StreamAggregate`` -- for its price (``QueryProcessingUnit.price``:
engine class, footprint, operator cost), adds the selectivity of its
selections from the histograms, and keeps an accuracy feedback loop
recording predicted-vs-actual per query class.
"""

from repro.dbms.statistics.catalog import (
    ColumnStats,
    EquiDepthHistogram,
    DistinctSketch,
    StatisticsCatalog,
    TableStats,
)
from repro.dbms.statistics.estimator import (
    EstimateError,
    QueryEstimate,
    QueryEstimator,
)

__all__ = [
    "ColumnStats",
    "DistinctSketch",
    "EquiDepthHistogram",
    "EstimateError",
    "QueryEstimate",
    "QueryEstimator",
    "StatisticsCatalog",
    "TableStats",
]
