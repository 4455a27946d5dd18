"""Per-table / per-column statistics built deterministically from data.

The summaries are classical cost-model fare:

* **counts** -- rows, partitions and bytes per column, straight from
  the loaded BATs (these are *exact*: the catalog stores the arrays we
  summarise);
* **equi-depth histograms** over numeric columns, giving range
  selectivities with a provable error bound of one bucket's mass;
* **distinct-value sketches** (bottom-k / KMV) for equality
  selectivities without retaining the values.

Everything is a pure function of the loaded data, so two runs over the
same catalog produce byte-identical statistics -- the property the
scenario determinism gates rely on.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.dbms.catalog import Catalog, Table

__all__ = [
    "EquiDepthHistogram",
    "DistinctSketch",
    "ColumnStats",
    "TableStats",
    "StatisticsCatalog",
]

DEFAULT_BUCKETS = 32
SKETCH_SIZE = 256


class EquiDepthHistogram:
    """Equal-mass buckets with exact cumulative counts at the edges.

    ``edges`` are values drawn from the sorted column at positions
    ``i * n / k``; ``cum_left[i]`` / ``cum_right[i]`` are the *exact*
    counts of values ``< edges[i]`` / ``<= edges[i]``.  Estimates
    interpolate linearly inside the straddled bucket, so any cumulative
    estimate is within that bucket's mass of the truth:

        |est_le(x) - true_le(x)| <= max_bucket_fraction

    which the property tests in ``tests/test_statistics.py`` assert.
    """

    __slots__ = ("edges", "cum_left", "cum_right", "n", "n_buckets")

    def __init__(self, values: np.ndarray, n_buckets: int = DEFAULT_BUCKETS):
        s = np.sort(np.asarray(values, dtype=np.float64))
        n = len(s)
        if n == 0:
            raise ValueError("cannot build a histogram over zero rows")
        k = max(1, min(int(n_buckets), n))
        idx = [min(n - 1, (i * n) // k) for i in range(k)] + [n - 1]
        edges = s[idx]
        self.edges = [float(e) for e in edges]
        self.cum_left = [int(c) for c in np.searchsorted(s, edges, side="left")]
        self.cum_right = [int(c) for c in np.searchsorted(s, edges, side="right")]
        self.n = n
        self.n_buckets = k

    @property
    def max_bucket_fraction(self) -> float:
        """The largest single bucket's share of the rows (the error bound)."""
        worst = max(
            self.cum_right[i + 1] - self.cum_left[i]
            for i in range(len(self.edges) - 1)
        )
        return worst / self.n

    # ------------------------------------------------------------------
    def _cum_estimate(self, x: float, cum: List[int]) -> float:
        """Interpolated count from the exact per-edge cumulatives."""
        edges = self.edges
        if x < edges[0]:
            return 0.0
        if x >= edges[-1]:
            return float(cum[-1])
        # rightmost bucket with edges[i] <= x (linear scan: k is small)
        i = 0
        for j in range(len(edges) - 1):
            if edges[j] <= x:
                i = j
        lo, hi = cum[i], cum[i + 1]
        width = edges[i + 1] - edges[i]
        frac = 0.0 if width <= 0.0 else (x - edges[i]) / width
        return lo + (hi - lo) * frac

    def fraction_le(self, x: float) -> float:
        """Estimated fraction of values ``<= x``."""
        return self._cum_estimate(float(x), self.cum_right) / self.n

    def fraction_lt(self, x: float) -> float:
        """Estimated fraction of values ``< x``."""
        return self._cum_estimate(float(x), self.cum_left) / self.n

    def fraction_between(
        self, low: float, high: float,
        low_inclusive: bool = True, high_inclusive: bool = True,
    ) -> float:
        """Estimated fraction of values in the given interval."""
        if high < low:
            return 0.0
        upper = self.fraction_le(high) if high_inclusive else self.fraction_lt(high)
        lower = self.fraction_lt(low) if low_inclusive else self.fraction_le(low)
        return max(0.0, upper - lower)


def _hash01(value) -> float:
    """A deterministic hash of a value into [0, 1).

    ``zlib.crc32`` rather than ``hash()``: python salts string hashes
    per process, which would make the sketch -- and every admission
    verdict downstream of it -- irreproducible across runs.
    """
    h = zlib.crc32(repr(value).encode("utf-8", "backslashreplace"))
    return h / 4294967296.0


class DistinctSketch:
    """Bottom-k (KMV) distinct-count sketch with an exact small-set path.

    Keeps the ``k`` smallest hashes of the values seen; if fewer than
    ``k`` distinct hashes exist the count is exact, otherwise the
    classical KMV estimator ``(k - 1) / kth_smallest`` applies.
    """

    __slots__ = ("k", "_kept", "_exact")

    def __init__(self, values: np.ndarray, k: int = SKETCH_SIZE):
        self.k = int(k)
        # dedupe first: hashing each distinct value once keeps the
        # build O(n log n) and the kept set minimal
        distinct = np.unique(np.asarray(values))
        hashes = sorted(_hash01(v) for v in distinct.tolist())
        self._exact = len(hashes) < self.k
        self._kept = hashes[: self.k]

    @property
    def estimate(self) -> int:
        if self._exact:
            return len(self._kept)
        return max(self.k, int(round((self.k - 1) / self._kept[-1])))


@dataclass
class ColumnStats:
    """Everything the estimator knows about one column."""

    schema: str
    table: str
    column: str
    n_rows: int
    n_partitions: int
    total_bytes: int
    dtype: str
    numeric: bool
    vmin: Optional[float] = None
    vmax: Optional[float] = None
    n_distinct: int = 0
    histogram: Optional[EquiDepthHistogram] = None

    # ------------------------------------------------------------------
    # selectivity of single-column predicates (docs/frontdoor.md)
    # ------------------------------------------------------------------
    def selectivity_eq(self, value) -> float:
        if self.n_rows == 0:
            return 0.0
        if self.numeric and self.vmin is not None:
            try:
                v = float(value)
            except (TypeError, ValueError):
                return 1.0 / max(1, self.n_distinct)
            if v < self.vmin or v > self.vmax:
                return 0.0
        return 1.0 / max(1, self.n_distinct)

    def selectivity_cmp(self, op: str, value) -> float:
        """Selectivity of ``column <op> value`` for a literal value."""
        if op == "==":
            return self.selectivity_eq(value)
        if op == "!=":
            return max(0.0, 1.0 - self.selectivity_eq(value))
        if self.histogram is None:
            return 0.5  # non-numeric range predicate: no information
        try:
            v = float(value)
        except (TypeError, ValueError):
            return 0.5
        h = self.histogram
        if op == "<":
            return h.fraction_lt(v)
        if op == "<=":
            return h.fraction_le(v)
        if op == ">":
            return max(0.0, 1.0 - h.fraction_le(v))
        if op == ">=":
            return max(0.0, 1.0 - h.fraction_lt(v))
        raise ValueError(f"unknown comparison operator {op!r}")

    def selectivity_between(self, low, high) -> float:
        if self.histogram is None:
            return 0.5
        try:
            return self.histogram.fraction_between(float(low), float(high))
        except (TypeError, ValueError):
            return 0.5


@dataclass
class TableStats:
    """Per-table rollup: row count and column statistics."""

    schema: str
    name: str
    n_rows: int
    columns: Dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStats:
        try:
            return self.columns[name]
        except KeyError:
            raise KeyError(
                f"table {self.schema}.{self.name} has no column {name!r}"
            ) from None


class StatisticsCatalog:
    """Deterministic statistics over every table of a :class:`Catalog`."""

    def __init__(self, n_buckets: int = DEFAULT_BUCKETS):
        self.n_buckets = n_buckets
        self._tables: Dict[Tuple[str, str], TableStats] = {}

    # ------------------------------------------------------------------
    @classmethod
    def from_catalog(
        cls, catalog: Catalog, n_buckets: int = DEFAULT_BUCKETS
    ) -> "StatisticsCatalog":
        stats = cls(n_buckets=n_buckets)
        for table in catalog.tables():
            stats.add_table(catalog, table)
        return stats

    def add_table(self, catalog: Catalog, table: Table) -> TableStats:
        """Summarise one loaded table (call again after late loads)."""
        ts = TableStats(schema=table.schema, name=table.name, n_rows=table.n_rows)
        for column in table.columns:
            handles = catalog.column_handles(table.schema, table.name, column)
            values = np.concatenate([h.bat.tail for h in handles])
            numeric = np.issubdtype(values.dtype, np.number)
            cs = ColumnStats(
                schema=table.schema,
                table=table.name,
                column=column,
                n_rows=table.n_rows,
                n_partitions=table.n_partitions,
                total_bytes=sum(h.bat.nbytes for h in handles),
                dtype=str(values.dtype),
                numeric=bool(numeric),
            )
            if table.n_rows:
                cs.n_distinct = DistinctSketch(values).estimate
                if numeric:
                    cs.vmin = float(values.min())
                    cs.vmax = float(values.max())
                    cs.histogram = EquiDepthHistogram(values, self.n_buckets)
            ts.columns[column] = cs
        self._tables[(table.schema, table.name)] = ts
        return ts

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def tables(self) -> List[TableStats]:
        return list(self._tables.values())

    def table(self, schema: str, name: str) -> TableStats:
        try:
            return self._tables[(schema, name)]
        except KeyError:
            raise KeyError(f"no statistics for table {schema}.{name}") from None
