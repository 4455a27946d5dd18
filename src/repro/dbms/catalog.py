"""Schema catalog: tables, partitioned columns, persistent BAT naming.

The Data Cyclotron setup (section 4, Figure 2) assumes "each partition
to be an individual BAT easily fitting in main memory".  The catalog
therefore stores every column as a list of partition BATs with global
row OIDs (partition *p* of a table with ``rows_per_partition`` rows has
``hseqbase = p * rows_per_partition``), and assigns each partition BAT a
global integer id -- the ``bat_id`` circulating in the storage ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dbms.bat import BAT

__all__ = ["Catalog", "Table", "ColumnHandle"]

BatKey = Tuple[str, str, str, int]  # (schema, table, column, partition)


@dataclass
class ColumnHandle:
    """One partition of one column: the unit the ring ships around."""

    bat_id: int
    schema: str
    table: str
    column: str
    partition: int
    bat: BAT

    @property
    def key(self) -> BatKey:
        return (self.schema, self.table, self.column, self.partition)


@dataclass
class Table:
    schema: str
    name: str
    columns: List[str]
    n_rows: int = 0
    n_partitions: int = 1

    def has_column(self, column: str) -> bool:
        return column in self.columns


class Catalog:
    """The SQL catalog the ``bind`` calls of Table 1 resolve against."""

    def __init__(self) -> None:
        self._tables: Dict[Tuple[str, str], Table] = {}
        self._handles: Dict[BatKey, ColumnHandle] = {}
        self._by_id: Dict[int, ColumnHandle] = {}
        self._next_bat_id = 0
        #: bumped whenever a plan compiled earlier might bind differently
        #: now (today: every registered partition BAT); compiled-plan
        #: caches compare it to decide whether they are still valid
        self.version = 0

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def load_table(
        self,
        schema: str,
        name: str,
        data: Dict[str, Sequence],
        rows_per_partition: Optional[int] = None,
    ) -> Table:
        """Register a table from column arrays, splitting into partitions.

        All columns must have equal length.  ``rows_per_partition=None``
        keeps the table in a single partition.
        """
        if (schema, name) in self._tables:
            raise ValueError(f"table {schema}.{name} already exists")
        if not data:
            raise ValueError("a table needs at least one column")
        arrays = {col: np.asarray(values) for col, values in data.items()}
        lengths = {len(a) for a in arrays.values()}
        if len(lengths) != 1:
            raise ValueError(f"column lengths differ: {lengths}")
        n_rows = lengths.pop()
        if rows_per_partition is None or rows_per_partition >= n_rows:
            rows_per_partition = max(n_rows, 1)
        if rows_per_partition <= 0:
            raise ValueError("rows_per_partition must be positive")
        n_partitions = max(1, -(-n_rows // rows_per_partition))

        table = Table(
            schema=schema,
            name=name,
            columns=list(arrays),
            n_rows=n_rows,
            n_partitions=n_partitions,
        )
        self._tables[(schema, name)] = table
        for column, array in arrays.items():
            for part in range(n_partitions):
                lo = part * rows_per_partition
                hi = min(lo + rows_per_partition, n_rows)
                bat = BAT(array[lo:hi], head=None, hseqbase=lo)
                self._register(schema, name, column, part, bat)
        return table

    def _register(
        self, schema: str, name: str, column: str, part: int, bat: BAT
    ) -> ColumnHandle:
        handle = ColumnHandle(
            bat_id=self._next_bat_id,
            schema=schema,
            table=name,
            column=column,
            partition=part,
            bat=bat,
        )
        self._next_bat_id += 1
        self.version += 1
        self._handles[handle.key] = handle
        self._by_id[handle.bat_id] = handle
        return handle

    # ------------------------------------------------------------------
    # lookup (what sql.bind resolves)
    # ------------------------------------------------------------------
    def table(self, schema: str, name: str) -> Table:
        try:
            return self._tables[(schema, name)]
        except KeyError:
            raise KeyError(f"unknown table {schema}.{name}") from None

    def has_table(self, schema: str, name: str) -> bool:
        return (schema, name) in self._tables

    def bind(self, schema: str, table: str, column: str, partition: int) -> BAT:
        """The ``sql.bind`` of Table 1: localise a persistent BAT."""
        return self.handle(schema, table, column, partition).bat

    def handle(
        self, schema: str, table: str, column: str, partition: int
    ) -> ColumnHandle:
        key = (schema, table, column, partition)
        try:
            return self._handles[key]
        except KeyError:
            raise KeyError(f"unknown BAT {key}") from None

    def handle_by_id(self, bat_id: int) -> ColumnHandle:
        return self._by_id[bat_id]

    def column_handles(
        self, schema: str, table: str, column: str
    ) -> List[ColumnHandle]:
        """All partitions of one column, in partition order."""
        t = self.table(schema, table)
        if not t.has_column(column):
            raise KeyError(f"table {schema}.{table} has no column {column!r}")
        return [
            self._handles[(schema, table, column, p)] for p in range(t.n_partitions)
        ]

    def all_handles(self) -> List[ColumnHandle]:
        return list(self._handles.values())

    def tables(self) -> List[Table]:
        return list(self._tables.values())

    @property
    def total_bytes(self) -> int:
        return sum(h.bat.nbytes for h in self._handles.values())
