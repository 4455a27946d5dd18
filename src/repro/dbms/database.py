"""A convenience single-node database: catalog + SQL + interpreter.

This is the "single node MonetDB instance" of the paper's TPC-H
calibration (section 5.4): queries run entirely locally against the
in-process column kernel.  The distributed execution path lives in
:mod:`repro.dbms.executor`, which runs the *same* plans -- after the DC
optimizer rewrite -- against a simulated storage ring.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.dbms.catalog import Catalog
from repro.dbms.interpreter import Interpreter, ResultSet, local_registry
from repro.dbms.optimizer import dc_rewrite
from repro.dbms.sql import parse, plan_select
from repro.dbms.sql.planner import PlannedQuery

__all__ = ["Database"]


class Database:
    """An embedded column-store database over the MAL kernel.

    >>> db = Database()
    >>> _ = db.load_table("t", {"id": [1, 2, 3], "v": [10.0, 20.0, 30.0]})
    >>> rs = db.query("SELECT v FROM t WHERE id >= 2")
    >>> rs.rows()
    [(20.0,), (30.0,)]
    """

    def __init__(self, schema: str = "sys"):
        self.schema = schema
        self.catalog = Catalog()
        self.interpreter = Interpreter(local_registry(self.catalog))
        self._plan_counter = 0

    # ------------------------------------------------------------------
    def load_table(
        self,
        name: str,
        data: Dict[str, Sequence],
        rows_per_partition: Optional[int] = None,
        schema: Optional[str] = None,
    ):
        """Create and populate a table from column arrays."""
        return self.catalog.load_table(
            schema if schema is not None else self.schema,
            name,
            data,
            rows_per_partition=rows_per_partition,
        )

    def load_csv(
        self,
        name: str,
        path,
        rows_per_partition: Optional[int] = None,
        schema: Optional[str] = None,
    ):
        """Create a table from a headered CSV file (types inferred)."""
        from repro.dbms.io_utils import read_csv_columns

        return self.load_table(
            name,
            read_csv_columns(path),
            rows_per_partition=rows_per_partition,
            schema=schema,
        )

    # ------------------------------------------------------------------
    def compile(self, sql: str, optimize: bool = False) -> PlannedQuery:
        """SQL text -> MAL plan (the Table 1 shape).

        ``optimize`` runs the targeted rewrite passes of
        :mod:`repro.dbms.passes` (CSE, dead code, peepholes) first --
        the paper's "series of targeted query optimizers".
        """
        planned = self._plan(sql)
        plan = planned.plan
        if optimize:
            from repro.dbms.passes import optimize as run_passes

            plan = run_passes(plan)
        return planned.finished(plan)

    def compile_dc(self, sql: str) -> PlannedQuery:
        """SQL text -> DC-optimized plan (the Table 2 shape)."""
        planned = self._plan(sql)
        return planned.finished(*dc_rewrite(planned.plan))

    def _plan(self, sql: str) -> PlannedQuery:
        self._plan_counter += 1
        ast = parse(sql)
        for ref in ast.tables:
            if ref.schema == "sys" and self.schema != "sys":
                object.__setattr__(ref, "schema", self.schema)
        return plan_select(ast, self.catalog, name=f"user.s{self._plan_counter}_1")

    def execute(self, planned: PlannedQuery) -> ResultSet:
        env = self.interpreter.run(planned.plan, dies=planned.dies)
        return env[planned.result_var]

    def query(self, sql: str, optimize: bool = False) -> ResultSet:
        """Parse, plan and execute locally."""
        return self.execute(self.compile(sql, optimize=optimize))

    def explain(self, sql: str) -> str:
        """The rendered MAL plan, as in the paper's Table 1."""
        return self.compile(sql).plan.render()

    def explain_dc(self, sql: str) -> str:
        """The rendered DC-optimized plan, as in the paper's Table 2."""
        return self.compile_dc(sql).plan.render()
