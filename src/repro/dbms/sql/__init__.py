"""A small SQL front-end compiling to MAL plans (paper section 3.2).

Supports the SELECT-project-join-aggregate fragment the paper's plans
exercise::

    SELECT c.t_id FROM t, c WHERE c.t_id = t.id;

plus filters (=, !=, <, <=, >, >=, BETWEEN, IN), arithmetic expressions,
aggregates (SUM/MIN/MAX/AVG/COUNT), GROUP BY, ORDER BY and LIMIT, with
conjunctive (AND) predicates.  The planner emits the column-at-a-time
BAT algebra of section 3; the resulting plan is exactly what the
DC optimizer of section 4.1 rewrites for ring execution.
"""

from repro.dbms.sql.parser import (
    AggCall,
    BinOp,
    ColumnRef,
    Comparison,
    HavingCond,
    Literal,
    OrGroup,
    Select,
    SqlError,
    parse,
    parse_cached,
)
from repro.dbms.sql.planner import plan_select

__all__ = [
    "AggCall",
    "BinOp",
    "ColumnRef",
    "Comparison",
    "HavingCond",
    "Literal",
    "OrGroup",
    "Select",
    "SqlError",
    "parse",
    "parse_cached",
    "plan_select",
]
