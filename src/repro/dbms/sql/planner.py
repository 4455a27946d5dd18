"""SQL AST -> MAL plan: the column-at-a-time planner.

Follows the plan shape of the paper's Table 1: bind the persistent
columns, reduce them with filter expressions, join them column pair by
column pair (``algebra.join`` after a ``bat.reverse``), re-align with
``algebra.markT``/``markH``, and finally construct the result table.

The planner keeps, for every joined table, a *row map*: a dense-headed
BAT mapping result-row ids to that table's OIDs.  Joins multiply rows
and therefore remap every previously joined table through the join's
position list -- precisely the join-thread structure of Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.dbms.catalog import Catalog
from repro.dbms.mal import Dies, Plan, Var, end_of_life
from repro.dbms.sql.parser import (
    AggCall,
    Between,
    BinOp,
    ColumnRef,
    Comparison,
    InList,
    Literal,
    OrderItem,
    OrGroup,
    Select,
    SelectItem,
    SqlError,
    Star,
    TableRef,
)

__all__ = ["plan_select", "PlannedQuery"]


@dataclass
class PlannedQuery:
    """A compiled query: the MAL plan plus its result variable name.

    ``dies`` is the plan's end-of-life table (:func:`repro.dbms.mal.
    end_of_life`), built once per compile by whoever finishes the plan;
    an interpreter given it frees each intermediate after its last use.
    ``None`` keeps every variable until the plan ends.
    """

    plan: Plan
    result_var: str
    column_names: List[str]
    dies: Optional[Dies] = None

    def finished(
        self, plan: Plan, last_use: Optional[Dict[str, int]] = None
    ) -> "PlannedQuery":
        """This query with its final (rewritten) ``plan`` and that
        plan's end-of-life table (``last_use`` as in
        :func:`~repro.dbms.mal.end_of_life`)."""
        return PlannedQuery(
            plan=plan,
            result_var=self.result_var,
            column_names=self.column_names,
            dies=end_of_life(plan, self.result_var, last_use),
        )


def plan_select(select: Select, catalog: Catalog, name: str = "user.s1_1") -> PlannedQuery:
    return _Planner(select, catalog, name).compile()


class _Planner:
    def __init__(self, select: Select, catalog: Catalog, name: str):
        self.select = select  # read-only: the AST may be shared
        self.items: List[SelectItem] = select.items  # after * expansion
        self.catalog = catalog
        self.plan = Plan(name)
        # binding name -> TableRef
        self.bindings: Dict[str, TableRef] = {}
        for ref in select.tables:
            if ref.binding in self.bindings:
                raise SqlError(f"duplicate table binding {ref.binding!r}")
            if not catalog.has_table(ref.schema, ref.name):
                raise SqlError(f"unknown table {ref.schema}.{ref.name}")
            self.bindings[ref.binding] = ref
        self._columns: Dict[Tuple[str, str], Var] = {}   # full bound columns
        self._cands: Dict[str, Optional[Var]] = {b: None for b in self.bindings}
        self._maps: Dict[str, Var] = {}                  # result-row -> oid

    # ==================================================================
    def compile(self) -> PlannedQuery:
        self._expand_star()
        singles, joins, filters = self._classify_predicates()
        for binding, preds in singles.items():
            self._build_candidates(binding, preds)
        self._build_state(joins)
        for pred in filters:
            self._apply_filter(pred)
        names, columns = self._build_output()
        if self.select.having:
            columns = self._apply_having(columns)
        columns = self._apply_order_limit(names, columns)
        rs = self.plan.emit("sql", "resultSet", ())
        for colname, var in zip(names, columns):
            rs = self.plan.emit("sql", "rsCol", (rs, colname, var))
        return PlannedQuery(plan=self.plan, result_var=rs.name, column_names=names)

    def _expand_star(self) -> None:
        """Replace ``SELECT *`` by every column of the FROM tables."""
        if not any(isinstance(item.expr, Star) for item in self.items):
            return
        if len(self.items) != 1:
            raise SqlError("* cannot be combined with other select items")
        if self.select.group_by:
            raise SqlError("* is not allowed with GROUP BY")
        expanded: List[SelectItem] = []
        for ref in self.select.tables:
            table = self.catalog.table(ref.schema, ref.name)
            expanded.extend(
                SelectItem(expr=ColumnRef(column, table=ref.binding))
                for column in table.columns
            )
        self.items = expanded

    # ==================================================================
    # name resolution and column binding
    # ==================================================================
    def _resolve(self, ref: ColumnRef) -> Tuple[str, str]:
        """Return (binding, column) for a column reference."""
        if ref.table is not None:
            if ref.table not in self.bindings:
                raise SqlError(f"unknown table reference {ref.table!r}")
            table = self.bindings[ref.table]
            if not self.catalog.table(table.schema, table.name).has_column(ref.column):
                raise SqlError(f"no column {ref.column!r} in {table.name}")
            return ref.table, ref.column
        owners = [
            b
            for b, t in self.bindings.items()
            if self.catalog.table(t.schema, t.name).has_column(ref.column)
        ]
        if not owners:
            raise SqlError(f"unknown column {ref.column!r}")
        if len(owners) > 1:
            raise SqlError(f"ambiguous column {ref.column!r} (in {owners})")
        return owners[0], ref.column

    def _bind_column(self, binding: str, column: str) -> Var:
        """Bind (once) all partitions of a column and union them."""
        key = (binding, column)
        var = self._columns.get(key)
        if var is not None:
            return var
        table = self.bindings[binding]
        n_parts = self.catalog.table(table.schema, table.name).n_partitions
        parts = [
            self.plan.emit("sql", "bind", (table.schema, table.name, column, p))
            for p in range(n_parts)
        ]
        var = parts[0]
        for part in parts[1:]:
            var = self.plan.emit("algebra", "kunion", (var, part))
        self._columns[key] = var
        return var

    # ==================================================================
    # predicate classification
    # ==================================================================
    def _classify_predicates(self):
        singles: Dict[str, list] = {b: [] for b in self.bindings}
        joins: List[Tuple[Tuple[str, str], Tuple[str, str]]] = []
        filters: list = []
        for pred in self.select.where:
            if isinstance(pred, (Between, InList)):
                binding, _ = self._resolve(pred.col)
                singles[binding].append(pred)
                continue
            if isinstance(pred, OrGroup):
                singles[self._or_group_binding(pred)].append(pred)
                continue
            assert isinstance(pred, Comparison)
            lcol = isinstance(pred.left, ColumnRef)
            rcol = isinstance(pred.right, ColumnRef)
            if lcol and rcol:
                lb, lc = self._resolve(pred.left)
                rb, rc = self._resolve(pred.right)
                if lb != rb and pred.op == "==":
                    joins.append(((lb, lc), (rb, rc)))
                else:
                    filters.append(pred)
            elif lcol and isinstance(pred.right, Literal):
                lb, _ = self._resolve(pred.left)
                singles[lb].append(pred)
            elif rcol and isinstance(pred.left, Literal):
                rb, _ = self._resolve(pred.right)
                # normalise literal-op-column to column-op'-literal
                flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
                op = flip.get(pred.op, pred.op)
                singles[rb].append(Comparison(op=op, left=pred.right, right=pred.left))
            else:
                raise SqlError(f"unsupported predicate {pred}")
        return singles, joins, filters

    def _or_group_binding(self, group: OrGroup) -> str:
        """The single table an OR group restricts; every branch must be a
        single-table predicate on that same table."""
        bindings = set()
        for pred in group.preds:
            if isinstance(pred, (Between, InList)):
                bindings.add(self._resolve(pred.col)[0])
            elif (
                isinstance(pred, Comparison)
                and isinstance(pred.left, ColumnRef)
                and isinstance(pred.right, Literal)
            ):
                bindings.add(self._resolve(pred.left)[0])
            else:
                raise SqlError(
                    "OR branches must be single-table column-vs-literal predicates"
                )
        if len(bindings) != 1:
            raise SqlError(
                f"OR branches must reference one table, found {sorted(bindings)}"
            )
        return bindings.pop()

    # ==================================================================
    # candidates: single-table selections
    # ==================================================================
    def _build_candidates(self, binding: str, preds: list) -> None:
        cand: Optional[Var] = None
        for pred in preds:
            sel = self._selection(binding, pred)
            mirrored = self.plan.emit("bat", "mirror", (sel,))
            if cand is None:
                cand = mirrored
            else:
                cand = self.plan.emit("algebra", "kintersect", (cand, mirrored))
        self._cands[binding] = cand

    def _selection(self, binding: str, pred) -> Var:
        if isinstance(pred, OrGroup):
            branches = [self._selection(binding, p) for p in pred.preds]
            out = branches[0]
            for branch in branches[1:]:
                out = self.plan.emit("algebra", "kunion", (out, branch))
            # OR branches may overlap: restore set semantics on the heads
            return self.plan.emit("algebra", "uniqueHeads", (out,))
        if isinstance(pred, Between):
            col = self._bind_column(binding, pred.col.column)
            return self.plan.emit(
                "algebra", "select", (col, pred.low.value, pred.high.value)
            )
        if isinstance(pred, InList):
            col = self._bind_column(binding, pred.col.column)
            parts = [
                self.plan.emit("algebra", "selectEq", (col, lit.value))
                for lit in pred.values
            ]
            out = parts[0]
            for p in parts[1:]:
                out = self.plan.emit("algebra", "kunion", (out, p))
            return out
        assert isinstance(pred, Comparison)
        assert isinstance(pred.left, ColumnRef) and isinstance(pred.right, Literal)
        col = self._bind_column(binding, pred.left.column)
        value = pred.right.value
        if pred.op == "==":
            return self.plan.emit("algebra", "selectEq", (col, value))
        if pred.op in ("<", "<="):
            return self.plan.emit(
                "algebra", "select", (col, None, value, True, pred.op == "<=")
            )
        if pred.op in (">", ">="):
            return self.plan.emit(
                "algebra", "select", (col, value, None, pred.op == ">=", True)
            )
        # != : compare then keep the True pairs
        cmp = self.plan.emit("calc", "compare", ("!=", col, value))
        return self.plan.emit("algebra", "selectEq", (cmp, True))

    # ==================================================================
    # join-state construction
    # ==================================================================
    def _init_state(self, binding: str) -> None:
        cand = self._cands[binding]
        if cand is None:
            universe = self._bind_column(binding, self._any_column(binding))
            cand = self.plan.emit("bat", "mirror", (universe,))
            self._cands[binding] = cand
        self._maps[binding] = self.plan.emit("algebra", "positions", (cand,))

    def _any_column(self, binding: str) -> str:
        ref = self.bindings[binding]
        return self.catalog.table(ref.schema, ref.name).columns[0]

    def _build_state(self, joins) -> None:
        order = [ref.binding for ref in self.select.tables]
        self._init_state(order[0])
        pending = list(joins)
        while pending:
            progressed = False
            for i, ((lb, lc), (rb, rc)) in enumerate(pending):
                if lb in self._maps and rb in self._maps:
                    # both sides joined already: a cycle edge -> filter
                    self._apply_filter(
                        Comparison("==", ColumnRef(lc, lb), ColumnRef(rc, rb))
                    )
                    pending.pop(i)
                    progressed = True
                    break
                if lb in self._maps:
                    self._join_in(lb, lc, rb, rc)
                    pending.pop(i)
                    progressed = True
                    break
                if rb in self._maps:
                    self._join_in(rb, rc, lb, lc)
                    pending.pop(i)
                    progressed = True
                    break
            if not progressed:
                raise SqlError("join predicates do not connect the FROM tables")
        unjoined = [b for b in order if b not in self._maps]
        if unjoined:
            raise SqlError(
                f"tables {unjoined} have no join path (cross joins unsupported)"
            )

    def _join_in(self, in_binding: str, in_col: str, new_binding: str, new_col: str) -> None:
        """Join ``new_binding`` into the state via in.col == new.col."""
        left_vals = self.plan.emit(
            "algebra",
            "fetchjoin",
            (self._maps[in_binding], self._bind_column(in_binding, in_col)),
        )
        right_col = self._bind_column(new_binding, new_col)
        cand = self._cands[new_binding]
        if cand is not None:
            right_col = self.plan.emit("algebra", "semijoin", (right_col, cand))
        reversed_right = self.plan.emit("bat", "reverse", (right_col,))
        joined = self.plan.emit("algebra", "join", (left_vals, reversed_right))
        new_map = self.plan.emit("algebra", "markH", (joined, 0))
        old_positions = self.plan.emit("algebra", "positions", (joined,))
        for binding in list(self._maps):
            remapped = self.plan.emit(
                "algebra", "fetchjoin", (old_positions, self._maps[binding])
            )
            self._maps[binding] = self.plan.emit("algebra", "markH", (remapped, 0))
        self._maps[new_binding] = new_map

    def _apply_filter(self, pred: Comparison) -> None:
        left = self._eval_expr(pred.left)
        right = self._eval_expr(pred.right)
        cmp = self.plan.emit("calc", "compare", (pred.op, left, right))
        keep = self.plan.emit("algebra", "selectEq", (cmp, True))
        pos = self.plan.emit("algebra", "positions", (keep,))
        for binding in list(self._maps):
            remapped = self.plan.emit(
                "algebra", "fetchjoin", (pos, self._maps[binding])
            )
            self._maps[binding] = self.plan.emit("algebra", "markH", (remapped, 0))

    # ==================================================================
    # expressions in result-row space
    # ==================================================================
    def _project(self, ref: ColumnRef) -> Var:
        binding, column = self._resolve(ref)
        if binding not in self._maps:
            raise SqlError(f"table {binding!r} not part of the join result")
        fetched = self.plan.emit(
            "algebra", "fetchjoin", (self._maps[binding], self._bind_column(binding, column))
        )
        return self.plan.emit("algebra", "markH", (fetched, 0))

    def _eval_expr(self, expr) -> Union[Var, int, float, str]:
        if isinstance(expr, ColumnRef):
            return self._project(expr)
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, BinOp):
            left = self._eval_expr(expr.left)
            right = self._eval_expr(expr.right)
            if not isinstance(left, Var) and not isinstance(right, Var):
                # constant folding for literal-only subexpressions
                ops = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
                       "*": lambda a, b: a * b, "/": lambda a, b: a / b}
                return ops[expr.op](left, right)
            return self.plan.emit("calc", "arith", (expr.op, left, right))
        raise SqlError(f"unsupported expression {expr!r}")

    # ==================================================================
    # output: grouping, aggregates, projection
    # ==================================================================
    def _item_name(self, item: SelectItem, idx: int) -> str:
        if item.alias:
            return item.alias
        if isinstance(item.expr, ColumnRef):
            return item.expr.column
        if isinstance(item.expr, AggCall):
            inner = "*" if item.expr.arg is None else "expr"
            if isinstance(item.expr.arg, ColumnRef):
                inner = item.expr.arg.column
            return f"{item.expr.func}_{inner}"
        return f"col_{idx}"

    def _build_output(self) -> Tuple[List[str], List[Var]]:
        names = [self._item_name(item, i) for i, item in enumerate(self.items)]
        has_aggs = any(isinstance(i.expr, AggCall) for i in self.items)

        if self.select.group_by:
            return names, self._grouped_output()
        if has_aggs:
            if any(not isinstance(i.expr, AggCall) for i in self.items):
                raise SqlError("mixing aggregates and plain columns needs GROUP BY")
            columns = []
            for item in self.items:
                agg: AggCall = item.expr  # type: ignore[assignment]
                if agg.arg is None:  # COUNT(*)
                    any_map = next(iter(self._maps.values()))
                    columns.append(self.plan.emit("aggr", "count", (any_map,)))
                elif agg.distinct:
                    values = self._eval_expr(agg.arg)
                    uniq = self.plan.emit("algebra", "unique", (values,))
                    columns.append(self.plan.emit("aggr", "count", (uniq,)))
                else:
                    values = self._eval_expr(agg.arg)
                    columns.append(
                        self.plan.emit("aggr", "scalar", (values, agg.func))
                    )
            return names, columns
        return names, [self._output_plain(item) for item in self.items]

    def _output_plain(self, item: SelectItem) -> Var:
        if isinstance(item.expr, AggCall):
            raise SqlError("unexpected aggregate")  # pragma: no cover
        value = self._eval_expr(item.expr)
        if not isinstance(value, Var):
            raise SqlError("bare literals in the select list are unsupported")
        return value

    def _grouped_output(self) -> List[Var]:
        key_vars = [self._project(ref) for ref in self.select.group_by]
        groups, extents = self.plan.emit(
            "group", "multi", (list(key_vars),), n_results=2
        )
        self._groups = groups
        self._group_size = self.plan.emit("algebra", "nth", (extents, 0))
        key_names = {self._resolve(ref) for ref in self.select.group_by}
        columns: List[Var] = []
        for item in self.items:
            expr = item.expr
            if isinstance(expr, ColumnRef):
                resolved = self._resolve(expr)
                if resolved not in key_names:
                    raise SqlError(
                        f"column {expr} must appear in GROUP BY or an aggregate"
                    )
                idx = [self._resolve(r) for r in self.select.group_by].index(resolved)
                columns.append(
                    self.plan.emit("algebra", "nth", (extents, idx))
                )
            elif isinstance(expr, AggCall):
                columns.append(self._agg_column(expr))
            else:
                raise SqlError("grouped select items must be keys or aggregates")
        return columns

    def _agg_column(self, agg: AggCall) -> Var:
        """One per-group aggregate column (requires a grouped context)."""
        if agg.distinct:
            if agg.arg is None:
                raise SqlError("COUNT(DISTINCT *) is not supported")
            values = self._eval_expr(agg.arg)
            return self.plan.emit(
                "aggr", "countDistinct", (values, self._groups, self._group_size)
            )
        if agg.arg is None:
            values = self._groups  # counting rows: any aligned column works
        else:
            values = self._eval_expr(agg.arg)
        return self.plan.emit(
            "aggr", "group", (values, self._groups, self._group_size, agg.func)
        )

    def _apply_having(self, columns: List[Var]) -> List[Var]:
        """HAVING: filter the group rows by aggregate conditions.

        Every condition's aggregate is computed in the original group
        space; all output columns and pending aggregate columns are then
        remapped together, condition by condition.
        """
        if not self.select.group_by:
            raise SqlError("HAVING requires GROUP BY")
        extended = list(columns)
        cond_vars: List[int] = []
        for cond in self.select.having:
            extended.append(self._agg_column(cond.agg))
            cond_vars.append(len(extended) - 1)
        for cond, idx in zip(self.select.having, cond_vars):
            cmp = self.plan.emit(
                "calc", "compare", (cond.op, extended[idx], cond.value.value)
            )
            keep = self.plan.emit("algebra", "selectEq", (cmp, True))
            pos = self.plan.emit("algebra", "positions", (keep,))
            extended = [
                self.plan.emit(
                    "algebra", "markH",
                    (self.plan.emit("algebra", "fetchjoin", (pos, col)), 0),
                )
                for col in extended
            ]
        return extended[: len(columns)]

    # ==================================================================
    # ordering and limit
    # ==================================================================
    def _apply_order_limit(self, names: List[str], columns: List[Var]) -> List[Var]:
        scalar_output = any(
            isinstance(i.expr, AggCall) for i in self.items
        ) and not self.select.group_by
        if scalar_output:
            if self.select.order_by:
                raise SqlError("ORDER BY is meaningless for scalar aggregates")
            return columns
        for order in reversed(self.select.order_by):
            key_var = self._order_key(order, names, columns)
            sorted_key = self.plan.emit(
                "algebra", "sort", (key_var, order.descending)
            )
            pos = self.plan.emit("algebra", "positions", (sorted_key,))
            columns = [
                self.plan.emit("algebra", "fetchjoin", (pos, c)) for c in columns
            ]
            columns = [
                self.plan.emit("algebra", "markH", (c, 0)) for c in columns
            ]
        if self.select.limit is not None:
            columns = [
                self.plan.emit("algebra", "slice", (c, 0, self.select.limit))
                for c in columns
            ]
        return columns

    def _order_key(self, order: OrderItem, names: List[str], columns: List[Var]) -> Var:
        ref = order.expr
        assert isinstance(ref, ColumnRef)
        # an output alias (or output column name) wins over a base column
        if ref.table is None and ref.column in names:
            return columns[names.index(ref.column)]
        if self.select.group_by:
            raise SqlError("ORDER BY on grouped queries must name an output column")
        return self._project(ref)
