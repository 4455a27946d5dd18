"""Lexer, AST and recursive-descent parser for the SQL subset."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional, Tuple, Union

__all__ = [
    "SqlError",
    "ColumnRef",
    "Literal",
    "BinOp",
    "AggCall",
    "Comparison",
    "Between",
    "InList",
    "OrGroup",
    "HavingCond",
    "Star",
    "SelectItem",
    "TableRef",
    "OrderItem",
    "Select",
    "tokenize",
    "parse",
    "parse_cached",
]


class SqlError(ValueError):
    """Any lexical, syntactic or semantic SQL error."""


# ----------------------------------------------------------------------
# AST
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ColumnRef:
    column: str
    table: Optional[str] = None  # alias or table name; resolved by the planner

    def __str__(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(frozen=True)
class Literal:
    value: Union[int, float, str]


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * /
    left: "Expr"
    right: "Expr"


Expr = Union[ColumnRef, Literal, BinOp]


@dataclass(frozen=True)
class AggCall:
    func: str  # sum min max avg count
    arg: Optional[Expr]  # None means COUNT(*)
    distinct: bool = False  # COUNT(DISTINCT col)


@dataclass(frozen=True)
class Comparison:
    op: str  # == != < <= > >=
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Between:
    col: ColumnRef
    low: Literal
    high: Literal


@dataclass(frozen=True)
class InList:
    col: ColumnRef
    values: Tuple[Literal, ...]


@dataclass(frozen=True)
class OrGroup:
    """A parenthesised disjunction: ``(p1 OR p2 OR ...)``.

    The planner requires every branch to be a single-table predicate on
    the same table, compiling the group into a union of selections.
    """

    preds: Tuple["Predicate", ...]


@dataclass(frozen=True)
class HavingCond:
    """``HAVING agg op literal`` over a grouped query."""

    agg: AggCall
    op: str
    value: Literal


Predicate = Union[Comparison, Between, InList, OrGroup]


@dataclass(frozen=True)
class Star:
    """``SELECT *``: expanded by the planner to every FROM column."""


@dataclass(frozen=True)
class SelectItem:
    expr: Union[Expr, AggCall, Star]
    alias: Optional[str] = None


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: Optional[str] = None
    schema: str = "sys"

    @property
    def binding(self) -> str:
        return self.alias if self.alias else self.name


@dataclass(frozen=True)
class OrderItem:
    expr: Union[ColumnRef, str]  # column ref or output alias
    descending: bool = False


@dataclass
class Select:
    items: List[SelectItem]
    tables: List[TableRef]
    where: List[Predicate] = field(default_factory=list)
    group_by: List[ColumnRef] = field(default_factory=list)
    having: List[HavingCond] = field(default_factory=list)
    order_by: List[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None


# ----------------------------------------------------------------------
# lexer
# ----------------------------------------------------------------------
_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+\.\d*|\.\d+|\d+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><=|>=|<>|!=|=|<|>)
  | (?P<punct>[(),.*+\-/;])
    """,
    re.VERBOSE,
)

KEYWORDS = {
    "select", "from", "where", "and", "or", "group", "by", "order",
    "limit", "having", "as", "asc", "desc", "between", "in", "sum",
    "min", "max", "avg", "count", "distinct",
}


@dataclass(frozen=True)
class Token:
    kind: str  # 'kw' | 'ident' | 'number' | 'string' | 'op' | 'punct' | 'eof'
    value: str
    pos: int


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SqlError(f"unexpected character {text[pos]!r} at offset {pos}")
        pos = m.end()
        kind = m.lastgroup
        value = m.group()
        if kind == "ws":
            continue
        if kind == "ident":
            lowered = value.lower()
            if lowered in KEYWORDS:
                tokens.append(Token("kw", lowered, m.start()))
            else:
                tokens.append(Token("ident", value, m.start()))
        elif kind == "string":
            tokens.append(Token("string", value[1:-1].replace("''", "'"), m.start()))
        else:
            tokens.append(Token(kind, value, m.start()))
    tokens.append(Token("eof", "", len(text)))
    return tokens


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.i = 0

    # -- primitives ----------------------------------------------------
    @property
    def cur(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.cur
        self.i += 1
        return tok

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        tok = self.cur
        if tok.kind == kind and (value is None or tok.value == value):
            return self.advance()
        return None

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        tok = self.accept(kind, value)
        if tok is None:
            want = value if value is not None else kind
            raise SqlError(
                f"expected {want!r}, found {self.cur.value!r} at offset {self.cur.pos}"
            )
        return tok

    # -- grammar ---------------------------------------------------------
    def parse_select(self) -> Select:
        self.expect("kw", "select")
        if self.accept("punct", "*"):
            items: List[SelectItem] = [SelectItem(expr=Star())]
        else:
            items = [self.parse_select_item()]
            while self.accept("punct", ","):
                items.append(self.parse_select_item())
        self.expect("kw", "from")
        tables = [self.parse_table_ref()]
        while self.accept("punct", ","):
            tables.append(self.parse_table_ref())
        where: List[Predicate] = []
        if self.accept("kw", "where"):
            where.append(self.parse_conjunct())
            while self.accept("kw", "and"):
                where.append(self.parse_conjunct())
        group_by: List[ColumnRef] = []
        if self.accept("kw", "group"):
            self.expect("kw", "by")
            group_by.append(self.parse_column_ref())
            while self.accept("punct", ","):
                group_by.append(self.parse_column_ref())
        having: List[HavingCond] = []
        if self.accept("kw", "having"):
            having.append(self.parse_having_cond())
            while self.accept("kw", "and"):
                having.append(self.parse_having_cond())
        order_by: List[OrderItem] = []
        if self.accept("kw", "order"):
            self.expect("kw", "by")
            order_by.append(self.parse_order_item())
            while self.accept("punct", ","):
                order_by.append(self.parse_order_item())
        limit = None
        if self.accept("kw", "limit"):
            limit = int(self.expect("number").value)
        self.accept("punct", ";")
        self.expect("eof")
        return Select(
            items=items,
            tables=tables,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
        )

    def parse_conjunct(self) -> Predicate:
        """One AND-level term: a predicate or a parenthesised OR group.

        Unparenthesised OR is rejected to keep precedence explicit.
        """
        if self.cur.kind == "punct" and self.cur.value == "(":
            saved = self.i
            self.advance()
            try:
                first = self.parse_predicate()
            except SqlError:
                self.i = saved
            else:
                if self.cur.kind == "kw" and self.cur.value == "or":
                    preds = [first]
                    while self.accept("kw", "or"):
                        preds.append(self.parse_predicate())
                    self.expect("punct", ")")
                    return OrGroup(preds=tuple(preds))
                self.i = saved  # plain parenthesised expression: re-parse
        pred = self.parse_predicate()
        if self.cur.kind == "kw" and self.cur.value == "or":
            raise SqlError(
                "OR must be parenthesised: use (p1 OR p2) as one conjunct"
            )
        return pred

    def parse_having_cond(self) -> HavingCond:
        expr = self.parse_item_expr()
        if not isinstance(expr, AggCall):
            raise SqlError("HAVING conditions must compare an aggregate")
        op_tok = self.expect("op")
        op = {"=": "==", "<>": "!=", "!=": "!="}.get(op_tok.value, op_tok.value)
        return HavingCond(agg=expr, op=op, value=self.parse_literal())

    def parse_select_item(self) -> SelectItem:
        expr = self.parse_item_expr()
        alias = None
        if self.accept("kw", "as"):
            alias = self.expect("ident").value
        elif self.cur.kind == "ident":
            alias = self.advance().value
        return SelectItem(expr=expr, alias=alias)

    def parse_item_expr(self) -> Union[Expr, AggCall]:
        tok = self.cur
        if tok.kind == "kw" and tok.value in ("sum", "min", "max", "avg", "count"):
            func = self.advance().value
            self.expect("punct", "(")
            if func == "count" and self.accept("punct", "*"):
                self.expect("punct", ")")
                return AggCall(func="count", arg=None)
            distinct = bool(self.accept("kw", "distinct"))
            if distinct and func != "count":
                raise SqlError("DISTINCT is only supported inside COUNT()")
            arg = self.parse_expr()
            self.expect("punct", ")")
            return AggCall(func=func, arg=arg, distinct=distinct)
        return self.parse_expr()

    # arithmetic expressions: term ((+|-) term)*; term: factor ((*|/) factor)*
    def parse_expr(self) -> Expr:
        left = self.parse_term()
        while self.cur.kind == "punct" and self.cur.value in "+-":
            op = self.advance().value
            left = BinOp(op=op, left=left, right=self.parse_term())
        return left

    def parse_term(self) -> Expr:
        left = self.parse_factor()
        while self.cur.kind == "punct" and self.cur.value in "*/":
            op = self.advance().value
            left = BinOp(op=op, left=left, right=self.parse_factor())
        return left

    def parse_factor(self) -> Expr:
        if self.accept("punct", "("):
            inner = self.parse_expr()
            self.expect("punct", ")")
            return inner
        tok = self.cur
        if tok.kind == "number":
            self.advance()
            return Literal(float(tok.value) if "." in tok.value else int(tok.value))
        if tok.kind == "string":
            self.advance()
            return Literal(tok.value)
        if tok.kind == "ident":
            return self.parse_column_ref()
        raise SqlError(f"unexpected token {tok.value!r} at offset {tok.pos}")

    def parse_column_ref(self) -> ColumnRef:
        first = self.expect("ident").value
        if self.accept("punct", "."):
            second = self.expect("ident").value
            return ColumnRef(column=second, table=first)
        return ColumnRef(column=first)

    def parse_table_ref(self) -> TableRef:
        first = self.expect("ident").value
        schema, name = "sys", first
        if self.accept("punct", "."):
            schema, name = first, self.expect("ident").value
        alias = None
        if self.cur.kind == "ident":
            alias = self.advance().value
        return TableRef(name=name, alias=alias, schema=schema)

    def parse_predicate(self) -> Predicate:
        left = self.parse_expr()
        if self.accept("kw", "between"):
            if not isinstance(left, ColumnRef):
                raise SqlError("BETWEEN needs a column on the left")
            low = self.parse_literal()
            self.expect("kw", "and")
            high = self.parse_literal()
            return Between(col=left, low=low, high=high)
        if self.accept("kw", "in"):
            if not isinstance(left, ColumnRef):
                raise SqlError("IN needs a column on the left")
            self.expect("punct", "(")
            values = [self.parse_literal()]
            while self.accept("punct", ","):
                values.append(self.parse_literal())
            self.expect("punct", ")")
            return InList(col=left, values=tuple(values))
        op_tok = self.expect("op")
        op = {"=": "==", "<>": "!=", "!=": "!="}.get(op_tok.value, op_tok.value)
        right = self.parse_expr()
        return Comparison(op=op, left=left, right=right)

    def parse_literal(self) -> Literal:
        tok = self.cur
        if tok.kind == "number":
            self.advance()
            return Literal(float(tok.value) if "." in tok.value else int(tok.value))
        if tok.kind == "string":
            self.advance()
            return Literal(tok.value)
        raise SqlError(f"expected a literal, found {tok.value!r} at offset {tok.pos}")

    def parse_order_item(self) -> OrderItem:
        ref = self.parse_column_ref()
        descending = False
        if self.accept("kw", "desc"):
            descending = True
        else:
            self.accept("kw", "asc")
        return OrderItem(expr=ref, descending=descending)


def parse(text: str) -> Select:
    """Parse one SELECT statement into its AST."""
    return _Parser(tokenize(text)).parse_select()


@lru_cache(maxsize=128)
def parse_cached(text: str) -> Select:
    """:func:`parse` behind a bounded text -> AST memo.

    The estimator prices a statement and the MAL engine compiles it a
    moment later; both read the one AST.  It is shared between every
    caller in the process, so callers must treat it as **read-only**
    (the planner and the estimator do; ``tests/test_plan_cache.py`` pins
    it).  Code that wants to edit an AST calls :func:`parse`.  Syntax
    errors are raised afresh on every call, never cached.
    """
    return parse(text)
