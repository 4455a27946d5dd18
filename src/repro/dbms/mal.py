"""A MAL-style plan representation (paper section 3, Tables 1-2).

MonetDB front-ends compile queries into MAL (MonetDB Assembly Language)
programs: linear sequences of single-assignment instructions such as

    X10 := algebra.join(X1, X9);

A :class:`Plan` is that sequence; :class:`Instruction` one line of it.
Arguments are either :class:`Var` references or literal constants.  The
renderer reproduces the Table 1 / Table 2 textual shape, which the tests
use to check the DC optimizer's rewrite against the paper.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Var",
    "Instruction",
    "Plan",
    "parse_plan",
    "validate_plan",
    "liveness",
    "end_of_life",
    "Dies",
    "MalSyntaxError",
    "PlanValidationError",
]


@dataclass(frozen=True)
class Var:
    """A reference to a single-assignment MAL variable."""

    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass
class Instruction:
    """``results := module.fn(args)``; no results for void calls."""

    module: str
    fn: str
    args: Tuple[Any, ...] = ()
    results: Tuple[str, ...] = ()
    #: ``module.fn``, joined once (every compile pass and every
    #: interpreter step reads it) and interned, so a cached plan keeps
    #: one string per operator, not one per instruction
    opname: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.opname = sys.intern(f"{self.module}.{self.fn}")

    def uses(self) -> Set[str]:
        """Variable names read by this instruction (nested one level)."""
        used: Set[str] = set()
        for arg in self.args:
            if isinstance(arg, Var):
                used.add(arg.name)
            elif isinstance(arg, (list, tuple)):
                used.update(a.name for a in arg if isinstance(a, Var))
        return used

    def render(self) -> str:
        def fmt(arg: Any) -> str:
            if isinstance(arg, Var):
                return arg.name
            if isinstance(arg, str):
                return f'"{arg}"'
            if isinstance(arg, (list, tuple)):
                return "[" + ", ".join(fmt(a) for a in arg) + "]"
            return repr(arg)

        call = f"{self.opname}({', '.join(fmt(a) for a in self.args)})"
        if not self.results:
            return f"{call};"
        lhs = ", ".join(self.results) if len(self.results) > 1 else self.results[0]
        if len(self.results) > 1:
            lhs = f"({lhs})"
        return f"{lhs} := {call};"


class Plan:
    """A linear MAL program with a tiny builder API.

    >>> plan = Plan("user.s1_2")
    >>> x1 = plan.emit("sql", "bind", ("sys", "t", "id", 0))
    >>> x2 = plan.emit("bat", "reverse", (x1,))
    >>> print(plan.render())  # doctest: +NORMALIZE_WHITESPACE
    function user.s1_2():void;
        X1 := sql.bind("sys", "t", "id", 0);
        X2 := bat.reverse(X1);
    end user.s1_2;
    """

    def __init__(self, name: str = "user.main"):
        self.name = name
        self.instructions: List[Instruction] = []
        self._counter = 0

    # ------------------------------------------------------------------
    def fresh_var(self) -> Var:
        self._counter += 1
        return Var(f"X{self._counter}")

    def emit(
        self,
        module: str,
        fn: str,
        args: Sequence[Any] = (),
        n_results: int = 1,
    ):
        """Append an instruction; returns its result Var(s) (or None)."""
        if n_results == 1:  # nearly every instruction: no list to build
            out = self.fresh_var()
            results: Tuple[str, ...] = (out.name,)
        elif n_results == 0:
            results = ()
            out = None
        else:
            out_vars = [self.fresh_var() for _ in range(n_results)]
            results = tuple(v.name for v in out_vars)
            out = out_vars[0] if n_results == 1 else tuple(out_vars)
        self.instructions.append(
            Instruction(module=module, fn=fn, args=tuple(args), results=results)
        )
        return out

    def append(self, instruction: Instruction) -> None:
        self.instructions.append(instruction)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def first_use(self, var_name: str) -> Optional[int]:
        for i, instr in enumerate(self.instructions):
            if var_name in instr.uses():
                return i
        return None

    def last_use(self, var_name: str) -> Optional[int]:
        last = None
        for i, instr in enumerate(self.instructions):
            if var_name in instr.uses():
                last = i
        return last

    def defining(self, var_name: str) -> Optional[int]:
        for i, instr in enumerate(self.instructions):
            if var_name in instr.results:
                return i
        return None

    def variables(self) -> Set[str]:
        names: Set[str] = set()
        for instr in self.instructions:
            names.update(instr.results)
            names.update(instr.uses())
        return names

    def ops(self) -> List[str]:
        return [instr.opname for instr in self.instructions]

    # ------------------------------------------------------------------
    def render(self) -> str:
        lines = [f"function {self.name}():void;"]
        lines += [f"    {instr.render()}" for instr in self.instructions]
        lines.append(f"end {self.name};")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)


# ----------------------------------------------------------------------
# liveness: where each variable's life ends
# ----------------------------------------------------------------------
def liveness(
    instructions: Iterable[Instruction],
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """One walk over a plan: ``(first_read, last_use)`` per variable.

    ``first_read[name]`` is the index of the first instruction reading
    ``name``; ``last_use[name]`` that of the last one, or of its defining
    instruction if nothing reads it.  Arguments are walked in positional
    order, one level into lists, so a variable nothing defines (a bind
    the DC optimizer replaced) is keyed in order of first read --
    independent of string-hash order.  Compiles run it, so the loop is
    written for speed (``type() is`` over ``isinstance``).
    """
    first: Dict[str, int] = {}
    last: Dict[str, int] = {}
    for index, instr in enumerate(instructions):
        for name in instr.results:
            last[name] = index
        for arg in instr.args:
            kind = type(arg)
            if kind is Var:
                name = arg.name
                if name not in first:
                    first[name] = index
                last[name] = index
            elif kind is list or kind is tuple:
                for item in arg:
                    if type(item) is Var:
                        name = item.name
                        if name not in first:
                            first[name] = index
                        last[name] = index
    return first, last


#: an end-of-life table: per instruction index, the names that die there
Dies = Tuple[Tuple[str, ...], ...]


def end_of_life(
    plan: Plan, keep: str, last_use: Optional[Dict[str, int]] = None
) -> Dies:
    """The plan's end-of-life table: entry ``i`` names the variables to
    drop once instruction ``i`` has run -- those it reads for the last
    time, and those it defines that nothing reads.  ``keep`` (the
    plan's result variable) never dies.  MonetDB frees a MAL variable
    at the end of its life the same way, so a ``k``-partition
    ``kunion`` chain holds two partial unions, not ``k``.

    ``last_use`` is the plan's last-use map when the caller already has
    it (:func:`repro.dbms.optimizer.dc_rewrite` carries it over from its
    input); otherwise one :func:`liveness` walk finds it.
    """
    if last_use is None:
        last_use = liveness(plan.instructions)[1]
    dies: List[Tuple[str, ...]] = [()] * len(plan.instructions)
    for name, index in last_use.items():
        if name != keep:
            dies[index] += (name,)
    return tuple(dies)


# ----------------------------------------------------------------------
# parsing MAL text (the Table 1 / Table 2 format)
# ----------------------------------------------------------------------
class MalSyntaxError(ValueError):
    """Raised for malformed MAL text."""


_HEADER_RE = re.compile(r"function\s+([\w.]+)\s*\(\s*\)\s*:\s*void\s*;")
_FOOTER_RE = re.compile(r"end\s+([\w.]+)\s*;")
_INSTR_RE = re.compile(
    r"^(?:(?P<lhs>\([^)]*\)|[A-Za-z_]\w*)\s*:=\s*)?"
    r"(?P<module>[A-Za-z_]\w*)\.(?P<fn>[A-Za-z_]\w*)\s*\((?P<args>.*)\)\s*;$"
)
_ARG_TOKEN_RE = re.compile(
    r"""
    \s*(?:
        (?P<string>"(?:[^"\\]|\\.)*")
      | (?P<oid>\d+@\d+)
      | (?P<number>-?\d+\.\d*|-?\.\d+|-?\d+)
      | (?P<word>[A-Za-z_]\w*)
      | (?P<lbracket>\[)
      | (?P<rbracket>\])
      | (?P<comma>,)
    )\s*
    """,
    re.VERBOSE,
)

_WORDS = {"True": True, "False": False, "None": None}


def _parse_args(text: str) -> tuple:
    """Parse an argument list: literals, vars, OID literals, [lists]."""
    pos = 0
    stack: List[list] = [[]]
    while pos < len(text):
        match = _ARG_TOKEN_RE.match(text, pos)
        if match is None:
            raise MalSyntaxError(f"bad argument syntax at: {text[pos:]!r}")
        pos = match.end()
        kind = match.lastgroup
        token = match.group(kind)
        if kind == "comma":
            expect_value = True
            continue
        if kind == "lbracket":
            new: list = []
            stack[-1].append(new)
            stack.append(new)
            continue
        if kind == "rbracket":
            if len(stack) == 1:
                raise MalSyntaxError("unbalanced ']' in argument list")
            stack.pop()
            expect_value = False
            continue
        if kind == "string":
            value: Any = token[1:-1].replace('\\"', '"')
        elif kind == "oid":
            # MonetDB OID literals like 0@0: the offset within a BAT
            value = int(token.split("@")[0])
        elif kind == "number":
            value = float(token) if ("." in token) else int(token)
        else:  # word: keyword literal or a variable reference
            value = _WORDS[token] if token in _WORDS else Var(token)
        stack[-1].append(value)
        expect_value = False
    if len(stack) != 1:
        raise MalSyntaxError("unbalanced '[' in argument list")
    return tuple(stack[0])


def parse_plan(text: str) -> Plan:
    """Parse a rendered MAL program back into a :class:`Plan`.

    Accepts the format of :meth:`Plan.render` and the paper's Tables 1
    and 2 (including MonetDB OID literals such as ``0@0``).  Round-trip
    property: ``parse_plan(plan.render())`` preserves every instruction.
    """
    lines = [line.strip() for line in text.strip().splitlines() if line.strip()]
    if not lines:
        raise MalSyntaxError("empty program")
    header = _HEADER_RE.fullmatch(lines[0])
    if header is None:
        raise MalSyntaxError(f"bad function header: {lines[0]!r}")
    footer = _FOOTER_RE.fullmatch(lines[-1])
    if footer is None:
        raise MalSyntaxError(f"bad end line: {lines[-1]!r}")
    # the paper's own listings end with the unqualified name
    # ("function user.s1_2 ... end s1_2;"), so accept a suffix match
    full, short = header.group(1), footer.group(1)
    if short != full and not full.endswith("." + short):
        raise MalSyntaxError("function name mismatch between header and end")

    plan = Plan(header.group(1))
    max_fresh = 0
    for line in lines[1:-1]:
        match = _INSTR_RE.match(line)
        if match is None:
            raise MalSyntaxError(f"bad instruction: {line!r}")
        lhs = match.group("lhs")
        if lhs is None:
            results: Tuple[str, ...] = ()
        elif lhs.startswith("("):
            results = tuple(
                name.strip() for name in lhs[1:-1].split(",") if name.strip()
            )
        else:
            results = (lhs,)
        for name in results:
            counter = re.fullmatch(r"X(\d+)", name)
            if counter:
                max_fresh = max(max_fresh, int(counter.group(1)))
        plan.append(
            Instruction(
                module=match.group("module"),
                fn=match.group("fn"),
                args=_parse_args(match.group("args")),
                results=results,
            )
        )
    plan._counter = max_fresh  # keep fresh_var() collision-free
    return plan


# ----------------------------------------------------------------------
# well-formedness
# ----------------------------------------------------------------------
class PlanValidationError(ValueError):
    """A plan violates the single-assignment / def-before-use rules."""


def validate_plan(plan: Plan) -> None:
    """Check MAL well-formedness; raises :class:`PlanValidationError`.

    Rules (the single-assignment discipline of section 3.2's linear
    interpretation):

    * every variable is assigned exactly once,
    * every use comes after (never before) its definition,
    * result names within one instruction are distinct.
    """
    defined: Set[str] = set()
    for index, instr in enumerate(plan.instructions):
        for name in instr.uses():
            if name not in defined:
                raise PlanValidationError(
                    f"instruction {index} ({instr.opname}) uses {name!r} "
                    f"before its definition"
                )
        if len(set(instr.results)) != len(instr.results):
            raise PlanValidationError(
                f"instruction {index} ({instr.opname}) repeats a result name"
            )
        for name in instr.results:
            if name in defined:
                raise PlanValidationError(
                    f"instruction {index} ({instr.opname}) reassigns {name!r}"
                )
            defined.add(name)
