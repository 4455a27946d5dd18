"""The MAL engine as a QueryProcessingUnit.

This is the original `repro.dbms` stack -- SQL parser, column-at-a-time
planner, DC optimizer (Table 2) and the linear/caching/dataflow
interpreters -- rehosted behind the QPU protocol.  The execution path is
byte-for-byte the pre-refactor one (the golden suite in
``tests/test_qpu_golden.py`` pins the event streams): the engine wraps
the local operator registry with cost-charging generators, and the three
``datacyclotron.*`` plan calls talk to the node runtime exactly as
before.  A text the linear interpreter ran twice replays the ring calls
its second run recorded instead of interpreting again (docs/qpu.md
section 7, "Execute once per data").
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.dbms.bat import BAT
from repro.dbms.catalog import Catalog
from repro.dbms.cost import OperatorCostModel
from repro.dbms.interpreter import Interpreter, ResultSet
from repro.dbms.mal import Instruction, Plan
from repro.dbms.optimizer import dc_rewrite, requested_binds
from repro.dbms.qpu.base import (
    CompiledQuery,
    MalQuery,
    QpuContext,
    QueryProcessingUnit,
)
from repro.dbms.sql import SqlError, parse_cached, plan_select
from repro.dbms.sql.parser import (
    Param,
    ParamInspected,
    Token,
    literal_value,
    parse_template,
    statement_shape,
    tokenize,
)
from repro.dbms.sql.planner import PlannedQuery

__all__ = ["MalQpu", "dc_registry"]

#: statement texts, and statement shapes, one engine keeps (least
#: recently used go first).  A plan holds ~320 bytes per instruction,
#: its end-of-life table included -- 63 KB for a two-column scan of 24
#: partitions, 183 KB for a six-column ``SELECT *``.  A text of a known
#: shape shares every instruction without a literal with the shape's
#: template and adds ~2 KB, and a hit keeps its shape recent, so the
#: cache retains about 128 template plans (at most ~23 MB of the widest
#: plan here) plus 2 KB a text; texts of a shape that plans per text
#: hold a whole plan each, as every text did before templates.  A text
#: that ran twice also holds its recorded script: ~70 bytes a ring call
#: (39 KB for the burst's six-column ``SELECT *`` of 24 partitions, at
#: most ~5 MB for 128 of them) and the references to its pinned
#: payloads and result columns, which the catalog and the recording
#: run's result hold too; a result's columns outlive that result while
#: the text stays cached (576 KB for that ``SELECT *``).  The
#: end-of-life table is what keeps a run's own footprint small: after
#: each instruction only variables a later instruction reads, and the
#: result, stay live.  Behind a dispatcher valve or a front door a
#: request is priced first, by :meth:`MalQpu.price`, which answers from
#: a text's entry or its shape's template and makes no text entry, and a
#: refused one never reaches ``compile``: the one-off texts a full valve
#: turns away do not fill the cache (docs/qpu.md section 7).
PLAN_CACHE_SIZE = 128


#: the steps of a run's script, one per ring call: ``(_REQUEST, bat)``,
#: ``(_PIN, bat, payload)``, ``(_UNPIN, bat)`` and ``(_EXEC, cost)``
_REQUEST, _PIN, _UNPIN, _EXEC = range(4)


def dc_registry(
    base: Dict[str, Any],
    ctx: QpuContext,
    catalog: Catalog,
    cost_model: OperatorCostModel,
    script: Optional[List[tuple]] = None,
    owed: Optional[List[tuple]] = None,
) -> Dict[str, Any]:
    """Wrap the local registry for ring execution.

    Local operators become generators that charge simulated CPU time;
    the three datacyclotron calls talk to the node's DC runtime, pins
    and unpins through ``ctx`` so an aborted query's pins are released.
    ``script`` collects each ring call the run makes as a step.
    ``owed`` holds the steps a replay already made before handing
    over, last first: the run pops one per call it makes instead of
    making the call, checks the call is the step, and takes a pin's
    payload from the step (docs/qpu.md section 7).
    """
    runtime = ctx.runtime
    query_id = ctx.query_id
    pinned_ids: Dict[int, int] = {}  # id(payload BAT) -> bat_id

    def sends(step: tuple) -> bool:
        """Whether the run makes the call ``step`` names on the ring:
        not if a replay made it already, and then it must be the next
        owed step."""
        if owed:
            made = owed.pop()
            if made[:2] != step[:2]:
                raise RuntimeError(
                    f"replay handover: the interpreter called {step[:2]}, "
                    f"the script holds {made[:2]}"
                )
            return False
        if script is not None:
            script.append(step)
        return True

    def wrap(fn):
        def runner(*args) -> Generator:
            result = fn(*args)
            cost = cost_model.cost(args, result)
            if cost > 0 and sends((_EXEC, cost)):
                yield runtime.exec_op(cost)
            return result

        return runner

    registry: Dict[str, Any] = {name: wrap(fn) for name, fn in base.items()}

    def dc_request(schema: str, table: str, column: str, partition: int) -> int:
        bat_id = catalog.handle(schema, table, column, partition).bat_id
        if sends((_REQUEST, bat_id)):
            runtime.request(query_id, [bat_id])
        return bat_id

    def dc_pin(bat_id: int) -> Generator:
        if owed:
            made = owed[-1]
            sends((_PIN, bat_id))
            payload = made[2]
        else:
            fut = runtime.pin(query_id, bat_id)
            yield fut
            payload = ctx.pin_payload(fut.value, bat_id)
            if script is not None:
                script.append((_PIN, bat_id, payload))
        pinned_ids[id(payload)] = bat_id
        return payload

    def dc_unpin(payload: BAT) -> None:
        bat_id = pinned_ids.pop(id(payload), None)
        if bat_id is not None and sends((_UNPIN, bat_id)):
            ctx.unpin(bat_id)

    registry["datacyclotron.request"] = dc_request
    registry["datacyclotron.pin"] = dc_pin
    registry["datacyclotron.unpin"] = dc_unpin
    return registry


class MalQpu(QueryProcessingUnit):
    """Full SQL over the ring: the paper's own processing model."""

    engine_class = "mal"

    def __init__(
        self,
        catalog: Catalog,
        local_registry: Dict[str, Any],
        cost_model: OperatorCostModel,
        dataflow: bool = False,
        result_cache=None,
        cache_min_bytes: int = 64 * 1024,
    ):
        self.catalog = catalog
        self.local_registry = local_registry
        self.cost_model = cost_model
        self.dataflow = dataflow
        self.result_cache = result_cache
        self.cache_min_bytes = cache_min_bytes
        self._plan_counter = 0
        # statement text -> its entry, valid for one catalog version
        self._plan_cache: "OrderedDict[str, _Entry]" = OrderedDict()
        self._plan_cache_version = catalog.version
        # statement shape -> its plan template (None: plans per text)
        self._templates: "OrderedDict[tuple, Optional[_Template]]" = OrderedDict()
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        self.shapes = 0
        self.shape_binds = 0
        self.shape_fallbacks = 0
        self.recorded = 0
        self.replays = 0
        self.diverged = 0

    # ------------------------------------------------------------------
    def accepts(self, request: Any) -> bool:
        return isinstance(request, (MalQuery, str))

    def compile_sql(self, sql: str) -> PlannedQuery:
        """SQL -> DC-optimized MAL plan (Table 1 -> Table 2)."""
        return self.compile(sql).payload

    def compile(self, request: Any) -> CompiledQuery:
        """Compile once per statement text, and plan once per statement
        shape, for one catalog version.

        The cached :class:`CompiledQuery` (plan, result variable,
        footprint and its bytes) is shared by every later submission of
        the same text: execution only reads it -- each interpreter
        builds its own variable environment -- so sharing is safe.  A
        new text of a known shape binds its literals into the shape's
        template (:class:`_Template`).  Any catalog change may bind
        other partitions, so it drops the lot.
        """
        sql = request.sql if isinstance(request, MalQuery) else request
        cache = self._current()
        entry = cache.get(sql)
        if entry is not None:
            self.plan_cache_hits += 1
            cache.move_to_end(sql)
            # a shape is as recent as its texts, so the templates a
            # cached text shares stay cached (docs/qpu.md section 7)
            if entry.shape in self._templates:
                self._templates.move_to_end(entry.shape)
            return entry.compiled
        self.plan_cache_misses += 1
        self._plan_counter += 1
        name = f"user.s{self._plan_counter}_1"
        tokens = tokenize(sql)
        shape, literals = statement_shape(tokens)
        known = shape in self._templates
        template = self._shape_template(tokens, shape, literals)
        compiled = None if template is None else template.bind(sql, name, literals)
        if compiled is None:
            if known:
                self.shape_fallbacks += 1
            compiled = self._compile_text(sql, name)
            if not known:  # a shape that plans per text
                self._remember(shape, None)
        elif known:
            self.shape_binds += 1
        cache[sql] = _Entry(compiled, shape)
        if len(cache) > PLAN_CACHE_SIZE:
            cache.popitem(last=False)
        return compiled

    def price(self, request: Any) -> CompiledQuery:
        """What :meth:`compile` would declare for ``request``, leaving no
        text-cache entry behind.

        A cached text answers from its entry.  Any other text answers
        from its shape's template, with the template's own plan and the
        text's literals bound into the selections only: its payload
        prices (``query_class``, ``selections``) but never runs.  A text
        whose shape has no template, or whose fixed literal differs, is
        planned in full and forgotten (docs/qpu.md section 7).
        """
        sql = request.sql if isinstance(request, MalQuery) else request
        entry = self._current().get(sql)
        if entry is not None:
            return entry.compiled
        tokens = tokenize(sql)
        shape, literals = statement_shape(tokens)
        template = self._shape_template(tokens, shape, literals)
        if template is None or not template.fits(literals):
            return self._compile_text(sql, "user.price")
        values = [literal_value(tok) for tok in literals]
        planned = template.planned
        return CompiledQuery(
            engine=self.engine_class,
            footprint=template.footprint,
            footprint_bytes=template.footprint_bytes,
            payload=replace(
                planned, selections=_bind_args(planned.selections, values)
            ),
            description=sql,
        )

    def _current(self) -> "OrderedDict[str, _Entry]":
        """The text cache, after dropping it and the templates if the
        catalog changed: any change may bind other partitions."""
        if self._plan_cache_version != self.catalog.version:
            self._plan_cache.clear()
            self._templates.clear()
            self._plan_cache_version = self.catalog.version
        return self._plan_cache

    def plan_cache_stats(self) -> Dict[str, int]:
        """Hits, misses, current size and the fixed bound of the text
        cache, and what its misses cost: ``shapes`` planned in full,
        ``shape_binds`` (a known shape's template took the text's
        literals) and ``shape_fallbacks`` (a known shape planned in
        full again, see :class:`_Template`); and what executing the
        cached texts did: scripts ``recorded``, executions that
        ``replays`` a script, and replays that ``diverged`` (a pin
        returned another payload and a live interpreter took over)."""
        return {
            "hits": self.plan_cache_hits,
            "misses": self.plan_cache_misses,
            "size": len(self._plan_cache),
            "bound": PLAN_CACHE_SIZE,
            "shapes": self.shapes,
            "shape_binds": self.shape_binds,
            "shape_fallbacks": self.shape_fallbacks,
            "recorded": self.recorded,
            "replays": self.replays,
            "diverged": self.diverged,
        }

    def _shape_template(
        self, tokens: List[Token], shape: Tuple[str, ...], literals: List[Token]
    ) -> Optional["_Template"]:
        """``shape``'s template, planned from this text if the shape is
        new; ``None`` if the shape plans per text.  A new shape that
        cannot be a template is remembered only once a text of it has
        compiled, so a text that fails leaves no shape behind."""
        templates = self._templates
        if shape in templates:
            templates.move_to_end(shape)
            return templates[shape]
        try:
            template = self._template(tokens, literals)
        except (SqlError, ParamInspected):
            return None
        self._remember(shape, template)
        return template

    def _remember(self, shape: Tuple[str, ...], template: Optional["_Template"]) -> None:
        self.shapes += 1
        self._templates[shape] = template
        if len(self._templates) > PLAN_CACHE_SIZE:
            self._templates.popitem(last=False)

    def _template(self, tokens: List[Token], literals: List[Token]) -> "_Template":
        planned = plan_select(parse_template(tokens), self.catalog)
        plan, last_use = dc_rewrite(planned.plan)
        return _Template(
            planned.finished(plan, last_use), *self._footprint(plan), literals
        )

    def _compile_text(self, sql: str, name: str) -> CompiledQuery:
        planned = plan_select(parse_cached(sql), self.catalog, name=name)
        plan, last_use = dc_rewrite(planned.plan)
        footprint, nbytes = self._footprint(plan)
        return CompiledQuery(
            engine=self.engine_class,
            footprint=footprint,
            footprint_bytes=nbytes,
            payload=planned.finished(plan, last_use),
            description=sql,
        )

    def _footprint(self, plan: Plan) -> Tuple[Tuple[int, ...], int]:
        bat_ids = tuple(
            self.catalog.handle(*args).bat_id for args in requested_binds(plan)
        )
        nbytes = sum(
            self.catalog.handle_by_id(b).bat.nbytes for b in bat_ids
        )
        return bat_ids, nbytes

    def estimate_cost(self, compiled: CompiledQuery) -> float:
        # one interpreter pass over the persistent footprint: a lower
        # bound (intermediates add to it), good enough for admission
        return self.cost_model.bytes_cost(compiled.footprint_bytes)

    # ------------------------------------------------------------------
    def execute(
        self, compiled: CompiledQuery, ctx: QpuContext
    ) -> Generator[Any, Any, Any]:
        """Run the plan; a linear run of a cached text that ran before
        records its ring calls, and a later run replays them
        (docs/qpu.md section 7)."""
        planned: PlannedQuery = compiled.payload
        if self.dataflow:
            from repro.dbms.dataflow import DataflowExecutor

            executor = DataflowExecutor(self._registry(ctx), ctx.runtime.sim)
            env = yield from executor.run(planned.plan, dies=planned.dies)
            return env[planned.result_var]
        if self.result_cache is not None:
            from repro.dbms.caching import CachingInterpreter

            interpreter = CachingInterpreter(
                self._registry(ctx),
                cache=self.result_cache,
                runtime=ctx.runtime,
                query_id=ctx.query_id,
                min_publish_bytes=self.cache_min_bytes,
            )
            env = yield from interpreter.run_gen(planned.plan, dies=planned.dies)
            return env[planned.result_var]
        entry = self._entry(compiled)
        if entry is not None and entry.script is not None:
            return (yield from self._replay(entry, planned, ctx))
        script = None
        if entry is not None:
            entry.runs += 1
            if entry.runs > 1:
                script = []
        env = yield from Interpreter(self._registry(ctx, script)).run_gen(
            planned.plan, dies=planned.dies
        )
        result = env[planned.result_var]
        if script is not None and entry.script is None:
            entry.script = (script, tuple(result.names), tuple(result.columns))
            self.recorded += 1
        return result

    def _registry(self, ctx: QpuContext, script=None, owed=None) -> Dict[str, Any]:
        return dc_registry(
            self.local_registry, ctx, self.catalog, self.cost_model, script, owed
        )

    def _entry(self, compiled: CompiledQuery) -> Optional["_Entry"]:
        """The plan-cache entry ``compiled`` came from, while the cache
        holds it for the current catalog version."""
        if self._plan_cache_version != self.catalog.version:
            return None
        entry = self._plan_cache.get(compiled.description)
        if entry is None or entry.compiled is not compiled:
            return None
        return entry

    def _replay(
        self, entry: "_Entry", planned: PlannedQuery, ctx: QpuContext
    ) -> Generator[Any, Any, ResultSet]:
        """Make the script's ring calls again, in order, and return its
        result, as long as every pin returns the payload recorded."""
        self.replays += 1
        recorded = entry.script
        script, names, columns = recorded
        runtime = ctx.runtime
        query_id = ctx.query_id
        for index, step in enumerate(script):
            kind = step[0]
            if kind == _EXEC:
                yield runtime.exec_op(step[1])
            elif kind == _PIN:
                bat_id = step[1]
                fut = runtime.pin(query_id, bat_id)
                yield fut
                payload = ctx.pin_payload(fut.value, bat_id)
                if payload is not step[2]:
                    if entry.script is recorded:
                        entry.script = None  # the data moved: record again
                    owed = script[:index]
                    owed.append((_PIN, bat_id, payload))
                    owed.reverse()
                    return (yield from self._hand_over(planned, ctx, owed))
            elif kind == _REQUEST:
                runtime.request(query_id, [step[1]])
            else:
                ctx.unpin(step[1])
        result = ResultSet()
        result.names = list(names)
        result.columns = list(columns)
        return result

    def _hand_over(
        self, planned: PlannedQuery, ctx: QpuContext, owed: List[tuple]
    ) -> Generator[Any, Any, ResultSet]:
        """Run the plan live from the start, over the payloads the
        replay pinned, without making again the calls it made."""
        self.diverged += 1
        env = yield from Interpreter(self._registry(ctx, owed=owed)).run_gen(
            planned.plan, dies=planned.dies
        )
        if owed:
            raise RuntimeError(
                f"replay handover: the interpreter finished with {len(owed)} "
                "of the script's calls not made"
            )
        return env[planned.result_var]


class _Entry:
    """A statement text's plan-cache entry: its compiled query and
    shape, how many linear runs it had, and the script a run recorded
    -- its ring calls as steps, and its result's names and columns."""

    __slots__ = ("compiled", "shape", "runs", "script")

    def __init__(self, compiled: CompiledQuery, shape: tuple):
        self.compiled = compiled
        self.shape = shape
        self.runs = 0
        self.script: Optional[Tuple[List[tuple], tuple, tuple]] = None


class _Template:
    """One statement shape's DC plan, planned once with literal ``i``
    read as ``Param(i)`` (:func:`~repro.dbms.sql.parser.parse_template`).

    The planner passes a ``Param`` through into instruction arguments
    and raises if it uses one as a value, so for any text of the shape
    the plan is this one with each ``Param`` replaced by the text's
    literal: :meth:`bind` builds new instructions only where a
    ``Param`` sits and shares every other instruction, the end-of-life
    table, footprint, bytes, result variable and column names.  A
    literal that no argument holds (the grammar consumed it, like a
    ``LIMIT`` count) is fixed: a text whose fixed literal differs is
    planned in full instead.  A shape whose planner did use a literal
    as a value never gets a template (``MalQpu._templates`` maps it
    to ``None``).
    """

    __slots__ = ("planned", "footprint", "footprint_bytes", "slots", "fixed")

    def __init__(
        self,
        planned: PlannedQuery,
        footprint: Tuple[int, ...],
        footprint_bytes: int,
        literals: List[Token],
    ):
        self.planned = planned
        self.footprint = footprint
        self.footprint_bytes = footprint_bytes
        held: set = set()
        #: indices of the instructions whose arguments hold a Param
        self.slots = tuple(
            index
            for index, instr in enumerate(planned.plan.instructions)
            if _collect_params(instr.args, held)
        )
        #: (literal index, token text) of the literals no argument holds
        self.fixed = tuple(
            (i, tok.value) for i, tok in enumerate(literals) if i not in held
        )

    def fits(self, literals: List[Token]) -> bool:
        """Whether every fixed literal of a text is the template's."""
        return all(literals[i].value == text for i, text in self.fixed)

    def bind(
        self, sql: str, name: str, literals: List[Token]
    ) -> Optional[CompiledQuery]:
        """``sql``'s compiled query, or ``None`` if a fixed literal of
        ``sql`` differs from the template's."""
        if not self.fits(literals):
            return None
        values = [literal_value(tok) for tok in literals]
        base = self.planned
        instructions = list(base.plan.instructions)
        for index in self.slots:
            instr = instructions[index]
            instructions[index] = Instruction(
                instr.module, instr.fn, _bind_args(instr.args, values), instr.results
            )
        return CompiledQuery(
            engine=MalQpu.engine_class,
            footprint=self.footprint,
            footprint_bytes=self.footprint_bytes,
            payload=PlannedQuery(
                plan=base.plan.derived(name, instructions),
                result_var=base.result_var,
                column_names=base.column_names,
                dies=base.dies,
                query_class=base.query_class,
                selections=_bind_args(base.selections, values),
            ),
            description=sql,
        )


def _collect_params(args, held: set) -> bool:
    """Add the index of every Param in ``args`` (nested in lists and
    tuples) to ``held``; whether there was one."""
    found = False
    for arg in args:
        kind = type(arg)
        if kind is Param:
            held.add(arg.index)
            found = True
        elif kind is list or kind is tuple:
            found = _collect_params(arg, held) or found
    return found


def _bind_args(args, values: List[Any]):
    """``args`` with each Param replaced by its literal's value."""
    bound = []
    for arg in args:
        kind = type(arg)
        if kind is Param:
            arg = values[arg.index]
        elif kind is list or kind is tuple:
            arg = kind(_bind_args(arg, values))
        bound.append(arg)
    return tuple(bound)
