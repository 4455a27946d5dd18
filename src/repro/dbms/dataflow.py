"""Dataflow-concurrent plan execution (paper section 4.1).

"The MAL plan is executed using concurrent interpreter threads
following the dataflow dependencies.  Unlike the pin() call, the
request() and unpin() calls do not block threads."

The linear :class:`~repro.dbms.interpreter.Interpreter` runs one
instruction at a time, so a blocked pin stalls the whole plan.  The
:class:`DataflowExecutor` instead spawns one simulated process per
instruction, started the moment its operands are ready: several pins
can block *concurrently* while independent operator threads keep
computing -- the overlap that lets a Data Cyclotron node hide ring
latency behind useful work.
"""

from __future__ import annotations

import inspect
from typing import Any, Dict, Generator, List, Optional

from repro.dbms.interpreter import UnknownOperator
from repro.dbms.mal import Dies, Instruction, Plan, Var
from repro.sim.engine import Simulator
from repro.sim.process import Future, Process

__all__ = ["DataflowExecutor"]


class DataflowExecutor:
    """Executes one plan with instruction-level concurrency."""

    def __init__(self, registry: Dict[str, Any], sim: Simulator):
        self.registry = registry
        self.sim = sim

    # ------------------------------------------------------------------
    def run(
        self,
        plan: Plan,
        env: Optional[Dict[str, Any]] = None,
        dies: Optional[Dies] = None,
    ) -> Generator[Any, None, Dict[str, Any]]:
        """A generator process: resolves when every instruction finished.

        Yield it from an enclosing simulated process (or wrap in
        :class:`~repro.sim.process.Process`).  Given the plan's
        end-of-life table ``dies``, a variable it lists leaves ``env``
        once its last reader -- in completion order, not plan order --
        has resolved its arguments.
        """
        env = env if env is not None else {}
        var_ready: Dict[str, Future] = {}
        for instr in plan:
            for name in instr.results:
                var_ready[name] = Future(self.sim)
        readers: Optional[Dict[str, int]] = None
        if dies is not None:
            readers = {name: 0 for names in dies for name in names}
            for instr in plan:
                for name in instr.uses():
                    if name in readers:
                        readers[name] += 1

        instruction_done: List[Future] = []
        for instr in plan:
            done = Future(self.sim)
            instruction_done.append(done)
            Process(
                self.sim, self._run_instruction,
                instr, env, var_ready, readers, done,
            )

        for done in instruction_done:
            if not done.done:
                yield done
            error = done.value
            if error is not None:
                raise error
        return env

    # ------------------------------------------------------------------
    def _run_instruction(
        self,
        instr: Instruction,
        env: Dict[str, Any],
        var_ready: Dict[str, Future],
        readers: Optional[Dict[str, int]],
        done: Future,
    ) -> Generator:
        try:
            # wait for every operand this instruction reads
            uses = sorted(instr.uses())
            for name in uses:
                fut = var_ready.get(name)
                if fut is None:
                    raise NameError(f"variable {name} is never produced")
                if not fut.done:
                    yield fut
            fn = self.registry.get(instr.opname)
            if fn is None:
                raise UnknownOperator(instr.opname)
            args = tuple(self._resolve(a, env) for a in instr.args)
            if readers is not None:
                self._release(uses, env, readers)
            result = fn(*args)
            if inspect.isgenerator(result):
                result = yield from result
            self._assign(instr, result, env, var_ready)
            if readers is not None:
                for name in instr.results:
                    if readers.get(name) == 0:  # nothing reads it
                        del readers[name]
                        del env[name]
        except Exception as error:  # surfaced by the coordinating loop
            done.resolve(error)
            return
        done.resolve(None)

    @staticmethod
    def _release(names, env: Dict[str, Any], readers: Dict[str, int]) -> None:
        """Count one reader off each of ``names``; a listed variable with
        no reader left leaves ``env``."""
        for name in names:
            left = readers.get(name)
            if left is None:
                continue
            if left == 1:
                del readers[name]
                del env[name]
            else:
                readers[name] = left - 1

    @staticmethod
    def _resolve(arg: Any, env: Dict[str, Any]) -> Any:
        if isinstance(arg, Var):
            return env[arg.name]
        if isinstance(arg, (list, tuple)):
            return [env[a.name] if isinstance(a, Var) else a for a in arg]
        return arg

    @staticmethod
    def _assign(
        instr: Instruction,
        result: Any,
        env: Dict[str, Any],
        var_ready: Dict[str, Future],
    ) -> None:
        if not instr.results:
            return
        if len(instr.results) == 1:
            env[instr.results[0]] = result
            var_ready[instr.results[0]].resolve(None)
            return
        if not isinstance(result, tuple) or len(result) != len(instr.results):
            raise ValueError(
                f"{instr.opname} returned {result!r} for {instr.results}"
            )
        for name, value in zip(instr.results, result):
            env[name] = value
            var_ready[name].resolve(None)
