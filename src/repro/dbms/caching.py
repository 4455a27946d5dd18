"""Automatic intermediate-result reuse for ring execution (section 6.2).

"Multi-query processing can be boosted by reusing (intermediate) query
results ... they are simply treated as persistent data and pushed into
the storage ring for queries being interested."

This module makes that automatic for :class:`~repro.dbms.executor.
RingDatabase`: every plan instruction gets a *structural fingerprint*
rooted in the persistent BAT identities it (transitively) consumes, so
equivalent sub-plans of different queries -- compiled independently,
with different variable names -- produce identical fingerprints.  At
execution time, a cacheable instruction first consults the ring-wide
:class:`~repro.xtn.result_cache.ResultCache`:

* **hit** -- the node requests/pins the published intermediate like any
  BAT (paying ring latency instead of CPU time) and skips the operator;
* **miss** -- the operator runs; a sufficiently large result is
  published into the cache, owned by the executing node.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Generator, Optional, Set

from repro.core.runtime import NodeRuntime
from repro.dbms.bat import BAT
from repro.dbms.interpreter import Interpreter
from repro.dbms.mal import Dies, Instruction, Plan, Var
from repro.xtn.result_cache import ResultCache

__all__ = ["plan_fingerprints", "CachingInterpreter", "DEFAULT_CACHEABLE_OPS"]

#: operators worth caching: joins and grouping dominate plan cost
DEFAULT_CACHEABLE_OPS: Set[str] = {
    "algebra.join",
    "algebra.fetchjoin",
    "algebra.semijoin",
    "algebra.select",
    "algebra.selectEq",
    "group.multi",
    "group.new",
}


def plan_fingerprints(plan: Plan) -> Dict[int, str]:
    """A structural hash per instruction index.

    Fingerprints are invariant under variable renaming: a Var argument
    contributes its *defining instruction's* fingerprint, and the roots
    -- ``datacyclotron.request`` / ``sql.bind`` -- contribute the
    persistent BAT key.  Instructions consuming undefined variables (or
    non-deterministic ops) get no fingerprint.
    """
    by_var: Dict[str, str] = {}
    fingerprints: Dict[int, str] = {}
    for index, instr in enumerate(plan):
        parts = [instr.opname]
        ok = True
        for arg in instr.args:
            rendered = _fingerprint_arg(arg, by_var)
            if rendered is None:
                ok = False
                break
            parts.append(rendered)
        if not ok:
            continue
        digest = hashlib.sha1("|".join(parts).encode()).hexdigest()
        fingerprints[index] = digest
        for i, name in enumerate(instr.results):
            by_var[name] = f"{digest}#{i}" if len(instr.results) > 1 else digest
    return fingerprints


def _fingerprint_arg(arg: Any, by_var: Dict[str, str]) -> Optional[str]:
    if isinstance(arg, Var):
        return by_var.get(arg.name)
    if isinstance(arg, (list, tuple)):
        inner = [_fingerprint_arg(a, by_var) for a in arg]
        if any(x is None for x in inner):
            return None
        return "[" + ",".join(inner) + "]"  # type: ignore[arg-type]
    return repr(arg)


class CachingInterpreter(Interpreter):
    """An interpreter that reuses published intermediates over the ring."""

    def __init__(
        self,
        registry,
        cache: ResultCache,
        runtime: NodeRuntime,
        query_id: int,
        min_publish_bytes: int = 64 * 1024,
        cacheable_ops: Optional[Set[str]] = None,
    ):
        super().__init__(registry)
        self.cache = cache
        self.runtime = runtime
        self.query_id = query_id
        self.min_publish_bytes = min_publish_bytes
        self.cacheable_ops = (
            cacheable_ops if cacheable_ops is not None else DEFAULT_CACHEABLE_OPS
        )
        self.hits = 0
        self.publishes = 0

    def run_gen(
        self, plan: Plan, env=None, dies: Optional[Dies] = None
    ) -> Generator[Any, None, Dict[str, Any]]:
        env = env if env is not None else {}
        fingerprints = plan_fingerprints(plan)
        for index, instr in enumerate(plan):
            fingerprint = fingerprints.get(index)
            cacheable = (
                fingerprint is not None
                and instr.opname in self.cacheable_ops
                and len(instr.results) == 1
            )
            hit = None
            if cacheable:
                entry = self.cache.lookup(fingerprint)
                if entry is not None:
                    hit = yield from self._fetch(entry.bat_id)
            if hit is not None:
                self.hits += 1
                env[instr.results[0]] = hit
            else:
                result = yield from self._execute(instr, env)
                if (
                    cacheable
                    and isinstance(result, BAT)
                    and result.nbytes >= self.min_publish_bytes
                ):
                    # the cache keeps its own reference: ``env`` may
                    # drop the result below
                    self.cache.publish(
                        fingerprint,
                        size=result.nbytes,
                        owner=self.runtime.node_id,
                        payload=result,
                    )
                    self.publishes += 1
            if dies is not None:
                for name in dies[index]:
                    del env[name]
        return env

    # ------------------------------------------------------------------
    def _execute(self, instr: Instruction, env: Dict[str, Any]) -> Generator:
        fn = self.registry.get(instr.opname)
        if fn is None:
            from repro.dbms.interpreter import UnknownOperator

            raise UnknownOperator(instr.opname)
        args = tuple(self._resolve(a, env) for a in instr.args)
        result = fn(*args)
        import inspect

        if inspect.isgenerator(result):
            result = yield from result
        self._assign(instr, result, env)
        return result

    def _fetch(self, bat_id: int) -> Generator:
        """Pull a published intermediate off the ring; None on failure."""
        self.runtime.request(self.query_id, [bat_id])
        fut = self.runtime.pin(self.query_id, bat_id)
        yield fut
        result = fut.value
        if not result.ok or result.payload is None:
            return None
        payload = result.payload
        # the reference stays valid after unpinning; the simulated memory
        # hand-over (and its latency) has been paid
        self.runtime.unpin(self.query_id, bat_id)
        return payload
