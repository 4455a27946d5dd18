"""The Data Cyclotron optimizer (paper section 4.1, Table 2).

"The MonetDB server receives an SQL query and compiles it into a MAL
plan.  This plan is analyzed by the Data Cyclotron optimizer, which
injects three calls request(), pin() and unpin().  ...  The optimizer
replaces each BAT bind call by a request() call and keeps a list of all
outstanding BAT requests.  For each relational operator argument, it
checks if it comes from the Data Cyclotron layer.  Its first utilization
leads to injection of a pin() call into the plan.  Likewise, the last
reference of a variable is localized and an unpin() call is injected."

The rewrite turns Table 1 into Table 2:

* ``X1 := sql.bind(s, t, c, p)``      becomes ``T := datacyclotron.request(s, t, c, p)``
* before the first use of ``X1``:     ``X1 := datacyclotron.pin(T)``
* after the last use of ``X1``:       ``datacyclotron.unpin(X1)``

Unused binds are requested and never pinned (the request still primes
the hot set), matching the paper's description of request() as a pure
hint that does not block.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.dbms.mal import Instruction, Plan, Var, liveness

__all__ = ["dc_optimize", "dc_rewrite", "BIND_OPS"]

#: bind-style operators whose results live in the Data Cyclotron layer
BIND_OPS = ("sql.bind",)


def dc_optimize(plan: Plan, bind_ops=BIND_OPS) -> Plan:
    """Return a new plan with request/pin/unpin calls injected."""
    return dc_rewrite(plan, bind_ops)[0]


def dc_rewrite(plan: Plan, bind_ops=BIND_OPS) -> Tuple[Plan, Dict[str, int]]:
    """:func:`dc_optimize`, plus the new plan's last-use map: what
    ``liveness(new)[1]`` holds, up to key order, carried over from the
    one liveness walk the rewrite makes over its input, so a compile
    builds the end-of-life table without walking the new plan again.
    A bound variable's last use is its unpin, a pinned token's its pin;
    every other variable keeps its last use, moved to where that
    instruction landed."""
    out = Plan(plan.name)
    out._counter = plan._counter  # keep fresh variables fresh

    # Pass 1: replace binds with requests, remember bound variables.
    token_of: Dict[str, str] = {}  # bound var -> request token var
    replaced: List[Instruction] = []
    for instr in plan:
        if instr.opname in bind_ops and len(instr.results) == 1:
            bound = instr.results[0]
            token = out.fresh_var().name
            token_of[bound] = token
            replaced.append(
                Instruction(
                    module="datacyclotron",
                    fn="request",
                    args=instr.args,
                    results=(token,),
                )
            )
        else:
            replaced.append(instr)

    # Pass 2: find first and last uses of each bound variable, in order
    # of first read (``liveness`` walks arguments positionally): when one
    # instruction first-uses several bound variables, the pins must be
    # injected in a deterministic order, independent of string-hash
    # randomization.
    first_read, last_read = liveness(replaced)
    first_use = {n: i for n, i in first_read.items() if n in token_of}
    last_use = {n: i for n, i in last_read.items() if n in token_of}

    # Pass 3: emit, injecting pins before first use and unpins after last.
    pins_at: Dict[int, List[str]] = {}
    unpins_at: Dict[int, List[str]] = {}
    for name, idx in first_use.items():
        pins_at.setdefault(idx, []).append(name)
    for name, idx in last_use.items():
        unpins_at.setdefault(idx, []).append(name)

    # Requests are hoisted to the top of the plan: request() "does not
    # block" (section 4.1) and issuing every request at registration
    # time lets the hot set start flowing while the plan executes.
    emitted = out.instructions
    landed = [0] * len(replaced)  # replaced index -> index in ``out``
    last_out: Dict[str, int] = {}
    for i, instr in enumerate(replaced):
        if instr.opname == "datacyclotron.request":
            landed[i] = len(emitted)
            out.append(instr)
    for i, instr in enumerate(replaced):
        if instr.opname == "datacyclotron.request":
            continue
        for name in pins_at.get(i, ()):
            last_out[token_of[name]] = len(emitted)
            out.append(
                Instruction(
                    module="datacyclotron",
                    fn="pin",
                    args=(Var(token_of[name]),),
                    results=(name,),
                )
            )
        landed[i] = len(emitted)
        out.append(instr)
        for name in unpins_at.get(i, ()):
            last_out[name] = len(emitted)
            out.append(
                Instruction(
                    module="datacyclotron",
                    fn="unpin",
                    args=(Var(name),),
                    results=(),
                )
            )
    for name, i in last_read.items():
        if name not in last_out:
            last_out[name] = landed[i]
    return out, last_out


def requested_binds(plan: Plan) -> List[tuple]:
    """The (schema, table, column, partition) tuples a DC plan requests."""
    return [
        tuple(instr.args)
        for instr in plan
        if instr.opname == "datacyclotron.request"
    ]
