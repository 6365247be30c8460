"""Loop extraction: nesting, trip counts, offload eligibility, and the
access facts transfer planning needs, all from one bottom-up visit.

Eligibility is decided by static rules: (a) canonical header, (b) bounds
statically evaluable over single-assignment constants with a positive trip
count, (c) no unknown calls anywhere in the subtree, (d) the index variable
is never assigned in the body.

defs/uses cover the full loop subtree. Loop-header index updates do not
count as defs (the header is loop control, not a data write), but every
header read (init/bound operands, condition and step variables) counts as
a use, so a loop's own index is always in its uses.

exposed holds the names the loop reads before it writes them, the values
a kernel consumes from host memory. MiniC has no branches, so the order of
statements decides this exactly; a nested loop whose static trip count is
unknown may run zero times, so its writes do not hide later reads.

after is the (reads, writes) of CPU code in the loop's scope that can run
after the loop: for a nested loop the rest of its parent, header included
(the next parent iteration); for a top-level loop the statements that
follow it. Header index updates count as writes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .astnodes import (
    Block,
    Call,
    CallStmt,
    ForLoop,
    Program,
    VarDecl,
    accesses,
    walk,
)
from .interp import EvalError, eval_expr


@dataclass(frozen=True)
class LoopInfo:
    loop_id: int
    parent_loop: int | None
    depth: int
    trip_count: int | None
    eligible: bool
    ineligibility_reason: str | None
    defs: frozenset
    uses: frozenset
    exposed: frozenset
    after: tuple              # (reads, writes), each a frozenset


class LoopTable:
    """All for-loops of a program in source order, with indexes of the loop
    tree: each loop's ancestors, subtree and entry count."""

    def __init__(self, infos: list[LoopInfo], nodes: dict[int, ForLoop]):
        self.infos = tuple(infos)
        self.nodes = nodes
        self.by_id = {info.loop_id: info for info in infos}
        self._ancestors: dict[int, tuple] = {}
        self._subtree: dict[int, list] = {}
        self._exec_counts: dict[int, int | None] = {}
        for info in self.infos:  # parents precede their children
            lid, parent = info.loop_id, info.parent_loop
            if parent is None:
                self._ancestors[lid] = ()
                self._exec_counts[lid] = 1
            else:
                self._ancestors[lid] = (parent,) + self._ancestors[parent]
                outer, trip = self._exec_counts[parent], self.by_id[parent].trip_count
                self._exec_counts[lid] = None if outer is None or trip is None else outer * trip
            self._subtree[lid] = []
            for owner in (lid,) + self._ancestors[lid]:
                self._subtree[owner].append(lid)

    def __iter__(self):
        return iter(self.infos)

    def __len__(self):
        return len(self.infos)

    def eligible(self) -> list[LoopInfo]:
        return [info for info in self.infos if info.eligible]

    def eligible_ids(self) -> list[int]:
        return [info.loop_id for info in self.infos if info.eligible]

    def gene_length(self) -> int:
        return len(self.eligible_ids())

    def ancestors(self, loop_id: int) -> list[int]:
        """Proper ancestors, innermost first."""
        return list(self._ancestors[loop_id])

    def is_ancestor(self, a: int, b: int) -> bool:
        return a in self._ancestors[b]

    def subtree_ids(self, root_id: int) -> list[int]:
        return list(self._subtree[root_id])

    def exec_count(self, loop_id: int) -> int | None:
        """How many times the loop is entered: the product of its ancestors'
        trip counts, None when one of them is unknown."""
        return self._exec_counts[loop_id]

    def to_json(self) -> list[dict]:
        return [
            {
                "loop_id": info.loop_id,
                "parent": info.parent_loop,
                "depth": info.depth,
                "trip_count": info.trip_count,
                "eligible": info.eligible,
                "reason": info.ineligibility_reason,
                "defs": sorted(info.defs),
                "uses": sorted(info.uses),
            }
            for info in self.infos
        ]

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"


def extract_loops(ast: Program) -> LoopTable:
    """The loop table of ``ast`` from one bottom-up visit. Blocks are
    flattened into their scope, the program or a loop body, and each
    statement is summarised as (reads, assigned, writes, exposed,
    must-written); writes adds header index updates to assigned."""
    consts = _single_assignment_constants(ast)
    infos = []
    nodes = {}
    pending: dict[int, dict] = {}  # loop id -> LoopInfo fields but after

    def scope(items, parent_id, depth, header):
        """Summary of a scope, recording the loops in it. ``header`` is the
        (reads, writes) of the loop whose body it is, None at top level."""
        stmts = list(_flatten(items))
        sums = [loop(s, parent_id, depth) if isinstance(s, ForLoop) else _plain(s)
                for s in stmts]
        later = [(set(), set())]  # (reads, writes) after each statement
        for reads, _, writes, _, _ in reversed(sums[1:]):
            later.append((later[-1][0] | reads, later[-1][1] | writes))
        reads, assigned, writes, exposed, must = set(), set(), set(), set(), set()
        for stmt, summary, (after_reads, after_writes) in zip(stmts, sums, reversed(later)):
            if isinstance(stmt, ForLoop):
                if header is not None:  # the header and what precedes rerun
                    after_reads = after_reads | header[0] | reads
                    after_writes = after_writes | header[1] | writes
                infos.append(LoopInfo(**pending.pop(stmt.node_id), after=(
                    frozenset(after_reads), frozenset(after_writes))))
            s_reads, s_assigned, s_writes, s_exposed, s_must = summary
            reads |= s_reads
            assigned |= s_assigned
            writes |= s_writes
            exposed |= s_exposed - must
            must |= s_must
        return reads, assigned, writes, exposed, must

    def loop(node: ForLoop, parent_id, depth):
        """The loop's summary. Its header reads init, writes the index,
        reads the bound, condition and step variables, then steps."""
        nodes[node.node_id] = node
        init_reads = accesses(node.init)[0]
        test_reads = accesses(node.bound)[0] | {node.cond_var, node.step_var}
        header_reads = init_reads | test_reads
        header_writes = {node.var, node.step_var}
        reads, assigned, writes, exposed, must = scope(
            (node.body,), node.node_id, depth + 1, (header_reads, header_writes))
        trip = static_trip_count(node, consts)
        reason = None
        if not node.canonical:
            reason = (f"non-canonical header: controls ({node.var}, "
                      f"{node.cond_var}, {node.step_var}) differ")
        elif trip is None:
            reason = "bounds not statically evaluable or trip count not positive"
        else:
            unknown = _first_unknown_call(node)
            if unknown is not None:
                reason = f"unknown call '{unknown}' in loop body"
            elif node.var in writes:  # a nested header re-driving it, too
                reason = f"index variable '{node.var}' assigned in loop body"
        exposed = init_reads | (test_reads - {node.var}) | (exposed - header_writes)
        pending[node.node_id] = dict(
            loop_id=node.node_id, parent_loop=parent_id, depth=depth,
            trip_count=trip, eligible=reason is None, ineligibility_reason=reason,
            defs=frozenset(assigned), uses=frozenset(header_reads | reads),
            exposed=frozenset(exposed))
        # a body that may run zero times writes nothing for sure
        must = header_writes | must if trip is not None else header_writes
        return header_reads | reads, assigned, header_writes | writes, exposed, must

    scope(ast.items, None, 0, None)
    infos.sort(key=lambda info: info.loop_id)  # node ids are in source order
    return LoopTable(infos, nodes)


def _flatten(stmts):
    for stmt in stmts:
        if isinstance(stmt, Block):
            yield from _flatten(stmt.body)
        else:
            yield stmt


def _plain(stmt) -> tuple:
    """Summary of a loop-free statement: it reads its operands, then
    stores."""
    reads, assigned, _ = accesses(stmt)
    return reads, assigned, assigned, reads, assigned


def _first_unknown_call(loop: ForLoop) -> str | None:
    for node in walk(loop):
        if isinstance(node, (Call, CallStmt)) and not node.intrinsic:
            return node.name
    return None


def _single_assignment_constants(ast: Program) -> dict:
    """Store of the variables never assigned anywhere, folded from their
    declaration initializer (default 0 for scalars without one)."""
    _, assigned, control = accesses(ast)
    consts: dict = {}
    for item in ast.items:
        if (isinstance(item, VarDecl) and not item.is_array
                and item.name not in assigned and item.name not in control):
            value = 0.0 if item.init is None else _fold(item.init, consts)
            if value is not None:
                consts[item.name] = value
    return consts


def _fold(expr, consts: dict) -> float | None:
    """The expression's value over the constants; None when it reads
    anything else (a KeyError) or cannot be evaluated."""
    try:
        return eval_expr(expr, consts)
    except (EvalError, KeyError):
        return None


def static_trip_count(loop: ForLoop, consts) -> int | None:
    """Positive iteration count when the header folds to constants, else None."""
    if not loop.canonical or loop.step <= 0:
        return None
    start = _fold(loop.init, consts)
    bound = _fold(loop.bound, consts)
    if start is None or bound is None:
        return None
    if loop.op == "<":
        trips = math.ceil((bound - start) / loop.step) if bound > start else 0
    else:
        trips = math.floor((bound - start) / loop.step) + 1 if bound >= start else 0
    return int(trips) if trips >= 1 else None
