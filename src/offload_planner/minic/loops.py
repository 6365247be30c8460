"""Loop extraction: nesting, trip counts, offload eligibility, def/use sets.

Eligibility is decided by static rules: (a) canonical header, (b) bounds
statically evaluable over single-assignment constants with a positive trip
count, (c) no unknown calls anywhere in the subtree, (d) the index variable
is never assigned in the body.

defs/uses cover the full loop subtree. Loop-header index updates do not
count as defs (the header is loop control, not a data write), but every
header read (init/bound operands, condition and step variables) counts as
a use, so a loop's own index is always in its uses.
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
    children,
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


class LoopTable:
    """All for-loops of a program in source order, with indexes of the loop
    tree: each loop's ancestors, subtree, entry count and containers."""

    def __init__(self, infos: list[LoopInfo], nodes: dict[int, ForLoop],
                 chains: dict[int, tuple]):
        self.infos = tuple(infos)
        self.nodes = nodes
        self.by_id = {info.loop_id: info for info in infos}
        self._chains = chains
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

    def chain(self, loop_id: int) -> tuple:
        """Containers (Program, Blocks, enclosing loops) from the program
        root down to the loop, the loop excluded."""
        return self._chains[loop_id]

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
    consts = _single_assignment_constants(ast)
    infos = []
    nodes = {}
    chains = {}

    def visit(container, chain, parent_id, depth):
        chain = chain + (container,)
        for child in children(container):
            if isinstance(child, ForLoop):
                nodes[child.node_id] = child
                chains[child.node_id] = chain
                infos.append(_analyze(child, parent_id, depth, consts))
                visit(child, chain, child.node_id, depth + 1)
            elif isinstance(child, Block):
                visit(child, chain, parent_id, depth)

    visit(ast, (), None, 0)
    infos.sort(key=lambda info: info.loop_id)  # node ids are in source order
    return LoopTable(infos, nodes, chains)


def _analyze(loop: ForLoop, parent_id, depth, consts) -> LoopInfo:
    defs, uses = def_use(loop)
    trip = static_trip_count(loop, consts)
    reason = None
    if not loop.canonical:
        reason = (f"non-canonical header: controls ({loop.var}, "
                  f"{loop.cond_var}, {loop.step_var}) differ")
    elif trip is None:
        reason = "bounds not statically evaluable or trip count not positive"
    else:
        unknown = _first_unknown_call(loop)
        if unknown is not None:
            reason = f"unknown call '{unknown}' in loop body"
        elif _index_written(loop):
            reason = f"index variable '{loop.var}' assigned in loop body"
    return LoopInfo(
        loop_id=loop.node_id,
        parent_loop=parent_id,
        depth=depth,
        trip_count=trip,
        eligible=reason is None,
        ineligibility_reason=reason,
        defs=frozenset(defs),
        uses=frozenset(uses),
    )


def def_use(node) -> tuple[set, set]:
    """Exact def/use sets over a statement subtree: (assigned, reads)."""
    reads, assigned, _ = accesses(node)
    return assigned, reads


def _first_unknown_call(loop: ForLoop) -> str | None:
    for node in walk(loop):
        if isinstance(node, (Call, CallStmt)) and not node.intrinsic:
            return node.name
    return None


def _index_written(loop: ForLoop) -> bool:
    # a nested header re-driving the same variable also rewrites it
    _, assigned, control = accesses(loop.body)
    return loop.var in assigned or loop.var in control


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
