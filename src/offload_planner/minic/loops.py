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

must holds the names an execution of the loop that runs its body surely
writes in full. A store to one array element counts for the array only at
the loop whose iterations provably store every cell: the index is an
integer affine function of the counters of loops whose headers alone drive
their index variables, and it maps their iterations one to one onto the
array's extent (``for(i=0;i<8;i++){ a[i] = ...; }`` with ``float a[8]``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .astnodes import (
    EXACT,
    Assign,
    BinOp,
    Block,
    Call,
    CallStmt,
    ForLoop,
    Num,
    Program,
    Var,
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
    must: frozenset
    after: tuple              # (reads, writes), each a frozenset


class LoopTable:
    """All for-loops of a program in source order, with indexes of the loop
    tree: each loop's ancestors, subtree and entry count."""

    def __init__(self, infos: list[LoopInfo], nodes: dict[int, ForLoop]):
        self.infos = tuple(infos)
        self.nodes = nodes
        self.by_id = {info.loop_id: info for info in infos}
        self._eligible_ids = tuple(info.loop_id for info in infos if info.eligible)
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

    def eligible_ids(self) -> tuple:
        """Ids of the eligible loops in table order: one bit each in a
        pattern."""
        return self._eligible_ids

    def gene_length(self) -> int:
        return len(self._eligible_ids)

    def ancestors(self, loop_id: int) -> list[int]:
        """Proper ancestors, innermost first."""
        return list(self._ancestors[loop_id])

    def is_ancestor(self, a: int, b: int) -> bool:
        return a in self._ancestors[b]

    def nested_pair(self, loop_ids) -> tuple | None:
        """The first of ``loop_ids`` (in the given order) with an ancestor
        among them, and its innermost such ancestor; None when no two
        nest."""
        chosen = set(loop_ids)
        for lid in loop_ids:
            for anc in self._ancestors[lid]:
                if anc in chosen:
                    return lid, anc
        return None

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
    must-written); writes adds header index updates to assigned. In a
    must-written set, the node id of an element store stands for its cell
    until a loop around it covers the array."""
    consts = _single_assignment_constants(ast)
    sizes = {item.name: item.size for item in ast.items
             if isinstance(item, VarDecl) and item.is_array}
    infos = []
    nodes = {}
    pending: dict[int, dict] = {}  # loop id -> LoopInfo fields but after
    enclosing: list = []   # the loops around the statement visited, outermost first
    cells: dict = {}       # element store id -> (array, index, enclosing loops)
    calls: list = []       # names of the unknown calls visited, in source order
    # loop id -> (start, step, trip) of each loop whose header alone steps
    # its index, through integers
    driven: dict = {}

    def scope(items, parent_id, depth, header):
        """Summary of a scope, recording the loops in it. ``header`` is the
        (reads, writes) of the loop whose body it is, None at top level."""
        stmts = list(_flatten(items))
        sums = [loop(s, parent_id, depth) if isinstance(s, ForLoop) else plain(s)
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

    def plain(stmt):
        """Summary of a loop-free statement: it reads its operands, then
        stores."""
        reads, assigned, _ = accesses(stmt)
        calls.extend(_unknown_calls(stmt))
        must = assigned
        if isinstance(stmt, Assign) and stmt.index is not None:
            cells[stmt.node_id] = (stmt.name, stmt.index, tuple(enclosing))
            must = {stmt.node_id}
        return reads, assigned, assigned, reads, must

    def covers(depth, cell) -> bool:
        """Whether the iterations of the loop at ``depth`` around the cell
        store every element of its array."""
        array, index, chain = cell
        counters = {around.var: driven.get(around.node_id)  # innermost wins
                    for around in chain[depth:]}
        form = _affine(index, consts, counters)
        return form is not None and _covers(form, counters, sizes.get(array))

    def loop(node: ForLoop, parent_id, depth):
        """The loop's summary. Its header reads init, writes the index,
        reads the bound, condition and step variables, then steps."""
        nodes[node.node_id] = node
        init_reads = accesses(node.init)[0]
        test_reads = accesses(node.bound)[0] | {node.cond_var, node.step_var}
        header_reads = init_reads | test_reads
        header_writes = {node.var, node.step_var}
        first_call = len(calls)
        calls.extend(_unknown_calls(node.init, node.bound))
        enclosing.append(node)
        reads, assigned, writes, exposed, must = scope(
            (node.body,), node.node_id, depth + 1, (header_reads, header_writes))
        enclosing.pop()
        trip = static_trip_count(node, consts)
        reason = None
        if not node.canonical:
            reason = (f"non-canonical header: controls ({node.var}, "
                      f"{node.cond_var}, {node.step_var}) differ")
        elif trip is None:
            reason = "bounds not statically evaluable or trip count not positive"
        else:
            if len(calls) > first_call:
                reason = f"unknown call '{calls[first_call]}' in loop body"
            elif node.var in writes:  # a nested header re-driving it, too
                reason = f"index variable '{node.var}' assigned in loop body"
            start = _fold(node.init, consts)
            if node.var not in writes and start.is_integer():
                driven[node.node_id] = (int(start), node.step, trip)
        exposed = init_reads | (test_reads - {node.var}) | (exposed - header_writes)
        covered = {x for x in must if not isinstance(x, str) and covers(depth, cells[x])}
        must = header_writes | (must - covered) | {cells[x][0] for x in covered}
        pending[node.node_id] = dict(
            loop_id=node.node_id, parent_loop=parent_id, depth=depth,
            trip_count=trip, eligible=reason is None, ineligibility_reason=reason,
            defs=frozenset(assigned), uses=frozenset(header_reads | reads),
            exposed=frozenset(exposed),
            must=frozenset(x for x in must if isinstance(x, str)))
        if trip is None:  # a body that may run zero times writes nothing for sure
            must = header_writes
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


def _affine(expr, consts: dict, counters: dict):
    """``expr`` as (c, {var: k}), the value c + sum of k * t over the
    iteration counters t of the loops driving its variables; ``counters``
    maps each variable to its loop's (start, step, trip), None when no
    header alone drives it. None unless c and every k are integers and
    every subexpression takes only integer values below EXACT, which
    binary64 arithmetic computes exactly."""
    if isinstance(expr, Num) or (isinstance(expr, Var) and expr.name in consts):
        value = expr.value if isinstance(expr, Num) else consts[expr.name]
        if not float(value).is_integer():
            return None
        form = (int(value), {})
    elif isinstance(expr, Var):
        if counters.get(expr.name) is None:
            return None
        start, step, _ = counters[expr.name]
        form = (start, {expr.name: step})
    elif isinstance(expr, BinOp):
        left = _affine(expr.left, consts, counters)
        right = _affine(expr.right, consts, counters)
        if left is None or right is None:
            return None
        (lc, lk), (rc, rk) = left, right
        if expr.op in "+-":
            sign = 1 if expr.op == "+" else -1
            k = dict(lk)
            for var, x in rk.items():
                k[var] = k.get(var, 0) + sign * x
            form = (lc + sign * rc, k)
        elif expr.op == "*" and not (lk and rk):
            factor, (c, k) = (rc, left) if not rk else (lc, right)
            form = (c * factor, {var: x * factor for var, x in k.items()})
        elif (expr.op == "/" and not rk and rc != 0
              and all(x % rc == 0 for x in (lc, *lk.values()))):
            form = (lc // rc, {var: x // rc for var, x in lk.items()})
        else:
            return None
    else:
        return None
    c, k = form
    if abs(c) + sum(abs(x) * (counters[var][2] - 1) for var, x in k.items()) >= EXACT:
        return None
    return form


def _covers(form, counters: dict, size: int | None) -> bool:
    """Whether the affine index ``form`` maps the loops' iterations one to
    one onto range(size): no offset, and the nonzero coefficients, sorted,
    are the place values of a mixed-radix number whose digits are the
    iteration counters."""
    c, k = form
    reach = 1  # the iterations so far cover range(reach)
    for x, trip in sorted((x, counters[var][2]) for var, x in k.items() if x):
        if x != reach:
            return False
        reach *= trip
    return c == 0 and reach == size


def _unknown_calls(*nodes) -> list:
    """Names of the unknown calls in the nodes' subtrees, in source order."""
    return [n.name for node in nodes for n in walk(node)
            if isinstance(n, (Call, CallStmt)) and not n.intrinsic]


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
    if isinstance(expr, Num):  # most loop bounds, without compiling
        return expr.value
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
    if start is None or bound is None or not math.isfinite(bound - start):
        return None
    if loop.op == "<":
        trips = math.ceil((bound - start) / loop.step) if bound > start else 0
    else:
        trips = math.floor((bound - start) / loop.step) + 1 if bound >= start else 0
    return int(trips) if trips >= 1 else None
