"""Offload patterns, transfer planning, directive emission, and the
two-memory-space execution model.

A pattern assigns one bit per eligible loop (loop-table order). A set bit
offloads that loop; the loop plus its subtree is an offload region executed
as one device kernel. Patterns where an offloaded loop has an offloaded
ancestor are invalid.

Transfer planning, per region. A region's ops depend only on the program
and the region root (and whether hoisting is on), never on which other
regions the pattern offloads, so each region is planned once per loop
table and a pattern's plan is its regions' ops in loop-table order:
  * host-to-device (copyin) for every variable whose value flows into the
    region from outside: read in the region before the region writes it;
  * device-to-host (copyout) for every variable the region writes that CPU
    code can later read or rewrite, or whose copyin refires in a CPU loop;
  * each op anchors at the region root, then hoists outward past enclosing
    CPU loops while the enclosing loop has no blocking access, batching the
    transfer to run once instead of once per enclosing iteration.

Blocking accesses include loop-header index updates: LoopInfo.defs excludes
loop control writes, but hoisting a copyin past a header that rewrites the
transferred variable every iteration would ship a stale value.

Two-space execution compiles the program once per run with the
interpreter's closure compiler (minic.interp.Machine): CPU code for host
memory, each region's subtree for device memory, and the plan's transfers
into the entry and exit of their anchor loops. A device write marks a
variable device-fresh; a host write or a transfer clears the mark. The
teardown flush copies out exactly the device-fresh variables:
region-written loop indices and results that no CPU code touches later get
no copyout, yet are program outputs.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass
from functools import partial

from .minic.astnodes import Block, ForLoop, Program, VarDecl, accesses, children
from .minic.interp import POISON, Machine, TwoSpaceError
from .minic.loops import LoopTable

HOST_TO_DEVICE = "host_to_device"
DEVICE_TO_HOST = "device_to_host"


class LengthMismatch(Exception):
    pass


class InvalidPattern(Exception):
    pass


@dataclass(frozen=True)
class OffloadPattern:
    bits: tuple

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("pattern bits must be 0 or 1")

    def __len__(self):
        return len(self.bits)

    def as_string(self) -> str:
        return "".join(str(b) for b in self.bits)

    def to_json(self, loops: LoopTable) -> dict:
        return {"bits": list(self.bits), "loop_ids": loops.eligible_ids()}

    @staticmethod
    def from_json(data: dict) -> "OffloadPattern":
        return OffloadPattern(tuple(int(b) for b in data["bits"]))


def validate_pattern(pattern: OffloadPattern, loops: LoopTable) -> str | None:
    """None when valid; otherwise a reason naming the offending loop pair."""
    eligible = loops.eligible_ids()
    if len(pattern.bits) != len(eligible):
        raise LengthMismatch(
            f"pattern length {len(pattern.bits)} != eligible loop count {len(eligible)}")
    offloaded = {lid for lid, bit in zip(eligible, pattern.bits) if bit}
    for lid in sorted(offloaded):
        for anc in loops.ancestors(lid):
            if anc in offloaded:
                return (f"loop {lid} and its ancestor {anc} are both offloaded; "
                        f"regions cannot nest")
    return None


def offloaded_ids(pattern: OffloadPattern, loops: LoopTable) -> list[int]:
    return [lid for lid, bit in zip(loops.eligible_ids(), pattern.bits) if bit]


@dataclass(frozen=True)
class TransferOp:
    var: str
    direction: str            # HOST_TO_DEVICE | DEVICE_TO_HOST
    anchor_loop: int          # fires on every entry/exit of this loop
    position: str             # "before" | "after"
    hoisted: bool
    bytes: int
    region: int               # region root the op serves


@dataclass(frozen=True)
class TransferPlan:
    ops: tuple

    def before(self, loop_id: int) -> list[TransferOp]:
        return [op for op in self.ops
                if op.anchor_loop == loop_id and op.position == "before"]

    def after(self, loop_id: int) -> list[TransferOp]:
        return [op for op in self.ops
                if op.anchor_loop == loop_id and op.position == "after"]

    def for_var(self, var: str) -> list[TransferOp]:
        return [op for op in self.ops if op.var == var]


# loop table -> {(root, hoist): region ops}. Two threads may fill an entry
# at once; both compute equal ops, so either write may win.
_REGION_OPS = weakref.WeakKeyDictionary()


def plan_transfers(ast: Program, loops: LoopTable, pattern: OffloadPattern,
                   hoist: bool = True) -> TransferPlan:
    """The ops of every offloaded region, region by region in loop-table
    order. ``loops`` is the loop table of ``ast``."""
    reason = validate_pattern(pattern, loops)
    if reason is not None:
        raise InvalidPattern(reason)
    memo = _REGION_OPS.setdefault(loops, {})
    ops = []
    for root in offloaded_ids(pattern, loops):
        region_ops = memo.get((root, hoist))
        if region_ops is None:
            region_ops = memo[root, hoist] = _region_ops(ast, loops, root, hoist)
        ops.extend(region_ops)
    return TransferPlan(tuple(ops))


def _region_ops(ast: Program, loops: LoopTable, root: int, hoist: bool) -> tuple:
    """Copyin ops, then copyout ops, each sorted by variable, of the region
    rooted at ``root``."""
    decls = {item.name: item for item in ast.items if isinstance(item, VarDecl)}
    # Walk the containers outward from the region. Each enclosing loop
    # contributes its accesses outside the loop below it on the chain: they
    # block hoisting past it, and CPU code makes them in later iterations.
    # Each Program or Block contributes the statements after the chain.
    enclosing = []      # (loop id, reads, writes), innermost first
    later: set = set()  # names CPU code can touch after a region execution
    inner = below = loops.nodes[root]
    for container in reversed(loops.chain(root)):
        if isinstance(container, ForLoop):
            reads, assigned, control = accesses(container, skip=inner)
            enclosing.append((container.node_id, reads, assigned | control))
            later |= reads | assigned | control
            inner = container
        else:
            items = children(container)
            at = next(k for k, item in enumerate(items) if item is below)
            for item in items[at + 1:]:
                later.update(*accesses(item))
        below = container

    def anchor(var: str, reads_block: bool) -> int:
        """Hoist outward one enclosing loop at a time until a blocking CPU
        access of var appears inside that loop outside the region."""
        at = root
        if hoist:
            for loop_id, reads, writes in enclosing:
                if var in writes or (reads_block and var in reads):
                    break
                at = loop_id
        return at

    ops = []
    for var in sorted(_upward_exposed(loops.nodes[root], loops)):
        at = anchor(var, reads_block=False)
        if enclosing and at != enclosing[-1][0]:
            later.add(var)  # refires per enclosing iteration, so copy back
        ops.append(TransferOp(var, HOST_TO_DEVICE, at, "before", at != root,
                              decls[var].byte_size, root))
    for var in sorted(loops.by_id[root].defs & later):
        at = anchor(var, reads_block=True)
        ops.append(TransferOp(var, DEVICE_TO_HOST, at, "after", at != root,
                              decls[var].byte_size, root))
    return tuple(ops)


def _upward_exposed(region: ForLoop, loops: LoopTable) -> set:
    """Variables read inside the region before the region writes them: the
    values a kernel consumes from host memory.

    MiniC has no branches, so a single ordered walk is exact; a nested loop
    whose static trip count is unknown may run zero times, so its writes
    only count when the trip is statically positive.
    """
    exposed: set = set()

    def walk_stmt(stmt, written):
        if isinstance(stmt, Block):
            for inner in stmt.body:
                walk_stmt(inner, written)
        elif isinstance(stmt, ForLoop):
            exposed.update(accesses(stmt.init)[0] - written)
            written.add(stmt.var)
            reads = accesses(stmt.bound)[0] | {stmt.cond_var, stmt.step_var}
            exposed.update(reads - written)
            written.add(stmt.step_var)
            info = loops.by_id.get(stmt.node_id)
            body_written = set(written)
            walk_stmt(stmt.body, body_written)
            if info is not None and info.trip_count is not None and info.trip_count >= 1:
                written |= body_written
        else:  # an assignment reads its operands before it stores
            reads, assigned, _ = accesses(stmt)
            exposed.update(reads - written)
            written |= assigned

    walk_stmt(region, set())
    return exposed


# -- directive emission --------------------------------------------------

PRAGMA_PREFIX = "#pragma"


def emit_annotated(ast: Program, pattern: OffloadPattern, plan: TransferPlan,
                   loops: LoopTable) -> str:
    """Insert copyin/kernels/copyout directive lines into the original
    source. Stripping lines that begin with #pragma recovers the input
    byte-for-byte."""
    roots = set(offloaded_ids(pattern, loops))
    before: dict[int, list[str]] = {}
    after: dict[int, list[str]] = {}
    anchored = sorted({op.anchor_loop for op in plan.ops} | roots)
    for lid in anchored:  # ascending id: outer loops first on shared lines
        node = loops.nodes[lid]
        lines = before.setdefault(node.line, [])
        lines.extend(f"{PRAGMA_PREFIX} acc data copyin({op.var})"
                     for op in plan.before(lid))
        if lid in roots:
            lines.append(f"{PRAGMA_PREFIX} acc kernels")
    for lid in reversed(anchored):  # inner loops exit first
        node = loops.nodes[lid]
        lines = after.setdefault(node.end_line, [])
        lines.extend(f"{PRAGMA_PREFIX} acc data copyout({op.var})"
                     for op in plan.after(lid))
    out = []
    for lineno, text in enumerate(ast.source.split("\n"), start=1):
        out.extend(before.get(lineno, ()))
        out.append(text)
        out.extend(after.get(lineno, ()))
    return "\n".join(out)


def strip_pragmas(text: str) -> str:
    return "\n".join(line for line in text.split("\n")
                     if not line.startswith(PRAGMA_PREFIX))


# -- two-memory-space execution -------------------------------------------

@dataclass
class SimResult:
    outputs: dict
    op_counts: dict
    total_transfers: int


def simulate_with_plan(ast: Program, loops: LoopTable, pattern: OffloadPattern,
                       plan: TransferPlan) -> SimResult:
    """Execute with separate host/device memories, synchronizing only at the
    plan's anchors (plus the teardown flush). The result is comparable
    bit-for-bit with plain interpretation when the plan is sound."""
    reason = validate_pattern(pattern, loops)
    if reason is not None:
        raise InvalidPattern(reason)
    op_counts: dict[TransferOp, int] = {op: 0 for op in plan.ops}
    hooks: dict = {}  # (anchor loop, position) -> transfers in plan order

    def fire(op: TransferOp, machine: Machine):
        machine.transfer(op.var, op.direction == HOST_TO_DEVICE)
        op_counts[op] += 1

    for op in plan.ops:
        hooks.setdefault((op.anchor_loop, op.position), []).append(partial(fire, op))
    roots = [loops.nodes[lid] for lid in offloaded_ids(pattern, loops)]
    machine = Machine(roots=roots, hooks=hooks)
    machine.run(ast)
    for name in sorted(machine.fresh):  # the teardown flush
        machine.transfer(name, to_device=False)
    outputs = machine.outputs(ast)
    for name, value in outputs.items():
        if isinstance(value, tuple) and any(cell is POISON for cell in value):
            raise TwoSpaceError(
                f"'{name}' holds untransferred device garbage at exit")
    return SimResult(outputs, op_counts, sum(op_counts.values()))


# -- pattern file io --------------------------------------------------------

def save_pattern(path, pattern: OffloadPattern, loops: LoopTable):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(pattern.to_json(loops), f, indent=2, sort_keys=True)
        f.write("\n")


def load_pattern(path) -> OffloadPattern:
    with open(path, encoding="utf-8") as f:
        return OffloadPattern.from_json(json.load(f))
