"""Offload patterns, transfer planning, directive emission, and the
two-memory-space execution model.

A pattern assigns one bit per eligible loop (loop-table order). A set bit
offloads that loop; the loop plus its subtree is an offload region executed
as one device kernel. Patterns where an offloaded loop has an offloaded
ancestor are invalid.

Transfer planning, per region. A region's ops depend only on the program
and the region root (and whether hoisting is on), never on which other
regions the pattern offloads, so each region is planned once per loop
table and a pattern's plan is its regions' ops in loop-table order. The
loop table hands each loop its exposed reads, what it surely writes in
full and the accesses that can run after it (LoopInfo.exposed, .must and
.after), so planning a region costs O(depth x variables), with no walk
of the program:
  * host-to-device (copyin) for every variable whose value flows into the
    region from outside: read in the region before the region writes it,
    or written by it but not surely in full (LoopInfo.must) by the time the
    device's copy reaches the host, at the copyout or the teardown flush;
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

from .minic.astnodes import Program, VarDecl
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
        return {"bits": list(self.bits), "loop_ids": list(loops.eligible_ids())}

    @staticmethod
    def from_json(data: dict) -> "OffloadPattern":
        return OffloadPattern(tuple(int(b) for b in data["bits"]))


def validate_pattern(pattern: OffloadPattern, loops: LoopTable) -> str | None:
    """None when valid; otherwise a reason naming the offending loop pair."""
    eligible = loops.eligible_ids()
    if len(pattern.bits) != len(eligible):
        raise LengthMismatch(
            f"pattern length {len(pattern.bits)} != eligible loop count {len(eligible)}")
    pair = loops.nested_pair([lid for lid, bit in zip(eligible, pattern.bits) if bit])
    if pair is None:
        return None
    return (f"loop {pair[0]} and its ancestor {pair[1]} are both offloaded; "
            f"regions cannot nest")


def offloaded_ids(pattern: OffloadPattern, loops: LoopTable) -> list[int]:
    return [lid for lid, bit in zip(loops.eligible_ids(), pattern.bits) if bit]


@dataclass(frozen=True)
class TransferOp:
    var: str
    direction: str            # HOST_TO_DEVICE | DEVICE_TO_HOST
    anchor_loop: int          # fires on every entry/exit of this loop
    bytes: int
    region: int               # region root the op serves

    @property
    def position(self) -> str:
        """Copyins fire before their anchor loop, copyouts after it."""
        return "before" if self.direction == HOST_TO_DEVICE else "after"

    @property
    def hoisted(self) -> bool:
        return self.anchor_loop != self.region


@dataclass(frozen=True)
class TransferPlan:
    """A pattern's transfer ops, region by region; by_anchor groups them."""

    ops: tuple

    def by_anchor(self) -> dict:
        """(anchor loop, position) -> the ops fired there, in plan order."""
        groups: dict = {}
        for op in self.ops:
            groups.setdefault((op.anchor_loop, op.position), []).append(op)
        return groups

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
    sizes = None
    ops = []
    for root in offloaded_ids(pattern, loops):
        region_ops = memo.get((root, hoist))
        if region_ops is None:
            if sizes is None:
                sizes = {item.name: item.byte_size for item in ast.items
                         if isinstance(item, VarDecl)}
            region_ops = memo[root, hoist] = _region_ops(loops, root, hoist, sizes)
        ops.extend(region_ops)
    return TransferPlan(tuple(ops))


def _region_ops(loops: LoopTable, root: int, hoist: bool, sizes: dict) -> tuple:
    """Copyin ops, then copyout ops, each sorted by variable, of the region
    rooted at ``root``. ``sizes`` maps each variable to its byte size."""
    chain = [root] + loops.ancestors(root)  # innermost first
    afters = [loops.by_id[lid].after for lid in chain]
    # CPU code can touch these after a region execution: the rest of each
    # enclosing loop, and what follows the outermost one
    later = set().union(*(reads | writes for reads, writes in afters))

    def anchor(var: str, reads_block: bool) -> int:
        """Hoist outward one enclosing loop at a time until a blocking CPU
        access of var appears inside that loop outside the loop below it."""
        at = root
        if hoist:
            for loop_id, (reads, writes) in zip(chain[1:], afters):
                if var in writes or (reads_block and var in reads):
                    break
                at = loop_id
        return at

    info = loops.by_id[root]
    copyins = set(info.exposed)
    for var in info.defs - info.exposed:
        # the device's copy reaches the host whole, at its copyout or the
        # teardown flush after the outermost loop; what the region may
        # leave unwritten by then must hold the host's values. must
        # assumes that loop runs its body: one with no static trip count
        # may run it zero times
        sink = loops.by_id[anchor(var, reads_block=True) if var in later else chain[-1]]
        if sink.trip_count is None or var not in sink.must:
            copyins.add(var)
    ops = []
    for var in sorted(copyins):
        at = anchor(var, reads_block=False)
        if at != chain[-1]:
            later.add(var)  # refires per enclosing iteration, so copy back
        ops.append(TransferOp(var, HOST_TO_DEVICE, at, sizes[var], root))
    for var in sorted(info.defs & later):
        ops.append(TransferOp(var, DEVICE_TO_HOST, anchor(var, reads_block=True),
                              sizes[var], root))
    return tuple(ops)


# -- directive emission --------------------------------------------------

PRAGMA_PREFIX = "#pragma"


def emit_annotated(ast: Program, pattern: OffloadPattern, plan: TransferPlan,
                   loops: LoopTable) -> str:
    """Insert copyin/kernels/copyout directive lines, each anchor loop's ops
    (TransferPlan.by_anchor) before or after it, into the original source.
    Stripping lines that begin with #pragma recovers the input byte-for-byte."""
    roots = set(offloaded_ids(pattern, loops))
    groups = plan.by_anchor()
    before: dict[int, list[str]] = {}
    after: dict[int, list[str]] = {}
    anchored = sorted({lid for lid, _ in groups} | roots)
    for lid in anchored:  # ascending id: outer loops first on shared lines
        node = loops.nodes[lid]
        lines = before.setdefault(node.line, [])
        lines.extend(f"{PRAGMA_PREFIX} acc data copyin({op.var})"
                     for op in groups.get((lid, "before"), ()))
        if lid in roots:
            lines.append(f"{PRAGMA_PREFIX} acc kernels")
    for lid in reversed(anchored):  # inner loops exit first
        node = loops.nodes[lid]
        lines = after.setdefault(node.end_line, [])
        lines.extend(f"{PRAGMA_PREFIX} acc data copyout({op.var})"
                     for op in groups.get((lid, "after"), ()))
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

    def fire(op: TransferOp, machine: Machine):
        machine.transfer(op.var, op.direction == HOST_TO_DEVICE)
        op_counts[op] += 1

    hooks = {key: [partial(fire, op) for op in ops]
             for key, ops in plan.by_anchor().items()}
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
