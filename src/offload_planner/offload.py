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
    code can later read or rewrite;
  * each op anchors at the region root, then hoists outward past enclosing
    CPU loops while the enclosing loop has no blocking access, batching the
    transfer to run once instead of once per enclosing iteration.

Blocking accesses include loop-header index updates: LoopInfo.defs excludes
loop control writes, but hoisting a copyin past a header that rewrites the
transferred variable every iteration would ship a stale value.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass

from .minic.astnodes import Block, ForLoop, Program, VarDecl, accesses, children
from .minic.interp import Env, EvalError, Executor
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

class TwoSpaceError(EvalError):
    """A device-side read hit a value that was never transferred or computed."""


_POISON = object()


class _DualEnv(Env):
    """Host and device stores with explicit synchronization.

    Reads and writes route to the store named by ``context``. Device storage
    materializes on first transfer or kernel write; reading a cell the device
    never received is an error. Freshness ticks record which space holds each
    variable's newest value.
    """

    def __init__(self):
        super().__init__()
        self.device: dict[str, float | list] = {}
        self.context = "host"
        self.tick = 0
        self.host_w: dict[str, int] = {}
        self.dev_w: dict[str, int] = {}

    def declare(self, decl: VarDecl, init_value):
        super().declare(decl, init_value)
        self.host_w[decl.name] = self._next_tick()
        self.dev_w[decl.name] = -1

    def _next_tick(self) -> int:
        self.tick += 1
        return self.tick

    def read(self, name):
        if self.context == "host":
            return self.values[name]
        value = self._device_cell(name)
        if value is _POISON:
            raise TwoSpaceError(f"device read of '{name}' before any transfer")
        return value

    def write(self, name, value):
        if self.context == "host":
            self.values[name] = value
            self.host_w[name] = self._next_tick()
        else:
            self.device[name] = value
            self.dev_w[name] = self._next_tick()

    def read_elem(self, name, idx):
        if self.context == "host":
            value = self.values[name][idx]
            if value is _POISON:
                raise TwoSpaceError(
                    f"host read of '{name}[{idx}]', which was never transferred")
            return value
        cell = self._device_cell(name)
        if cell is _POISON or cell[idx] is _POISON:
            raise TwoSpaceError(
                f"device read of '{name}[{idx}]' before any transfer")
        return cell[idx]

    def write_elem(self, name, idx, value):
        if self.context == "host":
            self.values[name][idx] = value
            self.host_w[name] = self._next_tick()
        else:
            if name not in self.device:
                self.device[name] = [_POISON] * len(self.values[name])
            self.device[name][idx] = value
            self.dev_w[name] = self._next_tick()

    def array_len(self, name):
        return len(self.values[name])

    def _device_cell(self, name):
        if name not in self.device:
            raise TwoSpaceError(f"device read of '{name}' before any transfer")
        return self.device[name]

    def copy_in(self, name):
        value = self.values[name]
        self.device[name] = list(value) if isinstance(value, list) else value
        self.dev_w[name] = self.host_w[name]

    def copy_out(self, name):
        value = self.device[name]
        self.values[name] = list(value) if isinstance(value, list) else value
        self.host_w[name] = self.dev_w[name]

    def flush_device(self):
        """Program teardown: device-fresh values become visible to the host."""
        for name, dev_tick in self.dev_w.items():
            if name in self.device and dev_tick > self.host_w.get(name, -1):
                self.copy_out(name)


@dataclass
class SimResult:
    outputs: dict
    op_counts: dict
    total_transfers: int


class _OffloadExecutor(Executor):
    def __init__(self, env: _DualEnv, plan: TransferPlan, regions: set):
        super().__init__(env)
        self.plan = plan
        self.regions = regions
        self.op_counts: dict[TransferOp, int] = {op: 0 for op in plan.ops}

    def _fire(self, op: TransferOp):
        if op.direction == HOST_TO_DEVICE:
            self.env.copy_in(op.var)
        else:
            self.env.copy_out(op.var)
        self.op_counts[op] += 1

    def enter_loop(self, loop: ForLoop):
        for op in self.plan.before(loop.node_id):
            self._fire(op)
        if loop.node_id in self.regions:
            assert self.env.context == "host", "regions cannot nest"
            self.env.context = "device"

    def exit_loop(self, loop: ForLoop):
        if loop.node_id in self.regions:
            self.env.context = "host"
        for op in self.plan.after(loop.node_id):
            self._fire(op)


def simulate_with_plan(ast: Program, loops: LoopTable, pattern: OffloadPattern,
                       plan: TransferPlan) -> SimResult:
    """Execute with separate host/device memories, synchronizing only at the
    plan's anchors (plus the teardown flush). The result is comparable
    bit-for-bit with plain interpretation when the plan is sound."""
    reason = validate_pattern(pattern, loops)
    if reason is not None:
        raise InvalidPattern(reason)
    env = _DualEnv()
    executor = _OffloadExecutor(env, plan, set(offloaded_ids(pattern, loops)))
    executor.run_program(ast)
    env.flush_device()
    outputs: dict[str, float | tuple] = {}
    for item in ast.items:
        if isinstance(item, VarDecl):
            value = env.values[item.name]
            if isinstance(value, list):
                if any(cell is _POISON for cell in value):
                    raise TwoSpaceError(
                        f"'{item.name}' holds untransferred device garbage at exit")
                value = tuple(value)
            elif value is _POISON:
                raise TwoSpaceError(
                    f"'{item.name}' holds untransferred device garbage at exit")
            outputs[item.name] = value
    return SimResult(outputs, executor.op_counts, sum(executor.op_counts.values()))


# -- pattern file io --------------------------------------------------------

def save_pattern(path, pattern: OffloadPattern, loops: LoopTable):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(pattern.to_json(loops), f, indent=2, sort_keys=True)
        f.write("\n")


def load_pattern(path) -> OffloadPattern:
    with open(path, encoding="utf-8") as f:
        return OffloadPattern.from_json(json.load(f))
