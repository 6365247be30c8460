"""Transfer-plan tests.

The trace oracle executes the AST with instrumented loop hooks and memory,
and counts rule-firing crossings per dynamic region execution (a host value
consumed by the region, a region write consumed afterward), independently
of the static planner it checks. The reference planner plans one region by
walking the AST around it, as the planner did before the loop table
carried each loop's transfer facts.
"""

import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from offload_planner.evaluation import Measurement
from offload_planner.minic import extract_loops, interpret, parse_program
from offload_planner.minic.astnodes import (
    Block, ForLoop, VarDecl, accesses, children, loops_in)
from offload_planner.minic.interp import Machine
from offload_planner.planner import Allocation
from offload_planner.verify import TestCase, run_verification
from offload_planner.offload import (
    DEVICE_TO_HOST,
    HOST_TO_DEVICE,
    InvalidPattern,
    OffloadPattern,
    TransferOp,
    TransferPlan,
    offloaded_ids,
    plan_transfers,
    simulate_with_plan,
)

from conftest import corpus_programs, load_generator, read_corpus


class TracingStore(dict):
    """Host memory that records, per region execution, each variable's
    first access kind. An array is handed out wrapped, so that reading and
    writing its cells are told apart."""

    def __init__(self):
        super().__init__()
        self.record = None   # per-execution {var: first access kind}
        self.log = []        # finished per-execution records

    def note(self, name, kind):
        if self.record is not None and name not in self.record:
            self.record[name] = kind

    def __getitem__(self, name):
        value = super().__getitem__(name)
        if isinstance(value, list):
            return TracedCells(self, name, value)
        self.note(name, "read")
        return value

    def __setitem__(self, name, value):
        self.note(name, "write")
        super().__setitem__(name, value)

    def enter_region(self, machine):
        self.record = {}

    def exit_region(self, machine):
        self.log.append(self.record)
        self.record = None


class TracedCells:
    def __init__(self, store, name, cells):
        self.store, self.name, self.cells = store, name, cells

    def __getitem__(self, idx):
        self.store.note(self.name, "read")
        return self.cells[idx]

    def __setitem__(self, idx, value):
        self.store.note(self.name, "write")
        self.cells[idx] = value


def trace_crossings(ast, region_roots):
    """var -> number of region executions whose first access was a read:
    the per-execution host-to-device demand an unbatched plan must satisfy.
    The whole program runs plainly in the traced host memory; the loop
    hooks open and close a record around each region root."""
    store = TracingStore()
    hooks = {}
    for root in region_roots:
        hooks[root, "before"] = [store.enter_region]
        hooks[root, "after"] = [store.exit_region]
    Machine(host=store, hooks=hooks).run(ast)
    demand = {}
    for record in store.log:
        for name, kind in record.items():
            if kind == "read":
                demand[name] = demand.get(name, 0) + 1
    return demand, len(store.log)


def setup(name):
    ast = parse_program(read_corpus(name))
    return ast, extract_loops(ast)


def pattern_for(loops, *offload_ids):
    return OffloadPattern(tuple(
        1 if lid in offload_ids else 0 for lid in loops.eligible_ids()))


def test_cpu_def_then_region_use_gets_one_copyin():
    src = ("float x; float a[4]; int i; float out; "
           "x = 2.5; "
           "for(i=0;i<4;i++){ a[i] = x; } "
           "out = a[0];")
    ast = parse_program(src)
    loops = extract_loops(ast)
    loop_id = loops.infos[0].loop_id
    plan = plan_transfers(ast, loops, OffloadPattern((1,)))
    x_ops = plan.for_var("x")
    assert len(x_ops) == 1
    op = x_ops[0]
    assert op.direction == HOST_TO_DEVICE
    assert op.anchor_loop == loop_id and op.position == "before"
    assert not op.hoisted and op.bytes == 8


def test_region_local_temporary_gets_no_ops():
    ast, loops = setup("tmp_private.mc")
    plan = plan_transfers(ast, loops, OffloadPattern((1,)))
    assert plan.for_var("t") == []
    directions = {(op.var, op.direction) for op in plan.ops}
    assert ("a", HOST_TO_DEVICE) in directions   # a[i] read before write
    assert ("a", DEVICE_TO_HOST) in directions   # out = a[5] afterward


def test_hoisted_copyin_for_read_only_array():
    ast, loops = setup("nested_hoist.mc")
    outer = loops.infos[1].loop_id
    inner = loops.infos[2].loop_id
    plan = plan_transfers(ast, loops, pattern_for(loops, inner))
    (b_op,) = plan.for_var("b")
    assert b_op.direction == HOST_TO_DEVICE
    assert b_op.hoisted and b_op.anchor_loop == outer
    # the loop index of the enclosing loop is rewritten per iteration by its
    # header: its copyin must not hoist
    (j_op,) = plan.for_var("j")
    assert not j_op.hoisted and j_op.anchor_loop == inner
    # c is read by CPU code inside the enclosing loop: copyout stays put
    c_ops = {op.direction: op for op in plan.for_var("c")}
    assert c_ops[HOST_TO_DEVICE].hoisted
    assert not c_ops[DEVICE_TO_HOST].hoisted


def test_executed_transfer_counts_match_trace_oracle():
    ast, loops = setup("nested_hoist.mc")
    outer_trip = loops.infos[1].trip_count
    inner = loops.infos[2].loop_id
    pattern = pattern_for(loops, inner)

    demand, executions = trace_crossings(ast, {inner})
    assert executions == outer_trip
    assert demand["b"] == outer_trip          # read by every region execution

    hoisted = plan_transfers(ast, loops, pattern)
    unhoisted = plan_transfers(ast, loops, pattern, hoist=False)
    sim_hoisted = simulate_with_plan(ast, loops, pattern, hoisted)
    sim_unhoisted = simulate_with_plan(ast, loops, pattern, unhoisted)

    def executed(sim, var, direction):
        return sum(cnt for op, cnt in sim.op_counts.items()
                   if op.var == var and op.direction == direction)

    assert executed(sim_unhoisted, "b", HOST_TO_DEVICE) == demand["b"]
    assert executed(sim_hoisted, "b", HOST_TO_DEVICE) == 1
    # hoisting wins back exactly the enclosing trip count factor
    assert demand["b"] // executed(sim_hoisted, "b", HOST_TO_DEVICE) == outer_trip
    assert sim_hoisted.total_transfers <= sim_unhoisted.total_transfers


def test_at_most_one_op_per_variable_region_direction():
    for name in ("g3.mc", "nested_hoist.mc", "nested3.mc", "tmp_private.mc"):
        ast, loops = setup(name)
        import itertools

        for bits in itertools.product((0, 1), repeat=loops.gene_length()):
            pattern = OffloadPattern(bits)
            try:
                plan = plan_transfers(ast, loops, pattern)
            except InvalidPattern:
                continue
            keys = [(op.var, op.region, op.direction) for op in plan.ops]
            assert len(keys) == len(set(keys)), (name, bits)


def test_by_anchor_groups_every_op_once_in_plan_order():
    for name in ("g3.mc", "nested_hoist.mc", "nested3.mc", "misc.mc"):
        ast, loops = setup(name)
        for info in loops.eligible():
            plan = plan_transfers(ast, loops, pattern_for(loops, info.loop_id))
            groups = plan.by_anchor()
            for key, ops in groups.items():
                assert ops == [op for op in plan.ops
                               if (op.anchor_loop, op.position) == key]
            assert sum(map(len, groups.values())) == len(plan.ops)


def test_transferred_vars_justified_by_def_use():
    for name in ("g3.mc", "nested_hoist.mc", "nested3.mc"):
        ast, loops = setup(name)
        for info in loops.eligible():
            pattern = pattern_for(loops, info.loop_id)
            try:
                plan = plan_transfers(ast, loops, pattern)
            except InvalidPattern:
                continue
            for op in plan.ops:
                if op.direction == HOST_TO_DEVICE:
                    assert op.var in info.uses
                else:
                    assert op.var in info.defs


def test_array_byte_sizes():
    ast, loops = setup("nested_hoist.mc")
    sizes = {item.name: item.byte_size for item in ast.items
             if isinstance(item, VarDecl)}
    assert sizes["b"] == 128 and sizes["j"] == 8
    inner = loops.infos[2].loop_id
    plan = plan_transfers(ast, loops, pattern_for(loops, inner))
    for op in plan.ops:
        assert op.bytes == sizes[op.var]


def test_plan_is_function_of_inputs():
    ast, loops = setup("nested_hoist.mc")
    pattern = pattern_for(loops, loops.infos[2].loop_id)
    assert plan_transfers(ast, loops, pattern) == plan_transfers(ast, loops, pattern)
    ast2 = parse_program(read_corpus("nested_hoist.mc"))
    loops2 = extract_loops(ast2)
    assert plan_transfers(ast2, loops2, pattern) == plan_transfers(ast, loops, pattern)


def test_invalid_pattern_rejected():
    ast, loops = setup("nested_hoist.mc")
    nested_bits = pattern_for(loops, loops.infos[1].loop_id,
                              loops.infos[2].loop_id)
    with pytest.raises(InvalidPattern):
        plan_transfers(ast, loops, nested_bits)


def test_two_space_model_rejects_a_nested_pattern():
    ast, loops = setup("nested_hoist.mc")
    outer, inner = loops.infos[1].loop_id, loops.infos[2].loop_id
    with pytest.raises(InvalidPattern) as info:
        simulate_with_plan(ast, loops, pattern_for(loops, outer, inner), TransferPlan(()))
    assert str(info.value) == (f"loop {inner} and its ancestor {outer} are both "
                               f"offloaded; regions cannot nest")


def random_valid_patterns(loops, count, rng):
    """Seeded random antichains of eligible loops, as patterns."""
    eligible = loops.eligible_ids()
    for _ in range(count):
        chosen = []
        for lid in rng.sample(eligible, len(eligible)):
            if rng.random() < 0.5 and not any(
                    loops.is_ancestor(lid, c) or loops.is_ancestor(c, lid)
                    for c in chosen):
                chosen.append(lid)
        yield OffloadPattern(tuple(int(lid in chosen) for lid in eligible))


def test_plan_is_concatenation_of_single_region_plans():
    rng = random.Random(20261018)
    for path in corpus_programs():
        ast = parse_program(path.read_text(encoding="utf-8"))
        loops = extract_loops(ast)
        eligible = loops.eligible_ids()
        for hoist in (True, False):
            single = {}
            for lid in eligible:
                alone = OffloadPattern(tuple(int(x == lid) for x in eligible))
                # a table of its own, so no region ops are shared
                single[lid] = plan_transfers(ast, extract_loops(ast), alone,
                                             hoist=hoist).ops
            for pattern in random_valid_patterns(loops, 200, rng):
                expected = tuple(op for root in offloaded_ids(pattern, loops)
                                 for op in single[root])
                plan = plan_transfers(ast, loops, pattern, hoist=hoist)
                assert plan.ops == expected, (path.name, pattern.as_string(), hoist)


def test_concurrent_planning_matches_serial():
    # GA workers share one loop table, so they fill its region ops at once
    ast = parse_program(read_corpus("g10.mc"))
    serial_loops = extract_loops(ast)
    patterns = list(random_valid_patterns(serial_loops, 400, random.Random(3)))
    serial = [plan_transfers(ast, serial_loops, p) for p in patterns]
    shared = extract_loops(ast)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(plan_transfers, ast, shared, p) for p in patterns]
            concurrent = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert concurrent == serial


def container_chains(ast):
    """loop id -> the containers (Program, Blocks, enclosing loops) from the
    program root down to the loop, the loop excluded."""
    chains = {}

    def visit(container, chain):
        chain = chain + (container,)
        for child in children(container):
            if isinstance(child, ForLoop):
                chains[child.node_id] = chain
                visit(child, chain)
            elif isinstance(child, Block):
                visit(child, chain)

    visit(ast, ())
    return chains


def reference_upward_exposed(region, loops):
    """Variables read inside the region before the region writes them."""
    return reference_exposed([region], loops)


def declaration_reads(decl):
    return set() if decl.init is None else accesses(decl.init)[0]


def reference_exposed(stmts, loops):
    """Variables the statements read before they write them, by one ordered
    walk; a nested loop of unknown trip count may run zero times, so its
    writes count only when its trip is statically known."""
    exposed = set()

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
            body_written = set(written)
            walk_stmt(stmt.body, body_written)
            if loops.by_id[stmt.node_id].trip_count is not None:
                written |= body_written
        elif isinstance(stmt, VarDecl):  # reads its initializer, assigns nothing
            exposed.update(declaration_reads(stmt) - written)
        else:
            reads, assigned, _ = accesses(stmt)
            exposed.update(reads - written)
            written |= assigned

    written = set()
    for stmt in stmts:
        walk_stmt(stmt, written)
    return exposed


def flattened(stmts):
    for stmt in stmts:
        if isinstance(stmt, Block):
            yield from flattened(stmt.body)
        else:
            yield stmt


def reference_reads_after(ast, loops, chains, root):
    """What CPU code that can run after the region may read before writing
    it, scope by scope: the statements after the region's path in the
    scope, and in an enclosing loop also its header and the statements
    before that path, which rerun on the next iteration."""
    scopes = [c for c in chains[root] if not isinstance(c, Block)]
    reads = set()
    for scope, child in zip(scopes, scopes[1:] + [loops.nodes[root]]):
        stmts = list(flattened(scope.items if scope is ast else [scope.body]))
        at = next(k for k, stmt in enumerate(stmts) if stmt is child)
        reads |= reference_exposed(stmts[at + 1:], loops)
        if scope is not ast:
            reads |= reference_exposed(stmts[:at], loops) | accesses(scope.init)[0]
            reads |= accesses(scope.bound)[0] | {scope.cond_var, scope.step_var}
    return reads


def reference_region_ops(ast, loops, chains, root, hoist):
    """One region's ops from a walk of the containers outward from it: each
    enclosing loop's accesses outside the loop below it block hoisting and
    run later; so do the statements after the chain in a Program or
    Block."""
    decls = {item.name: item for item in ast.items if isinstance(item, VarDecl)}
    enclosing, later = [], set()
    inner = below = loops.nodes[root]
    for container in reversed(chains[root]):
        if isinstance(container, ForLoop):
            reads, assigned, control = accesses(container, skip=inner)
            enclosing.append((container.node_id, reads, assigned | control))
            later |= reads | assigned | control
            inner = container
        else:
            items = children(container)
            at = next(k for k, item in enumerate(items) if item is below)
            for item in items[at + 1:]:
                later.update(*((declaration_reads(item),) if isinstance(item, VarDecl)
                               else accesses(item)))
        below = container

    def anchor(var, reads_block):
        at = root
        if hoist:
            for loop_id, reads, writes in enclosing:
                if var in writes or (reads_block and var in reads):
                    break
                at = loop_id
        return at

    outermost = enclosing[-1][0] if enclosing else root

    def sink(var):
        """The loop after which the device's copy of var reaches the host:
        its copyout's anchor, or the outermost for the teardown flush."""
        return anchor(var, reads_block=True) if var in later else outermost

    # the region's loop indices go back when CPU code may read them first
    indices = {name for loop in loops_in(loops.nodes[root])
               for name in (loop.var, loop.step_var)}
    outs = loops.by_id[root].defs | (indices & reference_reads_after(ast, loops, chains, root))
    # when the sink may run zero times, the host's value must go in first
    copyins = reference_upward_exposed(loops.nodes[root], loops)
    copyins |= {var for var in outs if loops.by_id[sink(var)].trip_count is None}
    ops = []
    for var in sorted(copyins):
        at = anchor(var, reads_block=False)
        if at != outermost:
            later.add(var)
        ops.append(TransferOp(var, HOST_TO_DEVICE, at, decls[var].byte_size, root))
    for var in sorted(outs & later):
        ops.append(TransferOp(var, DEVICE_TO_HOST, anchor(var, reads_block=True),
                              decls[var].byte_size, root))
    return tuple(ops)


REFERENCE_EDGE_CASES = {
    # a top-level Block holding a loop, with statements after it inside
    # the Block and after the Block
    "block": "int i; float a[4]; float s; float t; "
             "{ for(i=0;i<4;i++){ a[i] = s; } t = a[1]; } s = t; { a[2] = 3.0; }",
    # nested Blocks in a loop body, around and beside the inner loop
    "nested-blocks": "int i; int j; float a[4]; float s; float t; "
                     "for(j=0;j<3;j++){ { t = s; { for(i=0;i<4;i++){ a[i] = a[i] + t; } } } "
                     "{ s = a[j]; } } t = a[0];",
    # a non-canonical enclosing loop, whose header writes i and k
    "non-canonical": "int i; int j; int k; float s; float a[4]; "
                     "for(i=0;j<4;k++){ s = s + 1.0; for(j=0;j<4;j++){ a[j] = s + k; } } "
                     "for(i=0;i<4;i++){ a[i] = a[i] + s; }",
    # an inner loop of unknown trip count may leave x unwritten
    "zero-trip": "int n = 0; int m; float x; float y; int i = 0; int j = 0; m = 3; "
                 "for(i=0;i<4;i++){ for(j=0;j<n;j++){ x = 1.0; } y = x; "
                 "for(j=0;j<m;j++){ y = y + 1.0; } } y = x;",
    # a declaration's initializer reads the region's array and index
    "declaration": "int i; float a[4]; for(i=0;i<4;i++) a[i] = 1.0; float k = a[1] + i;",
}


def reference_programs():
    for path in corpus_programs():
        yield path.name, path.read_text(encoding="utf-8")
    generator = load_generator()
    for workload in ("sim-search", "verify-heavy", "external-search"):
        for program in generator.generate(workload, 1):
            yield f"{workload}/{program.name}", program.source
    yield from REFERENCE_EDGE_CASES.items()


def test_plans_match_reference_planner():
    for name, source in reference_programs():
        ast = parse_program(source)
        loops = extract_loops(ast)
        chains = container_chains(ast)
        eligible = loops.eligible_ids()
        patterns = [OffloadPattern(tuple(int(x == lid) for x in eligible))
                    for lid in eligible]
        patterns += random_valid_patterns(loops, 20, random.Random(name))
        assert len(eligible) >= 1, name
        for hoist in (True, False):
            reference = {root: reference_region_ops(ast, loops, chains, root, hoist)
                         for root in eligible}
            for pattern in patterns:
                expected = tuple(op for root in offloaded_ids(pattern, loops)
                                 for op in reference[root])
                plan = plan_transfers(ast, loops, pattern, hoist=hoist)
                assert plan.ops == expected, (name, pattern.as_string(), hoist)


PARTIAL = ("float a[8]; float b[8]; float s; int i = 0; "
           "for(i=0;i<8;i++){ b[i] = i * 1.5; } "
           "for(i=0;i<4;i++){ a[i] = b[i] * 2.0; } "
           "for(i=0;i<8;i++){ s = s + a[i]; }")


def test_verify_passes_a_region_that_writes_part_of_an_array(tmp_path):
    # a[4..7] keep the host's values only if a goes in before the region
    source = tmp_path / "partial.mc"
    source.write_text(PARTIAL, encoding="utf-8")
    cases = [TestCase(name=str(bits), kind="performance", source=str(source),
                      pattern=bits, baseline=str(source))
             for bits in ((0, 1, 0), (0, 1, 1))]
    report = run_verification(Allocation(1, 1, 5000.0, True),
                              Measurement(2.0, 1.0, 1.0, True), cases, {}, [])
    assert [(row.diff_passed, row.note) for row in report.performance] == [(True, None)] * 2
    ast = parse_program(PARTIAL)
    loops = extract_loops(ast)
    ops = plan_transfers(ast, loops, OffloadPattern((0, 1, 0))).ops
    assert [(op.var, op.direction) for op in ops] == [
        ("a", HOST_TO_DEVICE), ("b", HOST_TO_DEVICE), ("a", DEVICE_TO_HOST)]


ROWS = ("float g[6]; float t; int i = 0; int j = 0; "
        "for(i=0;i<2;i++){ for(j=0;j<3;j++){ g[i * 3 + j] = i + j; } } t = g[5];")


@pytest.mark.parametrize("src, bits", [
    # the device's partly written copy reaches the host at the teardown flush
    ("float a[8]; float b[8]; int i = 0; for(i=0;i<8;i++){ b[i] = i; } "
     "for(i=0;i<4;i++){ a[i] = b[i] * 2.0; }", (1, 1)),
    # x is stored only in a loop that runs zero times
    ("int n = 0; float x; float y; int i = 0; int j = 0; "
     "for(i=0;i<4;i++){ for(j=0;j<n;j++){ x = 1.0; } } y = x;", (1,)),
    # a[3] is read before the iteration that stores it
    ("float a[4]; float s; int i = 0; "
     "for(i=0;i<4;i++){ a[i] = 1.0; s = s + a[3]; }", (1,)),
    # each region execution stores one row of g
    (ROWS, (0, 1)),
])
def test_values_a_region_may_leave_partly_unwritten_are_copied_in(src, bits):
    ast = parse_program(src)
    loops = extract_loops(ast)
    pattern = OffloadPattern(bits)
    for hoist in (True, False):
        plan = plan_transfers(ast, loops, pattern, hoist=hoist)
        assert simulate_with_plan(ast, loops, pattern, plan).outputs == interpret(ast)


@pytest.mark.parametrize("src, bits", [
    # CPU code reads the region's loop index after it
    ("float s; int i = 0; int j = 0; for (i = 0; i < 4; i++) s = 1.0; j = i;", (1,)),
    # the outer header reads the index the inner loop leaves behind
    ("float s; int i = 0; for (i = 0; i < 1; i++) for (i = 0; i < 1; i++) s = 1.0;", (1,)),
    # the outer header tests the index the offloaded inner loop steps, so
    # a stale host copy would never end the outer loop
    (REFERENCE_EDGE_CASES["non-canonical"], (1, 0)),
    # the index's copyout is hoisted past a loop that runs zero times, so
    # the host's value goes in first
    ("int m; float s; int i = 0; int j = 0; int k = 0; m = 0; "
     "for (j = 0; j < m; j++) { for (i = 0; i < 4; i++) s = 1.0; } k = i;", (1,)),
    # a declaration reads the index, and the array the region wrote part of
    ("int i; float s; float a[4]; for(i=0;i<3;i++) a[i] = 1.0; float k = a[1] + i;", (1,)),
])
def test_loop_indices_read_after_a_region_are_copied_out(src, bits):
    ast = parse_program(src)
    loops = extract_loops(ast)
    pattern = OffloadPattern(bits)
    for hoist in (True, False):
        plan = plan_transfers(ast, loops, pattern, hoist=hoist)
        assert any(op.direction == DEVICE_TO_HOST and op.var in ("i", "j")
                   for op in plan.ops)
        assert simulate_with_plan(ast, loops, pattern, plan).outputs == interpret(ast)


def test_rows_that_add_up_to_the_array_before_its_copyout_need_no_copyin():
    ast = parse_program(ROWS)
    loops = extract_loops(ast)
    pattern = OffloadPattern((0, 1))
    outer = loops.infos[0].loop_id
    hoisted = plan_transfers(ast, loops, pattern).ops
    assert [(op.var, op.direction, op.anchor_loop) for op in hoisted
            if op.var == "g"] == [("g", DEVICE_TO_HOST, outer)]
    # unhoisted, g goes out after every row, so it must go in first
    unhoisted = plan_transfers(ast, loops, pattern, hoist=False).ops
    assert [(op.var, op.direction) for op in unhoisted if op.var == "g"] == [
        ("g", HOST_TO_DEVICE), ("g", DEVICE_TO_HOST)]
