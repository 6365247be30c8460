"""Transfer-plan soundness: the two-memory-space execution honoring the plan
must reproduce plain interpretation bit-exactly, exhaustively over patterns
where the gene is short and on seeded samples where it is not."""

import itertools
import random
from functools import partial

import pytest

from offload_planner.minic import extract_loops, interpret, parse_program
from offload_planner.offload import (
    DEVICE_TO_HOST,
    HOST_TO_DEVICE,
    OffloadPattern,
    TransferPlan,
    plan_transfers,
    simulate_with_plan,
    validate_pattern,
)

from conftest import corpus_programs, in_both_tiers, load_generator


def valid_patterns(loops, limit_exhaustive=8, samples=64, seed=5):
    a = loops.gene_length()
    if a <= limit_exhaustive:
        candidates = itertools.product((0, 1), repeat=a)
    else:
        rng = random.Random(seed)
        candidates = {tuple(rng.randint(0, 1) for _ in range(a))
                      for _ in range(samples)}
        candidates |= {(0,) * a, (1,) * a}
    for bits in candidates:
        pattern = OffloadPattern(tuple(bits))
        if validate_pattern(pattern, loops) is None:
            yield pattern


def test_soundness_on_corpus():
    # every fourth plan runs in both tiers too: generated source gives the
    # closures' outputs and op counts
    for path in corpus_programs():
        ast = parse_program(path.read_text(encoding="utf-8"))
        loops = extract_loops(ast)
        baseline = in_both_tiers(lambda: interpret(ast, loops=loops))
        checked = 0
        for pattern in valid_patterns(loops):
            for hoist in (True, False):
                plan = plan_transfers(ast, loops, pattern, hoist=hoist)
                run = partial(simulate_with_plan, ast, loops, pattern, plan)
                sim = in_both_tiers(run) if hoist and checked % 2 == 0 else run()
                assert sim.outputs == baseline, (path.name,
                                                 pattern.as_string(), hoist)
            checked += 1
        assert checked >= 1, path.name


def test_hoisting_never_increases_executed_transfers():
    for path in corpus_programs():
        ast = parse_program(path.read_text(encoding="utf-8"))
        loops = extract_loops(ast)
        for pattern in valid_patterns(loops):
            hoisted = plan_transfers(ast, loops, pattern)
            unhoisted = plan_transfers(ast, loops, pattern, hoist=False)
            n_hoisted = simulate_with_plan(ast, loops, pattern, hoisted)
            n_unhoisted = simulate_with_plan(ast, loops, pattern, unhoisted)
            assert n_hoisted.total_transfers <= n_unhoisted.total_transfers


def test_transitive_hoist_device_resident_accumulator():
    # the copyin of w and acc can hoist past both enclosing loops; the device
    # then accumulates across all nine region executions with one copyout
    src = ("int n = 3; float w[8]; float acc = 0; int i = 0; int j = 0; "
           "int k = 0; float out = 0; "
           "for(i=0;i<8;i++){ w[i] = i * 1.0; } "
           "for(j=0;j<n;j++){ "
           "  for(k=0;k<n;k++){ "
           "    for(i=0;i<8;i++){ acc = acc + w[i]; } "
           "  } "
           "} "
           "out = acc;")
    ast = parse_program(src)
    loops = extract_loops(ast)
    region = loops.infos[3].loop_id
    outermost = loops.infos[1].loop_id
    bits = tuple(1 if lid == region else 0 for lid in loops.eligible_ids())
    pattern = OffloadPattern(bits)
    plan = plan_transfers(ast, loops, pattern)
    anchors = {(op.var, op.direction): op.anchor_loop for op in plan.ops}
    assert anchors[("w", "host_to_device")] == outermost
    assert anchors[("acc", "host_to_device")] == outermost
    assert anchors[("acc", "device_to_host")] == outermost
    sim = simulate_with_plan(ast, loops, pattern, plan)
    assert sim.outputs == interpret(ast)
    assert sim.total_transfers == 3  # one per hoisted op, for 9 kernel runs


def test_cpu_redefinition_after_region_forces_timely_copyout():
    src = ("int n = 4; float a[4]; int i = 0; "
           "for(i=0;i<n;i++){ a[i] = i * 1.0; } "
           "a[0] = 9.0;")
    ast = parse_program(src)
    loops = extract_loops(ast)
    pattern = OffloadPattern((1,))
    plan = plan_transfers(ast, loops, pattern)
    assert any(op.var == "a" and op.direction == "device_to_host"
               for op in plan.ops)
    sim = simulate_with_plan(ast, loops, pattern, plan)
    assert sim.outputs == interpret(ast)
    assert sim.outputs["a"] == (9.0, 1.0, 2.0, 3.0)


def test_blocked_copyin_pairs_with_blocked_copyout():
    # the enclosing loop redefines x before the region and consumes it after:
    # both transfers stay anchored at the region and fire every iteration
    src = ("int n = 3; float x = 0; float s[4]; int i = 0; int j = 0; "
           "float out = 0; "
           "for(j=0;j<n;j++){ "
           "  x = j * 1.0; "
           "  for(i=0;i<4;i++){ s[i] = s[i] + x; x = x + 1.0; } "
           "  out = out + x; "
           "}")
    ast = parse_program(src)
    loops = extract_loops(ast)
    region = loops.infos[1].loop_id
    bits = tuple(1 if lid == region else 0 for lid in loops.eligible_ids())
    pattern = OffloadPattern(bits)
    plan = plan_transfers(ast, loops, pattern)
    x_ops = {op.direction: op for op in plan.for_var("x")}
    assert not x_ops["host_to_device"].hoisted
    assert not x_ops["device_to_host"].hoisted
    sim = simulate_with_plan(ast, loops, pattern, plan)
    assert sim.outputs == interpret(ast)


def test_broken_plan_is_caught():
    # dropping the copyin of a consumed variable must surface as an error or
    # a wrong result, never silently match
    from offload_planner.offload import TransferPlan, TwoSpaceError

    src = ("float x; float a[4]; int i; float out; "
           "x = 2.5; "
           "for(i=0;i<4;i++){ a[i] = x; } "
           "out = a[0];")
    ast = parse_program(src)
    loops = extract_loops(ast)
    pattern = OffloadPattern((1,))
    plan = plan_transfers(ast, loops, pattern)
    gutted = TransferPlan(tuple(op for op in plan.ops if op.var != "x"))
    try:
        sim = simulate_with_plan(ast, loops, pattern, gutted)
        assert sim.outputs != interpret(ast)
    except TwoSpaceError:
        pass


def test_late_copyout_is_caught():
    # a CPU read between region exit and a hoisted copyout sees a stale value
    from offload_planner.offload import DEVICE_TO_HOST, TransferOp, TransferPlan

    src = ("int n = 4; float c[4]; int i = 0; int j = 0; float acc = 0; "
           "for(j=0;j<n;j++){ "
           "for(i=0;i<n;i++){ c[i] = c[i] + 1.0; } "
           "acc = acc + c[0]; }")
    ast = parse_program(src)
    loops = extract_loops(ast)
    inner = loops.infos[1].loop_id
    outer = loops.infos[0].loop_id
    pattern = OffloadPattern((0, 1))
    plan = plan_transfers(ast, loops, pattern)
    assert any(op.var == "c" and op.direction == DEVICE_TO_HOST
               and op.anchor_loop == inner for op in plan.ops)
    # force the copyout to the outer loop, against the blocking CPU use
    forced = TransferPlan(tuple(
        TransferOp(op.var, op.direction, outer, op.bytes, op.region)
        if op.var == "c" and op.direction == DEVICE_TO_HOST else op
        for op in plan.ops))
    good = simulate_with_plan(ast, loops, pattern, plan)
    bad = simulate_with_plan(ast, loops, pattern, forced)
    baseline = interpret(ast)
    assert good.outputs == baseline
    assert bad.outputs != baseline


PARTIAL_WRITE = """float a[8];
float b[8];
float s = 0;
int i = 0;
for (i = 0; i < 8; i++) { read_input(i); b[i] = i; }
for (i = 0; i < 4; i++) { a[i] = b[i] * 2.0; }
for (i = 0; i < 8; i++) { s = s + a[i]; }
"""


def without_copyin(plan, var):
    return TransferPlan(tuple(op for op in plan.ops
                              if (op.var, op.direction) != (var, HOST_TO_DEVICE)))


def test_host_read_of_untransferred_cell_is_a_two_space_error():
    # the region writes a[0..3] without reading a; without a copyin of a,
    # its copyout hands the host cells the device never held
    from offload_planner.offload import TwoSpaceError

    ast = parse_program(PARTIAL_WRITE)
    loops = extract_loops(ast)
    pattern = OffloadPattern((1, 0))
    plan = without_copyin(plan_transfers(ast, loops, pattern), "a")
    with pytest.raises(TwoSpaceError, match=r"host read of 'a\[4\]'"):
        simulate_with_plan(ast, loops, pattern, plan)


def test_verify_reports_untransferred_host_read_as_failed_diff(tmp_path, monkeypatch):
    from offload_planner import verify
    from offload_planner.evaluation import Measurement, ToleranceSpec
    from offload_planner.planner import Allocation
    from offload_planner.verify import TestCase, run_verification

    plan = verify.plan_transfers
    monkeypatch.setattr(verify, "plan_transfers",
                        lambda *args: without_copyin(plan(*args), "a"))

    source = tmp_path / "partial.mc"
    source.write_text(PARTIAL_WRITE, encoding="utf-8")
    case = TestCase(name="partial", kind="performance", source=str(source),
                    pattern=(1, 0), baseline=str(source),
                    tolerance=ToleranceSpec())
    report = run_verification(Allocation(1, 1, 5000.0, True),
                              Measurement(2.0, 1.0, 1.0, True), [case], {}, [])
    row = report.performance[0]
    assert not row.diff_passed
    assert row.note == "host read of 'a[4]', which was never transferred"
    assert report.recommendation == "attention"


def test_unhoisted_copyin_inside_a_cpu_loop_gets_a_copyout():
    # unhoisted, the copyin of a fires on every j iteration; without a
    # copyout it would ship the host's stale a over the device's newer one
    src = ("float a[4]; int i = 0; int j = 0; "
           "for (i = 0; i < 4; i++) { read_input(i); a[i] = i; } "
           "for (j = 0; j < 3; j++) { for (i = 0; i < 4; i++) { a[i] = a[i] + 1.0; } }")
    ast = parse_program(src)
    loops = extract_loops(ast)
    pattern = OffloadPattern((0, 1))
    plan = plan_transfers(ast, loops, pattern, hoist=False)
    assert [(op.var, op.direction) for op in plan.ops] == [
        ("a", "host_to_device"), ("a", "device_to_host")]
    sim = simulate_with_plan(ast, loops, pattern, plan)
    assert sim.outputs == interpret(ast)
    assert sim.outputs["a"] == (3.0, 4.0, 5.0, 6.0)


def test_copyout_hoisted_past_a_loop_that_runs_zero_times():
    # the copyout of x hoists past the j loop, which has no static trip
    # count and runs zero times: x must go in first for it to come out
    src = ("int m; float x; float y; int i = 0; int j = 0; m = 0; "
           "for (j = 0; j < m; j++) { for (i = 0; i < 4; i++) { x = 1.0; } } y = x;")
    ast = parse_program(src)
    loops = extract_loops(ast)
    pattern = OffloadPattern((1,))
    plan = plan_transfers(ast, loops, pattern)
    outer = loops.infos[0].loop_id
    assert [(op.var, op.direction, op.anchor_loop) for op in plan.ops] == [
        ("x", HOST_TO_DEVICE, outer), ("x", DEVICE_TO_HOST, outer)]
    assert simulate_with_plan(ast, loops, pattern, plan).outputs == interpret(ast)


@pytest.mark.parametrize("src, copyouts, drop, expected", [
    # s and the index i are written by the region and read by no CPU code
    # afterwards: no copyout, the teardown flush carries them out
    ("float s = 0; int i = 0; for (i = 0; i < 4; i++) { s = s + i; }",
     set(), False, {"s": 6.0, "i": 4.0}),
    # with its copyout dropped, x is device-fresh until the host overwrites it
    ("float x = 1; int i = 0; for (i = 0; i < 4; i++) { x = x * 2.0; } x = 5.0;",
     {"x"}, True, {"x": 5.0, "i": 4.0}),
    # the copyout makes x host-current; the later host write is newest
    ("float x = 1; int i = 0; for (i = 0; i < 4; i++) { x = x * 2.0; } x = x + 1.0;",
     {"x"}, False, {"x": 17.0, "i": 4.0}),
    # with its copyout dropped, s stays device-fresh: a host leaf in the
    # ineligible k loop runs zero times, so it writes, and marks, nothing
    ("float s = 0; int n = 0; int i = 0; int j = 0; int k = 0; "
     "for (i = 0; i < 4; i++) { s = s + i; } "
     "for (k = 0; k < 1; k++) { read_input(k); for (j = 0; j < n; j++) { s = 1.0; } }",
     {"s"}, True, {"s": 6.0, "n": 0.0, "i": 4.0, "j": 0.0, "k": 1.0}),
], ids=["unread-result-flushed", "host-write-after-region",
        "host-write-after-copyout", "zero-trip-host-leaf"])
def test_teardown_flush_copies_out_exactly_the_device_fresh(src, copyouts, drop,
                                                            expected):
    ast = parse_program(src)
    loops = extract_loops(ast)
    pattern = OffloadPattern((1,))
    plan = plan_transfers(ast, loops, pattern)
    assert {op.var for op in plan.ops if op.direction == DEVICE_TO_HOST} == copyouts
    if drop:
        plan = TransferPlan(tuple(op for op in plan.ops
                                  if op.direction != DEVICE_TO_HOST))
    sim = in_both_tiers(lambda: simulate_with_plan(ast, loops, pattern, plan))
    assert sim.outputs == interpret(ast) == expected


@pytest.mark.parametrize("var", ["x", "b"], ids=["scalar", "array"])
def test_a_device_leaf_read_before_any_transfer_fails_alike_in_both_tiers(var):
    from offload_planner.offload import TwoSpaceError

    src = ("float x = 2.5; float b[4]; float s = 0; int i = 0; "
           "for (i = 0; i < 4; i++) { s = s + b[i] * x; }")
    ast = parse_program(src)
    loops = extract_loops(ast)
    pattern = OffloadPattern((1,))
    plan = without_copyin(plan_transfers(ast, loops, pattern), var)
    with pytest.raises(TwoSpaceError, match=f"^device read of '{var}' before any transfer$"):
        in_both_tiers(lambda: simulate_with_plan(ast, loops, pattern, plan))


@pytest.mark.parametrize("src", [
    # the header writes i and k, the body j, which the test reads; the
    # second entry runs zero times
    "float s = 0; int i = 0; int j = 0; int k = 0; int m = 0; "
    "for (m = 0; m < 2; m++) { for (i = 0; j < 4; k++) { j = j + 1; s = s + k; } }",
    # the body moves the index the step then advances
    "float a[8]; int i = 0; int j = 0; "
    "for (j = 0; j < 2; j++) { for (i = 0; i < 8; i++) { a[i] = a[i] + 1.0; i = i + 2; } }",
    # the body lowers the scalar the bound reads
    "int n = 0; int i = 0; int j = 0; "
    "for (j = 0; j < 2; j++) { n = 6; for (i = 0; i < n; i++) { n = n - 1; } }",
    # offloaded, the outer loop, which keeps no locals, creates a on the
    # device with its first write, since the region writes all of a and
    # the leaf that would write it first runs zero times
    "float a[4]; int n = 0; int i = 0; int j = 0; "
    "for (j = 0; j < 4; j++) { for (i = 0; i < n; i++) { a[i] = 1.0; } a[j] = j; }",
], ids=["non-canonical", "own-index", "bound-scalar", "outer-writes-array"])
def test_leaves_in_a_nest_run_alike_in_both_tiers(src):
    # each inner loop is a leaf of the outer one's nest, on the host or,
    # with the outer loop offloaded, on the device
    ast = parse_program(src)
    loops = extract_loops(ast)
    baseline = in_both_tiers(lambda: interpret(ast, loops=loops))
    for pattern in valid_patterns(loops):
        plan = plan_transfers(ast, loops, pattern)
        sim = in_both_tiers(lambda: simulate_with_plan(ast, loops, pattern, plan))
        assert sim.outputs == baseline, pattern.as_string()


def test_generated_programs_two_space_equals_interpretation(nests):
    # the verify-heavy nests reach HOT_ITERATIONS, so they run as source
    generator = load_generator()
    checked = 0
    for workload, patterns in (("sim-search", 8), ("verify-heavy", 2)):
        for program in generator.generate(workload, 1):
            ast = parse_program(program.source)
            loops = extract_loops(ast)
            baseline = interpret(ast, loops=loops)
            assert baseline == program.expected_outputs(), program.name
            rng = random.Random(program.name)
            for _ in range(patterns):
                pattern = OffloadPattern(tuple(generator.random_antichain(program, rng)))
                for hoist in (True, False):
                    plan = plan_transfers(ast, loops, pattern, hoist=hoist)
                    sim = simulate_with_plan(ast, loops, pattern, plan)
                    assert sim.outputs == baseline, (program.name,
                                                     pattern.as_string(), hoist)
                    checked += 1
    assert checked == 128 + 12
    assert nests


def test_generated_source_equals_closures_on_generated_programs():
    # every loop of the 40-loop programs emitted: outputs and op counts
    generator = load_generator()
    for program in generator.generate("sim-search", 1):
        ast = parse_program(program.source)
        loops = extract_loops(ast)
        rng = random.Random(program.name)
        pattern = OffloadPattern(tuple(generator.random_antichain(program, rng)))
        plan = plan_transfers(ast, loops, pattern)
        in_both_tiers(lambda: simulate_with_plan(ast, loops, pattern, plan))


def test_hooks_inside_a_generated_nest_fire_as_with_closures(nests):
    # the region is the innermost loop. The copyin of a hoists to k; the
    # copyin of j (which the j header writes) and the copyout of a (which
    # the CPU reads after the region) fire at the region, inside k and j
    src = ("float a[4]; float s = 0; int i = 0; int j = 0; int k = 0;\n"
           "for (k = 0; k < 3; k++) {\n"
           "  for (j = 0; j < 2; j++) {\n"
           "    for (i = 0; i < 4; i++) { a[i] = a[i] + j; }\n"
           "    s = s + a[1];\n"
           "  }\n"
           "}\n")
    ast = parse_program(src)
    loops = extract_loops(ast)
    outer, region = loops.infos[0].loop_id, loops.infos[2].loop_id
    pattern = OffloadPattern(tuple(int(lid == region) for lid in loops.eligible_ids()))
    plan = plan_transfers(ast, loops, pattern)
    assert [(op.var, op.direction, op.anchor_loop) for op in plan.ops] == [
        ("a", HOST_TO_DEVICE, outer), ("j", HOST_TO_DEVICE, region),
        ("a", DEVICE_TO_HOST, region)]
    sim = in_both_tiers(lambda: simulate_with_plan(ast, loops, pattern, plan))
    assert list(sim.op_counts.values()) == [1, 6, 6]
    assert sim.outputs == interpret(ast)
    assert nests == [outer]  # one source holds the nest and its hooks
