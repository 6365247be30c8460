"""Run-time error messages, pinned in full, from plain interpretation and
from the two-memory-space model.

Each case names the pattern under which the two-space run fails; with the
all-zero pattern the program runs on the host alone and must fail (or
succeed) exactly as plain interpretation does. Several cases fix which of
two errors wins, which depends on evaluation order: a binary operator
evaluates its left operand, then its right, then checks the divisor; an
element assignment evaluates its value before its index; an element read
checks bounds before device presence. The pinned messages hold in both
tiers of the interpreter: closures, and loops run as generated source.
"""

import json
import math

import pytest

from offload_planner.cli import main
from offload_planner.evaluation import CostAnnotations, CostModelError, evaluate_sim
from offload_planner.minic import (
    EvalError,
    ParseError,
    extract_loops,
    interpret,
    parse_program,
)
from offload_planner.minic.interp import Machine
from offload_planner.minic.parser import STMT_DEPTH
from offload_planner.offload import (
    HOST_TO_DEVICE,
    OffloadPattern,
    TransferPlan,
    TwoSpaceError,
    plan_transfers,
    simulate_with_plan,
)

from conftest import hot_iterations, in_both_tiers

HUGE_LITERAL = "1" + "0" * 400
PARTIAL_WRITE = ("float a[8]; float b[8]; float s = 0; int i = 0;\n"
                 "for (i = 0; i < 8; i++) { read_input(i); b[i] = i; }\n"
                 "for (i = 0; i < 4; i++) { a[i] = b[i] * 2.0; }\n")

# id: (source, offloaded bits, the copyins to drop from the plan (True for
# all, or one variable's name), plain interpretation's message or None when
# it succeeds, two-space message, two-space type). The planner copies in
# every value a region may leave partly unwritten, so the last four cases
# drop such a copyin to reach the model's errors for a missing transfer.
CASES = {
    "division-by-zero": (
        "float x; int i = 0;\nfor (i = 0; i < 2; i++) { x = 1 / 0; }",
        (1,), False, "2:33: division by zero",
        "2:33: division by zero", EvalError),
    "out-of-bounds-read": (
        "float a[2]; float x; int i = 0;\nfor (i = 0; i < 3; i++) { x = a[i]; }",
        (1,), False, "2:31: index 2 out of bounds for 'a[2]'",
        "2:31: index 2 out of bounds for 'a[2]'", EvalError),
    "out-of-bounds-write": (
        "float a[2]; int i = 0;\nfor (i = 0; i < 3; i++) { a[i] = 1.0; }",
        (1,), False, "2:27: index 2 out of bounds for 'a[2]'",
        "2:27: index 2 out of bounds for 'a[2]'", EvalError),
    "negative-index": (
        "float a[2]; int i = 0;\nfor (i = 0; i < 2; i++) { a[i - 1] = 1.0; }",
        (1,), False, "2:27: index -1 out of bounds for 'a[2]'",
        "2:27: index -1 out of bounds for 'a[2]'", EvalError),
    "opaque-call-in-expression": (
        "float x; float a[2]; int i = 0;\nfor (i = 0; i < 2; i++) { a[i] = i; }\n"
        "x = mystery(a[1]);",
        (1,), False, "3:5: opaque call 'mystery' has no value",
        "3:5: opaque call 'mystery' has no value", EvalError),
    "sqrt-domain": (
        "float r; int i = 0;\nfor (i = 0; i < 2; i++) { r = sqrt(0 - 1.0); }",
        (1,), False, "2:31: sqrt(-1.0): math domain error",
        "2:31: sqrt(-1.0): math domain error", EvalError),
    "left-operand-error-wins": (
        "float a[4]; float x; int i = 0;\nfor (i = 0; i < 2; i++) { x = (1/0) + a[9]; }",
        (1,), False, "2:33: division by zero",
        "2:33: division by zero", EvalError),
    "value-error-wins-over-index": (
        "float a[4]; int i = 0;\nfor (i = 0; i < 2; i++) { a[9] = 1/0; }",
        (1,), False, "2:35: division by zero",
        "2:35: division by zero", EvalError),
    "value-read-before-index": (
        "float a[4]; float x = 2; int i = 0;\nfor (i = 0; i < 2; i++) { a[9] = x; }",
        (1,), True, "2:27: index 9 out of bounds for 'a[4]'",
        "device read of 'x' before any transfer", TwoSpaceError),
    "left-operand-read-wins": (
        "float a[4]; float x = 2; float s; int i = 0;\n"
        "for (i = 0; i < 2; i++) { s = x + a[9]; }",
        (1,), True, "2:35: index 9 out of bounds for 'a[4]'",
        "device read of 'x' before any transfer", TwoSpaceError),
    "each-array-checks-its-own-bounds": (
        "float a[4]; float b[2]; float x; int i = 0;\n"
        "for (i = 0; i < 4; i++) { x = a[i] + b[i]; }",
        (1,), False, "2:38: index 2 out of bounds for 'b[2]'",
        "2:38: index 2 out of bounds for 'b[2]'", EvalError),
    "condition-variable-read-before-bound": (
        "float z = 0; float k = 0; int i = 0; int j = 0;\n"
        "for (i = 0; i < 2; i++) { for (j = 0; k < 4 / z; j++) { } }",
        (1,), True, "2:45: division by zero",
        "device read of 'k' before any transfer", TwoSpaceError),
    "bounds-checked-before-device-presence": (
        "float a[4]; float s; int i = 0;\nfor (i = 0; i < 4; i++) { s = a[9]; }",
        (1,), True, "2:31: index 9 out of bounds for 'a[4]'",
        "2:31: index 9 out of bounds for 'a[4]'", EvalError),
    "device-read-of-scalar": (
        "float x = 2; float y; int i = 0;\nfor (i = 0; i < 2; i++) { y = x; }",
        (1,), True, None,
        "device read of 'x' before any transfer", TwoSpaceError),
    "device-read-of-array": (
        "float a[4]; float s; int i = 0;\nfor (i = 0; i < 4; i++) { s = a[i]; }",
        (1,), True, None,
        "device read of 'a' before any transfer", TwoSpaceError),
    "device-read-of-cell": (
        "float a[4]; float s; int i = 0;\n"
        "for (i = 0; i < 4; i++) { a[i] = 1.0; s = s + a[3]; }",
        (1,), "a", None,
        "device read of 'a[3]' before any transfer", TwoSpaceError),
    "host-read-of-untransferred-cell": (
        PARTIAL_WRITE + "for (i = 0; i < 8; i++) { s = s + a[i]; }",
        (1, 0), "a", None,
        "host read of 'a[4]', which was never transferred", TwoSpaceError),
    "garbage-at-exit": (
        PARTIAL_WRITE,
        (1,), "a", None,
        "'a' holds untransferred device garbage at exit", TwoSpaceError),
    "division-by-a-variable": (
        "float x; float y = 2; int i = 0;\nfor (i = 0; i < 3; i++) { y = y - 1; x = 1 / y; }",
        (1,), False, "2:44: division by zero",
        "2:44: division by zero", EvalError),
    "intrinsic-call-statement-evaluates-its-argument": (
        "float x; float z; int i = 0;\nfor (i = 0; i < 2; i++) { sqrt(x / z); }",
        (1,), False, "2:34: division by zero",
        "2:34: division by zero", EvalError),
    "opaque-call-in-a-loop": (
        "float x; int i = 0;\nfor (i = 0; i < 2; i++) { x = mystery(i); }",
        (), False, "2:31: opaque call 'mystery' has no value",
        "2:31: opaque call 'mystery' has no value", EvalError),
    # the parser reads a literal past binary64 as inf; inf * 0 is nan
    "infinite-index": (
        f"float a[4]; float x; int i = 0;\nfor (i = 0; i < 4; i++) {{ x = a[{HUGE_LITERAL}]; }}",
        (1,), False, "2:31: index inf out of bounds for 'a[4]'",
        "2:31: index inf out of bounds for 'a[4]'", EvalError),
    "nan-index": (
        f"float a[4]; int i = 0;\nfor (i = 0; i < 4; i++) {{ a[{HUGE_LITERAL} * 0] = 1.0; }}",
        (1,), False, "2:27: index nan out of bounds for 'a[4]'",
        "2:27: index nan out of bounds for 'a[4]'", EvalError),
    "copyout-of-a-variable-the-device-never-received": (
        "int n = 0; float x; float y; int i = 0; int j = 0;\n"
        "for (i = 0; i < 4; i++) { for (j = 0; j < n; j++) { x = 1.0; } }\ny = x;",
        (1,), "x", None,
        "copyout of 'x', which the device never received", TwoSpaceError),
}


def run_two_space(src, bits, drop_copyins):
    ast = parse_program(src)
    loops = extract_loops(ast)
    pattern = OffloadPattern(bits)
    plan = plan_transfers(ast, loops, pattern)
    if drop_copyins:
        plan = TransferPlan(tuple(
            op for op in plan.ops if op.direction != HOST_TO_DEVICE
            or drop_copyins not in (True, op.var)))
    return simulate_with_plan(ast, loops, pattern, plan)


@pytest.mark.parametrize("case", CASES)
def test_interpret_message(case):
    src, _, _, message, _, _ = CASES[case]
    if message is None:
        interpret(parse_program(src))
        return
    with pytest.raises(EvalError) as info:
        interpret(parse_program(src))
    assert type(info.value) is EvalError
    assert str(info.value) == message


@pytest.mark.parametrize("case", CASES)
def test_two_space_message(case):
    src, bits, drop, _, message, kind = CASES[case]
    with pytest.raises(EvalError) as info:
        run_two_space(src, bits, drop)
    assert type(info.value) is kind
    assert str(info.value) == message


@pytest.mark.parametrize("case", CASES)
def test_host_only_run_fails_like_interpretation(case):
    src, bits, _, message, _, _ = CASES[case]
    host_only = tuple(0 for _ in bits)
    if message is None:
        sim = run_two_space(src, host_only, False)
        assert sim.outputs == interpret(parse_program(src))
        return
    with pytest.raises(EvalError) as info:
        run_two_space(src, host_only, False)
    assert type(info.value) is EvalError
    assert str(info.value) == message


def test_iteration_cap_message():
    # the index is forced back every pass: only the cap stops the loop
    src = "int i; int s;\nfor(i=0;i<4;i++){ i = 0 - 1; s = s + 1; }"
    with pytest.raises(EvalError) as info:
        interpret(parse_program(src), iteration_cap=1000)
    assert str(info.value) == "2:1: iteration cap (1000) exceeded"


def test_iteration_cap_counts_the_loops_of_both_spaces():
    # three host iterations, then three in a region run on the device
    src = ("float s; int i = 0; int j = 0;\n"
           "for (i = 0; i < 3; i++) { s = i; }\nfor (j = 0; j < 3; j++) { s = j; }")
    ast = parse_program(src)
    loops = extract_loops(ast)
    region = [loops.nodes[loops.infos[1].loop_id]]
    Machine(iteration_cap=6, roots=region).run(ast)
    with pytest.raises(EvalError) as info:
        Machine(iteration_cap=5, roots=region).run(ast)
    assert str(info.value) == "3:1: iteration cap (5) exceeded"


@pytest.mark.parametrize("case", CASES)
def test_generated_source_raises_the_pinned_messages(case, nests):
    src, bits, drop, plain, message, kind = CASES[case]
    ast = parse_program(src)
    loops = extract_loops(ast)
    with hot_iterations(1):  # every loop with a static count is emitted
        if plain is None:
            interpret(ast, loops=loops)
        else:
            with pytest.raises(EvalError) as info:
                interpret(ast, loops=loops)
            assert (type(info.value), str(info.value)) == (EvalError, plain)
        with pytest.raises(EvalError) as info:
            run_two_space(src, bits, drop)
        assert (type(info.value), str(info.value)) == (kind, message)
    assert nests


def test_generated_source_counts_the_iteration_cap_on_the_shared_ticks(nests):
    src = "int i; int s;\nfor(i=0;i<4;i++){ i = 0 - 1; s = s + 1; }"
    ast = parse_program(src)
    with hot_iterations(1), pytest.raises(EvalError) as info:
        interpret(ast, iteration_cap=1000, loops=extract_loops(ast))
    assert str(info.value) == "2:1: iteration cap (1000) exceeded"
    assert nests == [ast.items[2].node_id]
    # four host iterations emitted as source, then two in a region run as
    # closures: the cap counts them together
    src = ("float s; int i = 0; int j = 0;\n"
           "for (i = 0; i < 4; i++) { s = i; }\nfor (j = 0; j < 2; j++) { s = j; }")
    ast = parse_program(src)
    loops = extract_loops(ast)
    region = [loops.nodes[loops.infos[1].loop_id]]
    nests.clear()
    with hot_iterations(4):
        Machine(iteration_cap=6, roots=region, loops=loops).run(ast)
        with pytest.raises(EvalError) as info:
            Machine(iteration_cap=5, roots=region, loops=loops).run(ast)
    assert str(info.value) == "3:1: iteration cap (5) exceeded"
    assert nests == [loops.infos[0].loop_id] * 2


# -- numeric overflow: exit 2 naming the value, never a traceback ----------

@pytest.mark.parametrize("measure, message", [
    ("1e300,1e-300", "the time split 1e+300:1e-300 has no finite ratio"),
    ("inf,1", "times must be finite, got t_cpu=inf, t_dev=1.0"),
    ("nan,1", "times must be finite, got t_cpu=nan, t_dev=1.0"),
    ("0,inf", "times must be finite, got t_cpu=0.0, t_dev=inf"),
])
def test_plan_rejects_a_time_split_without_a_finite_ratio(tmp_path, capsys,
                                                          measure, message):
    code = main(["plan", "--measure", measure, "--price-cpu", "1", "--price-dev", "1",
                 "--budget", "10", "-o", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == f"error: ValueError: {message}\n"


# plan inputs no allocation can be sized from: each exits 2 naming the cause
PLAN_FAULTS = {
    "huge-budget": ("10,5", "1000", "4000", "1e300",
                    "budget 1e+300 buys 2**53 units or more at 1000.0 a CPU and 4000.0 "
                    "a device unit"),
    "huge-budget-cpu-only": ("10,0", "1000", "4000", "1e300",
                             "budget 1e+300 buys 2**53 units or more at 1000.0 a CPU "
                             "and 4000.0 a device unit"),
    "tiny-prices": ("10,5", "1e-300", "1e-300", "1",
                    "budget 1.0 buys 2**53 units or more at 1e-300 a CPU and 1e-300 "
                    "a device unit"),
    "infinite-budget": ("10,5", "1000", "4000", "inf", "budget must be finite, got inf"),
    "nan-budget": ("10,5", "1000", "4000", "nan", "budget must be finite, got nan"),
    "nan-price": ("10,5", "nan", "4000", "1e5",
                  "the CPU unit price must be positive and finite, got nan"),
    "infinite-price": ("0,5", "1000", "inf", "1e5",
                       "the device unit price must be positive and finite, got inf"),
}


@pytest.mark.parametrize("fault", PLAN_FAULTS)
def test_plan_rejects_budgets_and_prices_it_cannot_size(tmp_path, capsys, fault):
    measure, price_cpu, price_dev, budget, message = PLAN_FAULTS[fault]
    code = main(["plan", "--measure", measure, "--price-cpu", price_cpu,
                 "--price-dev", price_dev, "--budget", budget, "-o", str(tmp_path)])
    assert (code, capsys.readouterr().err) == (2, f"error: ValueError: {message}\n")


@pytest.mark.parametrize("fault", ["huge-budget", "nan-budget", "nan-price"])
def test_run_all_rejects_budgets_and_prices_it_cannot_size(tmp_path, capsys, corpus_dir,
                                                         fault):
    *_, price_cpu, price_dev, budget, message = PLAN_FAULTS[fault]
    argv = write_run_all(tmp_path, corpus_dir, "float a[4]; float s; int i;\n"
                         "for (i = 0; i < 4; i++) { a[i] = i; }\n", [[1]])
    config = json.loads((tmp_path / "config.json").read_text(encoding="utf-8"))
    config.update(budget=float(budget), prices={"cpu_unit_price": float(price_cpu),
                                                "dev_unit_price": float(price_dev)})
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: ValueError: {message}\n"


HUGE = "1" + "0" * 200
# two inner loops of 10^200 iterations each: the kernel of a region holding
# both runs 10^400 times, beyond binary64
DEEP_NEST = ("float x; int i = 0; int j = 0; int k = 0;\n"
             "for (i = 0; i < 4; i++) {\n"
             f"  for (j = 0; j < {HUGE}; j++) {{\n"
             f"    for (k = 0; k < {HUGE}; k++) {{ x = x + 1.0; }}\n"
             "  }\n}\n")


@pytest.mark.parametrize("bits, message", [
    ((0, 0, 0), "host cost of loop 16 is not a finite binary64"),
    ((1, 0, 0), "kernel cost of region 8 is not a finite binary64"),
    ((0, 1, 0), "kernel cost of region 12 is not a finite binary64"),
    ((0, 0, 1), "kernel cost of region 16 is not a finite binary64"),
])
def test_sim_term_beyond_binary64_is_a_cost_model_error(bits, message):
    ast = parse_program(DEEP_NEST)
    loops = extract_loops(ast)
    pattern = OffloadPattern(bits)
    plan = plan_transfers(ast, loops, pattern)
    with pytest.raises(CostModelError) as info:
        evaluate_sim(ast, loops, pattern, plan, CostAnnotations(default_work=1.0))
    assert str(info.value) == message


def test_search_with_a_sim_term_beyond_binary64_exits_2(tmp_path, capsys):
    src = tmp_path / "deep.mc"
    src.write_text(DEEP_NEST, encoding="utf-8")
    costs = tmp_path / "costs.json"
    costs.write_text('{"default_work": 1.0}', encoding="utf-8")
    code = main(["search", str(src), "--costs", str(costs), "--ga",
                 "generations=2,population_size=4", "-o", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == ("error: CostModelError: kernel cost of "
                                       "region 16 is not a finite binary64\n")


# -- array cells: exit 2 naming the array, never a MemoryError --------------

@pytest.mark.parametrize("source, message", [
    ("float big[100000000000];",
     "1:11: array 'big' takes the program's arrays past 16777216 cells"),
    ("float a[16777216]; float big[1];",
     "1:30: array 'big' takes the program's arrays past 16777216 cells"),
])
def test_arrays_past_the_cell_budget_are_a_parse_error(source, message):
    with pytest.raises(ParseError) as info:
        parse_program(source)
    assert str(info.value) == message


def test_analyze_of_a_program_past_the_cell_budget_exits_2(tmp_path, capsys):
    src = tmp_path / "big.mc"
    src.write_text("float x;\nfloat big[100000000000];\n", encoding="utf-8")
    assert main(["analyze", str(src), "-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == ("error: ParseError: 2:11: array 'big' takes "
                                       "the program's arrays past 16777216 cells\n")


# -- deep expressions: exit 2 naming the position, never a RecursionError ---

@pytest.mark.parametrize("expr, col", [
    ("(1.0 + " * 330 + "s" + ")" * 330, 1791),  # the 256th bracket opens level 257
    ("s" + " + s" * 999, 1027),                  # the 256th operator is level 257
    ("a[" * 256 + "0" + "]" * 256, 517),
    ("sqrt(" * 256 + "s" + ")" * 256, 1285),
], ids=["brackets", "operators", "indices", "calls"])
def test_expressions_nested_too_deep_are_a_parse_error(expr, col):
    with pytest.raises(ParseError) as info:
        parse_program(f"float a[4]; float s;\ns = {expr};")
    assert str(info.value) == f"2:{col}: expression nests deeper than 256 levels"


def test_analyze_of_an_expression_nested_too_deep_exits_2(tmp_path, capsys):
    src = tmp_path / "deep.mc"
    src.write_text("float s;\ns = " + "s + " * 1000 + "s;\n", encoding="utf-8")
    assert main(["analyze", str(src), "-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == ("error: ParseError: 2:1027: expression "
                                       "nests deeper than 256 levels\n")


# each of these takes a pass up to three Python frames a level, in both tiers
DEEPEST_EXPRESSIONS = ["(1.0 + " * 255 + "s" + ")" * 255, "a[" * 255 + "0" + "]" * 255,
                       "sqrt(" * 255 + "s" + ")" * 255, "s" + " + s" * 255]


def write_run_all(tmp_path, corpus_dir, source, patterns):
    """The config of a run-all of ``source`` with a performance case for
    each pattern, and no regression suites."""
    (tmp_path / "deep.mc").write_text(source, encoding="utf-8")
    (tmp_path / "costs.json").write_text('{"default_work": 1.0}', encoding="utf-8")
    (tmp_path / "tests.json").write_text(json.dumps([
        {"name": f"deep-{n}", "kind": "performance", "source": "deep.mc",
         "baseline": "deep.mc", "pattern": pattern} for n, pattern in enumerate(patterns)]),
        encoding="utf-8")
    (tmp_path / "registry.json").write_text("{}", encoding="utf-8")
    config = json.loads((corpus_dir / "g3_config.json").read_text(encoding="utf-8"))
    config.update(source="deep.mc", costs="costs.json", tests="tests.json",
                  registry="registry.json", components=[])
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    return ["run-all", "--config", str(tmp_path / "config.json")]


def test_run_all_runs_the_deepest_expressions(tmp_path, capsys, corpus_dir, nests):
    body = " ".join(f"s = {expr};" for expr in DEEPEST_EXPRESSIONS)
    argv = write_run_all(
        tmp_path, corpus_dir,
        f"float a[4]; float s; int i = 0;\nfor (i = 0; i < 4; i++) {{ {body} }}\n",
        [[0], [1]])
    for threshold in (math.inf, 1):
        with hot_iterations(threshold):
            assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert nests


# -- deep statements: exit 2 naming the position, never a RecursionError ----

@pytest.mark.parametrize("nest, col", [
    ("{ " * 65 + "s = 1;" + " }" * 65, 129),
    ("for (i = 0; i < 1; i++) " * 65 + "s = 1;", 1537),
    ("for (i = 0; i < 1; i++) { " * 33 + "s = 1;" + " }" * 33, 833),
], ids=["blocks", "for headers", "both"])
def test_statements_nested_too_deep_are_a_parse_error(nest, col):
    # the 65th "{" or "for" opens level 65
    with pytest.raises(ParseError) as info:
        parse_program(f"float s; int i;\n{nest}")
    assert str(info.value) == f"2:{col}: statement nests deeper than 64 levels"


@pytest.mark.parametrize("nest, col", [
    ("{" * 1000 + "x = 1;" + "}" * 1000, 65),
    ("for (i = 0; i < 1; i++) " * 400 + "x = 1;", 1537),
], ids=["blocks", "for headers"])
def test_analyze_of_statements_nested_too_deep_exits_2(tmp_path, capsys, nest, col):
    src = tmp_path / "deep.mc"
    src.write_text(f"float x; int i;\n{nest}\n", encoding="utf-8")
    assert main(["analyze", str(src), "-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (f"error: ParseError: 2:{col}: statement "
                                       "nests deeper than 64 levels\n")


def deepest_nest(body: str) -> str:
    """Headers that re-drive i, then the eligible loop over j and its block
    around ``body``: STMT_DEPTH levels. The last header over i is eligible
    too; the tests keep its bit 0."""
    return ("float a[4]; float s; int i; int j;\n" + "for (i = 0; i < 1; i++) " * (STMT_DEPTH - 2)
            + f"for (j = 0; j < 1; j++) {{ {body} }}\n")


@pytest.mark.parametrize("expr", DEEPEST_EXPRESSIONS,
                         ids=["brackets", "indices", "calls", "operators"])
def test_run_all_runs_the_deepest_statements_around_the_deepest_expression(
        tmp_path, capsys, corpus_dir, expr):
    # brackets take the most parser frames a level, indices the most emitter ones
    argv = write_run_all(tmp_path, corpus_dir, deepest_nest(f"s = {expr};"), [[0, 0], [0, 1]])
    assert in_both_tiers(lambda: main(argv)) == 0
    assert capsys.readouterr().err == ""


def test_run_all_compiles_each_deep_hot_nest_once(tmp_path, capsys, corpus_dir, nests, compiled):
    # 63 loops, every one hot in the source tier, around four 254-level
    # expressions: each build is one compile() call that succeeds
    expr = "(1.0 + " * 254 + "s" + ")" * 254
    source = deepest_nest(f"s = {expr};" * 4)
    argv = write_run_all(tmp_path, corpus_dir, source, [[0, 0], [0, 1]])
    assert in_both_tiers(lambda: main(argv)) == 0
    assert capsys.readouterr().err == ""
    assert set(nests) == {extract_loops(parse_program(source)).infos[0].loop_id}
    assert len(compiled) == len(nests)
    assert {sum(line.startswith("def ") for line in code.splitlines())
            for code in compiled} == {STMT_DEPTH - 1}
