"""Interpreter tests: worked values against hand evaluation, error cases,
determinism, and the iteration cap, each in both tiers: closures, and
every loop with a static iteration count run as generated source."""

import itertools
import math

import pytest

from offload_planner.minic import EvalError, extract_loops, interpret, parse_program
from offload_planner.minic import interp
from offload_planner.minic.interp import HOT_ITERATIONS, ITERATION_CAP
from offload_planner.minic.parser import STMT_DEPTH
from offload_planner.offload import OffloadPattern, plan_transfers, simulate_with_plan

from conftest import corpus_programs, hot_iterations, in_both_tiers


def run(src, iteration_cap=ITERATION_CAP):
    ast = parse_program(src)
    loops = extract_loops(ast)
    return in_both_tiers(lambda: interpret(ast, iteration_cap, loops=loops))


def test_trivial_assignment():
    assert run("int x; x = 0;") == {"x": 0.0}


def test_square_loop_hand_evaluated():
    out = run("float a[3]; int i; for(i=0;i<3;i++){ a[i]=i*i; }")
    assert out == {"a": (0.0, 1.0, 4.0), "i": 3.0}


def test_division_by_zero():
    with pytest.raises(EvalError, match="division by zero"):
        run("int x; x = 1/0;")


def test_out_of_bounds_index():
    with pytest.raises(EvalError, match="out of bounds"):
        run("float a[2]; int i; a[2] = 1.0;")
    with pytest.raises(EvalError, match="out of bounds"):
        run("float a[2]; int i; i = 0 - 1; a[i] = 1.0;")


@pytest.mark.parametrize("src, cap, where", [
    # index forced back each pass: never terminates without the cap
    ("int i; int s; for(i=0;i<4;i++){ i = 0 - 1; s = s + 1; }", 1000, "1:15"),
    # the outer loop's 3 iterations and the inner leaf's 12 share one count,
    # so the leaf's last iteration is the 15th
    ("int i; int j; int s; for(j=0;j<3;j++){ for(i=0;i<4;i++){ s = s + 1; } }", 14, "1:40"),
], ids=["runaway", "shared-count"])
def test_iteration_cap(src, cap, where):
    with pytest.raises(EvalError, match=f"^{where}: iteration cap \\({cap}\\) exceeded$"):
        run(src, iteration_cap=cap)


def test_non_static_loop_runs_as_written():
    # bound variable mutates inside the body: statically opaque, still runs
    out = run("int i; int n; n = 6; for(i=0;i<n;i++){ n = n - 1; }")
    assert out["i"] == 3.0 and out["n"] == 3.0


def test_intrinsics_and_declaration_inits():
    out = run("float x = 2.25; float r; float c; r = sqrt(x); c = cos(0);")
    assert out["r"] == 1.5
    assert out["c"] == 1.0
    out = run("float s; s = sin(1.0);")
    assert out["s"] == math.sin(1.0)


def test_sqrt_domain_error():
    with pytest.raises(EvalError):
        run("float r; r = sqrt(0 - 1.0);")


def test_unknown_call_statement_is_noop_and_args_not_evaluated():
    out = run("float x = 3.5; mystery(x); telemetry(x / 0);")
    assert out == {"x": 3.5}


def test_unknown_call_expression_raises():
    with pytest.raises(EvalError, match="opaque call"):
        run("float x; x = mystery(1);")


def test_float_division_semantics():
    assert run("float x; x = 1/2;")["x"] == 0.5


@pytest.mark.parametrize("src, name, expected", [
    # i = 0: a[0] = 1, then i = 7: a[7] = 2; the step makes i 8
    ("float a[8]; int i; for(i=0;i<2;i++){ a[i] = 1.0; i = i + 7; a[i] = 2.0; }",
     "a", (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0)),
    # i starts at a[0] = 2; the tests read a[0] + 1 = 3, a[1] + 1 = 4, a[2] + 1 = 2
    ("float a[4]; float s; int i; int j; int k; a[0] = 2.0; a[1] = 3.0; a[2] = 1.0;"
     "for(j=0;j<1;j++){ for(i=a[k];i<a[k]+1;i++){ k = k + 1; s = s + 1.0; } }",
     "s", 2.0),
], ids=["statement", "loop-bound"])
def test_an_index_is_read_again_after_the_body_writes_it(src, name, expected):
    assert run(src)[name] == expected


def test_index_truncates_toward_zero():
    out = run("float a[4]; a[2.9] = 7.0;")
    assert out["a"] == (0.0, 0.0, 7.0, 0.0)


def test_plus_equals_step():
    out = run("int i; int s; for(i=0;i<10;i+=3){ s = s + 1; }")
    assert out["s"] == 4.0 and out["i"] == 12.0


def test_referential_transparency_bit_for_bit():
    for path in corpus_programs():
        first = run(path.read_text(encoding="utf-8"))
        second = run(path.read_text(encoding="utf-8"))
        assert first == second
        for name, value in first.items():
            seq = value if isinstance(value, tuple) else (value,)
            other = second[name] if isinstance(value, tuple) else (second[name],)
            for x, y in zip(seq, other):
                assert math.copysign(1.0, x) == math.copysign(1.0, y)
                assert x == y


def test_scalar_flow_hand_checked():
    # spreadsheet-style check: i=0: t=0, acc=1; i=1: t=2, acc=4; i=2: t=4, acc=9
    src = ("int i; float t; float acc; "
           "for(i=0;i<3;i++){ t = i * 2.0; acc = acc + t + 1.0; }")
    out = run(src)
    assert out["acc"] == 9.0
    assert out["t"] == 4.0


def test_loops_reaching_the_threshold_run_as_generated_source(nests):
    half = -(-HOT_ITERATIONS // 2)
    src = ("float s; int i = 0; int j = 0;\n"
           f"for (j = 0; j < 2; j++) {{ for (i = 0; i < {half}; i++) {{ s = s + i; }} }}\n"
           f"for (i = 0; i < {HOT_ITERATIONS - 1}; i++) {{ s = s - i; }}\n")
    ast = parse_program(src)
    loops = extract_loops(ast)
    expected = interpret(ast)  # no loop table: closures only
    assert nests == []
    assert interpret(ast, loops=loops) == expected
    assert nests == [loops.infos[1].loop_id]


@pytest.mark.parametrize("expr, s", [
    ("s" + " + a[i] / 2.0 - 1.0 * i" * 100, -300.0),  # 400 operators, one level each
    ("(1.0 + " * 250 + "s" + ")" * 250, 1000.0),       # 250 nested levels
], ids=["chain", "nested"])
def test_long_expressions_run_in_generated_source(expr, s, nests):
    src = f"float s; float a[4]; int i = 0; for (i = 0; i < 4; i++) {{ a[i] = i; s = {expr}; }}"
    assert run(src)["s"] == s
    assert len(nests) == 1


@pytest.mark.parametrize("c_size, checks", [(8, 1), (16, 2)], ids=["one-size", "two-sizes"])
def test_a_statement_checks_an_index_once_per_array_size(compiled, c_size, checks):
    # a[i], b[i] and the write to c[i] share one check of i per array size
    src = (f"float a[8]; float b[8]; float c[{c_size}]; int i = 0;\n"
           "for (i = 0; i < 8; i++) { a[i] = i; b[i] = 1.0; }\n"
           "for (i = 0; i < 8; i++) { c[i] = ((a[i] * 0.75) + b[i]); }\n")
    expected = tuple(k * 0.75 + 1.0 for k in range(8)) + (0.0,) * (c_size - 8)
    assert run(src)["c"] == expected
    assert [source.count("raise BE(") for source in compiled] == [2, checks]


def test_the_deepest_nest_the_parser_accepts_compiles_at_once(nests, compiled):
    # STMT_DEPTH nested loops, every one hot in the source tier, around an
    # intrinsic's try block: one source of a function per loop, which
    # compile() takes in one call, far past its 20 nested blocks
    src = "float x;\n" + "".join(f"int i{k} = 0;\n" for k in range(STMT_DEPTH))
    src += "".join(f"for (i{k} = 0; i{k} < {2 if k % 16 == 0 else 1}; i{k}++)\n"
                   for k in range(STMT_DEPTH))
    src += "x = x + sqrt(1.0);\n"
    assert run(src)["x"] == 2 ** 4  # four of the loops run twice
    assert nests == [extract_loops(parse_program(src)).infos[0].loop_id]
    assert len(compiled) == 1
    assert sum(line.startswith("def ") for line in compiled[0].splitlines()) == STMT_DEPTH


def test_an_emitter_bug_raises_its_syntax_error(monkeypatch):
    # compile() refuses no nest the parser accepts, so none is caught
    monkeypatch.setattr(interp._Nest, "mark", lambda self, name, dev: self.line("if"))
    ast = parse_program("float s; int i = 0; for (i = 0; i < 4; i++) { s = s + i; }")
    with hot_iterations(1), pytest.raises(SyntaxError) as info:
        interpret(ast, loops=extract_loops(ast))
    assert info.value.msg == "invalid syntax"


def while_bodies(source: str) -> list:
    """The lines of each ``while`` body in an emitted source."""
    bodies, lines = [], source.splitlines()
    for at, line in enumerate(lines):
        if line.strip() == "while True:":
            depth = len(line) - len(line.lstrip())
            body = itertools.takewhile(
                lambda inner: len(inner) - len(inner.lstrip()) > depth, lines[at + 1:])
            bodies.append(list(body))
    return bodies


def test_a_leaf_while_body_marks_nothing_and_on_the_host_touches_no_memory(compiled):
    # the host leaf reads and writes locals only; the device leaf's body may
    # still read memory where a local is unfilled, but it marks nothing
    src = "float a[8]; float s = 0; int i = 0; for (i = 0; i < 8; i++) { a[i] = i; s = s + a[i]; }"
    ast = parse_program(src)
    loops = extract_loops(ast)
    pattern = OffloadPattern((1,))
    with hot_iterations(1):
        assert interpret(ast, loops=loops)["s"] == 28.0
        plan = plan_transfers(ast, loops, pattern)
        assert simulate_with_plan(ast, loops, pattern, plan).outputs["s"] == 28.0
    (host,), (device,) = (while_bodies(source) for source in compiled)
    assert not [line for line in host if "H[" in line or "F." in line]
    assert not [line for line in device if "F." in line]
