"""Parser tests: grammar-forced structure, error positions, node id order,
and the pretty-print/re-parse round-trip oracle."""

import pytest

from offload_planner.minic import (
    Assign,
    Block,
    CallStmt,
    ForLoop,
    Num,
    ParseError,
    Program,
    UndeclaredIdentifier,
    VarDecl,
    loops_in,
    parse_program,
    to_source,
    walk,
)

from conftest import corpus_programs, read_corpus


def test_minimal_program_structure():
    ast = parse_program("int n=4; float a[4]; int i; for(i=0;i<n;i++){ a[i]=i*2.0; }")
    assert isinstance(ast, Program)
    decls = [item for item in ast.items if isinstance(item, VarDecl)]
    loops = [item for item in ast.items if isinstance(item, ForLoop)]
    assert len(decls) == 3
    assert len(loops) == 1
    assert decls[1].is_array and decls[1].size == 4 and decls[1].byte_size == 32
    assert decls[0].init == Num(value=4.0)


def test_missing_semicolon_is_syntax_error_with_position():
    with pytest.raises(ParseError) as err:
        parse_program("int i;\nfor(i=0 i<4; i++){}")
    assert err.value.line == 2
    assert "expected ';'" in str(err.value)


@pytest.mark.parametrize("source", [
    "int x; x = ;",
    "float a[0];",
    "int x; for(x=0;x<4;x--){}",
    "int x; x = 1 +;",
    "float a[2]; a = 3;",          # array used without index
    "int x; x[0] = 1;",            # scalar indexed
    "int x; int x;",               # redeclaration
    "float a[2] = 1;",             # array initializer
    "int x; x = sin(1, 2);",       # intrinsic arity
    "int x; {",                    # unterminated block
    "float a[9007199254740992];",  # 2^53 cells: beyond a binary64 index
    "int x; for(x=0;x<4;x+=9007199254740992){}",  # a 2^53 step, likewise
    "float big[100000000000];",    # past the program's array cell budget
])
def test_malformed_inputs_raise(source):
    with pytest.raises(ParseError):
        parse_program(source)


def test_use_before_declaration():
    with pytest.raises(UndeclaredIdentifier):
        parse_program("x = 1;")
    with pytest.raises(UndeclaredIdentifier):
        parse_program("int x; x = y + 1;")
    with pytest.raises(UndeclaredIdentifier):
        parse_program("for(i=0;i<3;i++){}")
    # calls are opaque: the callee needs no declaration, arguments do
    parse_program("int x; mystery(x);")
    with pytest.raises(UndeclaredIdentifier):
        parse_program("mystery(x);")


def test_node_ids_unique_and_loops_in_source_order():
    ast = parse_program(read_corpus("nested3.mc"))
    ids = [node.node_id for node in walk(ast)]
    assert len(ids) == len(set(ids))
    loop_ids = [loop.node_id for loop in loops_in(ast)]
    assert loop_ids == sorted(loop_ids)
    lines = [loop.line for loop in loops_in(ast)]
    assert lines == sorted(lines)


def test_parse_is_pure():
    text = read_corpus("g3.mc")
    a = parse_program(text)
    b = parse_program(text)
    assert a == b
    assert [n.node_id for n in walk(a)] == [n.node_id for n in walk(b)]


# hand-written expected AST for the 3-loop nested corpus sample, checked
# field by field, then cross-checked by the re-parse round-trip oracle
def test_nested3_expected_ast():
    ast = parse_program(read_corpus("nested3.mc"))
    kinds = [type(item).__name__ for item in ast.items]
    assert kinds == ["VarDecl", "VarDecl", "VarDecl", "VarDecl", "VarDecl",
                     "VarDecl", "ForLoop"]
    names = [item.name for item in ast.items if isinstance(item, VarDecl)]
    assert names == ["n", "grid", "i", "j", "k", "scale"]
    outer = ast.items[6]
    assert (outer.var, outer.op, outer.step) == ("i", "<", 1)
    assert isinstance(outer.body, Block) and len(outer.body.body) == 1
    middle = outer.body.body[0]
    assert isinstance(middle, ForLoop) and middle.var == "j"
    inner = middle.body.body[0]
    assert isinstance(inner, ForLoop) and inner.var == "k"
    assert isinstance(inner.body.body[0], Assign)
    assert inner.body.body[0].name == "grid"
    assert outer.node_id < middle.node_id < inner.node_id


@pytest.mark.parametrize("path", corpus_programs(), ids=lambda p: p.name)
def test_round_trip_corpus(path):
    ast = parse_program(path.read_text(encoding="utf-8"))
    again = parse_program(to_source(ast))
    assert again == ast


def test_round_trip_expression_shapes():
    src = ("int x = 2;\nfloat y = 0;\nfloat z[3];\n"
           "y = (x + 2) * 3 - x / 4;\n"
           "z[x - 1] = sin(y) + sqrt(2.5) * cos(0);\n"
           "helper(y, z[0], 1 + x);\n")
    ast = parse_program(src)
    assert parse_program(to_source(ast)) == ast
    call = [item for item in ast.items if isinstance(item, CallStmt)][0]
    assert call.name == "helper" and not call.intrinsic and len(call.args) == 3


@pytest.mark.parametrize("literal", [
    "1" + "0" * 400,     # past binary64: parses to inf
    "1" + "0" * 20,      # an integer too long for a plain repr
    "0.00001",           # a fraction whose repr has an exponent
])
def test_round_trip_number_literals(literal):
    ast = parse_program(f"float x; x = {literal};")
    assert parse_program(to_source(ast)) == ast


def test_precedence():
    ast = parse_program("int x; x = 1 + 2 * 3;")
    value = ast.items[1].value
    assert value.op == "+"
    assert isinstance(value.left, Num)
    assert value.right.op == "*"
