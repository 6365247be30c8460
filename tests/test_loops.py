"""Loop table tests. The def/use reference oracle below is an independent
single-pass traversal, deliberately separate from the production walker."""

import json
import math
import random

import pytest

from offload_planner.minic import extract_loops, loops_in, parse_program
from offload_planner.minic.astnodes import Assign, Block, CallStmt, ForLoop

from conftest import corpus_programs, read_corpus


def reference_def_use(loop):
    """Oracle: flat worklist traversal collecting writes from assignments and
    reads from every expression, including loop-header operands."""
    defs, uses = set(), set()
    work = [loop]
    while work:
        node = work.pop()
        if isinstance(node, ForLoop):
            uses |= expr_vars(node.init) | {node.cond_var} | expr_vars(node.bound)
            uses.add(node.step_var)
            work.append(node.body)
        elif isinstance(node, Block):
            work.extend(node.body)
        elif isinstance(node, Assign):
            defs.add(node.name)
            if node.index is not None:
                uses |= expr_vars(node.index)
            uses |= expr_vars(node.value)
        elif isinstance(node, CallStmt):
            for arg in node.args:
                uses |= expr_vars(arg)
    return defs, uses


def expr_vars(expr):
    out = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        name = getattr(node, "name", None)
        if name is not None and not hasattr(node, "args"):
            out.add(name)
        for attr in ("index", "left", "right"):
            child = getattr(node, attr, None)
            if child is not None:
                stack.append(child)
        for arg in getattr(node, "args", ()):
            stack.append(arg)
    return out


def table_for(src):
    ast = parse_program(src)
    return ast, extract_loops(ast)


def test_def_use_matches_spec_example():
    _, table = table_for(
        "int s; float b[10]; int i; for(i=0;i<10;i++){ s = s + b[i]; }")
    info = table.infos[0]
    assert info.eligible
    assert info.trip_count == 10
    assert set(info.defs) == {"s"}
    assert set(info.uses) == {"s", "b", "i"}


def test_def_use_agrees_with_reference_oracle_on_corpus():
    for path in corpus_programs():
        ast = parse_program(path.read_text(encoding="utf-8"))
        table = extract_loops(ast)
        for loop in loops_in(ast):
            defs, uses = reference_def_use(loop)
            info = table.by_id[loop.node_id]
            assert set(info.defs) == defs, path.name
            assert set(info.uses) == uses, path.name


def test_unknown_call_makes_loop_ineligible():
    _, table = table_for("int i; float x; for(i=0;i<4;i++){ mystery(x); }")
    info = table.infos[0]
    assert not info.eligible
    assert "unknown call" in info.ineligibility_reason
    assert "mystery" in info.ineligibility_reason


def test_bound_beyond_binary64_has_no_trip_count():
    huge = "1" + "0" * 400  # folds to an infinite binary64
    _, table = table_for(f"int i; float x; for(i=0;i<{huge};i++){{ x = 1.0; }}")
    assert table.infos[0].trip_count is None
    assert not table.infos[0].eligible


def test_unknown_call_in_expression_is_also_ineligible():
    _, table = table_for("int i; float x; for(i=0;i<4;i++){ x = oracle(i); }")
    assert not table.infos[0].eligible


def test_reason_names_the_first_unknown_call_in_source_order():
    # a nested header's call precedes the calls of the body after it
    _, table = table_for(
        "int i; int j; float x; x = first(1);\n"
        "for(i=0;i<4;i++){ x = sin(x); for(j=second(2);j<4;j++){ x = third(j); } "
        "fourth(x); }\n"
        "for(i=0;i<4;i++){ x = x + sqrt(fifth(x)); }")
    reasons = [info.ineligibility_reason for info in table.infos]
    assert reasons == ["unknown call 'second' in loop body",
                       "bounds not statically evaluable or trip count not positive",
                       "unknown call 'fifth' in loop body"]


def test_eligibility_monotone_under_unknown_call_growth():
    # growing a body by an unknown call never turns a loop eligible
    bodies = [
        "x = x + 1.0;",             # eligible before growth
        "i = i + 0;",               # ineligible: index written
        "x = x / (x - x);",         # eligible before growth (runtime issue only)
    ]
    for body in bodies:
        _, before = table_for(f"int i; float x; for(i=0;i<4;i++){{ {body} }}")
        _, after = table_for(
            f"int i; float x; for(i=0;i<4;i++){{ {body} poke(x); }}")
        assert not after.infos[0].eligible
        assert after.infos[0].eligible <= before.infos[0].eligible


def test_non_canonical_header_ineligible_but_non_static_reason_ordering():
    _, table = table_for("int i; int j; int n = 4; for(j=0;i<n;i++){ j = j + 1; }")
    info = table.infos[0]
    assert not info.eligible
    assert "non-canonical" in info.ineligibility_reason
    assert info.trip_count is None


def test_index_written_in_body_ineligible():
    _, table = table_for("int i; int n = 4; float s; "
                         "for(i=0;i<n;i++){ i = i + 0; s = s + 1.0; }")
    info = table.infos[0]
    assert not info.eligible
    assert "index variable 'i'" in info.ineligibility_reason
    assert set(info.defs) == {"i", "s"}


def test_non_static_bound_ineligible():
    _, table = table_for("int i; int n; n = 4; for(i=0;i<n;i++){ n = n + 0; }")
    info = table.infos[0]
    assert not info.eligible
    assert info.trip_count is None


def test_zero_trip_loop_has_no_trip_count_and_is_ineligible():
    _, table = table_for("int i; float s; for(i=0;i<0;i++){ s = s + 1.0; }")
    info = table.infos[0]
    assert info.trip_count is None
    assert not info.eligible


def test_nesting_parent_and_depth():
    _, table = table_for(read_corpus("nested3.mc"))
    outer, middle, inner = table.infos
    assert outer.parent_loop is None and outer.depth == 0
    assert middle.parent_loop == outer.loop_id and middle.depth == 1
    assert inner.parent_loop == middle.loop_id and inner.depth == 2
    assert table.ancestors(inner.loop_id) == [middle.loop_id, outer.loop_id]
    assert table.subtree_ids(outer.loop_id) == [outer.loop_id, middle.loop_id,
                                                inner.loop_id]


def test_tree_indexes_follow_parent_links():
    # ancestors, subtree and entry count, each checked against a direct
    # reading of parent_loop
    for path in corpus_programs() + [None]:
        text = read_corpus(path.name) if path else (
            "int i; int j; int k; float n = 3; float s; n = 2; "
            "for(k=0;k<n;k++){ for(j=0;j<2;j++) for(i=0;i<3;i++){ s = s + 1.0; } }")
        _, table = table_for(text)
        for info in table:
            chain, lid = [], info.parent_loop
            while lid is not None:
                chain.append(lid)
                lid = table.by_id[lid].parent_loop
            assert table.ancestors(info.loop_id) == chain
            trips = [table.by_id[a].trip_count for a in chain]
            expected = None if None in trips else math.prod(trips)
            assert table.exec_count(info.loop_id) == expected
            assert table.subtree_ids(info.loop_id) == [
                other.loop_id for other in table
                if other.loop_id == info.loop_id
                or info.loop_id in table.ancestors(other.loop_id)]


def test_trip_counts():
    cases = [
        ("for(i=0;i<10;i++){ s = s + 1.0; }", 10),
        ("for(i=0;i<=10;i++){ s = s + 1.0; }", 11),
        ("for(i=0;i<10;i+=3){ s = s + 1.0; }", 4),
        ("for(i=2;i<=10;i+=4){ s = s + 1.0; }", 3),
        ("for(i=0;i<n*2;i++){ s = s + 1.0; }", 8),
        ("for(i=0;i<sqrt(16);i++){ s = s + 1.0; }", 4),
        ("for(i=0;i<n/0;i++){ s = s + 1.0; }", None),
        ("for(i=0;i<a[0];i++){ s = s + 1.0; }", None),
        ("r = 2; for(i=0;i<r;i++){ s = s + 1.0; }", None),
        ("for(i=0;i<sqrt(0 - 1);i++){ s = s + 1.0; }", None),
        ("for(i=0;i<n*(1 + 1)/2;i++){ s = s + 1.0; }", 4),
    ]
    for body, expected in cases:
        _, table = table_for(f"int i; float s; int n = 4; float a[4]; int r = 4; {body}")
        assert table.infos[0].trip_count == expected, body


def test_uses_and_defs_subset_declared_and_index_in_uses():
    for path in corpus_programs():
        ast = parse_program(path.read_text(encoding="utf-8"))
        declared = {item.name for item in ast.items if hasattr(item, "kind")}
        table = extract_loops(ast)
        for info in table:
            assert (set(info.defs) | set(info.uses)) <= declared
            loop = table.nodes[info.loop_id]
            assert loop.cond_var in info.uses


def test_mixed_corpus_eligibility():
    _, table = table_for(read_corpus("mixed.mc"))
    flags = [info.eligible for info in table.infos]
    reasons = [info.ineligibility_reason for info in table.infos]
    assert flags == [False, False, False, True]
    assert "unknown call 'probe'" in reasons[0]
    assert "non-canonical" in reasons[1]
    assert "index variable" in reasons[2]


def test_loop_table_json_schema():
    _, table = table_for(read_corpus("nested_hoist.mc"))
    data = json.loads(table.dumps())
    assert [row["loop_id"] for row in data] == [info.loop_id for info in table]
    for row in data:
        assert set(row) == {"loop_id", "parent", "depth", "trip_count",
                            "eligible", "reason", "defs", "uses"}
        assert row["defs"] == sorted(row["defs"])


def test_random_flat_programs_def_use_property():
    rng = random.Random(7)
    names = ["u", "v", "w", "z"]
    for _ in range(50):
        decls = "".join(f"float {n} = 0;\n" for n in names) + "int i = 0;\n"
        body = "".join(
            f"{rng.choice(names)} = {rng.choice(names)} + {rng.choice(names)};\n"
            for _ in range(rng.randint(1, 4)))
        src = decls + "for(i=0;i<5;i++){\n" + body + "}\n"
        ast = parse_program(src)
        table = extract_loops(ast)
        loop = loops_in(ast)[0]
        defs, uses = reference_def_use(loop)
        assert set(table.infos[0].defs) == defs
        assert set(table.infos[0].uses) == uses


@pytest.mark.parametrize("src, outer_must, inner_must", [
    ("float a[8]; int i; for(i=0;i<8;i++){ a[i] = 1.0; }", True, None),
    ("float a[8]; int i; for(i=0;i<=7;i++){ a[i] = 1.0; }", True, None),
    ("int n = 8; float a[8]; int i; for(i=0;i<n;i++){ a[i] = 1.0; }", True, None),
    ("float a[8]; int i; for(i=1;i<9;i++){ a[i - 1] = 1.0; }", True, None),
    ("float a[8]; int i; for(i=0;i<16;i+=2){ a[i / 2] = 1.0; }", True, None),
    ("float a[1]; int i; for(i=0;i<3;i++){ a[0] = 1.0; }", True, None),
    # a partial write: too few iterations, an offset, a stride, a
    # non-integer step of the index, an index the body rewrites, an
    # unknown trip count, or an index read from memory
    ("float a[8]; int i; for(i=0;i<4;i++){ a[i] = 1.0; }", False, None),
    ("float a[8]; int i; for(i=1;i<8;i++){ a[i] = 1.0; }", False, None),
    ("float a[8]; int i; for(i=0;i<8;i++){ a[i / 2] = 1.0; }", False, None),
    ("float a[8]; int i; for(i=0;i<8;i++){ a[(i * 0.5) * 2] = 1.0; }", False, None),
    ("float a[8]; int i; for(i=0;i<8;i++){ a[i] = 1.0; i = i + 0; }", False, None),
    ("float a[8]; int i; int m; m = 8; for(i=0;i<m;i++){ a[i] = 1.0; }", False, None),
    ("float a[8]; float b[8]; int i; for(i=0;i<8;i++){ a[b[i]] = 1.0; }", False, None),
    # nests: the loop whose iterations cover the array decides
    ("float g[12]; int i; int j; "
     "for(i=0;i<3;i++){ for(j=0;j<4;j++){ g[i * 4 + j] = 1.0; } }", True, False),
    ("float g[4]; int i; int j; "
     "for(i=0;i<3;i++){ for(j=0;j<4;j++){ g[j] = 1.0; } }", True, True),
    ("float g[12]; int i; int j; "
     "for(i=0;i<3;i++){ for(j=0;j<4;j++){ g[i * 3 + j] = 1.0; } }", False, False),
    ("int n = 0; float g[12]; int i; int j; "
     "for(i=0;i<12;i++){ for(j=0;j<n;j++){ g[i] = 1.0; } }", False, False),
])
def test_element_stores_must_write_an_array_only_where_they_cover_it(
        src, outer_must, inner_must):
    table = extract_loops(parse_program(src))
    outer = table.infos[0]
    written = "g" if "g[" in src else "a"
    assert (written in outer.must) is outer_must
    if inner_must is not None:
        assert (written in table.infos[1].must) is inner_must


def test_must_holds_header_writes_and_scalar_stores():
    table = extract_loops(parse_program(
        "int n = 0; float x; float y; int i; int j; "
        "for(i=0;i<4;i++){ y = 1.0; for(j=0;j<n;j++){ x = 1.0; } }"))
    outer, inner = table.infos
    # the inner loop may run zero times: its stores are not sure for the outer
    assert outer.must == {"i", "j", "y"}
    assert inner.must == {"j", "x"}
