"""AST node types for MiniC.

MiniC is a closed C subset: int/float scalar and fixed-size array
declarations (8-byte double elements), assignments, canonical for-loops,
blocks, and call statements. Every node carries a unique ``node_id``;
ids and source positions are excluded from equality so two parses of
equivalent text compare structurally equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

INTRINSICS = ("sin", "cos", "sqrt")
ELEM_WIDTH = 8  # bytes per scalar / array element (binary64)
EXACT = 2 ** 53  # binary64 holds every integer of smaller magnitude


def _meta(default=None):
    return field(default=default, compare=False, repr=False)


@dataclass(frozen=True)
class Node:
    node_id: int = _meta(-1)
    line: int = _meta(0)
    col: int = _meta(0)


# -- expressions -------------------------------------------------------------
# An expression writes no variable or cell, so nothing writes memory while a
# statement evaluates its expressions. The interpreter's generated source
# relies on this: within one statement it checks an index once per array
# size (interp._Nest.index). An expression with a side effect must end that.

@dataclass(frozen=True)
class Num(Node):
    value: float = 0.0


@dataclass(frozen=True)
class Var(Node):
    name: str = ""


@dataclass(frozen=True)
class Index(Node):
    name: str = ""
    index: Node = None


@dataclass(frozen=True)
class BinOp(Node):
    op: str = ""  # one of + - * /
    left: Node = None
    right: Node = None


@dataclass(frozen=True)
class Call(Node):
    """Call expression; intrinsic when name is sin/cos/sqrt, opaque otherwise."""

    name: str = ""
    args: tuple = ()

    @property
    def intrinsic(self) -> bool:
        return self.name in INTRINSICS


# -- statements and declarations ---------------------------------------------

@dataclass(frozen=True)
class VarDecl(Node):
    name: str = ""
    kind: str = "int"  # "int" | "float"; purely declarative, runtime is binary64
    size: int | None = None  # element count for arrays, None for scalars
    init: Node | None = None

    @property
    def is_array(self) -> bool:
        return self.size is not None

    @property
    def byte_size(self) -> int:
        return ELEM_WIDTH * (self.size if self.size is not None else 1)


@dataclass(frozen=True)
class Assign(Node):
    name: str = ""
    index: Node | None = None  # None for scalar assignment
    value: Node = None


@dataclass(frozen=True)
class ForLoop(Node):
    """Canonical-shaped for loop.

    The grammar forces ``for(v1 = init; v2 < bound; v3 ++/+= step)``; the
    header is canonical when v1 == v2 == v3, which eligibility checks later.
    """

    var: str = ""           # init target
    init: Node = None
    cond_var: str = ""      # condition variable
    op: str = "<"           # "<" | "<="
    bound: Node = None
    step_var: str = ""      # increment target
    step: int = 1
    body: Node = None
    end_line: int = _meta(0)

    @property
    def canonical(self) -> bool:
        return self.var == self.cond_var == self.step_var


@dataclass(frozen=True)
class Block(Node):
    body: tuple = ()


@dataclass(frozen=True)
class CallStmt(Node):
    name: str = ""
    args: tuple = ()

    @property
    def intrinsic(self) -> bool:
        return self.name in INTRINSICS


@dataclass(frozen=True)
class Program(Node):
    items: tuple = ()
    source: str = _meta("")  # original text, preserved for directive insertion


# node class -> names of its structural (compared) fields, in source order
_STRUCTURE = {cls: tuple(f.name for f in fields(cls) if f.compare)
              for cls in Node.__subclasses__()}


def children(node: Node) -> tuple:
    """Direct child nodes, in source order."""
    out = []
    for name in _STRUCTURE[type(node)]:
        v = getattr(node, name)
        if isinstance(v, Node):
            out.append(v)
        elif isinstance(v, tuple):
            out.extend(item for item in v if isinstance(item, Node))
    return tuple(out)


def walk(node: Node):
    """Yield node and all descendants in pre-order (source order)."""
    yield node
    for child in children(node):
        yield from walk(child)


def accesses(node: Node, skip: Node | None = None) -> tuple[set, set, set]:
    """(reads, assigned, control) over node and its descendants: the names
    read, the names assignments store to, and the index names loop headers
    write. A header reads its condition and step variables. Declarations
    are left out, and so is the subtree ``skip`` (matched by identity).
    """
    reads: set = set()
    assigned: set = set()
    control: set = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n is skip or isinstance(n, VarDecl):
            continue
        if isinstance(n, (Var, Index)):
            reads.add(n.name)
        elif isinstance(n, Assign):
            assigned.add(n.name)
        elif isinstance(n, ForLoop):
            reads.update((n.cond_var, n.step_var))
            control.update((n.var, n.step_var))
        stack.extend(children(n))
    return reads, assigned, control


def loops_in(node: Node) -> list:
    return [n for n in walk(node) if isinstance(n, ForLoop)]


def to_source(node: Node, indent: int = 0) -> str:
    """Canonical pretty-printer. Re-parsing its output yields a structurally
    identical AST (node ids aside)."""
    pad = "    " * indent
    if isinstance(node, Program):
        return "".join(to_source(item, 0) for item in node.items)
    if isinstance(node, VarDecl):
        dims = f"[{node.size}]" if node.is_array else ""
        init = f" = {_expr(node.init)}" if node.init is not None else ""
        return f"{pad}{node.kind} {node.name}{dims}{init};\n"
    if isinstance(node, Assign):
        target = node.name if node.index is None else f"{node.name}[{_expr(node.index)}]"
        return f"{pad}{target} = {_expr(node.value)};\n"
    if isinstance(node, ForLoop):
        step = f"{node.step_var}++" if node.step == 1 else f"{node.step_var} += {node.step}"
        head = (f"{pad}for ({node.var} = {_expr(node.init)}; "
                f"{node.cond_var} {node.op} {_expr(node.bound)}; {step})")
        if isinstance(node.body, Block):
            inner = "".join(to_source(s, indent + 1) for s in node.body.body)
            return f"{head} {{\n{inner}{pad}}}\n"
        return f"{head}\n{to_source(node.body, indent + 1)}"
    if isinstance(node, Block):
        inner = "".join(to_source(s, indent + 1) for s in node.body)
        return f"{pad}{{\n{inner}{pad}}}\n"
    if isinstance(node, CallStmt):
        args = ", ".join(_expr(a) for a in node.args)
        return f"{pad}{node.name}({args});\n"
    raise TypeError(f"not a statement node: {node!r}")


def _expr(node: Node) -> str:
    if isinstance(node, Num):
        # digits without an exponent, which the parser reads back to the
        # same value; MiniC has no spelling for inf, but 1e309 parses to it
        v = node.value
        if v == math.inf:
            return "1" + "0" * 309
        if v.is_integer():
            return str(int(v))
        mantissa, _, exponent = repr(v).partition("e")
        if not exponent:
            return mantissa
        # a fraction's exponent is negative: move the point left
        return "0." + "0" * (-int(exponent) - 1) + mantissa.replace(".", "")
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Index):
        return f"{node.name}[{_expr(node.index)}]"
    if isinstance(node, BinOp):
        return f"({_expr(node.left)} {node.op} {_expr(node.right)})"
    if isinstance(node, Call):
        return f"{node.name}({', '.join(_expr(a) for a in node.args)})"
    raise TypeError(f"not an expression node: {node!r}")
