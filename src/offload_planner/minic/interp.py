"""Sequential MiniC interpreter, compiled once per run, in two tiers.

Big-step evaluation in binary64; pure and deterministic. Programs are
closed (no input channel), so the final value of every top-level variable
is the program's output. Unknown call statements are opaque no-ops; an
unknown call in expression position has no defined value and raises.

A run compiles the program once, then runs it; plain interpretation and
the two-memory-space model (offload.py) share the compiler. Each piece is
built for one memory space, fixed at build time (the device inside an
offload region, else the host), with only the checks and device-fresh
marking that space needs. The compiler has two tiers:
  * closures, one per node, cheap to build: top-level code, loops with no
    static iteration count and colder loops;
  * generated Python source, several times faster per iteration, but
    compile() costs more than it saves on a cold loop. A hot loop (its
    static iteration count, trip count times entry count, reaches
    HOT_ITERATIONS) and its whole subtree become one source, compiled
    once, with a function per loop. Hotness comes from the program's loop
    table, so a run without one uses closures only.
Both tiers read and write the same memories, in the same order, with the
same checks and messages: an element write computes its value before its
index, a loop test reads its condition variable before the bound, a binary
operator evaluates its left operand first, and an element read checks
bounds before device presence. An index x is in bounds of n cells when
-1 < x < n: for a finite x, 0 <= int(x) < n; never for inf or NaN.
"""

from __future__ import annotations

import itertools
import math
from functools import partial

from .astnodes import (
    Assign,
    BinOp,
    Block,
    Call,
    CallStmt,
    ForLoop,
    Index,
    Num,
    Program,
    Var,
    VarDecl,
    accesses,
)

ITERATION_CAP = 10**8
# A loop whose static iteration count reaches this runs as generated
# source. Measured with CPython 3.11 on a shared 2-core x86-64 host, on the
# benchmark's flat loop `a6[i] = ((a9[i] * 0.75) + a0[i])`: closures cost
# 0.91 us per iteration on the host (1.34 on the device), generated source
# 0.47 (0.69) plus 150 us (230) to emit and compile it, so the two break
# even at about 300 (330) iterations; 1024 leaves a margin of three.
HOT_ITERATIONS = 1024
# Operators inlined into one emitted expression, each in its parentheses;
# CPython's tokenizer refuses 200 nested parentheses.
_MAX_INLINE = 32

_INTRINSIC_FN = {"sin": math.sin, "cos": math.cos, "sqrt": math.sqrt}

# op -> closure over two operand closures, or over a constant right operand
_ARITH = {"+": lambda l, r: lambda: l() + r(),
          "-": lambda l, r: lambda: l() - r(),
          "*": lambda l, r: lambda: l() * r()}
_ARITH_CONST = {"+": lambda l, c: lambda: l() + c,
                "-": lambda l, c: lambda: l() - c,
                "*": lambda l, c: lambda: l() * c,
                "/": lambda l, c: lambda: l() / c}

POISON = object()  # a device cell no transfer or kernel write has filled


class EvalError(Exception):
    pass


class TwoSpaceError(EvalError):
    """A read hit a value that was never transferred or computed."""


class _DeviceMemory(dict):
    """Holds a variable from its first transfer or kernel write on."""

    def __missing__(self, name):
        raise TwoSpaceError(f"device read of '{name}' before any transfer")


# -- the error messages both tiers raise ------------------------------------

def _cap_message(loop: ForLoop, cap: int) -> str:
    return f"{loop.line}:{loop.col}: iteration cap ({cap}) exceeded"


def _bounds_error(node: Index | Assign, size: int, x: float) -> EvalError:
    """``x`` is out of bounds; the message shows int(x), or inf or nan."""
    shown = int(x) if math.isfinite(x) else x
    return EvalError(f"{node.line}:{node.col}: index {shown} out of bounds "
                     f"for '{node.name}[{size}]'")


def _poison_message(name: str, dev: bool) -> str:
    """Template of a read of an unfilled cell, to format with the index."""
    return (f"device read of '{name}[{{}}]' before any transfer" if dev
            else f"host read of '{name}[{{}}]', which was never transferred")


def _division_message(expr: BinOp) -> str:
    return f"{expr.line}:{expr.col}: division by zero"


def _opaque_message(expr: Call) -> str:
    return f"{expr.line}:{expr.col}: opaque call '{expr.name}' has no value"


def _intrinsic_error(expr: Call, x: float, exc: ValueError) -> EvalError:
    return EvalError(f"{expr.line}:{expr.col}: {expr.name}({x}): {exc}")


def _sequence(parts: list):
    if len(parts) == 1:
        return parts[0]

    def sequence():
        for part in parts:
            part()

    return sequence


class Machine:
    """One run's state: host memory (the only one of plain interpretation),
    device memory, device-fresh names (written by the device since their
    last transfer or host write) and the iteration count of all loops."""

    def __init__(self, iteration_cap: int = ITERATION_CAP, host: dict | None = None,
                 roots=(), hooks: dict | None = None, loops=None):
        """The loops ``roots`` run on the device. ``hooks`` maps (loop id,
        "before" | "after") to callables that take the machine and run on
        the loop's entry or exit. ``loops``, the program's loop table,
        tells the hot loops, which run as generated source."""
        self.host = {} if host is None else host
        self.device = _DeviceMemory()
        self.fresh: set = set()
        self.iteration_cap = iteration_cap
        self.ticks = itertools.count(1)
        self.sizes = {name: len(v) for name, v in self.host.items() if isinstance(v, list)}
        self.roots = {root.node_id for root in roots}
        self.written: set = set()  # names some region writes
        for root in roots:
            self.written.update(*accesses(root)[1:])
        self.hooks = hooks or {}
        self.hot: set = set()
        for info in loops or ():
            entries = loops.exec_count(info.loop_id)
            if entries and info.trip_count and entries * info.trip_count >= HOT_ITERATIONS:
                self.hot.add(info.loop_id)

    def run(self, ast: Program):
        """Compile the program, then run it."""
        self.sizes = {item.name: item.size for item in ast.items if isinstance(item, VarDecl)}
        _sequence([self.stmt(item, False) for item in ast.items])()

    def transfer(self, name: str, to_device: bool):
        """Copy a variable between the memories; its device-fresh mark clears."""
        source, target = (self.host, self.device) if to_device else (self.device, self.host)
        if name not in source:  # only the device can lack a declared variable
            raise TwoSpaceError(f"copyout of '{name}', which the device never received")
        value = source[name]
        target[name] = list(value) if isinstance(value, list) else value
        self.fresh.discard(name)

    def outputs(self, ast: Program) -> dict:
        """Top-level variables of ``ast`` in declaration order, arrays as tuples."""
        return {item.name: tuple(self.host[item.name]) if item.is_array
                else self.host[item.name] for item in ast.items if isinstance(item, VarDecl)}

    def space(self, dev: bool) -> tuple:
        """(memory, mark) of a space; ``mark`` records a write there."""
        return (self.device, self.fresh.add) if dev else (self.host, self.fresh.discard)

    def stmt(self, stmt, dev: bool):
        if isinstance(stmt, VarDecl):  # top level only, so on the host
            host, name, size = self.host, stmt.name, stmt.size
            init = ((lambda: [0.0] * size) if stmt.is_array
                    else self.expr(Num() if stmt.init is None else stmt.init, False))
            return lambda: host.__setitem__(name, init())
        if isinstance(stmt, Assign):
            return self.assign(stmt, dev)
        if isinstance(stmt, ForLoop):
            return self.loop(stmt, dev)
        if isinstance(stmt, Block):
            return _sequence([self.stmt(inner, dev) for inner in stmt.body])
        if isinstance(stmt, CallStmt):
            # intrinsic effects are value-only; unknown calls are opaque no-ops
            return _sequence([self.expr(arg, dev) for arg in stmt.args]
                             if stmt.intrinsic else [])
        raise TypeError(f"not a statement: {stmt!r}")

    def assign(self, stmt: Assign, dev: bool):
        (memory, mark), name = self.space(dev), stmt.name
        value = self.expr(stmt.value, dev)
        if stmt.index is None:
            def store():
                memory[name] = value()
                mark(name)

            return store
        index, size = self.index(stmt, dev), self.sizes[name]  # after the value

        def store_cell():
            x, idx = value(), index()
            if name not in memory:  # the device holds an array from its first write on
                memory[name] = [POISON] * size
            memory[name][idx] = x
            mark(name)

        return store_cell

    def loop(self, loop: ForLoop, dev: bool):
        if loop.node_id in self.hot:
            return _Nest(self).build(loop, dev)
        dev = dev or loop.node_id in self.roots
        memory, mark = self.space(dev)
        name, test, advance = loop.var, loop.cond_var, loop.step_var
        enter, leave = (_sequence([partial(hook, self) for hook in self.hooks.get(
            (loop.node_id, position), ())]) for position in ("before", "after"))
        start, bound = self.expr(loop.init, dev), self.expr(loop.bound, dev)
        body, step, strict = self.stmt(loop.body, dev), float(loop.step), loop.op == "<"
        ticks, cap = self.ticks, self.iteration_cap
        message = _cap_message(loop, cap)

        def run():
            enter()
            memory[name] = start()
            mark(name)
            while memory[test] < bound() if strict else memory[test] <= bound():
                if next(ticks) > cap:
                    raise EvalError(message)
                body()
                memory[advance] += step
                mark(advance)
            leave()

        return run

    def index(self, node: Index | Assign, dev: bool):
        """Checked element index of a read (an Index) or an element write (an
        Assign), whose position prefixes the error. Indices truncate toward
        zero and must land inside the array."""
        size, index = self.sizes[node.name], node.index
        top = float(size)
        if isinstance(index, Var):  # leaf: the index variable is read in place
            memory, var = self.space(dev)[0], index.name

            def checked():
                x = memory[var]
                if -1.0 < x < top:
                    return int(x)
                raise _bounds_error(node, size, x)
        else:
            index = self.expr(index, dev)

            def checked():
                x = index()
                if -1.0 < x < top:
                    return int(x)
                raise _bounds_error(node, size, x)
        return checked

    def element(self, node: Index, dev: bool):
        index, name, memory = self.index(node, dev), node.name, self.space(dev)[0]
        if not dev and name not in self.written:  # no untransferred cells
            return lambda: memory[name][index()]
        poisoned = _poison_message(name, dev)

        def read():
            idx = index()  # bounds before presence
            value = memory[name][idx]
            if value is POISON:
                raise TwoSpaceError(poisoned.format(idx))
            return value

        return read

    def expr(self, expr, dev: bool):
        if isinstance(expr, Num):
            value = expr.value
            return lambda: value
        if isinstance(expr, Var):
            memory, name = self.space(dev)[0], expr.name
            return lambda: memory[name]
        if isinstance(expr, Index):
            return self.element(expr, dev)
        if isinstance(expr, BinOp):
            left, op, right = self.expr(expr.left, dev), expr.op, expr.right
            if isinstance(right, Num) and (op != "/" or right.value != 0.0):
                return _ARITH_CONST[op](left, right.value)
            right = self.expr(right, dev)
            if op != "/":
                return _ARITH[op](left, right)
            message = _division_message(expr)

            def divide():
                x, y = left(), right()
                if y == 0.0:
                    raise EvalError(message)
                return x / y

            return divide
        if not isinstance(expr, Call):
            raise TypeError(f"not an expression: {expr!r}")
        if not expr.intrinsic:
            message = _opaque_message(expr)

            def opaque():
                raise EvalError(message)

            return opaque
        arg, fn = self.expr(expr.args[0], dev), _INTRINSIC_FN[expr.name]

        def call():
            x = arg()
            try:
                return fn(x)
            except ValueError as exc:
                raise _intrinsic_error(expr, x, exc) from exc

        return call


def _atomic(code: str) -> bool:
    """Whether emitted code is a name or a literal, which reads nothing."""
    return code.isidentifier() or code[0].isdigit()


class _Nest:
    """The generated-source tier: one loop nest as Python source, emitted
    statement by statement in evaluation order, a function per loop, which
    an enclosing loop calls. So none nests deeper than a ``while`` and a
    ``try``, and compile() takes any nest the parser accepts.

    Every check becomes a statement, so an expression's code is the lines
    it emits, which compute and check its parts into temporaries, and a
    result that only a device read can make raise. A binary operator whose
    right operand emits lines stores its left operand first; one whose
    code would inline more than _MAX_INLINE operators is stored too.
    Nothing writes memory while one statement evaluates (a rule of
    MiniC, stated in astnodes), so within it an index already checked against an array of the
    same size is not computed or checked again: the first check is the one
    that would fail. A loop's bound, evaluated again after each iteration's
    writes, starts afresh. In the code,
    ``H`` and ``D`` are the machine's memories, ``F`` its device-fresh
    names and ``P`` is POISON; every other object it needs is bound under
    a name of its own. A function's default arguments are those of
    ``base`` and those bound while it was emitted: it reads them as locals."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self.names = {"H": machine.host, "D": machine.device, "F": machine.fresh, "P": POISON,
                      "E": EvalError, "TE": TwoSpaceError, "BE": _bounds_error,
                      "CE": _intrinsic_error, "tick": machine.ticks.__next__}
        self.base = tuple(self.names)  # every function's first parameters
        self.lines, self.params = [], []  # of the function being emitted
        self.temps = itertools.count()
        self.checked: dict = {}  # (index code, size) -> its checked temporary
        self.defs: list = []  # the lines of each function, an inner loop's first

    def build(self, loop: ForLoop, dev: bool):
        """The function of the nest's root; a SyntaxError is a bug, raised."""
        root = self.loop(loop, dev)
        source = "".join("\n".join(lines) + "\n" for lines in self.defs)
        code = compile(source, f"<loop {loop.line}:{loop.col}>", "exec")
        namespace = dict(self.names)
        exec(code, namespace)
        return namespace[root]

    # -- lines and names ------------------------------------------------------

    def line(self, text: str, at: int | None = None):
        self.lines.insert(len(self.lines) if at is None else at, "    " + text)

    def bind(self, value) -> str:
        name = f"_k{len(self.names)}"
        self.names[name] = value
        self.params.append(name)
        return name

    def temp(self, code: str, at: int | None = None) -> str:
        """A temporary holding ``code``'s value, computed at line ``at``
        (default: next); code that is already a name or a literal stays."""
        if _atomic(code):
            return code
        name = f"_t{next(self.temps)}"
        self.line(f"{name} = {code}", at)
        return name

    # -- statements ------------------------------------------------------------

    def stmt(self, stmt, dev: bool):
        self.checked = {}
        if isinstance(stmt, Assign):
            self.assign(stmt, dev)
        elif isinstance(stmt, ForLoop):
            self.line(f"{self.loop(stmt, dev)}()")
        elif isinstance(stmt, Block):
            for inner in stmt.body:
                self.stmt(inner, dev)
        elif isinstance(stmt, CallStmt):
            for arg in stmt.args if stmt.intrinsic else ():
                code = self.expr(arg, dev)  # evaluated for its errors
                if not _atomic(code):
                    self.line(code)
        else:
            raise TypeError(f"not a statement in a loop: {stmt!r}")

    def mark(self, name: str, dev: bool):
        """The machine's mark, behind a membership test: cheaper than the
        call it usually spares."""
        if dev:
            self.line(f"if {name!r} not in F: F.add({name!r})")
        else:
            self.line(f"if {name!r} in F: F.discard({name!r})")

    def assign(self, stmt: Assign, dev: bool):
        memory, name = "D" if dev else "H", stmt.name
        value = self.expr(stmt.value, dev)
        if stmt.index is None:
            self.line(f"{memory}[{name!r}] = {value}")
        else:
            start = len(self.lines)
            idx = self.index(stmt, dev)
            value = self.temp(value, start)  # the value before the index
            if dev:  # the device holds an array from its first write on
                self.line(f"if {name!r} not in D: D[{name!r}] = [P] * "
                          f"{self.machine.sizes[name]}")
            self.line(f"{memory}[{name!r}][{idx}] = {value}")
        self.mark(name, dev)

    def hooks(self, loop: ForLoop, position: str):
        hooks = self.machine.hooks.get((loop.node_id, position))
        if hooks:
            run = _sequence([partial(hook, self.machine) for hook in hooks])
            self.line(f"{self.bind(run)}()")

    def loop(self, loop: ForLoop, dev: bool) -> str:
        """Emits the loop and its hooks as a function; returns its name."""
        outer = self.lines, self.params
        self.lines, self.params = [], list(self.base)
        dev = dev or loop.node_id in self.machine.roots
        memory = "D" if dev else "H"
        self.hooks(loop, "before")
        self.line(f"{memory}[{loop.var!r}] = {self.expr(loop.init, dev)}")
        self.mark(loop.var, dev)
        self.line("while True:")
        self.checked, start = {}, len(self.lines)
        test = f"{memory}[{loop.cond_var!r}]"
        bound = self.expr(loop.bound, dev)  # its checks, inside the loop
        if len(self.lines) > start:  # the condition variable is read before the bound
            test = self.temp(test, start)
        self.line(f"if not {test} {loop.op} {bound}: break")
        message = _cap_message(loop, self.machine.iteration_cap)
        self.line(f"if tick() > {self.machine.iteration_cap}: raise E({message!r})")
        self.stmt(loop.body, dev)
        self.line(f"{memory}[{loop.step_var!r}] += {float(loop.step)!r}")
        self.mark(loop.step_var, dev)
        self.lines[start:] = ["    " + line for line in self.lines[start:]]  # the while's body
        self.hooks(loop, "after")
        params = ", ".join(f"{name}={name}" for name in self.params)
        name = f"nest{len(self.defs) or ''}"
        self.defs.append([f"def {name}({params}):"] + self.lines)
        self.lines, self.params = outer
        return name

    # -- expressions ------------------------------------------------------------

    def index(self, node: Index | Assign, dev: bool) -> str:
        size = self.machine.sizes[node.name]
        key = (self.expr(node.index, dev), size)
        if key not in self.checked:
            x = self.temp(key[0])
            self.line(f"if not -1.0 < {x} < {float(size)!r}: "
                      f"raise BE({self.bind(node)}, {size}, {x})")
            self.checked[key] = self.temp(f"int({x})")
        return self.checked[key]

    def element(self, node: Index, dev: bool) -> str:
        idx = self.index(node, dev)  # bounds before presence
        cell = f"{'D' if dev else 'H'}[{node.name!r}][{idx}]"
        if not dev and node.name not in self.machine.written:  # no untransferred cells
            return cell
        value = self.temp(cell)
        self.line(f"if {value} is P: "
                  f"raise TE({_poison_message(node.name, dev)!r}.format({idx}))")
        return value

    def expr(self, expr, dev: bool) -> str:
        if isinstance(expr, Num):
            value = expr.value  # never negative: the grammar has no unary minus
            return repr(value) if math.isfinite(value) else self.bind(value)
        if isinstance(expr, Var):
            return f"{'D' if dev else 'H'}[{expr.name!r}]"
        if isinstance(expr, Index):
            return self.element(expr, dev)
        if isinstance(expr, BinOp):
            left = self.expr(expr.left, dev)
            start = len(self.lines)
            right = self.expr(expr.right, dev)
            if len(self.lines) > start:
                left = self.temp(left, start)
            if expr.op != "/" or (isinstance(expr.right, Num) and expr.right.value != 0.0):
                code = f"({left} {expr.op} {right})"
                return self.temp(code) if code.count("(") > _MAX_INLINE else code
            left, right = self.temp(left, start), self.temp(right)
            self.line(f"if {right} == 0.0: raise E({_division_message(expr)!r})")
            return f"({left} / {right})"
        if not isinstance(expr, Call):
            raise TypeError(f"not an expression: {expr!r}")
        if not expr.intrinsic:
            self.line(f"raise E({_opaque_message(expr)!r})")
            return "None"
        arg = self.temp(self.expr(expr.args[0], dev))
        value, call = f"_t{next(self.temps)}", self.bind(expr)
        self.line("try:")
        self.line(f"    {value} = {self.bind(_INTRINSIC_FN[expr.name])}({arg})")
        self.line("except ValueError as exc:")
        self.line(f"    raise CE({call}, {arg}, exc) from exc")
        return value


def eval_expr(expr, values: dict) -> float:
    """Evaluate an expression over a store of name -> float or list of
    floats; a name missing from the store raises KeyError."""
    return Machine(host=values).expr(expr, False)()


def interpret(ast: Program, iteration_cap: int = ITERATION_CAP, loops=None) -> dict:
    """Run the program; return {name: float | tuple-of-floats} in declaration
    order. Referentially transparent: equal ASTs give bit-equal outputs.
    ``loops``, the loop table of ``ast``, lets hot loops run as generated
    source; the outputs are the same without it."""
    machine = Machine(iteration_cap, loops=loops)
    machine.run(ast)
    return machine.outputs(ast)
