"""Sequential MiniC interpreter, compiled once per run to closures.

Big-step evaluation in binary64; pure and deterministic. Programs are
closed (no input channel), so the final value of every top-level variable
is the program's output. Unknown call statements are opaque no-ops; an
unknown call in expression position has no defined value and raises.

A run compiles the program once into nested closures, then calls them;
plain interpretation and the two-memory-space model (offload.py) share the
compiler. Each closure is built for one memory space, fixed at build time
(the device inside an offload region, else the host), with only the
checks and device-fresh marking that space needs.
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
                 roots=(), hooks: dict | None = None):
        """The loops ``roots`` run on the device. ``hooks`` maps (loop id,
        "before" | "after") to callables that take the machine and run on
        the loop's entry or exit."""
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
        dev = dev or loop.node_id in self.roots
        memory, mark = self.space(dev)
        name, test, advance = loop.var, loop.cond_var, loop.step_var
        enter, leave = (_sequence([partial(hook, self) for hook in self.hooks.get(
            (loop.node_id, position), ())]) for position in ("before", "after"))
        start, bound = self.expr(loop.init, dev), self.expr(loop.bound, dev)
        body, step, strict = self.stmt(loop.body, dev), float(loop.step), loop.op == "<"
        ticks, cap = self.ticks, self.iteration_cap
        message = f"{loop.line}:{loop.col}: iteration cap ({cap}) exceeded"

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
        message = f"{node.line}:{node.col}: index {{}} out of bounds for '{node.name}[{size}]'"
        if isinstance(index, Var):  # leaf: the index variable is read in place
            memory, var = self.space(dev)[0], index.name

            def checked():
                idx = int(memory[var])
                if 0 <= idx < size:
                    return idx
                raise EvalError(message.format(idx))
        else:
            index = self.expr(index, dev)

            def checked():
                idx = int(index())
                if 0 <= idx < size:
                    return idx
                raise EvalError(message.format(idx))
        return checked

    def element(self, node: Index, dev: bool):
        index, name, memory = self.index(node, dev), node.name, self.space(dev)[0]
        if not dev and name not in self.written:  # no untransferred cells
            return lambda: memory[name][index()]
        poisoned = (f"device read of '{name}[{{}}]' before any transfer" if dev
                    else f"host read of '{name}[{{}}]', which was never transferred")

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
            message = f"{expr.line}:{expr.col}: division by zero"

            def divide():
                x, y = left(), right()
                if y == 0.0:
                    raise EvalError(message)
                return x / y

            return divide
        if not isinstance(expr, Call):
            raise TypeError(f"not an expression: {expr!r}")
        where, name = f"{expr.line}:{expr.col}", expr.name
        if not expr.intrinsic:
            def opaque():
                raise EvalError(f"{where}: opaque call '{name}' has no value")

            return opaque
        arg, fn = self.expr(expr.args[0], dev), _INTRINSIC_FN[name]

        def call():
            x = arg()
            try:
                return fn(x)
            except ValueError as exc:
                raise EvalError(f"{where}: {name}({x}): {exc}") from exc

        return call


def eval_expr(expr, values: dict) -> float:
    """Evaluate an expression over a store of name -> float or list of
    floats; a name missing from the store raises KeyError."""
    return Machine(host=values).expr(expr, False)()


def interpret(ast: Program, iteration_cap: int = ITERATION_CAP) -> dict:
    """Run the program; return {name: float | tuple-of-floats} in declaration
    order. Referentially transparent: equal ASTs give bit-equal outputs."""
    machine = Machine(iteration_cap)
    machine.run(ast)
    return machine.outputs(ast)
